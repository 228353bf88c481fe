"""Command-line front end: ingest, search, classify, evaluate, report.

Every command reads and writes plain files, is idempotent on identical
inputs, and takes all randomness from explicit seed flags. Exit codes:
0 ok, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import AbstractSet, Callable, TextIO, TypeVar

from . import experiment, metrics, search, stats
from .corpus import CorpusFormatError, IngestError, ingest_wiki_dump, load_corpus, store_corpus
from .model import Hyperparameters, model_manifest
from .search import Cell, DEFAULT_GRID

__all__ = ["main"]

T = TypeVar("T")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse would exit(2)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="priorlearn", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    store = argparse.ArgumentParser(add_help=False)  # the flags of the commands that read a store
    store.add_argument("--corpus", required=True, help="corpus store directory")
    store.add_argument("--category", required=True)

    p = sub.add_parser("ingest", help="ingest a MediaWiki XML export into a corpus store")
    p.set_defaults(run=_cmd_ingest)
    p.add_argument("dump", help="path to the pages XML export (decompressed)")
    p.add_argument("--out", required=True, help="corpus store directory")
    p.add_argument("--min-bytes", type=int, default=300, help="minimum retained body size")

    p = sub.add_parser("search", parents=[store], help="learn (lambda_neg, lambda_pos) for a category")
    p.set_defaults(run=_cmd_search)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.add_argument("--starts", help="comma-separated lambda_neg:lambda_pos start pairs, e.g. 1:1,8:8,15:15")

    p = sub.add_parser("classify", parents=[store], help="rank the whole corpus under given priors")
    p.set_defaults(run=_cmd_classify)
    p.add_argument("--seeds", type=int, nargs="+", default=[0], help="first seed is the reporting seed")
    p.add_argument("--lambda-neg", type=float, required=True)
    p.add_argument("--lambda-pos", type=float, required=True)

    p = sub.add_parser("evaluate", help="PPV@k and cumulative profile of a predictions file")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--predictions", required=True, help="predictions CSV from classify")
    p.add_argument("--truth", required=True, help="file of true-positive doc ids, one per line")
    p.add_argument("--eval-k", type=int, default=250)

    p = sub.add_parser("report", help="compare two prediction lists: CIs, t-test, review page")
    p.set_defaults(run=_cmd_report)
    p.add_argument("--baseline", required=True, help="baseline predictions CSV")
    p.add_argument("--study", required=True, help="study predictions CSV")
    p.add_argument("--truth", required=True, help="file of true-positive doc ids, one per line")
    p.add_argument("--eval-k", type=int, default=250)
    p.add_argument("--top-n", type=int, default=1000)
    p.add_argument("--bootstrap-b", type=int, default=10_000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bootstrap-seed", type=int, default=0)
    p.add_argument("--link-template", default=experiment.DEFAULT_LINK_TEMPLATE)

    for name in ("search", "classify", "evaluate", "report"):  # each one's last flag
        sub.choices[name].add_argument("--out", required=True, help="output directory")
    return parser


def _grid_index(value: float) -> int:
    if value not in DEFAULT_GRID:
        raise ValueError(f"{value} is not a grid value")
    return DEFAULT_GRID.index(value)


def _parse_starts(text: str) -> tuple[Cell, ...]:
    cells = []
    for pair in text.split(","):
        try:
            raw_neg, raw_pos = pair.split(":")
            cells.append(Cell(_grid_index(float(raw_neg)), _grid_index(float(raw_pos))))
        except ValueError as exc:
            raise UsageError(f"bad start pair {pair!r}: {exc}") from exc
    return tuple(cells)


def _read_text(path: str, read: Callable[[TextIO], T]) -> T:
    """``read`` of the UTF-8 file at ``path``; a value it cannot read is a data error naming the file."""
    try:
        with open(path, encoding="utf-8", newline="\n") as text:  # a quoted title may hold a CR
            return read(text)
    except UnicodeDecodeError:  # its position counts from the start of the block being decoded
        try:
            Path(path).read_bytes().decode("utf-8")  # raises it again, placed in the whole file
        except UnicodeDecodeError as exc:
            raise CorpusFormatError(f"{path}: {exc}") from None
        raise
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def _read_truth(path: str) -> frozenset[int]:
    """The doc ids of a file holding one per line."""
    return _read_text(path, lambda text: frozenset(map(int, text.read().split())))


def _read_predictions(
    path: str, title_ranks: int, title_ids: AbstractSet[int] = frozenset()
) -> tuple[experiment.RankedPredictions, dict[int, str]]:
    """The ranking in ``path``, with the titles :func:`~priorlearn.experiment.read_predictions_csv` keeps."""
    return _read_text(path, lambda text: experiment.read_predictions_csv(text, title_ranks, title_ids))


def _at_k(measure: Callable[..., T], path: str, ranked: experiment.RankedPredictions, truth: AbstractSet[int], k: int) -> T:
    """``measure(ranked.ids, truth, k)`` of the ranking read from ``path``; ``k`` past its end is a data error naming it."""
    try:
        return measure(ranked.ids, truth, k)
    except ValueError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path: Path, payload: dict) -> None:
    _write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _cmd_ingest(args: argparse.Namespace) -> int:
    skipped: Counter = Counter()
    with open(args.dump, "rb") as stream:
        corpus, categories = ingest_wiki_dump(stream, min_bytes=args.min_bytes, skipped=skipped)
    store_corpus(corpus, categories, args.out)
    print(f"ingested {corpus.doc_count} documents, {len(categories.names)} categories")
    for reason in sorted(skipped):
        print(f"skipped {reason}: {skipped[reason]}")
    return EXIT_OK


def _load_spec(args: argparse.Namespace, **fields) -> experiment.ExperimentSpec:
    corpus, categories = load_corpus(args.corpus)
    return experiment.ExperimentSpec(
        corpus=corpus,
        categories=categories,
        category=args.category,
        seeds=tuple(args.seeds),
        **fields,
    )


def _cmd_search(args: argparse.Namespace) -> int:
    spec = _load_spec(args, starts=search.default_starts() if args.starts is None else _parse_starts(args.starts))
    result = experiment.learn_priors(spec)
    out = Path(args.out)
    _write_json(
        out / "learned.json",
        {
            "category": spec.category,
            "seeds": list(spec.seeds),
            "starts": [[c.x, c.y] for c in spec.starts],
            "prng": experiment.PRNG_NAME,
            "cell": [result.cell.x, result.cell.y],
            "lambda_neg": result.hyperparameters.lambda_neg,
            "lambda_pos": result.hyperparameters.lambda_pos,
            "mean_ppv": result.mean_ppv,
            "evaluations": result.evaluations,
        },
    )
    for seed, memo in zip(spec.seeds, result.memos):
        _write(out / f"memo_seed{seed}.csv", search.memo_to_csv(memo))
    _write(out / "memo_mean.csv", search.memo_to_csv(result.mean_scores))
    _write(out / "search_log.txt", "".join(map(search.moves_to_log, spec.seeds, result.move_logs)))
    print(
        f"learned lambda_neg={result.hyperparameters.lambda_neg} "
        f"lambda_pos={result.hyperparameters.lambda_pos} mean_ppv={result.mean_ppv:.4f} "
        f"({result.evaluations} cell evaluations)"
    )
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    hp = Hyperparameters(lambda_neg=args.lambda_neg, lambda_pos=args.lambda_pos)
    model, ranked = experiment.classify_corpus(spec, hp)
    titles = dict(zip(spec.corpus.doc_ids.tolist(), spec.corpus.titles))
    out = Path(args.out)
    _write(out / "predictions.csv", experiment.predictions_to_csv(ranked, titles))
    _write(out / "model_manifest.txt", model_manifest(model))
    _write_json(
        out / "classify_manifest.json",
        {
            "category": spec.category,
            "seeds": list(spec.seeds),
            "prng": experiment.PRNG_NAME,
            "lambda_neg": hp.lambda_neg,
            "lambda_pos": hp.lambda_pos,
            "classified": len(ranked),
            "positives_predicted": ranked.positives_predicted,
        },
    )
    print(f"classified {len(ranked)} documents, {ranked.positives_predicted} predicted positive")
    return EXIT_OK


def _cmd_evaluate(args: argparse.Namespace) -> int:
    ranked, _ = _read_predictions(args.predictions, title_ranks=0)
    truth = _read_truth(args.truth)
    profile = _at_k(metrics.ppv_profile, args.predictions, ranked, truth, args.eval_k)
    k, hits, value = profile[-1]
    out = Path(args.out)
    _write(out / "profile.csv", metrics.profile_to_csv(profile))
    _write_json(out / "evaluation.json", {"k": k, "hits": hits, "ppv": value})
    print(f"ppv@{k} = {value:.4f} ({hits} hits)")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    # only the titles the review page lists; where both files title an id, the study's is listed
    baseline, baseline_titles = _read_predictions(args.baseline, args.top_n)
    study, study_titles = _read_predictions(args.study, args.top_n, baseline_titles.keys())
    truth = _read_truth(args.truth)
    k = args.eval_k
    v_base = _at_k(stats.outcome_vector, args.baseline, baseline, truth, k)
    v_study = _at_k(stats.outcome_vector, args.study, study, truth, k)
    ci_base = stats.bootstrap_ci(v_base, B=args.bootstrap_b, alpha=args.alpha, seed=args.bootstrap_seed)
    ci_study = stats.bootstrap_ci(v_study, B=args.bootstrap_b, alpha=args.alpha, seed=args.bootstrap_seed)
    p_value = stats.significance_test(v_base, v_study)

    titles = {**baseline_titles, **study_titles}
    review = experiment.export_review_list(
        baseline, study, titles, top_n=args.top_n, link_template=args.link_template
    )
    out = Path(args.out)
    _write(
        out / "report.csv",
        stats.report_to_csv(
            [
                ("baseline", k, float(v_base.mean()), ci_base),
                ("study", k, float(v_study.mean()), ci_study),
            ],
            p_value,
        ),
    )
    _write(out / "review.html", review)
    _write_json(
        out / "report_manifest.json",
        {
            "k": k,
            "top_n": args.top_n,
            "bootstrap_b": args.bootstrap_b,
            "alpha": args.alpha,
            "bootstrap_seed": args.bootstrap_seed,
            "p_value": p_value,
            "positives_predicted": {
                "baseline": baseline.positives_predicted,
                "study": study.positives_predicted,
            },
        },
    )
    print(
        f"baseline ppv@{k}={v_base.mean():.4f} [{ci_base.lo:.4f}, {ci_base.hi:.4f}]  "
        f"study ppv@{k}={v_study.mean():.4f} [{ci_study.lo:.4f}, {ci_study.hi:.4f}]  "
        f"p={p_value:.3g}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IngestError, CorpusFormatError, OSError, KeyError, ValueError, OverflowError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
