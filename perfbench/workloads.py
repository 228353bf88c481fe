"""The benchmark's three workloads: inputs, one measured iteration, answers.

Each iteration returns its end-to-end timings and a flat map of answers
(learned cell and priors, positives predicted, PPV@100, digests of the
predictions and memo CSVs, and on wiki-cli the ingest counts). The caller
compares the answers with ``reference.json``, recorded at the commit that
introduced the benchmark.

The inputs of each workload are fixed, so the paper's answer is the same
on every run. ``--seed`` changes only choices that leave every answer
unchanged: the order of the nine search starts, the order of the
rankings, and the surface form of the wiki dump.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from priorlearn import cli, experiment, metrics, search, stats, synthetic
from priorlearn.model import BAYES_LAPLACE
from priorlearn.synthetic import CATEGORY

import wikidump

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
CACHE = ROOT / ".bench_cache"

PPV_K = 100  # the paper's PPV@100
EVAL_K = 250  # the CLI's default --eval-k, used for profiles and bootstrap
TOP_N = 1000
COMMAND_TIMEOUT_S = 150

now = time.perf_counter


class NullTracer:
    """Stands in for :class:`tracer.Tracer` in untraced runs."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def span(self, name: str):
        return contextlib.nullcontext()


@dataclass
class Iteration:
    wall_s: float
    time_to_priors_s: float
    ppv_at_100: float
    answers: dict
    commands: int = 0
    nonzero_exits: int = 0
    command_s: dict = field(default_factory=dict)
    command_rss_mb: dict = field(default_factory=dict)
    elapsed_s: float | None = None
    """First call to last artifact, gaps included, where it differs from wall_s."""


def digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode("utf-8")).hexdigest()


def permuted_starts(seed: int) -> tuple:
    starts = list(search.default_starts())
    random.Random(seed).shuffle(starts)
    return tuple(starts)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --- in-process workloads ---------------------------------------------------


@dataclass(frozen=True)
class InProcess:
    """learn_priors over ``seeds``, then a baseline and a study ranking per ranked seed."""

    name: str
    corpus_args: dict
    seeds: tuple[int, ...]
    ranked_seeds: tuple[int, ...]
    report: bool
    priors_reps: int
    """learn_priors calls timed per iteration; the first one feeds the rankings."""

    def build(self):
        return synthetic.make_synthetic_corpus(seed=0, **self.corpus_args)

    def prepare(self, syn, seed: int):
        return syn

    def iterate(self, syn, seed: int, tr) -> Iteration:
        out = fresh_dir(WORK / self.name)
        rng = random.Random(seed)
        order = [(s, branch) for s in self.ranked_seeds for branch in ("baseline", "study")]
        rng.shuffle(order)
        corpus, categories, truth = syn.corpus, syn.categories, syn.truth
        texts: dict[str, str] = {}

        def emit(name: str, text: str) -> None:
            (out / name).write_text(text, encoding="utf-8")
            texts[name] = text

        t0 = now()
        spec = experiment.ExperimentSpec(
            corpus=corpus,
            categories=categories,
            category=CATEGORY,
            seeds=self.seeds,
            starts=permuted_starts(seed),
            top_n=TOP_N,
        )
        result = experiment.learn_priors(spec)
        t_priors = now()
        for s, memo in zip(spec.seeds, result.memos):
            emit(f"memo_seed{s}.csv", search.memo_to_csv(memo, spec.grid))
        emit("memo_mean.csv", search.memo_to_csv(result.mean_scores, spec.grid))

        with tr.span("corpus.iter"):
            titles = {doc.id: doc.title for doc in corpus}
        models = {}
        rankings = {}
        for s, branch in order:
            if s not in models:
                training = experiment.make_training_set(corpus, categories, CATEGORY, s)
                models[s] = (experiment.training_model(corpus, training), frozenset(training.positive_ids))
            model, exclude = models[s]
            hp = BAYES_LAPLACE if branch == "baseline" else result.hyperparameters
            ranked = experiment.rank_corpus(corpus, model, hp, exclude)
            rankings[s, branch] = ranked
            emit(f"{branch}_seed{s}.csv", experiment.predictions_to_csv(ranked, titles))

        ppv = {}
        for s in self.ranked_seeds:
            for branch in ("baseline", "study"):
                ppv[s, branch] = metrics.ppv_at_k(rankings[s, branch].doc_ids(), truth, PPV_K)
        if self.report:
            first = self.ranked_seeds[0]
            emit(
                "review.html",
                experiment.export_review_list(
                    rankings[first, "baseline"], rankings[first, "study"], titles, top_n=TOP_N
                ),
            )
            for s in self.ranked_seeds:
                v_base = stats.outcome_vector(rankings[s, "baseline"].doc_ids(), truth, EVAL_K)
                v_study = stats.outcome_vector(rankings[s, "study"].doc_ids(), truth, EVAL_K)
                ci_base = stats.bootstrap_ci(v_base, seed=0)
                ci_study = stats.bootstrap_ci(v_study, seed=0)
                p_value = stats.significance_test(v_base, v_study)
                profile = metrics.ppv_profile(rankings[s, "study"].doc_ids(), truth, EVAL_K)
                emit(f"profile_seed{s}.csv", metrics.profile_to_csv(profile))
                emit(
                    f"report_seed{s}.csv",
                    stats.report_to_csv(
                        [
                            ("baseline", EVAL_K, float(v_base.mean()), ci_base),
                            ("study", EVAL_K, float(v_study.mean()), ci_study),
                        ],
                        p_value,
                    ),
                )
        wall = now() - t0
        # repeats after the timed pipeline, so they cannot warm it
        priors_s = [t_priors - t0]
        for _ in range(self.priors_reps - 1):
            t = now()
            experiment.learn_priors(spec)
            priors_s.append(now() - t)

        answers = {
            "cell": [result.cell.x, result.cell.y],
            "lambda": [result.hyperparameters.lambda_neg, result.hyperparameters.lambda_pos],
        }
        for (s, branch), ranked in sorted(rankings.items()):
            answers[f"{branch}_seed{s}.positives_predicted"] = ranked.positives_predicted
            answers[f"{branch}_seed{s}.ppv_at_100"] = ppv[s, branch]
        for name, text in sorted(texts.items()):
            answers[name] = digest(text)
        study_ppv = sum(ppv[s, "study"] for s in self.ranked_seeds) / len(self.ranked_seeds)
        return Iteration(wall, statistics.median(priors_s), study_ppv, answers)


# --- wiki-cli ---------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], log: Path) -> tuple[int, str, float, float]:
    """Run one CLI command as its own process, through ``launch.py``.

    Returns its exit code, its output, its wall time and its own peak
    resident memory in MB.
    """
    report = log.with_suffix(".usage")
    with log.open("w", encoding="utf-8") as sink:
        subprocess.run(
            [sys.executable, "-S", str(HERE / "launch.py"), str(report), str(COMMAND_TIMEOUT_S),
             sys.executable, "-m", "priorlearn", *argv],
            cwd=ROOT, env=child_env(), stdout=sink, stderr=subprocess.STDOUT,
            check=True, timeout=COMMAND_TIMEOUT_S + 30,
        )
    code, wall, rss_kb = report.read_text(encoding="utf-8").split()
    return int(code), log.read_text(encoding="utf-8"), float(wall), int(rss_kb) / 1024


def run_in_process(argv: list[str], log: Path) -> tuple[int, str, float, None]:
    """Run one CLI command through ``cli.main`` in this process (no memory figure)."""
    buffer = io.StringIO()
    start = now()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    wall = now() - start
    log.write_text(buffer.getvalue(), encoding="utf-8")
    return code, buffer.getvalue(), wall, None


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def _predictions(path: Path) -> list[tuple[int, float]] | None:
    """(doc_id, p_pos) in rank order, read without priorlearn."""
    text = _read(path)
    if text is None:
        return None
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return [(int(row[1]), float(row[4])) for row in rows]


@dataclass(frozen=True)
class WikiCli:
    """ingest, search, two classify runs, evaluate and report, as separate commands."""

    name: str = "wiki-cli"
    in_process: bool = False
    priors_reps: int = 2
    """ingest-plus-search pairs timed per iteration; the first one feeds the pipeline."""

    def build(self):
        return synthetic.make_synthetic_corpus(seed=0)

    def prepare(self, syn, seed: int):
        return wikidump.ensure_dump(CACHE / self.name, seed, lambda: (syn, CATEGORY))

    def iterate(self, paths, seed: int, tr) -> Iteration:
        dump, truth_file = paths
        out = fresh_dir(WORK / self.name)
        run = run_in_process if self.in_process else run_process
        rng = random.Random(seed)
        starts = ",".join(
            f"{search.DEFAULT_GRID[c.x]:g}:{search.DEFAULT_GRID[c.y]:g}" for c in permuted_starts(seed)
        )
        outputs: dict[str, str] = {}
        command_s: dict[str, float] = {}
        command_rss_mb: dict[str, float] = {}
        nonzero = 0

        def command(label: str, argv: list[str]) -> float:
            nonlocal nonzero
            with tr.span(f"cli.{argv[0]}"):
                code, outputs[label], command_s[label], command_rss_mb[label] = run(argv, out / f"{label}.log")
            if code != 0:
                nonzero += 1
                tr.counts["cli.nonzero_exits"] += 1
            return command_s[label]

        def ingest_and_search(suffix: str) -> float:
            return command(
                "ingest" + suffix, ["ingest", str(dump), "--out", str(out / ("store" + suffix))]
            ) + command(
                "search" + suffix, ["search", "--corpus", str(out / ("store" + suffix)),
                                    "--category", CATEGORY, "--seeds", "0", "1", "2", "3", "4",
                                    "--starts", starts, "--out", str(out / ("search" + suffix))]
            )

        t0 = now()
        priors_s = [ingest_and_search("")]
        learned = json.loads(_read(out / "search" / "learned.json") or "{}")
        branches = [("baseline", 1.0, 1.0), ("study", learned.get("lambda_neg"), learned.get("lambda_pos"))]
        rng.shuffle(branches)
        for branch, lneg, lpos in branches:
            command(f"classify_{branch}", ["classify", "--corpus", str(out / "store"), "--category", CATEGORY,
                                           "--lambda-neg", repr(lneg), "--lambda-pos", repr(lpos),
                                           "--out", str(out / branch)])
        command("evaluate", ["evaluate", "--predictions", str(out / "study" / "predictions.csv"),
                             "--truth", str(truth_file), "--out", str(out / "evaluate")])
        command("report", ["report", "--baseline", str(out / "baseline" / "predictions.csv"),
                           "--study", str(out / "study" / "predictions.csv"),
                           "--truth", str(truth_file), "--out", str(out / "report")])
        # the commands' own wall times, back to back; the gaps are the benchmark's
        wall = sum(command_s.values())
        elapsed = now() - t0
        tr.counts["corpus.dump_bytes"] += dump.stat().st_size
        for i in range(self.priors_reps - 1):  # after the pipeline, as on study-synthetic
            priors_s.append(ingest_and_search(f"_rep{i + 1}"))

        answers: dict = {}
        kept = re.search(r"ingested (\d+) documents, (\d+) categories", outputs["ingest"])
        answers["ingest.docs_kept"] = int(kept.group(1)) if kept else None
        answers["ingest.categories"] = int(kept.group(2)) if kept else None
        skipped = dict(re.findall(r"^skipped (\S+): (\d+)$", outputs["ingest"], re.MULTILINE))
        for reason in wikidump.SKIP_PAGES:
            answers[f"ingest.skipped.{reason}"] = int(skipped[reason]) if reason in skipped else None
        answers["cell"] = learned.get("cell")
        answers["lambda"] = [learned.get("lambda_neg"), learned.get("lambda_pos")]
        for s in range(5):
            answers[f"memo_seed{s}.csv"] = digest(_read(out / "search" / f"memo_seed{s}.csv"))
        answers["memo_mean.csv"] = digest(_read(out / "search" / "memo_mean.csv"))
        truth = {int(line) for line in truth_file.read_text(encoding="utf-8").split()}
        study_ppv = 0.0
        for branch in ("baseline", "study"):
            path = out / branch / "predictions.csv"
            answers[f"{branch}.predictions.csv"] = digest(_read(path))
            rows = _predictions(path)
            ppv = None if rows is None else sum(doc_id in truth for doc_id, _ in rows[:PPV_K]) / PPV_K
            answers[f"{branch}.positives_predicted"] = None if rows is None else sum(p > 0.5 for _, p in rows)
            answers[f"{branch}.ppv_at_100"] = ppv
            if branch == "study" and ppv is not None:
                study_ppv = ppv
        evaluation = json.loads(_read(out / "evaluate" / "evaluation.json") or "{}")
        answers["evaluate.ppv"] = evaluation.get("ppv")
        answers["report.csv"] = digest(_read(out / "report" / "report.csv"))
        answers["review.html"] = digest(_read(out / "report" / "review.html"))
        return Iteration(
            wall, statistics.median(priors_s), study_ppv, answers,
            len(command_s), nonzero, command_s, command_rss_mb, elapsed,
        )


WORKLOADS = {
    "study-synthetic": InProcess(
        name="study-synthetic",
        corpus_args={},
        seeds=(0, 1, 2, 3, 4),
        ranked_seeds=(0, 1, 2, 3, 4),
        report=True,
        priors_reps=5,
    ),
    "search-wide": InProcess(
        name="search-wide",
        corpus_args={"n_members": 1000, "pool_size": 4000},
        seeds=tuple(range(20)),
        ranked_seeds=(0,),
        report=False,
        priors_reps=1,
    ),
    "wiki-cli": WikiCli(),
}


def check(answers: dict, reference: dict) -> int:
    """Number of reference answers that this iteration did not reproduce."""
    return sum(answers.get(key) != value for key, value in reference.items())
