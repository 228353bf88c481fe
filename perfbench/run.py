"""priorlearn benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload study-synthetic --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; priorlearn is imported from
``src/``. Set-up (importing priorlearn in a fresh process, then building the
workload's inputs with ``make_synthetic_corpus``) is repeated three times
and reported as a median. Then come as many whole iterations as fit in
``--seconds``, at least one. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced iteration followed by traced ones and prints the per-layer
metrics. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import priorlearn.cli; print(time.perf_counter() - t)"
LAYERS = ("cli", "corpus", "experiment", "model", "search", "metrics", "stats")

# one process, one thread: keep numpy's BLAS pools from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def set_up(wl, seed: int, env: dict):
    """Import priorlearn in fresh processes and build the inputs, SETUP_REPS times."""
    setup, builds, import_walls = [], [], []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=120,
        )
        import_walls.append(time.perf_counter() - t)
        syn = None  # free the previous inputs before building the next
        t = time.perf_counter()
        syn = wl.build()
        builds.append(time.perf_counter() - t)
        setup.append(float(probe.stdout.split()[-1]) + builds[-1])
    return wl.prepare(syn, seed), median(setup), median(builds), median(import_walls)


def unit_of(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_per_explored_cell")):
        return "ratio"
    if name in ("corpus.store_bytes", "experiment.csv_bytes"):
        return "bytes"
    return "count"


def layer_metrics(tr, it, untraced_wall: float, build_s: float, import_s: float) -> dict:
    c = tr.counts
    evals = [i for i, span in enumerate(tr.spans) if span[0] == "search.cell_eval"]
    eval_time = sum(tr.spans[i][2] - tr.spans[i][1] for i in evals)
    ranks = sorted(tr.durations("experiment.rank_corpus"))
    rank_time = sum(ranks)
    ingest_s = tr.total("corpus.ingest_wiki_dump")
    pages = c["corpus.docs_kept"] + sum(v for k, v in c.items() if k.startswith("corpus.pages_skipped."))
    load_time = tr.total("corpus.load_corpus")
    ingest_cmd = tr.total("cli.ingest")
    m = {
        "synthetic.make_synthetic_corpus_s": build_s,
        "cli.import_s": import_s,
        "cli.ingest_s": ingest_cmd,
        "cli.search_s": tr.total("cli.search"),
        "cli.classify_s": median(tr.durations("cli.classify")),
        "cli.evaluate_s": tr.total("cli.evaluate"),
        "cli.report_s": tr.total("cli.report"),
        "cli.nonzero_exits": c["cli.nonzero_exits"],
        "corpus.ingest_wiki_dump_s": ingest_s,
        "corpus.pages_per_s": pages / ingest_s if ingest_s else 0.0,
        "corpus.ingest_mb_per_s": c["corpus.dump_bytes"] / 1e6 / ingest_cmd if ingest_cmd else 0.0,
        "corpus.docs_kept": c["corpus.docs_kept"],
    }
    for reason in ("namespace_1", "namespace_14", "redirect", "disambiguation", "below_min_bytes", "incomplete_page"):
        m[f"corpus.pages_skipped.{reason}"] = c[f"corpus.pages_skipped.{reason}"]
    m.update({
        "corpus.store_corpus_s": tr.total("corpus.store_corpus"),
        "corpus.store_files": c["corpus.store_files"],
        "corpus.store_bytes": c["corpus.store_bytes"],
        "corpus.load_corpus_s": median(tr.durations("corpus.load_corpus")),
        "corpus.load_docs_per_s": c["corpus.docs_loaded"] / load_time if load_time else 0.0,
        "experiment.make_training_set_s": tr.total("experiment.make_training_set"),
        "model.build_counts_s": tr.total("model.build_counts"),
        "model.features": c["model.features"],
        "model.folds": c["model.folds"],
        "search.learn_priors_s": tr.total("search.learn_priors"),
        "search.evaluator_build_s": tr.total("search.evaluator_build"),
        "search.aggregate_s": tr.outer_total({"search.aggregate_over_seeds", "search.cross_seed_mean_scores"}),
        "search.cells_per_s": len(evals) / eval_time if eval_time else 0.0,
        "search.cell_evals": len(evals),
        "search.search_evals": sum(tr.within(i, "search.multi_start_search") for i in evals),
        "search.backfill_evals": sum(tr.within(i, "search.cross_seed_mean_scores") for i in evals),
        "search.explored_cells": c["search.explored_cells"],
        "search.evals_per_explored_cell": len(evals) / c["search.explored_cells"] if c["search.explored_cells"] else 0.0,
        "experiment.rank_corpus_s": median(ranks),
        # the highest percentile with ten samples beyond it, never below the median
        "experiment.rank_corpus_tail_s": ranks[max(len(ranks) - 11, len(ranks) // 2)] if ranks else 0.0,
        "experiment.rank_corpus_calls": len(ranks),
        "experiment.rank_docs_per_s": c["experiment.docs_ranked"] / rank_time if rank_time else 0.0,
        "experiment.positives_predicted": c["experiment.positives_predicted"],
        "experiment.predictions_to_csv_s": tr.total("experiment.predictions_to_csv"),
        "experiment.csv_bytes": c["experiment.csv_bytes"],
        "experiment.export_review_list_s": tr.total("experiment.export_review_list"),
        "stats.bootstrap_ci_s": tr.total("stats.bootstrap_ci"),
        "stats.significance_test_s": tr.total("stats.significance_test"),
        "metrics.ppv_profile_s": tr.total("metrics.ppv_profile"),
        "trace.overhead_s": it.wall_s - untraced_wall,
        "trace.unattributed_share": 1.0 - tr.covered() / (it.elapsed_s or it.wall_s),
    })
    self_times = tr.self_times()
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_times[layer]
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "priorlearn" / "__init__.py").is_file():
        print(f"no priorlearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[args.workload]
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        # per-layer counts cover one pipeline; wiki-cli runs through cli.main
        wl = dataclasses.replace(wl, priors_reps=1)
        if isinstance(wl, workloads.WikiCli):
            wl = dataclasses.replace(wl, in_process=True)

    inputs, setup_s, build_s, import_s = set_up(wl, args.seed, workloads.child_env())
    attempted = failed = 0

    def iterate(tr) -> "workloads.Iteration":
        nonlocal attempted, failed
        it = wl.iterate(inputs, args.seed, tr)
        mismatched = workloads.check(it.answers, reference)
        attempted += len(reference) + it.commands
        failed += mismatched + it.nonzero_exits
        print(
            f"# iteration wall_s={it.wall_s:.3f} time_to_priors_s={it.time_to_priors_s:.3f} "
            f"mismatched_answers={mismatched} nonzero_exits={it.nonzero_exits} "
            + " ".join(
                f"{k}={v:.3f}s" + ("" if it.command_rss_mb[k] is None else f"/{it.command_rss_mb[k]:.0f}MB")
                for k, v in it.command_s.items()
            ),
            flush=True,
        )
        return it

    def run_for(seconds: float, step) -> list:
        """Whole iterations that fit in ``seconds``, at least one.

        Another iteration starts only if one more of median length still
        fits, so the count does not flip between runs of similar speed.
        """
        results, lengths = [], []
        start = time.perf_counter()
        while not results or time.perf_counter() - start + median(lengths) <= seconds:
            t = time.perf_counter()
            results.append(step())
            lengths.append(time.perf_counter() - t)
        return results

    if not args.trace:
        its = run_for(args.seconds, lambda: iterate(workloads.NullTracer()))
        if isinstance(wl, workloads.WikiCli):  # the largest command process
            rss_mb = max(max(it.command_rss_mb.values()) for it in its)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (median(it.wall_s for it in its), "s"),
            "setup_s": (setup_s, "s"),
            "time_to_priors_s": (median(it.time_to_priors_s for it in its), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "study_ppv_at_100": (median(it.ppv_at_100 for it in its), "ratio"),
        }
    else:
        untraced = iterate(workloads.NullTracer())
        per_iteration = []
        tracers = []

        def traced():
            tr = tracer.Tracer()
            with tracer.instrument(tr):
                it = iterate(tr)
            tracers.append(tr)
            per_iteration.append(layer_metrics(tr, it, untraced.wall_s, build_s, import_s))

        run_for(args.seconds, traced)
        metrics = {
            name: (median(m[name] for m in per_iteration), unit_of(name)) for name in per_iteration[0]
        }
        trace_file = workloads.WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps([tr.to_json() for tr in tracers]) + "\n", encoding="utf-8")
        ranked = sorted(((metrics[f"{l}.self_s"][0], l) for l in LAYERS), reverse=True)
        print("# self time by layer: " + ", ".join(f"{l}={v:.3f}s" for v, l in ranked), flush=True)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
