"""Regenerate the end-to-end CLI fixture dump, truth file, and golden outputs.

Run from the repository root after an intentional behavior change:

    python tests/data/make_fixtures.py

The golden tree under tests/data/golden/ is byte-compared by
tests/test_cli.py, so regenerate it only when the change in output is
deliberate, and review the diff.
"""

import json
import shutil
import sys
from pathlib import Path

DATA = Path(__file__).parent

PAD = "Filler prose keeps this article over the ingest size threshold. " * 6

SOLVER_DOCS = {
    "Solver One": "A toy solver walks the grid and keeps a memo of every scored cell.",
    "Solver Two": "The climb inspects a small sweep window and restarts from corners of the grid.",
    "Solver Three": "Each restart seeds the search at a new cell before the climb resumes.",
    "Solver Four": "A memo table stores the score of every cell the search has visited.",
    "Solver Five": "The sweep stops when no nearby cell improves the best score.",
    "Solver Six": "Peak finding on a grid needs restarts to escape a flat score plateau.",
}

HIDDEN_DOCS = {
    "Quiet climber": "This climber sweeps the grid, scores each cell, and memoizes the peak.",
    "Unsung search": "A search with restarts rarely stalls; its memo keeps every scored cell.",
    "Plateau walker": "Walking a plateau, the sweep trusts the memo to avoid rescoring a cell.",
}

KITCHEN_DOCS = {
    "Rustic loaf": "Knead the dough, rest it, then bake until the crust sings in the oven.",
    "Simple broth": "Simmer bones with butter and stir the pan while the stock reduces.",
    "Morning scones": "Flour, butter, and a quick stir; bake the dough straight from the cold.",
    "Braised greens": "A slow simmer in the pan with butter keeps the greens tender.",
    "Country pie": "Roll the dough thin, crimp the pan edge, and bake until golden.",
}


def _page(pid, title, body, ns=0, redirect=False):
    redirect_tag = '\n    <redirect title="Solver One" />' if redirect else ""
    return (
        f"  <page>\n"
        f"    <title>{title}</title>\n"
        f"    <ns>{ns}</ns>\n"
        f"    <id>{pid}</id>{redirect_tag}\n"
        f"    <revision>\n"
        f"      <id>{pid * 100}</id>\n"
        f"      <text>{body}</text>\n"
        f"    </revision>\n"
        f"  </page>\n"
    )


def build_dump() -> str:
    pages = []
    pid = 1
    for title, lead in SOLVER_DOCS.items():
        body = f"{lead}\n\n{PAD}\n== References ==\nCited works.\n\n[[Category:Toy solvers]]"
        pages.append(_page(pid, title, body))
        pid += 1
    for title, lead in HIDDEN_DOCS.items():
        body = f"{lead}\n\n{PAD}\n== References ==\nCited works."
        pages.append(_page(pid, title, body))
        pid += 1
    for title, lead in KITCHEN_DOCS.items():
        body = f"{lead}\n\n{PAD}\n== References ==\nCited works.\n\n[[Category:Kitchen lore]]"
        pages.append(_page(pid, title, body))
        pid += 1
    pages.append(_page(pid, "Solver 1", "#REDIRECT [[Solver One]]", redirect=True))
    pid += 1
    pages.append(_page(pid, "Tiny stub", "Too short to keep."))
    return (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">\n'
        + "".join(pages)
        + "</mediawiki>\n"
    )


def regenerate(root: Path) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from priorlearn.cli import main

    dump = DATA / "e2e_dump.xml"
    dump.write_text(build_dump(), encoding="utf-8")
    truth_ids = [7, 8, 9]  # the hidden solver articles
    (DATA / "e2e_truth.txt").write_text("".join(f"{i}\n" for i in truth_ids), encoding="utf-8")

    golden = DATA / "golden"
    if golden.exists():
        shutil.rmtree(golden)
    run = root / "e2e_run"
    if run.exists():
        shutil.rmtree(run)

    def cli(*args):
        code = main([str(a) for a in args])
        assert code == 0, args

    store = run / "store"
    cli("ingest", dump, "--out", store)
    cli("search", "--corpus", store, "--category", "Toy solvers", "--seeds", "0", "1",
        "--out", run / "search")
    learned = json.loads((run / "search" / "learned.json").read_text())
    cli("classify", "--corpus", store, "--category", "Toy solvers", "--seeds", "0", "1",
        "--lambda-neg", "1", "--lambda-pos", "1", "--out", run / "baseline")
    cli("classify", "--corpus", store, "--category", "Toy solvers", "--seeds", "0", "1",
        "--lambda-neg", learned["lambda_neg"], "--lambda-pos", learned["lambda_pos"],
        "--out", run / "study")
    cli("evaluate", "--predictions", run / "study" / "predictions.csv",
        "--truth", DATA / "e2e_truth.txt", "--eval-k", "5", "--out", run / "evaluate")
    cli("report", "--baseline", run / "baseline" / "predictions.csv",
        "--study", run / "study" / "predictions.csv", "--truth", DATA / "e2e_truth.txt",
        "--eval-k", "5", "--top-n", "5", "--out", run / "report")

    shutil.copytree(run, golden)
    shutil.rmtree(run)
    print(f"regenerated {dump} and {golden}")


if __name__ == "__main__":
    regenerate(Path(__file__).resolve().parents[2])
