import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import priorlearn
from priorlearn.cli import main

DATA = Path(__file__).parent / "data"


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _child_env() -> dict:
    """Environment in which a child imports the package this test imported."""
    src = str(Path(priorlearn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestArgumentHandling:
    def test_no_args_prints_help_and_exits_usage(self, capsys):
        assert main([]) == 1
        assert "ingest" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["ingest", "x.xml", "--nope"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["search", "--category", "X", "--out", "o"]) == 1

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        code = main(
            ["search", "--corpus", str(tmp_path / "absent"), "--category", "X",
             "--out", str(tmp_path / "out")]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_missing_dump_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "no.xml"), "--out", str(tmp_path / "s")]) == 2

    def test_unwritable_category_file_is_data_error(self, tmp_path, capsys):
        # 84 three-byte characters: a legal 252-byte category name whose
        # percent-encoded file name exceeds the usual 255-byte limit
        category = "\u20ac" * 84
        body = "alpha beta gamma delta " * 20
        dump = tmp_path / "dump.xml"
        dump.write_text(
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/"><page>'
            "<title>Euro</title><ns>0</ns><id>1</id><revision><id>100</id>"
            f"<text>{body} [[Category:{category}]]</text></revision></page></mediawiki>",
            encoding="utf-8",
        )
        assert main(["ingest", str(dump), "--out", str(tmp_path / "s"), "--shards", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "%E2%82%AC" * 84 in err

    def test_unknown_category_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s"),
                     "--shards", "2"]) == 0
        code = main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Nope",
                     "--lambda-neg", "1", "--lambda-pos", "1", "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_finite_lambda_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s"),
                     "--shards", "1"]) == 0
        capsys.readouterr()
        code = main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--lambda-neg", "inf", "--lambda-pos", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lambda_neg must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_start_pair_is_usage_error(self, tmp_path, capsys):
        main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s"), "--shards", "1"])
        code = main(["search", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--starts", "1:1,bogus", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "priorlearn"], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 1
        assert "ingest" in proc.stderr

    def test_import_does_not_load_scipy(self):
        # only the report command needs scipy.special; the others never load scipy
        code = "import sys, priorlearn.cli\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestIngestCommand:
    def test_reports_skips(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s"),
                     "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "ingested 1 documents" in out
        assert "skipped below_min_bytes: 1" in out
        assert "skipped redirect: 1" in out

    def test_idempotent_bytes(self, tmp_path):
        for _ in range(2):
            assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / "s"),
                         "--shards", "4"]) == 0
            snapshot = _tree_bytes(tmp_path / "s")
        assert snapshot == _tree_bytes(tmp_path / "s")


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("e2e")
    store = run / "store"
    steps = [
        ["ingest", str(DATA / "e2e_dump.xml"), "--out", str(store), "--shards", "4"],
        ["search", "--corpus", str(store), "--category", "Toy solvers",
         "--seeds", "0", "1", "--out", str(run / "search")],
    ]
    for argv in steps:
        assert main(argv) == 0
    learned = json.loads((run / "search" / "learned.json").read_text())
    more = [
        ["classify", "--corpus", str(store), "--category", "Toy solvers",
         "--seeds", "0", "1", "--lambda-neg", "1", "--lambda-pos", "1",
         "--out", str(run / "baseline")],
        ["classify", "--corpus", str(store), "--category", "Toy solvers",
         "--seeds", "0", "1", "--lambda-neg", str(learned["lambda_neg"]),
         "--lambda-pos", str(learned["lambda_pos"]), "--out", str(run / "study")],
        ["evaluate", "--predictions", str(run / "study" / "predictions.csv"),
         "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5",
         "--out", str(run / "evaluate")],
        ["report", "--baseline", str(run / "baseline" / "predictions.csv"),
         "--study", str(run / "study" / "predictions.csv"),
         "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5", "--top-n", "5",
         "--out", str(run / "report")],
    ]
    for argv in more:
        assert main(argv) == 0
    return run


class TestEndToEndGolden:
    """The full workflow reproduces the checked-in outputs byte-for-byte."""

    def test_matches_golden_tree(self, run_dir):
        golden = _tree_bytes(DATA / "golden")
        produced = _tree_bytes(run_dir)
        assert set(produced) == set(golden)
        for rel in sorted(golden):
            assert produced[rel] == golden[rel], f"binary mismatch in {rel}"

    def test_review_page_is_blinded(self, run_dir):
        html = (run_dir / "report" / "review.html").read_text()
        for forbidden in ("baseline", "study", "p_pos", "log_odds", "lambda"):
            assert forbidden not in html.lower()

    @pytest.mark.parametrize("top_n", ["0", "-1"])
    def test_report_rejects_top_n_below_one(self, run_dir, tmp_path, capsys, top_n):
        code = main(
            ["report", "--baseline", str(run_dir / "baseline" / "predictions.csv"),
             "--study", str(run_dir / "study" / "predictions.csv"),
             "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5", "--top-n", top_n,
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        assert "top_n must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_rerun_of_report_is_idempotent(self, run_dir):
        before = _tree_bytes(run_dir / "report")
        assert main(
            ["report", "--baseline", str(run_dir / "baseline" / "predictions.csv"),
             "--study", str(run_dir / "study" / "predictions.csv"),
             "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5", "--top-n", "5",
             "--out", str(run_dir / "report")]
        ) == 0
        assert _tree_bytes(run_dir / "report") == before
