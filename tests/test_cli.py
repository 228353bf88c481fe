import contextlib
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import from_documents
import priorlearn
import priorlearn.corpus as corpus_module
import priorlearn.experiment as experiment_module
from priorlearn.cli import main
from priorlearn.corpus import CategoryIndex, Document, store_corpus
from priorlearn.experiment import read_predictions_csv
from test_corpus import _tree

DATA = Path(__file__).parent / "data"


def _tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


def _write_format_1_store(root: Path) -> None:
    """A store as format 1 wrote it: 2 shards of id<TAB>title<TAB>tokens lines."""
    (root / "shards").mkdir(parents=True)
    (root / "shards" / "shard-00000.tsv").write_text("2\tTwo\tbeta gamma\n")
    (root / "shards" / "shard-00001.tsv").write_text("1\tOne\talpha beta\n")
    (root / "categories").mkdir()
    (root / "categories" / "Old.txt").write_text("1\n")
    manifest = {"format_version": 1, "doc_count": 2, "shard_count": 2}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _write_format_2_store(root: Path) -> None:
    """A store as format 2 wrote it, as far as a re-store meets it: one file per category."""
    (root / "categories").mkdir(parents=True)
    (root / "categories" / "X.txt").write_text("1\n")
    (root / "manifest.json").write_text(json.dumps({"format_version": 2, "doc_count": 2}, indent=2) + "\n")


def _child_env() -> dict:
    """Environment in which a child imports the package this test imported."""
    src = str(Path(priorlearn.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def _live_group_members(pgid: int) -> list[int]:
    """The processes of process group ``pgid`` that have not exited, read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            # the fields after the command name, which is in parentheses: state, parent, group
            state, _, group = Path("/proc", entry, "stat").read_text().rpartition(")")[2].split()[:3]
        except (OSError, ValueError):  # not a process, or one that has just ended
            continue
        if int(group) == pgid and state != "Z":
            members.append(int(entry))
    return members


def _two_predictions(root: Path) -> Path:
    """A predictions file ranking two documents."""
    path = root / "predictions.csv"
    path.write_text("rank,doc_id,title,log_odds,p_pos\n1,5,Five,0.5,0.6\n2,7,Seven,0.25,0.55\n")
    return path


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
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path / "no.xml") in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("missing", ["truth", "predictions"])
    def test_missing_input_file_is_data_error_naming_it(self, tmp_path, capsys, missing):
        files = {"truth": tmp_path / "truth.txt", "predictions": _two_predictions(tmp_path)}
        files["truth"].write_text("5\n")
        files[missing] = tmp_path / "absent.txt"
        predictions, truth = str(files["predictions"]), str(files["truth"])
        for command in (["evaluate", "--predictions", predictions, "--eval-k", "1"],
                        ["report", "--baseline", predictions, "--study", predictions, "--eval-k", "1"]):
            assert main([*command, "--truth", truth, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and str(files[missing]) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("eval_k", [0, 3])  # the ranking holds 2
    def test_eval_k_out_of_range_is_data_error(self, tmp_path, capsys, eval_k):
        predictions = str(_two_predictions(tmp_path))
        (tmp_path / "truth.txt").write_text("5\n")
        for command in (["evaluate", "--predictions", predictions],
                        ["report", "--baseline", predictions, "--study", predictions]):
            code = main([*command, "--truth", str(tmp_path / "truth.txt"), "--eval-k", str(eval_k),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {predictions}: k={eval_k} out of range 1..2")
        assert not (tmp_path / "o").exists()

    def test_report_eval_k_past_one_ranking_names_its_file(self, tmp_path, capsys):
        two = str(_two_predictions(tmp_path))
        one = tmp_path / "one.csv"
        one.write_text("rank,doc_id,title,log_odds,p_pos\n1,5,Five,0.5,0.6\n")
        (tmp_path / "truth.txt").write_text("5\n")
        for baseline, study in ((two, str(one)), (str(one), two)):
            code = main(["report", "--baseline", baseline, "--study", study, "--truth", str(tmp_path / "truth.txt"),
                         "--eval-k", "2", "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"data error: {one}: k=2 out of range 1..1")
        assert not (tmp_path / "o").exists()

    def test_unwritable_category_file_is_data_error(self, tmp_path, capsys):
        # a directory where the category names go: the store can neither remove nor write it
        (tmp_path / "s" / "categories.txt").mkdir(parents=True)
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "categories.txt" in err
        assert not (tmp_path / "s" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "body, cause",
        [
            ("1,5,a\rb,0.5,0.6\n", "line 2"),  # the bare CR csv.writer(lineterminator="\n") left in a title
            ('1,5,"open title,0.5,0.6\n', "line 2"),
            ("1,99999999999999999999,a,0.5,0.6\n", "too large"),
            ("1,7,a,0.5,0.6\n2,7,a,0.5,0.6\n", "row 3: doc id 7 is repeated"),
        ],
    )
    def test_unparsable_predictions_are_data_error(self, tmp_path, capsys, body, cause):
        predictions = tmp_path / "predictions.csv"
        predictions.write_bytes(("rank,doc_id,title,log_odds,p_pos\n" + body).encode("utf-8"))
        (tmp_path / "truth.txt").write_text("5\n")
        code = main(["evaluate", "--predictions", str(predictions), "--truth", str(tmp_path / "truth.txt"),
                     "--eval-k", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and cause in err

    @pytest.mark.parametrize("rows", [0, 2000])  # the bad byte in the first block read, and well past it
    def test_predictions_not_utf8_are_data_error(self, tmp_path, capsys, rows):
        predictions = tmp_path / "predictions.csv"
        body = "".join(f"{i},{i},Title {i},0.5,0.6\n" for i in range(1, rows + 1)).encode("utf-8")
        data = b"rank,doc_id,title,log_odds,p_pos\n" + body + b"9999,9999,Bad \xff,0.5,0.6\n"
        predictions.write_bytes(data)
        bad = data.index(b"\xff")  # the position the message names is in the whole file
        (tmp_path / "truth.txt").write_text("5\n")
        for command in (["evaluate", "--predictions", str(predictions), "--eval-k", "1"],
                        ["report", "--baseline", str(predictions), "--study", str(predictions)]):
            code = main([*command, "--truth", str(tmp_path / "truth.txt"), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and f"can't decode byte 0xff in position {bad}:" in err
            assert str(predictions) in err
        assert not (tmp_path / "o").exists()

    def test_truth_not_utf8_is_data_error_naming_it(self, tmp_path, capsys):
        predictions = str(_two_predictions(tmp_path))
        truth = tmp_path / "truth.txt"
        truth.write_bytes(b"1\n\xff2\n")
        for command in (["evaluate", "--predictions", predictions],
                        ["report", "--baseline", predictions, "--study", predictions]):
            code = main([*command, "--truth", str(truth), "--eval-k", "1", "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "can't decode byte 0xff in position 2:" in err
            assert str(truth) in err
        assert not (tmp_path / "o").exists()

    def test_unknown_category_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        for command in (["search"], ["classify", "--lambda-neg", "1", "--lambda-pos", "1"]):
            code = main([*command, "--corpus", str(tmp_path / "s"), "--category", "Nope",
                         "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "category 'Nope'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["search"], ["classify", "--lambda-neg", "1", "--lambda-pos", "1"]])
    def test_empty_category_is_data_error(self, tmp_path, capsys, command):
        docs = [Document(1, "One", frozenset({"a"})), Document(2, "Two", frozenset({"b"}))]
        store_corpus(from_documents(docs), CategoryIndex.from_mapping({"Cat": [1], "Empty": []}), tmp_path / "s")
        code = main([*command, "--corpus", str(tmp_path / "s"), "--category", "Empty", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "data error: category 'Empty' has no members\n"
        assert not (tmp_path / "o").exists()

    def test_damaged_category_members_is_data_error_naming_the_file(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        members = tmp_path / "s" / "category_members.npy"
        members.write_bytes(members.read_bytes()[:-8])
        code = main(["search", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"corrupt store file {members}" in err

    def test_non_finite_lambda_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        code = main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--lambda-neg", "inf", "--lambda-pos", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "lambda_neg must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_priors_whose_sum_overflows_are_a_data_error_naming_both(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        code = main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Toy solvers",
                     "--lambda-neg", "1e308", "--lambda-pos", "1e308", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: lambda_neg + lambda_pos must be finite, got 1e+308 + 1e+308")
        assert not (tmp_path / "o").exists()

    def test_repeated_seed_is_data_error(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        code = main(["search", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--seeds", "0", "0", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed 0 is repeated" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["search"], ["classify", "--lambda-neg", "1", "--lambda-pos", "1"]])
    def test_negative_seed_is_data_error_naming_it(self, tmp_path, capsys, command):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        code = main([*command, "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--seeds", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed -1 is negative" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "starts, message",
        [
            ("1:1,bogus", "bad start pair 'bogus'"),
            ("", "bad start pair ''"),  # not the default starts
            ("1:1,", "bad start pair ''"),
            ("1:1.5", "bad start pair '1:1.5': 1.5 is not a grid value"),
            ("1:1:1", "bad start pair '1:1:1'"),
        ],
    )
    def test_bad_start_pair_is_usage_error_naming_it(self, tmp_path, capsys, starts, message):
        main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")])
        capsys.readouterr()
        code = main(["search", "--corpus", str(tmp_path / "s"), "--category", "Optimization",
                     "--starts", starts, "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not (tmp_path / "o").exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "priorlearn"], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 1
        assert "ingest" in proc.stderr

    def test_import_does_not_load_scipy(self):
        # only stats.significance_test imports scipy.special, when it computes a p-value
        modules = sorted(f"priorlearn.{path.stem}" for path in Path(priorlearn.__file__).parent.glob("*.py"))
        assert "priorlearn.stats" in modules
        for module in modules:  # each in a fresh process
            code = (
                f"import sys\ntry:\n    import {module}\nexcept SystemExit:  # priorlearn.__main__ runs the CLI\n    pass\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            )
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
            assert proc.returncode == 0, (module, proc.stderr)
            assert proc.stdout == "[]\n", module


class TestIngestCommand:
    def test_reports_skips(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "mini_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "ingested 1 documents" in out
        assert "skipped below_min_bytes: 1" in out
        assert "skipped redirect: 1" in out

    def test_idempotent_bytes(self, tmp_path):
        for _ in range(2):
            assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / "s")]) == 0
            snapshot = _tree_bytes(tmp_path / "s")
        assert snapshot == _tree_bytes(tmp_path / "s")

    @pytest.mark.parametrize("raw_id", ["abc", "1" * 31])
    def test_bad_page_id_is_data_error_and_writes_no_store(self, tmp_path, capsys, raw_id):
        dump = tmp_path / "dump.xml"
        dump.write_text(
            f"<mediawiki><page><title>Odd id</title><ns>0</ns><id>{raw_id}</id>"
            f"<revision><text>{'alpha beta gamma delta ' * 20}</text></revision></page></mediawiki>",
            encoding="utf-8",
        )
        assert main(["ingest", str(dump), "--out", str(tmp_path / "s")]) == 2
        assert f"page 'Odd id': id '{raw_id}'" in capsys.readouterr().err
        assert not (tmp_path / "s" / "manifest.json").exists()

    def test_repeated_page_id_is_data_error_and_writes_no_store(self, tmp_path, capsys):
        body = "alpha beta gamma delta " * 20
        dump = tmp_path / "dump.xml"
        dump.write_text(
            "<mediawiki>"
            + "".join(f"<page><title>{title}</title><ns>0</ns><id>{pid}</id><revision><text>{body}</text>"
                      f"</revision></page>" for pid, title in ((6, "A"), (2, "B"), (6, "C")))
            + "</mediawiki>",
            encoding="utf-8",
        )
        assert main(["ingest", str(dump), "--out", str(tmp_path / "s")]) == 2
        assert "duplicate document id 6" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and sets a Linux subreaper")
    def test_a_killed_ingest_leaves_no_worker(self, tmp_path):
        body = " ".join(f"w{i % 997}" for i in range(150))
        dump = tmp_path / "dump.xml"
        dump.write_text(
            "<mediawiki>"
            + "".join(f"<page><title>P{pid}</title><ns>0</ns><id>{pid}</id><revision><text>{body} u{pid}</text>"
                      "</revision></page>" for pid in range(1, 15_001))
            + "</mediawiki>",
            encoding="utf-8",
        )
        # a container's init may not reap orphans, and an unreaped one still counts in its process
        # group: as their subreaper, this process reaps the orphaned worker itself
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        assert prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "priorlearn", "ingest", str(dump), "--out", str(tmp_path / "s")],
            env=_child_env(), start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60
            while not (workers := [pid for pid in _live_group_members(proc.pid) if pid != proc.pid]):
                assert proc.poll() is None and time.monotonic() < deadline, "no worker started"
                time.sleep(0.005)
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=10) == -signal.SIGKILL
            assert not (tmp_path / "s" / "manifest.json").exists()  # killed mid-run
            deadline = time.monotonic() + 2
            while True:
                for pid in workers:
                    with contextlib.suppress(ChildProcessError):
                        os.waitpid(pid, os.WNOHANG)
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "a worker outlived its killed ingest by 2 s"
                time.sleep(0.01)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            for pid in workers:
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
            prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)

    def test_long_non_ascii_categories_survive_ingest_and_search(self, tmp_path, capsys):
        # 30 CJK characters percent-encode to 270 bytes, 84 euro signs to 756
        categories = ["".join(map(chr, range(0x4E00, 0x4E00 + 30))), "\u20ac" * 84]
        pages = []
        for pid in range(1, 13):
            member = f" [[Category:{categories[pid % 2]}]]" if pid <= 6 else ""
            pages.append(
                f"<page><title>Page {pid}</title><ns>0</ns><id>{pid}</id><revision><id>{pid * 100}</id>"
                f"<text>{'alpha beta gamma delta ' * 20} word{pid % 3}{member}</text></revision></page>"
            )
        dump = tmp_path / "dump.xml"
        dump.write_text(
            '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">' + "".join(pages) + "</mediawiki>",
            encoding="utf-8",
        )
        assert main(["ingest", str(dump), "--out", str(tmp_path / "s")]) == 0
        for i, category in enumerate(categories):
            out = tmp_path / f"search{i}"
            assert main(["search", "--corpus", str(tmp_path / "s"), "--category", category,
                         "--seeds", "0", "--out", str(out)]) == 0
            assert json.loads((out / "learned.json").read_text(encoding="utf-8"))["category"] == category


class TestStoreFormat:
    def _ingest(self, tmp_path, capsys):
        assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()

    def _search(self, tmp_path) -> int:
        return main(["search", "--corpus", str(tmp_path / "s"), "--category", "Toy solvers",
                     "--seeds", "0", "--out", str(tmp_path / "o")])

    def test_format_1_store_is_data_error_asking_for_a_re_ingest(self, tmp_path, capsys):
        _write_format_1_store(tmp_path / "s")
        assert self._search(tmp_path) == 2
        assert "store format 1, not 3: re-ingest the dump" in capsys.readouterr().err

    def test_re_ingest_over_a_format_1_store_leaves_a_fresh_tree(self, tmp_path):
        _write_format_1_store(tmp_path / "s")
        for out in ("s", "fresh"):
            assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / out)]) == 0
        assert _tree(tmp_path / "s") == _tree(tmp_path / "fresh")

    def test_format_2_store_is_data_error_asking_for_a_re_ingest(self, tmp_path, capsys):
        _write_format_2_store(tmp_path / "s")
        assert self._search(tmp_path) == 2
        assert "store format 2, not 3: re-ingest the dump" in capsys.readouterr().err

    def test_re_ingest_over_a_format_2_store_leaves_a_fresh_tree(self, tmp_path):
        _write_format_2_store(tmp_path / "s")
        for out in ("s", "fresh"):
            assert main(["ingest", str(DATA / "e2e_dump.xml"), "--out", str(tmp_path / out)]) == 0
        assert _tree(tmp_path / "s") == _tree(tmp_path / "fresh")

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("slots.npy", lambda path: path.write_bytes(path.read_bytes()[:-2])),
            ("offsets.npy", lambda path: np.save(path, np.array([0, 9], dtype=np.int64))),
            ("slots.npy", lambda path: np.save(path, np.append(np.load(path)[:-1], np.int32(10**6)))),
            ("doc_ids.npy", lambda path: np.save(path, np.array([11, 11], dtype=np.int64))),
            ("titles.txt", lambda path: path.write_text("")),
            ("vocabulary.txt", lambda path: path.unlink()),
        ],
    )
    def test_damaged_store_is_data_error_naming_the_file(self, tmp_path, capsys, name, damage):
        self._ingest(tmp_path, capsys)
        damage(tmp_path / "s" / name)
        assert self._search(tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(tmp_path / "s" / name) in err

    def test_search_and_classify_build_no_documents(self, tmp_path, capsys, monkeypatch):
        self._ingest(tmp_path, capsys)

        def no_document(**fields):
            raise AssertionError("a Document was built")

        monkeypatch.setattr(corpus_module, "Document", no_document)
        assert self._search(tmp_path) == 0
        assert main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Toy solvers",
                     "--lambda-neg", "1", "--lambda-pos", "1", "--out", str(tmp_path / "c")]) == 0


class TestCarriageReturnTitles:
    def test_title_round_trips_through_classify_output(self, tmp_path):
        docs = [Document(1, "Member one", frozenset({"mark", "x"})), Document(2, "Member two", frozenset({"mark"}))]
        docs += [Document(i, f"Ti\rtle {i}\r", frozenset({"mark" if i % 2 else "y", "x"})) for i in range(3, 9)]
        docs += [Document(9, 'Both, "\r" and quotes', frozenset({"x"}))]
        store_corpus(from_documents(docs), CategoryIndex.from_mapping({"Cat": [1, 2]}),
                     tmp_path / "s")
        assert main(["classify", "--corpus", str(tmp_path / "s"), "--category", "Cat", "--lambda-neg", "1",
                     "--lambda-pos", "1", "--out", str(tmp_path / "c")]) == 0
        predictions = tmp_path / "c" / "predictions.csv"
        with open(predictions, encoding="utf-8", newline="\n") as lines:
            _, titles = read_predictions_csv(lines, len(docs))
        assert titles == {doc.id: doc.title for doc in docs[2:]}
        (tmp_path / "truth.txt").write_text("3\n5\n7\n")
        assert main(["evaluate", "--predictions", str(predictions), "--truth", str(tmp_path / "truth.txt"),
                     "--eval-k", "3", "--out", str(tmp_path / "e")]) == 0
        assert json.loads((tmp_path / "e" / "evaluation.json").read_text())["hits"] == 3


class TestTitlesRead:
    def _run(self, tmp_path, monkeypatch, argv):
        """``main(argv)``, and the titles each predictions file read kept."""
        kept = []

        def read(lines, *args):
            ranked, titles = read_predictions_csv(lines, *args)
            kept.append(titles)
            return ranked, titles

        monkeypatch.setattr(experiment_module, "read_predictions_csv", read)
        (tmp_path / "truth.txt").write_text("20\n")
        assert main([*argv, "--truth", str(tmp_path / "truth.txt"), "--eval-k", "2", "--out", str(tmp_path / "o")]) == 0
        return kept

    def test_report_lists_the_study_title_of_an_id_only_the_baseline_ranks_within_top_n(self, tmp_path, monkeypatch):
        header = "rank,doc_id,title,log_odds,p_pos\n"
        baseline, study = tmp_path / "baseline.csv", tmp_path / "study.csv"
        baseline.write_text(header + "1,10,A,0.5,0.6\n2,11,Eleven,0.25,0.55\n3,12,Twelve,0.125,0.5\n")
        study.write_text(header + "1,20,Twenty,0.5,0.6\n2,21,Twenty-one,0.25,0.55\n3,10,B,0.125,0.5\n")
        kept = self._run(tmp_path, monkeypatch,
                         ["report", "--baseline", str(baseline), "--study", str(study), "--top-n", "1"])
        assert kept == [{10: "A"}, {20: "Twenty", 10: "B"}]
        review = (tmp_path / "o" / "review.html").read_text()
        assert ">B</a>" in review and ">Twenty</a>" in review and ">A</a>" not in review

    def test_evaluate_keeps_no_title(self, tmp_path, monkeypatch):
        assert self._run(tmp_path, monkeypatch, ["evaluate", "--predictions", str(_two_predictions(tmp_path))]) == [{}]


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("e2e")
    store = run / "store"
    steps = [
        ["ingest", str(DATA / "e2e_dump.xml"), "--out", str(store)],
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

    def test_only_report_loads_scipy(self, run_dir, tmp_path):
        # each command in turn in one child process, noting whether scipy is loaded after it
        code = (
            "import json, sys\nfrom priorlearn.cli import main\n"
            "runs = [(main(argv), any(m.split('.')[0] == 'scipy' for m in sys.modules)) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps(runs))"
        )
        truth = str(DATA / "e2e_truth.txt")
        commands = [
            ["evaluate", "--predictions", str(run_dir / "study" / "predictions.csv"), "--truth", truth,
             "--eval-k", "5", "--out", str(tmp_path / "evaluate")],
            ["search", "--corpus", str(run_dir / "store"), "--category", "Toy solvers",
             "--seeds", "0", "1", "--out", str(tmp_path / "search")],
            ["report", "--baseline", str(run_dir / "baseline" / "predictions.csv"),
             "--study", str(run_dir / "study" / "predictions.csv"), "--truth", truth,
             "--eval-k", "5", "--top-n", "5", "--out", str(tmp_path / "report")],
        ]
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True, env=_child_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, False], [0, False], [0, True]]
        for name in ("evaluate", "search", "report"):
            assert _tree_bytes(tmp_path / name) == _tree_bytes(DATA / "golden" / name), name

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

    # a field other than {title}, a field in a spec, then templates that cannot be formatted
    @pytest.mark.parametrize(
        "template",
        ["https://x/{0}", "https://x/{title.upper}", "https://x/{title:{title}}",
         "{title", "x}", "https://x/{title:x}"],
    )
    def test_report_rejects_a_link_template_field_other_than_title(self, run_dir, tmp_path, capsys, template):
        code = main(
            ["report", "--baseline", str(run_dir / "baseline" / "predictions.csv"),
             "--study", str(run_dir / "study" / "predictions.csv"),
             "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5", "--link-template", template,
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        assert f"link template {template!r}" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()

    def test_report_names_a_negative_bootstrap_seed(self, run_dir, tmp_path, capsys):
        code = main(
            ["report", "--baseline", str(run_dir / "baseline" / "predictions.csv"),
             "--study", str(run_dir / "study" / "predictions.csv"),
             "--truth", str(DATA / "e2e_truth.txt"), "--eval-k", "5", "--bootstrap-seed", "-1",
             "--out", str(tmp_path / "report")]
        )
        assert code == 2
        assert capsys.readouterr().err == "data error: seed must be >= 0, got -1\n"
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
