"""Each demo script runs to completion, as its docstring says to run it: demos 01-04 print their pinned
standard output, and demo 05 writes the committed outputs."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
STDOUT = Path(__file__).parent / "data" / "demo_stdout"


def _run(demo: Path) -> bytes:
    """The standard output of ``demo``, run from the repository root; it must exit 0."""
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=_child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    return proc.stdout


def test_all_five_demos_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS[:4], ids=lambda demo: demo.name)
def test_demo_prints_the_pinned_stdout(demo):
    assert _run(demo) == (STDOUT / f"{demo.stem}.txt").read_bytes()


def test_demo_01_round_trip_preserves_everything():
    assert "round trip preserved everything: True" in _run(DEMOS[0]).decode().splitlines()


def test_demo_05_writes_the_committed_outputs(tmp_path):
    # run from a copy, so it writes demo_output/ next to the copy and leaves the committed files alone
    demo = Path(shutil.copy(DEMOS[4], tmp_path))
    _run(demo)
    committed = ROOT / "demos" / "demo_output"
    written = sorted(path.name for path in (tmp_path / "demo_output").iterdir())
    assert written == sorted(path.name for path in committed.iterdir())
    for name in written:
        assert (tmp_path / "demo_output" / name).read_bytes() == (committed / name).read_bytes(), name
