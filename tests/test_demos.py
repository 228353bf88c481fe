"""Each demo script runs to completion, as its docstring says to run it: demos 01-04 print their pinned
standard output, and demo 05 writes the files whose SHA-256 digests are pinned."""

import hashlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
STDOUT = Path(__file__).parent / "data" / "demo_stdout"
DIGESTS = Path(__file__).parent / "data" / "demo_05_sha256.txt"  # as sha256sum prints them


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
    # run from a copy, so it writes demo_output/ next to the copy and nothing into the checkout
    demo = Path(shutil.copy(DEMOS[4], tmp_path))
    _run(demo)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / "demo_output").iterdir()}
    assert written == {name: digest for digest, name in map(str.split, DIGESTS.read_text().splitlines())}
