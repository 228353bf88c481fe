"""Each demo script runs to completion in place, as its docstring says to run it."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import _child_env

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_five_demos_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.name)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=_child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
