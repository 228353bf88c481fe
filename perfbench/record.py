"""Record the reference answers every benchmark run is checked against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs one untraced iteration of each named workload (all by default) at
seed 0 and writes its answers into ``perfbench/reference.json``. Record
only at a commit whose outputs are known to be right: a run whose answers
differ from the file counts each difference as a failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(names: list[str]) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        it = wl.iterate(wl.prepare(wl.build(), 0), 0, workloads.NullTracer())
        if it.nonzero_exits:
            print(f"{name}: {it.nonzero_exits} commands failed; nothing recorded", file=sys.stderr)
            return 1
        reference[name] = it.answers
        print(f"{name}: recorded {len(it.answers)} answers in {it.wall_s:.1f} s")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
