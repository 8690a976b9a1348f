"""Record the reference outputs that benchmark runs are compared with.

Usage, from the root of a source checkout:

    python3 perfbench/make_reference.py

Runs one untraced solve of every workload for the default seed and the
held-out seed and writes their outputs to ``perfbench/reference.json``.
Record it once, at a commit whose outputs are trusted; a run of one of
these seeds then fails every operation whose output moved by more than the
workload's reference tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)   # the default seed and the held-out seed


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.run import OUT, REFERENCE
    from perfbench.workloads import WORKLOADS

    refs = {}
    for name, workload in WORKLOADS.items():
        out = OUT / name
        out.mkdir(parents=True, exist_ok=True)
        refs[name] = {}
        for seed in SEEDS:
            solve = workload.solve(workload.inputs(seed), out)
            if solve.failed_ops:
                print(f"{name} seed {seed}: {len(solve.failed_ops)} failed operations", file=sys.stderr)
                return 1
            refs[name][str(seed)] = solve.outputs
            print(f"{name} seed {seed}: {solve.attempted} operations recorded")
    REFERENCE.write_text(json.dumps(refs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
