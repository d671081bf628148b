"""Seed audit of acceptance criterion C05, the quantum -(1+gamma) slope.

C05 is checked at one pinned seed.  This script runs C05's exact
configuration (``c05_fits`` in ``tests/test_acceptance.py``) at seeds 0-39
and prints a Markdown table: each member's slope and bootstrap CI, the
clauses that failed, and the pass rate over the seeds.  It exits 0 whatever
the pass rate; a nonzero exit means the script itself broke.  From the
repository root, about 15 s on two cores:

    python tools/seed_audit.py > tools/c05_seed_audit.md

CI writes the table to a temporary file and fails on any difference from
the committed ``tools/c05_seed_audit.md``.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_acceptance import c05_fits  # noqa: E402

SEEDS = range(40)


def main() -> None:
    print("# C05 seed audit\n")
    print("C05 passes when, on both members, the slope is within 0.3 of -2 and the CI contains -2.\n")
    print("| seed | multiscale slope [CI] | multiscale3 slope [CI] | failed clauses |")
    print("| --- | --- | --- | --- |")
    failing = []
    for seed in SEEDS:
        cells, failed = [], []
        for name, slope, ci, clauses in c05_fits(seed):
            cells.append(f"{slope:.3f} [{ci[0]:.3f}, {ci[1]:.3f}]")
            failed += [f"{name}: {clause}" for clause in clauses]
        if failed:
            failing.append(seed)
        print(f"| {seed} | {' | '.join(cells)} | {'; '.join(failed) or 'none'} |")
    passed = len(SEEDS) - len(failing)
    print(f"\nPasses at {passed} of {len(SEEDS)} seeds; fails at {', '.join(map(str, failing)) or 'none'}.")


if __name__ == "__main__":
    main()
