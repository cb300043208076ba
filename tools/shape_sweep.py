"""Run every suite at every shape `qconnect run` accepts and say what fails.

For each of the 35 shapes (N, M) with N*M <= 12 it runs
run_suite(RunConfig(N=N, M=M, samples=1, seed=0, q=q)) with all suites and
prints one line: the shape, its wall time, the count of BranchWarnings the
run raised, and its failing records counted by (suite, error type), where a
record that ran but missed its tolerance has the type "tolerance". The last
line gives the totals:

    python tools/shape_sweep.py            # q = 0.3, the default base
    python tools/shape_sweep.py --q 0.5+0.2j
"""

import argparse
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qconnect.cli import RunConfig, run_suite  # noqa: E402
from qconnect.errors import BranchWarning  # noqa: E402

BUDGET = 12  # the largest N*M a RunConfig accepts
SHAPES = [(n, m) for n in range(1, BUDGET + 1) for m in range(1, BUDGET // n + 1)]


def error_type(record) -> str:
    """The exception name of a failing record, or "tolerance"."""
    return record.error.split(":", 1)[0] if record.error else "tolerance"


def sweep_shape(N: int, M: int, q: complex):
    """(seconds, BranchWarnings raised, failing records) of one shape."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BranchWarning)
        start = time.perf_counter()
        rep = run_suite(RunConfig(N=N, M=M, q=q, samples=1, seed=0))
        seconds = time.perf_counter() - start
    branch = sum(issubclass(w.category, BranchWarning) for w in caught)
    return seconds, branch, [r for r in rep.records if not r.passed]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--q", type=complex, default=0.3, help="base q (default 0.3)")
    q = ap.parse_args(argv).q
    print(f"q = {q}, all suites, 1 sample, seed 0", flush=True)
    total_s = 0.0
    total = Counter()
    for N, M in SHAPES:
        seconds, branch, failing = sweep_shape(N, M, q)
        fails = Counter((r.suite, error_type(r)) for r in failing)
        total_s += seconds
        total += fails
        listed = "; ".join(f"{suite} {kind} x{n}" for (suite, kind), n in sorted(fails.items()))
        warned = f"  BranchWarning x{branch}" if branch else ""
        shape = f"({N},{M})"
        print(f"{shape:<7} {seconds:6.2f} s{warned}  {listed or 'all pass'}", flush=True)
    print(f"{len(SHAPES)} shapes in {total_s:.1f} s; {sum(total.values())} failing records")
    for (suite, kind), n in sorted(total.items()):
        print(f"  {suite} {kind} x{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
