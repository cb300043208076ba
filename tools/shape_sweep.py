"""Run every suite at every shape `qconnect run` accepts and say what fails.

For each of the 35 shapes (N, M) with N*M <= 12 it runs
run_suite(RunConfig(N=N, M=M, samples=1, seed=0, q=q)) with all suites and
prints one line: the shape, its wall time, the count of BranchWarnings the
run raised, and its failing records counted by (suite, error type), where a
record that ran but missed its tolerance has the type "tolerance". The last
lines give the totals:

    python tools/shape_sweep.py            # q = 0.3, the default base
    python tools/shape_sweep.py --q 0.5+0.2j

With --ledger it sweeps each base of tests/failure_ledger.tsv instead
(about 20 s on a shared two-core machine), prints the failing records the
ledger does not hold and the ledger rows that now pass, both in the
ledger's own format, and exits 1 if there is any:

    python tools/shape_sweep.py --ledger
"""

import argparse
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qconnect.cli import _BUDGET, RunConfig, run_suite  # noqa: E402
from qconnect.errors import BranchWarning  # noqa: E402

# every shape a RunConfig accepts: N*M up to the compute budget
SHAPES = [(n, m) for n in range(1, _BUDGET + 1) for m in range(1, _BUDGET // n + 1)]
LEDGER = ROOT / "tests" / "failure_ledger.tsv"
BASES = ("0.3", "0.5", "0.7", "0.5+0.2j")  # the bases the ledger holds, as written there


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


def ledger_rows(q: str) -> Counter:
    """The ledger's rows of base q (as the ledger writes it)."""
    lines = LEDGER.read_text().splitlines()
    rows = [line for line in lines if line.strip() and not line.startswith("#")]
    return Counter(row for row in rows if row.split("\t", 1)[0] == q)


def failing_rows(q: str) -> Counter:
    """The failing records of the sweep at base q, as ledger rows."""
    rows = Counter()
    for N, M in SHAPES:
        _, _, failing = sweep_shape(N, M, q)
        rows.update(
            "\t".join((q, str(N), str(M), r.suite, r.check, error_type(r))) for r in failing
        )
    return rows


def ledger_diff(q: str) -> tuple[list[str], list[str]]:
    """(failing records not in the ledger, ledger rows that now pass) at base q."""
    known, seen = ledger_rows(q), failing_rows(q)
    return sorted((seen - known).elements()), sorted((known - seen).elements())


def check_ledger() -> int:
    bad = 0
    for q in BASES:
        start = time.perf_counter()
        new, fixed = ledger_diff(q)
        bad += len(new) + len(fixed)
        print(f"q = {q}: {sum(ledger_rows(q).values())} ledger rows, {len(new)} new, "
              f"{len(fixed)} now pass ({time.perf_counter() - start:.1f} s)", flush=True)
        for label, rows in (("new", new), ("now passes", fixed)):
            for row in rows:
                print(f"  {label}: {row}", flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--q", type=complex, default=0.3, help="base q (default 0.3)")
    ap.add_argument("--ledger", action="store_true",
                    help="check every base of the failure ledger against it")
    args = ap.parse_args(argv)
    if args.ledger:
        return check_ledger()
    q = args.q
    print(f"q = {q}, all suites, 1 sample, seed 0", flush=True)
    total_s = 0.0
    total_branch = 0
    total = Counter()
    for N, M in SHAPES:
        seconds, branch, failing = sweep_shape(N, M, q)
        fails = Counter((r.suite, error_type(r)) for r in failing)
        total_s += seconds
        total_branch += branch
        total += fails
        listed = "; ".join(f"{suite} {kind} x{n}" for (suite, kind), n in sorted(fails.items()))
        warned = f"  BranchWarning x{branch}" if branch else ""
        shape = f"({N},{M})"
        print(f"{shape:<7} {seconds:6.2f} s{warned}  {listed or 'all pass'}", flush=True)
    print(f"{len(SHAPES)} shapes in {total_s:.1f} s; {sum(total.values())} failing records; "
          f"{total_branch} BranchWarnings")
    for (suite, kind), n in sorted(total.items()):
        print(f"  {suite} {kind} x{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
