"""Failure ledger: the records that fail over every shape are known ones.

`failure_ledger.tsv` holds one row per failing record of
run_suite(RunConfig(N=N, M=M, q=q, samples=1, seed=0)) over the 35 shapes
of tools/shape_sweep.py: q, N, M, suite, check and error type, where a record
that ran but missed its tolerance has the type "tolerance". The test fails on
a failing record the ledger does not hold, and on a ledger row that now
passes, so every fix shrinks the file. It prints the rows that differ in the
ledger's own format.
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "tools"))

from shape_sweep import SHAPES, error_type, sweep_shape  # noqa: E402

LEDGER = HERE / "failure_ledger.tsv"


def ledger_rows(q: str) -> Counter:
    lines = LEDGER.read_text().splitlines()
    rows = [line for line in lines if line.strip() and not line.startswith("#")]
    return Counter(row for row in rows if row.split("\t", 1)[0] == q)


def failing_rows(q: str) -> Counter:
    rows = Counter()
    for N, M in SHAPES:
        _, _, failing = sweep_shape(N, M, q)
        rows.update(
            "\t".join((q, str(N), str(M), r.suite, r.check, error_type(r))) for r in failing
        )
    return rows


def test_failures_at_q_0_3_are_the_ledger():
    known = ledger_rows("0.3")
    seen = failing_rows("0.3")
    new = sorted((seen - known).elements())
    fixed = sorted((known - seen).elements())
    assert not new and not fixed, (
        "failing records not in the ledger:\n" + "\n".join(new)
        + "\nledger rows that now pass:\n" + "\n".join(fixed)
    )
