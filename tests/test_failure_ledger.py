"""Failure ledger: the records that fail over every shape are known ones.

`failure_ledger.tsv` holds one row per failing record of
run_suite(RunConfig(N=N, M=M, q=q, samples=1, seed=0)) over the 35 shapes
of tools/shape_sweep.py: q, N, M, suite, check and error type, where a record
that ran but missed its tolerance has the type "tolerance". The test fails on
a failing record the ledger does not hold, and on a ledger row that now
passes, so every fix shrinks the file. It prints the rows that differ in the
ledger's own format. It checks every base of the ledger, as `python
tools/shape_sweep.py --ledger` does; most of the aggregated component
errors of build_solution_vector fire at q >= 0.5.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from shape_sweep import BASES, ledger_diff  # noqa: E402


def _assert_ledger(q: str) -> None:
    new, fixed = ledger_diff(q)
    assert not new and not fixed, (
        "failing records not in the ledger:\n" + "\n".join(new)
        + "\nledger rows that now pass:\n" + "\n".join(fixed)
    )


def test_failures_at_q_0_3_are_the_ledger():
    _assert_ledger("0.3")


@pytest.mark.parametrize("q", [q for q in BASES if q != "0.3"])
def test_failures_at_every_other_base_are_the_ledger(q):
    _assert_ledger(q)
