"""Benchmark workloads: one ``RunConfig`` shape each, at q = 0.3 with the
default tolerances and 8 samples per suite.

A run with ``--seed n`` evaluates the inputs ``RunConfig(seed=n*1000 + i)``
for i = 0, 1, 2, ..., so every run measures a fresh, reproducible set of
sampled parameter sets and points. ``trace_inputs`` fixes how many of them a
traced run covers, so traced counts depend on the seed alone.

Why each workload (measured at seed 0 on a 2-core x86 box):

all-2x3
    Every suite at (N, M) = (2, 3): the headline shape, and what
    ``qconnect run --suite all`` does. Every layer does work. It carries the
    known swap-step ConvergenceError at r = 2.
families-3x3
    The connection, theorem1 and independence suites at (3, 3). The
    split-series engine does nearly all the work: ~2,300 long near-boundary
    ``local_solution`` series per input, plus a heavy lattice screen and the
    overlap samplers and connection builders. ``_enum_series`` is never
    called: the bypass workload for oracle changes.
identities-3x3
    The series, system, duality, jackson, watson, ybe and facemodel suites at
    (3, 3). The oracle reference routes carry most of the time (about half
    of it in ``_enum_series``); the engine only evaluates ``eval_FNM`` at
    interior points: ~300 short series, no ``local_solution`` and no
    connection builders. A table-size change that helps long tails and costs
    short series shows here and on families-3x3 in opposite directions.
    Not listed in BENCHMARK.json: its cost per input is heavy-tailed, so its
    run-to-run spread is too wide to gate on (see README.md).
"""

from __future__ import annotations

FAMILY_SUITES = ("connection", "theorem1", "independence")
IDENTITY_SUITES = ("series", "system", "duality", "jackson", "watson", "ybe", "facemodel")

WORKLOADS = {
    "all-2x3": {"config": {"N": 2, "M": 3}, "trace_inputs": 3},
    "families-3x3": {"config": {"N": 3, "M": 3, "suites": FAMILY_SUITES}, "trace_inputs": 2},
    "identities-3x3": {"config": {"N": 3, "M": 3, "suites": IDENTITY_SUITES}, "trace_inputs": 4},
}


def input_seed(seed: int, i: int) -> int:
    """RunConfig seed of the i-th input of a run started with ``--seed seed``."""
    return seed * 1000 + i
