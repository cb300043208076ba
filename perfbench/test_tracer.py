"""Tests for the benchmark tracer: wrapped call counts agree with cProfile,
tracing leaves reports byte-identical, and every patched attribute is put
back.

    PYTHONPATH=src python -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys

import pytest

from qconnect import cli
from tracer import Tracer, entry_points

# Small enough to run in a second, large enough that every named function
# is called: all suites, one sample each.
CONFIG = cli.RunConfig(N=2, M=2, samples=1, seed=0)
NAMED = (
    "qkernel.lattice_hit",
    "qkernel.qpoch_inf",
    "hyperseries._shell_series",
    "oracle._enum_series",
    "hyperseries.local_solution",
)


def _report() -> str:
    return cli.emit_report(cli.run_suite(CONFIG))


def _qconnect_attributes() -> dict:
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "qconnect" or name.startswith("qconnect.")
        for attr, value in vars(mod).items()
    }


def test_wrapped_counts_match_cprofile():
    prof = cProfile.Profile()
    prof.enable()
    plain = _report()
    prof.disable()
    profiled = {key: stat[1] for key, stat in pstats.Stats(prof).stats.items()}

    with Tracer() as tr:
        traced = _report()
    calls = tr.calls()

    assert traced == plain
    for layer, name, fn in entry_points():
        code = fn.__code__
        expected = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert calls[f"{layer}.{name}"] == expected, f"{layer}.{name}"
    for name in NAMED:
        assert calls[name] > 0, name


def test_every_patched_attribute_is_restored():
    before = _qconnect_attributes()
    with Tracer() as tr:
        from qconnect import oracle, qkernel, sampling

        # names imported with `from .x import y` are patched in every module
        assert oracle.lattice_hit is qkernel.lattice_hit
        assert qkernel.lattice_hit is not before[("qconnect.qkernel", "lattice_hit")]
        assert sampling.lattice_hit is qkernel.lattice_hit
        patched = len(tr._patched)
    assert patched > len(entry_points())
    after = _qconnect_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restored_when_traced_code_raises():
    before = _qconnect_attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("traced code failed")
    after = _qconnect_attributes()
    assert all(after[k] is before[k] for k in before)
