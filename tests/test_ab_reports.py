"""The drift report of tools/ab_reports.py on two hand-made reports."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from ab_reports import drift  # noqa: E402


def _record(suite, check, digest, point, passed, residual, error=None):
    return {"check": check, "digest": digest, "error": error, "margin": None, "pass": passed,
            "point": point, "residual": residual, "suite": suite, "timing": 0.0}


def _report(records) -> str:
    return json.dumps({"config": {}, "records": records, "summary": {}})


def test_drift_pairs_records_and_reports_flips_ratios_and_leftovers():
    pt, other = [[0.1, 0.2]], [[0.3, -0.1]]
    old = _report([
        _record("system", "eqn1", "ab", pt, True, 1e-13),
        _record("system", "eqn1", "ab", other, True, 4e-13),
        _record("system", "eqn2", "ab", pt, True, 2e-13),
        # two records under one key pair in order
        _record("connection", "swap step r=1", "cd", pt, True, 1e-12),
        _record("connection", "swap step r=1", "cd", pt, True, 3e-12),
        _record("theorem1", "composite path", "ef", None, False, None, "SamplingError: none"),
        _record("independence", "scaled determinant", "-", None, True, 0.5),
    ])
    new = _report([
        _record("system", "eqn1", "ab", pt, True, 2e-13),
        _record("system", "eqn1", "ab", other, True, 1e-13),
        _record("system", "eqn2", "ab", pt, True, 2e-13),
        _record("connection", "swap step r=1", "cd", pt, True, 1e-12),
        _record("connection", "swap step r=1", "cd", pt, False, 6e-9),
        _record("theorem1", "composite path", "ef", None, True, 1e-11),
        _record("duality", "role swap", "gh", pt, True, 1e-12),
        _record("duality", "role swap", "gh", other, True, 1e-12),
    ])
    assert drift(old, new) == [
        "flip connection / swap step r=1 (digest cd): pass -> fail",
        "flip theorem1 / composite path (digest ef): fail -> pass",
        "residual old/new connection / swap step r=1: 0.0005 to 1 over 2 pair(s)",
        "residual old/new system / eqn1: 0.5 to 4 over 2 pair(s)",
        "unpaired records: 1 in A, 2 in B",
    ]


def test_identical_reports_drift_by_nothing():
    text = _report([_record("system", "eqn1", "ab", [[0.1, 0.2]], True, 0.0),
                    _record("system", "eqn1", "ab", [[0.1, 0.2]], False, None, "PoleError: x")])
    assert drift(text, text) == ["unpaired records: 0 in A, 0 in B"]
