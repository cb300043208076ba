"""Check that run reports are byte-identical to the frozen digest matrix.

Runs fourteen run configurations, prints the sha256 prefix of
emit_report(run_suite(RunConfig(**kw))) next to the frozen value for each,
and exits 1 if any differs. The last line gives the total wall time, about
5 s on a shared two-core machine.

The first line names the numpy version and whether numpy's runtime CPU
dispatch has FMA3, AVX2 and AVX512F. The series engine sums shells from
numpy array products of complex values, and the FMA code paths round some of
those products differently in the last bit, so the frozen digests, made on a
host where all three are on, can differ on a host where they are not:

    python tools/digest_matrix.py
"""

import hashlib
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from qconnect.cli import RunConfig, emit_report, run_suite  # noqa: E402

FAMILIES = ("connection", "theorem1", "independence")

MATRIX = [
    ({}, "c57fd518e311216e"),
    ({"seed": 1}, "b73ff72fc8cc0247"),
    ({"seed": 2}, "458cc803a505a58b"),
    ({"N": 2, "M": 3}, "beab66215e639426"),
    ({"N": 2, "M": 3, "seed": 1}, "af6d87738d6f92db"),
    ({"N": 3, "M": 3, "suites": FAMILIES}, "a4af8952e063505e"),
    ({"N": 1, "M": 2}, "481519553b9b0991"),
    ({"N": 1, "M": 1}, "2a9273a4bc76e017"),
    ({"N": 3, "M": 1}, "d92850f2fb37d990"),
    ({"N": 1, "M": 3}, "081b6be060fc525e"),
    ({"q": 0.7}, "08eed8ed3eeca6a3"),
    ({"q": 0.5 + 0.2j, "seed": 4}, "5877b740fa8dc1c9"),
    ({"N": 1, "M": 4, "samples": 3}, "39faf4c1d2ac71a8"),
    ({"N": 4, "M": 1, "samples": 3}, "dd5fb32db44e9337"),
]


def host_line() -> str:
    """numpy's version and its FMA3/AVX2/AVX512F runtime dispatch flags."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as features
    flags = "  ".join(f"{f}={int(features.get(f, False))}" for f in ("FMA3", "AVX2", "AVX512F"))
    return f"numpy {np.__version__}  {flags}"


def main() -> int:
    print(host_line(), flush=True)
    start = time.perf_counter()
    bad = 0
    for kw, frozen in MATRIX:
        text = emit_report(run_suite(RunConfig(**kw)))
        got = hashlib.sha256(text.encode()).hexdigest()[:16]
        status = "ok" if got == frozen else "MISMATCH"
        bad += got != frozen
        print(f"{got}  {frozen}  {status:8}  {kw}", flush=True)
    print(f"{len(MATRIX) - bad}/{len(MATRIX)} match in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
