"""Check that run reports are byte-identical to the frozen digest matrix.

Runs fifteen run configurations, prints the sha256 prefix of
emit_report(run_suite(RunConfig(**kw))) next to the frozen value for each,
and exits 1 if any differs. The last line gives the total wall time, 2 to
3 s on a shared two-core machine.

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
    ({}, "41f510d49f5c950a"),
    ({"seed": 1}, "5974d5a6097e9b84"),
    ({"seed": 2}, "ae2516e11dcd92bb"),
    ({"N": 2, "M": 3}, "6cf8ae5fc8ae2ca9"),
    ({"N": 2, "M": 3, "seed": 1}, "59d7ca1a2c4010cf"),
    ({"N": 3, "M": 3, "suites": FAMILIES}, "e4002850dc4b72fa"),
    ({"N": 1, "M": 2}, "392941e0c38360d1"),
    ({"N": 1, "M": 1}, "d5821978f8917d30"),
    ({"N": 3, "M": 1}, "28cbf314bc9a7a3d"),
    ({"N": 1, "M": 3}, "00eef08fe36a25ca"),
    ({"q": 0.7}, "d9d6894f662736b1"),
    ({"q": 0.5 + 0.2j, "seed": 4}, "5492b4f074ab70a7"),
    ({"N": 1, "M": 4, "samples": 3}, "f5f0fce65a11a2b2"),
    ({"N": 4, "M": 1, "samples": 3}, "54fa4f8ca876e6d8"),
    # a wide family run: every lower slot of a 4-slot shape shares its part
    # among the 3 components (k, l) of the slot
    ({"N": 3, "M": 4, "suites": FAMILIES, "samples": 4, "seed": 3}, "1c17b44a91137c4e"),
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
