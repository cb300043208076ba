"""Reference kernel: fixed work that stands in for the host's current speed.

The host this benchmark runs on shares its cores, and its speed swings by
half or more over tens of seconds; the same ``run_suite`` call has taken
1.7 s and 3.2 s a minute apart. The untraced run therefore times this kernel
right before and after every call and reports the call's wall time divided
by the kernel's time around it. The kernel never touches ``qconnect``, so a
faster program still shows in full.

Its instruction mix follows the hot paths of a run: a lattice scan over
complex powers (``lattice_hit``), an element-wise complex table filled into
a numpy array (``_coupling_table``), shells summed from small numpy slices
(``_shell_series``), and a recursive walk over multi-indices
(``_enum_series``). The work is fixed; only its duration varies.
"""

from __future__ import annotations

import time

import numpy as np

# Wall seconds of one kernel() call on the reference host (2-core x86 KVM
# guest, Python 3.11, in a fast phase). Normalized times are expressed in
# seconds at that speed.
NOMINAL_S = 0.2

_ROUNDS = 12


def _lattice(x: complex, q: complex, span: int) -> int:
    hits = 0
    qk = q ** -span
    for k in range(-span, span + 1):
        if abs(x - qk) < 1e-9 * abs(qk):
            hits += k
        qk *= q
    return hits


def _table(nums, dens, q: complex, up: int) -> np.ndarray:
    g = np.empty(up + 1, dtype=complex)
    g[0] = 1.0
    qk = 1.0 + 0j
    for n in range(up):
        num = 1.0 + 0j
        den = 1.0 + 0j
        for u in nums:
            num *= 1.0 - u * qk
        for v in dens:
            den *= 1.0 - v * qk
        g[n + 1] = g[n] * num / den
        qk *= q
    return g


def _shells(c: np.ndarray, g: np.ndarray) -> complex:
    total = 0j
    up = len(c) - 1
    for s in range(len(g)):
        js = np.arange(max(0, s - up), min(s, up) + 1)
        total += complex(np.sum(c[js] * g[s - js]))
    return total


def _walk(depth: int, budget: int, z: complex) -> complex:
    if depth == 0:
        return z
    return sum(_walk(depth - 1, budget - m, z * (0.5 + 0.1j * m)) for m in range(budget + 1))


def kernel() -> complex:
    """Run the fixed work once; return its checksum."""
    q = 0.3 + 0.05j
    acc = 0j
    for r in range(_ROUNDS):
        x = complex(0.7 + 0.01 * r, 0.2)
        for i in range(600):
            acc += _lattice(x * (1 + 1e-3 * i), q, 20)
        g = _table((0.4 + 0.1j, 0.9, 1.3j), (0.5, 0.2 - 0.3j, 2.0), q, 1500)
        c = _table((0.6,), (0.35 + 0.2j,), q, 60)
        acc += _shells(c, g)
        acc += _walk(5, 9, complex(0.1 * r, 1.0))
    return acc


def seconds() -> float:
    """Wall seconds of one kernel() call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
