"""Scalar building blocks: q-Pochhammer products, theta, principal powers,
the evaluation context, parameter containers and integer-index helpers.

Every quantity is a plain complex number computed from a truncated infinite
product whose length is fixed by the evaluation context, so results are
deterministic for a given context.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, ResonanceError

__all__ = [
    "QContext",
    "ParamSet",
    "qpoch_inf",
    "theta",
    "cpow",
    "lattice_hit",
    "perm_identity",
    "perm_compose",
    "perm_inverse",
    "perm_transposition",
    "permute_seq",
    "q_shift",
]

# Nearness threshold (relative) for deciding that a value sits on the
# q-power lattice, and the scan range for the exponent.
LATTICE_RTOL = 1e-8
LATTICE_RANGE = 64

# Entries a context's memo holds; the oldest is dropped to make room.
_MEMO_SIZE = 256
# exact bits of one complex value (re, im): the scalar form of _bits
_PAIR = struct.Struct("2d").pack


def _bits(values) -> bytes:
    """Exact bits of a sequence of complex values, as a memo key: unlike ==,
    it tells -0.0 from 0.0."""
    return np.array(values, dtype=complex).tobytes()


def _default_prod_terms(q: complex) -> int:
    """Smallest K with |q|^K < 1e-17."""
    aq = abs(q)
    k = max(1, math.ceil(math.log(1e-17) / math.log(aq)))
    while aq**k >= 1e-17:
        k += 1
    return k


@dataclass(frozen=True)
class QContext:
    """Evaluation context: the base q plus truncation/tolerance policy.

    prod_terms   number of factors kept in infinite products
    series_cap   maximum shell (total degree) in multi-series evaluation (200)
    tail_tol     relative shell size below which a series is considered done

    A context memoises qpoch_inf values and the values that depend on
    parameters but never on the evaluation point: the series engine's axis
    products, coupling tables and coupling screens, and each solution
    family's setup (reordered parameters and leading exponents). A key holds
    the exact bits of its arguments (it tells -0.0 from 0.0), and a value is
    made by the code a fresh context runs, so a reused context gives the
    same bits as a fresh one. The memo keeps at most _MEMO_SIZE entries and
    belongs to this instance: run_suite uses one context per run, and no two
    runs share a value.
    """

    q: complex
    prod_terms: int | None = None
    series_cap: int = 200
    tail_tol: float = 1e-12

    def __post_init__(self) -> None:
        q = complex(self.q)
        object.__setattr__(self, "q", q)
        if not 0.0 < abs(q) < 1.0:
            raise DomainError(f"base must satisfy 0 < |q| < 1, got |q| = {abs(q):.6g}")
        if self.prod_terms is None:
            object.__setattr__(self, "prod_terms", _default_prod_terms(q))
        if not isinstance(self.prod_terms, int) or self.prod_terms <= 0:
            raise ValueError("prod_terms must be a positive integer")
        if self.series_cap <= 0:
            raise ValueError("series_cap must be positive")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError("tail_tol must lie in (0, 1)")
        if abs(q) ** self.prod_terms >= self.tail_tol:
            raise ValueError(
                "prod_terms too small: |q|^prod_terms must fall below tail_tol"
            )

    @cached_property
    def _qpow_table(self) -> np.ndarray:
        """[q^0, q^1, ..., q^(prod_terms-1)]"""
        return np.power(self.q, np.arange(self.prod_terms))

    @cached_property
    def _series_qpow(self) -> np.ndarray:
        """[q^0, q^1, ..., q^(series_cap-1)], read-only."""
        qp = np.power(self.q, np.arange(self.series_cap))
        qp.flags.writeable = False
        return qp

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _memoised(self, key, make):
        """The memo's value for key, made by make() on a miss; when the memo
        is full the oldest entry is dropped first."""
        memo = self._memo
        try:
            return memo[key]
        except KeyError:
            pass
        value = make()
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
        return value

    def qpow(self, z: complex) -> complex:
        """q**z on the principal branch of log q."""
        return cmath.exp(complex(z) * cmath.log(self.q))


def qpoch_inf(a: complex, ctx: QContext) -> complex:
    """Truncated infinite product prod_{k>=0} (1 - a q^k).

    Total function of a; the truncation length is ctx.prod_terms. Memoised
    on ctx.
    """
    a = complex(a)
    return ctx._memoised(
        ("qpoch_inf", _PAIR(a.real, a.imag)),
        lambda: complex(np.prod(1.0 - a * ctx._qpow_table)),
    )


def theta(x: complex, ctx: QContext) -> complex:
    """Multiplicative theta: (x)_inf (q/x)_inf. Undefined at x = 0."""
    x = complex(x)
    if x == 0:
        raise DomainError("theta is undefined at x = 0")
    return qpoch_inf(x, ctx) * qpoch_inf(ctx.q / x, ctx)


def cpow(t: complex, alpha: complex) -> complex:
    """Principal-branch power t**alpha = exp(alpha (ln|t| + i Arg t)),
    Arg in (-pi, pi].

    t = 0 returns 0 when Re alpha > 0 and raises DomainError otherwise.
    """
    t = complex(t)
    alpha = complex(alpha)
    if t == 0:
        if alpha.real > 0:
            return 0j
        raise DomainError("0**alpha is undefined for Re(alpha) <= 0")
    return cmath.exp(alpha * cmath.log(t))


def _rel_maxnorm(lhs, rhs) -> float:
    """max|lhs - rhs| / max(max|lhs|, max|rhs|); 0.0 when both vanish."""
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)


def _rel_diff(lhs: complex, rhs: complex) -> float:
    """Scalar form of _rel_maxnorm. It keeps Python's abs: np.abs rounds
    some complex moduli differently in the last bit."""
    if lhs == rhs == 0:
        return 0.0
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def _coords(t, M: int) -> tuple[complex, ...]:
    """t as M complex coordinates; ValueError for any other count."""
    t = tuple(complex(v) for v in t)
    if len(t) != M:
        raise ValueError(f"expected {M} coordinates, got {len(t)}")
    return t


def lattice_hit(
    x: complex,
    q: complex,
    kmin: int = -LATTICE_RANGE,
    kmax: int = LATTICE_RANGE,
) -> int | None:
    """Exponent k in [kmin, kmax] with |x - q^k| < LATTICE_RTOL |q^k|, or None.

    Used to flag parameter ratios that degenerate onto the q-power lattice.

    A match at k needs (1 - LATTICE_RTOL) |q^k| < |x| < (1 + LATTICE_RTOL) |q^k|,
    so |ln|x| - k ln|q|| < -ln(1 - LATTICE_RTOL) < 2 LATTICE_RTOL. Only the
    integers in that window around ln|x| / ln|q| are tested, in increasing
    order; the factor 2 leaves room for rounding in the logarithms. Each one
    is tested against the running power q^kmin q q ... q, so the result is
    the first k a scan over the whole range would find. x = 0, inf and nan
    match nothing.
    """
    x = complex(x)
    ax = abs(x)
    if not 0.0 < ax < math.inf:
        return None
    lx, lq = math.log(ax), math.log(abs(q))
    if lq == 0.0:
        lo, hi = (kmin, kmax) if abs(lx) < 2 * LATTICE_RTOL else (1, 0)
    else:
        centre, width = lx / lq, 2 * LATTICE_RTOL / abs(lq)
        lo = max(kmin, math.ceil(centre - width))
        hi = min(kmax, math.floor(centre + width))
    if lo > hi:
        return None
    qk = q**kmin
    for k in range(kmin, hi + 1):
        if k >= lo and abs(x - qk) < LATTICE_RTOL * abs(qk):
            return k
        qk *= q
    return None


def _require_range(name: str, value: int, lo: int, hi: int) -> None:
    """IndexError naming the index unless lo <= value <= hi."""
    if not lo <= value <= hi:
        raise IndexError(f"{name} = {value} outside [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# permutations of {1..M}, one-line notation, 1-based images


def perm_identity(size: int) -> tuple[int, ...]:
    return tuple(range(1, size + 1))


def _validate_perm(sigma) -> tuple[int, ...]:
    s = tuple(int(v) for v in sigma)
    if sorted(s) != list(range(1, len(s) + 1)):
        raise ValueError(f"not a permutation of 1..{len(s)}: {s}")
    return s


def perm_compose(s, t) -> tuple[int, ...]:
    """(s o t)(i) = s(t(i)); t acts first."""
    s = _validate_perm(s)
    t = _validate_perm(t)
    if len(s) != len(t):
        raise ValueError("size mismatch")
    return tuple(s[t[i] - 1] for i in range(len(s)))


def perm_inverse(sigma) -> tuple[int, ...]:
    s = _validate_perm(sigma)
    inv = [0] * len(s)
    for i, v in enumerate(s):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_transposition(size: int, r: int) -> tuple[int, ...]:
    """Adjacent transposition swapping r and r+1 (1 <= r <= size-1)."""
    _require_range("r", r, 1, size - 1)
    out = list(range(1, size + 1))
    out[r - 1], out[r] = out[r], out[r - 1]
    return tuple(out)


def permute_seq(seq, sigma) -> tuple:
    """Position i of the result holds entry sigma(i) of the input."""
    s = _validate_perm(sigma)
    if len(s) != len(seq):
        raise ValueError("size mismatch")
    return tuple(seq[v - 1] for v in s)


def q_shift(t, q: complex, s: int) -> tuple[complex, ...]:
    """Multiply coordinate s (1-based) of t by q."""
    tt = list(complex(v) for v in t)
    _require_range("s", s, 1, len(tt))
    tt[s - 1] *= q
    return tuple(tt)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ParamSet:
    """Exponent parameters (alpha, gamma of equal length N; beta of length M)
    together with the base q, plus the derived multiplicative values
    a_j = q^alpha_j, b_i = q^beta_i, c_j = q^gamma_j on the principal branch.

    Construction rejects c_j on the nonpositive q-power lattice, where the
    defining series has a vanishing denominator.
    """

    alpha: tuple[complex, ...]
    beta: tuple[complex, ...]
    gamma: tuple[complex, ...]
    q: complex
    a: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    b: tuple[complex, ...] = field(init=False, repr=False, compare=False)
    c: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        alpha = tuple(complex(v) for v in self.alpha)
        beta = tuple(complex(v) for v in self.beta)
        gamma = tuple(complex(v) for v in self.gamma)
        q = complex(self.q)
        if not 0.0 < abs(q) < 1.0:
            raise DomainError("base must satisfy 0 < |q| < 1")
        if len(alpha) < 1 or len(beta) < 1:
            raise ValueError("need at least one upper and one lower family")
        if len(alpha) != len(gamma):
            raise ValueError("alpha and gamma must have equal length")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "q", q)
        logq = cmath.log(q)
        object.__setattr__(self, "a", tuple(cmath.exp(v * logq) for v in alpha))
        object.__setattr__(self, "b", tuple(cmath.exp(v * logq) for v in beta))
        object.__setattr__(self, "c", tuple(cmath.exp(v * logq) for v in gamma))
        for j, cj in enumerate(self.c, start=1):
            k = lattice_hit(cj, q, kmin=-LATTICE_RANGE, kmax=0)
            if k is not None:
                raise ResonanceError(
                    f"c_{j} sits on the nonpositive power lattice: c_{j} ~ q^{k}"
                )

    @property
    def N(self) -> int:
        return len(self.alpha)

    @property
    def M(self) -> int:
        return len(self.beta)

    def permuted(self, sigma) -> "ParamSet":
        """Copy with the beta family permuted; alpha and gamma untouched."""
        return ParamSet(self.alpha, permute_seq(self.beta, sigma), self.gamma, self.q)
