"""Independent verification machinery: q-difference operator residuals,
the series transformation checks (argument swap, iterated q-integral,
single-variable connection sum), and the Casorati independence certificate.

Routes here deliberately avoid the convolution engine: reference values come
from direct shell enumeration or from re-evaluating a function at shifted
points, sharing only the scalar primitives with the series module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ResonanceError
from .qkernel import (
    LATTICE_RANGE, ParamSet, QContext, _coords, _rel_diff, _require_range, lattice_hit, q_shift,
    qpoch_inf, theta,
)
from .hyperseries import eval_FNM, eval_nphi

__all__ = [
    "residual_eqn1",
    "residual_eqn2",
    "eval_FNM_reference",
    "check_duality",
    "check_jackson",
    "check_watson",
    "casorati_independence",
    "scaled_rcond",
    "RCOND_FLOOR",
    "leading_exponents",
    "CasoratiReport",
]

_DEN_TOL = 1e-12
_JACKSON_CAP = 400  # terms per q-integral level table
_ENUM_CAP = 400  # shells of the reference enumeration


# ---------------------------------------------------------------------------
# q-difference operator residuals


def _shift_all(t, q: complex, power: int) -> tuple[complex, ...]:
    return tuple(v * q**power for v in t)


def _shift_points(t, q: complex, N: int, M: int) -> list[tuple[complex, ...]]:
    """Every point residual_eqn1 (any slot) and residual_eqn2 (any pair)
    evaluate at: uniform shifts by q^p (p <= N), each with at most one
    extra single-coordinate shift, then the double shifts of the pairwise
    check."""
    pts = []
    for pw in range(N + 1):
        base = _shift_all(t, q, pw)
        pts.append(base)
        pts += [q_shift(base, q, s) for s in range(1, M + 1)]
    for r in range(1, M + 1):
        for s in range(r + 1, M + 1):
            pts.append(q_shift(q_shift(t, q, r), q, s))
    return pts


def _factored_coeffs(mults) -> np.ndarray:
    """Coefficients C_p with prod_j (1 - mu_j X) = sum_p C_p X^p."""
    coeffs = np.array([1.0 + 0j])
    for mu in mults:
        coeffs = np.convolve(coeffs, [1.0, -complex(mu)])
    return coeffs


def _term_residual(terms) -> float:
    """|sum of the signed terms| relative to the largest term; 0.0 when all
    vanish."""
    scale = max(abs(v) for v in terms)
    if scale == 0.0:
        return 0.0
    return abs(sum(terms)) / scale


def residual_eqn1(f, p: ParamSet, s: int, t, ctx: QContext) -> float:
    """Relative residual of the coupled equation attached to slot s:

        [ t_s prod_j(1 - a_j T)(1 - b_s T_s)
          - prod_j(1 - c_j T / q)(1 - T_s) ] f = 0,

    T scaling all coordinates by q and T_s only coordinate s. Normalized by
    the largest signed term, so an identically satisfied equation gives ~0
    and a generic function gives O(1)."""
    _require_range("s", s, 1, p.M)
    t = tuple(complex(v) for v in t)
    q = ctx.q
    Ca = _factored_coeffs(p.a)
    Cc = _factored_coeffs(tuple(cj / q for cj in p.c))
    ts = t[s - 1]
    bs = p.b[s - 1]
    terms: list[complex] = []
    for p_ in range(p.N + 1):
        base = _shift_all(t, q, p_)
        f_base = f(base)
        f_extra = f(q_shift(base, q, s))
        terms.append(ts * Ca[p_] * f_base)
        terms.append(-ts * Ca[p_] * bs * f_extra)
        terms.append(-Cc[p_] * f_base)
        terms.append(Cc[p_] * f_extra)
    return _term_residual(terms)


def residual_eqn2(f, p: ParamSet, r: int, s: int, t, ctx: QContext) -> float:
    """Relative residual of the pairwise-compatibility equation:

        [ t_r (1 - b_r T_r)(1 - T_s) - t_s (1 - b_s T_s)(1 - T_r) ] f = 0.

    Antisymmetric in (r, s); r = s is rejected."""
    _require_range("r", r, 1, p.M)
    _require_range("s", s, 1, p.M)
    if r == s:
        raise ValueError("pairwise equation needs two distinct slots")
    t = tuple(complex(v) for v in t)
    q = ctx.q
    f00 = f(t)
    fr = f(q_shift(t, q, r))
    fs = f(q_shift(t, q, s))
    frs = f(q_shift(q_shift(t, q, r), q, s))
    tr, ts = t[r - 1], t[s - 1]
    br, bs = p.b[r - 1], p.b[s - 1]
    terms = [
        tr * f00,
        -tr * br * fr,
        -tr * fs,
        tr * br * frs,
        -ts * f00,
        ts * bs * fs,
        ts * fr,
        -ts * bs * frs,
    ]
    return _term_residual(terms)


# ---------------------------------------------------------------------------
# reference enumeration (independent of the convolution engine)


def _enum_series(a, b, c, t, ctx: QContext) -> complex:
    """sum_m prod_j (a_j)_{|m|}/(c_j)_{|m|} prod_i (b_i)_{m_i}/(q)_{m_i} t^m,
    summed shell by shell from per-axis partial sums.

    h_i[s] = sum_{m <= s} w_i[m] h_{i+1}[s - m], with h_{M-1} = w_{M-1}, is
    the sum over the multi-indices of axes i..M-1 with degree s, and shell s
    is g[s] h_0[s]. Each shell appends one entry to every h_i, so shell s
    costs (M - 1)(s + 1) products.

    Every coupling denominator up to the cap is screened first, so a
    parameter on the q-power lattice raises ResonanceError however early the
    sum would settle. The weights w_i and the coupling g then grow by one
    entry per shell, so a sum that settles early pays for none of the cap:
    the cap is generous for every number of axes (arguments near the unit
    circle need hundreds of shells to clear the tail tolerance). Each entry
    is grown in numpy scalars, whose division rounds unlike Python's; the
    weights are read as Python complexes, whose products and sums round as
    numpy's do, so with one or two axes every shell has the bits of a walk
    over its multi-indices."""
    q = ctx.q
    M = len(t)
    dens = []
    qn = 1.0 + 0j
    for n in range(_ENUM_CAP):
        den = 1.0 + 0j
        for cj in c:
            den *= 1.0 - cj * qn
        if abs(den) <= _DEN_TOL:
            raise ResonanceError(f"coupling denominator vanished at index {n}")
        dens.append(den)
        qn *= q

    one = np.complex128(1.0)
    w_run = [one] * M  # w_i[s], numpy scalars
    ws = [[1.0 + 0j] for _ in range(M)]  # w_i[0..s], Python complexes
    g = one  # g[s]
    qm = 1.0 + 0j  # q^(s - 1)
    h = [[] for _ in range(M - 1)] + [ws[-1]]
    total = 0j
    mag = 1e-300
    small = 0
    for s in range(_ENUM_CAP + 1):
        if s:
            den = 1.0 - q * qm
            for i, (bi, ti) in enumerate(zip(b, t)):
                w_run[i] = w_run[i] * ti * (1.0 - bi * qm) / den
                ws[i].append(complex(w_run[i]))
            num = 1.0 + 0j
            for aj in a:
                num *= 1.0 - aj * qm
            g = g * num / dens[s - 1]
            qm *= q
        for axis in range(M - 2, -1, -1):
            w, inner = ws[axis], h[axis + 1]
            acc = 0j
            for m in range(s + 1):
                acc += w[m] * inner[s - m]
            h[axis].append(acc)
        sh = g * h[0][s]
        total += sh
        mag = max(mag, abs(total))
        if abs(sh) / mag < ctx.tail_tol:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"reference enumeration did not settle in {_ENUM_CAP} shells")


def _require_unit_disc(values, what: str) -> None:
    """Raise DomainError "<what> = [...]" naming the 1-based positions with |v| >= 1."""
    bad = [i for i, v in enumerate(values, start=1) if abs(v) >= 1.0]
    if bad:
        raise DomainError(f"{what} = {bad}")


def eval_FNM_reference(p: ParamSet, t, ctx: QContext) -> complex:
    """Reference value of the principal multi-series by direct enumeration."""
    t = tuple(complex(v) for v in t)
    _require_unit_disc(t, "|t_i| < 1 required; violated at i")
    return _enum_series(p.a, p.b, p.c, t, ctx)


# ---------------------------------------------------------------------------
# transformation checks: each returns the relative difference of its two sides


def _poch_ratio(pairs, ctx: QContext) -> complex:
    """prod (x)_inf / (y)_inf over the (x, y) pairs, multiplied in order."""
    out = 1.0 + 0j
    for x, y in pairs:
        out *= qpoch_inf(x, ctx) / qpoch_inf(y, ctx)
    return out


def _upper_ratio_hit(upper, q: complex):
    """First (j, k, exponent), 1-based, with upper_j / upper_k on the q-power
    lattice, or None; the one-variable connection sum divides by these."""
    for j in range(len(upper)):
        for k in range(len(upper)):
            if j != k:
                hit = lattice_hit(upper[j] / upper[k], q)
                if hit is not None:
                    return j + 1, k + 1, hit
    return None


def check_duality(p: ParamSet, t, ctx: QContext) -> float:
    """Role-swap transformation: the (N, M) series against the (M, N) series
    in swapped arguments times an infinite-product prefactor. The swapped side
    is enumerated independently; needs every |a_j| < 1 and |t_i| < 1."""
    t = _coords(t, p.M)
    _require_unit_disc(p.a, "|a_j| < 1 required on the swapped side; violated at j")
    _require_unit_disc(t, "|t_i| < 1 required; violated at i")
    for i in range(p.M):
        k = lattice_hit(p.b[i] * t[i], p.q, kmin=-LATTICE_RANGE, kmax=0)
        if k is not None:
            raise ResonanceError(
                f"b_{i + 1} t_{i + 1} sits at q^{k}; swapped coupling degenerates"
            )
    lhs = eval_FNM(p, t, ctx).value
    pref = _poch_ratio([*zip(p.a, p.c), *((bi * ti, ti) for bi, ti in zip(p.b, t))], ctx)
    swapped = _enum_series(
        a=t,
        b=tuple(cj / aj for aj, cj in zip(p.a, p.c)),
        c=tuple(bi * ti for bi, ti in zip(p.b, t)),
        t=p.a,
        ctx=ctx,
    )
    return _rel_diff(lhs, pref * swapped)


def check_jackson(p: ParamSet, t, ctx: QContext) -> float:
    """Iterated q-integral representation: N nested geometric sums over the
    grid z = q^m (m >= 0, endpoint included) against the series value.

    After absorbing constant products, the integral side reads
    prod_j (a_j)_inf/(c_j)_inf * sum_m prod_j a_j^{m_j} (c_j/a_j)_{m_j}/(q)_{m_j}
    * prod_i (b_i t_i Q)_inf/(t_i Q)_inf at Q = q^{m_1 + ... + m_N}.
    """
    t = _coords(t, p.M)
    _require_unit_disc(p.a, "|a_j| < 1 required for the q-integral; violated at j")
    lhs = eval_FNM(p, t, ctx).value

    q = ctx.q
    N, M = p.N, p.M
    tables = []
    for j in range(N):
        ratio_param = p.c[j] / p.a[j]
        w = [1.0 + 0j]
        qm = 1.0 + 0j
        peak = 1.0
        for m in range(_JACKSON_CAP):
            nxt = w[-1] * p.a[j] * (1.0 - ratio_param * qm) / (1.0 - q * qm)
            w.append(nxt)
            qm *= q
            peak = max(peak, abs(nxt))
            if abs(nxt) < 1e-22 * peak:
                break
        tables.append(np.asarray(w))
    s_max = sum(len(w) - 1 for w in tables)
    P = np.empty(s_max + 2, dtype=complex)
    P[0] = _poch_ratio(((bi * ti, ti) for bi, ti in zip(p.b, t)), ctx)
    qS = 1.0 + 0j
    for S in range(s_max + 1):
        ratio = 1.0 + 0j
        for i in range(M):
            den = 1.0 - p.b[i] * t[i] * qS
            if abs(den) <= _DEN_TOL:
                raise ResonanceError("q-integrand factor degenerated")
            ratio *= (1.0 - t[i] * qS) / den
        P[S + 1] = P[S] * ratio
        qS *= q

    @functools.cache  # subtrees repeat across (j, S); the sum order is unchanged
    def level(j: int, S: int) -> complex:
        w = tables[j]
        if j == N - 1:
            return complex(np.dot(w, P[S : S + len(w)]))
        return sum(w[m] * level(j + 1, S + m) for m in range(len(w)))

    return _rel_diff(lhs, _poch_ratio(zip(p.a, p.c), ctx) * level(0, 0))


def check_watson(upper, lower, t: complex, ctx: QContext) -> float:
    """Single-variable connection sum: the value at argument t against the
    weighted sum of companion series at the reflected argument
    q prod(lower) / (prod(upper) t). Both arguments must lie inside the unit
    disc; upper-parameter ratios must stay off the q-power lattice."""
    upper = tuple(complex(v) for v in upper)
    lower = tuple(complex(v) for v in lower)
    if len(upper) != len(lower) + 1:
        raise ValueError("need exactly one more upper than lower parameter")
    t = complex(t)
    q = ctx.q
    hit = _upper_ratio_hit(upper, q)
    if hit is not None:
        raise ResonanceError("upper ratio {}/{} sits at q^{}".format(*hit))
    if t == 0:
        raise DomainError("reflected argument undefined at t = 0")
    arg2 = q * math.prod(lower, start=1.0 + 0j) / (
        math.prod(upper, start=1.0 + 0j) * t
    )
    if abs(t) >= 1.0:
        raise DomainError(f"|t| < 1 required, got {abs(t):.6g}")
    if abs(arg2) >= 1.0:
        raise DomainError(
            f"reflected argument must satisfy |.| < 1, got {abs(arg2):.6g}"
        )
    lhs = eval_nphi(upper, lower, t, ctx).value
    th_t = theta(t, ctx)
    rhs = 0j
    for k, ak in enumerate(upper):
        coeff = _poch_ratio(
            [*((bj / ak, bj) for bj in lower),
             *((aj, aj / ak) for j, aj in enumerate(upper) if j != k)],
            ctx,
        )
        coeff *= theta(t * ak, ctx) / th_t
        new_upper = tuple(q * ak / bj for bj in lower) + (ak,)
        new_lower = tuple(q * ak / aj for j, aj in enumerate(upper) if j != k)
        rhs += coeff * eval_nphi(new_upper, new_lower, arg2, ctx).value
    return _rel_diff(lhs, rhs)


# ---------------------------------------------------------------------------
# independence


# Independence certificate: a column-scaled Casorati matrix is certified
# nonsingular when its sigma_min/sigma_max exceeds this floor, and a forged
# dependent one must not exceed it. Measured over every shape N*M <= 12 at
# q = 0.3, 0.5, 0.7 and 0.5+0.2j (seeds 0-4, 8 samples of the independence
# suite), every forged matrix stays below 1e-16 and every true one clears the
# floor up to n = N*M+1 = 8; some true ones at (2,6), (12,1) and (1,8) to
# (1,12) fall below it.
RCOND_FLOOR = 1e-14


@dataclass(frozen=True)
class CasoratiReport:
    """Casorati matrix of component functions along a q-power shift ladder,
    with its certificate and the certificate of its forged dependent twin.
    rcond = sigma_min/sigma_max of the matrix with each column scaled to unit
    max magnitude; the matrix passes when rcond exceeds RCOND_FLOOR, and the
    twin must not exceed it."""

    rcond: float
    forged_rcond: float
    matrix: np.ndarray


def casorati_independence(vector, m, t, ctx: QContext) -> CasoratiReport:
    """rcond test for linear independence over the field of q-shift
    invariants: vector(point) returns all n >= 2 component values at a
    point, and row k is vector(t * q^{k m}).

    The forged twin replaces the last column by 2 col0 + 0.5 col1 (by
    2 col0 when n = 2), a combination of columns that stay in the matrix,
    so its rcond sits at rounding level. Swapping two components leaves
    rcond unchanged; a repeated component puts it at rounding level.
    Shifted points leaving the domain surface as whatever error vector
    raises."""
    m = tuple(int(v) for v in m)
    t = tuple(complex(v) for v in t)
    if len(m) != len(t):
        raise ValueError("shift pattern and point must have equal length")
    q = ctx.q

    def row(k: int):
        return vector(tuple(v * q ** (k * mv) for v, mv in zip(t, m)))

    first = row(0)
    n = len(first)
    if n < 2:
        raise ValueError("need at least two components")
    A = np.array([first, *(row(k) for k in range(1, n))], dtype=complex)
    forged = A.copy()
    forged[:, -1] = 2.0 * A[:, 0] + 0.5 * A[:, 1] if n >= 3 else 2.0 * A[:, 0]
    return CasoratiReport(scaled_rcond(A), scaled_rcond(forged), A)


def scaled_rcond(A: np.ndarray) -> float:
    """sigma_min / sigma_max of A with each nonzero column scaled to unit
    max magnitude: the certificate of casorati_independence."""
    scaled = A.copy()
    for i in range(A.shape[1]):
        peak = np.max(np.abs(scaled[:, i]))
        if peak > 0.0:
            scaled[:, i] /= peak
    sv = np.linalg.svd(scaled, compute_uv=False)
    return float(sv[-1] / sv[0])


# ---------------------------------------------------------------------------
# leading-behavior extraction


def leading_exponents(fn, L: int, M: int, ctx: QContext):
    """Numerically extract the leading power vector of a function on the
    sector with coordinates 1..L small and the rest large.

    Uses chamber coordinates x (t_i = x_i ... x_L for i <= L and
    1/t_i = x_{L+1} ... x_i beyond), scales each x_j by q in turn, and reads
    the exponent off the principal logarithm of the value ratio. Accuracy is
    O(1e-4), the size of the probe's chamber coordinates."""
    _require_range("L", L, 0, M)
    q = ctx.q
    logq = np.log(complex(q))

    def point(xs) -> tuple[complex, ...]:
        t = []
        for i in range(1, L + 1):
            t.append(math.prod(xs[i - 1 : L], start=1.0 + 0j))
        for i in range(L + 1, M + 1):
            t.append(1.0 / math.prod(xs[L : i], start=1.0 + 0j))
        return tuple(t)

    xs = [1e-4 * (1.0 + 0.13 * j) for j in range(M)]
    f0 = fn(point(xs))
    if f0 == 0:
        raise ValueError("function vanished at the probe point")
    e = [0j] * (M + 2)  # e[j] for j = 1..M, padded at both ends
    for j in range(1, M + 1):
        ys = list(xs)
        ys[j - 1] *= q
        fj = fn(point(ys))
        e[j] = np.log(fj / f0) / logq
    delta = [0j] * M
    for j in range(1, L + 1):
        delta[j - 1] = e[j] - e[j - 1]
    for j in range(M, L, -1):
        delta[j - 1] = e[j + 1] - e[j]
    return tuple(delta)
