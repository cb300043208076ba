"""Multi-axis q-hypergeometric series and their local solution families.

Every series handled here has the shape

    sum_{m in Z_{>=0}^M} g(<eps, m>) * prod_i w_i(m_i)

with per-axis weights w_i given by first-order term recurrences, axis signs
eps_i in {+1, -1}, and a coupling factor g indexed by the signed sum. The
engine builds one weight table per axis, convolves the plus-sign and
minus-sign tables separately, and accumulates the sum shell by shell (a shell
collects all m with fixed |m|), stopping once three consecutive shells are
negligible relative to the running magnitude.

Every series first screens all of its denominators, axis weights and
coupling, up to ctx.series_cap shells, so a parameter on the q-power lattice
raises ResonanceError however early the sum would settle. The tables are
then built only as far as the sum reads, on a ladder of stops 48, 96,
192, ... capped at series_cap: most series settle within the first, and a
series that has not settled by a stop continues with the next shell, from
axis tables rebuilt at the next stop and the last coupling table extended
to it, so each shell is summed once and each coupling entry computed once.
A one-sided series gets the shells of a rung from one elementwise product;
on two sides each shell is one reduction over contiguous slices of the
tables.

Only the axis arguments x depend on the evaluation point. The rest, each
axis's numerator and denominator products, each coupling table and the
outcome of each coupling screen, is kept in the evaluation context's memo
(QContext) with the bits of a fresh computation. So the screen still covers
every denominator up to series_cap, but runs once per distinct coupling in
a context. A memoised pole raises a new ResonanceError with the same text,
in the same order: plus axes, minus axes, coupling. The setup of a local
solution family (its reordered parameters and leading exponents) is kept in
the same memo, so every component of a family, whether evaluated alone by
local_solution or together by build_solution_vector, reads one setup.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchWarning,
    ConvergenceError,
    DomainError,
    ResonanceError,
)
from .qkernel import (
    LATTICE_RANGE,
    ParamSet,
    QContext,
    _bits,
    _coords,
    _require_range,
    cpow,
    lattice_hit,
    permute_seq,
)

__all__ = [
    "SeriesValue",
    "SolutionVector",
    "eval_FNM",
    "eval_nphi",
    "eval_FNM_L",
    "eval_FNM_Lkl",
    "eval_GNM_Lkl",
    "local_solution",
    "build_solution_vector",
    "in_domain",
    "char_exponents",
    "check_resonance",
    "component_order",
    "component_index",
]

_DEN_TOL = 1e-12
_SECTOR = math.pi / 4.0


@dataclass(frozen=True)
class SeriesValue:
    """Value of a truncated series together with how it was truncated.

    terms_used counts the shells consumed; tail_estimate is the largest
    relative shell magnitude among the final three (all below tail_tol on a
    successful evaluation).
    """

    value: complex
    terms_used: int
    tail_estimate: float


# ---------------------------------------------------------------------------
# engine


def _check_base(p: ParamSet, ctx: QContext) -> None:
    if p.q != ctx.q:
        raise ValueError("parameter set was built for a different base q")


# Shells in the first table build. Most series settle well within it (about
# 20 shells at the median in the run suites); a series that asks for shell
# _STAGE + 1 gets its tables grown to twice the stop, and so on, up to
# series_cap (see _stages).
_STAGE = 48


def _stages(cap: int) -> list[int]:
    """Stops of the table ladder: _STAGE, 2 _STAGE, 4 _STAGE, ... below cap,
    then cap itself (48, 96, 192, 200 at cap 200; 48, 80 at cap 80)."""
    stops = []
    stop = _STAGE
    while stop < cap:
        stops.append(stop)
        stop *= 2
    return stops + [cap]


def _axis_products(nums, dens, ctx: QContext):
    """(prod(1 - n q^k), prod(1 - d q^k), whether a denominator vanishes)
    for q^k in ctx._series_qpow, with read-only arrays."""
    qp = ctx._series_qpow
    num = np.ones(len(qp), dtype=complex)
    for u in nums:
        num *= 1.0 - complex(u) * qp
    den = np.ones(len(qp), dtype=complex)
    for v in dens:
        den *= 1.0 - complex(v) * qp
    num.flags.writeable = den.flags.writeable = False
    return num, den, bool(np.any(np.abs(den) <= _DEN_TOL))


def _axis_ratios(axis, ctx: QContext) -> np.ndarray:
    """Term ratios x * prod(1 - n q^k) / prod(1 - d q^k) of one axis for
    k = 0..series_cap-1, or ResonanceError if any denominator vanishes.
    The products come from ctx's memo; only x depends on the point."""
    nums, dens, x = axis
    num, den, pole = ctx._memoised(
        ("axis", _bits(nums), _bits(dens)), lambda: _axis_products(nums, dens, ctx)
    )
    if pole:
        raise ResonanceError(
            "axis weight recurrence hit a vanishing denominator "
            "(a lower parameter degenerated onto the q-power lattice)"
        )
    return complex(x) * num / den


def _screen(nums, dens, up: int, down: int, ctx: QContext) -> int | None:
    """Index of the first vanishing coupling denominator at indices
    0..up-1 and -1..-down, with the arithmetic of the table, or None. The
    table, built to any number of shells, checks nothing.

    A walk stops once no factor can come near zero again: after every
    |v q^n| < 1/4 on the plus side each later |1 - v q^n| > 1/2, and after
    every |u q^-n| > 4 on the minus side each later
    |1 - u q^-n| > |u q^-n| / 2."""
    q = ctx.q
    vmax = max(map(abs, dens), default=0.0)
    qk = 1.0 + 0j
    for n in range(up):
        den = 1.0 + 0j
        for v in dens:
            den *= 1.0 - v * qk
        if abs(den) <= _DEN_TOL:
            return n
        if vmax * abs(qk) < 0.25:
            break
        qk *= q
    umin = min(map(abs, nums), default=math.inf)
    qk = 1.0 / q
    for n in range(down):
        for u in nums:
            fden = 1.0 - u * qk
            if abs(fden) <= _DEN_TOL * max(1.0, abs(u * qk)):
                return -n - 1
        if umin * abs(qk) > 4.0:
            break
        qk /= q
    return None


def _axis_table(ratios: np.ndarray, cap: int) -> np.ndarray:
    """Weight table w[0..cap] with w[0] = 1 and w[k+1] = w[k] * ratios[k]."""
    w = np.empty(cap + 1, dtype=complex)
    w[0] = 1.0
    np.cumprod(ratios[:cap], out=w[1:])
    return w


def _coupling_table(nums, dens, up: int, down: int, ctx: QContext, stage=None) -> np.ndarray:
    """Coupling table g[n] for n in [-down, up] (stored with offset `down`),
    g(0) = 1 and g(n) = prod_j (nums_j)_n / (dens_j)_n; nums and dens have
    equal length. The table is read-only.

    stage, when given, is (table, up', down') for a table of the same
    coupling with up' <= up and down' <= down; its entries are copied and
    only the rest are computed, with the bits a fresh build gives them. Each
    side runs from its last known entry, a numpy scalar as in a fresh build,
    and its new entries are written in one slice."""
    q = ctx.q
    g = np.empty(up + down + 1, dtype=complex)
    if stage is None:
        g[down] = 1.0
        up0 = down0 = 0
    else:
        table, up0, down0 = stage
        g[down - down0 : down + up0 + 1] = table
    prev = g[down + up0]
    new = []
    qk = 1.0 + 0j
    for n in range(up):
        if n >= up0:
            num = 1.0 + 0j
            den = 1.0 + 0j
            for u in nums:
                num *= 1.0 - u * qk
            for v in dens:
                den *= 1.0 - v * qk
            prev = prev * num / den
            new.append(prev)
        qk *= q
    g[down + up0 + 1 :] = new
    qk = 1.0 / q
    # factors are paired before dividing: each quotient tends to a finite
    # constant as q^{-n} grows, while the separate products overflow long
    # before the table index range is exhausted
    pairs = tuple(zip(nums, dens, strict=True))
    prev = g[down - down0]
    new = []
    for n in range(down):
        if n >= down0:
            ratio = 1.0 + 0j
            for u, v in pairs:
                ratio *= (1.0 - v * qk) / (1.0 - u * qk)
            prev = prev * ratio
            new.append(prev)
        qk /= q
    g[: down - down0] = new[::-1]
    g.flags.writeable = False
    return g


def _settle(terms, ctx: QContext, failure) -> SeriesValue:
    """Sum of terms, done once three in a row fall below tail_tol relative to
    the largest partial sum so far. When the terms run out it raises
    ConvergenceError(failure(last relative term size))."""
    total = 0j
    mag = 1e-300
    run: list[float] = []  # relative sizes of the current run of small terms
    for n, term in enumerate(terms, start=1):
        total += term
        mag = max(mag, abs(total))
        rel = abs(term) / mag
        run = run + [rel] if rel < ctx.tail_tol else []
        if len(run) == 3:
            return SeriesValue(total, n, max(run))
    raise ConvergenceError(failure(rel))


def _shells(plus, minus, g_nums, g_dens, gkey, ctx: QContext):
    """Shell sums for shells 0..ctx.series_cap, given each axis's term
    ratios; every series has at least one axis. The coupling tables come
    from ctx's memo under gkey, the exact bits of (g_nums, g_dens).

    The tables are built to the stops of _stages(ctx.series_cap) in turn,
    each rung's coupling table extended from the last one's, and a rung is
    built only when the sum asks for a shell past the one before. A
    one-sided series has one term per shell, so all the shells of a rung are
    one elementwise product. On two sides shell s pairs plus degree j with
    minus degree s - j, j = 0..s: contiguous slices of the plus table, the
    reversed minus table and every second coupling entry."""

    def combined(axes, stop) -> np.ndarray:
        if not axes:
            return np.ones(1, dtype=complex)
        c = _axis_table(axes[0], stop)
        for ratios in axes[1:]:
            c = np.convolve(c, _axis_table(ratios, stop))[: stop + 1]
        return c

    start = 0
    stage = None
    for stop in _stages(ctx.series_cap):
        cp = combined(plus, stop)
        cm = combined(minus, stop)
        up = len(cp) - 1
        down = len(cm) - 1
        g = ctx._memoised(
            ("coupling", *gkey, up, down),
            lambda: _coupling_table(g_nums, g_dens, up, down, ctx, stage),
        )
        stage = g, up, down
        if not down:
            yield from (cp * cm[0] * g)[start:].tolist()
        elif not up:
            yield from (cp[0] * cm * g[::-1])[start:].tolist()
        else:
            for s in range(start, stop + 1):
                yield complex(np.add.reduce(
                    cp[: s + 1] * cm[s::-1] * g[down - s : down + s + 1 : 2]
                ))
        start = stop + 1


def _shell_series(plus_axes, minus_axes, g_nums, g_dens, ctx: QContext) -> SeriesValue:
    """Sum over shells of the series with these axes and coupling. Every
    denominator is screened up to ctx.series_cap first, plus axes, then
    minus axes, then the coupling. The tables are built to _STAGE shells; a
    sum that has not settled by a stop continues with the next shell from
    tables grown to the next stop of _stages(series_cap), so each shell is
    summed once."""
    cap = ctx.series_cap
    plus = [_axis_ratios(axis, ctx) for axis in plus_axes]
    minus = [_axis_ratios(axis, ctx) for axis in minus_axes]
    gkey = _bits(g_nums), _bits(g_dens)
    up, down = (cap if plus else 0), (cap if minus else 0)
    pole = ctx._memoised(
        ("screen", *gkey, up, down), lambda: _screen(g_nums, g_dens, up, down, ctx)
    )
    if pole is not None:
        raise ResonanceError(
            f"coupling denominator vanished at index {pole} "
            "(parameter ratio on the q-power lattice)"
        )

    def failure(last):
        return f"series did not settle within {cap} shells (last relative shell size {last:.3e})"

    return _settle(_shells(plus, minus, g_nums, g_dens, gkey, ctx), ctx, failure)


def _plain_axis(b: complex, x: complex, q: complex):
    return ((b,), (q,), x)


# ---------------------------------------------------------------------------
# series evaluators


def eval_FNM(p: ParamSet, t, ctx: QContext) -> SeriesValue:
    """Principal multi-series: coupling (a_1..a_N | c_1..c_N) over the total
    degree, one plain axis (b_i; t_i) per lower slot. Requires |t_i| < 1.

    This is the split series at L = M: every axis expands in t_i and the
    coupling quotient B is the empty product 1."""
    return eval_FNM_L(p, p.M, t, ctx)


def eval_nphi(upper, lower, t: complex, ctx: QContext) -> SeriesValue:
    """One-variable basic hypergeometric sum with len(upper) = len(lower) + 1.

    Term recurrence: T_{m+1}/T_m = t prod(1 - u q^m) /
    [(1 - q^{m+1}) prod(1 - l q^m)]. Requires |t| < 1.
    """
    upper = tuple(complex(v) for v in upper)
    lower = tuple(complex(v) for v in lower)
    if len(upper) != len(lower) + 1:
        raise ValueError("need exactly one more upper than lower parameter")
    t = complex(t)
    if abs(t) >= 1.0:
        raise DomainError(f"|t| < 1 required, got {abs(t):.6g}")
    for j, lv in enumerate(lower, start=1):
        k = lattice_hit(lv, ctx.q, kmin=-LATTICE_RANGE, kmax=0)
        if k is not None:
            raise ResonanceError(f"lower parameter {j} sits at q^{k}")
    q = ctx.q

    def terms():
        term = 1.0 + 0j
        qm = 1.0 + 0j
        for m in range(ctx.series_cap + 1):
            yield term
            num = t
            for u in upper:
                num *= 1.0 - u * qm
            den = 1.0 - q * qm
            for lv in lower:
                den *= 1.0 - lv * qm
            if abs(den) <= _DEN_TOL:
                raise ResonanceError(f"term denominator vanished at index {m}")
            term *= num / den
            qm *= q

    return _settle(terms(), ctx, lambda _: (
        f"single-variable sum did not settle within {ctx.series_cap} terms"
    ))


def _domain_check(labels_and_ratios) -> None:
    bad = [lab for lab, r in labels_and_ratios if not r < 1.0]
    if bad:
        raise DomainError("outside convergence region: " + "; ".join(bad))


def _abs_ratio(num: complex, den: complex) -> float:
    if den == 0:
        return math.inf
    return abs(num) / abs(den)


def _coupling(p: ParamSet) -> complex:
    """Coupling constant C q = q prod_j c_j/a_j of the large slots."""
    return math.prod((cj / aj for aj, cj in zip(p.a, p.c)), start=1.0 + 0j) * p.q


def _sector(p: ParamSet, b, L: int, l: int, t):
    """(label, ratio) for every convergence condition of one component of
    the level-L family on reordered slots b, t: component 0 when l = 0, any
    (k, l) component otherwise. The family's sector is where all of its
    components converge."""
    q, big = p.q, _coupling(p)
    if l == 0:
        for i in range(L):
            yield f"|t_{i + 1}| >= 1", abs(t[i])
        for i in range(L, len(t)):
            yield f"tail ratio at i = {i + 1} >= 1", _abs_ratio(big, b[i] * t[i])
        return
    bl_tl = b[l - 1] * t[l - 1]
    if l <= L:
        yield f"|t_{l}| >= 1", abs(t[l - 1])
    else:
        yield "distinguished ratio >= 1", _abs_ratio(big, bl_tl)
    for i in range(l - 1):
        yield f"ratio at i = {i + 1} >= 1", _abs_ratio(q * t[i], bl_tl)
    for i in range(l, len(t)):
        yield f"ratio at i = {i + 1} >= 1", _abs_ratio(q * t[l - 1], b[i] * t[i])


def eval_FNM_L(p: ParamSet, L: int, t, ctx: QContext) -> SeriesValue:
    """Split series: axes 1..L expand in t_i, axes L+1..M in q/(b_i t_i), the
    coupling runs over the signed split sum with parameter quotient
    (a_j / B | c_j / B), B = prod_{i>L} b_i."""
    _check_base(p, ctx)
    M = p.M
    _require_range("L", L, 0, M)
    t = _coords(t, M)
    _domain_check(_sector(p, p.b, L, 0, t))
    q = p.q
    plus = [_plain_axis(p.b[i], t[i], q) for i in range(L)]
    minus = [_plain_axis(p.b[i], q / (p.b[i] * t[i]), q) for i in range(L, M)]
    B = math.prod(p.b[L:], start=1.0 + 0j)
    g_nums = tuple(aj / B for aj in p.a)
    g_dens = tuple(cj / B for cj in p.c)
    return _shell_series(plus, minus, g_nums, g_dens, ctx)


def _slot_series(p: ParamSet, L: int, l: int, t, coupling, ctx: QContext) -> SeriesValue:
    """Split series attached to lower slot l. Slots before l are plus axes in
    q t_i/(b_l t_l), slots after l minus axes in b_l t_l/(b_i t_i); the
    distinguished axis goes right after slot L, on the plus side when l > L.
    coupling(b_l t_l, prod_{i>l} b_i) gives that axis and the coupling
    quotient pair."""
    t = _coords(t, p.M)
    _domain_check(_sector(p, p.b, L, l, t))
    q = p.q
    bl_tl = p.b[l - 1] * t[l - 1]
    axis, g_nums, g_dens = coupling(bl_tl, math.prod(p.b[l:], start=1.0 + 0j))
    plus = [_plain_axis(p.b[i], q * t[i] / bl_tl, q) for i in range(l - 1)]
    minus = [_plain_axis(p.b[i], bl_tl / (p.b[i] * t[i]), q) for i in range(l, p.M)]
    if l > L:
        plus.insert(L, axis)
    else:
        minus.insert(L - l, axis)
    return _shell_series(plus, minus, g_nums, g_dens, ctx)


def eval_FNM_Lkl(p: ParamSet, L: int, k: int, l: int, t, ctx: QContext) -> SeriesValue:
    """Split series attached to upper slot k and lower slot l (L+1 <= l <= M).

    Axes 1..L and the relabeled axes up to l expand in q t_i/(b_l t_l); one
    distinguished axis carries the ({q a_k/c_j} | {q a_k/a_j}) weights with
    argument C q/(b_l t_l), C = prod_j c_j/a_j; axes l+1..M expand in
    b_l t_l/(b_i t_i).
    """
    _check_base(p, ctx)
    _require_range("L", L, 0, p.M)
    _require_range("l", l, L + 1, p.M)
    _require_range("k", k, 1, p.N)
    q, a_k = p.q, p.a[k - 1]

    def coupling(bl_tl, tail):
        nums = tuple(q * a_k / cj for cj in p.c)
        dens = tuple(q * a_k / aj for aj in p.a)
        return (nums, dens, _coupling(p) / bl_tl), (a_k / tail,), (q * a_k / (p.b[l - 1] * tail),)

    return _slot_series(p, L, l, t, coupling, ctx)


def eval_GNM_Lkl(p: ParamSet, L: int, k: int, l: int, t, ctx: QContext) -> SeriesValue:
    """Split series attached to lower-coupling slot k and lower slot l
    (1 <= l <= L).

    Axes 1..l-1 expand in q t_i/(b_l t_l); the relabeled axes between l and L
    and all axes beyond L expand in b_l t_l/(b_i t_i) with one distinguished
    axis carrying ({q a_j/c_k} | {q c_j/c_k}) at argument b_l t_l/q.
    """
    _check_base(p, ctx)
    _require_range("L", L, 0, p.M)
    _require_range("l", l, 1, L)
    _require_range("k", k, 1, p.N)
    q, c_k = p.q, p.c[k - 1]

    def coupling(bl_tl, tail):
        nums = tuple(q * aj / c_k for aj in p.a)
        dens = tuple(q * cj / c_k for cj in p.c)
        return (nums, dens, bl_tl / q), (c_k / (q * tail),), (c_k / (p.b[l - 1] * tail),)

    return _slot_series(p, L, l, t, coupling, ctx)


# ---------------------------------------------------------------------------
# component bookkeeping


def component_order(N: int, M: int) -> list:
    """Vector component labels: 0, then (k, l) for k = 1..N, l = 1..M."""
    return [0] + [(k, l) for k in range(1, N + 1) for l in range(1, M + 1)]


def component_index(comp, M: int) -> int:
    """Flat position of a component label inside the vector."""
    if comp == 0:
        return 0
    k, l = comp
    return (k - 1) * M + l


def _normalize_component(which, N: int, M: int):
    if which == 0:
        return 0
    k, l = which
    k, l = int(k), int(l)
    _require_range("k", k, 1, N)
    _require_range("l", l, 1, M)
    return (k, l)


# ---------------------------------------------------------------------------
# local solutions


def _family(p: ParamSet, L: int, sigma, t, ctx: QContext):
    """Setup shared by every component of the (L, sigma) family at t: the
    reordered parameters and coordinates and the leading exponents. The
    parameters and exponents depend on p, L and sigma only and come from
    ctx's memo; the coordinates are reordered on every call."""
    _check_base(p, ctx)
    _require_range("L", L, 0, p.M)
    sigma = tuple(int(v) for v in sigma)

    def setup():
        pp = p.permuted(sigma)
        return pp, char_exponents(pp, L)

    pp, exps = ctx._memoised(
        ("family", _bits(p.alpha), _bits(p.beta), _bits(p.gamma), _bits(p.q), L, sigma),
        setup,
    )
    return pp, permute_seq(tuple(complex(v) for v in t), sigma), exps


def _component(pp: ParamSet, L: int, comp, delta, tt, ctx: QContext) -> complex:
    """Component comp, with leading exponents delta, of a family set up by
    _family."""
    M = pp.M
    start = (L + 1) if comp == 0 else comp[1]
    risky = [
        i
        for i in range(start, M + 1)
        if tt[i - 1] != 0 and abs(cmath.phase(tt[i - 1])) >= _SECTOR
    ]
    if risky:
        warnings.warn(
            f"coordinates {risky} lie outside the branch-safe sector; "
            "principal powers may break shift identities",
            BranchWarning,
            stacklevel=3,
        )
    if comp == 0:
        series = eval_FNM_L(pp, L, tt, ctx)
    elif comp[1] <= L:
        series = eval_GNM_Lkl(pp, L, *comp, tt, ctx)
    else:
        series = eval_FNM_Lkl(pp, L, *comp, tt, ctx)
    pref = 1.0 + 0j
    for i in range(start, M + 1):
        pref *= cpow(tt[i - 1], delta[i - 1])
    return pref * series.value


def local_solution(p: ParamSet, L: int, sigma, which, t, ctx: QContext) -> complex:
    """Single component of the local solution vector at split level L and
    slot ordering sigma.

    The b/t slots are reordered by sigma first; prefactors are principal
    powers of the reordered coordinates with the component's leading
    exponents (char_exponents), the series factor is the matching split
    series. Emits BranchWarning when a coordinate carrying a power
    prefactor lies outside the sector |Arg| < pi/4 (power laws for the
    composite shifts are then no longer guaranteed).
    """
    pp, tt, exps = _family(p, L, sigma, t, ctx)
    comp = _normalize_component(which, p.N, p.M)
    return _component(pp, L, comp, exps[component_index(comp, p.M)], tt, ctx)


@dataclass(frozen=True)
class SolutionVector:
    """All components of a local solution family evaluated at one point."""

    L: int
    sigma: tuple[int, ...]
    t: tuple[complex, ...]
    components: tuple[complex, ...]
    params: ParamSet

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=complex)


def build_solution_vector(p: ParamSet, L: int, sigma, t, ctx: QContext) -> SolutionVector:
    """Evaluate every component (the distinguished one first, then (k, l) in
    row-major order) from one family setup. Component failures are
    aggregated into one error that names the offending components."""
    pp, tt, exps = _family(p, L, sigma, t, ctx)
    comps = []
    failures: list[tuple[object, Exception]] = []
    for comp, delta in zip(component_order(p.N, p.M), exps):
        try:
            comps.append(_component(pp, L, comp, delta, tt, ctx))
        except Exception as exc:  # noqa: BLE001  aggregated below
            failures.append((comp, exc))
    if failures:
        first = failures[0][1]
        detail = "; ".join(f"component {lab}: {exc}" for lab, exc in failures)
        raise type(first)(f"{len(failures)} component(s) failed: {detail}") from first
    return SolutionVector(
        L=L,
        sigma=tuple(int(v) for v in sigma),
        t=tuple(complex(v) for v in t),
        components=tuple(comps),
        params=p,
    )


# ---------------------------------------------------------------------------
# domains, exponents, resonance


def in_domain(L: int, sigma, p: ParamSet, t) -> float:
    """Margin of t in the convergence sector of the solution family at split
    level L and slot ordering sigma: where component 0 and one (k, l)
    component per slot l converge. The margin is the smallest slack over
    those conditions, positive exactly inside the sector."""
    _require_range("L", L, 0, p.M)
    tt = permute_seq(tuple(complex(v) for v in t), sigma)
    bb = permute_seq(p.b, sigma)
    return min(1.0 - r for l in range(len(tt) + 1) for _, r in _sector(p, bb, L, l, tt))


def char_exponents(p: ParamSet, L: int) -> tuple[tuple[complex, ...], ...]:
    """Leading exponent vector (delta) of every component of the level-L
    family at the identity slot ordering, in component_order(N, M) order."""
    M = p.M
    _require_range("L", L, 0, M)
    out = []
    for comp in component_order(p.N, M):
        if comp == 0:
            l, head = L, [0.0 + 0j] * L
        else:
            k, l = comp
            tail = sum(p.beta[l:])
            lead = 1.0 + tail - p.gamma[k - 1] if l <= L else -p.alpha[k - 1] + tail
            head = [0.0 + 0j] * (l - 1) + [lead]
        out.append(tuple(head + [-bv for bv in p.beta[l:]]))
    return tuple(out)


def _resonance_ratios(p: ParamSet, products):
    """((numerator, denominator), value) for every ratio the solution theory
    requires off the q-power lattice: upper/upper and coupling/coupling
    first, then each upper and coupling value against every (name, product)
    of b-values in products. The names are joined into a label only where
    a ratio is reported, so a screen that reads the values formats nothing."""
    a = [f"a_{j + 1}" for j in range(p.N)]
    c = [f"c_{j + 1}" for j in range(p.N)]
    for j in range(p.N):
        for k in range(p.N):
            if j != k:
                yield (a[j], a[k]), p.a[j] / p.a[k]
                yield (c[j], c[k]), p.c[j] / p.c[k]
    for name, prod in products:
        for j in range(p.N):
            yield (a[j], name), p.a[j] / prod
            yield (c[j], name), p.c[j] / prod


def check_resonance(p: ParamSet, sigma) -> tuple[tuple[str, complex, int], ...]:
    """(label, value, lattice exponent) of every ratio that the solution
    theory requires off the q-power lattice but that lies on it: upper/upper,
    coupling/coupling, and each upper or coupling value against every suffix
    product of the reordered b-family (empty suffix included). An empty
    tuple means nonresonant."""
    bb = permute_seq(p.b, sigma)
    suffixes = [(f"suffix({len(bb) + 1})", 1.0 + 0j)]
    for i in range(len(bb), 0, -1):
        suffixes.append((f"suffix({i})", suffixes[-1][1] * bb[i - 1]))
    bad = []
    for names, value in _resonance_ratios(p, suffixes):
        k = lattice_hit(value, p.q)
        if k is not None:
            bad.append(("/".join(names), value, k))
    return tuple(bad)
