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
coupling, at every index, series_cap and beyond, so a parameter on the
q-power lattice raises ResonanceError however early the sum would settle.
Every pole, here and in eval_nphi, is decided by qkernel.lattice_hit, the
library's one rule for "on the lattice"; no denominator is compared with a
threshold of its own. The tables are then built only as far as the sum reads, on a ladder of
stops 48, 96, 192, ... capped at series_cap: most series settle within the
first, and a series that has not settled by a stop continues with the next
shell, from axis tables rebuilt at the next stop and the last coupling
table extended to it, so each shell is summed once and each coupling entry
computed once. A one-sided series gets the shells of a rung from one
elementwise product. On two sides the products of a block of shells are
gathered into one table, and each shell is one reduction of its contiguous
entries.

The engine sums several series, each at its own points, in one pass
(_point_rows). A cell is one series built point by point; a point whose
build raises keeps its error in its place, and every other point is a row.
The rows of one cell share every screen, axis product and coupling table,
and only the axis arguments differ; the rows are summed by side pattern
(plus only, minus only, two-sided), and all the rows of a pattern share
each gather index. Each row gets its own row of axis tables and of each
block table, each series multiplies its own coupling table into its rows,
each shell is one reduction over all the rows, and a row leaves the batch
once its sum has settled. Every value has the bits of an evaluation of
that series at that point alone, and is written straight into its cell's
place for the point. Each series keeps its own error: a pole fails its
rows only. _shell_series (one series at one point), eval_FNM at many
points and the solution rows are all cells of it.

Only the axis arguments x depend on the evaluation point. Each axis's
numerator and denominator products, with whether a denominator vanishes,
and each coupling table are kept in the evaluation context's memo
(QContext) with the bits of a fresh computation; a memoised axis pole
raises a new ResonanceError with the same text. Each series screens its
coupling itself, after its axes, so the first pole raises in the order plus
axes, minus axes, coupling. Each call sets up its local solution family (the
reordered parameters and leading exponents) once, so every component that
build_solution_vector evaluates reads one setup.
build_solution_vector sums all N*M+1 components of a vector in one pass of
the engine, one series each. local_solution also takes a list of
components and a sequence of points, and evaluates every component at all
of them in one pass, one series per component at n points: a whole
Casorati matrix. eval_FNM likewise takes a sequence of points, one series
at all of them in one pass: every point the q-difference residuals read.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
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
    ParamSet,
    QContext,
    _bits,
    _check_base,
    _coords,
    _nphi_args,
    _permute,
    _pole_index,
    _reorder,
    _require_label,
    _require_range,
    _validate_perm,
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
    for q^k in ctx._series_qpow, with read-only arrays; a pole is decided by
    _pole_index at every k >= 0, past the table too."""
    qp = ctx._series_qpow
    num = np.ones(len(qp), dtype=complex)
    for u in nums:
        num *= 1.0 - complex(u) * qp
    den = np.ones(len(qp), dtype=complex)
    for v in dens:
        den *= 1.0 - complex(v) * qp
    num.flags.writeable = den.flags.writeable = False
    pole = any(_pole_index(v, ctx.q) is not None for v in dens)
    return num, den, pole


def _axis_ratios(axis, ctx: QContext) -> list[np.ndarray]:
    """Term ratios x * prod(1 - n q^k) / prod(1 - d q^k) of one axis for
    k = 0..series_cap-1, an array per point, or ResonanceError if any
    denominator vanishes. The axis is (nums, dens, xs), one argument x per
    point; the products come from ctx's memo, and only x depends on the
    point."""
    nums, dens, xs = axis
    num, den, pole = ctx._memoised(
        ("axis", _bits(nums), _bits(dens)), lambda: _axis_products(nums, dens, ctx)
    )
    if pole:
        raise ResonanceError(
            "axis weight recurrence hit a vanishing denominator "
            "(a lower parameter degenerated onto the q-power lattice)"
        )
    return [complex(x) * num / den for x in xs]


def _screen(nums, dens, plus: bool, minus: bool, q: complex) -> int | None:
    """Index of the first vanishing coupling denominator, by lattice_hit,
    at indices n >= 0 (factors 1 - v q^n of dens) on a plus side and then
    n <= -1 (factors 1 - u q^-n of nums) on a minus side, or None. Neither
    side stops at series_cap: the series runs past it. The table, built to
    any number of shells, checks nothing."""
    up = [n for v in dens if (n := _pole_index(v, q)) is not None] if plus else []
    if up:
        return min(up)
    if not minus:
        return None
    down = [-k for u in nums if (k := lattice_hit(u, q, kmin=1, kmax=math.inf)) is not None]
    return max(down, default=None)


def _axis_table(ratios: np.ndarray, cap: int) -> np.ndarray:
    """Weight table w[0..cap] with w[0] = 1 and w[k+1] = w[k] * ratios[k]."""
    w = np.empty(cap + 1, dtype=complex)
    w[0] = 1.0
    np.multiply.accumulate(ratios[:cap], out=w[1:])
    return w


_ONE = np.ones(1, dtype=complex)
_ONE.flags.writeable = False


def _coupling_table(nums, dens, up: int, down: int, ctx: QContext, stage=None) -> np.ndarray:
    """Coupling table g[n] for n in [-down, up] (stored with offset `down`),
    g(0) = 1 and g(n) = prod_j (nums_j)_n / (dens_j)_n; nums and dens have
    equal length. The table is read-only.

    stage is (table, up', down') for a table of the same coupling with
    up' <= up and down' <= down, or None for the one entry g(0): a fresh
    build is a staged one. Its entries are copied and only the rest are
    computed, so an extended table has the bits of a fresh one. Each side
    runs from its last known entry, a numpy scalar, and its new entries are
    written in one slice."""
    q = ctx.q
    g = np.empty(up + down + 1, dtype=complex)
    table, up0, down0 = stage or (_ONE, 0, 0)
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


class _Sum:
    """Running sum of one series, settled once three terms in a row fall
    below tail_tol relative to the largest partial sum so far. It keeps the
    count and the largest relative size of the current run of small terms,
    and value, the SeriesValue once the sum has settled."""

    __slots__ = ("total", "mag", "n", "small", "worst", "rel", "value")

    def __init__(self) -> None:
        self.total = 0j
        self.mag = 1e-300
        self.n = self.small = 0
        self.worst = self.rel = 0.0
        self.value = None

    def add(self, terms, tol: float) -> SeriesValue | None:
        """Add terms in order; value once the sum settles (the terms after
        that one are not read), else None."""
        total, mag, n, small, worst, rel = (
            self.total, self.mag, self.n, self.small, self.worst, self.rel
        )
        for term in terms:
            n += 1
            total += term
            size = abs(total)
            if size > mag:
                mag = size
            rel = abs(term) / mag
            if rel < tol:
                small += 1
                if rel > worst:
                    worst = rel
                if small == 3:
                    self.value = SeriesValue(total, n, worst)
                    return self.value
            else:
                small = 0
                worst = 0.0
        self.total, self.mag, self.n, self.small, self.worst, self.rel = (
            total, mag, n, small, worst, rel
        )
        return None


# Shells per product table on two sides. The first block holds the shells
# most series need (about 20 at the median in the run suites).
_BLOCK = 24


@functools.cache
def _gather(first: int, last: int, down: int):
    """Gather indices of shells first..last on two sides, for a minus table
    with top index down and a coupling table with offset down: shell s
    pairs plus degree j with minus degree s - j and coupling entry
    down - s + 2 j, j = 0..s, each shell's entries contiguous; with the
    (start, end) of each shell's entries."""
    sizes = np.arange(first + 1, last + 2)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    s = np.repeat(np.arange(first, last + 1), sizes)
    j = np.arange(len(s)) - np.repeat(starts, sizes)
    index = j, s - j, down - s + 2 * j
    for arr in index:
        arr.flags.writeable = False
    return *index, tuple(zip(starts.tolist(), ends.tolist()))


def _block_table(cp: np.ndarray, cm: np.ndarray, g: np.ndarray, first: int, last: int):
    """(table, bounds): the products of shells first..last on two sides, one
    C-contiguous row per row of the plus and minus tables cp and cm, and
    each shell's (start, end) in a row. g is the coupling table of every
    row, or one row of coupling table per row. Shell s's entries are, bit
    for bit, cp[:s+1] * cm[s::-1] * g[down-s : down+s+1 : 2] of each row,
    down the top index of cm."""
    j, k, n, bounds = _gather(first, last, cm.shape[1] - 1)
    return cp.take(j, 1) * cm.take(k, 1) * g.take(n, -1), bounds


def _shells(rows, couplings, runs, ctx: QContext) -> None:
    """Add shells 0..ctx.series_cap of each row to its running sum, runs[r]
    of row r; a row whose sum never settled keeps runs[r].value None. Row r
    is rows[r] = (plus, minus, s, ...): the term ratios of each of its plus
    and minus axes at its point, and the index s of its series' coupling
    couplings[s] = (g_nums, g_dens, gkey), gkey the exact bits of the nums
    and dens. All rows have the same sides, each with at least one axis.

    A row is dropped once its sum has settled, and the tables built after
    that leave it out. The tables are built to the stops of
    _stages(ctx.series_cap) in turn, for the rows left then, each series'
    coupling table read from ctx's memo once per rung and extended from its
    last one, and a rung is built only while a row is left. A one-sided
    series has one term per shell, so all the shells of a rung are one
    elementwise product per row. On two sides shell s pairs plus degree j
    with minus degree s - j, j = 0..s, with every second coupling entry:
    the products of a block of _BLOCK shells, for every row with the
    coupling table of its series, are gathered into one table by indices
    kept per (first shell, last shell, down), and each shell is one
    reduction of its contiguous entries over all the table's rows. All the
    shells of a block are reduced before any sum reads them."""

    def combined(axes, stop):
        if not axes:
            return _ONE
        c = _axis_table(axes[0], stop)
        for ratios in axes[1:]:
            c = np.convolve(c, _axis_table(ratios, stop))[: stop + 1]
        return c

    def unsettled(batch, sums):
        """Positions in batch of the rows whose sums have not settled once
        each has added its shell sums."""
        return [i for i, (r, terms) in enumerate(zip(batch, sums))
                if runs[r].add(terms, ctx.tail_tol) is None]

    live = list(range(len(rows)))
    start = 0
    stages: dict = {}
    for stop in _stages(ctx.series_cap):
        cp = [combined(rows[r][0], stop) for r in live]
        cm = [combined(rows[r][1], stop) for r in live]
        up = len(cp[0]) - 1
        down = len(cm[0]) - 1
        for s in dict.fromkeys(rows[r][2] for r in live):
            g_nums, g_dens, gkey = couplings[s]
            g = ctx._memoised(
                ("coupling", *gkey, up, down),
                lambda: _coupling_table(g_nums, g_dens, up, down, ctx, stages.get(s)),
            )
            stages[s] = g, up, down
        gs = [stages[rows[r][2]][0] for r in live]
        if not (up and down):
            keep = unsettled(live, [(c * m * (gr if up else gr[::-1]))[start:].tolist()
                                    for c, m, gr in zip(cp, cm, gs)])
        else:
            cp, cm, gs = np.array(cp), np.array(cm), np.array(gs)
            keep = range(len(live))
            for first in range(start, stop + 1, _BLOCK):
                if not keep:
                    break
                if len(keep) < len(live):
                    cp, cm, gs = cp[keep], cm[keep], gs[keep]
                    live = [live[i] for i in keep]
                table, bounds = _block_table(cp, cm, gs, first, min(first + _BLOCK - 1, stop))
                # reduce(x, 1), not axis=-1: the keyword costs 1.2 us a call
                keep = unsettled(live, zip(*[np.add.reduce(table[:, a:b], 1).tolist()
                                             for a, b in bounds]))
        live = [live[i] for i in keep]
        if not live:
            break
        start = stop + 1


def _screened(plus_axes, minus_axes, g_nums, g_dens, ctx: QContext):
    """(plus ratios, minus ratios, coupling) of one series once every one of
    its denominators passes the screen, plus axes, then minus axes, then
    the coupling; a pole raises ResonanceError. The coupling is (g_nums,
    g_dens, gkey), gkey their exact bits."""
    plus = [_axis_ratios(axis, ctx) for axis in plus_axes]
    minus = [_axis_ratios(axis, ctx) for axis in minus_axes]
    pole = _screen(g_nums, g_dens, bool(plus), bool(minus), ctx.q)
    if pole is not None:
        raise ResonanceError(
            f"coupling denominator vanished at index {pole} "
            "(parameter ratio on the q-power lattice)"
        )
    return plus, minus, (g_nums, g_dens, (_bits(g_nums), _bits(g_dens)))


def _point_rows(cells, ctx: QContext) -> list:
    """Several series, each at its own points, summed in one pass. A cell
    (axes, points) is one series: axes(point) gives its axes (nums, dens, x)
    and coupling at that point, or raises; the nums and dens are the same at
    every point. Per cell, per point: the point's SeriesValue, with the bits
    of that series at that point alone, or the exception raised there: by
    axes, the ResonanceError of a pole of the series (see _screened), or the
    ConvergenceError of a sum that has not settled by shell series_cap.

    Every point of every cell is built before any series is screened, so
    each place first holds the point's axes or its error. A row is one point
    that built, with its cell's value list and its index there, where it
    writes its sum. The rows are summed by side pattern, plus only, minus
    only and two-sided, in one _shells pass each."""
    # building and screening cell by cell instead cost about 4% more here
    # (solution rows at (2,3), 2-core x86-64, CPython 3.11)
    out = []
    for axes, points in cells:
        values = []
        for pt in points:
            try:
                values.append(axes(pt))
            except Exception as exc:  # noqa: BLE001  returned in the point's place
                values.append(exc)
        out.append(values)
    groups: dict = {}  # sides -> (rows, couplings)
    for values in out:
        at = [i for i, v in enumerate(values) if not isinstance(v, Exception)]
        if not at:
            continue
        built = [values[i] for i in at]
        *sides, g_nums, g_dens = built[0]
        batched = [[(nums, dens, [b[side][k][2] for b in built])
                    for k, (nums, dens, _) in enumerate(sides[side])] for side in (0, 1)]
        try:
            plus, minus, coupling = _screened(*batched, g_nums, g_dens, ctx)
        except ResonanceError as exc:
            for i in at:
                values[i] = exc
            continue
        rows, couplings = groups.setdefault((bool(plus), bool(minus)), ([], []))
        couplings.append(coupling)
        rows += [([r[j] for r in plus], [r[j] for r in minus], len(couplings) - 1, values, i)
                 for j, i in enumerate(at)]
    for rows, couplings in groups.values():
        runs = [_Sum() for _ in rows]
        _shells(rows, couplings, runs, ctx)
        for (*_, values, i), run in zip(rows, runs):
            values[i] = run.value or ConvergenceError(
                f"series did not settle within {ctx.series_cap} shells "
                f"(last relative shell size {run.rel:.3e})"
            )
    return out


def _raised(values) -> list:
    """values once none is an exception; else the first one raises."""
    for value in values:
        if isinstance(value, Exception):
            raise value
    return values


def _shell_series(plus_axes, minus_axes, g_nums, g_dens, ctx: QContext) -> SeriesValue:
    """Sum over shells of the series with these axes (nums, dens, x) and
    coupling: the one-cell, one-point case of _point_rows, raising its
    error."""
    (values,) = _point_rows([(lambda _: (plus_axes, minus_axes, g_nums, g_dens), [None])], ctx)
    return _raised(values)[0]


def _plain_axis(b: complex, x: complex, q: complex):
    return ((b,), (q,), x)


# ---------------------------------------------------------------------------
# series evaluators


def eval_FNM(p: ParamSet, t, ctx: QContext):
    """Principal multi-series: coupling (a_1..a_N | c_1..c_N) over the total
    degree, one plain axis (b_i; t_i) per lower slot. Requires |t_i| < 1.

    This is the split series at L = M: every axis expands in t_i and the
    coupling quotient B is the empty product 1.

    t may also be a sequence of points (ndim 2): a tuple of SeriesValues,
    one per point, from one pass of the series engine, with the bits of one
    call per point. The first point whose evaluation fails raises its
    error."""
    if np.ndim(t) != 2:
        return eval_FNM_L(p, p.M, t, ctx)
    _check_base(p, ctx)
    (values,) = _point_rows([(functools.partial(_split_axes, p, p.M), t)], ctx)
    return tuple(_raised(values))


def eval_nphi(upper, lower, t: complex, ctx: QContext) -> SeriesValue:
    """One-variable basic hypergeometric sum with len(upper) = len(lower) + 1.

    Term recurrence: T_{m+1}/T_m = t prod(1 - u q^m) /
    [(1 - q^{m+1}) prod(1 - l q^m)]. Requires |t| < 1.
    """
    upper, lower, t = _nphi_args(upper, lower, t)
    q = ctx.q
    for j, lv in enumerate(lower, start=1):
        m = _pole_index(lv, q)
        if m is not None:
            raise ResonanceError(f"lower parameter {j} sits at q^{-m}")

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
            term *= num / den
            qm *= q

    value = _Sum().add(terms(), ctx.tail_tol)
    if value is None:
        raise ConvergenceError(f"single-variable sum did not settle within {ctx.series_cap} terms")
    return value


def _domain_check(conditions) -> None:
    """DomainError naming every condition of _sector whose ratio is not
    below 1; a label is formatted only for such a condition."""
    bad = [label.format(i) for r, label, i in conditions if not r < 1.0]
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
    """(ratio, label, i) for every convergence condition of one component
    of the level-L family on reordered slots b, t: component 0 when l = 0,
    any (k, l) component otherwise; label.format(i) names the condition.
    The family's sector is where all of its components converge."""
    q, big = p.q, _coupling(p)
    if l == 0:
        for i in range(L):
            yield abs(t[i]), "|t_{}| >= 1", i + 1
        for i in range(L, len(t)):
            yield _abs_ratio(big, b[i] * t[i]), "tail ratio at i = {} >= 1", i + 1
        return
    bl_tl = b[l - 1] * t[l - 1]
    if l <= L:
        yield abs(t[l - 1]), "|t_{}| >= 1", l
    else:
        yield _abs_ratio(big, bl_tl), "distinguished ratio >= 1", l
    for i in range(l - 1):
        yield _abs_ratio(q * t[i], bl_tl), "ratio at i = {} >= 1", i + 1
    for i in range(l, len(t)):
        yield _abs_ratio(q * t[l - 1], b[i] * t[i]), "ratio at i = {} >= 1", i + 1


def eval_FNM_L(p: ParamSet, L: int, t, ctx: QContext) -> SeriesValue:
    """Split series: axes 1..L expand in t_i, axes L+1..M in q/(b_i t_i), the
    coupling runs over the signed split sum with parameter quotient
    (a_j / B | c_j / B), B = prod_{i>L} b_i."""
    _check_base(p, ctx)
    L = _require_range("L", L, 0, p.M)
    return _shell_series(*_split_axes(p, L, t), ctx)


def _split_axes(p: ParamSet, L: int, t):
    """(plus axes, minus axes, coupling nums, coupling dens) of eval_FNM_L
    at t, once t passes its sector check."""
    M = p.M
    t = _coords(t, M)
    _domain_check(_sector(p, p.b, L, 0, t))
    q = p.q
    plus = [_plain_axis(p.b[i], t[i], q) for i in range(L)]
    minus = [_plain_axis(p.b[i], q / (p.b[i] * t[i]), q) for i in range(L, M)]
    B = math.prod(p.b[L:], start=1.0 + 0j)
    g_nums = tuple(aj / B for aj in p.a)
    g_dens = tuple(cj / B for cj in p.c)
    return plus, minus, g_nums, g_dens


def _slot_axes(p: ParamSet, L: int, l: int, t, k: int):
    """Axes and coupling of the split series attached to lower slot l and
    slot k, at t once it passes its sector check: eval_FNM_Lkl when l > L,
    eval_GNM_Lkl when l <= L. Slots before l are plus axes in
    q t_i/(b_l t_l), slots after l minus axes in b_l t_l/(b_i t_i); the
    distinguished axis goes right after slot L, on the plus side when
    l > L."""
    t = _coords(t, p.M)
    _domain_check(_sector(p, p.b, L, l, t))
    q = p.q
    bl_tl = p.b[l - 1] * t[l - 1]
    tail = math.prod(p.b[l:], start=1.0 + 0j)
    plus = [_plain_axis(p.b[i], q * t[i] / bl_tl, q) for i in range(l - 1)]
    minus = [_plain_axis(p.b[i], bl_tl / (p.b[i] * t[i]), q) for i in range(l, p.M)]
    if l > L:
        a_k = p.a[k - 1]
        nums = tuple(q * a_k / cj for cj in p.c)
        dens = tuple(q * a_k / aj for aj in p.a)
        plus.insert(L, (nums, dens, _coupling(p) / bl_tl))
        return plus, minus, (a_k / tail,), (q * a_k / (p.b[l - 1] * tail),)
    c_k = p.c[k - 1]
    nums = tuple(q * aj / c_k for aj in p.a)
    dens = tuple(q * cj / c_k for cj in p.c)
    minus.insert(L - l, (nums, dens, bl_tl / q))
    return plus, minus, (c_k / (q * tail),), (c_k / (p.b[l - 1] * tail),)


def eval_FNM_Lkl(p: ParamSet, L: int, k: int, l: int, t, ctx: QContext) -> SeriesValue:
    """Split series attached to upper slot k and lower slot l (L+1 <= l <= M).

    Axes 1..L and the relabeled axes up to l expand in q t_i/(b_l t_l); one
    distinguished axis carries the ({q a_k/c_j} | {q a_k/a_j}) weights with
    argument C q/(b_l t_l), C = prod_j c_j/a_j; axes l+1..M expand in
    b_l t_l/(b_i t_i).
    """
    _check_base(p, ctx)
    L = _require_range("L", L, 0, p.M)
    l = _require_range("l", l, L + 1, p.M)
    k = _require_range("k", k, 1, p.N)
    return _shell_series(*_slot_axes(p, L, l, t, k), ctx)


def eval_GNM_Lkl(p: ParamSet, L: int, k: int, l: int, t, ctx: QContext) -> SeriesValue:
    """Split series attached to lower-coupling slot k and lower slot l
    (1 <= l <= L).

    Axes 1..l-1 expand in q t_i/(b_l t_l); the relabeled axes between l and L
    and all axes beyond L expand in b_l t_l/(b_i t_i) with one distinguished
    axis carrying ({q a_j/c_k} | {q c_j/c_k}) at argument b_l t_l/q.
    """
    _check_base(p, ctx)
    L = _require_range("L", L, 0, p.M)
    l = _require_range("l", l, 1, L)
    k = _require_range("k", k, 1, p.N)
    return _shell_series(*_slot_axes(p, L, l, t, k), ctx)


# ---------------------------------------------------------------------------
# component bookkeeping


def component_order(N: int, M: int) -> list:
    """Vector component labels: 0, then (k, l) for k = 1..N, l = 1..M."""
    N, M = _require_range("N", N, 1, math.inf), _require_range("M", M, 1, math.inf)
    return [0] + [(k, l) for k in range(1, N + 1) for l in range(1, M + 1)]


def component_index(comp, M: int) -> int:
    """Flat position of a label 0 or (k, l), k >= 1, 1 <= l <= M, in the vector."""
    M = _require_range("M", M, 1, math.inf)
    comp = _require_label("comp", comp, math.inf, M)
    return 0 if comp == 0 else (comp[0] - 1) * M + comp[1]


# ---------------------------------------------------------------------------
# local solutions


def _family(p: ParamSet, L: int, sigma, ctx: QContext):
    """Setup shared by every component of the (L, sigma) family that one
    call evaluates: the reordered parameters and the leading exponents."""
    _check_base(p, ctx)
    L = _require_range("L", L, 0, p.M)
    pp = p.permuted(sigma)
    return pp, char_exponents(pp, L)


def _start(L: int, comp) -> int:
    """First coordinate of component comp that carries a power prefactor."""
    return (L + 1) if comp == 0 else comp[1]


def _axes(pp: ParamSet, L: int, comp, tt):
    """Axes and coupling of component comp's split series at the reordered
    point tt, once tt passes its sector check (after its BranchWarning)."""
    _warn_branch(tt, _start(L, comp))
    if comp == 0:
        return _split_axes(pp, L, tt)
    k, l = comp
    return _slot_axes(pp, L, l, tt, k)


def _warn_branch(tt, start: int) -> None:
    """BranchWarning when a coordinate start.. carrying a power prefactor
    lies outside the sector |Arg| < pi/4, reported at the first caller
    outside this module: the caller of the public entry point."""
    risky = [
        i
        for i in range(start, len(tt) + 1)
        if tt[i - 1] != 0 and abs(cmath.phase(tt[i - 1])) >= _SECTOR
    ]
    if risky:
        level, frame = 2, sys._getframe(1)
        while frame.f_globals.get("__name__") == __name__:
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"coordinates {risky} lie outside the branch-safe sector; "
            "principal powers may break shift identities",
            BranchWarning,
            stacklevel=level,
        )


def _prefactor(tt, delta, start: int) -> complex:
    """prod_{i >= start} tt_i ** delta_i, principal powers."""
    pref = 1.0 + 0j
    for i in range(start, len(tt) + 1):
        pref *= cpow(tt[i - 1], delta[i - 1])
    return pref


def _solution_rows(pp: ParamSet, L: int, cells, ctx: QContext) -> list:
    """Components of a family set up by _family, all in one pass of
    _point_rows. A cell (comp, delta, points) is a component, its leading
    exponents and reordered points: one series at those points. Per cell,
    per point: the component's value, with the bits of that component
    evaluated at that point alone, or the exception its evaluation raised
    there."""
    rows = _point_rows([(functools.partial(_axes, pp, L, comp), points)
                        for comp, _, points in cells], ctx)
    for (comp, delta, points), values in zip(cells, rows):
        for i, (tt, value) in enumerate(zip(points, values)):
            if isinstance(value, SeriesValue):
                try:
                    values[i] = _prefactor(tt, delta, _start(L, comp)) * value.value
                except Exception as exc:  # noqa: BLE001  returned in the point's place
                    values[i] = exc
    return rows


def local_solution(p: ParamSet, L: int, sigma, which, t, ctx: QContext):
    """Single component of the local solution vector at split level L and
    slot ordering sigma.

    The b/t slots are reordered by sigma first; prefactors are principal
    powers of the reordered coordinates with the component's leading
    exponents (char_exponents), the series factor is the matching split
    series. Emits BranchWarning when a coordinate carrying a power
    prefactor lies outside the sector |Arg| < pi/4 (power laws for the
    composite shifts are then no longer guaranteed).

    t may also be a sequence of points (ndim 2): the component at each, a
    tuple. which may also be a list of component labels (0 or (k, l) pairs,
    every one checked first; a list of exactly two ints is one (k, l)
    label): a tuple with one entry per label, each what a call for that
    label alone returns. Every label at every point comes from one family
    setup and one pass of the series engine, with the bits of one call per
    label and point. The first (label, point) whose evaluation fails, label
    by label, raises its error.
    """
    sigma = _validate_perm(sigma, p.M)
    pp, exps = _family(p, L, sigma, ctx)
    labels = isinstance(which, list) and not (
        len(which) == 2 and all(isinstance(w, (int, np.integer)) for w in which)
    )
    comps = [_require_label("which", w, p.N, p.M) for w in (which if labels else [which])]
    ladder = np.ndim(t) == 2
    points = [_reorder(pt, sigma) for pt in (t if ladder else [t])]
    cells = _solution_rows(pp, L, [(c, exps[component_index(c, p.M)], points) for c in comps], ctx)
    _raised([value for values in cells for value in values])
    out = [tuple(values) if ladder else values[0] for values in cells]
    return tuple(out) if labels else out[0]


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
    row-major order) from one family setup, each one series of one pass of
    the series engine. Component failures are aggregated into one error
    that names the offending components."""
    sigma = _validate_perm(sigma, p.M)
    pp, exps = _family(p, L, sigma, ctx)
    t = _coords(t, p.M)
    tt = _permute(t, sigma)
    order = component_order(p.N, p.M)
    comps = [v for (v,) in _solution_rows(pp, L, [(c, d, [tt]) for c, d in zip(order, exps)], ctx)]
    failures = [(lab, v) for lab, v in zip(order, comps) if isinstance(v, Exception)]
    if failures:
        first = failures[0][1]
        detail = "; ".join(f"component {lab}: {exc}" for lab, exc in failures)
        raise type(first)(f"{len(failures)} component(s) failed: {detail}") from first
    return SolutionVector(
        L=L,
        sigma=sigma,
        t=t,
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
    L = _require_range("L", L, 0, p.M)
    tt = _coords(t, p.M)
    sigma = _validate_perm(sigma, p.M)
    return _margin(p, L, sigma, _permute(p.b, sigma), tt)


def _margin(p: ParamSet, L: int, sigma, bb, t) -> float:
    """in_domain at a level in range and a checked sigma, with bb the
    b-values reordered by sigma and t a tuple of complex coordinates: what
    a caller that tests many points against one family sets up once."""
    tt = _permute(t, sigma)
    return min(1.0 - r for l in range(len(tt) + 1) for r, _, _ in _sector(p, bb, L, l, tt))


def char_exponents(p: ParamSet, L: int) -> tuple[tuple[complex, ...], ...]:
    """Leading exponent vector (delta) of every component of the level-L
    family at the identity slot ordering, in component_order(N, M) order."""
    L = _require_range("L", L, 0, p.M)
    return _char_exponents(p.alpha, p.beta, p.gamma, L)


def _char_exponents(alpha, beta, gamma, L: int) -> tuple[tuple[complex, ...], ...]:
    """char_exponents from the exponent sequences alone, for a level L
    already checked. sampling._block_exponents computes the same vectors
    for a whole block of draws."""
    M = len(beta)
    out = []
    for comp in component_order(len(alpha), M):
        if comp == 0:
            l, head = L, [0.0 + 0j] * L
        else:
            k, l = comp
            tail = sum(beta[l:])
            lead = 1.0 + tail - gamma[k - 1] if l <= L else -alpha[k - 1] + tail
            head = [0.0 + 0j] * (l - 1) + [lead]
        out.append(tuple(head + [-bv for bv in beta[l:]]))
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
