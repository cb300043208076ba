"""Rejection samplers for generic parameters and evaluation points.

All draw policy lives here, in neither the numerical library nor the run
driver: evaluators take explicit values and raise on bad input, these
helpers produce inputs that pass those checks with margin, and the driver
only says which sampler each check draws from. Exponents are drawn from a
fixed box far from degenerations, parameter sets are screened against
q-power lattice hits for every ratio the solution theory divides by, and
points are built as geometric ladders that keep every series in its region
even after the operator shifts a residual check applies.

One walker, _walk, makes every parameter draw, for sample_params and for
the Casorati search alike. It makes exactly the decisions of a per-draw
loop, so its result and the generator state it leaves are that loop's:
- one rng.random call gives a block's doubles, scaled to the box as
  rng.uniform scales them, _BLOCK rows at a time;
- a numpy screen decides most rows: _near_lattice flags every draw that
  ParamSet or strong_nonresonant could reject (lattice_hit's window taken
  twice as wide, which rounding cannot escape), and the coupling cap and
  |b| floor are estimated from the exponents with a relative band _BAND
  around each bound, 10^5 times any rounding seen; a flagged row, or one
  inside a band, gets the exact per-draw rule, and only it and the winner
  become a ParamSet;
- a walk that stops inside a block rewinds the generator to the block's
  start and draws again only the rows it used.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import ResonanceError, SamplingError
from .qkernel import (
    LATTICE_RTOL,
    ParamSet,
    QContext,
    _compose,
    _permute,
    _require_base,
    _require_range,
    _validate_perm,
    lattice_hit,
    perm_inverse,
    perm_transposition,
    theta,
)
from .hyperseries import _margin, _resonance_ratios, component_order
from .oracle import _shift_points, _upper_ratio_hit

__all__ = [
    "EXPONENT_RE",
    "EXPONENT_IM",
    "draw_exponent",
    "strong_nonresonant",
    "sample_params",
    "sample_interior_point",
    "sample_domain_point",
    "sample_level_overlap",
    "sample_swap_overlap",
    "sample_family_overlap",
    "sample_watson",
    "sample_spectral",
    "SamplingError",
]

EXPONENT_RE = (0.1, 0.9)
EXPONENT_IM = (-0.2, 0.2)
_PHASE = 0.6
_THETA_CLEAR = 1e-6
_INTERIOR = (0.2, 0.55)  # modulus range of sample_interior_point
_PARAM_TRIES = 400  # draws per sample_params call
_BLOCK = 12  # draws per block of a parameter walk
_BAND = 1e-9  # relative band around a bound inside which the exact rule decides
# draws per point sampler, and the in_domain margin each accepted point keeps
_TRIES = 100
_FAMILY_TRIES = 500
_WATSON_TRIES = 200
_LADDER_MARGIN = 0.02
_OVERLAP_MARGIN = 0.03


def _draw_block(rng: np.random.Generator, n: int, rows: int = 1) -> np.ndarray:
    """rows x n exponents from the box as a complex array, read as (re, im)
    pairs of low + span * rng.random(2 n rows) over the interleaved bounds:
    the doubles, and the generator state after them, are those of one
    rng.uniform call over the same bounds (its low + (high - low) * draw),
    without its per-call checks of array bounds."""
    low, span = _box(n * rows)
    v = low + span * rng.random(2 * n * rows)
    return v.view(complex).reshape(rows, n)


@functools.cache
def _box(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (low, high - low) of size interleaved (re, im) box bounds."""
    (re_lo, re_hi), (im_lo, im_hi) = EXPONENT_RE, EXPONENT_IM
    low = np.array((re_lo, im_lo) * size)
    span = np.array((re_hi, im_hi) * size) - low
    low.flags.writeable = span.flags.writeable = False
    return low, span


def _draw_exponents(rng: np.random.Generator, n: int) -> list[complex]:
    return _draw_block(rng, n)[0].tolist()


def draw_exponent(rng: np.random.Generator) -> complex:
    return _draw_exponents(rng, 1)[0]


def _subset_products(b):
    """(mask, product of the b_i whose bit is set in mask)."""
    for mask in range(1 << len(b)):
        prod = 1.0 + 0j
        for i in range(len(b)):
            if mask & (1 << i):
                prod *= b[i]
        yield mask, prod


@functools.cache
def _ratio_exponents(N: int, M: int) -> np.ndarray:
    """Row r: the exponent of the r-th ratio of _resonance_ratios(p,
    _subset_products(p.b)) as integer weights on the exponents (alpha, beta,
    gamma); the ratio is q to that combination."""
    eye = np.eye(2 * N + M)
    a, b, c = eye[:N], eye[N : N + M], eye[N + M :]
    rows = []
    for j in range(N):
        for k in range(N):
            if j != k:
                rows += [a[j] - a[k], c[j] - c[k]]
    for mask in range(1 << M):
        bsum = sum((b[i] for i in range(M) if mask & (1 << i)), np.zeros(2 * N + M))
        for j in range(N):
            rows += [a[j] - bsum, c[j] - bsum]
    out = np.array(rows)
    out.flags.writeable = False
    return out


def _near_lattice(q: complex, exps: np.ndarray, N: int) -> np.ndarray:
    """(draws, ratios) mask over the ratios strong_nonresonant screens, one
    row per row of exps (alpha, beta, gamma): True where the ratio may sit
    on the q-power lattice.

    A ratio q^e has ln|q^e| / ln|q| = Re e - Im e arg(q) / ln|q|, linear in
    the exponents, so one matrix product gives every centre. A ratio is kept
    when lattice_hit's window around its centre, taken twice as wide, holds
    an integer. Rounding, here and in the scalar ratio lattice_hit reads,
    moves a centre by a few units in the last place, far less than the
    added half window 2 LATTICE_RTOL / |ln|q||, so every ratio that
    lattice_hit could match is kept: the mask is a superset, and lattice_hit
    alone decides. The c_j that ParamSet screens are the ratios over the
    empty subset."""
    logq = cmath.log(q)
    centre = (exps.real - exps.imag * (logq.imag / logq.real)) @ _ratio_exponents(
        N, exps.shape[1] - 2 * N
    ).T
    width = 4 * LATTICE_RTOL / abs(logq.real)
    return np.floor(centre + width) >= np.ceil(centre - width)


def strong_nonresonant(p: ParamSet) -> bool:
    """check_resonance for every slot ordering at once: the ratios are
    taken against the product of b over every subset of slots (suffix
    products of any ordering are subsets).

    It is the one-row case of the parameter walk's screen: _near_lattice
    keeps every ratio that could sit on the lattice, and lattice_hit alone
    decides each one kept."""
    near = np.flatnonzero(_near_lattice(p.q, np.array([p.alpha + p.beta + p.gamma]), p.N)[0])
    if not near.size:
        return True
    values = [value for _, value in _resonance_ratios(p, _subset_products(p.b))]
    return all(lattice_hit(values[i], p.q) is None for i in near)


def sample_params(
    N: int,
    M: int,
    q: complex,
    rng: np.random.Generator,
    coupling_cap: float | None = None,
    min_b: float | None = None,
) -> ParamSet:
    """Generic parameter set from the exponent box, screened so no ratio
    used by the local bases or connection entries sits on the q-power
    lattice.

    coupling_cap and min_b restrict to sets whose sector boundaries leave
    room for overlap points with fast-converging series: the coupling
    constant q prod c/a below the cap and every |b| above the floor. Used
    by the suites that evaluate two solution families at one point. The
    draws come from _walk, with the result and generator state of a
    per-draw loop."""
    e = _walk(N, M, q, rng, lambda block, keep: keep[0], coupling_cap, min_b)
    return _paramset(e, N, M, q)


def _generic_sample(N: int, M: int, q: complex, rng: np.random.Generator):
    """(params, point) of the suites that check one identity at an interior point."""
    return sample_params(N, M, q, rng), sample_interior_point(M, rng)


def _overlap_params(N: int, M: int, q: complex, rng: np.random.Generator) -> ParamSet:
    """sample_params for the suites that evaluate two solution families at
    one point."""
    return sample_params(N, M, q, rng, coupling_cap=0.16, min_b=0.5)


def _params(e, N: int, M: int, q: complex, coupling_cap=None, min_b=None) -> ParamSet | None:
    """The exact rule: the ParamSet of one draw e = (alpha, beta, gamma),
    or None when sample_params' per-draw checks reject it."""
    try:
        p = _paramset(e, N, M, q)
    except ResonanceError:
        return None
    if coupling_cap is not None and _coupling_floor(p) > coupling_cap:
        return None
    if min_b is not None and min(abs(b) for b in p.b) < min_b:
        return None
    return p if strong_nonresonant(p) else None


def _paramset(e, N: int, M: int, q: complex) -> ParamSet:
    return ParamSet(alpha=e[:N], beta=e[N : N + M], gamma=e[N + M :], q=q)


def _screen(block: np.ndarray, N: int, M: int, q: complex, coupling_cap, min_b):
    """(accept, exact) masks over the rows of a block of draws: exact marks
    the rows _near_lattice flags or whose bound estimate lies within a
    relative _BAND of its bound, and accept is the verdict on the rest. The
    estimates, exp(log|q| + sum_j Re((gamma_j - alpha_j) log q)) for the
    coupling constant and exp(min_i Re(beta_i log q)) for min |b_i|, differ
    from the scalar values by rounding alone, at most 3e-15 relative over
    shapes up to N M = 12 and |q| from 0.05 to 0.95, far inside the band."""
    exact = _near_lattice(q, block, N).any(axis=1)
    accept = np.ones(len(block), dtype=bool)
    logq = cmath.log(q)
    if coupling_cap is not None:
        gap = block[:, N + M :] - block[:, :N]
        floor = np.exp(math.log(abs(q)) + (gap * logq).real.sum(axis=1))
        accept &= floor <= coupling_cap
        exact |= abs(floor - coupling_cap) <= _BAND * abs(coupling_cap)
    if min_b is not None:
        low = np.exp((block[:, N : N + M] * logq).real.min(axis=1))
        accept &= low >= min_b
        exact |= abs(low - min_b) <= _BAND * abs(min_b)
    return accept, exact


def _walk(N: int, M: int, q: complex, rng: np.random.Generator, visit,
          coupling_cap: float | None = None, min_b: float | None = None) -> list:
    """The one parameter-draw loop. visit(block, keep) gets each block of
    draws (rows alpha, beta, gamma) that has rows sample_params' rules
    accept, keep, and returns the row at which the search stops, or None to
    draw on; that row is returned. _PARAM_TRIES rejected draws in a row
    raise. Each block has _BLOCK rows, and a walk that stops or raises
    inside a block rewinds the generator to where a per-draw loop leaves
    it. The sizes and the base are read before the first draw."""
    N, M = _require_range("N", N, 1, math.inf), _require_range("M", M, 1, math.inf)
    _require_base(q)
    cols = 2 * N + M
    misses = 0
    while True:
        start = rng.bit_generator.state
        block = _draw_block(rng, cols, _BLOCK)
        accept, exact = _screen(block, N, M, q, coupling_cap, min_b)
        keep = [i for i in range(_BLOCK) if (
            _params(block[i].tolist(), N, M, q, coupling_cap, min_b) if exact[i] else accept[i])]
        if misses + (keep[0] if keep else _BLOCK) >= _PARAM_TRIES:
            _rewind(rng, start, cols, _PARAM_TRIES - misses)
            raise SamplingError(f"no nonresonant parameters in {_PARAM_TRIES} draws")
        stop = visit(block, keep) if keep else None
        if stop is not None:
            _rewind(rng, start, cols, stop + 1)
            return block[stop].tolist()
        misses = _BLOCK - 1 - keep[-1] if keep else misses + _BLOCK


def _rewind(rng: np.random.Generator, state, cols: int, used: int) -> None:
    """Leave rng as if only the first `used` of the _BLOCK rows of the block
    drawn from state had been drawn."""
    if used < _BLOCK:
        rng.bit_generator.state = state
        _draw_block(rng, cols, used)


def _node_proxies(exps, cands, q: complex) -> list[list[float]]:
    """proxies[d][c]: the separation of the per-component shift multipliers
    q^{m . delta}, m = cands[c], over the char_exponents exps[d] of draw d:
    the product of |x_i - x_j| over node pairs i < j, divided by
    max(1, |x_i|)^(n-1) per node. The scaled determinant tracks this
    Vandermonde-type product within a small factor, so it predicts
    conditioning without evaluating any series.

    Each value has the bits of the scalar formula: m . delta is summed slot
    by slot from real products, as Python's sum of complex products is, and
    times log q by the four real operations of a Python complex product;
    each node is cmath.exp of that (QContext.qpow's arithmetic); np.hypot is
    Python's complex abs; and the distances are multiplied in pair order by
    math.prod."""
    delta = np.asarray(exps)[:, None]  # draw, -, component, slot
    m = np.array(cands, dtype=float)[:, None]  # candidate, -, slot
    zr = zi = 0.0
    for slot in range(m.shape[-1]):
        zr = zr + m[..., slot] * delta.real[..., slot]
        zi = zi + m[..., slot] * delta.imag[..., slot]
    logq = cmath.log(q)
    w = np.empty(zr.shape, dtype=complex)
    w.real = zr * logq.real - zi * logq.imag
    w.imag = zr * logq.imag + zi * logq.real
    nodes = np.fromiter(map(cmath.exp, w.ravel().tolist()), complex, w.size)
    nodes = nodes.reshape(-1, w.shape[-1])  # (draw, candidate), component
    n = nodes.shape[-1]
    i, j = np.triu_indices(n, 1)
    diff = nodes[:, i] - nodes[:, j]
    proxies = list(map(math.prod, np.hypot(diff.real, diff.imag).tolist()))
    sizes = np.hypot(nodes.real, nodes.imag)
    for r in np.flatnonzero((sizes > 1.0).any(axis=1)).tolist():
        for size in sizes[r].tolist():
            if size > 1.0:
                proxies[r] /= size ** (n - 1)
    c = len(cands)
    return [proxies[d : d + c] for d in range(0, len(proxies), c)]


def _shift_candidates(M: int, n_rows: int, q: complex):
    """Strictly decreasing positive steps (a+M-2, ..., a+1, a) on the small
    slots, one negative step on the large slot. Distinct steps keep the
    components of one level-M-1 exponent apart: with equal steps their shift
    multipliers coincide exactly. Decreasing ones keep the ladder in the
    sector, whose pair bounds hold only while an earlier small slot steps at
    least as far as a later one. The large coordinate grows by
    |q|^{-b (n_rows - 1)} over the ladder; b is capped so prefactor
    magnitudes stay far from overflow."""
    bs = [b for b in (1, 2, 3) if abs(q) ** (-b * (n_rows - 1)) <= 1e5] or [1]
    if M == 1:
        return [(-b,) for b in bs]
    return [tuple(range(a + M - 2, a - 1, -1)) + (-b,) for a in (1, 2, 3) for b in bs]


def _block_exponents(draws: np.ndarray, N: int, M: int, L: int) -> np.ndarray:
    """_char_exponents of every row (alpha, beta, gamma) of draws, as a
    (rows, components, M) array with the same bits: column by column, each
    tail is 0.0 + beta_l + beta_{l+1} + ... in slot order, as Python's sum
    adds, and each lead is 1.0 + tail - gamma_k or -alpha_k + tail."""
    alpha, beta, gamma = draws[:, :N], draws[:, N : N + M], draws[:, N + M :]
    comps = component_order(N, M)
    out = np.zeros((len(draws), len(comps), M), dtype=complex)
    out[:, 0, L:] = -beta[:, L:]
    for r, (k, l) in enumerate(comps[1:], start=1):
        tail = 0j
        for j in range(l, M):
            tail = tail + beta[:, j]
        out[:, r, l - 1] = 1.0 + tail - gamma[:, k - 1] if l <= L else -alpha[:, k - 1] + tail
        out[:, r, l:] = -beta[:, l:]
    return out


def _casorati_params(N: int, M: int, L: int, ctx: QContext, rng: np.random.Generator):
    """(params, shift) of the best-separated of up to 60 generic draws for
    the level-L Casorati matrix, stopping at the first whose proxy reaches
    the floor: the draws of sample_params(N, M, q, rng) in turn, each scored
    by its best shift candidate (the first on a tie), the best replaced only
    by a strictly larger proxy. 400 rejected draws in a row raise
    sample_params' SamplingError.

    The draws come from _walk, a block at a time; the kept rows of a block
    get their exponent vectors from _block_exponents and their proxies from
    _node_proxies, both bit for bit the scalar values, and only the winner
    becomes a ParamSet."""
    L = _require_range("L", L, 0, M)
    q = ctx.q
    n = len(component_order(N, M))
    # per-pair separation 0.34 is comfortably generic; the floor is its
    # product over all node pairs
    proxy_floor = 0.34 ** (n * (n - 1) / 2)
    cands = _shift_candidates(M, n, q)
    best = (-1.0, None, None)
    accepted = 0

    def visit(block, keep):
        nonlocal best, accepted
        for i, row in zip(keep, _node_proxies(_block_exponents(block[keep], N, M, L), cands, q)):
            accepted += 1
            c = max(range(len(cands)), key=row.__getitem__)
            if row[c] > best[0]:
                best = (row[c], block[i].tolist(), cands[c])
            if row[c] >= proxy_floor or accepted == 60:
                return i
        return None

    _walk(N, M, q, rng, visit)
    return _paramset(best[1], N, M, q), best[2]


def _polar(rng: np.random.Generator, modulus: float) -> complex:
    phase = rng.uniform(-_PHASE, _PHASE)
    return modulus * complex(math.cos(phase), math.sin(phase))


def sample_interior_point(M: int, rng: np.random.Generator) -> tuple[complex, ...]:
    """Point with every coordinate well inside the unit disc; shifts by
    positive q-powers only shrink it, so no extra margin is needed."""
    M = _require_range("M", M, 1, math.inf)
    return tuple(_polar(rng, rng.uniform(*_INTERIOR)) for _ in range(M))


def _coupling_floor(p: ParamSet) -> float:
    """Modulus of the two-sided coupling constant q prod_j c_j / a_j."""
    return abs(p.q) * math.prod(
        (abs(c / a) for a, c in zip(p.a, p.c)), start=1.0
    )


def _accept(draw, p: ParamSet, families, tries: int, margin: float,
            failure: str, points=lambda t: (t,)) -> tuple[complex, ...]:
    """The one acceptance rule: the first of `tries` draws t for which every
    point in points(t) lies in every (L, sigma) family's sector with
    in_domain margin at least `margin`. The caller has checked each
    family's level and sigma, and p.b is reordered by each sigma once per
    call."""
    checked = [(L, sigma, _permute(p.b, sigma)) for L, sigma in families]
    for _ in range(tries):
        t = draw()
        if all(
            _margin(p, L, sigma, bb, pt) >= margin
            for pt in points(t)
            for L, sigma, bb in checked
        ):
            return t
    raise SamplingError(failure)


def _place(rng: np.random.Generator, mods, sigma) -> tuple[complex, ...]:
    """Point whose reordered coordinate i has modulus mods[i] (sigma maps
    reordered slots to original coordinates)."""
    return _permute([_polar(rng, m) for m in mods], perm_inverse(sigma))


def _ladder_above(mods, start: int, prev: float, Cq: float, bp, lift: float,
                  rng: np.random.Generator) -> None:
    """Fill mods[start:] upward: each slot clears the coupling floor
    (inflated by lift) and sits a b-dependent ratio above the previous one."""
    for i in range(start, len(mods)):
        floor_i = Cq / abs(bp[i]) * lift / 0.9
        b_ratio = 3.6 / abs(bp[i]) * rng.uniform(1.0, 1.3)
        mods[i] = max(floor_i, prev * b_ratio) * rng.uniform(1.0, 1.15)
        prev = mods[i]


def sample_domain_point(
    p: ParamSet, L: int, sigma, rng: np.random.Generator
) -> tuple[complex, ...]:
    """Geometric ladder inside the convergence sector of the (L, sigma)
    family, placed so the whole shift set of the operator residual checks
    stays inside with margin. Small coordinates descend by a fixed ratio;
    large ones start above the coupling floor inflated by the worst
    uniform shift and spread by a ratio that dominates the pair bounds."""
    M, N = p.M, p.N
    L = _require_range("L", L, 0, M)
    sigma = _validate_perm(sigma, M)
    bp = _permute(p.b, sigma)
    Cq = _coupling_floor(p)
    lift = abs(p.q) ** -(N + 1)

    def draw():
        s_ratio = rng.uniform(0.25, 0.35)
        s_top = rng.uniform(0.25, 0.45)
        mods = [0.0] * M
        for i in range(L - 1, -1, -1):
            mods[i] = s_top * s_ratio ** (L - 1 - i)
        _ladder_above(mods, L, 0.0, Cq, bp, lift, rng)
        return _place(rng, mods, sigma)

    return _accept(
        draw, p, [(L, sigma)], _TRIES, _LADDER_MARGIN,
        f"no ladder point found for level {L}, sigma {sigma}",
        points=lambda t: _shift_points(t, p.q, N, M),
    )


def _annulus_mid(lo: float, hi: float, rng: np.random.Generator) -> float:
    mid = math.sqrt(lo * hi)
    return mid * rng.uniform(0.9, 1.1)


def sample_level_overlap(
    p: ParamSet, L: int, sigma, rng: np.random.Generator
) -> tuple[complex, ...]:
    """Point inside both the (L, sigma) and (L+1, sigma) sectors: the
    coordinate that changes roles sits near the log-midpoint of its
    annulus (balancing the two series' convergence rates), smaller slots
    ladder below it, larger ones ladder above the coupling floor."""
    M = p.M
    L = _require_range("L", L, 0, M - 1)
    sigma = _validate_perm(sigma, M)
    bp = _permute(p.b, sigma)
    Cq = _coupling_floor(p)

    def draw():
        mods = [0.0] * M
        lo = Cq / abs(bp[L])
        mods[L] = min(max(_annulus_mid(lo, 1.0, rng), 1.12 * lo), 0.62)
        s_ratio = rng.uniform(0.25, 0.35)
        for i in range(L - 1, -1, -1):
            mods[i] = mods[i + 1] * s_ratio
        _ladder_above(mods, L + 1, mods[L], Cq, bp, 1.0, rng)
        return _place(rng, mods, sigma)

    return _accept(
        draw, p, [(L, sigma), (L + 1, sigma)], _TRIES, _OVERLAP_MARGIN,
        f"no overlap point for levels {L}/{L + 1}, sigma {sigma}",
    )


def sample_swap_overlap(
    p: ParamSet, r: int, sigma, rng: np.random.Generator
) -> tuple[complex, ...]:
    """Point inside the fully split sectors of both sigma and sigma o s_r:
    all coordinates small, with the swapped pair's ratio near the
    log-midpoint of the annulus both orderings allow."""
    M = p.M
    r = _require_range("r", r, 1, M - 1)
    sigma = _validate_perm(sigma, M)
    swapped = _compose(sigma, perm_transposition(M, r))
    bp = _permute(p.b, sigma)
    aq = abs(p.q)

    def draw():
        mods = [rng.uniform(0.3, 0.5) for _ in range(M)]
        for i in range(1, M):
            mods[i] = min(mods[i], mods[i - 1] * rng.uniform(0.9, 1.1))
        ratio = _annulus_mid(aq / abs(bp[r - 1]), abs(bp[r]) / aq, rng)
        mods[r - 1] = mods[r] * ratio
        if mods[r - 1] >= 0.62:
            scale = 0.62 / mods[r - 1]
            mods = [m * scale for m in mods]
        return _place(rng, mods, sigma)

    return _accept(
        draw, p, [(M, sigma), (M, swapped)], _TRIES, _OVERLAP_MARGIN,
        f"no swap overlap point at position {r}, sigma {sigma}",
    )


def sample_family_overlap(
    p: ParamSet,
    fam1: tuple[int, tuple[int, ...]],
    fam2: tuple[int, tuple[int, ...]],
    rng: np.random.Generator,
) -> tuple[complex, ...]:
    """Point inside the sectors of two arbitrary families, by rejection
    from per-coordinate annuli balanced against the coupling floor. Works
    when both families keep every coordinate near the unit circle's
    inside (all levels close to M). Both levels and both orderings are
    checked before the first draw."""
    families = [(_require_range("L", L, 0, p.M), _validate_perm(s)) for L, s in (fam1, fam2)]
    if any(len(s) != p.M for _, s in families):
        raise ValueError(f"orderings {fam1[1]} and {fam2[1]} must both permute 1..{p.M}")
    Cq = _coupling_floor(p)

    def draw():
        t = []
        for i in range(p.M):
            lo = max(math.sqrt(Cq / abs(p.b[i])), 0.35)
            t.append(_polar(rng, rng.uniform(lo, 0.62) if lo < 0.62 else lo))
        return tuple(t)

    return _accept(
        draw, p, families, _FAMILY_TRIES, _OVERLAP_MARGIN,
        f"no overlap point for families {fam1} and {fam2}",
    )


def sample_watson(
    N: int, q: complex, rng: np.random.Generator
) -> tuple[tuple[complex, ...], tuple[complex, ...], complex]:
    """Upper/lower q-power parameters and an argument for the one-variable
    connection check. The lower exponents' real parts are kept ahead of
    the uppers' so the swapped-side argument stays small, and |t| balances
    the two expansion rates; theta denominators are kept clear of zeros."""
    N = _require_range("N", N, 1, math.inf)
    ctx_probe = QContext(q=q)
    for _ in range(_WATSON_TRIES):
        alphas = _draw_exponents(rng, N + 1)
        gammas = _draw_exponents(rng, N)
        spread = sum(g.real for g in gammas) - sum(a.real for a in alphas[:-1])
        if spread < 0.1:
            continue
        ups = tuple(ctx_probe.qpow(a) for a in alphas)
        los = tuple(ctx_probe.qpow(g) for g in gammas)
        if _upper_ratio_hit(ups, q) is not None:
            continue
        K = q * math.prod(los, start=1.0 + 0j) / math.prod(ups, start=1.0 + 0j)
        if abs(K) >= 0.3:
            continue
        tmod = min(max(math.sqrt(abs(K)), 0.3), 0.6)
        phase = rng.uniform(0, 2 * math.pi)
        t = tmod * complex(math.cos(phase), math.sin(phase))
        if abs(theta(t, ctx_probe)) < _THETA_CLEAR:
            continue
        if any(abs(theta(t * ak, ctx_probe)) < _THETA_CLEAR for ak in ups):
            continue
        return ups, los, t
    raise SamplingError(f"no balanced argument in {_WATSON_TRIES} draws")


def sample_spectral(
    rng: np.random.Generator, lo: float = 0.55, hi: float = 1.8
) -> complex:
    """Spectral argument in an annulus around the unit circle. The phase is
    kept small so products of two draws stay on the principal branch; the
    braid identities involve non-integer powers and need arguments composed
    without winding."""
    mod = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return _polar(rng, mod)
