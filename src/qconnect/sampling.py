"""Rejection samplers for generic parameters and evaluation points.

All draw policy lives here, in neither the numerical library nor the run
driver: evaluators take explicit values and raise on bad input, these
helpers produce inputs that pass those checks with margin, and the driver
only says which sampler each check draws from. Exponents are drawn from a
fixed box far from degenerations, parameter sets are screened against
q-power lattice hits for every ratio the solution theory divides by, and
points are built as geometric ladders that keep every series in its region
even after the operator shifts a residual check applies.

The Casorati parameter search scores raw draws a block of _BLOCK at a time
and makes exactly the decisions of a per-draw loop, so its result and the
generator state it leaves are those of that loop:
- one rng.uniform call gives the doubles of _BLOCK per-draw calls;
- a numpy screen of every ratio's exponent flags each draw that ParamSet
  or strong_nonresonant could reject: it tests lattice_hit's window taken
  twice as wide, which rounding cannot escape, and only a flagged draw gets
  the exact check, where lattice_hit alone decides; strong_nonresonant is
  the same screen on one row;
- the separation proxies repeat the scalar arithmetic: real products and
  sums in slot order, cmath.exp per node, np.hypot for Python's complex
  abs, and math.prod in pair order;
- a search that stops inside a block rewinds the generator to the block's
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
    _require_range,
    _validate_perm,
    lattice_hit,
    perm_compose,
    perm_inverse,
    perm_transposition,
    permute_seq,
    theta,
)
from .hyperseries import _char_exponents, _resonance_ratios, component_order, in_domain
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
_BLOCK = 12  # raw draws the Casorati search scores at a time
# draws per point sampler, and the in_domain margin each accepted point keeps
_TRIES = 100
_FAMILY_TRIES = 500
_WATSON_TRIES = 200
_LADDER_MARGIN = 0.02
_OVERLAP_MARGIN = 0.03


def _draw_block(rng: np.random.Generator, n: int, rows: int = 1) -> np.ndarray:
    """rows x n exponents from the box as a complex array, drawn by one
    rng.uniform call over the interleaved (re, im) bounds and read as
    (re, im) pairs: the doubles, and the generator state after them, are
    those of 2 n rows scalar calls in the same order."""
    (re_lo, re_hi), (im_lo, im_hi) = EXPONENT_RE, EXPONENT_IM
    size = n * rows
    v = rng.uniform((re_lo, im_lo) * size, (re_hi, im_hi) * size)
    return v.view(complex).reshape(rows, n)


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

    It is the one-row case of the Casorati search's screen: _near_lattice
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
    by the suites that evaluate two solution families at one point."""
    for _ in range(_PARAM_TRIES):
        e = _draw_exponents(rng, 2 * N + M)
        try:
            p = ParamSet(alpha=e[:N], beta=e[N : N + M], gamma=e[N + M :], q=q)
        except ResonanceError:
            continue
        if coupling_cap is not None and _coupling_floor(p) > coupling_cap:
            continue
        if min_b is not None and min(abs(b) for b in p.b) < min_b:
            continue
        if strong_nonresonant(p):
            return p
    raise SamplingError(f"no nonresonant parameters in {_PARAM_TRIES} draws")


def _generic_sample(N: int, M: int, q: complex, rng: np.random.Generator):
    """(params, point) of the suites that check one identity at an interior point."""
    return sample_params(N, M, q, rng), sample_interior_point(M, rng)


def _overlap_params(N: int, M: int, q: complex, rng: np.random.Generator) -> ParamSet:
    """sample_params for the suites that evaluate two solution families at
    one point."""
    return sample_params(N, M, q, rng, coupling_cap=0.16, min_b=0.5)


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
    delta = np.array(exps)[:, None]  # draw, -, component, slot
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
    i, j = _pairs(n)
    diff = nodes[:, i] - nodes[:, j]
    proxies = list(map(math.prod, np.hypot(diff.real, diff.imag).tolist()))
    sizes = np.hypot(nodes.real, nodes.imag)
    for r in np.flatnonzero((sizes > 1.0).any(axis=1)).tolist():
        for size in sizes[r].tolist():
            if size > 1.0:
                proxies[r] /= size ** (n - 1)
    c = len(cands)
    return [proxies[d : d + c] for d in range(0, len(proxies), c)]


@functools.cache
def _pairs(n: int):
    """Read-only index arrays (i, j) of the node pairs i < j, i major."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


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


def _params(e, N: int, M: int, q: complex) -> ParamSet | None:
    """The ParamSet of one draw e = (alpha, beta, gamma), or None when
    sample_params would reject it: its c-screen raises or it is not
    strong_nonresonant."""
    try:
        p = ParamSet(alpha=e[:N], beta=e[N : N + M], gamma=e[N + M :], q=q)
    except ResonanceError:
        return None
    return p if strong_nonresonant(p) else None


def _casorati_params(N: int, M: int, L: int, ctx: QContext, rng: np.random.Generator):
    """(params, shift) of the best-separated of up to 60 generic draws for
    the level-L Casorati matrix, stopping at the first whose proxy reaches
    the floor: the draws of sample_params(N, M, q, rng) in turn, each scored
    by its best shift candidate (the first on a tie), the best replaced only
    by a strictly larger proxy. 400 rejected draws in a row raise
    sample_params' SamplingError.

    Raw draws are screened and scored _BLOCK at a time, with the same
    decisions: _near_lattice flags every draw that ParamSet or
    strong_nonresonant could reject, and only a flagged draw gets that exact
    check; _node_proxies gives the scalar proxies bit for bit. A search that
    stops inside a block sets the generator back to the block's start and
    draws again the rows it used, so it leaves the generator where a
    per-draw loop would."""
    L = _require_range("L", L, 0, M)
    q = ctx.q
    n = len(component_order(N, M))
    # per-pair separation 0.34 is comfortably generic; the floor is its
    # product over all node pairs
    proxy_floor = 0.34 ** (n * (n - 1) / 2)
    cands = _shift_candidates(M, n, q)
    cols = 2 * N + M
    best = (-1.0, None, None)
    accepted = misses = 0
    while True:
        start = rng.bit_generator.state
        block = _draw_block(rng, cols, _BLOCK)
        draws = block.tolist()
        flagged = _near_lattice(q, block, N).any(axis=1).tolist()
        keep = [i for i, e in enumerate(draws) if not flagged[i] or _params(e, N, M, q)]
        exps = [_char_exponents(draws[i][:N], draws[i][N : N + M], draws[i][N + M :], L)
                for i in keep]
        scores = dict(zip(keep, _node_proxies(exps, cands, q) if keep else []))
        for i, e in enumerate(draws):
            if i not in scores:
                misses += 1
                if misses == _PARAM_TRIES:
                    _rewind(rng, start, cols, i + 1)
                    raise SamplingError(f"no nonresonant parameters in {_PARAM_TRIES} draws")
                continue
            misses = 0
            accepted += 1
            row = scores[i]
            c = max(range(len(cands)), key=row.__getitem__)
            if row[c] > best[0]:
                best = (row[c], e, cands[c])
            if row[c] >= proxy_floor or accepted == 60:
                _rewind(rng, start, cols, i + 1)
                e, m = best[1:]
                return ParamSet(alpha=e[:N], beta=e[N : N + M], gamma=e[N + M :], q=q), m


def _rewind(rng: np.random.Generator, state, cols: int, used: int) -> None:
    """Leave rng as if only the first `used` rows of the block drawn from
    state had been drawn."""
    if used < _BLOCK:
        rng.bit_generator.state = state
        _draw_block(rng, cols, used)


def _polar(rng: np.random.Generator, modulus: float) -> complex:
    phase = rng.uniform(-_PHASE, _PHASE)
    return modulus * complex(math.cos(phase), math.sin(phase))


def sample_interior_point(M: int, rng: np.random.Generator) -> tuple[complex, ...]:
    """Point with every coordinate well inside the unit disc; shifts by
    positive q-powers only shrink it, so no extra margin is needed."""
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
    in_domain margin at least `margin`."""
    for _ in range(tries):
        t = draw()
        if all(
            in_domain(L, sigma, p, pt) >= margin
            for pt in points(t)
            for L, sigma in families
        ):
            return t
    raise SamplingError(failure)


def _place(rng: np.random.Generator, mods, sigma) -> tuple[complex, ...]:
    """Point whose reordered coordinate i has modulus mods[i] (sigma maps
    reordered slots to original coordinates)."""
    return permute_seq([_polar(rng, m) for m in mods], perm_inverse(sigma))


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
    sigma = _validate_perm(sigma)
    bp = permute_seq(p.b, sigma)
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
    sigma = _validate_perm(sigma)
    bp = permute_seq(p.b, sigma)
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
    sigma = _validate_perm(sigma)
    swapped = perm_compose(sigma, perm_transposition(M, r))
    bp = permute_seq(p.b, sigma)
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
