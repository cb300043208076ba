"""Rejection samplers for generic parameters and evaluation points.

All draw policy lives here, in neither the numerical library nor the run
driver: evaluators take explicit values and raise on bad input, these
helpers produce inputs that pass those checks with margin, and the driver
only says which sampler each check draws from. Exponents are drawn from a
fixed box far from degenerations, parameter sets are screened against
q-power lattice hits for every ratio the solution theory divides by, and
points are built as geometric ladders that keep every series in its region
even after the operator shifts a residual check applies.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResonanceError, SamplingError
from .qkernel import (
    LATTICE_RTOL,
    ParamSet,
    QContext,
    _require_range,
    lattice_hit,
    perm_compose,
    perm_inverse,
    perm_transposition,
    permute_seq,
    theta,
)
from .hyperseries import _resonance_ratios, char_exponents, component_order, in_domain
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
# draws per point sampler, and the in_domain margin each accepted point keeps
_TRIES = 100
_FAMILY_TRIES = 500
_WATSON_TRIES = 200
_LADDER_MARGIN = 0.02
_OVERLAP_MARGIN = 0.03


def _draw_exponents(rng: np.random.Generator, n: int) -> list[complex]:
    """n exponents from the box, drawn by one rng.uniform call over the
    interleaved (re, im) bounds: the doubles, and the generator state after
    them, are those of 2n scalar calls in the same order."""
    (re_lo, re_hi), (im_lo, im_hi) = EXPONENT_RE, EXPONENT_IM
    v = rng.uniform((re_lo, im_lo) * n, (re_hi, im_hi) * n).tolist()
    return [complex(re, im) for re, im in zip(v[::2], v[1::2])]


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


def strong_nonresonant(p: ParamSet) -> bool:
    """check_resonance for every slot ordering at once: the ratios are
    taken against the product of b over every subset of slots (suffix
    products of any ordering are subsets).

    One numpy pass keeps the ratios x whose lattice_hit window around
    ln|x| / ln|q|, taken twice as wide, holds an integer, so the rounding
    of numpy's abs and log can only add candidates; lattice_hit alone
    decides each candidate."""
    values = [value for _, value in _resonance_ratios(p, _subset_products(p.b))]
    lq = math.log(abs(p.q))
    width = 4 * LATTICE_RTOL / abs(lq)
    with np.errstate(divide="ignore"):
        centre = np.log(np.abs(np.array(values))) / lq
    near = np.floor(centre + width) >= np.ceil(centre - width)
    return all(lattice_hit(values[i], p.q) is None for i in np.flatnonzero(near))


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


def _node_proxy(exps, m, ctx: QContext) -> float:
    """Separation of the per-component shift multipliers q^{m . delta} over
    the char_exponents exps: the scaled determinant tracks this
    Vandermonde-type product within a small factor, so it predicts
    conditioning without evaluating any series."""
    nodes = [ctx.qpow(sum(mm * d for mm, d in zip(m, delta))) for delta in exps]
    prod = 1.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            prod *= abs(nodes[i] - nodes[j])
    for x in nodes:
        prod /= max(1.0, abs(x)) ** (len(nodes) - 1)
    return prod


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


def _casorati_params(N: int, M: int, L: int, ctx: QContext, rng: np.random.Generator):
    """(params, shift) of the best-separated of up to 60 generic draws for
    the level-L Casorati matrix, stopping at the first whose proxy reaches
    the floor."""
    n = len(component_order(N, M))
    # per-pair separation 0.34 is comfortably generic; the floor is its
    # product over all node pairs
    proxy_floor = 0.34 ** (n * (n - 1) / 2)
    cands = _shift_candidates(M, n, ctx.q)
    best = (-1.0, None, None)
    for _ in range(60):
        p = sample_params(N, M, ctx.q, rng)
        exps = char_exponents(p, L)
        prox, m = max(((_node_proxy(exps, mm, ctx), mm) for mm in cands), key=lambda pm: pm[0])
        if prox > best[0]:
            best = (prox, p, m)
        if prox >= proxy_floor:
            break
    return best[1:]


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
    _require_range("L", L, 0, M)
    sigma = tuple(int(v) for v in sigma)
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
    _require_range("L", L, 0, M - 1)
    sigma = tuple(int(v) for v in sigma)
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
    _require_range("r", r, 1, M - 1)
    sigma = tuple(int(v) for v in sigma)
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
    inside (all levels close to M)."""
    families = [(L, tuple(int(v) for v in s)) for L, s in (fam1, fam2)]
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
