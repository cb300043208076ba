"""Seeded parameter and point samplers used by the verification suites."""

import math
from itertools import permutations

import numpy as np
import pytest

from qconnect import (
    ParamSet,
    QContext,
    SamplingError,
    char_exponents,
    check_resonance,
    component_order,
    check_watson,
    in_domain,
    perm_identity,
    sample_domain_point,
    sample_family_overlap,
    sample_interior_point,
    sample_level_overlap,
    sample_params,
    sample_spectral,
    sample_swap_overlap,
    sample_watson,
    strong_nonresonant,
)
from qconnect import sampling
from qconnect.errors import ResonanceError
from qconnect.hyperseries import _char_exponents
from qconnect.qkernel import LATTICE_RTOL, lattice_hit
from qconnect.sampling import (
    EXPONENT_IM,
    EXPONENT_RE,
    _PARAM_TRIES,
    _coupling_floor,
    _resonance_ratios,
    _near_lattice,
    _subset_products,
    draw_exponent,
)
from conftest import ALPHA, BETA, GAMMA, Q


def test_draw_exponent_box():
    rng = np.random.default_rng(2)
    for _ in range(200):
        z = draw_exponent(rng)
        assert EXPONENT_RE[0] <= z.real <= EXPONENT_RE[1]
        assert EXPONENT_IM[0] <= z.imag <= EXPONENT_IM[1]


@pytest.mark.parametrize("n, rows", [(1, 1), (3, 12), (12, 1), (7, 12), (1, 12)])
def test_draw_block_matches_uniform(n, rows):
    """A block's doubles and the generator state after it are those of one
    rng.uniform call over the interleaved box bounds."""
    (re_lo, re_hi), (im_lo, im_hi) = EXPONENT_RE, EXPONENT_IM
    low = np.array((re_lo, im_lo) * (n * rows))
    high = np.array((re_hi, im_hi) * (n * rows))
    for seed in range(300):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        block = sampling._draw_block(rng, n, rows)
        assert block.shape == (rows, n)
        assert block.view(float).tobytes() == ref.uniform(low, high).tobytes(), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def test_strong_nonresonant_detects_planted_collisions(p22):
    assert strong_nonresonant(p22)
    p_eq = ParamSet((ALPHA[0], ALPHA[0]), BETA[:2], GAMMA[:2], Q)
    assert not strong_nonresonant(p_eq)
    # one numerator exponent equal to the sum of the slot exponents
    p_sub = ParamSet((BETA[0] + BETA[1],), BETA[:2], GAMMA[:1], Q)
    assert not strong_nonresonant(p_sub)


@pytest.mark.parametrize("N, M", [(1, 2), (2, 2), (1, 3)])
def test_strong_nonresonant_is_check_resonance_over_all_orderings(N, M):
    sets = [sample_params(N, M, Q, np.random.default_rng(seed)) for seed in range(3)]
    sets += [
        ParamSet(ALPHA[:N], BETA[:M], GAMMA[:N], Q),
        ParamSet((ALPHA[0],) * N, BETA[:M], GAMMA[:N], Q),
        # a_1 against the subset {1, M}, a suffix only of orderings that
        # end with those two slots
        ParamSet((BETA[0] + BETA[M - 1],) + ALPHA[1:N], BETA[:M], GAMMA[:N], Q),
    ]
    verdicts = []
    for p in sets:
        verdict = all(check_resonance(p, s) == () for s in permutations(range(1, M + 1)))
        assert strong_nonresonant(p) == verdict
        verdicts.append(verdict)
    assert verdicts[:4] == [True] * 4 and not verdicts[-1]


@pytest.mark.parametrize(
    "offset, resonant",
    [
        (0.0, True), (0.5, True), (-0.5, True),  # lattice hits
        (1.5, False), (-1.5, False),  # in lattice_hit's window, no hit
        (3.0, False), (-3.0, False),  # only in the widened screen window
        (4.5, False), (-4.5, False),  # just outside the screen window
    ],
)
@pytest.mark.parametrize("k", [-3, 0, 5])
def test_strong_nonresonant_planted_near_lattice(offset, resonant, k):
    # a_1 / a_2 = q^k (1 + offset LATTICE_RTOL)
    shift = k + math.log1p(offset * LATTICE_RTOL) / math.log(Q)
    p = ParamSet((ALPHA[1] + shift, ALPHA[1]), BETA[:2], GAMMA[:2], Q)
    ratios = [value for _, value in _resonance_ratios(p, _subset_products(p.b))]
    scalar = all(lattice_hit(value, p.q) is None for value in ratios)
    assert strong_nonresonant(p) == scalar == (not resonant)


def test_sample_params_reproducible_and_screened():
    p1 = sample_params(2, 2, Q, np.random.default_rng(5))
    p2 = sample_params(2, 2, Q, np.random.default_rng(5))
    assert p1 == p2
    assert p1.N == 2 and p1.M == 2
    assert strong_nonresonant(p1)


def test_sample_params_floor_honored():
    p = sample_params(2, 2, Q, np.random.default_rng(5), min_b=0.5)
    assert min(abs(b) for b in p.b) >= 0.5


def test_sample_params_gives_up():
    # |q^beta| stays below 0.9 on the exponent box, so this floor is
    # unreachable and the sampler must say so instead of spinning
    with pytest.raises(SamplingError):
        sample_params(1, 2, Q, np.random.default_rng(0), min_b=0.95)


def _scalar_exponents(rng, n):
    """The reference draw: two scalar rng.uniform calls per exponent."""
    return [complex(rng.uniform(*EXPONENT_RE), rng.uniform(*EXPONENT_IM)) for _ in range(n)]


def _scalar_params(N, M, q, rng, coupling_cap=None, min_b=None):
    """sample_params written with the scalar draws: alpha, beta, gamma."""
    for _ in range(_PARAM_TRIES):
        try:
            p = ParamSet(
                alpha=_scalar_exponents(rng, N),
                beta=_scalar_exponents(rng, M),
                gamma=_scalar_exponents(rng, N),
                q=q,
            )
        except ResonanceError:
            continue
        if coupling_cap is not None and _coupling_floor(p) > coupling_cap:
            continue
        if min_b is not None and min(abs(b) for b in p.b) < min_b:
            continue
        # looked up in the module, so a test that patches the screen there
        # patches the reference too
        if sampling.strong_nonresonant(p):
            return p
    raise SamplingError(f"no nonresonant parameters in {_PARAM_TRIES} draws")


def _outcome(draw, seed):
    """(exponent bits or the error text, the generator's state and next double)."""
    rng = np.random.default_rng(seed)
    try:
        p = draw(rng)
        got = np.array(p.alpha + p.beta + p.gamma).tobytes()
    except SamplingError as exc:
        got = str(exc)
    return got, rng.bit_generator.state, rng.random()


def _assert_walk_matches_scalar(shapes, q, bounds, seeds):
    for N, M in shapes:
        for seed in seeds:
            ref = _outcome(lambda rng: _scalar_params(N, M, q, rng, **bounds), seed)
            got = _outcome(lambda rng: sample_params(N, M, q, rng, **bounds), seed)
            assert got == ref, (N, M, seed)


_SHAPES = [(N, M) for N in range(1, 13) for M in range(1, 13) if N * M <= 12]
_LEDGER_BASES = [0.3, 0.5, 0.7, 0.5 + 0.2j]
_OVERLAP = {"coupling_cap": 0.16, "min_b": 0.5}
_BOUNDS = [{}, _OVERLAP, {"min_b": 0.5}]


@pytest.mark.parametrize("N, M", [(1, 1), (2, 3), (3, 3), (4, 1)])
@pytest.mark.parametrize("overlap", [{}, _OVERLAP])
def test_batched_draws_match_scalar_stream(N, M, overlap):
    _assert_walk_matches_scalar([(N, M)], Q, overlap, range(4))


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["none", "overlap", "min_b"])
@pytest.mark.parametrize("q", _LEDGER_BASES)
def test_walk_matches_scalar_stream_at_every_shape(q, bounds):
    assert len(_SHAPES) == 35
    _assert_walk_matches_scalar(_SHAPES, q, bounds, range(3))


_FORCED_SHAPES = [(1, 1), (2, 3), (3, 3), (1, 6), (4, 2)]


def _flag_every_draw(q, exps, N):
    return np.ones(_near_lattice(q, exps, N).shape, dtype=bool)


@pytest.mark.parametrize("bounds", _BOUNDS, ids=["none", "overlap", "min_b"])
def test_walk_with_every_draw_flagged(bounds, monkeypatch):
    monkeypatch.setattr(sampling, "_near_lattice", _flag_every_draw)
    for q in (0.3, 0.5 + 0.2j):
        _assert_walk_matches_scalar(_FORCED_SHAPES, q, bounds, range(3))


@pytest.mark.parametrize("bounds", _BOUNDS[1:], ids=["overlap", "min_b"])
def test_walk_with_every_draw_in_a_band(bounds, monkeypatch):
    # every bound estimate lies in its band, so the exact rule decides every draw
    monkeypatch.setattr(sampling, "_BAND", math.inf)
    for q in (0.3, 0.5 + 0.2j):
        _assert_walk_matches_scalar(_FORCED_SHAPES, q, bounds, range(3))


@pytest.mark.parametrize("bounds", [{"min_b": 0.95}, {}], ids=["floor", "none"])
def test_walk_gives_up_where_the_loop_does(bounds, monkeypatch):
    # no |b| reaches 0.95 on the box; without bounds, where nearly every
    # draw is accepted, the exact rule is made to refuse every draw
    if not bounds:
        monkeypatch.setattr(sampling, "_near_lattice", _flag_every_draw)
        monkeypatch.setattr(sampling, "strong_nonresonant", lambda p: False)
    for N, M in _FORCED_SHAPES:
        for seed in range(3):
            ref = _outcome(lambda rng: _scalar_params(N, M, Q, rng, **bounds), seed)
            assert ref[0] == f"no nonresonant parameters in {_PARAM_TRIES} draws"
            assert _outcome(lambda rng: sample_params(N, M, Q, rng, **bounds), seed) == ref


@pytest.mark.parametrize("which", ["coupling_cap", "min_b"])
@pytest.mark.parametrize("side", [0, -1, 1])
def test_walk_with_a_bound_planted_on_the_first_draw(which, side):
    # the bound sits on the first draw's exact value, or one unit in the last
    # place beside it: the numpy estimate may round to either side of it, and
    # only the exact rule gives the per-draw verdict
    for seed in range(12):
        e = _scalar_exponents(np.random.default_rng(seed), 5)
        p = ParamSet(e[:1], e[1:4], e[4:], Q)
        value = _coupling_floor(p) if which == "coupling_cap" else min(abs(b) for b in p.b)
        bound = math.nextafter(value, side * math.inf) if side else value
        ref = _outcome(lambda rng: _scalar_params(1, 3, Q, rng, **{which: bound}), seed)
        assert _outcome(lambda rng: sample_params(1, 3, Q, rng, **{which: bound}), seed) == ref
        within = value <= bound if which == "coupling_cap" else value >= bound
        assert (ref[0] == np.array(e).tobytes()) == (within and strong_nonresonant(p)), seed


def test_draw_exponent_matches_scalar_stream():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    assert [draw_exponent(a) for _ in range(5)] == _scalar_exponents(b, 5)
    assert a.random() == b.random()


def test_sample_watson_draws_match_scalar_stream(monkeypatch):
    def outcome(seed):
        rng = np.random.default_rng(seed)
        ups, los, t = sample_watson(N, Q, rng)
        return np.array((*ups, *los, t)).tobytes(), rng.random()

    for N in (1, 2, 3):
        batched = [outcome(seed) for seed in range(3)]
        with monkeypatch.context() as m:
            m.setattr(sampling, "_draw_exponents", _scalar_exponents)
            assert [outcome(seed) for seed in range(3)] == batched


def test_sample_interior_point_annulus():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = sample_interior_point(2, rng)
        assert len(t) == 2
        for tv in t:
            assert 0.2 <= abs(tv) <= 0.55


def test_sample_domain_point():
    rng = np.random.default_rng(13)
    p = sample_params(2, 2, Q, rng)
    ident = perm_identity(2)
    for L in (0, 1, 2):
        t = sample_domain_point(p, L, ident, rng)
        assert in_domain(L, ident, p, t) > 0.0


def test_sample_domain_point_checks_the_level_before_drawing():
    rng = np.random.default_rng(13)
    p = sample_params(2, 2, Q, rng)
    state = rng.bit_generator.state
    with pytest.raises(IndexError, match=r"^L = 3 outside \[0, 2\]$"):
        sample_domain_point(p, 3, perm_identity(2), rng)
    assert rng.bit_generator.state == state


def test_sample_level_overlap():
    rng = np.random.default_rng(14)
    p = sample_params(2, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    ident = perm_identity(2)
    for L in (0, 1):
        t = sample_level_overlap(p, L, ident, rng)
        assert in_domain(L, ident, p, t) > 0.0
        assert in_domain(L + 1, ident, p, t) > 0.0


def test_sample_swap_overlap():
    rng = np.random.default_rng(15)
    p = sample_params(2, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    ident = perm_identity(2)
    t = sample_swap_overlap(p, 1, ident, rng)
    assert in_domain(2, ident, p, t) > 0.0
    assert in_domain(2, (2, 1), p, t) > 0.0


def test_sample_family_overlap():
    rng = np.random.default_rng(16)
    p = sample_params(1, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    fam1, fam2 = (1, (1, 2)), (1, (2, 1))
    t = sample_family_overlap(p, fam1, fam2, rng)
    assert in_domain(fam1[0], fam1[1], p, t) > 0.0
    assert in_domain(fam2[0], fam2[1], p, t) > 0.0


@pytest.mark.parametrize(
    "fam1, fam2, error, message",
    [
        ((1, (1, 2)), (3, (2, 1)), IndexError, r"^L = 3 outside \[0, 2\]$"),
        ((-1, (1, 2)), (1, (2, 1)), IndexError, r"^L = -1 outside \[0, 2\]$"),
        ((1, (1, 2)), (1, (2, 1, 3)), ValueError, r"must both permute 1\.\.2$"),
        ((1, (1,)), (1, (2, 1)), ValueError, r"must both permute 1\.\.2$"),
    ],
    ids=["level-2", "level-1", "ordering-2", "ordering-1"],
)
def test_sample_family_overlap_checks_its_input_before_drawing(fam1, fam2, error, message):
    rng = np.random.default_rng(16)
    p = sample_params(1, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    state = rng.bit_generator.state
    with pytest.raises(error, match=message):
        sample_family_overlap(p, fam1, fam2, rng)
    assert rng.bit_generator.state == state


def test_sample_watson_feeds_the_check(ctx_long):
    rng = np.random.default_rng(18)
    for N in (1, 2):
        ups, los, t = sample_watson(N, Q, rng)
        assert len(ups) == len(los) + 1
        assert check_watson(ups, los, t, ctx_long) < 1e-9


def test_sample_spectral_window():
    rng = np.random.default_rng(19)
    for _ in range(100):
        u = sample_spectral(rng)
        assert 0.55 <= abs(u) <= 1.8
        assert abs(np.angle(u)) <= 0.6


# Frozen outputs at fixed seeds: any change in the order of draws, in the
# ladder arithmetic or in the placement of reordered slots changes them.
def _domain():
    rng = np.random.default_rng(21)
    p = sample_params(2, 3, Q, rng)
    return sample_domain_point(p, 1, (3, 1, 2), rng)


def _level():
    rng = np.random.default_rng(22)
    p = sample_params(1, 3, Q, rng, coupling_cap=0.16, min_b=0.5)
    return sample_level_overlap(p, 1, (3, 1, 2), rng)


def _swap():
    rng = np.random.default_rng(23)
    p = sample_params(1, 3, Q, rng, coupling_cap=0.16, min_b=0.5)
    return sample_swap_overlap(p, 2, (3, 1, 2), rng)


def _family():
    rng = np.random.default_rng(16)
    p = sample_params(1, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    return sample_family_overlap(p, (1, (1, 2)), (1, (2, 1)), rng)


def _interior():
    return sample_interior_point(3, np.random.default_rng(9))


def _watson():
    return sample_watson(2, Q, np.random.default_rng(18))


@pytest.mark.parametrize(
    "sampler, expected",
    [
        (_domain, (34.49412406122842 + 6.5375476542204645j,
                   289.03418602348535 - 20.741242040711313j,
                   0.388818655947898 - 0.027389463994200385j)),
        (_level, (0.40405570105516186 + 0.24635967209016207j,
                  3.0382707399278055 + 1.869846066600109j,
                  0.12736833487826515 - 0.021138788779384757j)),
        (_swap, (0.25794379608396667 - 0.1393729906077264j,
                 0.27816427310452946 - 0.10128506761344509j,
                 0.30777272717029175 - 0.03179604589640336j)),
        (_family, (0.5049442663405908 - 0.21568927122745357j,
                   0.4717729801911199 - 0.12874326423298968j)),
        (_interior, (0.4881660831307598 - 0.12767983110256037j,
                     0.3885128699441055 + 0.13439673742901787j,
                     0.39579469084164887 + 0.21543087766936622j)),
        (_watson, ((0.77290150961905 - 0.09422090911368852j,
                    0.6370818632771399 + 0.046687038659171926j,
                    0.6307371267377844 + 0.07919195005188795j),
                   (0.34997318890532353 - 0.07547834588137867j,
                    0.35910359026614375 - 0.03820021018330178j),
                   -0.20309041015218735 - 0.2853606351688188j)),
    ],
    ids=["domain", "level", "swap", "family", "interior", "watson"],
)
def test_sampler_frozen_output(sampler, expected):
    assert sampler() == expected


@pytest.mark.parametrize("N, M", [(1, 3), (2, 3), (3, 3), (2, 4), (4, 3), (1, 6)])
def test_casorati_shift_steps_separate_every_component(N, M):
    # component (k,l), l < M, has m . delta = m_l (1 - gamma_k) plus
    # sum_{j>l} (m_l - m_j) beta_j, which equal small-slot steps make the
    # same for every l
    ctx = QContext(q=Q)
    for seed in range(3):
        p = sample_params(N, M, Q, np.random.default_rng(seed))
        exps = char_exponents(p, M - 1)
        for m in sampling._shift_candidates(M, len(exps), Q):
            small = m[:-1]
            assert all(x > y > 0 for x, y in zip(small, small[1:])) and m[-1] < 0
            nodes = [ctx.qpow(sum(mm * d for mm, d in zip(m, delta))) for delta in exps]
            for i, x in enumerate(nodes):
                for y in nodes[i + 1:]:
                    assert abs(x - y) > 1e-8 * max(abs(x), abs(y)), (m, seed)


# The Casorati search as a per-draw loop: the reference for the block search.
def _node_proxy(exps, m, ctx):
    nodes = [ctx.qpow(sum(mm * d for mm, d in zip(m, delta))) for delta in exps]
    prod = 1.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            prod *= abs(nodes[i] - nodes[j])
    for x in nodes:
        prod /= max(1.0, abs(x)) ** (len(nodes) - 1)
    return prod


def _per_draw_casorati_params(N, M, L, ctx, rng):
    n = len(component_order(N, M))
    proxy_floor = 0.34 ** (n * (n - 1) / 2)
    cands = sampling._shift_candidates(M, n, ctx.q)
    best = (-1.0, None, None)
    for _ in range(60):
        p = _scalar_params(N, M, ctx.q, rng)
        exps = char_exponents(p, L)
        prox, m = max(((_node_proxy(exps, mm, ctx), mm) for mm in cands), key=lambda pm: pm[0])
        if prox > best[0]:
            best = (prox, p, m)
        if prox >= proxy_floor:
            break
    return best[1:]


def _search(search, N, M, q, seed):
    """(exponent bits and shift, or the error text; the generator's state)."""
    rng = np.random.default_rng(seed)
    try:
        p, m = search(N, M, M - 1, QContext(q=q), rng)
        got = np.array(p.alpha + p.beta + p.gamma).tobytes(), m
    except SamplingError as exc:
        got = str(exc)
    return got, rng.bit_generator.state, rng.random()


@pytest.fixture
def exponents_checked(monkeypatch):
    """Assert, for every row the block search scores, that its exponent
    vectors have the bits of the scalar _char_exponents."""
    block_exponents = sampling._block_exponents

    def checked(draws, N, M, L):
        out = block_exponents(draws, N, M, L)
        for row, got in zip(draws.tolist(), out):
            ref = _char_exponents(row[:N], row[N : N + M], row[N + M :], L)
            assert got.tobytes() == np.array(ref, dtype=complex).tobytes()
        return out

    monkeypatch.setattr(sampling, "_block_exponents", checked)


@pytest.mark.parametrize("q", _LEDGER_BASES)
def test_block_search_matches_per_draw_search(q, exponents_checked):
    for N, M in _SHAPES:
        for seed in range(3):
            ref = _search(_per_draw_casorati_params, N, M, q, seed)
            assert _search(sampling._casorati_params, N, M, q, seed) == ref, (N, M, seed)


@pytest.mark.parametrize("q", [0.3, 0.5 + 0.2j])
def test_block_search_with_every_draw_flagged(q, monkeypatch, exponents_checked):
    monkeypatch.setattr(sampling, "_near_lattice", _flag_every_draw)
    for N, M in _FORCED_SHAPES:
        for seed in range(3):
            ref = _search(_per_draw_casorati_params, N, M, q, seed)
            assert _search(sampling._casorati_params, N, M, q, seed) == ref, (N, M, seed)


def test_block_search_with_every_draw_rejected(monkeypatch):
    monkeypatch.setattr(sampling, "_near_lattice", _flag_every_draw)
    monkeypatch.setattr(sampling, "strong_nonresonant", lambda p: False)
    for N, M in _FORCED_SHAPES:
        ref = _search(_per_draw_casorati_params, N, M, Q, 0)
        assert ref[0] == f"no nonresonant parameters in {_PARAM_TRIES} draws"
        assert _search(sampling._casorati_params, N, M, Q, 0) == ref, (N, M)


@pytest.mark.parametrize("q", _LEDGER_BASES)
def test_node_proxies_match_the_scalar_proxy(q):
    # exponents well outside the sampler's box, so that some nodes exceed 1
    # in modulus and the max(1, |x|)^(n-1) divisions run
    rng = np.random.default_rng(31)
    ctx = QContext(q=q)
    divided = 0
    for N, M in [(1, 2), (2, 3), (3, 3), (1, 6)]:
        n = N * M + 1
        cands = sampling._shift_candidates(M, n, q)
        exps = [
            tuple(tuple(complex(re, im) for re, im in row) for row in draw)
            for draw in rng.uniform(-1.5, 1.5, (5, n, M, 2)).tolist()
        ]
        got = sampling._node_proxies(exps, cands, q)
        assert got == [[_node_proxy(e, m, ctx) for m in cands] for e in exps]
        divided += sum(
            abs(ctx.qpow(sum(mm * d for mm, d in zip(m, delta)))) > 1.0
            for e in exps for m in cands for delta in e
        )
    assert divided > 0


def test_hypot_is_complex_abs():
    rng = np.random.default_rng(32)
    z = rng.standard_normal(200_002).view(complex) * np.exp(rng.uniform(-30, 30, 100_001))
    d = z[1:] - z[:-1]
    assert np.hypot(d.real, d.imag).tolist() == [abs(v) for v in d.tolist()]


def test_planted_c_on_the_lattice_is_flagged_and_rejected():
    # c_1 = q^-3 (1 + 1e-9): ParamSet's c-screen refuses it
    N, M = 2, 2
    gamma1 = -3 + math.log1p(1e-9) / math.log(Q)
    e = [ALPHA[0], ALPHA[1], BETA[0], BETA[1], gamma1, GAMMA[1]]
    near = sampling._near_lattice(Q, np.array([e]), N)
    assert near.shape == (1, len(sampling._ratio_exponents(N, M)))
    assert near.any()
    assert sampling._params(e, N, M, Q) is None
    with pytest.raises(ResonanceError, match="c_1 sits on the nonpositive power lattice"):
        ParamSet(e[:N], e[N : N + M], e[N + M :], Q)


def test_a_point_sampler_with_an_empty_overlap_raises():
    # b_2 = q^5 leaves the swapped pair no annulus: |q| / |b_1| > |b_2| / |q|
    p = ParamSet(alpha=(0.37 + 0.11j,), beta=(0.52 - 0.08j, 5.0), gamma=(0.81 + 0.05j,), q=0.3)
    with pytest.raises(SamplingError, match=r"^no swap overlap point at position 1, sigma \(1, 2\)$"):
        sample_swap_overlap(p, 1, (1, 2), np.random.default_rng(0))


def test_the_driver_records_a_point_sampler_that_finds_no_point(monkeypatch):
    from qconnect.cli import RunConfig, run_suite

    monkeypatch.setattr(sampling, "_TRIES", 0)
    records = run_suite(RunConfig(N=1, M=2, samples=1, suites=("connection",))).records
    assert [(r.check, r.passed, r.error) for r in records] == [
        ("split step L=0", False,
         "SamplingError: no overlap point for levels 0/1, sigma (1, 2)"),
    ]
