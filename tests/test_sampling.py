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
from qconnect.qkernel import LATTICE_RTOL, lattice_hit
from qconnect.sampling import (
    EXPONENT_IM,
    EXPONENT_RE,
    _PARAM_TRIES,
    _coupling_floor,
    _resonance_ratios,
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
        if strong_nonresonant(p):
            return p
    raise SamplingError(f"no nonresonant parameters in {_PARAM_TRIES} draws")


def _outcome(draw, seed):
    """(exponent bits or the error text, the generator's next double)."""
    rng = np.random.default_rng(seed)
    try:
        p = draw(rng)
        got = np.array(p.alpha + p.beta + p.gamma).tobytes()
    except SamplingError as exc:
        got = str(exc)
    return got, rng.random()


@pytest.mark.parametrize("N, M", [(1, 1), (2, 3), (3, 3), (4, 1)])
@pytest.mark.parametrize("overlap", [{}, {"coupling_cap": 0.16, "min_b": 0.5}])
def test_batched_draws_match_scalar_stream(N, M, overlap):
    for seed in range(4):
        ref = _outcome(lambda rng: _scalar_params(N, M, Q, rng, **overlap), seed)
        assert _outcome(lambda rng: sample_params(N, M, Q, rng, **overlap), seed) == ref


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
