"""Building blocks: products, theta, branches, permutations."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconnect import (
    ParamSet,
    QContext,
    build_A,
    build_S,
    build_Stilde,
    casorati_independence,
    compose_connection,
    cpow,
    lattice_hit,
    local_solution,
    perm_compose,
    perm_identity,
    perm_inverse,
    perm_transposition,
    permute_seq,
    q_shift,
    qpoch_inf,
    residual_eqn1,
    sample_level_overlap,
    theta,
)
from qconnect import connection
from qconnect.errors import DomainError, PoleError, ResonanceError

Q = 0.3


def long_product(a, q, terms=200):
    out = 1.0 + 0j
    for k in range(terms):
        out *= 1 - a * q**k
    return out


def test_qpoch_inf_fixed_points(ctx):
    assert qpoch_inf(0.0, ctx) == 1.0
    assert qpoch_inf(1.0, ctx) == 0.0


def test_qpoch_inf_matches_long_product(ctx):
    for a in (0.4, -0.35 + 0.2j, 0.7j, 0.95):
        ref = long_product(a, Q)
        assert abs(qpoch_inf(a, ctx) - ref) < 1e-14


@pytest.mark.parametrize("q", [0.3, 0.7, 0.5 + 0.2j])
def test_qpoch_inf_product_has_np_prod_bits(q):
    # qpoch_inf multiplies with np.multiply.reduce, np.prod's own ufunc loop
    # without its wrapper
    ctx = QContext(q=q)
    rng = np.random.default_rng(43)
    args = np.exp(rng.uniform(-4, 4, 2000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 2000))
    got = [qpoch_inf(a, ctx) for a in args.tolist()]
    ref = [complex(np.prod(1.0 - a * ctx._qpow_table)) for a in args.tolist()]
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_theta_zeros(ctx):
    assert abs(theta(1.0, ctx)) < 1e-15
    assert abs(theta(Q, ctx)) < 1e-15
    with pytest.raises(DomainError):
        theta(0.0, ctx)


def test_theta_quasi_periodicity():
    ctx = QContext(q=0.25, prod_terms=60)
    x = 0.7 + 0.1j
    assert abs(theta(0.25 * x, ctx) + theta(x, ctx) / x) < 1e-12 * abs(theta(x, ctx))


def test_theta_relations_random():
    ctx = QContext(q=0.25, prod_terms=60)
    rng = np.random.default_rng(11)
    for _ in range(100):
        r = rng.uniform(0.3, 3.0)
        phi = rng.uniform(-np.pi, np.pi)
        x = r * np.exp(1j * phi)
        tx = theta(x, ctx)
        scale = max(abs(tx), 1e-30)
        assert abs(theta(0.25 * x, ctx) + tx / x) < 1e-11 * scale
        assert abs(theta(0.25 / x, ctx) - tx) < 1e-11 * scale


def test_cpow_basics():
    assert cpow(0.37 + 0.2j, 0) == 1.0
    assert abs(cpow(4.0, 0.5) - 2.0) < 1e-15
    assert cpow(1.0, 0.83 - 0.4j) == 1.0
    assert cpow(0.0, 2 + 1j) == 0.0
    with pytest.raises(DomainError):
        cpow(0.0, 1j)
    with pytest.raises(DomainError):
        cpow(0.0, -0.5)


def test_cpow_additivity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        al = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        be = complex(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        lhs = cpow(z, al) * cpow(z, be)
        rhs = cpow(z, al + be)
        assert abs(lhs - rhs) < 1e-13 * max(abs(rhs), 1.0)


def test_context_validation():
    with pytest.raises(DomainError):
        QContext(q=1.2)
    with pytest.raises(DomainError):
        QContext(q=0.0)
    with pytest.raises(ValueError):
        QContext(q=Q, prod_terms=0)
    with pytest.raises(ValueError):
        QContext(q=Q, prod_terms=3)
    with pytest.raises(ValueError):
        QContext(q=Q, series_cap=0)
    with pytest.raises(ValueError):
        QContext(q=Q, tail_tol=0.0)
    with pytest.raises(ValueError):
        QContext(q=Q, tail_tol=1.5)


def test_context_auto_product_length():
    auto = QContext(q=Q)
    assert 0.3**auto.prod_terms < 1e-17
    assert 0.3 ** (auto.prod_terms - 1) >= 1e-17


def test_qpow_principal_branch(ctx):
    assert abs(ctx.qpow(1.0) - Q) < 1e-15
    assert ctx.qpow(0.0) == 1.0
    al, be = 0.37 + 0.11j, -0.52 + 0.3j
    assert abs(ctx.qpow(al) * ctx.qpow(be) - ctx.qpow(al + be)) < 1e-13


def test_lattice_hit():
    assert lattice_hit(Q**5, Q, -64, 64) == 5
    assert lattice_hit(Q**-3, Q, -64, 64) == -3
    assert lattice_hit(0.77, Q, -64, 64) is None
    assert lattice_hit(Q**5 * (1 + 1e-12), Q, -64, 64) == 5


def _lattice_scan(x, q, kmin=-64, kmax=64):
    """Reference: walk k = kmin..kmax with a running power of q."""
    x = complex(x)
    if x == 0:
        return None
    qk = q**kmin
    for k in range(kmin, kmax + 1):
        if abs(x - qk) < 1e-8 * abs(qk):
            return k
        qk *= q
    return None


@st.composite
def _lattice_cases(draw):
    r = draw(st.floats(0.05, 0.999))
    phase = draw(st.sampled_from([0.0, None]))
    if phase is None:
        phase = draw(st.floats(-math.pi, math.pi))
    q = cmath.rect(r, phase) if phase else r
    kmin, kmax = draw(st.sampled_from([(-64, 64), (-64, 0), (-5, 7)]))
    if draw(st.booleans()):
        k = draw(st.integers(kmin - 3, kmax + 3))
        rel = draw(st.sampled_from([0.0, 1e-12, 3e-9, 1e-8, 1e-6]))
        turn = draw(st.floats(-math.pi, math.pi))
        x = q**k * (1 + cmath.rect(rel, turn))
    else:
        x = cmath.rect(draw(st.floats(1e-30, 1e30)), draw(st.floats(-math.pi, math.pi)))
    return x, q, kmin, kmax


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(_lattice_cases())
def test_lattice_hit_matches_scan(case):
    x, q, kmin, kmax = case
    assert lattice_hit(x, q, kmin, kmax) == _lattice_scan(x, q, kmin, kmax)


@pytest.mark.parametrize("q", [Q, 0.999, 0.6 - 0.7j, 0.05j])
def test_lattice_hit_range_ends(q):
    assert lattice_hit(q**-64, q) == -64
    assert lattice_hit(q**64, q) == 64
    assert lattice_hit(q**-65, q) is None
    assert lattice_hit(q**65, q) is None
    assert lattice_hit(q**-64, q, kmin=-64, kmax=0) == -64
    assert lattice_hit(q**0, q, kmin=-64, kmax=0) == 0
    assert lattice_hit(q**1, q, kmin=-64, kmax=0) is None
    assert lattice_hit(q**-65, q, kmin=-64, kmax=0) is None


@pytest.mark.parametrize("q", [1e-5, 1e-5 + 1e-6j, 1e-9 + 0j])
def test_lattice_hit_decides_at_small_bases(q):
    # q**-64 overflows (or divides by zero) here, so the running power
    # starts at the window: each screen that calls it still decides
    assert lattice_hit(q**3, q) == 3
    assert lattice_hit(q**-2, q) == -2
    assert lattice_hit(q**3 * 1.5, q) is None
    with pytest.raises(ResonanceError, match=r"c_1 ~ q\^-1$"):
        ParamSet(alpha=(0.5,), beta=(0.5,), gamma=(-1.0,), q=q)
    with pytest.raises(PoleError, match="^theta denominator vanished"):
        connection._den((q**2,), theta, QContext(q=q))


@pytest.mark.parametrize(
    "x", [0.0, 0j, math.inf, -math.inf, complex(math.inf, 1.0), complex(1.0, -math.inf),
          math.nan, complex(0.3, math.nan), complex(math.nan, math.inf)]
)
def test_lattice_hit_off_the_plane(x):
    assert lattice_hit(x, Q) is None
    assert _lattice_scan(x, Q) is None


def test_perm_helpers():
    assert perm_identity(3) == (1, 2, 3)
    assert perm_transposition(3, 1) == (2, 1, 3)
    with pytest.raises(IndexError):
        perm_transposition(3, 3)
    s, t = (2, 1, 3), (1, 3, 2)
    assert perm_compose(s, t) == (2, 3, 1)
    assert perm_compose(s, perm_inverse(s)) == perm_identity(3)


def test_permute_seq():
    assert permute_seq((10, 20, 30), (2, 3, 1)) == (20, 30, 10)
    with pytest.raises(ValueError):
        permute_seq((10, 20, 30), (1, 1, 3))
    with pytest.raises(ValueError):
        permute_seq((10, 20), (2, 3, 1))


def test_q_shift():
    t = (1 + 0j, 2 + 0j)
    assert q_shift(t, Q, 1) == (0.3 + 0j, 2 + 0j)
    with pytest.raises(IndexError):
        q_shift(t, Q, 3)
    with pytest.raises(IndexError):
        q_shift(t, Q, 0)


_T = (0.3 + 0.1j, 0.2 - 0.05j)
_NOT_INTEGERS = {
    "component-l": (lambda p, ctx: local_solution(p, 2, (1, 2), (1, 2.9), _T, ctx),
                    "l = 2.9"),
    "component-0": (lambda p, ctx: local_solution(p, 2, (1, 2), False, _T, ctx),
                    "which = False"),
    "word-letter": (lambda p, ctx: compose_connection(p, 2, (1, 2), 2, (2, 1), _T, ctx,
                                                      word=[1.7]), "r = 1.7"),
    "sigma-entry": (lambda p, ctx: build_Stilde(p, 1, (1.2, 2), 0.7, ctx),
                    "sigma entry = 1.2"),
    "level-bool": (lambda p, ctx: build_A(p, True, (1, 2), _T, ctx), "L = True"),
    "swap-bool": (lambda p, ctx: build_S(p, True, (1, 2), _T, ctx), "r = True"),
    "level-float": (lambda p, ctx: build_A(p, 1.0, (1, 2), _T, ctx), "L = 1.0"),
    "swap-float": (lambda p, ctx: build_S(p, 1.0, (1, 2), _T, ctx), "r = 1.0"),
    "residual-slot": (lambda p, ctx: residual_eqn1(abs, p, 1.0, _T, ctx), "s = 1.0"),
    "shift-slot": (lambda p, ctx: q_shift(_T, Q, 1.0), "s = 1.0"),
    "overlap-level": (lambda p, ctx: sample_level_overlap(p, 0.0, (1, 2),
                                                          np.random.default_rng(0)),
                      "L = 0.0"),
    "casorati-shift": (lambda p, ctx: casorati_independence(abs, (1, 0.5), _T, ctx),
                       "m = 0.5"),
}


@pytest.mark.parametrize("call, name", _NOT_INTEGERS.values(), ids=_NOT_INTEGERS)
def test_integer_arguments_are_read_not_truncated(call, name, p22, ctx):
    """A bool, a float or any value without __index__ is refused with a
    TypeError naming it before anything is evaluated, never truncated."""
    with pytest.raises(TypeError, match=rf"^{name} is not an integer$"):
        call(p22, ctx)


def test_numpy_integers_are_read(p22, ctx):
    sigma = np.array([2, 1])
    assert (build_A(p22, np.int64(1), sigma, _T, ctx).tobytes()
            == build_A(p22, 1, (2, 1), _T, ctx).tobytes())
    assert q_shift(_T, Q, np.int32(2)) == q_shift(_T, Q, 2)


def test_param_set_derived_values(p12, ctx):
    assert p12.N == 1 and p12.M == 2
    assert abs(p12.a[0] - ctx.qpow(0.37 + 0.11j)) < 1e-15
    assert abs(p12.b[1] - ctx.qpow(0.33 + 0.19j)) < 1e-15
    assert abs(p12.c[0] - ctx.qpow(0.81 + 0.05j)) < 1e-15


def test_param_set_permuted_touches_only_beta(p12):
    pp = p12.permuted((2, 1))
    assert pp.beta == (p12.beta[1], p12.beta[0])
    assert pp.alpha == p12.alpha
    assert pp.gamma == p12.gamma


def test_param_set_rejects_degenerate_denominator():
    # gamma on the nonpositive integer lattice makes 1/(c)_m blow up
    for g in (0.0, -2.0):
        with pytest.raises(ResonanceError):
            ParamSet(alpha=(0.37 + 0.11j,), beta=(0.52 - 0.08j,), gamma=(g,), q=Q)


def test_context_names_the_tail_tolerance_its_products_reach():
    # 33 factors at q = 0.3: |q|^33 = 5.6e-18
    with pytest.raises(ValueError, match=r"^tail_tol must exceed \|q\|\^prod_terms = 5\.6e-18$"):
        QContext(q=Q, tail_tol=1e-300)
