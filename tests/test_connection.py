"""Connection matrices: single steps, compositions, braid words."""

import cmath
import hashlib
import math

import numpy as np
import pytest

from qconnect import (
    DomainError,
    ParamSet,
    PoleError,
    SolutionVector,
    WordError,
    build_A,
    build_B,
    build_S,
    build_Stilde,
    build_solution_vector,
    compose_connection,
    perm_compose,
    perm_identity,
    perm_transposition,
    transposition_word,
    verify_connection,
)
from qconnect import QContext, connection
from qconnect.qkernel import LATTICE_RTOL, lattice_hit, qpoch_inf, theta
from conftest import ALPHA, BETA, GAMMA, Q

IDENT = (1, 2)
SWAP = (2, 1)

# points verified to sit inside every sector pair they are used with
T_LEVEL_01 = (0.46 + 0.07j, 900 + 120j)
T_LEVEL_12 = (0.12 + 0.02j, 0.52 - 0.07j)
T_SWAP = (0.30 + 0.04j, 0.27 - 0.02j)
T_COMP = (0.56 + 0.05j, 0.58 - 0.05j)


@pytest.fixture(scope="module")
def ctx_comp():
    return QContext(q=Q, prod_terms=60, series_cap=160)


@pytest.mark.parametrize("which,point", [("01", T_LEVEL_01), ("12", T_LEVEL_12)])
def test_level_step_identities(p22, ctx_long, which, point):
    L = 0 if which == "01" else 1
    lo = build_solution_vector(p22, L, IDENT, point, ctx_long)
    hi = build_solution_vector(p22, L + 1, IDENT, point, ctx_long)
    A = build_A(p22, L, IDENT, point, ctx_long)
    B = build_B(p22, L + 1, IDENT, point, ctx_long)
    assert verify_connection(lo, A, hi) < 1e-10
    assert verify_connection(hi, B, lo) < 1e-10
    assert np.abs(A @ B - np.eye(5)).max() < 1e-12


def test_level_step_structure(p22, ctx_long):
    A = build_A(p22, 0, IDENT, T_LEVEL_01, ctx_long)
    B = build_B(p22, 1, IDENT, T_LEVEL_01, ctx_long)
    # only the constant row and the rows of slot 1 move
    for C in (A, B):
        assert C.shape == (5, 5) and C.dtype == complex
        for i in (2, 4):
            assert abs(C[i, i] - 1) < 1e-15
            assert np.abs(np.delete(C[i], i)).max() < 1e-15


def test_swap_step_identities(p12, p22, ctx_long):
    sw = perm_compose(IDENT, perm_transposition(2, 1))
    for p in (p12, p22):
        src = build_solution_vector(p, 2, IDENT, T_SWAP, ctx_long)
        dst = build_solution_vector(p, 2, sw, T_SWAP, ctx_long)
        S = build_S(p, 1, IDENT, T_SWAP, ctx_long)
        assert verify_connection(dst, S, src) < 1e-10


def test_swap_step_wrong_target_is_large(p22, ctx_long):
    src = build_solution_vector(p22, 2, IDENT, T_SWAP, ctx_long)
    S = build_S(p22, 1, IDENT, T_SWAP, ctx_long)
    assert verify_connection(src, S, src) > 1e-2


def test_swap_step_depends_only_on_ratio(p22, ctx_long):
    lam = 1.7 - 0.4j
    S = build_S(p22, 1, IDENT, T_SWAP, ctx_long)
    S_scaled = build_S(
        p22, 1, IDENT, (lam * T_SWAP[0], lam * T_SWAP[1]), ctx_long
    )
    dev = np.abs(S - S_scaled).max()
    assert dev < 1e-13 * np.abs(S).max()


def test_builder_argument_validation(p22, ctx_long):
    with pytest.raises(IndexError):
        build_A(p22, 2, IDENT, T_LEVEL_01, ctx_long)
    with pytest.raises(IndexError):
        build_B(p22, 0, IDENT, T_LEVEL_01, ctx_long)
    with pytest.raises(IndexError):
        build_S(p22, 2, IDENT, T_SWAP, ctx_long)
    with pytest.raises(DomainError):
        build_S(p22, 1, IDENT, (0.3, 0.0), ctx_long)


@pytest.mark.parametrize(
    "build, arg",
    [
        (lambda p, ctx: build_A(
            p, 0, IDENT, (Q**3 * p.c[0] * p.c[1] / (p.a[0] * p.a[1] * p.b[0]), 0.5), ctx),
         "(0.026999999999999996-9.286060967531292e-19j)"),
        (lambda p, ctx: build_B(p, 1, IDENT, (Q**2, 0.5), ctx), "(0.09+0j)"),
        (lambda p, ctx: build_S(p, 1, IDENT, (Q**-1 / p.b[0], 1.0), ctx),
         "(3.3333333333333335+0j)"),
        (lambda p, ctx: build_Stilde(p, 1, SWAP, Q / p.b[1], ctx), "(0.3+0j)"),
    ],
    ids=["A", "B", "S", "Stilde"],
)
def test_builder_theta_pole(p22, ctx_long, build, arg):
    # every entry of the matrix shares this theta denominator
    with pytest.raises(PoleError) as err:
        build(p22, ctx_long)
    assert str(err.value) == f"theta denominator vanished at argument {arg}"


def _planted(q, k):
    """Exponent e with q**e = q**-k (1 + 1e-10): a product denominator
    argument that close to the lattice is a pole."""
    return -k + cmath.log(1 + 1e-10) / cmath.log(q)


def _pole_case(case, q, k):
    """(build, argument): a builder call whose first pole, in entry order,
    is the planted product-denominator argument."""
    q = complex(q)
    alpha, beta, gamma = list(ALPHA[:2]), BETA[:2], list(GAMMA[:2])
    if case in ("A", "A-theta"):
        # entry (0,0): q Bf / a_1 with Bf = b_1 b_2
        alpha[0] = 1 + beta[0] + beta[1] - _planted(q, k)
    elif case == "A-later":
        # q a_1 / Bf sits in rows 1..N only; row 0 reads q Bf / a_1 = q^(2+k)
        alpha[0] = beta[0] + beta[1] - 1 + _planted(q, k)
    elif case == "B":
        # entry (0,0): a_1 / Bf with Bf = b_2
        alpha[0] = beta[1] + _planted(q, k)
    else:
        # the (i, i) entry of the second coupling block: c_2 / (q b_2)
        gamma[1] = 1 + beta[1] + _planted(q, k)
    p = ParamSet(alpha=alpha, beta=beta, gamma=gamma, q=q)
    ctx = QContext(q=q)
    Bf = math.prod(p.b, start=1.0 + 0j)
    t = (0.3 + 0.04j, 0.27 - 0.02j)
    if case == "A":
        return lambda: build_A(p, 0, IDENT, t, ctx), q * Bf / p.a[0]
    if case == "A-theta":
        # t_1 puts the shared theta denominator x b_1 Pa / Pc on q^2 as well
        Pa = math.prod(p.a, start=1.0 + 0j)
        Pc = math.prod(p.c, start=1.0 + 0j)
        t = (q**2 * Pc / (p.b[0] * Pa), t[1])
        return lambda: build_A(p, 0, IDENT, t, ctx), q * Bf / p.a[0]
    if case == "A-later":
        return lambda: build_A(p, 0, IDENT, t, ctx), q * p.a[0] / Bf
    if case == "B":
        return lambda: build_B(p, 2, IDENT, t, ctx), p.a[0] / math.prod(p.b[1:], start=1.0 + 0j)
    arg = p.c[1] / (q * math.prod(p.b[1:], start=1.0 + 0j))
    if case == "S":
        return lambda: build_S(p, 1, IDENT, t, ctx), arg
    return lambda: build_Stilde(p, 1, IDENT, 0.8 - 0.1j, ctx), arg


@pytest.mark.parametrize("q", [0.3, 0.7, 0.5 + 0.2j])
@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("case", ["A", "A-theta", "A-later", "B", "S", "Stilde"])
def test_builder_product_pole_order(case, q, k):
    # a matrix raises the first pole of its entries in row-major order, and
    # within an entry a product denominator before the shared theta one
    build, arg = _pole_case(case, q, k)
    with pytest.raises(PoleError) as err:
        build()
    assert str(err.value) == f"infinite product vanished at argument {arg}"


@pytest.mark.parametrize("q", [0.3, 0.7])
@pytest.mark.parametrize(
    "factor, k, what",
    [
        (theta, -5, "theta denominator"),
        (theta, 0, "theta denominator"),
        (theta, 5, "theta denominator"),
        (qpoch_inf, 0, "infinite product"),
        (qpoch_inf, -3, "infinite product"),
    ],
    ids=["theta-5", "theta0", "theta5", "qpoch0", "qpoch-3"],
)
def test_denominator_near_a_zero_is_a_pole(q, factor, k, what):
    # theta vanishes on q^Z and (x; q)_inf on q^-N: an argument 1e-10 off,
    # relative, is a pole at every k and q, whatever the factor's modulus
    x = q**k * (1 + 1e-10)
    with pytest.raises(PoleError) as err:
        connection._den((x,), factor, QContext(q=q))
    assert str(err.value) == f"{what} vanished at argument {x}"


def test_product_denominator_decides_each_argument():
    # every call decides each argument afresh and keeps nothing in the
    # context memo: the value is the plain product, and a pole anywhere in
    # the list raises with its own text on every call
    ctx = QContext(q=Q)
    args = (0.2 + 0.1j, 0.7 + 0j, 0.2 + 0.1j)
    for _ in range(2):
        assert connection._den(args, qpoch_inf, ctx) == (
            qpoch_inf(args[0], ctx) * qpoch_inf(args[1], ctx) * qpoch_inf(args[2], ctx)
        )
    pole = Q**-2 * (1 + 1e-10) + 0j
    for _ in range(2):
        with pytest.raises(PoleError) as err:
            connection._den((args[1], pole, args[0]), qpoch_inf, ctx)
        assert str(err.value) == f"infinite product vanished at argument {pole}"
    connection._den((args[0],), theta, ctx)
    assert not ctx._memo


BASES = [0.05, 0.3, 0.7, 0.95, 0.5 + 0.2j, -0.6 + 0.3j, 0.05j]


def _batch_args(rng) -> np.ndarray:
    """Seeded complex and real arguments with repeats and signed zeros."""
    z = rng.uniform(-2, 2, (60, 2)) @ np.array([1, 1j])
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    signed = [complex(-0.5, 0.0), complex(-0.5, -0.0), complex(0.0, 0.7), complex(-0.0, 0.7)]
    return np.array([*z, *z[:10], *rng.uniform(-2, 2, 20), *zeros, *signed], dtype=complex)


@pytest.mark.parametrize("q", BASES)
def test_batched_rows_have_qpoch_inf_bits(q):
    # one C-ordered table reduced along axis 1 gives qpoch_inf's bits; a
    # k-major table reduced along axis 0 does not (most parts differ)
    ctx = QContext(q=q)
    x = _batch_args(np.random.default_rng(25))
    ref = np.array([qpoch_inf(v, ctx) for v in x.tolist()])
    assert connection._qpoch_rows(x, ctx).tobytes() == ref.tobytes()


@pytest.mark.parametrize("q", BASES)
def test_flags_cover_every_lattice_hit(q):
    # every argument lattice_hit puts on q^k, k in [-64, 64], is flagged
    rtol = LATTICE_RTOL
    eps = [s * e for e in (0.0, 1e-12, 1e-9, 5e-9, 0.999 * rtol, rtol, 1.5 * rtol, 2 * rtol)
           for s in (1, -1, 1j, -1j, (1 + 1j) / 2**0.5)]
    x = [complex(q) ** k * (1 + e) for k in range(-64, 65) for e in eps]
    hits = [lattice_hit(v, q) is not None for v in x]
    flags = connection._flags(np.array(x), complex(q)).tolist()
    assert sum(hits) > 129
    assert all(f for f, h in zip(flags, hits) if h)


def test_flags_off_the_plane():
    x = [0j, complex(-0.0, -0.0), complex(math.inf, 1.0), complex(1.0, -math.inf),
         complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.nan, math.inf)]
    for q in BASES:
        assert not connection._flags(np.array(x), complex(q)).any()


def test_transposition_word_factorizes():
    assert transposition_word((1, 2, 3)) == []
    word = transposition_word((3, 1, 2))
    assert word == [1, 2]
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = tuple(int(v) for v in rng.permutation(4) + 1)
        word = transposition_word(rho)
        acc = perm_identity(4)
        for r in reversed(word):
            assert 1 <= r <= 3
            acc = perm_compose(acc, perm_transposition(4, r))
        assert acc == rho


def test_transposition_word_refuses_a_non_permutation():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.2: \(2, 5\)"):
        transposition_word((2, 5))


def test_composition_across_two_levels(p12, ctx_comp):
    C = compose_connection(p12, 0, IDENT, 2, IDENT, T_COMP, ctx_comp)
    u0 = build_solution_vector(p12, 0, IDENT, T_COMP, ctx_comp)
    u2 = build_solution_vector(p12, 2, IDENT, T_COMP, ctx_comp)
    assert verify_connection(u2, C, u0) < 1e-9


def test_composition_same_endpoints_is_identity(p22, ctx_long):
    C = compose_connection(p22, 1, IDENT, 1, IDENT, T_LEVEL_12, ctx_long)
    assert np.abs(C - np.eye(5)).max() < 1e-10


def test_composition_word_validation(p12, ctx_comp):
    with pytest.raises(WordError):
        compose_connection(p12, 2, IDENT, 2, IDENT, T_COMP, ctx_comp, word=[1])


def test_verify_connection_validation(p22, ctx_long):
    good = build_solution_vector(p22, 2, IDENT, (0.05, 0.5), ctx_long)
    other = build_solution_vector(p22, 2, IDENT, (0.06, 0.5), ctx_long)
    S = build_S(p22, 1, IDENT, (0.05, 0.5), ctx_long)
    with pytest.raises(ValueError):
        verify_connection(good, S, other)

    bad_point = (1.0, 0.5)
    forged = SolutionVector(
        L=2, sigma=IDENT, t=bad_point, components=(1 + 0j,) * 5, params=p22
    )
    S_bad = build_S(p22, 1, IDENT, bad_point, ctx_long)
    with pytest.raises(DomainError):
        verify_connection(forged, S_bad, forged)


def test_builder_entries_frozen(p23, ctx_long):
    """Every bit of the elementary and composite matrices at one point."""
    sigma = (2, 3, 1)
    t = (0.31 + 0.04j, 0.27 - 0.02j, 0.45 + 0.06j)
    mats = [build_A(p23, L, sigma, t, ctx_long) for L in range(3)]
    mats += [build_B(p23, L, sigma, t, ctx_long) for L in range(1, 4)]
    mats += [build_S(p23, r, sigma, t, ctx_long) for r in (1, 2)]
    mats.append(compose_connection(p23, 0, (1, 2, 3), 1, sigma, t, ctx_long))
    h = hashlib.sha256()
    for m in mats:
        h.update(m.tobytes())
    assert h.hexdigest()[:16] == "8290fbe3f5827aa4"


def test_a_swap_matrix_at_a_zero_coordinate_raises_thetas_domain_error(p12, ctx):
    with pytest.raises(DomainError, match="^theta is undefined at x = 0$"):
        build_S(p12, 1, IDENT, (0, 0.3), ctx)
