"""Connection matrices: single steps, compositions, braid words."""

import hashlib

import numpy as np
import pytest

from qconnect import (
    DomainError,
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
from qconnect import QContext
from conftest import Q

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
