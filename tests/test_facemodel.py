"""Elliptic face weights: braid identity, conjugacy, gauge."""

import math

import numpy as np
import pytest

from qconnect import (
    DomainError,
    ParamSet,
    PoleError,
    QContext,
    bracket,
    build_S,
    build_Stilde,
    build_W_akm,
    build_Wprime,
    build_Wtilde,
    component_index,
    conj_f,
    conjugacy_residual,
    cpow,
    perm_compose,
    perm_identity,
    perm_transposition,
    theta,
    wprime_gauge_residual,
    ybe_residual,
)
from conftest import ALPHA, GAMMA, Q

AL_W = 0.47 + 0.13j
BE_W = 0.31 - 0.09j
U_W = 0.7 + 0.3j


def test_bracket_against_trig_product(ctx):
    # odd Jacobi theta as the classical sine-times-product formula
    u = 0.37
    prod = 1.0
    for k in range(1, 201):
        prod *= (1 - 2 * Q**k * math.cos(2 * u) + Q ** (2 * k)) * (1 - Q**k)
    ref = 2 * Q**0.125 * math.sin(u) * prod
    got = bracket(np.exp(2j * u), ctx)
    assert abs(got - ref) < 1e-10 * abs(ref)


def test_bracket_symmetries(ctx):
    assert bracket(1.0, ctx) == 0.0
    x = 0.83 + 0.21j
    assert abs(bracket(1 / x, ctx) + bracket(x, ctx)) < 1e-12 * abs(bracket(x, ctx))
    with pytest.raises(DomainError):
        bracket(0.0, ctx)


def test_swap_weight_matches_ratio_form(p13, ctx):
    t3 = (0.45 + 0.05j, 0.4 - 0.03j, 0.35 + 0.02j)
    ident = perm_identity(3)
    S = build_S(p13, 1, ident, t3, ctx)
    St = build_Stilde(p13, 1, ident, t3[0] / t3[1], ctx)
    assert np.abs(S - St).max() < 1e-14


def test_swap_weight_validation(p13, ctx):
    ident = perm_identity(3)
    with pytest.raises(IndexError):
        build_Stilde(p13, 0, ident, 0.9, ctx)
    with pytest.raises(IndexError):
        build_Stilde(p13, 3, ident, 0.9, ctx)
    with pytest.raises(DomainError):
        build_Stilde(p13, 1, ident, 0.0, ctx)


def test_braid_identity(p13, ctx):
    assert ybe_residual(p13, 1, 0.9 + 0.2j, 1.1 - 0.15j, ctx) < 1e-12
    with pytest.raises(IndexError):
        ybe_residual(p13, 0, 0.9, 1.1, ctx)
    with pytest.raises(IndexError):
        ybe_residual(p13, 2, 0.9, 1.1, ctx)


def test_braid_identity_equal_exponents(ctx):
    bc = 0.41 - 0.06j
    p_eq = ParamSet(alpha=ALPHA[:1], beta=(bc, bc, bc), gamma=GAMMA[:1], q=Q)
    assert ybe_residual(p_eq, 1, 0.9 + 0.2j, 1.1 - 0.15j, ctx) < 1e-12


def _six_factor_residual(factors):
    lhs = factors[0] @ factors[1] @ factors[2]
    rhs = factors[3] @ factors[4] @ factors[5]
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    return float(np.abs(lhs - rhs).max() / scale)


def test_braid_identity_is_sharp(p13, ctx):
    # the identity must break when one factor is nudged, and must not
    # depend on the overall normalization of the weights
    u, v = 0.9 + 0.2j, 1.1 - 0.15j
    ident = perm_identity(3)
    s1 = perm_transposition(3, 1)
    s2 = perm_transposition(3, 2)
    factors = [
        build_Stilde(p13, 1, perm_compose(s1, s2), u, ctx),
        build_Stilde(p13, 2, s1, u * v, ctx),
        build_Stilde(p13, 1, ident, v, ctx),
        build_Stilde(p13, 2, perm_compose(s2, s1), v, ctx),
        build_Stilde(p13, 1, s2, u * v, ctx),
        build_Stilde(p13, 2, ident, u, ctx),
    ]
    base = _six_factor_residual(factors)
    assert base < 1e-12

    nudged = [m.copy() for m in factors]
    nudged[0][1, 1] += 1e-3 * np.abs(nudged[0]).max()
    assert _six_factor_residual(nudged) > 1e-5

    lam = 2.3 - 0.7j
    scaled = [lam * m for m in factors]
    assert abs(_six_factor_residual(scaled) - base) < 1e-12


@pytest.mark.parametrize("q", [Q, 0.5 + 0.2j])
def test_swap_block_is_face_weight(q):
    # with every beta_i = beta, the (k, r), (k, r+1) block of the freed swap
    # matrix is the theta-quotient weight at alpha' = gamma_k - 2 - (M-r-2) beta
    # and -beta; a shifted alpha' misses by O(1), so the match is not loose
    ctx_q = QContext(q=q, prod_terms=60)
    for N in (1, 2):
        for M in (2, 3, 4):
            p = ParamSet(alpha=ALPHA[:N], beta=(BE_W,) * M, gamma=GAMMA[:N], q=q)
            for r in range(1, M):
                S = build_Stilde(p, r, perm_identity(M), U_W, ctx_q)
                for k in range(1, N + 1):
                    ij = [component_index((k, r), M), component_index((k, r + 1), M)]
                    block = S[np.ix_(ij, ij)]
                    alpha = GAMMA[k - 1] - 2 - (M - r - 2) * BE_W
                    W = build_Wtilde(alpha, -BE_W, U_W, ctx_q)
                    assert np.abs(block - W).max() < 1e-13 * np.abs(W).max()
                    for shift in (1.0, 0.5):
                        W_off = build_Wtilde(alpha + shift, -BE_W, U_W, ctx_q)
                        assert np.abs(block - W_off).max() > 0.1 * np.abs(W_off).max()


def test_two_state_weight_conjugacy(ctx):
    W = build_W_akm(AL_W, BE_W, U_W, ctx)
    Wt = build_Wtilde(AL_W, BE_W, U_W, ctx)
    f = conj_f(AL_W, BE_W, ctx)
    A = np.diag([1.0 + 0j, f])
    B = np.diag([f, 1.0 + 0j])
    scale = np.abs(W).max()
    assert np.abs(np.linalg.inv(A) @ Wt @ A - W).max() < 1e-12 * scale
    assert np.abs(B @ Wt @ np.linalg.inv(B) - W).max() < 1e-12 * scale
    assert conjugacy_residual(AL_W, BE_W, U_W, ctx) < 1e-12
    # the conjugation is not vacuous: the two weights differ outright
    assert np.abs(Wt - W).max() > 1e-3 * scale


def test_two_state_weight_pole(ctx):
    u_pole = ctx.qpow(BE_W) * Q
    with pytest.raises(PoleError):
        build_W_akm(AL_W, BE_W, u_pole, ctx)
    with pytest.raises(PoleError):
        conjugacy_residual(AL_W, BE_W, u_pole, ctx)


_WEIGHT_CHECKS = [build_Wtilde, build_W_akm, conjugacy_residual]
_BASES = [0.3, 0.7, 0.5 + 0.2j]


@pytest.mark.parametrize("q", _BASES)
@pytest.mark.parametrize("k", [-5, 0, 5])
@pytest.mark.parametrize("check", _WEIGHT_CHECKS)
def test_spectral_theta_near_a_zero_is_a_pole(q, k, check):
    # theta(u q^-beta) vanishes on q^Z: a u 1e-10 off, relative, is a pole
    # at every k and base, whatever the theta's modulus there
    ctx_q = QContext(q=q)
    alpha, beta = 0.45, 0.3
    u = q**k * (1 + 1e-10) * ctx_q.qpow(beta)
    with pytest.raises(PoleError, match="^theta denominator vanished"):
        check(alpha, beta, u, ctx_q)


@pytest.mark.parametrize("q", _BASES)
@pytest.mark.parametrize("alpha, beta", [(0.2, 0.4), (0.3 + 0.1j, 0.35 - 0.05j)])
@pytest.mark.parametrize("check", _WEIGHT_CHECKS)
def test_height_theta_zero_is_a_pole(q, alpha, beta, check):
    # alpha + 2 beta = 1: the height theta theta(q^(-alpha-2beta)) vanishes,
    # and with it the weights' product denominators
    with pytest.raises(PoleError, match="^theta denominator vanished"):
        check(alpha, beta, 0.9 + 0.1j, QContext(q=q))


@pytest.mark.parametrize("q", _BASES)
@pytest.mark.parametrize("k", [-3, 0, 3])
def test_bracket_denominator_near_a_zero_is_a_pole(q, k):
    # a bracket vanishes on all of q^Z, as theta does
    ctx_q = QContext(q=q)
    x = q**k * (1 + 1e-10)
    a0 = ctx_q.qpow(-AL_W - 2 * BE_W)
    unit = ctx_q.qpow(BE_W + 1)
    for a_mult, unit_mult in ((x, unit), (a0, x)):
        with pytest.raises(PoleError) as err:
            build_Wprime(a_mult, U_W, unit_mult, ctx_q)
        assert str(err.value) == f"bracket denominator vanished at argument {complex(x)}"


def test_quotient_weight_basics(ctx):
    a0 = ctx.qpow(-AL_W - 2 * BE_W)
    unit = ctx.qpow(BE_W + 1)
    Wp = build_Wprime(a0, 1.0, unit, ctx)
    assert np.abs(Wp - np.eye(2)).max() < 1e-12
    with pytest.raises(PoleError):
        build_Wprime(1.0, U_W, unit, ctx)


def test_gauge_identity(ctx):
    x = 0.64 + 0.18j
    assert wprime_gauge_residual(AL_W, BE_W, x, ctx) < 1e-12
    # the same gauge without the balancing constant (m = 1) misses by an
    # order-one margin
    qp = ctx.qpow
    Wp = build_Wprime(qp(-AL_W - 2 * BE_W), x, qp(BE_W + 1), ctx)
    gauge = np.diag([cpow(x, (AL_W + 3 * BE_W) / 2), cpow(x, -(AL_W + BE_W) / 2)])
    lhs = cpow(x, 0.5) * (gauge @ Wp @ gauge)
    rhs = theta(x * qp(-BE_W), ctx) / theta(qp(-BE_W), ctx) * build_W_akm(AL_W, BE_W, x, ctx)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    assert np.abs(lhs - rhs).max() / scale > 1e-3


def test_face_weights_name_a_denominator_that_underflows():
    # at q = 0.99 each theta is about 1e-142, and a product of three is 0
    from qconnect.cli import RunConfig, run_suite

    records = run_suite(RunConfig(q=0.99, N=1, M=1, samples=4, suites=("facemodel",))).records
    assert len(records) == 8
    assert {(r.check, r.error) for r in records} == {
        ("gauge transfer", "DomainError: denominator of W' e12 underflows to 0"),
        ("weight conjugacy", "DomainError: denominator of W e12 underflows to 0"),
    }
