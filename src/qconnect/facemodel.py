"""Elliptic face weights derived from the adjacent-swap connection matrices.

At full split level the swap matrices depend on one coordinate ratio, so
freeing that ratio turns them into spectral-parameter matrices. They satisfy
the Yang-Baxter equation, and specializing all slot parameters to a common
value collapses each coupling block to a 2x2 weight: with every beta_i = beta,
the (k, r), (k, r+1) block of build_Stilde(p, r, identity, u) is
build_Wtilde(gamma_k - 2 - (M - r - 2) beta, -beta, u). That weight is constant
diagonally conjugate to a known elliptic solution, which in turn is a
diagonal spectral gauge of the classic face-model weight written with
odd-theta brackets.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .qkernel import (
    ParamSet,
    QContext,
    _compose,
    _rel_maxnorm,
    _require_range,
    _validate_perm,
    cpow,
    perm_identity,
    perm_transposition,
    qpoch_inf,
    theta,
)
from .connection import _den, _swap_matrix

__all__ = [
    "build_Stilde",
    "ybe_residual",
    "build_Wtilde",
    "build_W_akm",
    "conj_f",
    "bracket",
    "build_Wprime",
    "conjugacy_residual",
    "wprime_gauge_residual",
]


def build_Stilde(
    p: ParamSet, r: int, sigma, ratio: complex, ctx: QContext
) -> np.ndarray:
    """Adjacent-swap matrix with the coordinate ratio freed to an arbitrary
    spectral argument. Entries are those of build_S with slot ordering sigma,
    evaluated at ratio instead of an actual coordinate quotient."""
    r = _require_range("r", r, 1, p.M - 1)
    ratio = complex(ratio)
    if ratio == 0:
        raise DomainError("spectral argument must be nonzero")
    return _swap_matrix(p, r, _validate_perm(sigma, p.M), ratio, ctx)


def ybe_residual(p: ParamSet, r: int, u: complex, v: complex, ctx: QContext) -> float:
    """Relative max-norm residual of the Yang-Baxter equation for the swap
    matrices at positions r and r+1:

        R_r(u) R_{r+1}(uv) R_r(v)  against  R_{r+1}(v) R_r(uv) R_{r+1}(u).

    Each factor's slot ordering applies the swaps of the factors to its
    right, so both sides realize the same three-slot reversal."""
    M = p.M
    r = _require_range("r", r, 1, M - 2)
    u = complex(u)
    v = complex(v)

    def product(factors):
        mats = []
        for k, (pos, x) in enumerate(factors):
            sigma = perm_identity(M)
            for s, _ in reversed(factors[k + 1 :]):
                sigma = _compose(sigma, perm_transposition(M, s))
            mats.append(build_Stilde(p, pos, sigma, x, ctx))
        return mats[0] @ mats[1] @ mats[2]

    lhs = product(((r, u), (r + 1, u * v), (r, v)))
    rhs = product(((r + 1, v), (r, u * v), (r + 1, u)))
    return _rel_maxnorm(lhs, rhs)


def _theta_pow(z: complex, ctx: QContext) -> complex:
    return theta(ctx.qpow(z), ctx)


def _weight_head(alpha: complex, beta: complex, u: complex, ctx: QContext):
    """What build_Wtilde and build_W_akm share: the coerced inputs, the
    spectral theta theta(u q^-beta), theta(q^-beta), the height theta
    theta(q^(-alpha-2beta)) and the entry e11. _den decides the spectral and
    height thetas; every other denominator of the two weights vanishes only
    where the height theta does."""
    alpha = complex(alpha)
    beta = complex(beta)
    u = complex(u)
    if u == 0:
        raise DomainError("spectral argument must be nonzero")
    qp = ctx.qpow
    den = _den((u * qp(-beta),), theta, ctx)
    t_mb = _theta_pow(-beta, ctx)
    t_a2b = _den((qp(-alpha - 2 * beta),), theta, ctx)
    e11 = cpow(u, alpha + 3 * beta + 1) * t_mb * theta(u * qp(alpha + 2 * beta + 1), ctx) / (t_a2b * den)
    return alpha, beta, u, den, t_mb, t_a2b, e11


def _nonzero(den: complex, entry: str) -> complex:
    """den, a product of factors that _den found nonzero, or DomainError where
    it underflows to 0: near |q| = 1 each theta is tiny (1e-142 at q = 0.99)."""
    if den == 0:
        raise DomainError(f"denominator of {entry} underflows to 0")
    return den


def build_Wtilde(
    alpha: complex, beta: complex, u: complex, ctx: QContext
) -> np.ndarray:
    """2x2 weight in theta-quotient form: the coupling block of the freed
    swap matrix when every slot parameter equals a common q-power. With
    every beta_i = b, the (k, r), (k, r+1) block of
    build_Stilde(p, r, identity, u) is this weight at
    alpha = gamma_k - 2 - (M - r - 2) b and beta = -b."""
    alpha, beta, u, den, t_mb, _, e11 = _weight_head(alpha, beta, u, ctx)
    qp = ctx.qpow
    e12 = (
        cpow(u, beta)
        * theta(u, ctx)
        * qpoch_inf(qp(-alpha - beta), ctx)
        * qpoch_inf(qp(-alpha - 3 * beta - 1), ctx)
        / (den * qpoch_inf(qp(-alpha - 2 * beta), ctx) * qpoch_inf(qp(-alpha - 2 * beta - 1), ctx))
    )
    e21 = (
        cpow(u, beta)
        * theta(u, ctx)
        * qpoch_inf(qp(alpha + 3 * beta + 2), ctx)
        * qpoch_inf(qp(alpha + beta + 1), ctx)
        / (den * qpoch_inf(qp(alpha + 2 * beta + 2), ctx) * qpoch_inf(qp(alpha + 2 * beta + 1), ctx))
    )
    e22 = (
        cpow(u, -alpha - beta - 1)
        * theta(u * qp(-alpha - 2 * beta - 1), ctx)
        * t_mb
        / (den * _theta_pow(-alpha - 2 * beta - 1, ctx))
    )
    return np.array([[e11, e12], [e21, e22]])


def build_W_akm(
    alpha: complex, beta: complex, u: complex, ctx: QContext
) -> np.ndarray:
    """2x2 weight in the conjugated form: the theta-quotient weight
    conjugated by diag(1, conj_f)."""
    alpha, beta, u, den, t_mb, t_a2b, e11 = _weight_head(alpha, beta, u, ctx)
    qp = ctx.qpow
    e12 = (
        qp(beta + 1)
        * cpow(u, beta)
        * theta(u, ctx)
        * _theta_pow(-alpha - beta + 1, ctx)
        * _theta_pow(alpha + 3 * beta + 2, ctx)
        / _nonzero(t_a2b * t_a2b * den, "W e12")
    )
    e21 = cpow(u, beta) * theta(u, ctx) / den
    e22 = cpow(u, -alpha - beta) * t_mb * theta(u * qp(-alpha - 2 * beta), ctx) / (t_a2b * den)
    return np.array([[e11, e12], [e21, e22]])


def conj_f(alpha: complex, beta: complex, ctx: QContext) -> complex:
    """Diagonal conjugation scalar relating the theta-quotient and
    conjugated weights: diag(1, f) and diag(f, 1) both work."""
    qp = ctx.qpow
    num = qpoch_inf(qp(alpha + 3 * beta + 2), ctx) * qpoch_inf(qp(alpha + beta + 1), ctx)
    return num / _den((qp(alpha + 2 * beta + 2), qp(alpha + 2 * beta + 1)), qpoch_inf, ctx)


def bracket(x: complex, ctx: QContext) -> complex:
    """Odd theta value in multiplicative parametrization:
    q^{1/8} (x^{1/2} - x^{-1/2}) / i times (qx, q/x, q)_inf.
    Vanishes exactly on q^Z: at x = 1 by its sine part and at the other
    powers by a product factor. Half powers on the principal branch."""
    x = complex(x)
    if x == 0:
        raise DomainError("bracket argument must be nonzero")
    q = ctx.q
    sin_part = -1j * (cpow(x, 0.5) - cpow(x, -0.5))
    return (
        ctx.qpow(0.125)
        * sin_part
        * qpoch_inf(q * x, ctx)
        * qpoch_inf(q / x, ctx)
        * qpoch_inf(q, ctx)
    )


def build_Wprime(
    a_mult: complex, u_mult: complex, unit_mult: complex, ctx: QContext
) -> np.ndarray:
    """Bracket-parametrized face weight. All additive label arithmetic is
    done multiplicatively: the height argument enters as a_mult, the
    spectral one as u_mult, and a unit step multiplies by unit_mult."""
    a_mult = complex(a_mult)
    u_mult = complex(u_mult)
    unit_mult = complex(unit_mult)
    br_a = _den((a_mult,), bracket, ctx)
    br_1 = _den((unit_mult,), bracket, ctx)
    br_u = bracket(u_mult, ctx)
    e11 = bracket(a_mult / u_mult, ctx) / br_a
    e12 = (
        br_u
        * bracket(a_mult * unit_mult, ctx)
        * bracket(a_mult / unit_mult, ctx)
        / _nonzero(br_1 * br_a * br_a, "W' e12")
    )
    e21 = br_u / br_1
    e22 = bracket(a_mult * u_mult, ctx) / br_a
    return np.array([[e11, e12], [e21, e22]])


def conjugacy_residual(alpha: complex, beta: complex, u: complex, ctx: QContext) -> float:
    """Relative residual of the constant diagonal conjugacy carrying the
    theta-quotient weight onto the conjugated one, with f = conj_f:

        W = diag(1, f)^-1 Wtilde diag(1, f) = diag(f, 1) Wtilde diag(f, 1)^-1

    The larger max-norm deviation of the two forms, over max |W|."""
    W = build_W_akm(alpha, beta, u, ctx)
    Wt = build_Wtilde(alpha, beta, u, ctx)
    f = conj_f(alpha, beta, ctx)
    A = np.diag([1.0 + 0j, f])
    B = np.diag([f, 1.0 + 0j])
    scale = np.abs(W).max()
    d1 = np.abs(W - np.linalg.inv(A) @ Wt @ A).max()
    d2 = np.abs(W - B @ Wt @ np.linalg.inv(B)).max()
    return float(max(d1, d2) / scale)


def wprime_gauge_residual(alpha: complex, beta: complex, x: complex, ctx: QContext) -> float:
    """Relative residual of the diagonal spectral gauge carrying the
    bracket-parametrized weight onto the conjugated one:

        x^{1/2} diag(x^{-g1}, m^{-1} x^{-g2}) W' diag(x^{-g1}, m x^{-g2})
            = theta(x q^{-beta}) / theta(q^{-beta}) * W(alpha, beta; x)

    with g1 = (-alpha-3*beta)/2, g2 = (alpha+beta)/2 and the balancing
    constant m = q^{(beta+1)/2}. The second diagonal slot needs that
    constant because the bracket normalization of a unit step differs from
    the theta normalization by exactly it; without it (m = 1) each
    off-diagonal entry is off by m."""
    alpha = complex(alpha)
    beta = complex(beta)
    x = complex(x)
    qp = ctx.qpow
    m = qp((beta + 1) / 2)
    a_mult = qp(-alpha - 2 * beta)
    unit_mult = qp(beta + 1)
    Wp = build_Wprime(a_mult, x, unit_mult, ctx)
    g1 = (-alpha - 3 * beta) / 2
    g2 = (alpha + beta) / 2
    left = np.diag([cpow(x, -g1), cpow(x, -g2) / m])
    right = np.diag([cpow(x, -g1), cpow(x, -g2) * m])
    lhs = cpow(x, 0.5) * (left @ Wp @ right)
    den = _den((qp(-beta),), theta, ctx)
    rhs = theta(x * qp(-beta), ctx) / den * build_W_akm(alpha, beta, x, ctx)
    return _rel_maxnorm(lhs, rhs)
