"""Elliptic face weights derived from the adjacent-swap connection matrices.

At full split level the swap matrices depend on one coordinate ratio, so
freeing that ratio turns them into spectral-parameter matrices. They satisfy
the Yang-Baxter equation, and specializing all slot parameters to a common
value collapses each coupling block to a 2x2 weight. That weight is constant
diagonally conjugate to a known elliptic solution, which in turn is a
diagonal spectral gauge of the classic face-model weight written with
odd-theta brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError
from .qkernel import (
    ParamSet,
    QContext,
    _rel_maxnorm,
    _require_range,
    cpow,
    perm_compose,
    perm_identity,
    perm_transposition,
    qpoch_inf,
    theta,
)
from .connection import ConnMatrix, _swap_matrix

__all__ = [
    "FaceWeight2x2",
    "build_Stilde",
    "ybe_residual",
    "build_Wtilde",
    "build_W_akm",
    "conj_f",
    "akm_P",
    "akm_ybe_residual",
    "bracket",
    "build_Wprime",
    "wprime_path_ybe_residual",
    "wprime_gauge_residual",
    "GAUGE_TWIST_DEFAULT",
]

_BRACKET_TOL = 1e-12


@dataclass(frozen=True)
class FaceWeight2x2:
    """Four-entry elliptic weight with its construction labels.

    kind is "wtilde" (theta-quotient form), "w_akm" (the conjugated form),
    or "wprime" (bracket-parametrized form). labels holds the two exponent
    or multiplicative parameters of that construction; x is the spectral
    argument, always multiplicative.
    """

    e11: complex
    e12: complex
    e21: complex
    e22: complex
    kind: str
    labels: tuple[complex, ...]
    x: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.e11, self.e12], [self.e21, self.e22]])


def build_Stilde(
    p: ParamSet, r: int, sigma, ratio: complex, ctx: QContext
) -> ConnMatrix:
    """Adjacent-swap matrix with the coordinate ratio freed to an arbitrary
    spectral argument. Entries are those of build_S with slot ordering sigma,
    evaluated at ratio instead of an actual coordinate quotient."""
    _require_range("r", r, 1, p.M - 1)
    ratio = complex(ratio)
    if ratio == 0:
        raise DomainError("spectral argument must be nonzero")
    return _swap_matrix(p, r, tuple(int(v) for v in sigma), ratio, (), ctx)


def _braid_residual(factor, i: int, u: complex, v: complex) -> float:
    """Relative max-norm residual of R_i(u) R_{i+1}(uv) R_i(v) against
    R_{i+1}(v) R_i(uv) R_{i+1}(u). factor(pos, x, right) builds R_pos(x);
    right lists the positions of the factors to its right."""
    sides = []
    for (p1, x1), (p2, x2), (p3, x3) in (
        ((i, u), (i + 1, u * v), (i, v)), ((i + 1, v), (i, u * v), (i + 1, u))
    ):
        sides.append(factor(p1, x1, (p2, p3)) @ factor(p2, x2, (p3,)) @ factor(p3, x3, ()))
    return _rel_maxnorm(*sides)


def ybe_residual(p: ParamSet, r: int, u: complex, v: complex, ctx: QContext) -> float:
    """Relative max-norm residual of the Yang-Baxter equation for the swap
    matrices at positions r and r+1. Each factor's slot ordering applies
    the swaps of the factors to its right, so both sides realize the same
    three-slot reversal."""
    M = p.M
    _require_range("r", r, 1, M - 2)

    def factor(pos, x, right):
        sigma = perm_identity(M)
        for s in reversed(right):
            sigma = perm_compose(sigma, perm_transposition(M, s))
        return build_Stilde(p, pos, sigma, x, ctx).entries

    return _braid_residual(factor, r, complex(u), complex(v))


def _theta_pow(z: complex, ctx: QContext) -> complex:
    return theta(ctx.qpow(z), ctx)


def _weight_head(alpha: complex, beta: complex, u: complex, ctx: QContext):
    """What build_Wtilde and build_W_akm share: the coerced inputs, the theta
    denominator theta(u q^-beta), theta(q^-beta), theta(q^(-alpha-2beta))
    and the entry e11."""
    alpha = complex(alpha)
    beta = complex(beta)
    u = complex(u)
    if u == 0:
        raise DomainError("spectral argument must be nonzero")
    qp = ctx.qpow
    den = theta(u * qp(-beta), ctx)
    if abs(den) <= _BRACKET_TOL:
        raise PoleError("theta denominator vanished at the spectral argument")
    t_mb = _theta_pow(-beta, ctx)
    t_a2b = _theta_pow(-alpha - 2 * beta, ctx)
    e11 = cpow(u, alpha + 3 * beta + 1) * t_mb * theta(u * qp(alpha + 2 * beta + 1), ctx) / (t_a2b * den)
    return alpha, beta, u, den, t_mb, t_a2b, e11


def build_Wtilde(
    alpha: complex, beta: complex, u: complex, ctx: QContext
) -> FaceWeight2x2:
    """2x2 weight in theta-quotient form. This is the coupling block of the
    freed swap matrix when every slot parameter equals a common q-power; see
    the embedding identity exercised in the tests."""
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
    return FaceWeight2x2(e11, e12, e21, e22, "wtilde", (alpha, beta), u)


def build_W_akm(
    alpha: complex, beta: complex, u: complex, ctx: QContext
) -> FaceWeight2x2:
    """2x2 weight in the conjugated form whose diagonal embeddings satisfy
    the Yang-Baxter equation under the per-site parameter shift."""
    alpha, beta, u, den, t_mb, t_a2b, e11 = _weight_head(alpha, beta, u, ctx)
    qp = ctx.qpow
    e12 = (
        qp(beta + 1)
        * cpow(u, beta)
        * theta(u, ctx)
        * _theta_pow(-alpha - beta + 1, ctx)
        * _theta_pow(alpha + 3 * beta + 2, ctx)
        / (t_a2b * t_a2b * den)
    )
    e21 = cpow(u, beta) * theta(u, ctx) / den
    e22 = cpow(u, -alpha - beta) * t_mb * theta(u * qp(-alpha - 2 * beta), ctx) / (t_a2b * den)
    return FaceWeight2x2(e11, e12, e21, e22, "w_akm", (alpha, beta), u)


def conj_f(alpha: complex, beta: complex, ctx: QContext) -> complex:
    """Diagonal conjugation scalar relating the theta-quotient and
    conjugated weights: diag(1, f) and diag(f, 1) both work."""
    qp = ctx.qpow
    num = qpoch_inf(qp(alpha + 3 * beta + 2), ctx) * qpoch_inf(qp(alpha + beta + 1), ctx)
    den = qpoch_inf(qp(alpha + 2 * beta + 2), ctx) * qpoch_inf(qp(alpha + 2 * beta + 1), ctx)
    if abs(den) <= _BRACKET_TOL:
        raise PoleError("conjugation scalar denominator vanished")
    return num / den


def akm_P(
    alpha: complex, beta: complex, n: int, i: int, u: complex, ctx: QContext
) -> np.ndarray:
    """n x n embedding of the conjugated weight at sites (i, i+1), with the
    first parameter decreased by beta per site step; 1 <= i <= n-1.

    The decreasing shift is forced by the block structure of the freed swap
    matrices (the block argument at site r gains one slot exponent per step
    while the weight's second argument is its negative); the increasing
    variant fails the Yang-Baxter check by order one."""
    _require_range("i", i, 1, n - 1)
    W = build_W_akm(alpha - (i - 1) * beta, beta, u, ctx)
    P = np.eye(n, dtype=complex)
    P[i - 1 : i + 1, i - 1 : i + 1] = W.as_array()
    return P


def akm_ybe_residual(
    alpha: complex, beta: complex, n: int, i: int, u: complex, v: complex, ctx: QContext
) -> float:
    """Relative Yang-Baxter residual for the shifted diagonal embeddings at
    adjacent sites i, i+1; 1 <= i <= n-2."""
    _require_range("i", i, 1, n - 2)
    return _braid_residual(
        lambda pos, x, _right: akm_P(alpha, beta, n, pos, x, ctx), i, u, v
    )


def bracket(x: complex, ctx: QContext) -> complex:
    """Odd theta value in multiplicative parametrization:
    q^{1/8} (x^{1/2} - x^{-1/2}) / i times (qx, q/x, q)_inf.
    Vanishes exactly at x = 1; half powers on the principal branch."""
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
) -> FaceWeight2x2:
    """Bracket-parametrized face weight. All additive label arithmetic is
    done multiplicatively: the height argument enters as a_mult, the
    spectral one as u_mult, and a unit step multiplies by unit_mult."""
    a_mult = complex(a_mult)
    u_mult = complex(u_mult)
    unit_mult = complex(unit_mult)
    br_a = bracket(a_mult, ctx)
    br_1 = bracket(unit_mult, ctx)
    if abs(br_a) <= _BRACKET_TOL or abs(br_1) <= _BRACKET_TOL:
        raise PoleError("bracket denominator vanished")
    br_u = bracket(u_mult, ctx)
    e11 = bracket(a_mult / u_mult, ctx) / br_a
    e12 = (
        br_u
        * bracket(a_mult * unit_mult, ctx)
        * bracket(a_mult / unit_mult, ctx)
        / (br_1 * br_a * br_a)
    )
    e21 = br_u / br_1
    e22 = bracket(a_mult * u_mult, ctx) / br_a
    return FaceWeight2x2(e11, e12, e21, e22, "wprime", (a_mult, unit_mult), u_mult)


def _path_operator(
    a_mult: complex, unit_mult: complex, n: int, site: int, x: complex, ctx: QContext
) -> np.ndarray:
    """Local face operator on the 2^n space of height paths. A path is a
    step sequence; the running height starts at a_mult and multiplies by
    unit_mult (up) or its inverse (down) per step. The operator rewrites
    steps (site, site+1): aligned pairs are diagonal with the standard
    crossing weight, opposite pairs mix through the bracket-parametrized
    weight at the pair's shared endpoint height."""
    dim = 1 << n
    cross = bracket(x * unit_mult, ctx) / bracket(unit_mult, ctx)
    out = np.zeros((dim, dim), dtype=complex)
    blocks: dict[int, np.ndarray] = {}
    for state in range(dim):
        steps = [(state >> (n - 1 - s)) & 1 for s in range(n)]
        e1, e2 = steps[site - 1], steps[site]
        if e1 == e2:
            out[state, state] = cross
            continue
        ups = sum(1 for s in steps[: site - 1] if s == 0)
        if ups not in blocks:
            height = a_mult * unit_mult ** (2 * ups - (site - 1))
            W = build_Wprime(height, x, unit_mult, ctx)
            blocks[ups] = W.as_array()
        blk = blocks[ups]
        col = 0 if e1 == 0 else 1
        for row, pair in enumerate(((0, 1), (1, 0))):
            flipped = list(steps)
            flipped[site - 1], flipped[site] = pair
            dst = sum(b << (n - 1 - s) for s, b in enumerate(flipped))
            out[dst, state] = blk[row, col]
    return out


def wprime_path_ybe_residual(
    a_mult: complex, unit_mult: complex, n: int, i: int, u: complex, v: complex, ctx: QContext
) -> float:
    """Relative Yang-Baxter residual for the bracket-parametrized weight in
    the height-path basis, operators at adjacent sites i, i+1 of an n-step
    path; 1 <= i <= n-2.

    The height argument of each weight is the running path height, so the
    shift rule is state-dependent rather than a fixed per-site offset; no
    static multiplicative height step satisfies the equation (scanning the
    step leaves a residual above 6e-2)."""
    _require_range("i", i, 1, n - 2)
    return _braid_residual(
        lambda pos, x, _right: _path_operator(a_mult, unit_mult, n, pos, x, ctx), i, u, v
    )


GAUGE_TWIST_DEFAULT = "balanced"


def wprime_gauge_residual(
    alpha: complex,
    beta: complex,
    x: complex,
    ctx: QContext,
    twist: complex | str = GAUGE_TWIST_DEFAULT,
) -> float:
    """Relative residual of the diagonal spectral gauge carrying the
    bracket-parametrized weight onto the conjugated one:

        x^{1/2} diag(x^{-g1}, m^{-1} x^{-g2}) W' diag(x^{-g1}, m x^{-g2})
            = theta(x q^{-beta}) / theta(q^{-beta}) * W(alpha, beta; x)

    with g1 = (-alpha-3*beta)/2, g2 = (alpha+beta)/2 and the balancing
    constant m = q^{(beta+1)/2}. The second diagonal slot needs that
    constant because the bracket normalization of a unit step differs from
    the theta normalization by exactly it; passing twist=1 evaluates the
    plain-scalar variant, which is off by m on each off-diagonal entry."""
    alpha = complex(alpha)
    beta = complex(beta)
    x = complex(x)
    qp = ctx.qpow
    if twist == GAUGE_TWIST_DEFAULT:
        m = qp((beta + 1) / 2)
    else:
        m = complex(twist)
        if m == 0:
            raise DomainError("twist must be nonzero")
    a_mult = qp(-alpha - 2 * beta)
    unit_mult = qp(beta + 1)
    Wp = build_Wprime(a_mult, x, unit_mult, ctx).as_array()
    g1 = (-alpha - 3 * beta) / 2
    g2 = (alpha + beta) / 2
    left = np.diag([cpow(x, -g1), cpow(x, -g2) / m])
    right = np.diag([cpow(x, -g1), cpow(x, -g2) * m])
    lhs = cpow(x, 0.5) * (left @ Wp @ right)
    den = _theta_pow(-beta, ctx)
    if abs(den) <= _BRACKET_TOL:
        raise PoleError("theta normalization vanished")
    rhs = theta(x * qp(-beta), ctx) / den * build_W_akm(alpha, beta, x, ctx).as_array()
    return _rel_maxnorm(lhs, rhs)
