"""Connection matrices between local solution families.

Three elementary moves act on the family labels (split level L, slot ordering
sigma): raising the split level by one, lowering it by one, and swapping two
adjacent slots at full split level. Each move has an explicit matrix whose
entries are infinite-product constants times a theta-function quotient times
a principal power of one coordinate (or coordinate ratio). The matrices are
pseudo-constant: every entry is invariant under scaling its coordinate by q.

Matrix layout matches the solution vector: index 0 first, then (k, l) in
row-major order, so the matrices are identity outside row/column 0 and the
rows/columns attached to the moved slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError, WordError
from .qkernel import (
    ParamSet,
    QContext,
    _rel_maxnorm,
    _require_range,
    cpow,
    perm_compose,
    perm_inverse,
    perm_transposition,
    permute_seq,
    qpoch_inf,
    theta,
)
from .hyperseries import SolutionVector, component_index, in_domain

__all__ = [
    "ConnMatrix",
    "build_A",
    "build_B",
    "build_S",
    "compose_connection",
    "verify_connection",
    "transposition_word",
]

_THETA_TOL = 1e-12


@dataclass(frozen=True)
class ConnMatrix:
    """Connection matrix with provenance.

    kind is "A" (split level L -> matrix to level L+1 components), "B"
    (level L -> level L-1), "S" (adjacent slot swap at full split), or
    "composite". eval_point holds the coordinate values the entries actually
    depend on; t is the full evaluation point the matrix was built at.
    """

    kind: str
    L: int
    sigma: tuple[int, ...]
    r: int | None
    entries: np.ndarray
    eval_point: tuple[complex, ...]
    t: tuple[complex, ...]

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _quot(num_args, den_args, f, ctx: QContext) -> complex:
    """prod f(num_args) / prod f(den_args) for f = qpoch_inf or theta; a
    vanishing denominator factor raises PoleError."""
    num = 1.0 + 0j
    for x in num_args:
        num *= f(x, ctx)
    den = 1.0 + 0j
    for x in den_args:
        val = f(x, ctx)
        if abs(val) <= _THETA_TOL:
            what = "theta denominator" if f is theta else "infinite product"
            raise PoleError(f"{what} vanished at argument {x}")
        den *= val
    return num / den


def build_A(p: ParamSet, L: int, sigma, t, ctx: QContext) -> ConnMatrix:
    """Matrix sending the level-(L+1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L+1; 0 <= L <= M-1."""
    N, M = p.N, p.M
    _require_range("L", L, 0, M - 1)
    sigma = tuple(int(v) for v in sigma)
    pp = p.permuted(sigma)
    tt = permute_seq(tuple(complex(v) for v in t), sigma)
    q = p.q
    bp = pp.beta
    b = pp.b
    x = tt[L]
    Bfull = math.prod(b[L:], start=1.0 + 0j)
    Btail = math.prod(b[L + 1 :], start=1.0 + 0j)
    Pa = math.prod(p.a, start=1.0 + 0j)
    Pc = math.prod(p.c, start=1.0 + 0j)
    den_theta = (x * b[L] * Pa / Pc,)
    size = N * M + 1
    A = np.eye(size, dtype=complex)

    A[0, 0] = (
        _quot(
            [q * Btail / aj for aj in p.a] + [q * Bfull / cj for cj in p.c],
            [q * Bfull / aj for aj in p.a] + [q * Btail / cj for cj in p.c],
            qpoch_inf, ctx,
        )
        * _quot((x * Pa / Pc,), den_theta, theta, ctx)
        * cpow(x, -bp[L])
    )
    for d in range(1, N + 1):
        cd = p.c[d - 1]
        col = component_index((d, L + 1), M)
        A[0, col] = (
            _quot(
                [cd / aj for aj in p.a]
                + [q * Bfull / cj for j, cj in enumerate(p.c, 1) if j != d]
                + [b[L]],
                [q * Bfull / aj for aj in p.a]
                + [cd / cj for j, cj in enumerate(p.c, 1) if j != d]
                + [cd / (q * Btail)],
                qpoch_inf, ctx,
            )
            * _quot((x * Pa * cd / (q * Btail * Pc),), den_theta, theta, ctx)
            * cpow(x, -1.0 - sum(bp[L:]) + p.gamma[d - 1])
        )
    for k in range(1, N + 1):
        ak = p.a[k - 1]
        row = component_index((k, L + 1), M)
        A[row, 0] = (
            _quot(
                [q * Btail / aj for j, aj in enumerate(p.a, 1) if j != k]
                + [q / b[L]]
                + [q * ak / cj for cj in p.c],
                [q * ak / aj for j, aj in enumerate(p.a, 1) if j != k]
                + [q * ak / Bfull]
                + [q * Btail / cj for cj in p.c],
                qpoch_inf, ctx,
            )
            * _quot((x * Bfull * Pa / (ak * Pc),), den_theta, theta, ctx)
            * cpow(x, -p.alpha[k - 1] + sum(bp[L + 1 :]))
        )
        for d in range(1, N + 1):
            cd = p.c[d - 1]
            col = component_index((d, L + 1), M)
            A[row, col] = (
                _quot(
                    [cd / aj for j, aj in enumerate(p.a, 1) if j != k]
                    + [cd / Bfull]
                    + [q * ak / cj for j, cj in enumerate(p.c, 1) if j != d]
                    + [ak / Btail],
                    [q * ak / aj for j, aj in enumerate(p.a, 1) if j != k]
                    + [q * ak / Bfull]
                    + [cd / cj for j, cj in enumerate(p.c, 1) if j != d]
                    + [cd / (q * Btail)],
                    qpoch_inf, ctx,
                )
                * _quot((x * b[L] * Pa * cd / (q * Pc * ak),), den_theta, theta, ctx)
                * cpow(x, -1.0 - p.alpha[k - 1] + p.gamma[d - 1])
            )
    return ConnMatrix(
        kind="A",
        L=L,
        sigma=sigma,
        r=None,
        entries=A,
        eval_point=(x,),
        t=tuple(complex(v) for v in t),
    )


def build_B(p: ParamSet, L: int, sigma, t, ctx: QContext) -> ConnMatrix:
    """Matrix sending the level-(L-1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L; 1 <= L <= M."""
    N, M = p.N, p.M
    _require_range("L", L, 1, M)
    sigma = tuple(int(v) for v in sigma)
    pp = p.permuted(sigma)
    tt = permute_seq(tuple(complex(v) for v in t), sigma)
    q = p.q
    bp = pp.beta
    b = pp.b
    x = tt[L - 1]
    Bfull = math.prod(b[L - 1 :], start=1.0 + 0j)
    Btail = math.prod(b[L:], start=1.0 + 0j)
    den_theta = (x,)
    size = N * M + 1
    B = np.eye(size, dtype=complex)

    B[0, 0] = (
        _quot(
            [aj / Btail for aj in p.a] + [cj / Bfull for cj in p.c],
            [aj / Bfull for aj in p.a] + [cj / Btail for cj in p.c],
            qpoch_inf, ctx,
        )
        * _quot((x * b[L - 1],), den_theta, theta, ctx)
        * cpow(x, bp[L - 1])
    )
    for d in range(1, N + 1):
        ad = p.a[d - 1]
        col = component_index((d, L), M)
        B[0, col] = (
            _quot(
                [cj / ad for cj in p.c]
                + [aj / Btail for j, aj in enumerate(p.a, 1) if j != d]
                + [b[L - 1]],
                [cj / Btail for cj in p.c]
                + [aj / ad for j, aj in enumerate(p.a, 1) if j != d]
                + [Bfull / ad],
                qpoch_inf, ctx,
            )
            * _quot((x * ad / Btail,), den_theta, theta, ctx)
            * cpow(x, p.alpha[d - 1] - sum(bp[L:]))
        )
    for k in range(1, N + 1):
        ck = p.c[k - 1]
        row = component_index((k, L), M)
        B[row, 0] = (
            _quot(
                [cj / Bfull for j, cj in enumerate(p.c, 1) if j != k]
                + [q / b[L - 1]]
                + [q * aj / ck for aj in p.a],
                [q * cj / ck for j, cj in enumerate(p.c, 1) if j != k]
                + [q * q * Btail / ck]
                + [aj / Bfull for aj in p.a],
                qpoch_inf, ctx,
            )
            * _quot((x * q * Bfull / ck,), den_theta, theta, ctx)
            * cpow(x, 1.0 + sum(bp[L - 1 :]) - p.gamma[k - 1])
        )
        for d in range(1, N + 1):
            ad = p.a[d - 1]
            col = component_index((d, L), M)
            B[row, col] = (
                _quot(
                    [cj / ad for j, cj in enumerate(p.c, 1) if j != k]
                    + [q * Btail / ad]
                    + [q * aj / ck for j, aj in enumerate(p.a, 1) if j != d]
                    + [q * Bfull / ck],
                    [q * cj / ck for j, cj in enumerate(p.c, 1) if j != k]
                    + [q * q * Btail / ck]
                    + [aj / ad for j, aj in enumerate(p.a, 1) if j != d]
                    + [Bfull / ad],
                    qpoch_inf, ctx,
                )
                * _quot((x * q * ad / ck,), den_theta, theta, ctx)
                * cpow(x, 1.0 + p.alpha[d - 1] - p.gamma[k - 1])
            )
    return ConnMatrix(
        kind="B",
        L=L,
        sigma=sigma,
        r=None,
        entries=B,
        eval_point=(x,),
        t=tuple(complex(v) for v in t),
    )


def _swap_block(p: ParamSet, beta, b, k: int, r: int, u: complex, ctx: QContext):
    """2x2 block of the adjacent-swap matrix for coupling slot k, acting on
    positions (r, r+1) of the slots reordered to beta, b."""
    q = p.q
    ck = p.c[k - 1]
    gk = p.gamma[k - 1]
    P1 = math.prod(b[r:], start=1.0 + 0j)
    P2 = math.prod(b[r + 1 :], start=1.0 + 0j)
    Pr = b[r - 1] * P2
    Pfull = b[r - 1] * P1
    den_theta = (u * b[r - 1],)
    s11 = (
        _quot([q / b[r], b[r - 1]], [q * q * Pr / ck, ck / (q * P1)], qpoch_inf, ctx)
        * _quot((u * ck / (q * P1),), den_theta, theta, ctx)
        * cpow(u, -1.0 - sum(beta[r - 1 :]) + gk)
    )
    s12 = (
        _quot([q * q * P2 / ck, q * Pfull / ck], [q * q * Pr / ck, q * P1 / ck], qpoch_inf, ctx)
        * _quot((u,), den_theta, theta, ctx)
        * cpow(u, -beta[r - 1])
    )
    s21 = (
        _quot([ck / Pfull, ck / (q * P2)], [ck / Pr, ck / (q * P1)], qpoch_inf, ctx)
        * _quot((u * b[r - 1] / b[r],), den_theta, theta, ctx)
        * cpow(u, -beta[r])
    )
    s22 = (
        _quot([q / b[r - 1], b[r]], [ck / Pr, q * P1 / ck], qpoch_inf, ctx)
        * _quot((u * q * Pr / ck,), den_theta, theta, ctx)
        * cpow(u, 1.0 + sum(beta[r + 1 :]) - gk)
    )
    return s11, s12, s21, s22


def build_S(p: ParamSet, r: int, sigma, t, ctx: QContext) -> ConnMatrix:
    """Matrix sending the fully split solution vector with slot ordering
    sigma to the one with positions r, r+1 swapped (ordering sigma o s_r).

    Entries depend on the coordinates only through the ratio of the two
    swapped ones, so simultaneous rescaling of both leaves the matrix fixed.
    """
    M = p.M
    _require_range("r", r, 1, M - 1)
    sigma = tuple(int(v) for v in sigma)
    tt = permute_seq(tuple(complex(v) for v in t), sigma)
    if tt[r] == 0:
        raise DomainError("swap ratio undefined: lower coordinate vanishes")
    return _swap_matrix(p, r, sigma, tt[r - 1] / tt[r], tuple(complex(v) for v in t), ctx)


def _swap_matrix(
    p: ParamSet, r: int, sigma: tuple[int, ...], u: complex, t, ctx: QContext
) -> ConnMatrix:
    """Adjacent-swap matrix at positions r, r+1 of ordering sigma, evaluated
    at the coordinate ratio u; t is the point recorded with it."""
    pp = p.permuted(sigma)
    S = np.eye(p.N * p.M + 1, dtype=complex)
    for k in range(1, p.N + 1):
        i = component_index((k, r), p.M)
        j = component_index((k, r + 1), p.M)
        S[i, i], S[i, j], S[j, i], S[j, j] = _swap_block(p, pp.beta, pp.b, k, r, u, ctx)
    return ConnMatrix(kind="S", L=p.M, sigma=sigma, r=r, entries=S, eval_point=(u,), t=t)


def transposition_word(rho) -> list[int]:
    """Adjacent-transposition word for rho: bubble-sorting rho to the
    identity records swaps m_1, m_2, ... so that
    rho = s_{m_t} o ... o s_{m_1} (function composition, m_1 applied last).
    Returned in application order [m_1, ..., m_t]."""
    lst = [int(v) for v in rho]
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in range(len(lst) - 1):
            if lst[j] > lst[j + 1]:
                lst[j], lst[j + 1] = lst[j + 1], lst[j]
                word.append(j + 1)
                changed = True
    return word


def compose_connection(
    p: ParamSet,
    L1: int,
    sigma1,
    L2: int,
    sigma2,
    t,
    ctx: QContext,
    word: list[int] | None = None,
) -> ConnMatrix:
    """Product of elementary matrices sending the (L1, sigma1) solution
    vector to the (L2, sigma2) one, all factors evaluated at the same t.

    The swap word (r_1, ..., r_I) must satisfy
    sigma2 = sigma1 o s_{r_I} o ... o s_{r_1}; when omitted it is generated
    by bubble sort and verified. An empty product returns the identity."""
    M = p.M
    sigma1 = tuple(int(v) for v in sigma1)
    sigma2 = tuple(int(v) for v in sigma2)
    _require_range("L1", L1, 0, M)
    _require_range("L2", L2, 0, M)
    t = tuple(complex(v) for v in t)
    if word is None:
        rho = perm_compose(perm_inverse(sigma1), sigma2)
        word = transposition_word(rho)
    word = [int(r) for r in word]
    acc = sigma1
    for r in reversed(word):
        acc = perm_compose(acc, perm_transposition(M, r))
    if acc != sigma2:
        raise WordError(
            f"word {word} sends {sigma1} to {acc}, not to requested {sigma2}"
        )
    taus: list[tuple[int, ...]] = []
    cur = sigma1
    for j in range(len(word), 0, -1):
        taus.append(cur)
        cur = perm_compose(cur, perm_transposition(M, word[j - 1]))
    taus.reverse()

    factors = [build_A(p, Lv, sigma2, t, ctx) for Lv in range(L2, M)]
    factors += [build_S(p, word[j], taus[j], t, ctx) for j in range(len(word))]
    factors += [build_B(p, Lv, sigma1, t, ctx) for Lv in range(M, L1, -1)]
    size = p.N * M + 1
    entries = np.eye(size, dtype=complex)
    for f in factors:
        entries = entries @ f.entries
    return ConnMatrix(
        kind="composite",
        L=L2,
        sigma=sigma2,
        r=None,
        entries=entries,
        eval_point=(),
        t=t,
    )


def verify_connection(lhs: SolutionVector, C: ConnMatrix, rhs: SolutionVector) -> float:
    """Max-norm relative residual of lhs = C . rhs.

    Both vectors must be evaluated at the same point and each must lie inside
    its own convergence sector (otherwise the comparison is meaningless and a
    DomainError is raised)."""
    if lhs.t != rhs.t:
        raise ValueError("solution vectors evaluated at different points")
    ok_l, margin_l = in_domain(lhs.L, lhs.sigma, lhs.params, lhs.t)
    ok_r, margin_r = in_domain(rhs.L, rhs.sigma, rhs.params, rhs.t)
    if not (ok_l and ok_r):
        raise DomainError(
            f"point outside sector intersection (margins {margin_l:.3g}, "
            f"{margin_r:.3g})"
        )
    return _rel_maxnorm(lhs.as_array(), C.entries @ rhs.as_array())
