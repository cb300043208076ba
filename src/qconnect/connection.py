"""Connection matrices between local solution families.

Three elementary moves act on the family labels (split level L, slot ordering
sigma): raising the split level by one, lowering it by one, and swapping two
adjacent slots at full split level. Each move has an explicit matrix whose
entries are infinite-product constants times a theta-function quotient times
a principal power of one coordinate (or coordinate ratio). The matrices are
pseudo-constant: every entry is invariant under scaling its coordinate by q.

Every builder returns the complex (N*M+1) x (N*M+1) array, laid out like the
solution vector: index 0 first, then (k, l) in row-major order, so the
matrices are identity outside row/column 0 and the rows/columns attached to
the moved slot.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, PoleError, WordError
from .qkernel import (
    ParamSet,
    QContext,
    _rel_maxnorm,
    _require_range,
    _validate_perm,
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
    "build_A",
    "build_B",
    "build_S",
    "compose_connection",
    "verify_connection",
    "transposition_word",
]

_THETA_TOL = 1e-12


def _prod(args, f, ctx: QContext) -> complex:
    """prod f(args) for f = qpoch_inf or theta."""
    out = 1.0 + 0j
    for x in args:
        out *= f(x, ctx)
    return out


def _den(args, f, ctx: QContext) -> complex:
    """prod f(args) as a denominator: a vanishing factor raises PoleError."""
    den = 1.0 + 0j
    for x in args:
        val = f(x, ctx)
        if abs(val) <= _THETA_TOL:
            what = "theta denominator" if f is theta else "infinite product"
            raise PoleError(f"{what} vanished at argument {x}")
        den *= val
    return den


def _theta_den(arg: complex, ctx: QContext):
    """theta(arg) as the theta denominator every entry of one matrix shares,
    behind a zero-argument function: it is evaluated once, at the first entry
    that divides by it, so a pole raises PoleError from that entry."""
    return functools.cache(lambda: _den((arg,), theta, ctx))


def _entry(pnum, pden, th, den, x, power, ctx: QContext) -> complex:
    """One connection-matrix entry: prod (pnum;q)_inf / prod (pden;q)_inf
    times theta(th) / den() times the principal power x**power, where den is
    the matrix's _theta_den."""
    return (
        _prod(pnum, qpoch_inf, ctx) / _den(pden, qpoch_inf, ctx)
        * (_prod((th,), theta, ctx) / den())
        * cpow(x, power)
    )


# The moved slot s of a level step, in the permuted ordering: x = t_s, b = b_s,
# beta = beta_s, Bfull = prod_{i>=s} b_i, Btail = prod_{i>s} b_i, and the beta
# sums beta_from, beta_after over the same two ranges.
_Slot = namedtuple("_Slot", "x b beta Bfull Btail beta_from beta_after")


def _level_matrix(p: ParamSet, s: int, sigma, t, den_arg, entry, ctx: QContext) -> np.ndarray:
    """Level-step matrix on slot position s of ordering sigma: the identity
    except row/column 0 and the rows/columns of the components (k, s).
    entry(k, d, slot, den) gives the entry in row k, column d, where 0 stands
    for the constant component and den is the _theta_den of den_arg(slot);
    entries are filled row-major."""
    sigma = tuple(int(v) for v in sigma)
    pp = p.permuted(sigma)
    t = tuple(complex(v) for v in t)
    b, beta = pp.b, pp.beta
    slot = _Slot(
        x=permute_seq(t, sigma)[s - 1],
        b=b[s - 1],
        beta=beta[s - 1],
        Bfull=math.prod(b[s - 1 :], start=1.0 + 0j),
        Btail=math.prod(b[s:], start=1.0 + 0j),
        beta_from=sum(beta[s - 1 :]),
        beta_after=sum(beta[s:]),
    )
    den = _theta_den(den_arg(slot), ctx)
    idx = [0] + [component_index((k, s), p.M) for k in range(1, p.N + 1)]
    C = np.eye(p.N * p.M + 1, dtype=complex)
    for k, row in enumerate(idx):
        for d, col in enumerate(idx):
            C[row, col] = entry(k, d, slot, den)
    return C


def build_A(p: ParamSet, L: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the level-(L+1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L+1; 0 <= L <= M-1."""
    _require_range("L", L, 0, p.M - 1)
    q, a, c = p.q, p.a, p.c
    Pa = math.prod(a, start=1.0 + 0j)
    Pc = math.prod(c, start=1.0 + 0j)

    def entry(k, d, s, den):
        x, Bf, Bt = s.x, s.Bfull, s.Btail
        ao = [aj for j, aj in enumerate(a, 1) if j != k]
        co = [cj for j, cj in enumerate(c, 1) if j != d]
        if k == 0 and d == 0:
            return _entry(
                [q * Bt / aj for aj in a] + [q * Bf / cj for cj in c],
                [q * Bf / aj for aj in a] + [q * Bt / cj for cj in c],
                x * Pa / Pc, den, x, -s.beta, ctx,
            )
        if k == 0:
            cd = c[d - 1]
            return _entry(
                [cd / aj for aj in a] + [q * Bf / cj for cj in co] + [s.b],
                [q * Bf / aj for aj in a] + [cd / cj for cj in co] + [cd / (q * Bt)],
                x * Pa * cd / (q * Bt * Pc), den, x,
                -1.0 - s.beta_from + p.gamma[d - 1], ctx,
            )
        ak = a[k - 1]
        if d == 0:
            return _entry(
                [q * Bt / aj for aj in ao] + [q / s.b] + [q * ak / cj for cj in c],
                [q * ak / aj for aj in ao] + [q * ak / Bf] + [q * Bt / cj for cj in c],
                x * Bf * Pa / (ak * Pc), den, x, -p.alpha[k - 1] + s.beta_after, ctx,
            )
        cd = c[d - 1]
        return _entry(
            [cd / aj for aj in ao] + [cd / Bf] + [q * ak / cj for cj in co] + [ak / Bt],
            [q * ak / aj for aj in ao] + [q * ak / Bf] + [cd / cj for cj in co]
            + [cd / (q * Bt)],
            x * s.b * Pa * cd / (q * Pc * ak), den, x,
            -1.0 - p.alpha[k - 1] + p.gamma[d - 1], ctx,
        )

    return _level_matrix(p, L + 1, sigma, t, lambda s: s.x * s.b * Pa / Pc, entry, ctx)


def build_B(p: ParamSet, L: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the level-(L-1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L; 1 <= L <= M."""
    _require_range("L", L, 1, p.M)
    q, a, c = p.q, p.a, p.c

    def entry(k, d, s, den):
        x, Bf, Bt = s.x, s.Bfull, s.Btail
        ao = [aj for j, aj in enumerate(a, 1) if j != d]
        co = [cj for j, cj in enumerate(c, 1) if j != k]
        if k == 0 and d == 0:
            return _entry(
                [aj / Bt for aj in a] + [cj / Bf for cj in c],
                [aj / Bf for aj in a] + [cj / Bt for cj in c],
                x * s.b, den, x, s.beta, ctx,
            )
        if k == 0:
            ad = a[d - 1]
            return _entry(
                [cj / ad for cj in c] + [aj / Bt for aj in ao] + [s.b],
                [cj / Bt for cj in c] + [aj / ad for aj in ao] + [Bf / ad],
                x * ad / Bt, den, x, p.alpha[d - 1] - s.beta_after, ctx,
            )
        ck = c[k - 1]
        if d == 0:
            return _entry(
                [cj / Bf for cj in co] + [q / s.b] + [q * aj / ck for aj in a],
                [q * cj / ck for cj in co] + [q * q * Bt / ck] + [aj / Bf for aj in a],
                x * q * Bf / ck, den, x, 1.0 + s.beta_from - p.gamma[k - 1], ctx,
            )
        ad = a[d - 1]
        return _entry(
            [cj / ad for cj in co] + [q * Bt / ad] + [q * aj / ck for aj in ao]
            + [q * Bf / ck],
            [q * cj / ck for cj in co] + [q * q * Bt / ck] + [aj / ad for aj in ao]
            + [Bf / ad],
            x * q * ad / ck, den, x, 1.0 + p.alpha[d - 1] - p.gamma[k - 1], ctx,
        )

    return _level_matrix(p, L, sigma, t, lambda s: s.x, entry, ctx)


def _swap_block(p: ParamSet, beta, b, k: int, r: int, u: complex, den, ctx: QContext):
    """2x2 block of the adjacent-swap matrix for coupling slot k, acting on
    positions (r, r+1) of the slots reordered to beta, b; den is the
    _theta_den of u b_r."""
    q = p.q
    ck = p.c[k - 1]
    gk = p.gamma[k - 1]
    P1 = math.prod(b[r:], start=1.0 + 0j)
    P2 = math.prod(b[r + 1 :], start=1.0 + 0j)
    Pr = b[r - 1] * P2
    Pfull = b[r - 1] * P1
    return (
        _entry([q / b[r], b[r - 1]], [q * q * Pr / ck, ck / (q * P1)],
               u * ck / (q * P1), den, u, -1.0 - sum(beta[r - 1 :]) + gk, ctx),
        _entry([q * q * P2 / ck, q * Pfull / ck], [q * q * Pr / ck, q * P1 / ck],
               u, den, u, -beta[r - 1], ctx),
        _entry([ck / Pfull, ck / (q * P2)], [ck / Pr, ck / (q * P1)],
               u * b[r - 1] / b[r], den, u, -beta[r], ctx),
        _entry([q / b[r - 1], b[r]], [ck / Pr, q * P1 / ck],
               u * q * Pr / ck, den, u, 1.0 + sum(beta[r + 1 :]) - gk, ctx),
    )


def build_S(p: ParamSet, r: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the fully split solution vector with slot ordering
    sigma to the one with positions r, r+1 swapped (ordering sigma o s_r).

    Entries depend on the coordinates only through the ratio of the two
    swapped ones, so simultaneous rescaling of both leaves the matrix fixed.
    """
    _require_range("r", r, 1, p.M - 1)
    sigma = tuple(int(v) for v in sigma)
    t = tuple(complex(v) for v in t)
    tt = permute_seq(t, sigma)
    if tt[r] == 0:
        raise DomainError("swap ratio undefined: lower coordinate vanishes")
    return _swap_matrix(p, r, sigma, tt[r - 1] / tt[r], ctx)


def _swap_matrix(
    p: ParamSet, r: int, sigma: tuple[int, ...], u: complex, ctx: QContext
) -> np.ndarray:
    """Adjacent-swap matrix at positions r, r+1 of ordering sigma, evaluated
    at the coordinate ratio u."""
    pp = p.permuted(sigma)
    den = _theta_den(u * pp.b[r - 1], ctx)
    S = np.eye(p.N * p.M + 1, dtype=complex)
    for k in range(1, p.N + 1):
        i = component_index((k, r), p.M)
        j = component_index((k, r + 1), p.M)
        S[i, i], S[i, j], S[j, i], S[j, j] = _swap_block(p, pp.beta, pp.b, k, r, u, den, ctx)
    return S


def transposition_word(rho) -> list[int]:
    """Adjacent-transposition word for rho: bubble-sorting rho to the
    identity records swaps m_1, m_2, ... so that
    rho = s_{m_t} o ... o s_{m_1} (function composition, m_1 applied last).
    Returned in application order [m_1, ..., m_t]."""
    lst = list(_validate_perm(rho))
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
) -> np.ndarray:
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
    walk = [sigma1]
    for r in reversed(word):
        walk.append(perm_compose(walk[-1], perm_transposition(M, r)))
    if walk[-1] != sigma2:
        raise WordError(
            f"word {word} sends {sigma1} to {walk[-1]}, not to requested {sigma2}"
        )

    factors = [build_A(p, Lv, sigma2, t, ctx) for Lv in range(L2, M)]
    # word[0] is applied last, to the ordering the walk reached before sigma2
    factors += [build_S(p, r, tau, t, ctx) for r, tau in zip(word, reversed(walk[:-1]))]
    factors += [build_B(p, Lv, sigma1, t, ctx) for Lv in range(M, L1, -1)]
    C = np.eye(p.N * M + 1, dtype=complex)
    for f in factors:
        C = C @ f
    return C


def verify_connection(lhs: SolutionVector, C: np.ndarray, rhs: SolutionVector) -> float:
    """Max-norm relative residual of lhs = C . rhs.

    Both vectors must be evaluated at the same point and each must lie inside
    its own convergence sector (otherwise the comparison is meaningless and a
    DomainError is raised)."""
    if lhs.t != rhs.t:
        raise ValueError("solution vectors evaluated at different points")
    margin_l = in_domain(lhs.L, lhs.sigma, lhs.params, lhs.t)
    margin_r = in_domain(rhs.L, rhs.sigma, rhs.params, rhs.t)
    if not (margin_l > 0.0 and margin_r > 0.0):
        raise DomainError(
            f"point outside sector intersection (margins {margin_l:.3g}, "
            f"{margin_r:.3g})"
        )
    return _rel_maxnorm(lhs.as_array(), C @ rhs.as_array())
