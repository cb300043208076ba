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

A matrix is evaluated in two steps (_matrix_values). First every entry gives
its argument lists; then every (x; q)_inf factor of every entry, the theta
factors included, is one row of one batched product, reduced at once with
qpoch_inf's bits. A numpy screen flags the denominator arguments that may sit
on the q-power lattice, and lattice_hit decides each flagged one, so a pole
raises PoleError at the entry, and in the order, of an entry-by-entry walk.
facemodel's scalar denominators go through _den, under the same pole rule
(_pole). The builders keep nothing in the context memo.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import DomainError, PoleError, WordError
from .qkernel import (
    LATTICE_RANGE,
    LATTICE_RTOL,
    ParamSet,
    QContext,
    _check_base,
    _compose,
    _coords,
    _permute,
    _rel_maxnorm,
    _reorder,
    _require_range,
    _validate_perm,
    cpow,
    lattice_hit,
    perm_inverse,
    perm_transposition,
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


def _pole(x: complex, f, ctx: QContext) -> None:
    """Raise PoleError if x is a zero of the denominator factor f: (x; q)_inf
    (f = qpoch_inf) vanishes on q^-N and a theta (f = theta, or an odd theta
    such as facemodel.bracket) on q^Z, and lattice_hit decides."""
    if f is qpoch_inf:
        what, kmax = "infinite product", 0
    else:
        what, kmax = f"{f.__name__} denominator", LATTICE_RANGE
    if lattice_hit(x, ctx.q, kmax=kmax) is not None:
        raise PoleError(f"{what} vanished at argument {x}")


def _den(args, f, ctx: QContext) -> complex:
    """prod f(args) as a denominator, for f = qpoch_inf, theta or an odd
    theta such as facemodel.bracket: _pole decides each argument before its
    factor is evaluated. facemodel's scalar denominators come here; a
    connection matrix's are decided by the same _pole in _matrix_values."""
    den = 1.0 + 0j
    for x in args:
        _pole(x, f, ctx)
        den *= f(x, ctx)
    return den


def _qpoch_rows(x: np.ndarray, ctx: QContext) -> np.ndarray:
    """(x_i; q)_inf for every x_i of the complex array x: one C-ordered
    (len(x), prod_terms) table reduced along axis 1, so each value has
    qpoch_inf's bits."""
    return np.multiply.reduce(1.0 - x[:, None] * ctx._qpow_table, 1)


def _flags(x: np.ndarray, q: complex) -> np.ndarray:
    """Where lattice_hit(x_i, q) may find a power in [-LATTICE_RANGE,
    LATTICE_RANGE]: the window it tests around ln|x_i| / ln|q|, taken twice
    as wide (numpy's abs and log may round apart from Python's), holds an
    integer of that range. Never at 0, inf or nan."""
    lq = math.log(abs(q))
    ax = np.abs(x)
    finite = (ax > 0.0) & (ax < math.inf)
    centre = np.log(np.where(finite, ax, 1.0)) / lq
    width = 4 * LATTICE_RTOL / -lq
    lo = np.maximum(np.ceil(centre - width), -LATTICE_RANGE)
    hi = np.minimum(np.floor(centre + width), LATTICE_RANGE)
    return finite & (lo <= hi)


def _matrix_values(entries, den_arg: complex, ctx: QContext) -> list[complex]:
    """Values of a matrix's entries, in order. Entry (pnum, pden, th, x,
    power) is prod (pnum; q)_inf / prod (pden; q)_inf times
    theta(th) / theta(den_arg) times the principal power x**power; every
    entry shares the theta denominator.

    Every (y; q)_inf factor is one row of one _qpoch_rows table: the
    numerators, the product denominators, the two factors (th; q)_inf
    (q/th; q)_inf of each theta and the two of den_arg's. Each product is
    then taken from 1.0+0j in list order, so a value has the bits of a walk
    through qpoch_inf, theta and _den. _flags screens every row, and _pole
    decides each flagged denominator. Errors come at the entry and in the
    order of that walk: an entry's product denominators in list order, then
    its theta (DomainError at 0), then, at the first entry, the shared
    theta denominator."""
    q = ctx.q
    rows = []
    for pnum, pden, th, _, _ in entries:
        rows += pnum
        rows += pden
        # no q/0: theta raises at 0 before this row is read
        rows += (th, q / th) if th != 0 else (th, th)
    rows += (den_arg, q / den_arg) if den_arg != 0 else (den_arg, den_arg)
    rows = np.array(rows, dtype=complex)
    flags = _flags(rows, q).tolist()
    qp = _qpoch_rows(rows, ctx).tolist()

    def theta_at(i: int, y: complex) -> complex:
        """theta(y) from rows i and i+1, times 1.0+0j as a one-factor
        product starts: that can flip the sign of a zero part"""
        if y == 0:
            theta(y, ctx)  # raises theta's DomainError
        return (1.0 + 0j) * (qp[i] * qp[i + 1])

    last = len(qp) - 2  # den_arg's two rows close the table
    den = None
    out = []
    i = 0
    for pnum, pden, th, x, power in entries:
        j = i + len(pnum)
        k = j + len(pden)
        num = math.prod(qp[i:j], start=1.0 + 0j)
        for y, flagged in zip(pden, flags[j:k]):
            if flagged:
                _pole(y, qpoch_inf, ctx)
        value = num / math.prod(qp[j:k], start=1.0 + 0j)
        th_value = theta_at(k, th)
        if den is None:
            if flags[last]:
                _pole(den_arg, theta, ctx)
            den = theta_at(last, den_arg)
        out.append(value * (th_value / den) * cpow(x, power))
        i = k + 2
    return out


# The moved slot s of a level step, in the permuted ordering: x = t_s, b = b_s,
# beta = beta_s, Bfull = prod_{i>=s} b_i, Btail = prod_{i>s} b_i, and the beta
# sums beta_from, beta_after over the same two ranges.
_Slot = namedtuple("_Slot", "x b beta Bfull Btail beta_from beta_after")


def _level_matrix(p: ParamSet, s: int, sigma, t, den_arg, entry, ctx: QContext) -> np.ndarray:
    """Level-step matrix on slot position s of ordering sigma: the identity
    except row/column 0 and the rows/columns of the components (k, s).
    entry(k, d, slot) gives the _matrix_values entry in row k, column d,
    where 0 stands for the constant component, and den_arg(slot) the theta
    denominator they share; entries are evaluated row-major."""
    _check_base(p, ctx)
    sigma = _validate_perm(sigma, p.M)
    b, beta = _permute(p.b, sigma), _permute(p.beta, sigma)
    slot = _Slot(
        x=_reorder(t, sigma)[s - 1],
        b=b[s - 1],
        beta=beta[s - 1],
        Bfull=math.prod(b[s - 1 :], start=1.0 + 0j),
        Btail=math.prod(b[s:], start=1.0 + 0j),
        beta_from=sum(beta[s - 1 :]),
        beta_after=sum(beta[s:]),
    )
    n = p.N + 1
    entries = [entry(k, d, slot) for k in range(n) for d in range(n)]
    values = iter(_matrix_values(entries, den_arg(slot), ctx))
    idx = [0] + [component_index((k, s), p.M) for k in range(1, n)]
    C = np.eye(p.N * p.M + 1, dtype=complex)
    for row in idx:
        for col in idx:
            C[row, col] = next(values)
    return C


def build_A(p: ParamSet, L: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the level-(L+1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L+1; 0 <= L <= M-1."""
    L = _require_range("L", L, 0, p.M - 1)
    q, a, c = p.q, p.a, p.c
    Pa = math.prod(a, start=1.0 + 0j)
    Pc = math.prod(c, start=1.0 + 0j)

    def entry(k, d, s):
        x, Bf, Bt = s.x, s.Bfull, s.Btail
        ao = [aj for j, aj in enumerate(a, 1) if j != k]
        co = [cj for j, cj in enumerate(c, 1) if j != d]
        if k == 0 and d == 0:
            return (
                [q * Bt / aj for aj in a] + [q * Bf / cj for cj in c],
                [q * Bf / aj for aj in a] + [q * Bt / cj for cj in c],
                x * Pa / Pc, x, -s.beta,
            )
        if k == 0:
            cd = c[d - 1]
            return (
                [cd / aj for aj in a] + [q * Bf / cj for cj in co] + [s.b],
                [q * Bf / aj for aj in a] + [cd / cj for cj in co] + [cd / (q * Bt)],
                x * Pa * cd / (q * Bt * Pc), x, -1.0 - s.beta_from + p.gamma[d - 1],
            )
        ak = a[k - 1]
        if d == 0:
            return (
                [q * Bt / aj for aj in ao] + [q / s.b] + [q * ak / cj for cj in c],
                [q * ak / aj for aj in ao] + [q * ak / Bf] + [q * Bt / cj for cj in c],
                x * Bf * Pa / (ak * Pc), x, -p.alpha[k - 1] + s.beta_after,
            )
        cd = c[d - 1]
        return (
            [cd / aj for aj in ao] + [cd / Bf] + [q * ak / cj for cj in co] + [ak / Bt],
            [q * ak / aj for aj in ao] + [q * ak / Bf] + [cd / cj for cj in co]
            + [cd / (q * Bt)],
            x * s.b * Pa * cd / (q * Pc * ak), x, -1.0 - p.alpha[k - 1] + p.gamma[d - 1],
        )

    return _level_matrix(p, L + 1, sigma, t, lambda s: s.x * s.b * Pa / Pc, entry, ctx)


def build_B(p: ParamSet, L: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the level-(L-1) solution vector to the level-L one
    (same slot ordering). Nontrivial entries sit in row 0 and the rows of
    components attached to slot position L; 1 <= L <= M."""
    L = _require_range("L", L, 1, p.M)
    q, a, c = p.q, p.a, p.c

    def entry(k, d, s):
        x, Bf, Bt = s.x, s.Bfull, s.Btail
        ao = [aj for j, aj in enumerate(a, 1) if j != d]
        co = [cj for j, cj in enumerate(c, 1) if j != k]
        if k == 0 and d == 0:
            return (
                [aj / Bt for aj in a] + [cj / Bf for cj in c],
                [aj / Bf for aj in a] + [cj / Bt for cj in c],
                x * s.b, x, s.beta,
            )
        if k == 0:
            ad = a[d - 1]
            return (
                [cj / ad for cj in c] + [aj / Bt for aj in ao] + [s.b],
                [cj / Bt for cj in c] + [aj / ad for aj in ao] + [Bf / ad],
                x * ad / Bt, x, p.alpha[d - 1] - s.beta_after,
            )
        ck = c[k - 1]
        if d == 0:
            return (
                [cj / Bf for cj in co] + [q / s.b] + [q * aj / ck for aj in a],
                [q * cj / ck for cj in co] + [q * q * Bt / ck] + [aj / Bf for aj in a],
                x * q * Bf / ck, x, 1.0 + s.beta_from - p.gamma[k - 1],
            )
        ad = a[d - 1]
        return (
            [cj / ad for cj in co] + [q * Bt / ad] + [q * aj / ck for aj in ao]
            + [q * Bf / ck],
            [q * cj / ck for cj in co] + [q * q * Bt / ck] + [aj / ad for aj in ao]
            + [Bf / ad],
            x * q * ad / ck, x, 1.0 + p.alpha[d - 1] - p.gamma[k - 1],
        )

    return _level_matrix(p, L, sigma, t, lambda s: s.x, entry, ctx)


def _swap_block(p: ParamSet, beta, b, k: int, r: int, u: complex):
    """The four _matrix_values entries of the adjacent-swap matrix's 2x2
    block for coupling slot k, acting on positions (r, r+1) of the slots
    reordered to beta, b, in the order (r, r), (r, r+1), (r+1, r),
    (r+1, r+1); their theta denominator is theta(u b_r)."""
    q = p.q
    ck = p.c[k - 1]
    gk = p.gamma[k - 1]
    P1 = math.prod(b[r:], start=1.0 + 0j)
    P2 = math.prod(b[r + 1 :], start=1.0 + 0j)
    Pr = b[r - 1] * P2
    Pfull = b[r - 1] * P1
    return (
        ([q / b[r], b[r - 1]], [q * q * Pr / ck, ck / (q * P1)],
         u * ck / (q * P1), u, -1.0 - sum(beta[r - 1 :]) + gk),
        ([q * q * P2 / ck, q * Pfull / ck], [q * q * Pr / ck, q * P1 / ck],
         u, u, -beta[r - 1]),
        ([ck / Pfull, ck / (q * P2)], [ck / Pr, ck / (q * P1)],
         u * b[r - 1] / b[r], u, -beta[r]),
        ([q / b[r - 1], b[r]], [ck / Pr, q * P1 / ck],
         u * q * Pr / ck, u, 1.0 + sum(beta[r + 1 :]) - gk),
    )


def build_S(p: ParamSet, r: int, sigma, t, ctx: QContext) -> np.ndarray:
    """Matrix sending the fully split solution vector with slot ordering
    sigma to the one with positions r, r+1 swapped (ordering sigma o s_r).

    Entries depend on the coordinates only through the ratio of the two
    swapped ones, so simultaneous rescaling of both leaves the matrix fixed.
    """
    r = _require_range("r", r, 1, p.M - 1)
    sigma = _validate_perm(sigma, p.M)
    tt = _reorder(t, sigma)
    if tt[r] == 0:
        raise DomainError("swap ratio undefined: lower coordinate vanishes")
    return _swap_matrix(p, r, sigma, tt[r - 1] / tt[r], ctx)


def _swap_matrix(
    p: ParamSet, r: int, sigma: tuple[int, ...], u: complex, ctx: QContext
) -> np.ndarray:
    """Adjacent-swap matrix at positions r, r+1 of ordering sigma, evaluated
    at the coordinate ratio u; blocks are evaluated in slot order k."""
    _check_base(p, ctx)
    b, beta = _permute(p.b, sigma), _permute(p.beta, sigma)
    entries = [e for k in range(1, p.N + 1) for e in _swap_block(p, beta, b, k, r, u)]
    values = _matrix_values(entries, u * b[r - 1], ctx)
    S = np.eye(p.N * p.M + 1, dtype=complex)
    for k in range(1, p.N + 1):
        i = component_index((k, r), p.M)
        j = component_index((k, r + 1), p.M)
        S[i, i], S[i, j], S[j, i], S[j, j] = values[4 * k - 4 : 4 * k]
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
    _check_base(p, ctx)
    M = p.M
    sigma1 = _validate_perm(sigma1, M)
    sigma2 = _validate_perm(sigma2, M)
    L1 = _require_range("L1", L1, 0, M)
    L2 = _require_range("L2", L2, 0, M)
    t = _coords(t, M)
    if word is None:
        rho = _compose(perm_inverse(sigma1), sigma2)
        word = transposition_word(rho)
    word = [_require_range("r", r, 1, M - 1) for r in word]
    walk = [sigma1]
    for r in reversed(word):
        walk.append(_compose(walk[-1], perm_transposition(M, r)))
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

    Both vectors must be built from one parameter set and evaluated at the
    same point, and each must lie inside its own convergence sector
    (otherwise the comparison is meaningless and a DomainError is raised)."""
    if lhs.params != rhs.params:
        raise ValueError("solution vectors built from different parameter sets")
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
