"""Independent residual checks: difference equations, classical limits,
duality, Casorati independence."""

from functools import cache, partial

import numpy as np
import pytest

from qconnect import (
    RCOND_FLOOR,
    ConvergenceError,
    DomainError,
    ParamSet,
    PoleError,
    QContext,
    ResonanceError,
    build_solution_vector,
    casorati_independence,
    check_duality,
    check_jackson,
    check_watson,
    component_order,
    eval_FNM,
    eval_FNM_reference,
    leading_exponents,
    local_solution,
    qpoch_inf,
    residual_eqn1,
    residual_eqn2,
    sample_interior_point,
    sample_params,
    scaled_rcond,
)
from qconnect import oracle
from qconnect.hyperseries import _screen
from qconnect.oracle import _ENUM_CAP, _enum_series, _factored_coeffs
from conftest import ALPHA, BETA, GAMMA, Q

_DEN_TOL = 1e-12  # the up-front reference tables' vanishing-denominator threshold

TP = (0.3 + 0.02j, 0.25 - 0.03j)


def test_factored_operator_on_monomial(p22, ctx):
    # prod_j (1 - a_j T) multiplies t^delta by prod_j (1 - a_j X) at
    # X = q^{sum delta}; residual_eqn1 applies it as sum_p C_p X^p
    delta = (0.41 - 0.07j, -0.23 + 0.13j)
    X = ctx.qpow(sum(delta))
    got = sum(cp * X**p_ for p_, cp in enumerate(_factored_coeffs(p22.a)))
    want = np.prod([1 - aj * X for aj in p22.a])
    assert abs(got - want) < 1e-13 * abs(want)


def test_equation_residuals_on_true_series(p12, ctx_long):
    f = lambda tt: eval_FNM(p12, tt, ctx_long).value
    assert residual_eqn1(f, p12, 1, TP, ctx_long) < 1e-10
    assert residual_eqn1(f, p12, 2, TP, ctx_long) < 1e-10
    assert residual_eqn2(f, p12, 1, 2, TP, ctx_long) < 1e-10


def test_equation_residual_scale_invariance(p12, ctx_long):
    f = lambda tt: eval_FNM(p12, tt, ctx_long).value
    g = lambda tt: 5.7 * f(tt)
    r_f = residual_eqn1(f, p12, 1, TP, ctx_long)
    r_g = residual_eqn1(g, p12, 1, TP, ctx_long)
    assert abs(r_f - r_g) < 1e-12


def test_equation_rejects_constant_function(p12, ctx_long):
    one = lambda tt: 1.0 + 0j
    assert residual_eqn1(one, p12, 1, (0.3, 0.25), ctx_long) > 1e-3


def test_pairwise_equation_antisymmetric_in_slots(p22, ctx_long):
    # a generic non-solution must score the same residual either way round
    f = lambda tt: 1.0 + 2.0 * tt[0] + 0.7 * tt[1] ** 2
    t = (0.31 + 0.04j, 0.27 - 0.05j)
    r12 = residual_eqn2(f, p22, 1, 2, t, ctx_long)
    r21 = residual_eqn2(f, p22, 2, 1, t, ctx_long)
    assert r12 > 1e-3
    assert r12 == pytest.approx(r21, rel=1e-10)


def test_equation_argument_validation(p12, ctx_long):
    f = lambda tt: 1.0 + 0j
    with pytest.raises(IndexError):
        residual_eqn1(f, p12, 0, TP, ctx_long)
    with pytest.raises(IndexError):
        residual_eqn1(f, p12, 3, TP, ctx_long)
    with pytest.raises(ValueError):
        residual_eqn2(f, p12, 2, 2, TP, ctx_long)


def test_reference_evaluator_agrees_with_fast_path(p12, ctx_long):
    ref = eval_FNM_reference(p12, TP, ctx_long)
    fast = eval_FNM(p12, TP, ctx_long).value
    assert abs(ref - fast) < 1e-13 * abs(fast)
    assert abs(ref - (1.277904030325 + 0.087706644683j)) < 1e-9


def _upfront_tables(a, b, c, t, ctx):
    """Every axis weight table and the coupling table of the reference
    enumeration, each built to the cap before any shell is summed."""
    q = ctx.q
    ws = []
    for bi, ti in zip(b, t):
        w = np.empty(_ENUM_CAP + 1, dtype=complex)
        w[0] = 1.0
        qm = 1.0 + 0j
        for m in range(_ENUM_CAP):
            den = 1.0 - q * qm
            w[m + 1] = w[m] * ti * (1.0 - bi * qm) / den
            qm *= q
        ws.append(w)
    g = np.empty(_ENUM_CAP + 1, dtype=complex)
    g[0] = 1.0
    qn = 1.0 + 0j
    for n in range(_ENUM_CAP):
        num = 1.0 + 0j
        den = 1.0 + 0j
        for aj in a:
            num *= 1.0 - aj * qn
        for cj in c:
            den *= 1.0 - cj * qn
        if abs(den) <= _DEN_TOL:
            raise ResonanceError(f"coupling denominator vanished at index {n}")
        g[n + 1] = g[n] * num / den
        qn *= q
    return ws, g


def _settled(shells, ctx):
    """Running sum of the shells, returned once three in a row are
    negligible, as the reference enumeration stops."""
    total = 0j
    mag = 1e-300
    small = 0
    for sh in shells:
        total += sh
        mag = max(mag, abs(total))
        if abs(sh) / mag < ctx.tail_tol:
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"reference enumeration did not settle in {_ENUM_CAP} shells")


def _upfront_series(a, b, c, t, ctx):
    """The reference enumeration's partial sums over tables built up front:
    the enumeration grows the same entries one shell at a time."""
    ws, g = _upfront_tables(a, b, c, t, ctx)
    ws = [w.tolist() for w in ws]
    M = len(t)
    h = [[] for _ in range(M - 1)] + [ws[-1]]

    def shells():
        for s in range(_ENUM_CAP + 1):
            for axis in range(M - 2, -1, -1):
                w, inner = ws[axis], h[axis + 1]
                acc = 0j
                for m in range(s + 1):
                    acc += w[m] * inner[s - m]
                h[axis].append(acc)
            yield g[s] * h[0][s]

    return _settled(shells(), ctx)


def _walk_series(a, b, c, t, ctx):
    """The reference enumeration as a walk over every multi-index of each
    shell, in lexicographic order; shell s costs O(s^(M-1)) products."""
    ws, g = _upfront_tables(a, b, c, t, ctx)
    M = len(t)

    def shell(s):
        acc = 0j

        def rec(axis, remaining, partial):
            nonlocal acc
            if axis == M - 1:
                acc += partial * ws[axis][remaining]
                return
            for m in range(remaining + 1):
                rec(axis + 1, remaining - m, partial * ws[axis][m])

        rec(0, s, 1.0 + 0j)
        return acc

    return _settled((g[s] * shell(s) for s in range(_ENUM_CAP + 1)), ctx)


def _interior_args(rng, N, M):
    """(a, b, c, t) of a generic parameter set, t inside the unit disc."""
    def draw(lo, hi, n):
        return tuple(complex(rng.uniform(lo, hi), rng.uniform(-0.15, 0.15)) for _ in range(n))

    p = ParamSet(draw(0.1, 0.6, N), draw(0.2, 0.6, M), draw(0.7, 1.3, N), Q)
    t = tuple(complex(rng.uniform(0.15, 0.6), rng.uniform(-0.1, 0.1)) for _ in range(M))
    return p.a, p.b, p.c, t


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_partial_sums_match_the_multi_index_walk(M, ctx_long):
    # one or two axes sum every shell in the walk's order; from three axes
    # the partial sums regroup the shell, so only rounding may differ
    rng = np.random.default_rng([41, M])
    for N in (1, 2):
        for _ in range(3):
            args = _interior_args(rng, N, M)
            got = _enum_series(*args, ctx_long)
            want = _walk_series(*args, ctx_long)
            if M <= 2:
                assert got == want
            else:
                assert abs(got - want) <= 1e-14 * abs(want)


def _complex_bits(z) -> bytes:
    return np.array([z], dtype=complex).tobytes()


@pytest.mark.parametrize("M", [1, 2, 3, 4])
def test_tables_grown_per_shell_match_tables_built_up_front(M, ctx_long):
    rng = np.random.default_rng([43, M])
    for N in (1, 2):
        for _ in range(3):
            args = _interior_args(rng, N, M)
            got = _enum_series(*args, ctx_long)
            assert _complex_bits(got) == _complex_bits(_upfront_series(*args, ctx_long))


def test_resonance_past_the_settled_shells_still_raises(ctx_long):
    # c_2 = q^-60: g[n] is about q^(60 n) for small n, so the sum settles
    # within a few shells, long before its denominator vanishes at index 60
    a, b, _, t = _interior_args(np.random.default_rng(44), 2, 3)
    near = (0.8 + 0.1j, Q**-60 * (1 + 1e-6))
    assert _complex_bits(_enum_series(a, b, near, t, ctx_long)) == _complex_bits(
        _upfront_series(a, b, near, t, ctx_long)
    )
    c = (0.8 + 0.1j, Q**-60)
    with pytest.raises(ResonanceError) as upfront:
        _upfront_series(a, b, c, t, ctx_long)
    with pytest.raises(ResonanceError) as grown:
        _enum_series(a, b, c, t, ctx_long)
    assert str(grown.value) == str(upfront.value) == "coupling denominator vanished at index 60"


def test_partial_sums_raise_the_walks_resonance(ctx_long):
    # c_2 = q^-3 makes the coupling denominator vanish at index 3
    a, b, _, t = _interior_args(np.random.default_rng(42), 2, 3)
    c = (0.8 + 0.1j, Q**-3)
    with pytest.raises(ResonanceError) as walk:
        _walk_series(a, b, c, t, ctx_long)
    with pytest.raises(ResonanceError) as sums:
        _enum_series(a, b, c, t, ctx_long)
    assert str(sums.value) == str(walk.value) == "coupling denominator vanished at index 3"


_POLE_BASES = [0.3, 0.5, 0.7, 0.5 + 0.2j]


@pytest.mark.parametrize("q", _POLE_BASES)
def test_resonance_past_the_shell_cap_raises(q):
    # c_2 = q^-450: the coupling denominator vanishes at index 450, past the
    # enumeration's 400 shells; the engine's screen names the same index
    ctx = QContext(q=q, series_cap=200)
    a, b, _, t = _interior_args(np.random.default_rng(45), 2, 3)
    c = (0.8 + 0.1j, q**-450)
    with pytest.raises(ResonanceError) as exc:
        _enum_series(a, b, c, t, ctx)
    assert str(exc.value) == "coupling denominator vanished at index 450"
    assert _screen(a, c, True, False, q) == 450


def test_duality_single_slot(p11, ctx_long):
    assert check_duality(p11, (0.4,), ctx_long) < 1e-10


def test_duality_roundtrip_swaps_roles(p23, ctx_long):
    # writing t = q^tau, the partner series swaps rows with slots; applying
    # the same rewrite to the partner lands back on the original data
    tau = (0.7 + 0.1j, 1.0 - 0.2j, 1.2 + 0.15j)
    t = tuple(ctx_long.qpow(tv) for tv in tau)
    assert check_duality(p23, t, ctx_long) < 1e-10

    p_dual = ParamSet(
        alpha=tau,
        beta=tuple(g - a for a, g in zip(p23.alpha, p23.gamma)),
        gamma=tuple(b + tv for b, tv in zip(p23.beta, tau)),
        q=Q,
    )
    assert p_dual.N == 3 and p_dual.M == 2
    assert check_duality(p_dual, p23.a, ctx_long) < 1e-10

    pref = np.prod(
        [qpoch_inf(a, ctx_long) / qpoch_inf(c, ctx_long) for a, c in zip(p23.a, p23.c)]
    ) * np.prod(
        [
            qpoch_inf(b * tv, ctx_long) / qpoch_inf(tv, ctx_long)
            for b, tv in zip(p23.b, t)
        ]
    )
    lhs = eval_FNM(p23, t, ctx_long).value
    rhs = eval_FNM(p_dual, p23.a, ctx_long).value
    assert abs(lhs - pref * rhs) < 1e-10 * abs(lhs)


def test_duality_validation(p12, ctx_long):
    with pytest.raises(ValueError):
        check_duality(p12, (0.3,), ctx_long)
    with pytest.raises(DomainError):
        check_duality(p12, (0.3, 1.0), ctx_long)
    p_res = ParamSet(ALPHA[:1], (-0.5 + 0j, BETA[1]), GAMMA[:1], Q)
    with pytest.raises(ResonanceError):
        check_duality(p_res, (0.3**0.5, 0.2), ctx_long)


def test_jackson_sum(p11, ctx_long):
    assert check_jackson(p11, (0.0,), ctx_long) < 1e-12
    assert check_jackson(p11, (0.3,), ctx_long) < 1e-12


def test_jackson_sum_two_slots(p22, ctx_long):
    rng = np.random.default_rng(40)
    for _ in range(3):
        t = tuple(
            complex(rng.uniform(0.15, 0.4), rng.uniform(-0.05, 0.05))
            for _ in range(2)
        )
        assert check_jackson(p22, t, ctx_long) < 1e-10


@pytest.mark.parametrize("q", _POLE_BASES)
def test_jackson_integrand_factor_on_the_lattice_raises(q):
    # b_1 t_1 = q^-2 (1 + 1e-10): the factor 1 - b_1 t_1 q^2 is -1e-10, a
    # pole by lattice_hit's relative window
    ctx = QContext(q=q, series_cap=200)
    p = ParamSet(ALPHA[:1], (-2.8 + 0.1j, BETA[1]), GAMMA[:1], q)
    t = (q**-2 * (1 + 1e-10) / p.b[0], 0.3)
    with pytest.raises(ResonanceError, match="q-integrand factor degenerated"):
        check_jackson(p, t, ctx)


def _jackson_recursion(tables, P, s_max: int) -> complex:
    """The reference for oracle._jackson_sum: the nested sum by a recursion
    over (level, S), each subtree memoised, with the same operands in the
    same order."""
    N = len(tables)

    @cache
    def level(j: int, S: int) -> complex:
        w = tables[j]
        if j == N - 1:
            return complex(np.dot(w, P[S : S + len(w)]))
        return sum(w[m] * level(j + 1, S + m) for m in range(len(w)))

    return level(0, 0)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.5 + 0.2j])
def test_jackson_sum_has_the_bits_of_the_recursion(q, monkeypatch):
    # N = 1 has no outer level; (12, 1) nests twelve
    ctx = QContext(q=q, series_cap=200)
    cases = []
    for N, M in ((1, 1), (2, 3), (3, 3), (5, 1), (6, 2), (12, 1)):
        rng = np.random.default_rng([28, N, M])
        cases.append((sample_params(N, M, q, rng), sample_interior_point(M, rng)))
    # and the (2, 3) point with a signed zero for its second coordinate
    p, t = cases[1]
    cases.append((p, (t[0], complex(-0.0, -0.0), t[2])))
    one_pass = oracle._jackson_sum
    for p, t in cases:
        out = []
        for nested in (one_pass, _jackson_recursion):
            sums = []
            monkeypatch.setattr(
                oracle, "_jackson_sum", lambda *args: sums.append(nested(*args)) or sums[0]
            )
            residual = check_jackson(p, t, ctx)
            out.append([np.array([v], dtype=complex).tobytes() for v in (residual, *sums)])
        assert out[0] == out[1]


def test_watson_transform_frozen():
    ctx35 = QContext(q=0.35, prod_terms=60, series_cap=200)
    ups = (ctx35.qpow(0.4), ctx35.qpow(0.25))
    los = (ctx35.qpow(1.2),)
    assert check_watson(ups, los, 0.45, ctx35) < 1e-12

    ups3 = tuple(ctx35.qpow(v) for v in (0.4, 0.25, 0.6))
    los3 = tuple(ctx35.qpow(v) for v in (1.2, 1.1))
    assert check_watson(ups3, los3, 0.341, ctx35) < 1e-12


def test_watson_validation():
    ctx35 = QContext(q=0.35, prod_terms=60, series_cap=200)
    ups = (ctx35.qpow(0.4), ctx35.qpow(0.25))
    los = (ctx35.qpow(1.2),)
    with pytest.raises(ValueError):
        check_watson(ups, (los[0], los[0]), 0.45, ctx35)
    with pytest.raises(DomainError):
        check_watson(ups, los, 1.0, ctx35)
    with pytest.raises(DomainError):
        # both sides converge only on an overlap strip; this t leaves it
        check_watson(ups, los, 0.05, ctx35)
    with pytest.raises(ResonanceError):
        check_watson((ups[0], ups[0] * 0.35**3), los, 0.45, ctx35)


def test_watson_refuses_t_zero():
    ctx35 = QContext(q=0.35, prod_terms=60, series_cap=200)
    ups = (ctx35.qpow(0.4), ctx35.qpow(0.25))
    los = (ctx35.qpow(1.2),)
    with pytest.raises(DomainError, match=r"^reflected argument undefined at t = 0$"):
        check_watson(ups, los, 0, ctx35)


@pytest.mark.parametrize("q", [0.3, 0.7, 0.5 + 0.2j])
@pytest.mark.parametrize("t_of_q", [lambda q: q, lambda q: q * q, lambda q: q * (1 + 1e-10)],
                         ids=["q", "q^2", "q(1+1e-10)"])
def test_watson_refuses_theta_pole(q, t_of_q):
    # the weights divide by theta(t), which vanishes on q^Z: a t on or
    # 1e-10 off the lattice is a pole, not a division by zero or a residual
    t = t_of_q(q)
    with pytest.raises(PoleError, match=r"^theta\(t\) vanished: t sits at q\^[12]$"):
        check_watson((0.9, 0.8), (0.05,), t, QContext(q=q))


def _columns(p, L, sigma, ctx):
    return [partial(local_solution, p, L, sigma, c, ctx=ctx) for c in component_order(p.N, p.M)]


def test_casorati_pair(p11, ctx_long):
    cols = _columns(p11, 1, (1,), ctx_long)
    rep = casorati_independence(cols, (1,), (0.4,), ctx_long)
    assert rep.matrix.shape == (2, 2)
    assert rep.rcond > RCOND_FLOOR >= rep.forged_rcond
    assert scaled_rcond(rep.matrix) == rep.rcond
    # row k is the solution vector at t q^k, bit for bit
    rows = [build_solution_vector(p11, 1, (1,), (0.4 * Q**k,), ctx_long).components
            for k in range(2)]
    assert rep.matrix.tobytes() == np.array(rows, dtype=complex).tobytes()
    # n = 2: the forged twin's last column is twice the first
    forged = rep.matrix.copy()
    forged[:, 1] = 2.0 * rep.matrix[:, 0]
    assert scaled_rcond(forged) == rep.forged_rcond

    swapped = casorati_independence(cols[::-1], (1,), (0.4,), ctx_long)
    assert np.array_equal(swapped.matrix, rep.matrix[:, ::-1])
    assert swapped.rcond == pytest.approx(rep.rcond, rel=1e-12)

    repeated = casorati_independence(cols[:1] * 2, (1,), (0.4,), ctx_long)
    assert repeated.rcond <= RCOND_FLOOR


def test_casorati_validation(p11, ctx_long):
    f = lambda points: [1.0 + 0j] * len(points)
    with pytest.raises(ValueError):
        casorati_independence([], (1,), (0.4,), ctx_long)
    with pytest.raises(ValueError):
        casorati_independence([f], (1,), (0.4,), ctx_long)
    with pytest.raises(ValueError):
        casorati_independence([f, f], (1, 2), (0.4,), ctx_long)


def test_leading_exponent_extraction(p11, ctx_long):
    fn = lambda tt: local_solution(p11, 1, (1,), (1, 1), tt, ctx_long)
    ext = leading_exponents(fn, 1, 1, ctx_long)
    assert abs(ext[0] - (1 - GAMMA[0])) < 1e-3


def test_leading_exponents_range_checks_the_level(p12, ctx_long):
    fn = lambda tt: local_solution(p12, 1, (1, 2), 0, tt, ctx_long)
    for L in (-1, 3):
        with pytest.raises(IndexError, match=rf"^L = {L} outside \[0, 2\]$"):
            leading_exponents(fn, L, 2, ctx_long)
