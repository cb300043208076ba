"""Acceptance gate: one test per published criterion, default profile
(q = 0.3, double precision), every tolerance as stated. Each test prints
a single pass/fail line so a -s run reads as a checklist."""

import time
from functools import partial

import numpy as np

from qconnect import (
    RCOND_FLOOR,
    ParamSet,
    QContext,
    build_A,
    build_B,
    build_S,
    build_W_akm,
    build_Wtilde,
    build_solution_vector,
    casorati_independence,
    char_exponents,
    check_duality,
    check_jackson,
    check_watson,
    component_order,
    compose_connection,
    conj_f,
    eval_FNM,
    leading_exponents,
    local_solution,
    perm_compose,
    perm_identity,
    perm_transposition,
    q_shift,
    residual_eqn1,
    residual_eqn2,
    sample_domain_point,
    sample_family_overlap,
    sample_interior_point,
    sample_level_overlap,
    sample_params,
    sample_spectral,
    sample_swap_overlap,
    sample_watson,
    verify_connection,
    wprime_gauge_residual,
    ybe_residual,
)
from qconnect.cli import RunConfig, report_to_dict, run_suite

Q = 0.3
CTX = QContext(q=Q, prod_terms=60, series_cap=200)
COMPONENTS_22 = [0, (1, 1), (1, 2), (2, 1), (2, 2)]


def announce(num, label, ok, detail):
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} {detail}")


def entrywise_rel_change(X, Y):
    X, Y = np.asarray(X), np.asarray(Y)
    scale = np.maximum(np.abs(X), np.abs(Y))
    mask = scale > 0
    out = np.zeros_like(scale)
    out[mask] = np.abs(X - Y)[mask] / scale[mask]
    return float(out.max())


def test_criterion_01_system_residuals():
    start = time.perf_counter()
    worst = 0.0
    for N, M in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 2)):
        rng = np.random.default_rng([101, N, M])
        p = sample_params(N, M, Q, rng)
        f = lambda tt: eval_FNM(p, tt, CTX).value
        for _ in range(8):
            t = sample_interior_point(M, rng)
            for s in range(1, M + 1):
                worst = max(worst, residual_eqn1(f, p, s, t, CTX))
                for r in range(1, s):
                    worst = max(worst, residual_eqn2(f, p, r, s, t, CTX))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    announce(1, "system residuals", ok, f"worst={worst:.3e} time={elapsed:.1f}s")
    assert ok


def test_criterion_02_local_solutions():
    rng = np.random.default_rng(12)
    p = sample_params(2, 2, Q, rng)
    ident = perm_identity(2)
    worst = 0.0
    for L in (0, 1, 2):
        t = sample_domain_point(p, L, ident, rng)
        for comp in COMPONENTS_22:
            f = lambda tt, c=comp: local_solution(p, L, ident, c, tt, CTX)
            for s in (1, 2):
                worst = max(worst, residual_eqn1(f, p, s, t, CTX))
            worst = max(worst, residual_eqn2(f, p, 1, 2, t, CTX))
    ok = worst < 1e-8
    announce(2, "local solutions", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_03_duality():
    worst = 0.0
    for N, M in ((1, 1), (1, 2), (2, 2), (2, 3)):
        rng = np.random.default_rng([103, N, M])
        p = sample_params(N, M, Q, rng)
        for _ in range(8):
            t = sample_interior_point(M, rng)
            worst = max(worst, check_duality(p, t, CTX))
    ok = worst < 1e-10
    announce(3, "duality", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_04_jackson():
    worst = 0.0
    for N, M in ((1, 1), (2, 2)):
        rng = np.random.default_rng([104, N, M])
        p = sample_params(N, M, Q, rng)
        for _ in range(8):
            t = sample_interior_point(M, rng)
            worst = max(worst, check_jackson(p, t, CTX))
    ok = worst < 1e-9
    announce(4, "multiple q-integral", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_05_watson():
    worst = 0.0
    for N in (1, 2, 3):
        rng = np.random.default_rng([105, N])
        for _ in range(8):
            ups, los, t = sample_watson(N, Q, rng)
            worst = max(worst, check_watson(ups, los, t, CTX))
    ok = worst < 1e-9
    announce(5, "series rewrite overlap", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_06_single_step_connection():
    worst = 0.0
    for N, M in ((1, 2), (2, 2)):
        rng = np.random.default_rng([106, N, M])
        p = sample_params(N, M, Q, rng, coupling_cap=0.16, min_b=0.5)
        ident = perm_identity(M)
        for L in range(M):
            t = sample_level_overlap(p, L, ident, rng)
            lo = build_solution_vector(p, L, ident, t, CTX)
            hi = build_solution_vector(p, L + 1, ident, t, CTX)
            rA = verify_connection(lo, build_A(p, L, ident, t, CTX), hi)
            rB = verify_connection(hi, build_B(p, L + 1, ident, t, CTX), lo)
            worst = max(worst, rA, rB)
        for r in range(1, M):
            t = sample_swap_overlap(p, r, ident, rng)
            tau = perm_compose(ident, perm_transposition(M, r))
            src = build_solution_vector(p, M, ident, t, CTX)
            dst = build_solution_vector(p, M, tau, t, CTX)
            rS = verify_connection(dst, build_S(p, r, ident, t, CTX), src)
            worst = max(worst, rS)
    ok = worst < 1e-7
    announce(6, "single-step connection", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_07_composition():
    rng = np.random.default_rng(21)
    p = sample_params(1, 2, Q, rng, coupling_cap=0.16, min_b=0.5)
    ident = perm_identity(2)
    swap = perm_compose(ident, perm_transposition(2, 1))
    t = sample_family_overlap(p, (1, ident), (1, swap), rng)

    C1 = compose_connection(p, 1, ident, 1, swap, t, CTX, word=[1])
    src = build_solution_vector(p, 1, ident, t, CTX)
    dst = build_solution_vector(p, 1, swap, t, CTX)
    resid = verify_connection(dst, C1, src)

    C2 = compose_connection(p, 1, ident, 1, swap, t, CTX, word=[1, 1, 1])
    scale = max(np.abs(C1).max(), np.abs(C2).max())
    word_dev = np.abs(C1 - C2).max() / scale

    ok = resid < 1e-6 and word_dev < 1e-8
    announce(7, "composition", ok, f"resid={resid:.3e} words={word_dev:.3e}")
    assert ok


def test_criterion_08_pseudo_constancy():
    worst = 0.0
    for N, M in ((1, 2), (2, 2)):
        rng = np.random.default_rng(34 + N)
        p = sample_params(N, M, Q, rng, coupling_cap=0.16, min_b=0.5)
        ident = perm_identity(M)
        built = []
        for L in range(M):
            t = sample_level_overlap(p, L, ident, rng)
            built.append((lambda tt, L=L: build_A(p, L, ident, tt, CTX), t))
            built.append((lambda tt, L=L: build_B(p, L + 1, ident, tt, CTX), t))
        for r in range(1, M):
            t = sample_swap_overlap(p, r, ident, rng)
            built.append((lambda tt, r=r: build_S(p, r, ident, tt, CTX), t))
        for make, t in built:
            base = make(t)
            for s in range(1, M + 1):
                shifted = make(q_shift(t, Q, s))
                worst = max(worst, entrywise_rel_change(base, shifted))
    ok = worst < 1e-10
    announce(8, "pseudo-constancy", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_09_independence():
    p = ParamSet(
        alpha=(
            0.366746515128315 + 0.05469506771026811j,
            0.65500771215807 + 0.07394809962075366j,
        ),
        beta=(
            0.17821160121440496 + 0.08544806063810217j,
            0.1661287864441599 + 0.12043063808755738j,
        ),
        gamma=(
            0.7313808396492506 - 0.19473248056077366j,
            0.18735569804054936 - 0.10808769447170814j,
        ),
        q=Q,
    )
    t = (
        0.2873275861575968 + 0.08976920908314634j,
        15.702143690317696 + 10.462462597866931j,
    )
    ident = perm_identity(2)
    cols = [partial(local_solution, p, 1, ident, c, ctx=CTX) for c in component_order(2, 2)]
    rep = casorati_independence(cols, (3, -1), t, CTX)

    ok = rep.rcond > RCOND_FLOOR >= rep.forged_rcond
    announce(9, "independence", ok, f"rcond={rep.rcond:.3e} forged={rep.forged_rcond:.3e}")
    assert ok


def test_criterion_10_yang_baxter():
    worst = 0.0
    for N, M, r in ((1, 3, 1), (2, 3, 1), (3, 4, 2)):
        rng = np.random.default_rng([110, N, M, r])
        p = sample_params(N, M, Q, rng)
        for _ in range(8):
            u = sample_spectral(rng)
            v = sample_spectral(rng)
            worst = max(worst, ybe_residual(p, r, u, v, CTX))
    ok = worst < 1e-9
    announce(10, "yang-baxter", ok, f"worst={worst:.3e}")
    assert ok


def test_criterion_11_conjugacy_and_gauge():
    rng = np.random.default_rng(78)
    worst_conj = 0.0
    worst_gauge = 0.0
    for _ in range(8):
        al = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2))
        be = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.2, 0.2))
        u = sample_spectral(rng)
        Wt = build_Wtilde(al, be, u, CTX)
        W = build_W_akm(al, be, u, CTX)
        f = conj_f(al, be, CTX)
        A = np.diag([1.0 + 0j, f])
        B = np.diag([f, 1.0 + 0j])
        scale = np.abs(W).max()
        devA = np.abs(np.linalg.inv(A) @ Wt @ A - W).max() / scale
        devB = np.abs(B @ Wt @ np.linalg.inv(B) - W).max() / scale
        worst_conj = max(worst_conj, devA, devB)
        x = sample_spectral(rng, lo=0.6, hi=1.5)
        worst_gauge = max(worst_gauge, wprime_gauge_residual(al, be, x, CTX))
    ok = worst_conj < 1e-10 and worst_gauge < 1e-9
    announce(
        11, "conjugacy and gauge", ok,
        f"conj={worst_conj:.3e} gauge={worst_gauge:.3e}",
    )
    assert ok


def test_criterion_12_characteristic_exponents():
    rng = np.random.default_rng(90)
    p = sample_params(2, 2, Q, rng)
    ident = perm_identity(2)
    worst_eq = 0.0
    worst_lead = 0.0
    for L in (0, 1, 2):
        for comp, delta in zip(component_order(2, 2), char_exponents(p, L)):
            tot = sum(delta)
            for s in (1, 2):
                if s <= L:
                    expr = np.prod(
                        [1 - cj / Q * CTX.qpow(tot) for cj in p.c]
                    ) * (1 - CTX.qpow(delta[s - 1]))
                else:
                    expr = np.prod(
                        [1 - aj * CTX.qpow(tot) for aj in p.a]
                    ) * (1 - p.b[s - 1] * CTX.qpow(delta[s - 1]))
                worst_eq = max(worst_eq, abs(expr))
            for r, s in ((1, 2),):
                expr = (1 - p.b[s - 1] * CTX.qpow(delta[s - 1])) * (
                    1 - CTX.qpow(delta[r - 1])
                )
                worst_eq = max(worst_eq, abs(expr))

            fn = lambda tt, c=comp: local_solution(p, L, ident, c, tt, CTX)
            ext = leading_exponents(fn, L, 2, CTX)
            worst_lead = max(
                worst_lead, max(abs(g - d) for g, d in zip(ext, delta))
            )
    ok = worst_eq < 1e-10 and worst_lead < 1e-3
    announce(
        12, "characteristic exponents", ok,
        f"equations={worst_eq:.3e} leading={worst_lead:.3e}",
    )
    assert ok


def test_criterion_13_default_suite():
    start = time.perf_counter()
    rep1 = run_suite(RunConfig())
    elapsed = time.perf_counter() - start
    rep2 = run_suite(RunConfig())
    identical = report_to_dict(rep1) == report_to_dict(rep2)
    ok = elapsed < 300.0 and identical and rep1.passed
    announce(
        13, "default suite", ok,
        f"time={elapsed:.1f}s deterministic={identical} passed={rep1.passed}",
    )
    assert ok
