"""Solution vectors in one engine pass: build_solution_vector gives, bit for
bit, each component's public evaluator times its prefactor, raises the
aggregated error those evaluators add up to, and reports a BranchWarning at
its caller."""

import warnings

import numpy as np
import pytest

from qconnect import (
    BranchWarning,
    ConvergenceError,
    DomainError,
    ParamSet,
    QContext,
    ResonanceError,
    SamplingError,
    build_solution_vector,
    char_exponents,
    component_order,
    cpow,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_GNM_Lkl,
    local_solution,
    permute_seq,
    sample_domain_point,
    sample_params,
)
from conftest import ALPHA, BETA, GAMMA


def _series(pp, L, comp, tt, ctx):
    if comp == 0:
        return eval_FNM_L(pp, L, tt, ctx)
    k, l = comp
    evaluator = eval_FNM_Lkl if l > L else eval_GNM_Lkl
    return evaluator(pp, L, k, l, tt, ctx)


def _reference(p, L, sigma, t, ctx):
    """The vector from one public evaluator call per component, each times
    the principal powers of its leading exponents: the components, or the
    type and text of the error that aggregates the failing ones."""
    pp = p.permuted(sigma)
    tt = permute_seq(tuple(complex(v) for v in t), sigma)
    comps, failures = [], []
    for comp, delta in zip(component_order(p.N, p.M), char_exponents(pp, L)):
        try:
            value = _series(pp, L, comp, tt, ctx).value
            pref = 1.0 + 0j
            for i in range(L + 1 if comp == 0 else comp[1], p.M + 1):
                pref *= cpow(tt[i - 1], delta[i - 1])
        except Exception as exc:  # noqa: BLE001  aggregated below
            failures.append((comp, exc))
            continue
        comps.append(pref * value)
    if failures:
        detail = "; ".join(f"component {lab}: {exc}" for lab, exc in failures)
        return type(failures[0][1]), f"{len(failures)} component(s) failed: {detail}"
    return tuple(comps)


def _outcome(p, L, sigma, t, ctx):
    try:
        return build_solution_vector(p, L, sigma, t, ctx).components
    except Exception as exc:  # noqa: BLE001  compared below
        return type(exc), str(exc)


def _bits(value):
    """Exact bits, signed zeros included, of a tuple of components."""
    if isinstance(value, tuple) and value and isinstance(value[0], complex):
        return [(z.real.hex(), z.imag.hex()) for z in value]
    return value


_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.5 + 0.2j], ids=["0.3", "0.5", "0.7", "0.5+0.2j"])
def test_vector_is_the_public_evaluators_times_prefactors(q):
    ctx = QContext(q=q)
    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        for N, M in _SHAPES:
            rng = np.random.default_rng([26, N, M])
            p = sample_params(N, M, q, rng)
            for L in range(M + 1):
                for sigma in (tuple(range(1, M + 1)), tuple(range(M, 0, -1))):
                    try:
                        t = sample_domain_point(p, L, sigma, rng)
                    except SamplingError:
                        continue
                    ref = _reference(p, L, sigma, t, ctx)
                    assert _bits(_outcome(p, L, sigma, t, ctx)) == _bits(ref), (N, M, L, sigma)
                    compared += isinstance(ref[0], complex)
    assert compared >= 20


_P22 = ParamSet(alpha=ALPHA[:2], beta=BETA[:2], gamma=GAMMA[:2], q=0.3)
# a_2 = a_1 q^2 puts an axis pole in component (1, 2) at every point
_RESONANT = ParamSet(alpha=(ALPHA[0], ALPHA[0] + 2), beta=BETA[:2], gamma=GAMMA[:2], q=0.3)
_P13 = ParamSet(
    alpha=(0.24454800413188843 - 0.19604952724304647j,),
    beta=(0.35914595180109454 - 0.159680835538031j, 0.8350630151438381 + 0.055973025310065816j,
          0.6795304442579129 - 0.08436914963706231j),
    gamma=(0.28935728147886175 - 0.12786051531324777j,),
    q=0.3,
)
_T13 = (0.09777898166322245 - 0.004015707999911802j, 0.2830538797548225 - 0.059862604170553224j,
        8.106573532621349 - 4.0297776565772745j)


def _toward_edge(s):
    """_T13 moved s/4 of a q-step toward the edge of the level-2 sector."""
    return tuple(v * 0.3 ** (k * s / 4) for v, k in zip(_T13, (-1, 0, -1)))


# Re(1 + beta_2 - gamma_2) < 0, so component (2, 1) has no power of t_1 = 0
_ZERO_POWER = ParamSet(alpha=ALPHA[:2], beta=BETA[:2], gamma=(GAMMA[0], 1.6 + 0j), q=0.3)

_DOMAIN = "outside convergence region: |t_1| >= 1"
_NO_POWER = "0**alpha is undefined for Re(alpha) <= 0"
_POLE = ("axis weight recurrence hit a vanishing denominator "
         "(a lower parameter degenerated onto the q-power lattice)")
_PLANTED = {
    "domain": (_P22, 1, (1.5, 5.0), 200, DomainError,
               f"3 component(s) failed: component 0: {_DOMAIN}; "
               f"component (1, 1): {_DOMAIN}; component (2, 1): {_DOMAIN}"),
    "resonance": (_RESONANT, 1, (0.3, 5.0), 200, ResonanceError,
                  f"1 component(s) failed: component (1, 2): {_POLE}"),
    "domain-then-resonance": (_RESONANT, 1, (1.3, 5.0), 200, DomainError,
                              f"4 component(s) failed: component 0: {_DOMAIN}; "
                              f"component (1, 1): {_DOMAIN}; component (1, 2): {_POLE}; "
                              f"component (2, 1): {_DOMAIN}"),
    "convergence": (_P13, 2, _toward_edge(2), 30, ConvergenceError,
                    "2 component(s) failed: component (1, 1): series did not settle within "
                    "30 shells (last relative shell size 7.945e-10); component (1, 2): "
                    "series did not settle within 30 shells (last relative shell size "
                    "8.794e-10)"),
    "convergence-then-domain": (_P13, 2, _toward_edge(5), 30, ConvergenceError,
                                "3 component(s) failed: component 0: series did not settle "
                                "within 30 shells (last relative shell size 1.412e-11); "
                                "component (1, 1): outside convergence region: ratio at "
                                "i = 2 >= 1; component (1, 2): outside convergence region: "
                                "ratio at i = 1 >= 1"),
    "prefactor": (_ZERO_POWER, 2, (0j, 0.5), 200, DomainError,
                  f"1 component(s) failed: component (2, 1): {_NO_POWER}"),
    "convergence-then-prefactor": (_ZERO_POWER, 1, (0j, 0.05), 200, ConvergenceError,
                                   "4 component(s) failed: component 0: series did not settle "
                                   "within 200 shells (last relative shell size 3.586e-02); "
                                   "component (1, 2): series did not settle within 200 shells "
                                   "(last relative shell size 3.172e-02); component (2, 1): "
                                   f"{_NO_POWER}; component (2, 2): series did not settle "
                                   "within 200 shells (last relative shell size 3.412e-02)"),
}


@pytest.mark.parametrize("case", list(_PLANTED))
def test_planted_component_failures_raise_the_aggregated_error(case):
    p, L, t, cap, kind, text = _PLANTED[case]
    ctx = QContext(q=0.3, series_cap=cap)
    sigma = tuple(range(1, p.M + 1))
    with pytest.raises(kind) as err:
        build_solution_vector(p, L, sigma, t, ctx)
    assert type(err.value) is kind and str(err.value) == text
    assert _reference(p, L, sigma, t, ctx) == (kind, text)


def test_branch_warning_names_the_caller(p11, ctx_long):
    t = (-0.5 + 0j,)
    calls = {
        "vector": lambda: build_solution_vector(p11, 1, (1,), t, ctx_long),
        "component": lambda: local_solution(p11, 1, (1,), (1, 1), t, ctx_long),
        "ladder": lambda: local_solution(p11, 1, (1,), (1, 1), [t, (-0.4 + 0j,)], ctx_long),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BranchWarning)
            call()
        assert caught, name
        assert {w.filename for w in caught} == {__file__}, name
