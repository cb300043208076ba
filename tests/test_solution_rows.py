"""Solution vectors in one engine pass: build_solution_vector gives, bit for
bit, each component's public evaluator times its prefactor, raises the
aggregated error those evaluators add up to, and reports a BranchWarning at
its caller; build_solution_vectors gives several families at one point in
one pass, each with the bits and the error of a one-family call."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconnect import (
    BranchWarning,
    ConvergenceError,
    DomainError,
    ParamSet,
    QContext,
    ResonanceError,
    SamplingError,
    build_solution_vector,
    build_solution_vectors,
    char_exponents,
    component_order,
    cpow,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_GNM_Lkl,
    local_solution,
    perm_compose,
    perm_transposition,
    permute_seq,
    sample_domain_point,
    sample_level_overlap,
    sample_params,
    sample_swap_overlap,
)
from qconnect import hyperseries, sampling
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
        "vectors": lambda: build_solution_vectors(p11, [(1, (1,)), (0, (1,))], t, ctx_long),
        "component": lambda: local_solution(p11, 1, (1,), (1, 1), t, ctx_long),
        "ladder": lambda: local_solution(p11, 1, (1,), (1, 1), [t, (-0.4 + 0j,)], ctx_long),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BranchWarning)
            call()
        assert caught, name
        assert {w.filename for w in caught} == {__file__}, name


def _passes(monkeypatch):
    """Cells of every _point_rows pass made from now on, one list per pass."""
    passes = []
    point_rows = hyperseries._point_rows

    def counted(cells, ctx):
        passes.append(cells)
        return point_rows(cells, ctx)

    monkeypatch.setattr(hyperseries, "_point_rows", counted)
    return passes


def _pairs(N, M, seed):
    """(p, t, families): two families that converge together at t, as the
    connection checks read them: a level step (L, sigma), (L+1, sigma) and
    a swap (M, sigma), (M, sigma o s_r), at their own points."""
    q = 0.3
    rng = np.random.default_rng([N, M, seed])
    p = sampling._overlap_params(N, M, q, rng)
    sigma = tuple(range(1, M + 1))
    L = int(rng.integers(0, M))
    r = int(rng.integers(1, M))
    return [
        (p, sample_level_overlap(p, L, sigma, rng), [(L, sigma), (L + 1, sigma)]),
        (p, sample_swap_overlap(p, r, sigma, rng),
         [(M, sigma), (M, perm_compose(sigma, perm_transposition(M, r)))]),
    ]


@pytest.mark.parametrize("N, M", [(2, 3), (3, 3)])
def test_families_in_one_pass_have_the_bits_of_one_family_calls(N, M, monkeypatch):
    ctx = QContext(q=0.3)
    compared = 0
    for seed in range(3):
        for p, t, families in _pairs(N, M, seed):
            alone = [build_solution_vector(p, L, sigma, t, ctx) for L, sigma in families]
            passes = _passes(monkeypatch)
            together = build_solution_vectors(p, families, t, ctx)
            monkeypatch.undo()
            # every component of both families is one cell of one pass
            assert len(passes) == 1 and len(passes[0]) == 2 * (N * M + 1)
            assert together == tuple(alone)
            for u, v in zip(together, alone):
                assert (u.L, u.sigma, u.t) == (v.L, v.sigma, v.t)
                assert _bits(u.components) == _bits(v.components)
                compared += 1
    assert compared == 12


def _failure(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001  compared below
        return type(exc), str(exc)
    return None


_SIG2 = (1, 2)
# (p, families, t, cap): a point outside the level-0 sector of _P22 only; a
# forced axis pole of _RESONANT at level 1 and a point outside its level-2
# sector; a level-2 family of _P13 that does not settle in 30 shells, and a
# point outside its level-3 sector
_FAILING = {
    "domain": (_P22, [(2, _SIG2), (0, _SIG2), (1, _SIG2)], (0.05, 0.5), 200),
    "pole": (_RESONANT, [(2, _SIG2), (1, _SIG2)], (0.3, 5.0), 200),
    "convergence": (_P13, [(3, (1, 2, 3)), (2, (1, 2, 3))], _toward_edge(2), 30),
}


@pytest.mark.parametrize("case", list(_FAILING))
def test_first_failing_family_raises_its_one_family_error(case):
    p, families, t, cap = _FAILING[case]
    ctx = QContext(q=0.3, series_cap=cap)
    alone = [_failure(lambda fam=fam: build_solution_vector(p, *fam, t, ctx)) for fam in families]
    assert 0 < sum(map(bool, alone)) < 3 and len(set(alone)) > 1
    for order in (families, families[::-1]):
        expected = next(f for f in (alone[families.index(fam)] for fam in order) if f)
        assert _failure(lambda: build_solution_vectors(p, order, t, ctx)) == expected


def test_family_that_cannot_be_set_up_raises_in_its_place(p22, ctx_long):
    # a level out of range raises only when no family before it fails
    good, bad, far = (2, _SIG2), (5, _SIG2), (0, _SIG2)
    t = (0.05, 0.5)  # inside the level-2 sector, outside the level-0 one
    level = (IndexError, "L = 5 outside [0, 2]")
    assert _failure(lambda: build_solution_vectors(p22, [good, bad], t, ctx_long)) == level
    assert _failure(lambda: build_solution_vectors(p22, [far, bad], t, ctx_long)) == _failure(
        lambda: build_solution_vector(p22, *far, t, ctx_long))
    # a point of the wrong length raises in the place of the first family set up
    assert _failure(lambda: build_solution_vectors(p22, [(2, (1, 1)), good], (0.3,), ctx_long)) \
        == (ValueError, "not a permutation of 1..2: (1, 1)")
    assert _failure(lambda: build_solution_vectors(p22, [good, bad], (0.3,), ctx_long)) \
        == (ValueError, "expected 2 coordinates, got 1")


def test_a_repeated_family_is_built_once(p23, ctx_long, monkeypatch):
    sigma = (1, 2, 3)
    t = sample_level_overlap(p23, 2, sigma, np.random.default_rng(5))
    passes = _passes(monkeypatch)
    first, again, other = build_solution_vectors(
        p23, [(2, sigma), (np.int64(2), [1, 2, 3]), (3, sigma)], t, ctx_long)
    assert len(passes) == 1 and len(passes[0]) == 2 * (p23.N * p23.M + 1)
    monkeypatch.undo()
    assert first == again == build_solution_vector(p23, 2, sigma, t, ctx_long)
    assert _bits(again.components) == _bits(first.components)
    assert other.L == 3


# ---------------------------------------------------------------------------
# one pass shares each lower slot's part among the N components of the slot


def _alone(p, L, sigma, comp, t, ctx):
    """Bits of one local_solution call for one component at one point, or
    the type and text of its error."""
    try:
        value = local_solution(p, L, sigma, comp, t, ctx)
    except Exception as exc:  # noqa: BLE001  compared below
        return type(exc), str(exc)
    return value.real.hex(), value.imag.hex()


def _shared(p, L, sigma, points, ctx):
    """Every component of the (L, sigma) family at every point of points,
    from one _component_rows pass: per component, per point, the value's bits
    or the type and text of the error in its place."""
    _, _, pp, exps = hyperseries._family(p, L, sigma, ctx)
    tts = [hyperseries._reorder(pt, sigma) for pt in points]
    cells = hyperseries._component_rows(
        [(pp, L, c, d, tts) for c, d in zip(component_order(p.N, p.M), exps)], ctx)
    return [[(type(v), str(v)) if isinstance(v, Exception) else (v.real.hex(), v.imag.hex())
             for v in values] for values in cells]


@pytest.mark.parametrize("N, M", [(2, 3), (3, 3)])
def test_two_family_pass_has_the_bits_of_one_component_calls(N, M):
    ctx = QContext(q=0.3)
    compared = 0
    for seed in range(3):
        for p, t, families in _pairs(N, M, seed):
            for vec in build_solution_vectors(p, families, t, ctx):
                assert type(vec.L) is int
                for comp, value in zip(component_order(N, M), vec.components):
                    assert (value.real.hex(), value.imag.hex()) == _alone(
                        p, vec.L, vec.sigma, comp, t, ctx), (seed, vec.L, vec.sigma, comp)
                    compared += 1
    assert compared == 12 * (N * M + 1)


_SWEEP = [(N, M) for N in range(1, 13) for M in range(1, 13) if N * M <= 12]


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from(_SWEEP), seed=st.integers(0, 2**16), q=st.sampled_from([0.3, 0.5]))
def test_shared_pass_has_the_bits_of_one_component_calls(shape, seed, q):
    """At shapes N*M <= 12, every component of one pass over a point and its
    q-shift has the bits, or the error, of a one-component call there."""
    N, M = shape
    ctx = QContext(q=q)
    rng = np.random.default_rng(seed)
    p = sample_params(N, M, q, rng)
    L = int(rng.integers(0, M + 1))
    sigma = tuple(int(v) + 1 for v in rng.permutation(M))
    try:
        t = sample_domain_point(p, L, sigma, rng)
    except SamplingError:
        return
    points = [t, tuple(v * q for v in t)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        got = _shared(p, L, sigma, points, ctx)
        want = [[_alone(p, L, sigma, c, pt, ctx) for pt in points] for c in component_order(N, M)]
    assert got == want


# _P23S at level 2: the point _T23S is outside the sector of slot 2 only
# (|t_2| >= 1) and inside those of slots 1 and 3, so component 0 and the
# components (k, 2) fail, and every other component has a value
_P23S = ParamSet(
    alpha=(0.249398635810561 - 0.03599895618643037j, 0.4935873507746732 - 0.18622432814304124j),
    beta=(0.3820474171436007 - 0.1018871324364516j, 0.5088265134763928 + 0.10573857809456583j,
          0.4196650553219654 + 0.01801501780442266j),
    gamma=(0.8304210187357733 + 0.10686208583193774j, 0.8950794265468436 - 0.036856180756463575j),
    q=0.3,
)
_T23S = (0.1271719685511743 + 0.059192626604555425j, 7.51284475421327 - 4.413348768366213j,
         6.241539366157515 + 1.5701413766512111j)


def test_point_outside_a_slot_sector_fails_only_that_slot():
    ctx = QContext(q=0.3)
    L, sigma = 2, (1, 2, 3)
    bad = [l for l in (1, 2, 3)
           if not all(r < 1 for r, _, _ in hyperseries._sector(_P23S, _P23S.b, L, l, _T23S))]
    assert bad == [2]
    _, _, pp, exps = hyperseries._family(_P23S, L, sigma, ctx)
    comps = component_order(2, 3)
    cells = hyperseries._component_rows([(pp, L, c, d, [_T23S]) for c, d in zip(comps, exps)], ctx)
    places = dict(zip(comps, (v for (v,) in cells)))
    failed = [c for c, v in places.items() if isinstance(v, Exception)]
    assert failed == [0, (1, 2), (2, 2)]
    # each failing component of the slot holds an exception of its own
    assert places[(1, 2)] is not places[(2, 2)]
    for comp, value in places.items():
        got = ((type(value), str(value)) if isinstance(value, Exception)
               else (value.real.hex(), value.imag.hex()))
        assert got == _alone(_P23S, L, sigma, comp, _T23S, ctx), comp
    assert str(places[(1, 2)]) == "outside convergence region: |t_2| >= 1"


def test_points_that_differ_in_a_signed_zero_are_never_shared(p22, ctx_long):
    """Two points equal under == but for the sign of a zero imaginary part
    each get the bits of their own calls, and their values differ."""
    L, sigma = 1, (1, 2)
    pos, neg = (0.3, -5.0 + 0j), (0.3, complex(-5.0, -0.0))
    assert pos == neg
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        got = _shared(p22, L, sigma, [pos, neg], ctx_long)
        want = [[_alone(p22, L, sigma, c, pt, ctx_long) for pt in (pos, neg)]
                for c in component_order(2, 2)]
        assert got == want
        assert all(a != b for a, b in got)
        # the store of slot parts keeps one entry per point object
        slots: dict = {}
        for tt in (tuple(map(complex, pos)), tuple(map(complex, neg))):
            hyperseries._slot_axes(p22, L, 2, tt, 1, slots)
        assert len(slots) == 2


def test_the_level_of_a_vector_is_an_int(p22, ctx_long):
    t = (0.3, 5.0)
    (vec,) = build_solution_vectors(p22, [(np.int64(1), (1, 2))], t, ctx_long)
    assert type(vec.L) is int and vec.L == 1
    assert type(build_solution_vector(p22, np.int64(1), [1, 2], t, ctx_long).L) is int
