"""Series evaluators, local solution families, exponents, domain checks."""

import contextlib
import hashlib
from functools import partial

import numpy as np
import pytest

from qconnect import (
    BranchWarning,
    ConvergenceError,
    DomainError,
    ParamSet,
    QContext,
    ResonanceError,
    build_solution_vector,
    char_exponents,
    check_resonance,
    component_index,
    component_order,
    eval_FNM,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_GNM_Lkl,
    eval_nphi,
    in_domain,
    local_solution,
    qpoch_inf,
    sample_interior_point,
    sample_params,
)
from qconnect import hyperseries
from qconnect.hyperseries import (
    _BLOCK,
    _axis_table,
    _block_table,
    _coupling_table,
    _shell_series,
    _stages,
)
from conftest import ALPHA, BETA, GAMMA, Q


def test_full_series_frozen_value(p12, ctx_long):
    sv = eval_FNM(p12, (0.3, 0.25), ctx_long)
    assert abs(sv.value - (1.26957444075356 + 0.08700184306695276j)) < 1e-12
    assert sv.terms_used == 26
    assert sv.tail_estimate >= 0.0


def test_full_series_single_slot_is_nphi(p11, ctx_long):
    t = 0.41
    lhs = eval_FNM(p11, (t,), ctx_long).value
    rhs = eval_nphi((p11.a[0], p11.b[0]), (p11.c[0],), t, ctx_long).value
    assert abs(lhs - rhs) < 1e-15 * abs(rhs)


def test_full_series_single_slot_two_rows(p21, ctx_long):
    t = 0.38 - 0.06j
    lhs = eval_FNM(p21, (t,), ctx_long).value
    rhs = eval_nphi(
        (p21.a[0], p21.a[1], p21.b[0]), (p21.c[0], p21.c[1]), t, ctx_long
    ).value
    assert abs(lhs - rhs) < 1e-13 * abs(rhs)


def test_full_series_slot_permutation_symmetry(p12, ctx_long):
    # simultaneous swap of the (b_i, t_i) pairs leaves the sum unchanged
    t = (0.31 + 0.03j, 0.24 - 0.08j)
    lhs = eval_FNM(p12, t, ctx_long).value
    rhs = eval_FNM(p12.permuted((2, 1)), (t[1], t[0]), ctx_long).value
    assert abs(lhs - rhs) < 1e-14 * abs(rhs)


@pytest.mark.parametrize("N, M", [(1, 2), (2, 3)])
def test_full_series_is_split_series_at_top_level(N, M, ctx_long):
    # identical to the last bit: at L = M the coupling quotient is 1 + 0j
    for seed in range(4):
        rng = np.random.default_rng(seed)
        p = sample_params(N, M, Q, rng)
        t = sample_interior_point(M, rng)
        assert eval_FNM(p, t, ctx_long) == eval_FNM_L(p, M, t, ctx_long)


def test_full_series_domain_errors(p12, ctx_long):
    with pytest.raises(DomainError):
        eval_FNM(p12, (0.3, 1.0), ctx_long)
    with pytest.raises(ValueError):
        eval_FNM(p12, (0.3,), ctx_long)


def test_nphi_frozen_value(ctx_long):
    sv = eval_nphi((0.4, 0.2), (0.5,), 0.35, ctx_long)
    assert abs(sv.value - 1.758430739306215) < 1e-12
    assert sv.terms_used == 30


def test_nphi_binomial_degeneration(ctx_long):
    # one upper slot, no lower slot: sum collapses to a product ratio
    a = ctx_long.qpow(0.37 + 0.11j)
    t = 0.4 + 0.05j
    lhs = eval_nphi((a,), (), t, ctx_long).value
    rhs = qpoch_inf(a * t, ctx_long) / qpoch_inf(t, ctx_long)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_nphi_errors(ctx_long):
    with pytest.raises(ValueError):
        eval_nphi((0.4,), (0.5, 0.6), 0.3, ctx_long)
    with pytest.raises(DomainError):
        eval_nphi((0.4, 0.2), (0.5,), 1.0, ctx_long)
    with pytest.raises(ResonanceError):
        eval_nphi((0.4, 0.2), (Q**-1,), 0.3, ctx_long)
    with pytest.raises(ResonanceError):
        eval_nphi((0.4, 0.2), (1.0,), 0.3, ctx_long)
    tiny = QContext(q=Q, series_cap=2)
    with pytest.raises(ConvergenceError):
        eval_nphi((0.4, 0.2), (0.5,), 0.9, tiny)


def test_nphi_pole_past_the_first_terms(ctx_long):
    # (l; q)_m = 0 for every m > 100: the sum is undefined, however early
    # its first terms settle
    with pytest.raises(ResonanceError, match=r"^lower parameter 1 sits at q\^-100$"):
        eval_nphi((0.4, 0.2), (Q**-100,), 0.3, ctx_long)


@pytest.mark.parametrize(
    "evaluate, message",
    [
        (lambda ctx: eval_nphi((0.4, 0.2), (Q**-250,), 0.3, ctx),
         r"^lower parameter 1 sits at q\^-250$"),
        (lambda ctx: _shell_series([((0.4,), (Q, Q**-250), 0.5)], [], (0.2,), (0.7,), ctx),
         r"^axis weight recurrence hit a vanishing denominator"),
        (lambda ctx: _shell_series(_PLUS, [], (0.2,), (Q**-250,), ctx),
         r"^coupling denominator vanished at index 250 "),
        (lambda ctx: _shell_series([], _MINUS, (0.2, Q**250), (0.7, 0.6), ctx),
         r"^coupling denominator vanished at index -250 "),
        (lambda ctx: eval_nphi((0.4, 0.2), (Q**-50,), 0.3, QContext(q=Q, series_cap=40)),
         r"^lower parameter 1 sits at q\^-50$"),
    ],
    ids=["nphi", "axis", "coupling-plus", "coupling-minus", "nphi-small-cap"],
)
def test_pole_past_series_cap(evaluate, message, ctx_long):
    # every term past the pole divides by zero, so the series is undefined
    # however early its first shells settle, and whatever series_cap is
    with pytest.raises(ResonanceError, match=message):
        evaluate(ctx_long)


def test_level_series_tail_limit(p22, ctx_long):
    # with every large slot pushed to infinity only the constant term survives
    sv = eval_FNM_L(p22, 1, (0.0, 1e12), ctx_long)
    assert abs(sv.value - 1.0) < 1e-12


def test_level_series_index_errors(p22, ctx_long):
    with pytest.raises(IndexError):
        eval_FNM_L(p22, 3, (0.3, 0.25), ctx_long)
    with pytest.raises(IndexError):
        eval_FNM_L(p22, -1, (0.3, 0.25), ctx_long)


def test_component_series_index_errors(p22, ctx_long):
    t = (0.3, 3.0)
    with pytest.raises(IndexError):
        eval_FNM_Lkl(p22, 1, 0, 2, t, ctx_long)
    with pytest.raises(IndexError):
        eval_FNM_Lkl(p22, 1, 3, 2, t, ctx_long)
    with pytest.raises(IndexError):
        eval_FNM_Lkl(p22, 1, 1, 1, t, ctx_long)
    with pytest.raises(IndexError):
        eval_GNM_Lkl(p22, 1, 1, 2, t, ctx_long)


def test_component_order_and_index():
    assert component_order(2, 2) == [0, (1, 1), (1, 2), (2, 1), (2, 2)]
    assert component_order(1, 3) == [0, (1, 1), (1, 2), (1, 3)]
    for M in (2, 3):
        order = component_order(2, M)
        for comp in order[1:]:
            assert order.index(comp) == component_index(comp, M)


def test_local_solution_top_level_is_plain_series(p22, ctx_long):
    t = (0.3 + 0.02j, 0.25 - 0.03j)
    lhs = local_solution(p22, 2, (1, 2), 0, t, ctx_long)
    rhs = eval_FNM(p22, t, ctx_long).value
    assert abs(lhs - rhs) < 1e-14 * abs(rhs)


def test_local_solution_branch_warning(p11, ctx_long):
    with pytest.warns(BranchWarning):
        local_solution(p11, 1, (1,), (1, 1), (-0.5 + 0j,), ctx_long)


def test_solution_vector_shape_and_consistency(p22, ctx_long):
    t = (0.05, 0.5)
    vec = build_solution_vector(p22, 2, (1, 2), t, ctx_long)
    assert vec.L == 2 and vec.sigma == (1, 2) and vec.t == t
    arr = vec.as_array()
    assert arr.shape == (5,)
    for i, comp in enumerate(component_order(2, 2)):
        direct = local_solution(p22, 2, (1, 2), comp, t, ctx_long)
        assert abs(arr[i] - direct) < 1e-14 * max(abs(direct), 1.0)


# One point inside each (L, sigma) sector at (N, M) = (2, 3) and the sha256
# prefix of its components' hex digits. The shell engine convolves the axes
# in list order, so moving the distinguished axis or reordering the plain
# axes of a component changes the last bits and the digest.
_FAMILY_POINTS_23 = [
    ((1, 2, 3), 0, (0.5 + 0.05j, 1.5 - 0.1j, 4.5 + 0.2j), "b3c5b68dc74d6e8c"),
    ((1, 2, 3), 1, (0.3 + 0.05j, 1.5 - 0.1j, 4.5 + 0.2j), "eacb45860fa73c82"),
    ((1, 2, 3), 2, (0.1 + 0.02j, 0.35 - 0.05j, 2.0 + 0.1j), "ca9bc5aad2d90cbf"),
    ((1, 2, 3), 3, (0.05 + 0.01j, 0.2 - 0.03j, 0.6 + 0.05j), "504b9140dd8df502"),
    ((3, 1, 2), 0, (1.5 - 0.1j, 4.5 + 0.2j, 0.5 + 0.05j), "036a2bcace30bfc6"),
    ((3, 1, 2), 1, (1.5 - 0.1j, 4.5 + 0.2j, 0.3 + 0.05j), "0ba61056ba9eb807"),
    ((3, 1, 2), 2, (0.35 - 0.05j, 2.0 + 0.1j, 0.1 + 0.02j), "a0591e0882c093fc"),
    ((3, 1, 2), 3, (0.2 - 0.03j, 0.6 + 0.05j, 0.05 + 0.01j), "67248e53a49f5dc9"),
]


@pytest.mark.parametrize("sigma, L, t, digest", _FAMILY_POINTS_23)
def test_solution_vector_frozen_bits(sigma, L, t, digest, p23, ctx_long):
    assert in_domain(L, sigma, p23, t) > 0.0
    vec = build_solution_vector(p23, L, sigma, t, ctx_long)
    h = hashlib.sha256()
    for comp, z in zip(component_order(2, 3), vec.components, strict=True):
        assert local_solution(p23, L, sigma, comp, t, ctx_long) == z
        h.update(z.real.hex().encode())
        h.update(z.imag.hex().encode())
    assert h.hexdigest()[:16] == digest


def test_solution_vector_aggregates_failures(p22, ctx_long):
    # point past the convergence boundary for every level-1 component
    with pytest.raises(ConvergenceError, match=r"component\(s\) failed"):
        build_solution_vector(p22, 1, (1, 2), (0.5, 0.25), ctx_long)


def test_char_exponents_single_slot(p11, p12):
    for p, L, expected in (
        (p11, 0, {0: (-BETA[0],), (1, 1): (-ALPHA[0],)}),
        (p11, 1, {0: (0j,), (1, 1): (1 - GAMMA[0],)}),
        # and a second slot past the level: component 0 has delta (0, -beta_2)
        (p12, 1, {
            0: (0j, -BETA[1]),
            (1, 1): (1 + BETA[1] - GAMMA[0], -BETA[1]),
            (1, 2): (0j, -ALPHA[0]),
        }),
    ):
        got = dict(zip(component_order(p.N, p.M), char_exponents(p, L), strict=True))
        assert set(got) == set(expected)
        for comp, delta in expected.items():
            assert max(abs(g - e) for g, e in zip(got[comp], delta)) < 1e-14


def test_check_resonance_flags_planted_collisions(p22):
    assert check_resonance(p22, (1, 2)) == ()

    p_a = ParamSet((ALPHA[0], ALPHA[0]), BETA[:2], GAMMA[:2], Q)
    assert {(v[0], v[2]) for v in check_resonance(p_a, (1, 2))} == {
        ("a_1/a_2", 0),
        ("a_2/a_1", 0),
    }

    p_c = ParamSet(ALPHA[:2], BETA[:2], (GAMMA[1] + 3, GAMMA[1]), Q)
    assert {(v[0], v[2]) for v in check_resonance(p_c, (1, 2))} == {
        ("c_1/c_2", 3),
        ("c_2/c_1", -3),
    }


def test_in_domain_margins(p22):
    assert in_domain(2, (1, 2), p22, (0.05, 0.5)) == pytest.approx(0.5, abs=1e-6)
    assert in_domain(2, (1, 2), p22, (1.0, 0.5)) == 0.0
    for L in (-1, 3):
        with pytest.raises(IndexError, match=rf"L = {L} outside \[0, 2\]"):
            in_domain(L, (1, 2), p22, (0.05, 0.5))


# ---------------------------------------------------------------------------
# series engine: exact values, shell counts and error texts, on every rung of
# the table ladder (48, 96, 192 and 200 shells at series_cap 200)


@pytest.fixture(scope="module")
def p23_real():
    """Real parameters: at real points every shell of every series is real."""
    return ParamSet((0.37, 0.22), (0.52, 0.33, 0.44), (0.81, 0.64), Q)


_ENGINE_SERIES = [
    # plus axes only
    ("p12", None, (0.3, 0.25),
     ("0x1.4502d49edfc07p+0", "0x1.645c0b6aa0eadp-4", 26, 7.688337164422478e-13)),
    ("p12", None, (0.7, 0.65 - 0.1j),
     ("0x1.7f0fb30550f78p+1", "0x1.347985559e4e4p-2", 78, 9.09562227490061e-13)),
    # minus axes only
    ("p22", 0, (0.6, 0.6 + 0.05j),
     ("0x1.61d1143d729b6p+0", "0x1.6f169bec3d189p-4", 28, 5.760545777670476e-13)),
    ("p22", 0, (0.35, 0.35 + 0.05j),
     ("0x1.062a29b3b5035p+1", "0x1.d62b4318b3221p-3", 51, 7.350926017927997e-13)),
    # both sides
    ("p22", 1, (0.6, 4.0),
     ("0x1.df282dbdcf9abp-1", "-0x1.1f40f2c39ff49p-3", 53, 8.223874782997291e-13)),
    # last shell on the rungs past the first: 97-192 and 193-200
    ("p12", None, (0.8, 0.75),
     ("0x1.25d6150a5a47bp+2", "0x1.a17d62fff0460p+0", 124, 9.62748751678193e-13)),
    ("p12", None, (0.875, 0.825),
     ("0x1.11f7c8102e1dfp+3", "0x1.dadbe0e001bd3p+1", 201, 9.581923972670665e-13)),
    ("p22", 0, (0.25, 0.3),
     ("0x1.c0aba568464e7p+1", "0x1.b26c1b08e2b68p-2", 117, 9.83106051773972e-13)),
    ("p22", 0, (0.227, 0.277),
     ("0x1.545831265a5fdp+2", "0x1.7d1def95bb79fp-3", 198, 9.960352483111021e-13)),
    ("p22", 1, (0.8, 4.0),
     ("0x1.9b4e673f620adp-1", "-0x1.6da6bb3a12dadp-2", 117, 8.895228621410701e-13)),
    ("p22", 1, (0.876, 4.0),
     ("0x1.46dd0a7e64ff5p-1", "-0x1.39a903e83ebf9p-1", 195, 9.016268986664451e-13)),
    # real-valued, both sides: two minus axes, then two plus axes
    ("p23_real", 1, (0.7, 3.0, 5.0),
     ("-0x1.113d27d6ea7e6p+6", "0x0.0p+0", 78, 7.138204792057438e-13)),
    ("p23_real", 2, (0.8, 0.7, 5.0),
     ("0x1.3c8bca3ee3c71p+1", "0x0.0p+0", 120, 9.227857585545619e-13)),
    ("p23_real", 1, (0.875, 3.0, 5.0),
     ("-0x1.494003f0a6c54p+7", "0x0.0p+0", 194, 9.82972148322157e-13)),
]


@pytest.mark.parametrize("pname, L, t, frozen", _ENGINE_SERIES)
def test_series_engine_frozen_bits(pname, L, t, frozen, request, ctx_long):
    p = request.getfixturevalue(pname)
    sv = eval_FNM(p, t, ctx_long) if L is None else eval_FNM_L(p, L, t, ctx_long)
    got = (sv.value.real.hex(), sv.value.imag.hex(), sv.terms_used, sv.tail_estimate)
    assert got == frozen


# The running sum starts from +0j, so a zero imaginary part of the value is
# +0.0 whatever the shells hold; the sha256 prefix of every shell's hex
# digits shows the sign of each zero the tables and products leave.
_REAL_SHELLS = [
    (1, (0.7, 3.0, 5.0), "601a6221be3cf266"),
    (2, (0.8, 0.7, 5.0), "7cb84b8eac4650b7"),
    (1, (0.875, 3.0, 5.0), "01559a43d80173a8"),
    (2, (-0.8, 0.7, 5.0), "1aa8973b3b636f0c"),
    (0, (-2.0, 3.0, -5.0), "f0593bbc88d9f689"),
    (3, (-0.3, 0.2, -0.25), "ed33c1fd4aab0df1"),
]


@pytest.mark.parametrize("L, t, digest", _REAL_SHELLS)
def test_real_series_shell_bits(L, t, digest, p23_real, monkeypatch):
    shells = []
    add = hyperseries._Sum.add

    def recorded(run, terms, tol):
        def tee():
            for term in terms:
                shells.append(term)
                yield term

        return add(run, tee(), tol)

    monkeypatch.setattr(hyperseries._Sum, "add", recorded)
    eval_FNM_L(p23_real, L, t, QContext(q=Q, prod_terms=60, series_cap=200))
    h = hashlib.sha256()
    for z in shells:
        h.update(f"{z.real.hex()} {z.imag.hex()}\n".encode())
    assert h.hexdigest()[:16] == digest


def test_nphi_convergence_error_text():
    with pytest.raises(ConvergenceError, match=r"^single-variable sum did not settle within 20 terms$"):
        eval_nphi((0.9, 0.99), (0.5,), 0.999, QContext(q=Q, series_cap=20))


def test_table_ladder_stops():
    assert _stages(200) == [48, 96, 192, 200]
    assert _stages(80) == [48, 80]
    assert _stages(96) == [48, 96]
    assert _stages(48) == [48]
    assert _stages(20) == [20]


@pytest.mark.parametrize("sides", [(1, 1), (1, 0), (0, 1)], ids=["both", "plus", "minus"])
def test_coupling_table_ladder_matches_a_fresh_build(sides, ctx_long):
    nums = (0.37 + 0.11j, 0.22 - 0.14j)
    dens = (0.81 + 0.05j, 0.64 - 0.12j)
    stage = None
    for stop in _stages(200):
        up, down = stop * sides[0], stop * sides[1]
        g = _coupling_table(nums, dens, up, down, ctx_long, stage)
        stage = g, up, down
    fresh = _coupling_table(nums, dens, 200 * sides[0], 200 * sides[1], ctx_long)
    assert g.tobytes() == fresh.tobytes()
    assert not g.flags.writeable


@pytest.mark.parametrize(
    "pname, L, t, last",
    [
        ("p12", None, (0.95, 0.9), "2.995e-06"),
        # both sides: the last shell comes from the tables rebuilt past the stage
        ("p22", 1, (0.9, 4.0), "6.950e-11"),
    ],
    ids=["plus-only", "two-sided"],
)
def test_series_engine_convergence_error_text(pname, L, t, last, request, ctx_long):
    p = request.getfixturevalue(pname)
    with pytest.raises(ConvergenceError) as err:
        eval_FNM(p, t, ctx_long) if L is None else eval_FNM_L(p, L, t, ctx_long)
    assert str(err.value) == (
        f"series did not settle within 200 shells (last relative shell size {last})"
    )


_AXIS_POLE = (
    "axis weight recurrence hit a vanishing denominator "
    "(a lower parameter degenerated onto the q-power lattice)"
)
_PLUS = [((0.4,), (Q,), 0.5)]
_MINUS = [((0.3,), (Q,), 0.4)]
_AXIS_60 = [((0.4,), (Q, Q**-60), 0.5)]
_MINUS_AXIS_60 = [((0.3,), (Q, Q**-60), 0.4)]
_NEAR = 1.0 + 1e-10


_POLES = [
    (_AXIS_60, [], (0.2,), (0.7,), _AXIS_POLE),
    # an axis pole wins over an earlier coupling pole
    (_AXIS_60, [], (0.2,), (Q**-3,), _AXIS_POLE),
    (_PLUS, _MINUS_AXIS_60, (0.2,), (0.7,), _AXIS_POLE),
    # a minus-axis pole wins over an earlier coupling pole
    (_PLUS, _MINUS_AXIS_60, (0.2,), (Q**-3,), _AXIS_POLE),
    (_PLUS, [], (0.2, 0.5), (0.7, Q**-60),
     "coupling denominator vanished at index 60 "
     "(parameter ratio on the q-power lattice)"),
    ([], _MINUS, (0.2, Q**60), (0.7, Q**61),
     "coupling denominator vanished at index -60 "
     "(parameter ratio on the q-power lattice)"),
    # a pole 1e-10 off the lattice, relative, is a pole: a sum through its
    # 1e-10 divisor, or its overflow on the minus side, means nothing
    ([((0.4,), (Q, _NEAR * Q**-5), 0.5)], [], (0.2,), (0.7,), _AXIS_POLE),
    (_PLUS, [((0.3,), (Q, _NEAR * Q**-5), 0.4)], (0.2,), (0.7,), _AXIS_POLE),
    (_PLUS, [], (0.2,), (_NEAR * Q**-5,),
     "coupling denominator vanished at index 5 "
     "(parameter ratio on the q-power lattice)"),
    ([], _MINUS, (0.2, _NEAR * Q**5), (0.7, 0.6),
     "coupling denominator vanished at index -5 "
     "(parameter ratio on the q-power lattice)"),
]
_POLE_IDS = ["axis", "axis-first", "minus-axis", "minus-axis-first", "coupling-plus",
             "coupling-minus", "axis-near", "minus-axis-near", "coupling-plus-near",
             "coupling-minus-near"]


@pytest.mark.parametrize("plus, minus, g_nums, g_dens, message", _POLES, ids=_POLE_IDS)
def test_series_engine_pole_past_first_stage(plus, minus, g_nums, g_dens, message, ctx_long):
    with pytest.raises(ResonanceError) as err:
        _shell_series(plus, minus, g_nums, g_dens, ctx_long)
    assert str(err.value) == message


@pytest.mark.parametrize("plus, minus, g_nums, g_dens, message", _POLES, ids=_POLE_IDS)
def test_series_engine_pole_repeats_from_memo(plus, minus, g_nums, g_dens, message):
    """A pole raises a new error with the same text on every call of a
    context that has met the same coupling before: an axis pole, read from
    the memo on the second call, still beats a coupling pole, and a coupling
    met on the plus side alone is screened again for a series with minus
    axes."""
    ctx = QContext(q=Q, prod_terms=60, series_cap=200)
    # the same coupling without the axis poles, on the plus side alone and
    # then on the same sides, so each coupling that passes its screen has its
    # tables in the memo first
    for warm in ((_PLUS, []), (_PLUS if plus else [], _MINUS if minus else [])):
        with contextlib.suppress(ResonanceError, ConvergenceError):
            _shell_series(*warm, g_nums, g_dens, ctx)
    errors = []
    for _ in range(2):
        with pytest.raises(ResonanceError) as err:
            _shell_series(plus, minus, g_nums, g_dens, ctx)
        errors.append(err.value)
    assert [str(e) for e in errors] == [message, message]
    assert errors[0] is not errors[1]


# The row kernel relies on numpy giving its batched forms the bits of the
# per-series forms they replaced. Each identity is checked at every shell
# length 1..series_cap+1, on the blocks the kernel builds, over tables made
# like the engine's: weights by _axis_table from ratios of modulus
# 0.05-0.95, a coupling by _coupling_table.


def _engine_tables(rows: int, stop: int, ctx):
    rng = np.random.default_rng([24, rows, stop])

    def weights():
        ratios = rng.uniform(0.05, 0.95, stop) * np.exp(1j * rng.uniform(-np.pi, np.pi, stop))
        return _axis_table(ratios, stop)

    cp = np.array([weights() for _ in range(rows)])
    cm = np.array([weights() for _ in range(rows)])
    nums, dens = (tuple(rng.uniform(0.2, 0.9, 2) * np.exp(1j * rng.uniform(-1, 1, 2)))
                  for _ in range(2))
    return cp, cm, _coupling_table(nums, dens, stop, stop, ctx)


def _kernel_blocks(rows: int, ctx):
    """(cp, cm, g, first shell, table, bounds) of every block the two-sided
    kernel builds up to series_cap."""
    start = 0
    for stop in _stages(ctx.series_cap):
        cp, cm, g = _engine_tables(rows, stop, ctx)
        for first in range(start, stop + 1, _BLOCK):
            table, bounds = _block_table(cp, cm, g, first, min(first + _BLOCK - 1, stop))
            yield cp, cm, g, first, table, bounds
        start = stop + 1


@pytest.mark.parametrize("rows", [1, 4])
def test_block_table_matches_slice_products(rows, ctx_long):
    lengths = set()
    for cp, cm, g, first, table, bounds in _kernel_blocks(rows, ctx_long):
        down = cm.shape[1] - 1
        # add.reduce over axis 1 sums each row apart only on C order
        assert table.flags.c_contiguous
        for s, (a, b) in enumerate(bounds, start=first):
            for r in range(rows):
                plus, minus = cp[r].copy(), cm[r].copy()
                ref = plus[: s + 1] * minus[s::-1] * g[down - s : down + s + 1 : 2]
                assert table[r, a:b].tobytes() == ref.tobytes(), (down, s, r)
            lengths.add(b - a)
    assert lengths == set(range(1, ctx_long.series_cap + 2))


@pytest.mark.parametrize("rows", [1, 4, 13])
def test_row_reduce_matches_one_dimensional_reduce(rows, ctx_long):
    lengths = set()
    for *_, table, bounds in _kernel_blocks(rows, ctx_long):
        for a, b in bounds:
            ref = np.array([np.add.reduce(table[r, a:b].copy()) for r in range(rows)])
            assert np.add.reduce(table[:, a:b], 1).tobytes() == ref.tobytes(), (a, b)
            lengths.add(b - a)
    assert lengths == set(range(1, ctx_long.series_cap + 2))


def _settle_by_runs(terms, tol):
    """The settle rule with the current run of small terms kept as a list:
    (total, terms used, largest of the final three), or the last relative
    size when the terms run out."""
    total, mag, run = 0j, 1e-300, []
    for n, term in enumerate(terms, start=1):
        total += term
        mag = max(mag, abs(total))
        rel = abs(term) / mag
        run = run + [rel] if rel < tol else []
        if len(run) == 3:
            return total, n, max(run)
    return rel


def test_sum_counts_the_run_of_small_terms():
    tol = 1e-12
    # a run broken by a large term starts again, and only the final three
    # small terms give the tail estimate
    terms = [1.0, 9e-13, 1e-14, 0.5, 1e-13, 1e-13, 1e-14]
    sv = hyperseries._Sum().add(terms, tol)
    assert (sv.value, sv.terms_used, sv.tail_estimate) == _settle_by_runs(terms, tol)
    assert sv.tail_estimate == pytest.approx(1e-13 / 1.5)
    # seeded terms from 1 down to 1e-15, zeros among them, added whole or in
    # pieces: both outcomes
    rng = np.random.default_rng(24)
    settled = 0
    for _ in range(2000):
        size = 10.0 ** rng.uniform(-15, 0, 40) * rng.choice([0.0, 1.0], 40, p=[0.05, 0.95])
        terms = (size * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))).tolist()
        ref = _settle_by_runs(terms, tol)
        run = hyperseries._Sum()
        cut = int(rng.integers(0, 40))
        sv = run.add(terms[:cut], tol) or run.add(terms[cut:], tol)
        if isinstance(ref, tuple):
            settled += 1
            assert (sv.value, sv.terms_used, sv.tail_estimate) == ref
        else:
            assert sv is None and run.rel == ref
    assert 0 < settled < 2000


@pytest.mark.parametrize("q", [0.3, 0.7, 0.5 + 0.2j], ids=["0.3", "0.7", "0.5+0.2j"])
@pytest.mark.parametrize("N, M", [(1, 1), (2, 3), (3, 3), (1, 6)])
def test_FNM_at_many_points_has_the_bits_of_one_call_per_point(q, N, M):
    ctx = QContext(q=q)
    rng = np.random.default_rng([29, N, M])
    p = sample_params(N, M, q, rng)
    points = [sample_interior_point(M, rng) for _ in range(6)]
    points.append(tuple(v * q for v in points[0]))
    got = eval_FNM(p, points, ctx)
    want = [eval_FNM(p, pt, ctx) for pt in points]
    assert [(v.value.real.hex(), v.value.imag.hex(), v.terms_used, v.tail_estimate) for v in got] \
        == [(v.value.real.hex(), v.value.imag.hex(), v.terms_used, v.tail_estimate) for v in want]


def test_FNM_at_many_points_raises_the_first_failing_point(p22, ctx_long):
    inside, outside = (0.3 + 0.1j, -0.2j), (1.2 + 0j, 0.1 + 0j)
    with pytest.raises(DomainError) as one:
        eval_FNM(p22, outside, ctx_long)
    with pytest.raises(DomainError) as many:
        eval_FNM(p22, [inside, outside, (0.1 + 0j, 1.5 + 0j)], ctx_long)
    assert str(many.value) == str(one.value) == "outside convergence region: |t_1| >= 1"
    # an unsettled point raises in its turn, before a later point that leaves the disc
    short = QContext(q=0.3, prod_terms=60, series_cap=3)
    with pytest.raises(ConvergenceError) as one:
        eval_FNM(p22, inside, short)
    with pytest.raises(ConvergenceError) as many:
        eval_FNM(p22, [inside, outside], short)
    assert str(many.value) == str(one.value)


def test_point_rows_keep_each_error_at_its_point(p22, ctx_long):
    """Two cells whose points fail to build before, between and after points
    that sum: each point of _point_rows holds what one evaluation there
    gives, its SeriesValue or the error its build raised."""
    inside = [(0.3 + 0.1j, -0.2j), (0.1 + 0j, 0.25 + 0.05j)]
    outside = [(1.2 + 0j, 0.1 + 0j), (0.1 + 0j, 1.5 + 0j)]
    points = [outside[0], inside[0], outside[1], inside[1]]
    cells = [(partial(hyperseries._split_axes, p22, 2), points),
             (partial(hyperseries._split_axes, p22, 2), points[::-1])]

    def key(value):
        if isinstance(value, Exception):
            return type(value).__name__, str(value)
        return value.value.real.hex(), value.value.imag.hex(), value.terms_used, value.tail_estimate

    def one(axes, pt):
        try:
            return hyperseries._shell_series(*axes(pt), ctx_long)
        except DomainError as exc:
            return exc

    for (axes, pts), values in zip(cells, hyperseries._point_rows(cells, ctx_long)):
        assert [key(v) for v in values] == [key(one(axes, pt)) for pt in pts]



def test_point_rows_put_a_series_pole_only_where_the_points_built(p22, ctx_long):
    """A cell whose series has a coupling pole: the points whose build
    raised keep their own error, and only the points that built hold the
    pole's ResonanceError."""
    inside = [(0.3 + 0.1j, -0.2j), (0.1 + 0j, 0.25 + 0.05j)]
    outside = [(1.2 + 0j, 0.1 + 0j), (0.1 + 0j, 1.5 + 0j)]
    points = [outside[0], inside[0], outside[1], inside[1]]

    def axes(pt):
        plus, minus, _, _ = hyperseries._split_axes(p22, 2, pt)
        return plus, minus, (0.2,), (Q**-3,)

    (values,) = hyperseries._point_rows([(axes, points)], ctx_long)
    assert [(type(v).__name__, str(v)) for v in values] == [
        ("DomainError", "outside convergence region: |t_1| >= 1"),
        ("ResonanceError", "coupling denominator vanished at index 3 "
                           "(parameter ratio on the q-power lattice)"),
        ("DomainError", "outside convergence region: |t_2| >= 1"),
        ("ResonanceError", "coupling denominator vanished at index 3 "
                           "(parameter ratio on the q-power lattice)"),
    ]

def test_wrong_coordinate_count_names_M(ctx_long):
    """A point with other than M coordinates raises the ValueError of
    eval_FNM, naming M and the count given, at every entry point that reads
    one through a slot ordering."""
    p = sample_params(2, 2, 0.3, np.random.default_rng(3))
    calls = [
        (1, lambda: local_solution(p, 1, (1, 2), 0, (0.1,), ctx_long)),
        (0, lambda: local_solution(p, 1, (1, 2), 0, [], ctx_long)),
        (3, lambda: build_solution_vector(p, 1, (1, 2), (0.1, 0.2, 0.3), ctx_long)),
        (1, lambda: in_domain(1, (1, 2), p, (0.1,))),
        (1, lambda: eval_FNM(p, (0.1,), ctx_long)),
    ]
    for got, call in calls:
        with pytest.raises(ValueError, match=f"^expected 2 coordinates, got {got}$"):
            call()
