"""The input rules that qkernel owns, at every public entry they cover: one
base q for a parameter set and a context, a point of M coordinates, a slot
ordering that permutes 1..M, integer indices and sizes, component labels, a
base with 0 < |q| < 1, and the parameters of a one-variable series. Each
table below lists the entries of one rule, and a census keeps every public
entry with the rule's inputs, by signature or by parameter name, in its
table."""

import importlib
import inspect
import pkgutil
import re

import numpy as np
import pytest

import qconnect
from qconnect import (
    ConfigError,
    DomainError,
    ParamSet,
    QContext,
    build_A,
    build_B,
    build_S,
    build_Stilde,
    build_solution_vector,
    check_duality,
    check_jackson,
    check_resonance,
    check_watson,
    component_index,
    component_order,
    compose_connection,
    eval_FNM,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_FNM_reference,
    eval_GNM_Lkl,
    eval_nphi,
    in_domain,
    leading_exponents,
    local_solution,
    perm_compose,
    perm_identity,
    perm_transposition,
    permute_seq,
    residual_eqn1,
    residual_eqn2,
    sample_domain_point,
    sample_interior_point,
    sample_level_overlap,
    sample_params,
    sample_swap_overlap,
    sample_watson,
    verify_connection,
    ybe_residual,
)
from qconnect.cli import RunConfig
from conftest import ALPHA, BETA, GAMMA, Q


def _f(pt):
    """A test function for the operator residuals that reads no context."""
    return 1.0 + sum(pt)


def _outcome(call):
    """("value", what call returns) or (error type, message)."""
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001
        return type(exc), str(exc)
    return "value", value.tolist() if isinstance(value, np.ndarray) else value


def _public_functions():
    """(name, function) of every function in the __all__ of a qconnect
    module."""
    for info in pkgutil.iter_modules(qconnect.__path__):
        module = importlib.import_module(f"qconnect.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if inspect.isfunction(value):
                yield name, value


def _census(*params):
    """Names of the public functions whose signature has every one of params."""
    return {name for name, fn in _public_functions()
            if set(params) <= inspect.signature(fn).parameters.keys()}


def _named(*names):
    """"function[parameter]" for every parameter named in names of every
    public function."""
    return {f"{name}[{param}]" for name, fn in _public_functions()
            for param in inspect.signature(fn).parameters if param in names}


def _rng_untouched(call):
    """(error type, message) of call(rng) for a fresh generator, after
    checking that the call left the generator's state as it found it."""
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    outcome = _outcome(lambda: call(rng))
    assert rng.bit_generator.state == state
    return outcome


# ---------------------------------------------------------------------------
# base: a parameter set and a context of one q

P13 = ParamSet(alpha=ALPHA[:1], beta=BETA[:3], gamma=GAMMA[:1], q=Q)
T3 = (0.3 + 0.04j, 0.25 - 0.02j, 0.2 + 0.01j)
ID3 = (1, 2, 3)
BASE = {
    "eval_FNM": lambda p, ctx: eval_FNM(p, T3, ctx),
    "eval_FNM[ladder]": lambda p, ctx: eval_FNM(p, [T3], ctx),
    "eval_FNM_L": lambda p, ctx: eval_FNM_L(p, 3, T3, ctx),
    "eval_FNM_Lkl": lambda p, ctx: eval_FNM_Lkl(p, 2, 1, 3, T3, ctx),
    "eval_GNM_Lkl": lambda p, ctx: eval_GNM_Lkl(p, 3, 1, 1, T3, ctx),
    "local_solution": lambda p, ctx: local_solution(p, 3, ID3, 0, T3, ctx),
    "build_solution_vector": lambda p, ctx: build_solution_vector(p, 3, ID3, T3, ctx),
    "residual_eqn1": lambda p, ctx: residual_eqn1(_f, p, 1, T3, ctx),
    "residual_eqn2": lambda p, ctx: residual_eqn2(_f, p, 1, 2, T3, ctx),
    "eval_FNM_reference": lambda p, ctx: eval_FNM_reference(p, T3, ctx),
    "check_duality": lambda p, ctx: check_duality(p, T3, ctx),
    "check_jackson": lambda p, ctx: check_jackson(p, T3, ctx),
    "build_A": lambda p, ctx: build_A(p, 2, ID3, T3, ctx),
    "build_B": lambda p, ctx: build_B(p, 3, ID3, T3, ctx),
    "build_S": lambda p, ctx: build_S(p, 1, ID3, T3, ctx),
    "compose_connection": lambda p, ctx: compose_connection(p, 3, ID3, 3, ID3, T3, ctx),
    "build_Stilde": lambda p, ctx: build_Stilde(p, 1, ID3, 0.9 + 0.1j, ctx),
    "ybe_residual": lambda p, ctx: ybe_residual(p, 1, 0.9 + 0.1j, 1.1 - 0.1j, ctx),
}
BASE_MESSAGE = "parameter set was built for a different base q"


@pytest.mark.parametrize("name", sorted(BASE))
def test_every_entry_refuses_a_context_of_another_base(name):
    call = BASE[name]
    with pytest.raises(ValueError, match=f"^{BASE_MESSAGE}$"):
        call(P13, QContext(q=0.5))
    assert _outcome(lambda: call(P13, QContext(q=Q))) != (ValueError, BASE_MESSAGE)


def test_base_census_lists_every_entry_with_a_parameter_set_and_a_context():
    assert _census("p", "ctx") == {name.split("[")[0] for name in BASE}


# ---------------------------------------------------------------------------
# point: M complex coordinates

P22 = ParamSet(alpha=ALPHA[:2], beta=BETA[:2], gamma=GAMMA[:2], q=Q)
ID2 = (1, 2)
POINT = {
    "eval_FNM": lambda p, t, ctx: eval_FNM(p, t, ctx),
    "eval_FNM[ladder]": lambda p, t, ctx: eval_FNM(p, [t], ctx),
    "eval_FNM_L": lambda p, t, ctx: eval_FNM_L(p, 2, t, ctx),
    "eval_FNM_Lkl": lambda p, t, ctx: eval_FNM_Lkl(p, 1, 1, 2, t, ctx),
    "eval_GNM_Lkl": lambda p, t, ctx: eval_GNM_Lkl(p, 2, 1, 1, t, ctx),
    "local_solution": lambda p, t, ctx: local_solution(p, 2, ID2, 0, t, ctx),
    "local_solution[ladder]": lambda p, t, ctx: local_solution(p, 2, ID2, [0], [t], ctx),
    "build_solution_vector": lambda p, t, ctx: build_solution_vector(p, 2, ID2, t, ctx),
    "in_domain": lambda p, t, ctx: in_domain(2, ID2, p, t),
    "residual_eqn1": lambda p, t, ctx: residual_eqn1(_f, p, 1, t, ctx),
    "residual_eqn2": lambda p, t, ctx: residual_eqn2(_f, p, 1, 2, t, ctx),
    "eval_FNM_reference": lambda p, t, ctx: eval_FNM_reference(p, t, ctx),
    "check_duality": lambda p, t, ctx: check_duality(p, t, ctx),
    "check_jackson": lambda p, t, ctx: check_jackson(p, t, ctx),
    "build_A": lambda p, t, ctx: build_A(p, 0, ID2, t, ctx),
    "build_B": lambda p, t, ctx: build_B(p, 1, ID2, t, ctx),
    "build_S": lambda p, t, ctx: build_S(p, 1, ID2, t, ctx),
    "compose_connection": lambda p, t, ctx: compose_connection(p, 0, ID2, 2, (2, 1), t, ctx),
    "compose_connection[empty]": lambda p, t, ctx: compose_connection(p, 2, ID2, 2, ID2, t, ctx),
}


@pytest.mark.parametrize("t", [(0.3,), (0.3, 0.25, 0.2)], ids=["1", "3"])
@pytest.mark.parametrize("name", sorted(POINT))
def test_every_entry_reads_a_point_of_M_coordinates(name, t, ctx):
    with pytest.raises(ValueError, match=f"^expected 2 coordinates, got {len(t)}$"):
        POINT[name](P22, t, ctx)


@pytest.mark.parametrize("name", sorted(n for n in POINT if "ladder" not in n))
def test_every_entry_reads_its_point_once(name, ctx):
    """A point given as an iterator reads as the same tuple."""
    call, t = POINT[name], (0.3 + 0.04j, 0.25 - 0.02j)
    assert _outcome(lambda: call(P22, iter(t), ctx)) == _outcome(lambda: call(P22, t, ctx))


def test_point_census_lists_every_entry_with_a_parameter_set_and_a_point():
    assert _census("p", "t") <= {name.split("[")[0] for name in POINT}


# ---------------------------------------------------------------------------
# slot ordering: a permutation of 1..M

SIGMA = {
    "local_solution": lambda p, s, ctx: local_solution(p, 2, s, 0, (0.3, 0.25), ctx),
    "build_solution_vector": lambda p, s, ctx: build_solution_vector(p, 2, s, (0.3, 0.25), ctx),
    "in_domain": lambda p, s, ctx: in_domain(2, s, p, (0.3, 0.25)),
    "check_resonance": lambda p, s, ctx: check_resonance(p, s),
    "ParamSet.permuted": lambda p, s, ctx: p.permuted(s),
    "permute_seq": lambda p, s, ctx: permute_seq(p.b, s),
    "perm_compose": lambda p, s, ctx: perm_compose(ID2, s),
    "build_A": lambda p, s, ctx: build_A(p, 0, s, (0.3, 0.25), ctx),
    "build_B": lambda p, s, ctx: build_B(p, 1, s, (0.3, 0.25), ctx),
    "build_S": lambda p, s, ctx: build_S(p, 1, s, (0.3, 0.25), ctx),
    "compose_connection[sigma1]": lambda p, s, ctx: compose_connection(
        p, 2, s, 2, ID2, (0.3, 0.25), ctx),
    "compose_connection[sigma2]": lambda p, s, ctx: compose_connection(
        p, 2, ID2, 2, s, (0.3, 0.25), ctx),
    "build_Stilde": lambda p, s, ctx: build_Stilde(p, 1, s, 0.9 + 0.1j, ctx),
    "sample_domain_point": lambda p, s, ctx: sample_domain_point(
        p, 1, s, np.random.default_rng(0)),
    "sample_level_overlap": lambda p, s, ctx: sample_level_overlap(
        p, 0, s, np.random.default_rng(0)),
    "sample_swap_overlap": lambda p, s, ctx: sample_swap_overlap(
        p, 1, s, np.random.default_rng(0)),
}


@pytest.mark.parametrize("sigma", [(1, 2, 3), (1,), (2, 2)], ids=["3", "1", "repeat"])
@pytest.mark.parametrize("name", sorted(SIGMA))
def test_every_entry_reads_a_slot_ordering_of_1_to_M(name, sigma, ctx):
    with pytest.raises(ValueError, match=rf"^not a permutation of 1\.\.2: {re.escape(str(sigma))}$"):
        SIGMA[name](P22, sigma, ctx)


@pytest.mark.parametrize("name", sorted(SIGMA))
def test_every_entry_reads_its_slot_ordering_once(name, ctx):
    """An ordering given as an iterator reads as the same tuple."""
    call = SIGMA[name]
    assert _outcome(lambda: call(P22, iter((2, 1)), ctx)) == _outcome(
        lambda: call(P22, (2, 1), ctx))


def test_ordering_census_lists_every_entry_with_a_parameter_set_and_an_ordering():
    # sample_family_overlap reads two (level, ordering) families and keeps
    # its own message for them (tests/test_sampling.py)
    assert _census("p", "sigma") <= {name.split("[")[0] for name in SIGMA}


# ---------------------------------------------------------------------------
# integer sizes and labels


@pytest.mark.parametrize("field", ["prod_terms", "series_cap"])
@pytest.mark.parametrize("value", [60.5, 60.0, True, "60"])
def test_context_reads_its_integer_sizes_as_integers(field, value):
    with pytest.raises(TypeError, match=f"^{field} = {value} is not an integer$"):
        QContext(q=Q, **{field: value})


def test_context_keeps_an_integer_size_as_an_int():
    ctx = QContext(q=Q, prod_terms=np.int64(60), series_cap=np.int64(80))
    assert (ctx.prod_terms, ctx.series_cap) == (60, 80)
    assert type(ctx.prod_terms) is int and type(ctx.series_cap) is int


CTX = QContext(q=Q)
SIZE = {  # entry[parameter]: (call with that size, its least value)
    "sample_params[N]": (lambda v, rng: sample_params(v, 1, Q, rng), 1),
    "sample_params[M]": (lambda v, rng: sample_params(1, v, Q, rng), 1),
    "sample_interior_point[M]": (lambda v, rng: sample_interior_point(v, rng), 1),
    "sample_watson[N]": (lambda v, rng: sample_watson(v, Q, rng), 1),
    "component_order[N]": (lambda v, rng: component_order(v, 2), 1),
    "component_order[M]": (lambda v, rng: component_order(2, v), 1),
    "component_index[M]": (lambda v, rng: component_index((1, 1), v), 1),
    "leading_exponents[M]": (lambda v, rng: leading_exponents(_f, 0, v, CTX), 1),
    "perm_identity[size]": (lambda v, rng: perm_identity(v), 0),
    "perm_transposition[size]": (lambda v, rng: perm_transposition(v, 1), 0),
}


def _param(name):
    return name.split("[")[1].rstrip("]")


@pytest.mark.parametrize("value", [True, 1.5])
@pytest.mark.parametrize("name", sorted(SIZE))
def test_every_size_is_an_integer(name, value):
    call, _ = SIZE[name]
    assert _rng_untouched(lambda rng: call(value, rng)) == (
        TypeError, f"{_param(name)} = {value} is not an integer")


@pytest.mark.parametrize("name", sorted(SIZE))
def test_every_size_has_a_least_value(name):
    call, lo = SIZE[name]
    assert _rng_untouched(lambda rng: call(lo - 1, rng)) == (
        IndexError, f"{_param(name)} = {lo - 1} outside [{lo}, inf]")


def test_size_census_lists_every_parameter_named_N_M_or_size():
    assert _named("N", "M", "size") == set(SIZE)


LABEL = {  # entry[parameter]: call with that label
    "component_index[comp]": lambda label: component_index(label, 2),
    "local_solution[which]": lambda label: local_solution(P22, 2, ID2, label, (0.3, 0.25), CTX),
    "local_solution[which] list": lambda label: local_solution(
        P22, 2, ID2, [label], (0.3, 0.25), CTX),
}


@pytest.mark.parametrize("label", [(1, 2, 3), (1,), (), 1, -2], ids=repr)
@pytest.mark.parametrize("name", sorted(LABEL))
def test_every_label_is_0_or_a_pair(name, label):
    param = _param(name.split()[0])
    with pytest.raises(ValueError, match=re.escape(
            f"{param} = {label} is neither 0 nor a pair (k, l)") + "$"):
        LABEL[name](label)


@pytest.mark.parametrize("label", [0, (1, 2), [2, 1], (np.int64(1), 1)], ids=repr)
@pytest.mark.parametrize("name", sorted(LABEL))
def test_every_label_reader_keeps_a_valid_label(name, label):
    assert _outcome(lambda: LABEL[name](label))[0] == "value"


def test_label_census_lists_every_parameter_named_comp_or_which():
    assert _named("comp", "which") == {name.split()[0] for name in LABEL}


NPHI = {
    "eval_nphi": lambda upper, lower, t: eval_nphi(upper, lower, t, CTX),
    "check_watson": lambda upper, lower, t: check_watson(upper, lower, t, CTX),
}
_UPPER, _LOWER, _T1 = (0.35 + 0.02j, 0.5 - 0.1j), (0.6 + 0.05j,), 0.3 + 0.1j


@pytest.mark.parametrize("lower", [(), (0.6, 0.7)], ids=["0", "2"])
@pytest.mark.parametrize("name", sorted(NPHI))
def test_every_one_variable_entry_needs_one_more_upper_parameter(name, lower):
    with pytest.raises(ValueError, match="^need exactly one more upper than lower parameter$"):
        NPHI[name](_UPPER, lower, _T1)


@pytest.mark.parametrize("t", [1.0, -0.6 + 0.8j, 2.0])
@pytest.mark.parametrize("name", sorted(NPHI))
def test_every_one_variable_entry_needs_its_argument_in_the_unit_disc(name, t):
    with pytest.raises(DomainError, match=rf"^\|t\| < 1 required, got {abs(t):.6g}$"):
        NPHI[name](_UPPER, _LOWER, t)


@pytest.mark.parametrize("name", sorted(NPHI))
def test_every_one_variable_entry_reads_its_parameters_once(name):
    call = NPHI[name]
    assert _outcome(lambda: call(iter(_UPPER), iter(_LOWER), _T1)) == _outcome(
        lambda: call(_UPPER, _LOWER, _T1))


def test_one_variable_census_lists_every_entry_with_upper_and_lower_parameters():
    assert _census("upper", "lower") == set(NPHI)


BASE_Q = {  # every entry that takes a base q
    "QContext": lambda q, rng: QContext(q=q),
    "ParamSet": lambda q, rng: ParamSet(alpha=ALPHA[:1], beta=BETA[:1], gamma=GAMMA[:1], q=q),
    "sample_params[q]": lambda q, rng: sample_params(1, 1, q, rng),
    "sample_watson[q]": lambda q, rng: sample_watson(1, q, rng),
}


@pytest.mark.parametrize("q", [1.2, 0.0, 1.0, -1.0, 0.6 + 0.8j, True], ids=repr)
@pytest.mark.parametrize("name", sorted(BASE_Q))
def test_every_base_lies_inside_the_unit_disc(name, q):
    assert _rng_untouched(lambda rng: BASE_Q[name](q, rng)) == (
        DomainError, f"base must satisfy 0 < |q| < 1, got |q| = {abs(complex(q)):.6g}")


@pytest.mark.parametrize("q", [1.2, 0.0, 0.6 + 0.8j])
def test_run_config_reports_the_base_rule(q):
    with pytest.raises(ConfigError, match=re.escape(
            f"base must satisfy 0 < |q| < 1, got |q| = {abs(q):.6g}") + "$"):
        RunConfig(q=q).validate()


def test_base_q_census_lists_every_function_with_a_base():
    # lattice_hit takes any |q| != 1, and q_shift's q is a multiplier
    exempt = {"lattice_hit[q]", "q_shift[q]"}
    assert _named("q") - exempt == {name for name in BASE_Q if "[" in name}


@pytest.mark.parametrize(
    "comp, error, message",
    [
        ((0, 1), IndexError, r"^k = 0 outside \[1, inf\]$"),
        ((-1, 2), IndexError, r"^k = -1 outside \[1, inf\]$"),
        ((1, 0), IndexError, r"^l = 0 outside \[1, 2\]$"),
        ((1, 5), IndexError, r"^l = 5 outside \[1, 2\]$"),
        ((1.0, 1), TypeError, r"^k = 1\.0 is not an integer$"),
        ((1, 2.0), TypeError, r"^l = 2\.0 is not an integer$"),
    ],
)
def test_component_index_reads_its_label(comp, error, message):
    with pytest.raises(error, match=message):
        component_index(comp, 2)


# ---------------------------------------------------------------------------
# the context's cached arrays, and one parameter set per connection check


def test_every_array_a_context_caches_is_read_only():
    ctx = QContext(q=Q, prod_terms=60)
    eval_FNM_Lkl(P13, 1, 1, 3, (0.12 + 0.02j, 0.52 - 0.07j, 3.0 + 0.5j), ctx)
    memo = [a for value in ctx._memo.values()
            for a in (value if isinstance(value, tuple) else (value,))
            if isinstance(a, np.ndarray)]
    assert len(memo) >= 3  # axis products and a coupling table
    for table in [ctx._qpow_table, ctx._series_qpow, *memo]:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0


def test_verify_connection_refuses_vectors_of_two_parameter_sets():
    ctx = QContext(q=Q)
    rng = np.random.default_rng(1)
    p1 = sample_params(1, 1, Q, rng, coupling_cap=0.16, min_b=0.5)
    p2 = sample_params(1, 1, Q, rng, coupling_cap=0.16, min_b=0.5)
    t = sample_level_overlap(p1, 0, (1,), rng)
    A = build_A(p1, 0, (1,), t, ctx)
    u0 = build_solution_vector(p1, 0, (1,), t, ctx)
    assert verify_connection(u0, A, build_solution_vector(p1, 1, (1,), t, ctx)) < 1e-10
    u1 = build_solution_vector(p2, 1, (1,), t, ctx)
    with pytest.raises(ValueError, match="^solution vectors built from different parameter sets$"):
        verify_connection(u0, A, u1)
