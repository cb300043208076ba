"""The evaluation context's memo: a reused context gives the bits of a fresh
one, signed zeros get their own entries, and the memo keeps its bound."""

import numpy as np

from qconnect import (
    ParamSet,
    QContext,
    build_A,
    build_B,
    build_S,
    build_Stilde,
    build_solution_vector,
    compose_connection,
    component_order,
    local_solution,
    qpoch_inf,
    sample_domain_point,
    sample_params,
)
from qconnect import cli
from qconnect.hyperseries import _shell_series
from qconnect.qkernel import _MEMO_SIZE
from conftest import Q

# p23 with slot ordering SIGMA: T lies in every level's sector, and the
# level-L solution vectors at T and at 1.1 T settle within 200 shells
SIGMA = (2, 3, 1)
T = (0.31 + 0.04j, 0.27 - 0.02j, 0.45 + 0.06j)
LEVELS = (0, 1, 3)


def _fresh() -> QContext:
    return QContext(q=Q, prod_terms=60, series_cap=200)


def _bits(z: complex) -> bytes:
    return np.array([z], dtype=complex).tobytes()


def _results(p, ctx) -> list[bytes]:
    """Bits of solution vectors and of every elementary connection matrix."""
    out = [
        np.asarray(build_solution_vector(p, L, SIGMA, T, ctx).components).tobytes()
        for L in LEVELS
    ]
    out += [build_A(p, L, SIGMA, T, ctx).tobytes() for L in range(3)]
    out += [build_B(p, L, SIGMA, T, ctx).tobytes() for L in range(1, 4)]
    out += [build_S(p, r, SIGMA, T, ctx).tobytes() for r in (1, 2)]
    return out


def test_reused_context_gives_fresh_bits(p23):
    fresh = _results(p23, _fresh())
    used = _fresh()
    # other parameter sets and other points first
    other = sample_params(2, 3, Q, np.random.default_rng(4))
    near = tuple(1.1 * v for v in T)
    for L in LEVELS:
        build_solution_vector(p23, L, SIGMA, near, used)
    build_A(p23, 1, SIGMA, near, used)
    build_S(p23, 1, SIGMA, near, used)
    build_A(other, 1, SIGMA, T, used)
    assert used._memo
    assert _results(p23, used) == fresh
    # and again, with this set's values in the memo
    assert _results(p23, used) == fresh


def test_signed_zero_gets_its_own_entry():
    ctx = _fresh()
    pos, neg = complex(-0.5, 0.0), complex(-0.5, -0.0)
    qpoch_inf(pos, ctx)
    assert _bits(qpoch_inf(neg, ctx)) == _bits(qpoch_inf(neg, _fresh()))

    def series(z, ctx):
        return _shell_series([((z,), (Q,), 0.4)], [((0.3,), (Q,), 0.2)], (z,), (0.7,), ctx)

    series(pos, ctx)
    sv, ref = series(neg, ctx), series(neg, _fresh())
    assert (_bits(sv.value), sv.terms_used, sv.tail_estimate) == (
        _bits(ref.value), ref.terms_used, ref.tail_estimate
    )
    kinds = [key[0] for key in ctx._memo]
    assert "qpoch_inf" not in kinds and "screen" not in kinds
    assert kinds.count("axis") == 3  # pos, neg and the minus axis


def test_builders_leave_the_memo_as_found(p23):
    # a matrix's (x; q)_inf factors come from one batched table, so the
    # builders neither add, drop nor reorder memo entries
    ctx = _fresh()
    for L in LEVELS:
        build_solution_vector(p23, L, SIGMA, T, ctx)
    before = list(ctx._memo.items())
    assert before
    results = _results(p23, ctx)[len(LEVELS):]
    build_Stilde(p23, 1, SIGMA, 0.8 - 0.1j, ctx)
    compose_connection(p23, 0, (1, 2, 3), 1, SIGMA, T, ctx)
    assert list(ctx._memo) == [key for key, _ in before]
    assert all(ctx._memo[key] is value for key, value in before)
    assert results == _results(p23, _fresh())[len(LEVELS):]


def test_memo_bounded_over_a_run(monkeypatch):
    made = []
    context = cli.RunConfig.context
    monkeypatch.setattr(cli.RunConfig, "context", lambda cfg: made.append(context(cfg)) or made[-1])
    peak = 0
    memoised = QContext._memoised

    def tracked(self, key, make):
        nonlocal peak
        out = memoised(self, key, make)
        peak = max(peak, len(self._memo))
        return out

    monkeypatch.setattr(QContext, "_memoised", tracked)
    cfg = cli.RunConfig(N=3, M=3, samples=3, suites=("connection", "theorem1", "independence"))
    cli.run_suite(cfg)
    # validate() makes a throwaway context; the run itself uses one
    assert len(made) == 2 and not made[0].__dict__.get("_memo")
    assert peak == len(made[1]._memo) == _MEMO_SIZE


def _family_bits(p, ctx, sigma=SIGMA, levels=LEVELS) -> list[bytes]:
    """Bits of every component at T, per level, from build_solution_vector
    and from one local_solution call per component."""
    out = []
    for L in levels:
        out.append(np.asarray(build_solution_vector(p, L, sigma, T, ctx).components).tobytes())
        comps = [local_solution(p, L, sigma, c, T, ctx) for c in component_order(p.N, p.M)]
        out.append(np.asarray(comps).tobytes())
    return out


def test_family_setup_memo_gives_fresh_bits(p23):
    fresh = _family_bits(p23, _fresh())
    used = _fresh()
    # other parameter sets, other (L, sigma) and other points first
    other = sample_params(2, 3, Q, np.random.default_rng(4))
    near = tuple(1.1 * v for v in T)
    rng = np.random.default_rng(5)
    for L in LEVELS:
        build_solution_vector(p23, L, SIGMA, near, used)
        local_solution(p23, L, SIGMA, (1, 1), near, used)
        local_solution(other, L, SIGMA, 0, sample_domain_point(other, L, SIGMA, rng), used)
    local_solution(p23, 2, (1, 2, 3), 0, sample_domain_point(p23, 2, (1, 2, 3), rng), used)
    assert _family_bits(p23, used) == fresh
    assert _family_bits(p23, used) == fresh


def test_signed_zero_beta_gets_its_own_family():
    beta = (0.52 - 0.08j, 0.33 + 0.19j, complex(0.44, 0.0))
    pos = ParamSet((0.37 + 0.11j,), beta, (0.81 + 0.05j,), Q)
    neg = ParamSet(pos.alpha, beta[:2] + (complex(0.44, -0.0),), pos.gamma, Q)
    ctx = _fresh()
    _family_bits(pos, ctx, levels=(3,))
    assert _family_bits(neg, ctx, levels=(3,)) == _family_bits(neg, _fresh(), levels=(3,))
