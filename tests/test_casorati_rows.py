"""Casorati columns in one pass: local_solution over the n ladder points
gives the bits of one call per point, and casorati_independence raises the
error that evaluating its matrix row by row meets first."""

import warnings
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
    casorati_independence,
    component_order,
    in_domain,
    local_solution,
    perm_identity,
    sampling,
)
from qconnect import cli, hyperseries
from conftest import ALPHA, BETA, GAMMA

SHAPES = [(N, M) for N in range(1, 13) for M in range(1, 13) if N * M <= 12]


def _ladder(t, m, q, n):
    """Row k's point t * q^{k m}, k = 0..n-1, as casorati_independence forms it."""
    return [tuple(v * q ** (k * mv) for v, mv in zip(t, m)) for k in range(n)]


def _outcome(f):
    try:
        return f()
    except Exception as exc:  # noqa: BLE001  compared below
        return exc


def _key(value):
    """Exact bits of a value, or the type and text of an error."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return complex(value).real.hex(), complex(value).imag.hex()


@pytest.mark.parametrize("q", [0.3, 0.7, 0.5 + 0.2j], ids=["0.3", "0.7", "0.5+0.2j"])
def test_ladder_rows_match_one_call_per_point(q, monkeypatch):
    """At every shape N*M <= 12, each component over the n ladder points
    equals one local_solution call per point: per point through the row
    kernel, and through local_solution's tuple or its first error. Each
    ladder starts near the edge of the sector, so its first rows need the
    96- and 192-shell rungs and some do not settle at all."""
    shells = []
    point_rows = hyperseries._point_rows

    def recorded(*args):
        out = point_rows(*args)
        shells.extend(v.terms_used for values in out for v in values
                      if isinstance(v, hyperseries.SeriesValue))
        return out

    monkeypatch.setattr(hyperseries, "_point_rows", recorded)
    ctx = QContext(q=q)
    failed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        for N, M in SHAPES:
            rng = np.random.default_rng([24, N, M])
            L, sig = M - 1, perm_identity(M)
            p, m = sampling._casorati_params(N, M, L, ctx, rng)
            t = sampling.sample_domain_point(p, L, sig, rng)
            # walk the start back against the shift while the sector keeps it
            back = lambda s: tuple(v * q ** (-s * mv / 8) for v, mv in zip(t, m))
            s = 0
            while s < 200 and in_domain(L, sig, p, back(s + 1)) > 0.01:
                s += 1
            points = _ladder(back(s), m, q, N * M + 1)
            pp, exps = hyperseries._family(p, L, sig, ctx)
            for comp, delta in zip(component_order(N, M), exps):
                ref = [_outcome(lambda pt=pt: local_solution(p, L, sig, comp, pt, ctx))
                       for pt in points]
                (rows,) = hyperseries._solution_rows(
                    pp, L, [(comp, delta, [hyperseries._reorder(pt, sig) for pt in points])], ctx)
                assert [_key(v) for v in rows] == [_key(v) for v in ref], (N, M, comp)
                batch = _outcome(lambda: local_solution(p, L, sig, comp, points, ctx))
                first = next((v for v in ref if isinstance(v, Exception)), None)
                if first is None:
                    assert [_key(v) for v in batch] == [_key(v) for v in ref], (N, M, comp)
                else:
                    failed += 1
                    assert _key(batch) == _key(first), (N, M, comp)
    assert any(48 < n <= 96 for n in shells)
    assert any(n > 96 for n in shells)
    assert failed


def _row_by_row(p, L, sig, m, t, ctx):
    """The first error of the matrix evaluated a row at a time, one
    local_solution call per cell, row k then component j; and the first
    error of the same cells a column at a time."""
    comps = component_order(p.N, p.M)
    points = _ladder(t, m, ctx.q, len(comps))

    def first(cells):
        for point, comp in cells:
            err = _outcome(lambda: local_solution(p, L, sig, comp, point, ctx))
            if isinstance(err, Exception):
                return err
        return None

    by_rows = first([(pt, c) for pt in points for c in comps])
    by_columns = first([(pt, c) for c in comps for pt in points])
    return by_rows, by_columns


def _assert_first_error(p, L, m, t, ctx, kind):
    sig = perm_identity(p.M)
    by_rows, by_columns = _row_by_row(p, L, sig, m, t, ctx)
    # the planted failure comes first row by row, and a walk column by
    # column would meet another error first
    assert isinstance(by_rows, kind)
    assert _key(by_columns) != _key(by_rows)
    columns = [partial(local_solution, p, L, sig, c, ctx=ctx) for c in component_order(p.N, p.M)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        with pytest.raises(type(by_rows)) as err:
            casorati_independence(columns, m, t, ctx)
    assert str(err.value) == str(by_rows)


_P23 = ParamSet(
    alpha=(0.5937694344909542 + 0.08729324042061964j, 0.22424299004599968 - 0.18191042071988128j),
    beta=(0.6821467782565722 + 0.18738028929607448j, 0.2748253780759443 + 0.14731260596602996j,
          0.15798190890647731 + 0.10143768843340623j),
    gamma=(0.7946276246313405 - 0.044874746646062974j, 0.38654591244576164 + 0.19908366394377275j),
    q=0.3,
)
_T23 = (0.07610109487760708 + 0.014401076020271283j, 0.2474124896746486 + 0.10256642368065721j,
        9.872305714112157 - 2.1395192764160043j)


def test_shifted_row_leaving_the_sector_raises_the_row_order_error():
    _assert_first_error(_P23, 2, (-2, 0, -2), _T23, QContext(q=0.3), DomainError)


def test_resonant_component_raises_the_row_order_error():
    # a_2 = a_1 q^2 puts an axis pole in component (1, 2) at every point,
    # and column 0 leaves the sector at a later row
    p = ParamSet(alpha=(ALPHA[0], ALPHA[0] + 2), beta=BETA[:2], gamma=GAMMA[:2], q=0.3)
    t = (0.35401694729068706 - 0.20994478510654518j, 89.64815522558595 - 12.629487881699509j)
    _assert_first_error(p, 1, (-2, -2), t, QContext(q=0.3), ResonanceError)


def test_unsettled_row_raises_the_row_order_error():
    p = ParamSet(
        alpha=(0.24454800413188843 - 0.19604952724304647j,),
        beta=(0.35914595180109454 - 0.159680835538031j, 0.8350630151438381 + 0.055973025310065816j,
              0.6795304442579129 - 0.08436914963706231j),
        gamma=(0.28935728147886175 - 0.12786051531324777j,),
        q=0.3,
    )
    t = (0.09777898166322245 - 0.004015707999911802j, 0.2830538797548225 - 0.059862604170553224j,
         8.106573532621349 - 4.0297776565772745j)
    _assert_first_error(p, 2, (-1, 0, -1), t, QContext(q=0.3, series_cap=30), ConvergenceError)


def test_each_column_is_called_once_with_every_ladder_point(p22, ctx_long):
    calls = []
    L, sig = 1, perm_identity(2)

    def column(comp, points):
        calls.append((comp, len(points)))
        return local_solution(p22, L, sig, comp, points, ctx_long)

    comps = component_order(2, 2)
    rep = casorati_independence([partial(column, c) for c in comps], (2, -1),
                                (0.3, 5.0), ctx_long)
    assert calls == [(c, 5) for c in comps]
    rows = _ladder((0.3, 5.0), (2, -1), ctx_long.q, 5)
    ref = [[local_solution(p22, L, sig, c, pt, ctx_long) for c in comps] for pt in rows]
    assert rep.matrix.tobytes() == np.array(ref, dtype=complex).tobytes()


# ---------------------------------------------------------------------------
# every label of a Casorati matrix in one local_solution call


@pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.5 + 0.2j], ids=["0.3", "0.5", "0.7", "0.5+0.2j"])
@pytest.mark.parametrize("N, M", [(2, 3), (3, 3), (1, 6)])
def test_label_list_has_the_bits_of_one_call_per_label(q, N, M):
    """local_solution with the list of every label, at the n ladder points
    and at one point, has the bits of one call per label."""
    ctx = QContext(q=q)
    rng = np.random.default_rng([29, N, M])
    L, sig = M - 1, perm_identity(M)
    comps = component_order(N, M)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        for _ in range(2):
            p, m = sampling._casorati_params(N, M, L, ctx, rng)
            t = sampling.sample_domain_point(p, L, sig, rng)
            for at in (_ladder(t, m, q, len(comps)), t):
                ref = [local_solution(p, L, sig, c, at, ctx) for c in comps]
                batch = local_solution(p, L, sig, comps, at, ctx)
                assert len(batch) == len(ref)
                for got, want in zip(batch, ref):
                    if at is t:
                        got, want = (got,), (want,)
                    assert [_key(v) for v in got] == [_key(v) for v in want], (N, M)


def test_one_label_list_is_a_list_of_labels():
    """[0] is a list of one label: a 1-tuple with the bits of the call with
    0, at one point and at a ladder. A list of two ints stays one (k, l)
    label, so [0, 0] raises the range error of k = 0."""
    ctx = QContext(q=0.3)
    rng = np.random.default_rng(3)
    p = sampling.sample_params(2, 2, 0.3, rng)
    L, sig = 1, perm_identity(2)
    t = sampling.sample_domain_point(p, L, sig, rng)
    for at in (t, _ladder(t, (1, 0), 0.3, 3)):
        (got,) = local_solution(p, L, sig, [0], at, ctx)
        want = local_solution(p, L, sig, 0, at, ctx)
        if at is t:
            got, want = (got,), (want,)
        assert [_key(v) for v in got] == [_key(v) for v in want]
    with pytest.raises(IndexError, match=r"k = 0 outside \[1, 2\]"):
        local_solution(p, L, sig, [0, 0], t, ctx)


_PLANTED = {
    "row leaves the sector": (_P23, 2, (-2, 0, -2), _T23, QContext(q=0.3), DomainError),
    "resonant component": (
        ParamSet(alpha=(ALPHA[0], ALPHA[0] + 2), beta=BETA[:2], gamma=GAMMA[:2], q=0.3), 1,
        (-2, -2), (0.35401694729068706 - 0.20994478510654518j, 89.64815522558595 - 12.629487881699509j),
        QContext(q=0.3), ResonanceError,
    ),
    "unsettled row": (
        ParamSet(
            alpha=(0.24454800413188843 - 0.19604952724304647j,),
            beta=(0.35914595180109454 - 0.159680835538031j, 0.8350630151438381 + 0.055973025310065816j,
                  0.6795304442579129 - 0.08436914963706231j),
            gamma=(0.28935728147886175 - 0.12786051531324777j,),
            q=0.3,
        ),
        2, (-1, 0, -1),
        (0.09777898166322245 - 0.004015707999911802j, 0.2830538797548225 - 0.059862604170553224j,
         8.106573532621349 - 4.0297776565772745j),
        QContext(q=0.3, series_cap=30), ConvergenceError,
    ),
}


@pytest.mark.parametrize("case", sorted(_PLANTED))
def test_label_list_raises_the_first_failing_label(case):
    """At the ladder, the list of every label raises the type and text of
    the first per-label call that raises; and the run driver's Casorati
    columns, which read that one call, raise the error that a walk over the
    cells row by row meets first."""
    p, L, m, t, ctx, kind = _PLANTED[case]
    sig = perm_identity(p.M)
    comps = component_order(p.N, p.M)
    points = _ladder(t, m, ctx.q, len(comps))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BranchWarning)
        ref = [_outcome(lambda c=c: local_solution(p, L, sig, c, points, ctx)) for c in comps]
        first = next(v for v in ref if isinstance(v, Exception))
        batch = _outcome(lambda: local_solution(p, L, sig, comps, points, ctx))
        assert isinstance(batch, Exception) and _key(batch) == _key(first)
        by_rows, _ = _row_by_row(p, L, sig, m, t, ctx)
        assert isinstance(by_rows, kind)
        with pytest.raises(type(by_rows)) as err:
            casorati_independence(cli._casorati_columns(p, L, sig, comps, ctx), m, t, ctx)
    assert str(err.value) == str(by_rows)


def test_driver_columns_read_one_call_for_the_whole_matrix(p22, ctx_long, monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args[3])
        return local_solution(*args, **kw)

    monkeypatch.setattr(cli, "local_solution", counted)
    L, sig = 1, perm_identity(2)
    comps = component_order(2, 2)
    rep = casorati_independence(cli._casorati_columns(p22, L, sig, comps, ctx_long), (2, -1),
                                (0.3, 5.0), ctx_long)
    assert calls == [comps]
    rows = _ladder((0.3, 5.0), (2, -1), ctx_long.q, 5)
    ref = [[local_solution(p22, L, sig, c, pt, ctx_long) for c in comps] for pt in rows]
    assert rep.matrix.tobytes() == np.array(ref, dtype=complex).tobytes()
