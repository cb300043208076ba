"""Layer tracer for qconnect, installed from outside the library.

The tracer wraps the public entry points of every qconnect module (the
functions named in each module's ``__all__``), the series-engine and oracle
helpers that carry most of the work, and the run driver's entry points. Each
wrapper records a span (name, start, end, parent) and feeds a few counters
at the same boundary. Because the library imports names with
``from .x import y``, a function object can be reachable under several module
attributes; every such attribute is patched, and every one is put back by
``restore``. No library file is touched.

Spans stay in memory until ``write_spans`` is called; ``layer_metrics``
derives the per-layer numbers from them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("qkernel", "hyperseries", "oracle", "connection", "facemodel", "sampling", "cli")

# Private helpers wrapped in addition to each module's __all__: the series
# engine and the oracle's enumeration route, and the run driver's entry
# points (cli has no __all__).
EXTRA = {
    "hyperseries": ("_shell_series", "_axis_table", "_coupling_table"),
    "oracle": ("_enum_series",),
    "cli": ("run_suite", "emit_report", "_run_check"),
}

POINT_SAMPLERS = (
    "sample_domain_point",
    "sample_level_overlap",
    "sample_swap_overlap",
    "sample_family_overlap",
)


def entry_points() -> list[tuple[str, str, object]]:
    """(layer, name, function) for every function the tracer wraps."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"qconnect.{layer}")
        names = [n for n in getattr(mod, "__all__", ()) if inspect.isfunction(getattr(mod, n))]
        for name in (*names, *EXTRA.get(layer, ())):
            fn = getattr(mod, name)
            if fn.__module__ == mod.__name__:
                out.append((layer, name, fn))
    return out


class Tracer:
    """Spans and counters for one traced stretch of work.

    Use as a context manager: entering patches qconnect, leaving restores
    every patched attribute even when the traced code raised.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.shells: list[int] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        from qconnect.errors import ConvergenceError
        from qconnect.sampling import SamplingError

        self._convergence_error = ConvergenceError
        self._sampling_error = SamplingError
        wrappers = {}
        for layer, name, fn in entry_points():
            if fn not in wrappers:
                wrappers[fn] = self._wrap(layer, name, fn)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "qconnect" or k.startswith("qconnect."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        # draws inside sample_params are ParamSet constructions made from
        # the sampling module's namespace
        sampling = sys.modules["qconnect.sampling"]
        paramset = sampling.ParamSet

        def counted_paramset(*args, **kwargs):
            self.counts["sampling.param_draws"] += 1
            return paramset(*args, **kwargs)

        self._patch(sampling, "ParamSet", counted_paramset)

    def _patch(self, mod, attr: str, new) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def restore(self) -> None:
        while self._patched:
            mod, attr, old = self._patched.pop()
            setattr(mod, attr, old)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- recording ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        on_result = self._result_hook(layer, name)
        on_error = self._error_hook(layer, name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def _result_hook(self, layer: str, name: str):
        counts = self.counts
        if name == "_shell_series":
            return lambda sv: self.shells.append(sv.terms_used)
        if name in ("_axis_table", "_coupling_table"):
            def table(arr):
                counts["hyperseries.table_entries"] += len(arr)
            return table
        if name == "sample_params":
            def accepted(_):
                counts["sampling.params_accepted"] += 1
            return accepted
        if name in POINT_SAMPLERS:
            def point(_):
                counts["sampling.points_accepted"] += 1
            return point
        return None

    def _error_hook(self, layer: str, name: str):
        counts = self.counts
        if name == "_shell_series":
            def series_error(exc):
                if isinstance(exc, self._convergence_error):
                    counts["hyperseries.convergence_errors"] += 1
            return series_error
        if layer == "sampling":
            def sampler_error(exc):
                if isinstance(exc, self._sampling_error):
                    counts["sampling.errors"] += 1
            return sampler_error
        return None

    # -- results ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.span_start, self.span_end)]
        out = list(own)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                out[parent] -= own[i]
        return out

    def calls(self) -> Counter:
        return Counter(self.names[i] for i in self.span_name)

    def write_spans(self, path) -> None:
        """Gzipped TSV: id, parent, name, start_s, end_s (seconds on the
        process's perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, (n, p, s, e) in enumerate(zip(self.span_name, self.span_parent,
                                                 self.span_start, self.span_end)):
                fh.write(f"{i}\t{p}\t{self.names[n]}\t{s!r}\t{e!r}\n")


def _rank(values: list[int], share: float) -> int:
    """Nearest-rank percentile of a nonempty list of integers."""
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * share // 1))
    return ordered[int(k) - 1]


def layer_metrics(tr: Tracer) -> tuple[dict, dict, dict]:
    """(counts, bases, seconds) derived from one traced stretch of work.

    counts holds every deterministic number (call counts, shells, table
    entries, accept ratios); bases gives each ratio's numerator and
    denominator; seconds holds self times.
    """
    calls = tr.calls()
    c = tr.counts
    selfs = tr.self_times()
    layer_self: Counter = Counter()
    fn_self: Counter = Counter()
    for i, t in zip(tr.span_name, selfs):
        name = tr.names[i]
        layer_self[name.split(".", 1)[0]] += t
        fn_self[name] += t
    domain_tests = 0
    for i, parent in enumerate(tr.span_parent):
        if (parent >= 0 and tr.names[tr.span_name[i]] == "hyperseries.in_domain"
                and tr.names[tr.span_name[parent]].startswith("sampling.")):
            domain_tests += 1

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    shells = tr.shells
    shells_used = sum(shells)
    table_entries = c["hyperseries.table_entries"]
    draws = c["sampling.param_draws"]
    accepted_params = c["sampling.params_accepted"]
    accepted_points = c["sampling.points_accepted"]
    counts = {
        "qkernel.lattice_hit.calls": calls["qkernel.lattice_hit"],
        "qkernel.qpoch_inf.calls": calls["qkernel.qpoch_inf"],
        "qkernel.theta.calls": calls["qkernel.theta"],
        "hyperseries.series.calls": calls["hyperseries._shell_series"],
        "hyperseries.shells_used": shells_used,
        "hyperseries.shells_p50": _rank(shells, 0.5) if shells else 0,
        "hyperseries.shells_p90": _rank(shells, 0.9) if shells else 0,
        "hyperseries.table_entries": table_entries,
        "hyperseries.shell_use_ratio": ratio(shells_used, table_entries),
        "hyperseries.convergence_errors": c["hyperseries.convergence_errors"],
        "hyperseries.local_solution.calls": calls["hyperseries.local_solution"],
        "hyperseries.solution_vectors.calls": calls["hyperseries.build_solution_vector"],
        "oracle.enum_series.calls": calls["oracle._enum_series"],
        "oracle.residual.calls": calls["oracle.residual_eqn1"] + calls["oracle.residual_eqn2"],
        "oracle.casorati.calls": calls["oracle.casorati_independence"],
        "connection.build.calls": sum(calls[f"connection.build_{k}"] for k in "ABS"),
        "connection.compose.calls": calls["connection.compose_connection"],
        "connection.verify.calls": calls["connection.verify_connection"],
        "facemodel.calls": sum(n for k, n in calls.items() if k.startswith("facemodel.")),
        "sampling.params.calls": calls["sampling.sample_params"],
        "sampling.param_draws": draws,
        "sampling.param_accept_ratio": ratio(accepted_params, draws),
        "sampling.nonresonant_screens": calls["sampling.strong_nonresonant"],
        "sampling.domain_tests": domain_tests,
        "sampling.point_accept_ratio": ratio(accepted_points, domain_tests),
        "sampling.errors": c["sampling.errors"],
        "trace.spans": len(tr.span_start),
    }
    bases = {
        "hyperseries.shell_use_ratio": (shells_used, table_entries),
        "sampling.param_accept_ratio": (accepted_params, draws),
        "sampling.point_accept_ratio": (accepted_points, domain_tests),
    }
    seconds = {
        "qkernel.lattice_hit.self_s": fn_self["qkernel.lattice_hit"],
        "oracle.enum_series.self_s": fn_self["oracle._enum_series"],
        "oracle.jackson.self_s": fn_self["oracle.check_jackson"],
    }
    for layer in LAYERS:
        seconds[f"{layer}.self_s"] = layer_self[layer]
    return counts, bases, seconds
