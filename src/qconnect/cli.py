"""Command-line front end: configured verification runs and one-off
evaluations.

The library takes explicit values and raises on bad input; this module owns
run configuration, sampling policy (via the sampling helpers), per-check
error capture, and report emission. Reports are deterministic for a fixed
config and seed: record timings are zeroed at emission unless measured
output is requested explicitly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ConfigError, QConnectError
from .qkernel import (
    ParamSet,
    QContext,
    _rel_diff,
    _rel_maxnorm,
    perm_compose,
    perm_identity,
    perm_transposition,
)
from .hyperseries import (
    build_solution_vector,
    char_exponents,
    component_order,
    eval_FNM,
    eval_FNM_L,
    eval_FNM_Lkl,
    eval_GNM_Lkl,
    eval_nphi,
    local_solution,
)
from .oracle import (
    _scaled_det,
    casorati_independence,
    check_duality,
    check_jackson,
    check_watson,
    eval_FNM_reference,
    residual_eqn1,
    residual_eqn2,
)
from .connection import (
    build_A,
    build_B,
    build_S,
    compose_connection,
    verify_connection,
)
from .facemodel import (
    build_W_akm,
    build_Wtilde,
    conj_f,
    wprime_gauge_residual,
    ybe_residual,
)
from . import sampling
from .sampling import SamplingError

# Suites in run order with their default tolerances. run_suite seeds each
# suite's generator with its index here, so the order is part of every report.
DEFAULT_TOL = {
    "series": 1e-10,
    "system": 1e-9,
    "duality": 1e-10,
    "jackson": 1e-9,
    "watson": 1e-9,
    "connection": 1e-7,
    "theorem1": 1e-6,
    "independence": 1e-6,
    "ybe": 1e-9,
    "facemodel": 1e-9,
}
SUITES = tuple(DEFAULT_TOL)

_BUDGET = 12
_SERIES_CAP = 200


@dataclass(frozen=True)
class RunConfig:
    q: complex = 0.3
    N: int = 2
    M: int = 2
    suites: tuple[str, ...] = SUITES
    samples: int = 8
    seed: int = 0
    tail_tol: float | None = None
    cmp_tol: float | None = None
    output: str | None = None

    def validate(self) -> None:
        if not self.suites:
            raise ConfigError("suites must be nonempty")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.N < 1 or self.M < 1:
            raise ConfigError(f"need N, M >= 1, got ({self.N}, {self.M})")
        if self.N * self.M > _BUDGET:
            raise ConfigError(
                f"N*M = {self.N * self.M} exceeds the compute budget {_BUDGET}"
            )
        if not 0.0 < abs(complex(self.q)) < 1.0:
            raise ConfigError(f"need 0 < |q| < 1, got |q| = {abs(complex(self.q))}")
        try:
            self.context()
        except ValueError as exc:
            raise ConfigError(f"tolerances: {exc}") from exc

    def tol(self, suite: str) -> float:
        if self.cmp_tol is not None:
            return self.cmp_tol
        return DEFAULT_TOL[suite]

    def context(self) -> QContext:
        kw = {"q": complex(self.q), "series_cap": _SERIES_CAP}
        if self.tail_tol is not None:
            kw["tail_tol"] = self.tail_tol
        return QContext(**kw)

    def as_dict(self) -> dict:
        return {
            "q": _cplx_out(complex(self.q)),
            "N": self.N,
            "M": self.M,
            "suites": list(self.suites),
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {
                "tail_tol": self.tail_tol,
                "cmp_tol": self.cmp_tol,
            },
            "output": self.output,
        }


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {"q", "N", "M", "suites", "samples", "seed", "tolerances", "output"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    kw: dict = {}
    if "q" in raw:
        kw["q"] = _cplx_in(raw["q"])
    for key in ("N", "M", "samples", "seed"):
        if key in raw:
            kw[key] = _parsed(_int_in, raw[key], key)
    if "suites" in raw:
        names = [raw["suites"]] if isinstance(raw["suites"], str) else raw["suites"]
        kw["suites"] = SUITES if names == ["all"] else _parsed(tuple, names, "suites")
    tols = raw.get("tolerances") or {}
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be a JSON object")
    for key in ("tail_tol", "cmp_tol"):
        if tols.get(key) is not None:
            kw[key] = _parsed(float, tols[key], key)
    if raw.get("output") is not None:
        kw["output"] = str(raw["output"])
    cfg = RunConfig(**kw)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# report model


@dataclass(frozen=True)
class CheckRecord:
    """One sampled check: either a residual with a pass flag, or an error."""

    suite: str
    check: str
    digest: str
    point: tuple[complex, ...]
    residual: float | None
    passed: bool
    margin: float | None = None
    timing: float = 0.0
    error: str | None = None


@dataclass(frozen=True)
class Report:
    config: dict
    records: tuple[CheckRecord, ...]
    summary: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _cplx_out(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cplx_in(v) -> complex:
    try:
        if isinstance(v, (list, tuple)):
            return complex(float(v[0]), float(v[1]))
        if isinstance(v, str):
            return complex(v.replace(" ", ""))
        return complex(v)
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"not a complex number: {v!r}") from exc


def _int_in(v) -> int:
    """int(v); a bool or a non-integral number is refused, not truncated."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise ValueError("not an integer")
    return int(v)


def _parsed(parse, v, name: str):
    """parse(v), with a malformed input value (JSON text included) reported
    as a ConfigError."""
    try:
        return parse(v)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: cannot parse {v!r} ({exc})") from exc


def _read_json(path: str):
    """Parsed JSON file; OSError surfaces when it cannot be read."""
    with open(path) as fh:
        return _parsed(json.loads, fh.read(), path)


def _record_key(r: CheckRecord):
    return (r.suite, r.check, r.digest, tuple((z.real, z.imag) for z in r.point))


def _summarize(records) -> dict:
    out: dict = {}
    for r in records:
        ent = out.setdefault(
            r.suite,
            {"checks": 0, "errors": 0, "max_residual": None, "pass": True},
        )
        ent["checks"] += 1
        if r.error is not None:
            ent["errors"] += 1
        if r.residual is not None:
            prev = ent["max_residual"]
            ent["max_residual"] = (
                r.residual if prev is None else max(prev, r.residual)
            )
        ent["pass"] = ent["pass"] and r.passed
    return out


def report_to_dict(rep: Report, with_timing: bool = False) -> dict:
    recs = []
    for r in rep.records:
        recs.append(
            {
                "suite": r.suite,
                "check": r.check,
                "digest": r.digest,
                "point": [_cplx_out(z) for z in r.point],
                "residual": r.residual,
                "pass": r.passed,
                "margin": r.margin,
                "timing": r.timing if with_timing else 0.0,
                "error": r.error,
            }
        )
    return {"config": rep.config, "records": recs, "summary": rep.summary}


def report_from_dict(raw: dict) -> Report:
    records = tuple(
        CheckRecord(
            suite=r["suite"],
            check=r["check"],
            digest=r["digest"],
            point=tuple(_cplx_in(z) for z in r["point"]),
            residual=r["residual"],
            passed=r["pass"],
            margin=r["margin"],
            timing=r["timing"],
            error=r["error"],
        )
        for r in raw["records"]
    )
    return Report(config=raw["config"], records=records, summary=raw["summary"])


def emit_report(
    rep: Report, format: str = "json", path: str | None = None,
    with_timing: bool = False,
) -> str:
    """Serialize the report; with a path, also write it there (OSError
    surfaces on an unwritable path)."""
    if format == "json":
        text = json.dumps(
            report_to_dict(rep, with_timing=with_timing),
            indent=2,
            sort_keys=True,
        )
    elif format == "table":
        text = _format_table(rep)
    else:
        raise ConfigError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _format_table(rep: Report) -> str:
    header = f"{'suite':<13}{'check':<24}{'digest':<14}{'residual':>12}  {'margin':>8}  status"
    lines = [header, "-" * len(header)]
    for r in rep.records:
        res = f"{r.residual:.3e}" if r.residual is not None else "-"
        mar = f"{r.margin:.3f}" if r.margin is not None else "-"
        status = "pass" if r.passed else "FAIL"
        if r.error is not None:
            status += f"  {r.error}"
        lines.append(
            f"{r.suite:<13}{r.check:<24}{r.digest:<14}{res:>12}  {mar:>8}  {status}"
        )
    lines.append("-" * len(header))
    for suite in sorted(rep.summary):
        ent = rep.summary[suite]
        res = (
            f"{ent['max_residual']:.3e}"
            if ent["max_residual"] is not None
            else "-"
        )
        lines.append(
            f"{suite:<13}{ent['checks']:>3} checks  max residual {res:>12}  "
            f"{'pass' if ent['pass'] else 'FAIL'}"
        )
    lines.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# suite runners
#
# A runner handles one sample; run_suite loops over the samples. Every draw
# goes through _draw and every evaluation through _run_check, so a library,
# sampling or arithmetic error becomes a failing record and never leaves
# run_suite.


class _SampleAbort(Exception):
    """Ends the current sample after its failed draw was recorded."""


def _sha12(obj) -> str:
    return hashlib.sha1(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def _digest(p: ParamSet) -> str:
    fields = {k: [_cplx_out(v) for v in getattr(p, k)] for k in ("alpha", "beta", "gamma")}
    return _sha12({**fields, "q": _cplx_out(complex(p.q))})


@dataclass(frozen=True)
class _Sample:
    """What every draw and check in the samples of one suite shares."""

    cfg: RunConfig
    ctx: QContext
    suite: str
    rng: np.random.Generator
    records: list


def _record(s: _Sample, check, digest, point, start, **outcome) -> None:
    s.records.append(
        CheckRecord(
            suite=s.suite, check=check, digest=digest, point=tuple(point),
            timing=time.perf_counter() - start, **outcome,
        )
    )


def _attempt(s: _Sample, check, digest, point, fn):
    """(True, fn()); or, when fn raises a check error, (False, None) after
    appending the failing record that names the error."""
    start = time.perf_counter()
    try:
        return True, fn()
    except (QConnectError, SamplingError, ArithmeticError) as exc:
        _record(
            s, check, digest, point, start, residual=None,
            passed=False, error=f"{type(exc).__name__}: {exc}",
        )
        return False, None


def _run_check(s: _Sample, check, digest, point, fn, margin=None, passes=None):
    """Execute one check and record its residual. It passes below the suite
    tolerance, or where the passes predicate holds."""
    start = time.perf_counter()
    ok, residual = _attempt(s, check, digest, point, lambda: float(fn()))
    if ok:
        passed = passes(residual) if passes else residual < s.cfg.tol(s.suite)
        _record(s, check, digest, point, start, residual=residual, passed=passed, margin=margin)


def _draw(s: _Sample, check, sampler, digest="-"):
    """Run a sampler for the named check. When it fails, record the failure
    under that check and end the sample."""
    ok, value = _attempt(s, check, digest, (), sampler)
    if not ok:
        raise _SampleAbort
    return value


def _generic_sample(s: _Sample):
    p = sampling.sample_params(s.cfg.N, s.cfg.M, s.ctx.q, s.rng)
    return p, sampling.sample_interior_point(s.cfg.M, s.rng)


def _two_route(p, t, ctx):
    return _rel_diff(eval_FNM(p, t, ctx).value, eval_FNM_reference(p, t, ctx))


# suite -> (check, residual of a generic parameter set at an interior point)
_ONE_RESIDUAL = {
    "series": ("two-route value", _two_route),
    "duality": ("role swap", lambda p, t, ctx: check_duality(p, t, ctx).residual),
    "jackson": ("nested q-integral", lambda p, t, ctx: check_jackson(p, t, ctx).residual),
}


def _suite_one_residual(s: _Sample):
    check, residual = _ONE_RESIDUAL[s.suite]
    p, t = _draw(s, check, lambda: _generic_sample(s))
    _run_check(s, check, _digest(p), t, lambda: residual(p, t, s.ctx))


def _suite_system(s: _Sample):
    p, t = _draw(s, "coupled slot 1", lambda: _generic_sample(s))
    dg = _digest(p)
    f = lambda tt: eval_FNM(p, tt, s.ctx).value
    for i in range(1, s.cfg.M + 1):
        _run_check(s, f"coupled slot {i}", dg, t, lambda: residual_eqn1(f, p, i, t, s.ctx))
    for r in range(1, s.cfg.M + 1):
        for j in range(r + 1, s.cfg.M + 1):
            _run_check(
                s, f"pairwise ({r},{j})", dg, t, lambda: residual_eqn2(f, p, r, j, t, s.ctx)
            )


def _suite_watson(s: _Sample):
    check = "one-variable connection"
    upper, lower, t = _draw(s, check, lambda: sampling.sample_watson(s.cfg.N, s.ctx.q, s.rng))
    _run_check(
        s, check, _sha12([_cplx_out(v) for v in (*upper, *lower)]),
        (t,), lambda: check_watson(upper, lower, t, s.ctx).residual,
    )


def _overlap_params(s: _Sample) -> ParamSet:
    return sampling.sample_params(
        s.cfg.N, s.cfg.M, s.ctx.q, s.rng, coupling_cap=0.16, min_b=0.5
    )


def _vectors(s: _Sample, p, t):
    """Solution vector of an (L, sigma) family of p at t, built once per
    family. The cache belongs to one point of one sample; a build that
    raises is not cached, so it raises again, with the same text, for the
    next check that asks for it."""
    return cache(lambda fam: build_solution_vector(p, *fam, t, s.ctx))


def _check_connection(s: _Sample, check, dg, t, vector, build, src, dst):
    """Record the residual of the claim dst = C . src at t, where src, dst
    are (L, sigma) solution families given by vector and C = build() is
    built after both are evaluated."""

    def residual():
        u_src = vector(src)
        u_dst = vector(dst)
        return verify_connection(u_dst, build(), u_src)

    _run_check(s, check, dg, t, residual)


def _suite_connection(s: _Sample):
    M, ctx, rng = s.cfg.M, s.ctx, s.rng
    sig = perm_identity(M)
    p = _draw(s, "split step", lambda: _overlap_params(s))
    dg = _digest(p)
    L = int(rng.integers(0, M))
    t = _draw(s, f"split step L={L}", lambda: sampling.sample_level_overlap(p, L, sig, rng), dg)
    vector = _vectors(s, p, t)
    for check, build, src, dst in (
        (f"split step L={L}", partial(build_A, p, L, sig, t, ctx), (L + 1, sig), (L, sig)),
        (f"merge step L={L + 1}", partial(build_B, p, L + 1, sig, t, ctx), (L, sig), (L + 1, sig)),
    ):
        _check_connection(s, check, dg, t, vector, build, src, dst)
    if M < 2:
        return
    r = int(rng.integers(1, M))
    t2 = _draw(s, f"swap step r={r}", lambda: sampling.sample_swap_overlap(p, r, sig, rng), dg)
    _check_connection(
        s, f"swap step r={r}", dg, t2, _vectors(s, p, t2), partial(build_S, p, r, sig, t2, ctx),
        (M, sig), (M, perm_compose(sig, perm_transposition(M, r))),
    )


def _suite_theorem1(s: _Sample):
    M, ctx, rng = s.cfg.M, s.ctx, s.rng
    first = "composite path" if M >= 2 else "round trip"
    p = _draw(s, first, lambda: _overlap_params(s))
    dg = _digest(p)
    if M < 2:
        # no swaps exist; exercise the composite machinery on the round trip
        sig = perm_identity(1)
        t = _draw(s, "round trip", lambda: sampling.sample_level_overlap(p, 0, sig, rng), dg)
        _check_connection(
            s, "round trip", dg, t, _vectors(s, p, t),
            partial(compose_connection, p, 0, sig, 0, sig, t, ctx), (0, sig), (0, sig),
        )
        return
    sig1 = perm_identity(M)
    sig2 = perm_compose(sig1, perm_transposition(M, 1))
    L = M - 1
    t = _draw(
        s, "composite path",
        lambda: sampling.sample_family_overlap(p, (L, sig1), (L, sig2), rng), dg,
    )
    # the bubble-sort word of one transposition is [1], so the composite
    # path's matrix is also the word check's C1
    composite = cache(partial(compose_connection, p, L, sig1, L, sig2, t, ctx))

    def word_agreement():
        C1 = composite()
        C2 = compose_connection(p, L, sig1, L, sig2, t, ctx, word=[1, 1, 1])
        return _rel_maxnorm(C1.entries, C2.entries)

    _check_connection(
        s, "composite path", dg, t, _vectors(s, p, t), composite, (L, sig1), (L, sig2)
    )
    _run_check(s, "word agreement", dg, t, word_agreement)


def _node_proxy(exps, m, ctx: QContext) -> float:
    """Separation of the per-component shift multipliers q^{m . delta} over
    the char_exponents exps: the scaled determinant tracks this
    Vandermonde-type product within a small factor, so it predicts
    conditioning without evaluating any series."""
    nodes = [ctx.qpow(sum(mm * d for mm, d in zip(m, ce.delta))) for ce in exps]
    prod = 1.0
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            prod *= abs(nodes[i] - nodes[j])
    for x in nodes:
        prod /= max(1.0, abs(x)) ** (len(nodes) - 1)
    return prod


def _shift_candidates(M: int, n_rows: int, q: complex):
    """Uniform positive steps on the small slots, one negative step on the
    large slot. The large coordinate grows by |q|^{-b (n_rows - 1)} over the
    ladder; b is capped so prefactor magnitudes stay far from overflow."""
    bs = [b for b in (1, 2, 3) if abs(q) ** (-b * (n_rows - 1)) <= 1e5] or [1]
    if M == 1:
        return [(-b,) for b in bs]
    return [(a,) * (M - 1) + (-b,) for a in (1, 2, 3) for b in bs]


def _independence_params(s: _Sample, L, cands, proxy_floor):
    """(params, shift, proxy) of the best-separated of up to 60 generic
    draws, stopping at the first whose proxy reaches the floor."""
    best = (None, None, -1.0)
    for _ in range(60):
        p = sampling.sample_params(s.cfg.N, s.cfg.M, s.ctx.q, s.rng)
        exps = char_exponents(p, L)
        prox, m = max(((_node_proxy(exps, mm, s.ctx), mm) for mm in cands), key=lambda pm: pm[0])
        if prox > best[2]:
            best = (p, m, prox)
        if prox >= proxy_floor:
            break
    return best


def _suite_independence(s: _Sample):
    N, M = s.cfg.N, s.cfg.M
    sig = perm_identity(M)
    L = M - 1
    comps = component_order(N, M)
    n = len(comps)
    # per-pair separation 0.34 is comfortably generic; the floor is its
    # product over all node pairs
    proxy_floor = 0.34 ** (n * (n - 1) / 2)
    cands = _shift_candidates(M, n, s.ctx.q)
    check = "scaled determinant"
    p, shift, prox = _draw(s, check, lambda: _independence_params(s, L, cands, proxy_floor))
    dg = _digest(p)
    t = _draw(s, check, lambda: sampling.sample_domain_point(p, L, sig, s.rng), dg)
    vector = lambda tt: tuple(local_solution(p, L, sig, c, tt, s.ctx) for c in comps)
    ok, cas = _attempt(s, check, dg, t, lambda: casorati_independence(vector, shift, t, s.ctx))
    if not ok:
        return

    def forged():
        # dependent last column: a combination of columns that stay in the
        # matrix (only the first survives when n = 2)
        A = cas.matrix.copy()
        A[:, -1] = 2.0 * A[:, 0] + 0.5 * A[:, 1] if n >= 3 else 2.0 * A[:, 0]
        return abs(_scaled_det(A))

    # the det scales with the node separation; for well-separated draws
    # this is at least the configured threshold
    threshold = min(s.cfg.tol(s.suite), 0.05 * prox)
    _run_check(
        s, check, dg, t, lambda: abs(cas.det),
        margin=threshold, passes=lambda det: det > threshold,
    )
    _run_check(s, "forged dependence", dg, t, forged, passes=lambda det: det < 1e-10)


def _suite_ybe(s: _Sample):
    r = 1
    check = f"braid move r={r}"
    p = _draw(s, check, lambda: sampling.sample_params(s.cfg.N, max(s.cfg.M, 3), s.ctx.q, s.rng))
    u = sampling.sample_spectral(s.rng)
    v = sampling.sample_spectral(s.rng)
    _run_check(s, check, _digest(p), (u, v), lambda: ybe_residual(p, r, u, v, s.ctx))


def _suite_facemodel(s: _Sample):
    ctx = s.ctx
    al = sampling.draw_exponent(s.rng)
    be = sampling.draw_exponent(s.rng)
    u = sampling.sample_spectral(s.rng, lo=0.6, hi=1.5)
    dg = _sha12([_cplx_out(al), _cplx_out(be)])

    def conjugacy():
        W = build_W_akm(al, be, u, ctx).as_array()
        Wt = build_Wtilde(al, be, u, ctx).as_array()
        f = conj_f(al, be, ctx)
        A = np.diag([1.0 + 0j, f])
        B = np.diag([f, 1.0 + 0j])
        scale = np.abs(W).max()
        d1 = np.abs(W - np.linalg.inv(A) @ Wt @ A).max()
        d2 = np.abs(W - B @ Wt @ np.linalg.inv(B)).max()
        return max(d1, d2) / scale

    _run_check(s, "weight conjugacy", dg, (u,), conjugacy)
    x = sampling.sample_spectral(s.rng, lo=0.6, hi=1.5)
    _run_check(s, "gauge transfer", dg, (x,), lambda: wprime_gauge_residual(al, be, x, ctx))


_RUNNERS = {
    "series": _suite_one_residual,
    "system": _suite_system,
    "duality": _suite_one_residual,
    "jackson": _suite_one_residual,
    "watson": _suite_watson,
    "connection": _suite_connection,
    "theorem1": _suite_theorem1,
    "independence": _suite_independence,
    "ybe": _suite_ybe,
    "facemodel": _suite_facemodel,
}


def run_suite(cfg: RunConfig) -> Report:
    """Execute every configured suite with seeded sampling; per-check errors
    become failing records, never exceptions. Every suite of the run shares
    one QContext, so its memo serves the whole run."""
    cfg.validate()
    ctx = cfg.context()
    records: list[CheckRecord] = []
    for index, suite in enumerate(SUITES):
        if suite not in cfg.suites:
            continue
        s = _Sample(cfg, ctx, suite, np.random.default_rng([cfg.seed, index]), records)
        for _ in range(cfg.samples):
            try:
                _RUNNERS[suite](s)
            except _SampleAbort:
                pass
    records.sort(key=_record_key)
    return Report(
        config=cfg.as_dict(),
        records=tuple(records),
        summary=_summarize(records),
    )


# ---------------------------------------------------------------------------
# one-off evaluation


def _parse_cplx_list(v) -> tuple[complex, ...]:
    return tuple(_cplx_in(x) for x in v)


def eval_spec(spec: dict) -> dict:
    """Evaluate one series from a JSON description. kind selects the family;
    parameters are exponents (alpha/beta/gamma) except for nphi, which takes
    upper/lower values directly."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("series spec must be a JSON object with a 'kind'")

    def field(key, parse):
        if key not in spec:
            raise ConfigError(f"series spec of kind {kind!r} needs {key!r}")
        return _parsed(parse, spec[key], key)

    kind = spec["kind"]
    q = _cplx_in(spec.get("q", 0.3))
    ctx = QContext(q=q, series_cap=_SERIES_CAP)
    if kind == "nphi":
        upper = field("upper", _parse_cplx_list)
        lower = field("lower", _parse_cplx_list)
        sv = eval_nphi(upper, lower, field("t", _cplx_in), ctx)
    elif kind in ("FNM", "FNM_L", "FNM_Lkl", "GNM_Lkl"):
        p = ParamSet(
            alpha=field("alpha", _parse_cplx_list),
            beta=field("beta", _parse_cplx_list),
            gamma=field("gamma", _parse_cplx_list),
            q=q,
        )
        t = field("t", _parse_cplx_list)
        if kind == "FNM":
            sv = eval_FNM(p, t, ctx)
        elif kind == "FNM_L":
            sv = eval_FNM_L(p, field("L", _int_in), t, ctx)
        else:
            fn = eval_FNM_Lkl if kind == "FNM_Lkl" else eval_GNM_Lkl
            sv = fn(p, field("L", _int_in), field("k", _int_in), field("l", _int_in), t, ctx)
    else:
        raise ConfigError(f"unknown series kind {kind!r}")
    return {"kind": kind, "value": _cplx_out(sv.value), "terms": sv.terms_used}


def exponents_spec(
    N: int,
    M: int,
    L: int,
    alpha=None,
    beta=None,
    gamma=None,
    q: complex = 0.3,
    seed: int = 0,
) -> dict:
    """Leading exponent vectors for the level-L family; exponents are drawn
    from the generic sampler when not supplied."""
    if alpha is None or beta is None or gamma is None:
        rng = np.random.default_rng(seed)
        p = sampling.sample_params(N, M, q, rng)
    else:
        p = ParamSet(
            alpha=tuple(alpha), beta=tuple(beta), gamma=tuple(gamma), q=q
        )
    out = []
    for ce in char_exponents(p, L):
        comp = 0 if ce.component == 0 else list(ce.component)
        out.append(
            {"component": comp, "delta": [_cplx_out(d) for d in ce.delta]}
        )
    return {
        "N": N,
        "M": M,
        "L": L,
        "alpha": [_cplx_out(v) for v in p.alpha],
        "beta": [_cplx_out(v) for v in p.beta],
        "gamma": [_cplx_out(v) for v in p.gamma],
        "q": _cplx_out(complex(q)),
        "exponents": out,
    }


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qconnect",
        description="Verification runs and one-off evaluations for the "
        "q-hypergeometric connection library.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute verification suites")
    run.add_argument("config", nargs="?", help="JSON config file")
    run.add_argument("--q", type=str, default=None)
    run.add_argument("--N", type=int, default=None)
    run.add_argument("--M", type=int, default=None)
    run.add_argument(
        "--suite", action="append", default=None,
        help="suite name, repeatable or comma-separated",
    )
    run.add_argument("--samples", type=int, default=None)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--tol", action="append", default=None,
        help="cmp=VALUE or tail=VALUE (bare value means cmp)",
    )
    run.add_argument("--out", type=str, default=None, help="JSON report path")
    run.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="stdout format",
    )
    run.add_argument(
        "--with-timing", action="store_true",
        help="keep measured timings in the report (breaks byte determinism)",
    )

    ev = sub.add_parser("eval", help="evaluate one series from a JSON spec")
    ev.add_argument(
        "spec", help="JSON object (inline) or path to a JSON file"
    )

    ex = sub.add_parser("exponents", help="leading exponent vectors")
    ex.add_argument("--N", type=int, required=True)
    ex.add_argument("--M", type=int, required=True)
    ex.add_argument("--L", type=int, required=True)
    ex.add_argument("--alpha", type=str, default=None)
    ex.add_argument("--beta", type=str, default=None)
    ex.add_argument("--gamma", type=str, default=None)
    ex.add_argument("--q", type=str, default="0.3")
    ex.add_argument("--seed", type=int, default=0)
    return ap


def _with_flags(raw, args):
    """The config dict with the run flags laid over it, in the same shape."""
    if not isinstance(raw, dict):
        return raw  # config_from_dict rejects it
    out = dict(raw)
    for key, value in (("q", args.q), ("N", args.N), ("M", args.M),
                       ("samples", args.samples), ("seed", args.seed),
                       ("output", args.out)):
        if value is not None:
            out[key] = value
    if args.suite is not None:
        out["suites"] = [s.strip() for item in args.suite for s in item.split(",") if s.strip()]
    if args.tol is not None:
        tols = dict(raw.get("tolerances") or {})
        for item in args.tol:
            key, sep, val = item.partition("=")
            if not sep:
                key, val = "cmp", item
            key = key.strip()
            if key not in ("cmp", "cmp_tol", "tail", "tail_tol"):
                raise ConfigError(f"unknown tolerance {key!r}")
            tols[key.removesuffix("_tol") + "_tol"] = val
        out["tolerances"] = tols
    return out


def _one_off(args) -> dict:
    """Reply of eval or exponents; input the library rejects is a ConfigError."""
    try:
        if args.command == "eval":
            raw = args.spec.strip()
            spec = _parsed(json.loads, raw, "spec") if raw.startswith("{") else _read_json(raw)
            return eval_spec(spec)
        return exponents_spec(
            N=args.N,
            M=args.M,
            L=args.L,
            alpha=_parse_cplx_list(args.alpha.split(",")) if args.alpha else None,
            beta=_parse_cplx_list(args.beta.split(",")) if args.beta else None,
            gamma=_parse_cplx_list(args.gamma.split(",")) if args.gamma else None,
            q=_cplx_in(args.q),
            seed=args.seed,
        )
    except (QConnectError, ValueError, IndexError) as exc:
        raise ConfigError(str(exc)) from exc


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            raw = {} if args.config is None else _read_json(args.config)
            cfg = config_from_dict(_with_flags(raw, args))
            rep = run_suite(cfg)
            print(
                emit_report(rep, format=args.format, with_timing=args.with_timing)
            )
            if cfg.output is not None:
                emit_report(
                    rep, format="json", path=cfg.output,
                    with_timing=args.with_timing,
                )
            return 0 if rep.passed else 1
        print(json.dumps(_one_off(args), indent=2, sort_keys=True))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
