"""Command-line front end: configured verification runs.

The library takes explicit values and raises on bad input; this module owns
run configuration, the suite table, per-check error capture, and report
emission. Draw policy has one owner, the sampling module, and a runner only
names the sampler each check draws from. Reports are deterministic for a
fixed config and seed: record timings are zeroed at emission unless
measured output is requested explicitly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cache, partial

import numpy as np

from .errors import ConfigError, DomainError, QConnectError
from .qkernel import (
    ParamSet,
    QContext,
    _bits,
    _compose,
    _rel_diff,
    _rel_maxnorm,
    perm_identity,
    perm_transposition,
)
from .hyperseries import (
    build_solution_vectors,
    component_order,
    eval_FNM,
    local_solution,
)
from .oracle import (
    RCOND_FLOOR,
    _shift_points,
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
from .facemodel import conjugacy_residual, wprime_gauge_residual, ybe_residual
from . import sampling

_BUDGET = 12


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


# CheckRecord field -> its key in a JSON report, where a point is [real, imag] pairs
_RECORD_KEYS = {f.name: f.name for f in fields(CheckRecord)} | {"passed": "pass"}


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
    """A number, a string such as "0.3+0.1j", or a [real, imag] pair of
    exactly two numbers. A bool is refused, not read as 0 or 1."""
    try:
        if isinstance(v, (list, tuple)):
            re, im = v
            if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
                raise TypeError("a pair holds two numbers")
            return complex(re, im)
        if isinstance(v, bool):
            raise TypeError("a bool is not a number")
        if isinstance(v, str):
            return complex(v.replace(" ", ""))
        return complex(v)
    except (TypeError, ValueError) as exc:
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
    """Parsed JSON file; OSError surfaces when it cannot be read. The bytes
    are decoded by json.loads, so text that is not UTF-8 is a ConfigError."""
    with open(path, "rb") as fh:
        return _parsed(json.loads, fh.read(), path)


def _record_key(r: CheckRecord):
    return (r.suite, r.check, r.digest, tuple((z.real, z.imag) for z in r.point))


# suite -> its certificate check, whose value is bigger when better; every
# other record's value is a residual, smaller when better
_CERTIFICATES = {"independence": "scaled determinant"}


def _summarize(records) -> dict:
    """Per suite: checks, errors, the largest residual and pass; a suite with
    a certificate check also gets its smallest certificate."""
    out = {}
    for suite in dict.fromkeys(r.suite for r in records):
        recs = [r for r in records if r.suite == suite]
        cert = _CERTIFICATES.get(suite)
        valued = [r for r in recs if r.residual is not None]
        out[suite] = {
            "checks": len(recs),
            "errors": sum(r.error is not None for r in recs),
            "max_residual": max((r.residual for r in valued if r.check != cert), default=None),
            "pass": all(r.passed for r in recs),
        }
        if cert is not None:
            out[suite]["min_certificate"] = min(
                (r.residual for r in valued if r.check == cert), default=None
            )
    return out


def report_to_dict(rep: Report, with_timing: bool = False) -> dict:
    recs = []
    for r in rep.records:
        rec = {key: getattr(r, name) for name, key in _RECORD_KEYS.items()}
        rec["point"] = [_cplx_out(z) for z in r.point]
        if not with_timing:
            rec["timing"] = 0.0
        recs.append(rec)
    return {"config": rep.config, "records": recs, "summary": rep.summary}


def report_from_dict(raw: dict) -> Report:
    records = []
    for r in raw["records"]:
        kw = {name: r[key] for name, key in _RECORD_KEYS.items()}
        kw["point"] = tuple(_cplx_in(z) for z in r["point"])
        records.append(CheckRecord(**kw))
    return Report(config=raw["config"], records=tuple(records), summary=raw["summary"])


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


def _sci(x: float | None) -> str:
    return f"{x:.3e}" if x is not None else "-"


def _format_table(rep: Report) -> str:
    header = f"{'suite':<13}{'check':<24}{'digest':<14}{'residual':>12}  {'margin':>8}  status"
    lines = [header, "-" * len(header)]
    for r in rep.records:
        res = _sci(r.residual)
        mar = f"{r.margin:.1e}" if r.margin is not None else "-"
        status = "pass" if r.passed else "FAIL"
        if r.error is not None:
            status += f"  {r.error}"
        lines.append(
            f"{r.suite:<13}{r.check:<24}{r.digest:<14}{res:>12}  {mar:>8}  {status}"
        )
    lines.append("-" * len(header))
    for suite in sorted(rep.summary):
        ent = rep.summary[suite]
        res = _sci(ent["max_residual"])
        cert = ""
        if "min_certificate" in ent:
            cert = f"  min certificate {_sci(ent['min_certificate'])}"
        lines.append(
            f"{suite:<13}{ent['checks']:>3} checks  max residual {res:>12}{cert}  "
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


_EXPONENTS = ("alpha", "beta", "gamma")


def _exponents_out(p: ParamSet) -> dict:
    return {key: [_cplx_out(v) for v in getattr(p, key)] for key in _EXPONENTS}


def _digest(p: ParamSet) -> str:
    return _sha12({**_exponents_out(p), "q": _cplx_out(complex(p.q))})


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
    except (QConnectError, ArithmeticError) as exc:
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


def _one_residual(check, residual, s: _Sample):
    """Runner of a suite with one check, residual(p, t, ctx) at a generic (p, t)."""
    p, t = _draw(s, check, lambda: sampling._generic_sample(s.cfg.N, s.cfg.M, s.ctx.q, s.rng))
    _run_check(s, check, _digest(p), t, lambda: residual(p, t, s.ctx))


def _two_route(p, t, ctx):
    return _rel_diff(eval_FNM(p, t, ctx).value, eval_FNM_reference(p, t, ctx))


def _point_cache(f):
    """f with its values kept for one sample, keyed by the exact bits of its
    argument, a point or a sequence of points (-0.0 and 0.0 stay apart). An
    evaluation that raises is not kept, so it raises again, with the same
    text, for the next check that asks for it."""
    values = {}

    def cached(t):
        key = _bits(t)
        if key not in values:
            values[key] = f(t)
        return values[key]

    return cached


def _suite_system(s: _Sample):
    N, M = s.cfg.N, s.cfg.M
    p, t = _draw(s, "coupled slot 1", lambda: sampling._generic_sample(N, M, s.ctx.q, s.rng))
    dg = _digest(p)
    # the six (2,3) checks read F 30 times at 15 distinct points, all from one
    # engine pass, kept once it returns; a pass that raises keeps nothing, so
    # each check runs it again and records the same error
    points = {_bits(pt): pt for pt in _shift_points(t, s.ctx.q, N, M)}
    values = cache(lambda: dict(zip(points, eval_FNM(p, list(points.values()), s.ctx))))
    f = lambda tt: values()[_bits(tt)].value
    for i in range(1, M + 1):
        _run_check(s, f"coupled slot {i}", dg, t, lambda: residual_eqn1(f, p, i, t, s.ctx))
    for r in range(1, M + 1):
        for j in range(r + 1, M + 1):
            _run_check(
                s, f"pairwise ({r},{j})", dg, t, lambda: residual_eqn2(f, p, r, j, t, s.ctx)
            )


def _suite_watson(s: _Sample):
    check = "one-variable connection"
    upper, lower, t = _draw(s, check, lambda: sampling.sample_watson(s.cfg.N, s.ctx.q, s.rng))
    _run_check(
        s, check, _sha12([_cplx_out(v) for v in (*upper, *lower)]),
        (t,), lambda: check_watson(upper, lower, t, s.ctx),
    )


def _vectors(s: _Sample, p, t):
    """vectors(families): the solution vector of each (L, sigma) family of p
    at t. The families not yet built are built together, in one
    build_solution_vectors call: one engine pass. The vectors belong to one
    point of one sample, and only a call that returned keeps its vectors,
    so a build that raises raises again, with the same text, for the next
    check that asks for its families."""
    built = {}

    def vectors(families):
        new = [fam for fam in families if fam not in built]
        if new:
            built.update(zip(new, build_solution_vectors(p, new, t, s.ctx)))
        return [built[fam] for fam in families]

    return vectors


def _check_connection(s: _Sample, check, dg, t, vectors, build, src, dst):
    """Record the residual of the claim dst = C . src at t, where src, dst
    are (L, sigma) solution families, both asked of vectors (see _vectors)
    in one call, and C = build() is built after both are evaluated."""

    def residual():
        u_src, u_dst = vectors((src, dst))
        return verify_connection(u_dst, build(), u_src)

    _run_check(s, check, dg, t, residual)


def _suite_connection(s: _Sample):
    M, ctx, rng = s.cfg.M, s.ctx, s.rng
    sig = perm_identity(M)
    p = _draw(s, "split step", lambda: sampling._overlap_params(s.cfg.N, M, ctx.q, rng))
    dg = _digest(p)
    L = int(rng.integers(0, M))
    t = _draw(s, f"split step L={L}", lambda: sampling.sample_level_overlap(p, L, sig, rng), dg)
    vectors = _vectors(s, p, t)
    for check, build, src, dst in (
        (f"split step L={L}", partial(build_A, p, L, sig, t, ctx), (L + 1, sig), (L, sig)),
        (f"merge step L={L + 1}", partial(build_B, p, L + 1, sig, t, ctx), (L, sig), (L + 1, sig)),
    ):
        _check_connection(s, check, dg, t, vectors, build, src, dst)
    if M < 2:
        return
    r = int(rng.integers(1, M))
    t2 = _draw(s, f"swap step r={r}", lambda: sampling.sample_swap_overlap(p, r, sig, rng), dg)
    _check_connection(
        s, f"swap step r={r}", dg, t2, _vectors(s, p, t2), partial(build_S, p, r, sig, t2, ctx),
        (M, sig), (M, _compose(sig, perm_transposition(M, r))),
    )


def _suite_theorem1(s: _Sample):
    """Theorem 1 at one point t where the (M-1, id) and (M-1, s_1) families
    both converge: "composite path" checks their vectors against the
    product compose_connection builds, and "word agreement" compares that
    product with the one of the word [1, 1, 1]. The two compositions share
    one store of elementary factors at t, so each of the 4 distinct factors
    is built once. At M = 1 no swap exists, and "round trip" checks
    the level-0 family against itself through A_0 B_1."""
    M, ctx, rng = s.cfg.M, s.ctx, s.rng
    first = "composite path" if M >= 2 else "round trip"
    p = _draw(s, first, lambda: sampling._overlap_params(s.cfg.N, M, ctx.q, rng))
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
    sig2 = _compose(sig1, perm_transposition(M, 1))
    L = M - 1
    t = _draw(
        s, "composite path",
        lambda: sampling.sample_family_overlap(p, (L, sig1), (L, sig2), rng), dg,
    )
    # the bubble-sort word of one transposition is [1], so the composite
    # path's matrix is also the word check's C1; the word [1, 1, 1] reads
    # A(M-1, sig2), S_1(sig1) and B(M, sig1) from the store and builds S_1(sig2)
    factors: dict = {}
    composite = cache(partial(compose_connection, p, L, sig1, L, sig2, t, ctx, factors=factors))

    def word_agreement():
        C1 = composite()
        C2 = compose_connection(p, L, sig1, L, sig2, t, ctx, word=[1, 1, 1], factors=factors)
        return _rel_maxnorm(C1, C2)

    _check_connection(
        s, "composite path", dg, t, _vectors(s, p, t), composite, (L, sig1), (L, sig2)
    )
    _run_check(s, "word agreement", dg, t, word_agreement)


def _casorati_columns(p, L, sig, comps, ctx):
    """casorati_independence's columns, comps[j] of the (L, sig) family in
    column j. Every column reads one local_solution call over every label
    at its points, through _point_cache, so the whole matrix is one engine
    pass. A pass that raises keeps nothing: column 0 raises its error, the
    first failing label's, taken label by label."""
    matrix = _point_cache(lambda points: local_solution(p, L, sig, comps, points, ctx))
    return [lambda points, j=j: matrix(points)[j] for j in range(len(comps))]


def _suite_independence(s: _Sample):
    N, M = s.cfg.N, s.cfg.M
    sig = perm_identity(M)
    L = M - 1
    comps = component_order(N, M)
    check = "scaled determinant"
    p, shift = _draw(s, check, lambda: sampling._casorati_params(N, M, L, s.ctx, s.rng))
    dg = _digest(p)
    t = _draw(s, check, lambda: sampling.sample_domain_point(p, L, sig, s.rng), dg)
    columns = _casorati_columns(p, L, sig, comps, s.ctx)
    ok, cas = _attempt(s, check, dg, t, lambda: casorati_independence(columns, shift, t, s.ctx))
    if not ok:
        return
    # one rcond floor certifies the true matrix and refuses its forged twin
    _run_check(
        s, check, dg, t, lambda: cas.rcond,
        margin=RCOND_FLOOR, passes=lambda rcond: rcond > RCOND_FLOOR,
    )
    _run_check(
        s, "forged dependence", dg, t, lambda: cas.forged_rcond,
        passes=lambda rcond: rcond <= RCOND_FLOOR,
    )


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
    _run_check(s, "weight conjugacy", dg, (u,), lambda: conjugacy_residual(al, be, u, ctx))
    x = sampling.sample_spectral(s.rng, lo=0.6, hi=1.5)
    _run_check(s, "gauge transfer", dg, (x,), lambda: wprime_gauge_residual(al, be, x, ctx))


# Suites in run order, name -> (default tolerance, runner of one sample). run_suite
# seeds each suite's generator with its index here, so the order is in every report.
_SUITES = {
    "series": (1e-10, partial(_one_residual, "two-route value", _two_route)),
    "system": (1e-9, _suite_system),
    # lambdas, not the checks themselves: each call looks its check up in this
    # module, so a check patched there after import is the one that runs
    "duality": (1e-10, partial(
        _one_residual, "role swap", lambda p, t, ctx: check_duality(p, t, ctx)
    )),
    "jackson": (1e-9, partial(
        _one_residual, "nested q-integral", lambda p, t, ctx: check_jackson(p, t, ctx)
    )),
    "watson": (1e-9, _suite_watson),
    "connection": (1e-7, _suite_connection),
    "theorem1": (1e-6, _suite_theorem1),
    # passes on the oracle's fixed RCOND_FLOOR, so no tolerance applies
    "independence": (None, _suite_independence),
    "ybe": (1e-9, _suite_ybe),
    "facemodel": (1e-9, _suite_facemodel),
}
SUITES = tuple(_SUITES)


# ---------------------------------------------------------------------------
# run configuration


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

    def __post_init__(self) -> None:
        # every field holds the value a JSON config would give it, however the
        # config was built; null leaves an optional field unset
        for key, (parse, _) in _FIELDS.items():
            value = getattr(self, key)
            if value is not None or getattr(RunConfig, key) is not None:
                object.__setattr__(self, key, _parsed(parse, value, key))

    def validate(self) -> None:
        if not self.suites:
            raise ConfigError("suites must be nonempty")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.N < 1 or self.M < 1:
            raise ConfigError(f"need N, M >= 1, got ({self.N}, {self.M})")
        if self.N * self.M > _BUDGET:
            raise ConfigError(f"N*M = {self.N * self.M} exceeds the compute budget {_BUDGET}")
        if self.cmp_tol is not None and not 0.0 < self.cmp_tol < 1.0:
            raise ConfigError("tolerances: cmp_tol must lie in (0, 1)")
        try:
            self.context()
        except DomainError as exc:  # the base
            raise ConfigError(str(exc)) from exc
        except ValueError as exc:
            raise ConfigError(f"tolerances: {exc}") from exc

    def tol(self, suite: str) -> float:
        if self.cmp_tol is not None:
            return self.cmp_tol
        return _SUITES[suite][0]

    def context(self) -> QContext:
        kw = {"q": self.q}
        if self.tail_tol is not None:
            kw["tail_tol"] = self.tail_tol
        return QContext(**kw)

    def as_dict(self) -> dict:
        """The config as a JSON config with every key set."""
        out = {key: render(getattr(self, key)) for key, (_, render) in _FIELDS.items()}
        out[_TOLERANCES] = {key: out.pop(key) for key in _TOLS}
        return out


def _as_is(v):
    return v


def _suites_in(v) -> tuple[str, ...]:
    """One suite name or a sequence of them, each named once; "all" anywhere
    in it stands for every suite."""
    names = [v] if isinstance(v, str) else v
    expanded = (n for name in names for n in (SUITES if name == "all" else (name,)))
    return tuple(dict.fromkeys(expanded))


# RunConfig field -> (parser of its value in a JSON config, its value in a report)
_FIELDS = {
    "q": (_cplx_in, _cplx_out),
    "N": (_int_in, _as_is),
    "M": (_int_in, _as_is),
    "suites": (_suites_in, list),
    "samples": (_int_in, _as_is),
    "seed": (_int_in, _as_is),
    "tail_tol": (float, _as_is),
    "cmp_tol": (float, _as_is),
    "output": (str, _as_is),
}
_TOLERANCES = "tolerances"  # the JSON object that holds the *_tol fields
_TOLS = tuple(key for key in _FIELDS if key.endswith("_tol"))
# the keys of a JSON config; the argparse dest of each run flag is its key
_KEYS = tuple(key for key in _FIELDS if key not in _TOLS) + (_TOLERANCES,)


def _tolerances_in(raw: dict, flags=()) -> dict:
    """{field: value} of the tolerances of a JSON config, then of the --tol
    flags. Either names a field cmp or tail, with or without its _tol."""
    tols = raw.get(_TOLERANCES)
    if tols is None:  # null, like a missing key, names no tolerances
        tols = {}
    if not isinstance(tols, dict):
        raise ConfigError("tolerances must be a JSON object")
    # a --tol item is name=value, or a bare value for cmp
    pairs = [item.split("=", 1) if "=" in item else ("cmp", item) for item in flags]
    out = {}
    for name, value in (*tols.items(), *pairs):
        field = name.strip().removesuffix("_tol") + "_tol"
        if field not in _TOLS:
            raise ConfigError(f"unknown tolerance {name.strip()!r}")
        out[field] = value
    return out


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(raw) - set(_KEYS)
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    values = {**raw, **_tolerances_in(raw)}
    cfg = RunConfig(**{key: values[key] for key in _FIELDS if key in values})
    cfg.validate()
    return cfg


def run_suite(cfg: RunConfig) -> Report:
    """Execute every configured suite with seeded sampling; per-check errors
    become failing records, never exceptions. Every suite of the run shares
    one QContext, so its memo serves the whole run."""
    cfg.validate()
    ctx = cfg.context()
    records: list[CheckRecord] = []
    for index, (suite, (_, runner)) in enumerate(_SUITES.items()):
        if suite not in cfg.suites:
            continue
        s = _Sample(cfg, ctx, suite, np.random.default_rng([cfg.seed, index]), records)
        for _ in range(cfg.samples):
            with suppress(_SampleAbort):
                runner(s)
    records.sort(key=_record_key)
    return Report(
        config=cfg.as_dict(),
        records=tuple(records),
        summary=_summarize(records),
    )


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qconnect",
        description="Verification runs for the q-hypergeometric connection library.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute verification suites")
    run.add_argument("config", nargs="?", help="JSON config file")
    run.add_argument("--q", type=str, default=None)
    for key in ("N", "M", "samples", "seed"):
        run.add_argument(f"--{key}", type=int, default=None)
    run.add_argument(
        "--suite", dest="suites", metavar="SUITE", action="extend",
        type=lambda item: [s.strip() for s in item.split(",") if s.strip()],
        help="suite name, repeatable or comma-separated",
    )
    run.add_argument(
        "--tol", dest=_TOLERANCES, metavar="TOL", action="append",
        help="cmp=VALUE or tail=VALUE (bare value means cmp)",
    )
    run.add_argument("--out", dest="output", metavar="OUT", help="JSON report path")
    run.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="stdout format",
    )
    run.add_argument(
        "--with-timing", action="store_true",
        help="keep measured timings in the report (breaks byte determinism)",
    )
    return ap


def _with_flags(raw, args):
    """The config dict with the run flags laid over it, in the same shape;
    the --tol values are laid over the tolerances of the file."""
    if not isinstance(raw, dict):
        return raw  # config_from_dict rejects it
    out = dict(raw)
    for key in _KEYS:
        value = getattr(args, key)
        if value is not None:
            out[key] = _tolerances_in(raw, value) if key == _TOLERANCES else value
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = {} if args.config is None else _read_json(args.config)
        cfg = config_from_dict(_with_flags(raw, args))
        rep = run_suite(cfg)
        print(emit_report(rep, format=args.format, with_timing=args.with_timing))
        if cfg.output is not None:
            emit_report(rep, format="json", path=cfg.output, with_timing=args.with_timing)
        return 0 if rep.passed else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
