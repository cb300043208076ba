"""Command line driver: config handling, reports, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qconnect import ConfigError, ConvergenceError
from qconnect import cli, connection, facemodel, oracle
from qconnect.qkernel import _bits
from qconnect.cli import (
    SUITES,
    RunConfig,
    config_from_dict,
    emit_report,
    main,
    report_from_dict,
    report_to_dict,
    run_suite,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from digest_matrix import FAMILIES, MATRIX  # noqa: E402


def small_cfg(**kw):
    base = dict(suites=("duality",), samples=2, seed=3)
    base.update(kw)
    return RunConfig(**base)


def test_suite_names():
    assert SUITES == (
        "series",
        "system",
        "duality",
        "jackson",
        "watson",
        "connection",
        "theorem1",
        "independence",
        "ybe",
        "facemodel",
    )


def test_config_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.q == 0.3 and cfg.N == 2 and cfg.M == 2
    assert cfg.suites == SUITES and cfg.samples == 8 and cfg.seed == 0
    cfg.validate()
    # "all" is every suite in any sequence form, and next to other names
    assert RunConfig(suites=("all",)).suites == SUITES
    assert RunConfig(suites=("all", "ybe")).suites == SUITES

    for bad in (
        dict(suites=("bogus",)),
        dict(suites=()),
        dict(samples=0),
        dict(N=0),
        dict(N=4, M=4),
        dict(q=1.5),
        dict(seed=-5),
        dict(cmp_tol=1.0),
        # values the run driver cannot use are refused as a JSON config's are
        dict(samples=1.5),
        dict(N=1.5),
        dict(q="abc"),
        dict(q=[0.3, 0.0, 9]),
        dict(q=[0.3, False]),
        dict(seed=True),
    ):
        with pytest.raises(ConfigError):
            RunConfig(**bad).validate()


def test_config_from_dict():
    cfg = config_from_dict({"suites": "all", "samples": 3})
    assert cfg.suites == SUITES and cfg.samples == 3
    cfg2 = config_from_dict({"suites": ["duality", "ybe"]})
    assert cfg2.suites == ("duality", "ybe")
    # what `--suite all --suite ybe` gives
    assert config_from_dict({"suites": ["all", "ybe"]}).suites == SUITES
    with pytest.raises(ConfigError):
        config_from_dict({"sample": 3})


def test_config_dict_round_trip():
    cfg = RunConfig(
        q=0.4 + 0.1j, N=1, M=3, suites=("ybe", "duality"), samples=3, seed=9,
        tail_tol=1e-12, cmp_tol=1e-8, output="rep.json",
    )
    assert config_from_dict(cfg.as_dict()) == cfg


def test_config_tolerance_names_follow_tol(tmp_path, capsys):
    # a JSON config names a tolerance as --tol does: cmp, cmp_tol, tail, tail_tol
    path = tmp_path / "cfg.json"
    for name in ("cmp", "cmp_tol"):
        path.write_text(json.dumps(
            {"tolerances": {name: 1e-30}, "suites": ["duality"], "samples": 1}
        ))
        assert main(["run", str(path)]) == 1
    assert config_from_dict({"tolerances": {"tail": 1e-12}}).tail_tol == 1e-12
    assert config_from_dict({"tolerances": {"tail_tol": 1e-12}}).tail_tol == 1e-12
    # null, like a missing key, leaves both tolerances at their defaults
    assert config_from_dict({"tolerances": None}) == config_from_dict({}) == RunConfig()


def test_run_suite_deterministic():
    rep1 = run_suite(small_cfg())
    rep2 = run_suite(small_cfg())
    assert report_to_dict(rep1) == report_to_dict(rep2)
    assert rep1.passed


@pytest.mark.parametrize(
    "kw",
    [
        dict(q=0.7, suites=("connection",), samples=1),
        dict(q=0.7, suites=("theorem1",), samples=1),
        dict(N=1, M=6, suites=("connection",), samples=1),
    ],
)
def test_failed_draw_becomes_failing_record(kw):
    text = emit_report(run_suite(RunConfig(**kw)))
    assert emit_report(run_suite(RunConfig(**kw))) == text
    failing = [r for r in json.loads(text)["records"] if not r["pass"]]
    assert failing
    assert all(r["error"].startswith("SamplingError: ") for r in failing)


@pytest.mark.parametrize(
    "kw",
    [
        dict(N=1, M=2),
        dict(N=1, M=1),
        {},
        # the two benchmark workloads at seed 0
        dict(N=2, M=3),
        dict(N=3, M=3, suites=FAMILIES),
    ],
    ids=["1x2", "1x1", "default", "2x3", "3x3-families"],
)
def test_report_bytes_frozen(kw):
    # every suite and both forged-column forms (n = 3 and n = 2 components);
    # the frozen prefixes are those of tools/digest_matrix.py
    prefix = next(frozen for known, frozen in MATRIX if known == kw)
    text = emit_report(run_suite(RunConfig(**kw)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == prefix


def _calls(monkeypatch, name, fn=None):
    """(args, keywords) of every call the run driver makes to name, which
    goes on to fn (the real function by default)."""
    calls = []
    fn = fn or getattr(cli, name)

    def counted(*args, **kw):
        calls.append((args, kw))
        return fn(*args, **kw)

    monkeypatch.setattr(cli, name, counted)
    return calls


def test_connection_sample_builds_each_family_once(monkeypatch):
    calls = _calls(monkeypatch, "build_solution_vector")
    rep = run_suite(RunConfig(suites=("connection",), samples=1))
    assert len(rep.records) == 3 and rep.passed
    # (L, sigma, t): two families at the level-overlap point, two at the swap point
    families = [args[1:4] for args, _ in calls]
    assert len(families) == len(set(families)) == 4


def test_theorem1_sample_composes_the_one_swap_word_once(monkeypatch):
    calls = _calls(monkeypatch, "compose_connection")
    rep = run_suite(RunConfig(suites=("theorem1",), samples=1))
    assert [r.check for r in rep.records] == ["composite path", "word agreement"]
    assert rep.passed
    # the default word is the bubble-sort word of one transposition, [1]
    assert [kw.get("word") for _, kw in calls] == [None, [1, 1, 1]]


def test_run_calls_every_public_identity_check(monkeypatch):
    # every identity check oracle, connection and facemodel export (each
    # public function named *residual*, check_* or verify_*, and the Casorati
    # certificate) is one the run driver certifies
    names = [
        name for mod in (oracle, connection, facemodel) for name in mod.__all__
        if callable(getattr(mod, name))
        and ("residual" in name or name.startswith(("check_", "verify_")))
    ] + ["casorati_independence"]
    assert {
        "residual_eqn1", "check_watson", "ybe_residual", "wprime_gauge_residual",
        "verify_connection",
    } <= set(names)
    missing = [name for name in names if not hasattr(cli, name)]
    assert not missing, f"the run driver never imports {missing}"
    calls = {name: _calls(monkeypatch, name) for name in names}
    run_suite(RunConfig(samples=1))
    assert [name for name, made in calls.items() if not made] == []


def test_system_sample_evaluates_F_once_per_point(monkeypatch):
    calls = _calls(monkeypatch, "eval_FNM")
    rep = run_suite(RunConfig(N=2, M=3, suites=("system",), samples=1))
    assert len(rep.records) == 6 and rep.passed
    # the three slot and three pairwise checks ask for F at 30 points, 15
    # distinct: one call evaluates exactly those, each once
    assert len(calls) == 1
    (p, points, ctx), _ = calls[0]
    read = set()

    def f(pt):
        read.add(_bits(pt))
        return 1.0

    t = rep.records[0].point
    for i in range(1, 4):
        oracle.residual_eqn1(f, p, i, t, ctx)
        for j in range(i + 1, 4):
            oracle.residual_eqn2(f, p, i, j, t, ctx)
    points = [_bits(pt) for pt in points]
    assert len(points) == len(set(points)) == len(read) == 15
    assert set(points) == read


def test_point_cache_keeps_signed_zeros_apart():
    seen = []
    f = cli._point_cache(lambda t: seen.append(t) or len(seen))
    assert [f((0j, 0.5)), f((0j, 0.5)), f((complex(-0.0, 0.0), 0.5)), f((0j, 0.5))] == [1, 1, 2, 1]


@pytest.mark.parametrize(
    "suite, name",
    [
        ("connection", "build_solution_vector"),
        ("theorem1", "compose_connection"),
        ("system", "eval_FNM"),
    ],
)
def test_failed_build_raises_again_for_each_record(monkeypatch, suite, name):
    def fail(*args, **kw):
        raise ConvergenceError("stub did not settle")

    calls = _calls(monkeypatch, name, fail)
    rep = run_suite(RunConfig(suites=(suite,), samples=1))
    # a system sample first asks for every point in one call; after that
    # fails, each record asks again for the points it reads
    batched = suite == "system"
    assert len(rep.records) + batched == len(calls) and len(rep.records) >= 2
    assert {r.error for r in rep.records} == {"ConvergenceError: stub did not settle"}


@pytest.mark.parametrize("N, M", [(6, 2), (12, 1), (1, 12)])
def test_reference_routes_finish_at_wide_shapes(N, M):
    # the enumerated reference of series and duality, and the nested
    # q-integral of jackson, each return and certify at the widest shapes
    suites = ("series", "duality", "jackson")
    rep = run_suite(RunConfig(N=N, M=M, suites=suites, samples=1))
    assert {r.suite for r in rep.records} == set(suites)
    failing = [(r.suite, r.residual, r.error) for r in rep.records if not r.passed]
    assert not failing


@pytest.mark.parametrize("N, M", [(3, 1), (3, 2), (5, 1), (4, 2)])
def test_duality_settles_with_upper_parameters_near_the_unit_circle(N, M):
    # at q = 0.5+0.2j the swapped side runs at t = a with |a_j| up to 0.96
    # and needs more than 200 shells whatever the number of axes
    rep = run_suite(RunConfig(N=N, M=M, q=0.5 + 0.2j, suites=("duality",), samples=1))
    assert [(r.passed, r.error) for r in rep.records] == [(True, None)]


@pytest.mark.parametrize("N, M", [(2, 3), (3, 3), (2, 4), (4, 3)])
def test_independence_certificate_refuses_the_forged_twin(N, M):
    # one rcond floor: every true Casorati matrix clears it and every forged
    # twin with a dependent last column stays at or below it
    rep = run_suite(RunConfig(N=N, M=M, suites=("independence",)))
    values = {"scaled determinant": [], "forged dependence": []}
    for r in rep.records:
        assert r.error is None
        values[r.check].append(r.residual)
    assert len(values["scaled determinant"]) == len(values["forged dependence"]) == 8
    assert min(values["scaled determinant"]) > oracle.RCOND_FLOOR
    assert max(values["forged dependence"]) <= oracle.RCOND_FLOOR
    assert rep.passed
    # the summary keeps the certificate, where bigger is better, apart from
    # the residuals, where smaller is better
    summary = rep.summary["independence"]
    assert summary["min_certificate"] == min(values["scaled determinant"])
    assert summary["max_residual"] == max(values["forged dependence"])


def test_report_round_trip_and_timing():
    rep = run_suite(small_cfg())
    d = report_to_dict(rep)
    assert all(r["timing"] == 0.0 for r in d["records"])
    d_t = report_to_dict(rep, with_timing=True)
    assert any(r["timing"] > 0.0 for r in d_t["records"])

    back = report_from_dict(d)
    assert report_to_dict(back) == d


def test_emit_report_formats(tmp_path):
    rep = run_suite(small_cfg())
    text = emit_report(rep, format="json")
    assert text == json.dumps(report_to_dict(rep), indent=2, sort_keys=True)

    path = tmp_path / "rep.json"
    emit_report(rep, format="json", path=str(path))
    assert path.read_text() == text + "\n"

    table = emit_report(rep, format="table")
    lines = table.splitlines()
    n_rec = len(rep.records)
    n_suites = len(rep.summary)
    assert len(lines) == 2 + n_rec + 1 + n_suites + 1
    assert lines[-1].startswith("overall:")

    with pytest.raises(ConfigError):
        emit_report(rep, format="yaml")


def test_main_run_writes_deterministic_report(tmp_path, capsys):
    out = tmp_path / "rep.json"
    argv = [
        "run", "--suite", "duality", "--samples", "5", "--seed", "7",
        "--out", str(out), "--format", "json",
    ]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    raw = out.read_text()
    assert stdout == raw
    rep = json.loads(raw)
    assert rep["summary"]["duality"]["checks"] == 5
    assert rep["summary"]["duality"]["pass"] is True
    assert rep["summary"]["duality"]["max_residual"] < 1e-9

    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_text() == raw


def test_main_run_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"suites": ["duality"], "samples": 2, "seed": 3}))
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()

    cfg_path.write_text(json.dumps({"sample": 2}))
    assert main(["run", str(cfg_path)]) == 2


def test_module_run_smoke():
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["run", "--suite", "duality", "--samples", "1", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-m", "qconnect.cli", *argv], capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rep = report_from_dict(json.loads(proc.stdout))
    assert rep.config["suites"] == ["duality"] and rep.config["samples"] == 1
    assert [r.suite for r in rep.records] == ["duality"] and rep.passed


def test_main_exit_codes(tmp_path, capsys):
    assert main(["run", "--suite", "duality", "--samples", "2", "--seed", "7",
                 "--tol", "cmp=1e-30"]) == 1
    assert main(["run", "--suite", "bogus"]) == 2
    assert main(["run", "--suite", "duality", "--samples", "2",
                 "--tol", "bogus=1e-9"]) == 2
    assert main(["run", "--suite", "duality", "--samples", "2",
                 "--out", "/nonexistent/dir/x.json"]) == 3
    capsys.readouterr()
    assert main(["run", "--q", "0.7", "--suite", "connection", "--samples", "1"]) == 1
    assert "SamplingError: " in capsys.readouterr().out


def test_run_is_the_only_subcommand(capsys):
    # the one-off values are library calls: eval_FNM*, eval_nphi, char_exponents
    for argv in (["exponents", "--N", "1", "--M", "2", "--L", "1"], ["eval", "{}"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config_text",
    [
        (["run", "--q", "abc"], None),
        (["run"], '{"N": "x"}'),
        (["run"], '{"N": 2,'),
        (["run", "--tol", "tail=5"], None),
        (["run", "--tol", "cmp=1e-9"], '{"tolerances": [1]}'),
        (["run"], '{"tolerances": {"bogus": 1}}'),
        (["run"], '{"tolerances": []}'),
        (["run"], '{"tolerances": 0}'),
        (["run"], '{"tolerances": false}'),
        (["run", "--seed", "-1"], None),
        (["run"], '{"seed": -5}'),
        (["run", "--tol", "cmp=-1"], None),
        (["run", "--tol", "cmp=0"], None),
        (["run", "--tol", "cmp=nan"], None),
        (["run", "--tol", "cmp=inf"], None),
        (["run", "--tol", "cmp=1"], None),
        (["run"], '{"output": "r\u00e9sum\u00e9.json"}'.encode("latin-1")),
    ],
    ids=["run-q", "config-int", "config-json", "run-tail-tol",
         "tol-over-non-object", "config-tolerance-name", "tolerances-empty-list",
         "tolerances-zero", "tolerances-false", "run-seed-negative", "config-seed-negative",
         "tol-cmp-negative", "tol-cmp-zero", "tol-cmp-nan", "tol-cmp-inf", "tol-cmp-one",
         "config-not-utf8"],
)
def test_malformed_input_exits_2(argv, config_text, tmp_path, capsys):
    if config_text is not None:
        path = tmp_path / "cfg.json"
        # bytes are written as they are: the config-not-utf8 file is Latin-1
        write = path.write_bytes if isinstance(config_text, bytes) else path.write_text
        write(config_text)
        argv = argv + [str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_run_config_refuses_a_bool_base():
    with pytest.raises(ConfigError, match="^not a complex number: True$"):
        RunConfig(q=True)


@pytest.mark.parametrize("flags", [[], ["--q", "0.3"]], ids=["file", "file-and-flags"])
def test_a_config_that_is_not_an_object_exits_2(flags, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    assert main(["run", str(path), *flags]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"


def test_a_tail_tolerance_below_the_product_truncation_exits_2(capsys):
    assert main(["run", "--tol", "tail=1e-300"]) == 2
    assert capsys.readouterr().err == (
        "config error: tolerances: tail_tol must exceed |q|^prod_terms = 5.6e-18\n")


def test_table_gives_the_smallest_certificate_of_the_independence_suite():
    rep = run_suite(RunConfig(N=1, M=1, samples=2, suites=("independence",)))
    cert = rep.summary["independence"]["min_certificate"]
    lines = [line for line in emit_report(rep, format="table").splitlines()
             if "min certificate" in line]
    assert len(lines) == 1 and lines[0].startswith("independence")
    assert f"min certificate {cert:.3e}" in lines[0]


def test_a_failing_certificate_records_no_forged_twin(monkeypatch):
    def fail(*args, **kw):
        raise ConvergenceError("planted")

    monkeypatch.setattr(cli, "casorati_independence", fail)
    records = run_suite(RunConfig(N=1, M=1, samples=1, suites=("independence",))).records
    assert [(r.check, r.passed, r.error) for r in records] == [
        ("scaled determinant", False, "ConvergenceError: planted"),
    ]
