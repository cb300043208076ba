"""One benchmark measurement in a fresh interpreter; started by run.py.

    worker.py --workload NAME --seed N --seconds S --trace 0|1
    worker.py --setup --workload NAME

Untraced (--trace 0): one warm-up call on input 0, then inputs 0, 1, 2, ...
are run and timed, each as one ``run_suite`` + ``emit_report`` call, until
the time is spent. The reference kernel (reference.py) is timed before the
first call and after every call; each call's wall time is also reported at
the reference speed, scaled by the kernel's time around it. The warm-up
report must match the timed report of input 0 byte for byte.

Setup (--setup): time the set-up, then the reference kernel, and print both
the wall time and the time at the reference speed.

Traced (--trace 1): the workload's first ``trace_inputs`` inputs run
untraced, then twice under the tracer. All three reports of an input must be
byte-identical, and both traced passes must give identical counts.

Prints one JSON object on the last line of stdout: ``correct``,
``attempted``, ``failed``, ``metrics`` and human-readable ``lines``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, input_seed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Buckets for failing check records: the exception type named in the
# record's error, or "tolerance" for a residual that missed its bound.
FAIL_REASONS = (
    "ConvergenceError",
    "DomainError",
    "PoleError",
    "ResonanceError",
    "WordError",
    "SamplingError",
    "ArithmeticError",
    "other",
    "tolerance",
)
_ARITHMETIC = {"ArithmeticError", "ZeroDivisionError", "OverflowError", "FloatingPointError"}


def setup_seconds(workload: str) -> float:
    """Import qconnect and build the workload's RunConfig and QContext."""
    start = time.perf_counter()
    from qconnect.cli import RunConfig

    cfg = RunConfig(**WORKLOADS[workload]["config"])
    cfg.validate()
    cfg.context()
    return time.perf_counter() - start


def fail_reason(error: str | None) -> str:
    if error is None:
        return "tolerance"
    name = error.split(":", 1)[0]
    if name in _ARITHMETIC:
        return "ArithmeticError"
    return name if name in FAIL_REASONS else "other"


def report_is_consistent(cli, cfg, raw: dict, text: str) -> bool:
    """The report echoes its config, re-serializes byte-identically, and its
    summary agrees with its records."""
    if raw["config"] != cfg.as_dict() or not raw["records"]:
        return False
    if cli.emit_report(cli.report_from_dict(raw)) != text:
        return False
    checks, errors = Counter(), Counter()
    for r in raw["records"]:
        checks[r["suite"]] += 1
        if r["error"] is not None:
            errors[r["suite"]] += 1
            if r["pass"]:
                return False
    summary = raw["summary"]
    return set(summary) == set(checks) and all(
        summary[s]["checks"] == checks[s] and summary[s]["errors"] == errors[s]
        for s in checks
    )


def run_once(cli, cfg) -> dict:
    """Time one run_suite + emit_report call and describe its report. A
    raising run_suite is a failed operation, labelled with its type."""
    start = time.perf_counter()
    try:
        text = cli.emit_report(cli.run_suite(cfg))
    except Exception as exc:  # noqa: BLE001  the benchmark must keep running
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        name = type(exc).__name__
        return {"seed": cfg.seed, "seconds": seconds, "digest": f"raised:{name}",
                "error": name, "records": 0, "fails": {}, "valid": True}
    seconds = time.perf_counter() - start
    raw = json.loads(text)
    records = raw["records"]
    fails = Counter(fail_reason(r["error"]) for r in records if not r["pass"])
    return {
        "seed": cfg.seed,
        "seconds": seconds,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "error": None,
        "records": len(records),
        "fails": dict(fails),
        "valid": report_is_consistent(cli, cfg, raw, text),
    }


def check_outcomes(outs: list[dict]) -> dict:
    """Check records and failed operations over a list of outcomes."""
    raised = Counter(o["error"] for o in outs if o["error"] is not None)
    records = sum(o["records"] for o in outs)
    fails: Counter = Counter()
    for o in outs:
        fails.update(o["fails"])
    attempted = records + sum(raised.values())
    failing = sum(fails.values()) + sum(raised.values())
    return {"raised": raised, "records": records, "fails": fails,
            "attempted": attempted, "failing": failing}


def fail_lines(tally: dict) -> list[str]:
    base = tally["attempted"]
    lines = [f"check_fail_ratio {tally['failing'] / base:.6f} ({tally['failing']}/{base})"]
    for reason in FAIL_REASONS:
        if tally["fails"][reason]:
            lines.append(f"  {reason:<17} {tally['fails'][reason] / base:.6f} "
                         f"({tally['fails'][reason]}/{base})")
    for name, n in sorted(tally["raised"].items()):
        lines.append(f"  run_suite raised {name}: {n} of the calls")
    return lines


def digest_lines(outs: list[dict], label: str) -> list[str]:
    return [f"{label} input seed {o['seed']}: {o['seconds']:.4f} s  {o['digest']}" for o in outs]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_untraced(cli, cfg_at, seconds: float) -> dict:
    import reference

    start = time.perf_counter()
    warm = run_once(cli, cfg_at(0))
    ref_before = reference.seconds()
    refs = [ref_before]
    outs: list[dict] = []
    norms: list[float] = []
    while True:
        out = run_once(cli, cfg_at(len(outs)))
        ref_after = reference.seconds()
        refs.append(ref_after)
        # the call's wall time at the reference host's speed: the kernel
        # timed right before and after it stands in for the speed during it
        norms.append(out["seconds"] * reference.NOMINAL_S / ((ref_before + ref_after) / 2))
        ref_before = ref_after
        outs.append(out)
        typical = statistics.median(o["seconds"] + ref_after for o in outs)
        if time.perf_counter() - start + typical > seconds:
            break
    ok = [i for i, o in enumerate(outs) if o["error"] is None] or range(len(outs))
    run_s = statistics.median(outs[i]["seconds"] for i in ok)
    run_norm_s = statistics.median(norms[i] for i in ok)
    checks_per_s = statistics.median(outs[i]["records"] / outs[i]["seconds"] for i in ok)
    checks_per_norm_s = statistics.median(outs[i]["records"] / norms[i] for i in ok)
    tally = check_outcomes(outs)
    passing = tally["attempted"] - tally["failing"]
    pass_ratio = passing / tally["attempted"]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = warm["digest"] == outs[0]["digest"] and all(o["valid"] for o in outs)
    n = len(ok)
    lines = digest_lines([warm], "warm-up")
    lines += [f"timed input seed {o['seed']}: {o['seconds']:.4f} s wall, {norm:.4f} s "
              f"at reference speed  {o['digest']}" for o, norm in zip(outs, norms)]
    lines += [
        f"run_norm_s   {run_norm_s:.4f} s    median of {n} calls, at reference speed",
        f"checks_per_norm_s {checks_per_norm_s:.2f} 1/s  median of {n} calls, at reference speed",
        f"run_s        {run_s:.4f} s    median of {n} calls, wall (not gated)",
        f"checks_per_s {checks_per_s:.2f} 1/s  median of {n} calls, wall (not gated)",
        f"check_pass_ratio {pass_ratio:.6f} ({passing}/{tally['attempted']})",
        f"peak_rss_mb  {peak_mib:.1f} MiB  one process, {len(outs) + 1} calls",
    ]
    lines += fail_lines(tally)
    lines.append("reference kernel s, around the timed calls: "
                 + " ".join(f"{r:.4f}" for r in refs))
    return {
        "correct": correct,
        "attempted": len(outs),
        "failed": sum(tally["raised"].values()),
        "metrics": {
            "run_norm_s": metric(run_norm_s, "s"),
            "checks_per_norm_s": metric(checks_per_norm_s, "1/s"),
            "check_pass_ratio": metric(pass_ratio, "ratio"),
            "peak_rss_mb": metric(peak_mib, "MiB"),
        },
        "lines": lines,
    }


def measure_traced(cli, cfg_at, workload: str, seed: int) -> dict:
    from tracer import Tracer, layer_metrics

    k = WORKLOADS[workload]["trace_inputs"]
    warm = run_once(cli, cfg_at(0))
    untraced = [run_once(cli, cfg_at(i)) for i in range(k)]
    passes = []
    for _ in range(2):
        with Tracer() as tracer:
            passes.append((tracer, [run_once(cli, cfg_at(i)) for i in range(k)]))
    (tr, traced), (tr2, traced2) = passes
    counts, bases, secs = layer_metrics(tr)
    counts2 = layer_metrics(tr2)[0]

    same_reports = warm["digest"] == untraced[0]["digest"] and all(
        a["digest"] == b["digest"] == c["digest"]
        for a, b, c in zip(untraced, traced, traced2)
    )
    same_counts = counts == counts2
    everything = untraced + traced + traced2
    correct = same_reports and same_counts and all(o["valid"] for o in everything)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    tr.write_spans(spans_path)

    tally = check_outcomes(traced)
    overhead = (statistics.median(o["seconds"] for o in traced)
                - statistics.median(o["seconds"] for o in untraced))
    metrics = {name: metric(v, "ratio" if name.endswith("_ratio") else "count")
               for name, v in counts.items()}
    metrics.update({name: metric(v, "s") for name, v in secs.items()})
    metrics["cli.checks"] = metric(tally["records"], "count")
    metrics["cli.check_errors"] = metric(
        sum(n for r, n in tally["fails"].items() if r != "tolerance"), "count")
    metrics["cli.check_fail_ratio"] = metric(tally["failing"] / tally["attempted"], "ratio")
    for reason in FAIL_REASONS:
        metrics[f"cli.check_fails.{reason}"] = metric(tally["fails"][reason], "count")
    metrics["cli.run_errors"] = metric(sum(tally["raised"].values()), "count")
    metrics["trace.overhead_s"] = metric(overhead, "s")

    lines = digest_lines([warm], "warm-up") + digest_lines(untraced, "untraced")
    lines += digest_lines(traced, "traced")
    lines += digest_lines(traced2, "traced again")
    lines.append(f"traced counts identical across both traced passes: {same_counts}")
    lines.append(f"layer metrics over {k} inputs; spans written to "
                 f"{spans_path.relative_to(HERE.parent)}")
    for name, v in counts.items():
        base = f" ({bases[name][0]}/{bases[name][1]})" if name in bases else ""
        lines.append(f"{name:<36} {v}{base}")
    for name, v in secs.items():
        lines.append(f"{name:<36} {v:.4f} s")
    lines += fail_lines(tally)
    lines.append(f"{'trace.overhead_s':<36} {overhead:.4f} s  "
                 f"(median traced minus median untraced call, {k} inputs)")
    return {
        "correct": correct,
        "attempted": len(everything),
        "failed": sum(1 for o in everything if o["error"] is not None),
        "metrics": metrics,
        "lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.setup:
        setup_s = setup_seconds(args.workload)
        import reference  # after the timing, which already counts loading numpy

        ref = reference.seconds()
        print(json.dumps({"wall_s": setup_s, "norm_s": setup_s * reference.NOMINAL_S / ref}))
        return 0
    from qconnect import cli

    if Path(cli.__file__).resolve().parent != SRC / "qconnect":
        print(f"qconnect was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    config = WORKLOADS[args.workload]["config"]

    def cfg_at(i: int):
        return cli.RunConfig(seed=input_seed(args.seed, i), **config)

    if args.trace:
        result = measure_traced(cli, cfg_at, args.workload, args.seed)
    else:
        result = measure_untraced(cli, cfg_at, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
