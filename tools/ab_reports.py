"""Time two checkouts on the same run inputs in one process, and check that
their reports are byte-identical.

Loads A/src/qconnect and B/src/qconnect under two package names, then runs
the inputs of a perfbench workload, RunConfig(seed=seed*1000 + i) for
i = 0..inputs-1, through each as emit_report(run_suite(cfg)). The side that
runs first alternates from input to input, and each side makes one untimed
run of input 0 first. One line per input gives both wall times and the ratio
A/B (above 1 when B is faster), and beside them both process CPU times and
their ratio; the summary gives the median wall ratio, its quartiles and the
ratio of the summed times, then the same for CPU time. For each input whose reports
differ, one more line names the suites whose records differ, with each side's
count of passing records there, and a drift report follows (see drift): every
pass/fail flip, the range of old/new residual ratios of each (suite, check)
whose residuals moved, and the records left unpaired on each side. Exits 1 if
any report differs:

    python tools/ab_reports.py PARENT_CHECKOUT . --workload families-3x3 --inputs 48

It refuses fewer than 16 inputs. On a shared two-core machine a median of 8
cannot resolve a 5% change: two identical copies of one checkout read median
A/B 0.983 (quartiles 0.873, 1.009) at 8 inputs of all-2x3, seed 3. Wall
time there is also swayed by other tenants: one checkout against itself at
32 inputs of all-2x3 read median wall A/B 0.985, quartiles 0.830-1.071 and
total 0.911, so judge a change of a few percent by CPU time.
"""

import argparse
import importlib
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, input_seed  # noqa: E402


def load_cli(root: Path, name: str):
    """The cli module of root/src/qconnect, imported as the package `name`."""
    pkg = root.resolve() / "src" / "qconnect"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def report(cli, config: dict, seed: int) -> tuple[float, float, str]:
    """(wall seconds, process CPU seconds, report text) of one run."""
    start, cpu = time.perf_counter(), time.process_time()
    text = cli.emit_report(cli.run_suite(cli.RunConfig(**config, seed=seed)))
    return time.perf_counter() - start, time.process_time() - cpu, text


def summary(name: str, ratios, totals) -> str:
    """Median A/B of one kind of time, its quartiles and the total A/B."""
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    return (f"{name} median A/B {med:.3f} (quartiles {q1:.3f}, {q3:.3f}); "
            f"total A/B {totals[0] / totals[1]:.3f}")


def differing_suites(text_a: str, text_b: str) -> list[str]:
    """"suite (passes a -> b)" for each suite whose records differ between
    two reports."""
    records = [json.loads(text)["records"] for text in (text_a, text_b)]
    out = []
    for suite in sorted({r["suite"] for recs in records for r in recs}):
        a, b = ([r for r in recs if r["suite"] == suite] for recs in records)
        if a != b:
            out.append(f"{suite} (passes {sum(r['pass'] for r in a)} -> "
                       f"{sum(r['pass'] for r in b)})")
    return out


def _ratio(old: float, new: float) -> float:
    """old / new, 1 when both are equal (0 included), inf for new = 0 alone."""
    return 1.0 if old == new else old / new if new else math.inf


def drift(text_a: str, text_b: str) -> list[str]:
    """Drift report of report B against report A, one line each. Records are
    paired by (suite, check, digest, point), the n-th record of a key in A
    with the n-th in B. Lines: each pair whose pass/fail flips; per (suite,
    check) whose residuals moved, the smallest and largest old/new residual
    ratio over its pairs where both have a residual; then the number of
    records of each side that found no pair."""
    keyed: list[dict] = [{}, {}]
    for text, by in zip((text_a, text_b), keyed):
        for r in json.loads(text)["records"]:
            by.setdefault((r["suite"], r["check"], r["digest"], json.dumps(r["point"])), []).append(r)
    lines, ratios, unpaired, verdict = [], {}, [0, 0], ("fail", "pass")
    for key in sorted(keyed[0].keys() | keyed[1].keys()):
        a, b = (by.get(key, []) for by in keyed)
        unpaired[0] += max(len(a) - len(b), 0)
        unpaired[1] += max(len(b) - len(a), 0)
        for old, new in zip(a, b):
            if old["pass"] != new["pass"]:
                lines.append(f"flip {key[0]} / {key[1]} (digest {key[2]}): "
                             f"{verdict[old['pass']]} -> {verdict[new['pass']]}")
            if old["residual"] is not None and new["residual"] is not None:
                ratios.setdefault(key[:2], []).append(_ratio(old["residual"], new["residual"]))
    for (suite, check), rs in sorted(ratios.items()):
        if min(rs) != 1.0 or max(rs) != 1.0:
            lines.append(f"residual old/new {suite} / {check}: {min(rs):.3g} to {max(rs):.3g} "
                         f"over {len(rs)} pair(s)")
    lines.append(f"unpaired records: {unpaired[0]} in A, {unpaired[1]} in B")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="checkout A (the baseline)")
    ap.add_argument("b", type=Path, help="checkout B (the change)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="families-3x3")
    ap.add_argument("--seed", type=int, default=0, help="input i is RunConfig(seed=seed*1000 + i)")
    ap.add_argument("--inputs", type=int, default=48)
    args = ap.parse_args(argv)
    if args.inputs < 16:
        ap.error("--inputs must be at least 16")
    sides = [load_cli(args.a, "qconnect_a"), load_cli(args.b, "qconnect_b")]
    config = WORKLOADS[args.workload]["config"]
    for cli in sides:
        report(cli, config, input_seed(args.seed, 0))
    print(f"{args.workload}: A = {args.a}, B = {args.b}", flush=True)
    ratios, cpu_ratios, totals, cpu_totals, differ = [], [], [0.0, 0.0], [0.0, 0.0], 0
    for i in range(args.inputs):
        seed = input_seed(args.seed, i)
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs = {side: report(sides[side], config, seed) for side in order}
        (ta, ca, text_a), (tb, cb, text_b) = runs[0], runs[1]
        same = text_a == text_b
        differ += not same
        totals[0] += ta
        totals[1] += tb
        cpu_totals[0] += ca
        cpu_totals[1] += cb
        ratios.append(ta / tb)
        cpu_ratios.append(ca / cb)
        first = "AB"[order[0]]
        status = "same" if same else "REPORTS DIFFER"
        print(f"seed {seed:>6}  {first} first  A {ta:.3f} s  B {tb:.3f} s  "
              f"A/B {ta / tb:.3f}  cpu A {ca:.3f} s  B {cb:.3f} s  A/B {ca / cb:.3f}  {status}",
              flush=True)
        if not same:
            suites = differing_suites(text_a, text_b)
            print(f"  records differ in: {', '.join(suites) or 'no suite'}", flush=True)
            for line in drift(text_a, text_b):
                print(f"  {line}", flush=True)
    print(f"{len(ratios)} inputs: {summary('wall', ratios, totals)}; {differ} report(s) differ")
    print(f"{len(ratios)} inputs: {summary('cpu', cpu_ratios, cpu_totals)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
