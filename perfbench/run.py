"""qconnect benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qconnect is imported from its ``src/``.
The measurement runs in a fresh worker process with BLAS/OpenMP threads
capped at 1 (no matrix here is larger than 13x13); ``setup_s`` is then
measured in further fresh interpreters, one at a time. Timings are reported
at the reference speed (see reference.py), with wall times printed beside
them. Human-readable lines come first; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
SETUP_PROCESSES = 11
# every process this launcher starts ends before this many seconds
DEADLINE_S = 170.0


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py with args; return the JSON object on its last stdout
    line. Its stderr is passed through."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    if not (SRC / "qconnect" / "__init__.py").is_file():
        print(f"error: no qconnect sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    # setup_s is measured with a warm bytecode cache, as an installed
    # package runs; the worker writes the cache on its first import
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    common = ["--workload", args.workload]
    try:
        result = child(common + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], env, deadline)
        lines = result.pop("lines")
        if not args.trace:
            setups = [child(common + ["--setup"], env, deadline)
                      for _ in range(SETUP_PROCESSES)]
            setup_s = statistics.median(s["norm_s"] for s in setups)
            wall_s = statistics.median(s["wall_s"] for s in setups)
            result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
            lines.append(f"setup_s      {setup_s:.4f} s    median of {len(setups)} fresh "
                         "interpreters, at reference speed")
            lines.append(f"setup wall   {wall_s:.4f} s    median of {len(setups)} fresh "
                         "interpreters, wall (not gated)")
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in lines:
        print(f"  {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
