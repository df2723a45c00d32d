#!/usr/bin/env python3
"""fpt benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout; `fpt` is imported from its `src/`.  The
workload runs in its own process (worker.py).  With --trace 0 the last
line holds the end-to-end metrics, measured untraced, with set-up time as
the median over this process and SETUP_PROBES set-up-only processes.  With
--trace 1 it holds the per-layer metrics from spans around every `fpt`
call.  The line before the last is the full report: every metric the
workload defines, gate counts, sizes and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("analytic", "validate", "mc", "custom")
SETUP_PROBES = 2
DEADLINE_S = 170.0


def run_worker(args, extra, started):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic())] + (["--smoke"] if args.smoke else []) + extra
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, required=True,
                    help="measuring time; passes start while they fit")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest inputs that still evaluate every gate")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "fpt" / "__init__.py").is_file():
        print(f"benchmark: no fpt sources under {SRC}", file=sys.stderr)
        return 2

    try:
        setups = [] if args.trace else [
            run_worker(args, ["--setup-only"], started)["setup_s"]
            for _ in range(SETUP_PROBES)]
        report = run_worker(args, [], started)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    report["setup_samples_s"] = setups
    report["setup_s"] = statistics.median(setups)

    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": report["setup_s"], "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "task_p50_ms": {"value": report["task_ms"]["p50_ms"], "unit": "ms"},
            "task_p90_ms": {"value": report["task_ms"]["p90_ms"], "unit": "ms"}}
    evaluated = all(g["evaluated"] > 0 for g in report["gates"].values())
    result = {"correct": report["failed"] == 0 and evaluated,
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": metrics}

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"report": report}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
