#!/usr/bin/env python3
"""Self-test of the benchmark at smoke size (about two minutes).

    python3 perfbench/selftest.py

For every workload, runs run.py once untraced and once traced at smoke
size and asserts that the result line carries exactly the metric names
and units of BENCHMARK.json, that every value is a finite number, that
every gate of the workload was evaluated and passed, and that the report
line carries the workload's own end-to-end metrics.  It also checks that
the mc reference (trinomial lattice) agrees with the Crank-Nicolson CDF
within the share of the KS slack reserved for it, and that the benchmark
exits non-zero, without a result, where there are no `fpt` sources.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "analytic": {"rates_per_s": "1/s", "models_per_s": "1/s",
                 "lambda_rel_err_max": "ratio"},
    "validate": {"cases_per_s": "1/s", "l1_max": "1"},
    "mc": {"path_steps_per_s": "M/s"},
    "custom": {"rates_per_s": "1/s", "models_per_s": "1/s"},
}
TREE_VS_PDE_MAX = 1e-3     # share of MC_KS_SLACK reserved for the reference


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=300)


def check_run(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, (workload, trace, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    for name, val in result["metrics"].items():
        v = val["value"]
        assert isinstance(v, (int, float)) and math.isfinite(v), (name, v)
        if not trace:
            assert v > 0, (name, v)
    for gate, counts in report["gates"].items():
        assert counts["evaluated"] > 0 and counts["failed"] == 0, (workload, gate, counts)
    got = {k: v["unit"] for k, v in report["workload_metrics"].items()}
    assert got == WORKLOAD_METRICS[workload], (workload, got)
    print(f"{workload:9s} trace={trace}: {len(result['metrics'])} metrics, "
          f"{len(report['gates'])} gates, {result['attempted']} attempted")


def check_tree_reference():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import numpy as np, warnings, fpt\n"
        "from workloads import MonteCarlo, PARAMS\n"
        "warnings.simplefilter('ignore')\n"
        "for m, yp, y0 in MonteCarlo.CASES:\n"
        "    ff, _ = fpt.builtin(m, **PARAMS[m])\n"
        "    tr = fpt.solve_tree(ff, yp, y0, dtau=MonteCarlo.DT, tau_max=MonteCarlo.TAU_MAX)\n"
        "    g = fpt.solve_pde(ff, yp, dy=1/200, dtau=2e-3, tau_max=MonteCarlo.TAU_MAX, probe_y=(y0,))\n"
        "    print(np.max(np.abs(np.interp(tr.tau_nodes, g.probe_tau, g.probe_F[0]) - tr.F)))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    sups = [float(v) for v in out.stdout.split()]
    assert all(s <= TREE_VS_PDE_MAX for s in sups), sups
    print(f"mc reference: tree vs PDE sup|dF| = {', '.join(f'{s:.2e}' for s in sups)}")


def check_bare_directory():
    """BENCHMARK.json and perfbench/ alone: non-zero exit, no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run("analytic", 0, cwd=bare)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc
    finally:
        shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, no result")


def main():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOAD_METRICS)
    for workload in WORKLOAD_METRICS:
        for trace in (0, 1):
            check_run(workload, trace)
    check_tree_reference()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
