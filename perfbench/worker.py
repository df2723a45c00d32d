"""One workload in its own process: set-up, timed passes, gates, report.

Started by run.py with `fpt` importable; prints one JSON report line.
`--t0` is the starter's CLOCK_MONOTONIC reading just before it spawned
this process, so set-up time counts interpreter start and `import fpt`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings

import numpy as np

from tracing import NullRecorder, Tracer, summarize
from workloads import WORKLOADS, pass_order

ROOT = pathlib.Path(__file__).resolve().parent.parent

# per-layer metrics: span name -> work counts reported for it
LAYERS = {
    "forcefield.load_field": (),
    "oupcf.rightmost_zero": (),
    "decay.estimate_lambda": (),
    "decay.lambda_exact": (),
    "decay.lambda_asymptotic": (),
    "hseries.build_table": ("cells",),
    "cumulants.cumulants": (),
    "density.theta_fisher": (),
    "density.build_model": (),
    "density.eval_density": ("points",),
    "oracle.solve_pde": ("cell_steps",),
    "oracle.simulate": ("path_steps",),
    "oracle.solve_tree": ("node_steps",),
    "oracle.l1_distance": (),
}
# time per unit of work: metric suffix, count, scale to the unit
PER_UNIT = {
    "oupcf.rightmost_zero": ("ms_per_call", "calls", 1e3, "ms"),
    "decay.estimate_lambda": ("ms_per_call", "calls", 1e3, "ms"),
    "density.build_model": ("ms_per_call", "calls", 1e3, "ms"),
    "hseries.build_table": ("us_per_cell", "cells", 1e6, "us"),
    "oracle.solve_pde": ("ns_per_cell_step", "cell_steps", 1e9, "ns"),
    "oracle.simulate": ("ns_per_path_step", "path_steps", 1e9, "ns"),
}
MODULES = ("forcefield", "oupcf", "hseries", "decay", "cumulants", "density",
           "oracle")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def summarize_times(seconds):
    """Median and p90 in ms, with the sample count."""
    ms = 1e3 * np.asarray(seconds, float)
    return {"p50_ms": float(np.percentile(ms, 50)),
            "p90_ms": float(np.percentile(ms, 90)), "samples": len(ms)}


def run_pass(tasks, rec, index):
    """Closed loop, one caller: each task starts when the previous ends."""
    outs, times, errors = {}, {}, {}
    start = time.perf_counter()
    for task in tasks:
        t = time.perf_counter()
        try:
            with rec.task("task." + task.kind, task.tid, index):
                outs[task.tid] = task.fn(rec, outs)
        except Exception:                 # counted as a failed task
            errors[task.tid] = traceback.format_exc(limit=3)
        times[task.tid] = time.perf_counter() - t
    wall = time.perf_counter() - start
    work = {}
    for out in outs.values():
        for key, val in out.get("work", {}).items():
            work[key] = work.get(key, 0) + val
    return {"index": index, "traced": rec.traced, "warmup": False, "wall_s": wall,
            "outs": outs, "times": times, "errors": errors, "work": work,
            "kinds": {t.tid: t.kind for t in tasks}}


class GateLog:
    def __init__(self, names):
        self.counts = {n: {"evaluated": 0, "failed": 0} for n in names}
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def record(self, label, results, error=None):
        """One attempted unit (a task run or a one-time check)."""
        self.attempted += 1
        ok = error is None
        for gate, passed, detail in results:
            self.counts[gate]["evaluated"] += 1
            if not passed:
                self.counts[gate]["failed"] += 1
                self.failures.append(f"{label} [{gate}] {detail}")
                ok = False
        if error is not None:
            self.failures.append(f"{label} raised: {error}")
        if not ok:
            self.failed += 1


def gate_pass(tasks, p, log):
    for task in tasks:
        if task.tid in p["errors"]:
            log.record(task.tid, [], p["errors"][task.tid])
            continue
        try:
            results = task.gate(p["outs"][task.tid], p["outs"])
        except Exception:
            log.record(task.tid, [], "gate: " + traceback.format_exc(limit=3))
        else:
            log.record(task.tid, results)


def per_layer(tracer, traced, untraced, setup_spans):
    """Per-layer metrics from the spans; median over traced passes."""
    per_pass = []
    for p in traced:
        agg = summarize(tracer.spans, p["index"])
        row = {}
        for layer, counts in LAYERS.items():
            a = agg.get(layer, {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0})
            if layer == "forcefield.load_field":
                a = setup_spans.get(layer, a)
            row[f"{layer}.calls"] = (a["calls"], "count")
            row[f"{layer}.busy_s"] = (a["busy_s"], "s")
            row[f"{layer}.failed"] = (a["failed"], "count")
            for c in counts:
                row[f"{layer}.{c}"] = (p["work"].get(f"{layer}.{c}", 0), "count")
            if layer in PER_UNIT:
                suffix, base, scale, unit = PER_UNIT[layer]
                n = a["calls"] if base == "calls" else p["work"].get(f"{layer}.{base}", 0)
                row[f"{layer}.{suffix}"] = (scale * a["busy_s"] / n if n else 0.0, unit)
        busy = {m: sum(a["busy_s"] for name, a in agg.items()
                       if name.split(".")[0] == m) for m in MODULES}
        for m in MODULES:
            row[f"share.{m}"] = (busy[m] / p["wall_s"], "ratio")
        row["trace.busy_frac"] = (sum(busy.values()) / p["wall_s"], "ratio")
        per_pass.append(row)
    metrics = {name: {"value": statistics.median(r[name][0] for r in per_pass),
                      "unit": unit} for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0,
        "unit": "ratio"}
    return metrics


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy
    import sympy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "sympy": sympy.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "git_commit": git_commit(), "src_sha256": src_digest(), "seed": seed}


def src_digest():
    """Digest of src/fpt, naming the code measured where .git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fpt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    warnings.simplefilter("ignore")

    import fpt
    tracer = Tracer(args.workload) if args.trace else None
    null = NullRecorder()
    wl = WORKLOADS[args.workload](fpt, tracer or null, args.seed, args.smoke)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tasks = wl.tasks
    log = GateLog(wl.gates)
    passes = []
    start = time.perf_counter()
    while True:
        # untimed warm-up passes first; then a traced run alternates
        # untraced and traced passes, so the overhead is measured against
        # the same inputs in the same process
        n = len(passes)
        warm = n < wl.warmup_passes
        traced = bool(args.trace) and not warm and (n - wl.warmup_passes) % 2 == 1
        order = pass_order(tasks, args.seed, n)
        p = run_pass(order, tracer if traced else null, n)
        p["warmup"] = warm
        passes.append(p)
        gate_pass(order, p, log)
        timed = [q for q in passes if not q["warmup"]]
        if not timed:
            continue
        done = time.perf_counter() - start
        typical = statistics.median(q["wall_s"] for q in timed)
        if done + typical > args.seconds and (not args.trace or len(timed) >= 2):
            break
    for gate, ok, detail in wl.final_checks():
        log.record(f"check/{gate}", [(gate, ok, detail)])

    untraced = [p for p in passes if not (p["traced"] or p["warmup"])]
    times = [t for p in untraced for t in p["times"].values()]
    tasks_per_pass = len(tasks)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "setup_s": setup_s,
        "passes": len(passes), "warmup_passes": wl.warmup_passes,
        "tasks_per_pass": tasks_per_pass,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "task_ms": summarize_times(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": log.attempted, "failed": log.failed,
        "failed_frac": log.failed / log.attempted,
        "gates": log.counts, "failures": log.failures[:20],
        "workload_metrics": wl.end_to_end(untraced),
        "work_per_pass": passes[0]["work"],
        "sizes": wl.sizes, "env": environment(args.seed)}
    if tracer is not None:
        traced = [p for p in passes if p["traced"]]
        report["per_layer"] = per_layer(tracer, traced, untraced,
                                        summarize(tracer.spans, None))
        # busy and self time of every span name (task.* self time is the
        # benchmark's own code) in the last traced pass
        report["spans_last_pass"] = summarize(tracer.spans, traced[-1]["index"])
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(report, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
