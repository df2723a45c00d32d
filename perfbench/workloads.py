"""The four benchmark workloads: inputs from a seed, tasks, output gates.

Each workload is built once per process (its set-up: fields and seeded
inputs), then yields the same list of tasks for every pass.  A task calls
the public `fpt` functions through the recorder, so a traced pass gets one
span per call, and returns its outputs plus the work counts that the
per-layer metrics divide by.  Gates run after a pass, outside its timing.

Seeded draws are stratified (one uniform draw per equal-width bin) so that
a pass costs nearly the same for every seed: the seed changes the inputs,
not the amount of work.
"""

from __future__ import annotations

import csv
import json
import math
import pathlib
import time

import numpy as np
from scipy import stats
from scipy.interpolate import PchipInterpolator

REF_DIR = pathlib.Path(__file__).resolve().parent.parent / "out"

# builtin models with the parameters of the fig1/validate reference runs
PARAMS = {"ou": {}, "dry_friction": {"mu": 1.0},
          "tanh": {"alpha": 2.0, "gamma": 1.0}}

# frozen C06 caps on the formula-vs-PDE L1 (tests/test_acceptance.py)
FROZEN_L1 = {"ou": 0.05, "tanh": 0.10, "df_knee_or_below": 0.32,
             "df_above": 0.10}

# `fpt density` defaults: the density grid a calibrated model is used on
DENSITY_TAU = np.linspace(10.0 / 200, 10.0, 200)

REF_RTOL = 1e-9          # recomputation of a stored reference value
INTERP_RTOL = 0.03       # seeded rows vs PCHIP of the 0.25-step reference
#                          grid; the largest deviation over a 0.025-step
#                          scan is 1.03% (dry friction, at its knee)
CUMULANT_RTOL = 1e-3     # kappa_1 (table quadrature) vs mean_direct
CALIBRATION_TOL = 1e-10  # |normalization - 1| after rho calibration
MEASURE_RTOL = 1e-9      # quadrature measure vs closed form (psi, tests)
MEASURE_ATOL = 1e-8      # theta and rho, quadrature vs closed form (tests)
L1_REF_ATOL = 1e-3       # above the PDE's O(1e-4) discretisation error
MC_ALPHA = 1e-5          # false-alarm rate per statistical gate; 2 cases x
#                          3 gates keep a correct sampler below 1e-4 a run
MC_KS_SLACK = 2e-3       # tree-vs-exact CDF (5e-4) plus Euler bias
MC_MEAN_SLACK_DT = 5.0   # systematic allowance on the mean, in units of dt


class Task:
    """One unit of the closed loop.  `fn(rec, outs)` returns a dict of
    outputs (with an optional "work" dict of counts); `gate(out, outs)`
    returns (gate name, ok, detail) triples.  `needs` names the tasks
    whose outputs `fn` reads; they run before it in every pass."""

    __slots__ = ("kind", "tid", "fn", "gate", "needs")

    def __init__(self, kind, tid, fn, gate, needs=()):
        self.kind, self.tid, self.fn, self.gate = kind, tid, fn, gate
        self.needs = tuple(needs)


def pass_order(tasks, seed, index):
    """The tasks of pass `index` in a seeded random order that keeps every
    task after the tasks it needs.  Each pass gets its own order, so the
    tasks of one kind are spread over the run instead of sitting in one
    stretch of it, and a slow spell of the host does not fall on them
    alone."""
    rng = np.random.default_rng([seed, index])
    done, order, waiting = set(), [], []
    for i in rng.permutation(len(tasks)):
        waiting.append(tasks[i])
        ready = True
        while ready:
            ready = [t for t in waiting if all(n in done for n in t.needs)]
            for t in ready:
                order.append(t)
                done.add(t.tid)
                waiting.remove(t)
    assert not waiting, [t.tid for t in waiting]
    return order


def strata(rng, lo, hi, k):
    """One uniform draw in each of k equal bins of [lo, hi]."""
    return lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k


def ratio(a, b):
    """a / b, or NaN when no task of the kind succeeded."""
    return a / b if b else float("nan")


def close(a, b, rtol=REF_RTOL):
    return abs(a - b) <= rtol * abs(b) + 1e-12


def read_csv(path):
    """Rows of an `fpt` CSV: numbers as floats, empty cells as None."""
    def parse(v):
        if v == "":
            return None
        try:
            return float(v)
        except ValueError:
            return v
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [{k: parse(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def fig1_reference(model):
    return [r for r in read_csv(REF_DIR / f"fig1_{model}.csv")
            if r["kind"] == "sweep"]


def exact_defined(model, y):
    """Where `decay.lambda_exact` has a rate: everywhere but tanh, whose
    only covered boundary is its polynomial zero y_plus = 0."""
    return model != "tanh" or abs(y) <= 1e-12


class Workload:
    """Set-up in __init__ (fields, seeded inputs, `tasks` for one pass)."""

    name = ""
    gates = ()
    tasks = ()
    warmup_passes = 1       # untimed first pass: first calls, lazy set-up

    def final_checks(self):
        """One-time gates after the timed passes: list of (gate, ok, detail)."""
        return []


# ----------------------------------------------------------------------
# analytic: fpt table1, fig1, cumulants, density (no oracle)
# ----------------------------------------------------------------------

class Analytic(Workload):
    """Rates, cumulants and calibrations on the builtin models."""

    name = "analytic"
    gates = ("table1_ref", "fig1_ref", "seeded_interp", "cumulant_mean",
             "calibration", "rho_one_call")

    def __init__(self, fpt, rec, seed, smoke):
        self.fpt = fpt
        rng = np.random.default_rng(seed)
        self.fields = {m: fpt.builtin(m, **p) for m, p in PARAMS.items()}
        self.table1 = read_csv(REF_DIR / "table1.csv")
        self.fig1 = {m: fig1_reference(m) for m in PARAMS}
        self.interp, ranges = {}, {}
        for m, rows in self.fig1.items():
            y = np.array([r["y_plus"] for r in rows])
            self.interp[m] = {
                col: PchipInterpolator(y, [r[col] for r in rows])
                for col in ("lambda_est", "lambda_exact")
                if all(r[col] is not None for r in rows)}
            ranges[m] = (y[0], y[-1])

        n_ou, n_fig, n_cum, n_den, grid_stride = (
            (3, 2, 1, 1, 6) if smoke else (24, 6, 8, 2, 1))
        self.ou_seeded = strata(rng, -3.0, 3.0, n_ou)
        self.fig1_seeded = {m: strata(rng, *ranges[m], n_fig)
                            for m in ("dry_friction", "tanh")}
        self.cumulant_inputs = [
            (m, yp - off, yp) for m in PARAMS
            for yp, off in zip(strata(rng, -2.0, 3.0, n_cum),
                               rng.uniform(0.5, 4.0, n_cum))]
        self.density_inputs = [
            (m, yp - off, yp) for m in PARAMS
            for yp, off in zip(strata(rng, -1.0, 2.0, n_den),
                               rng.uniform(1.0, 4.0, n_den))]
        self.sizes = {
            "table1_rows": [r["y_plus"] for r in self.table1],
            "ou_seeded": self.ou_seeded.tolist(),
            "fig1_grid_stride": grid_stride,
            "fig1_seeded": {m: v.tolist() for m, v in self.fig1_seeded.items()},
            "cumulant_pairs": self.cumulant_inputs,
            "density_pairs": self.density_inputs,
            "density_grid_points": len(DENSITY_TAU)}
        self._density_out = {}        # last output per density input

        tasks = []
        for i, row in enumerate(self.table1):
            tasks.append(Task("rate", f"table1/{i}", self._ou_rate(row["y_plus"]),
                              self._table1_gate(row)))
        for i, y in enumerate(self.ou_seeded):
            tasks.append(Task("rate", f"ou_seeded/{i}", self._ou_rate(y),
                              self._interp_gate("ou", y)))
        for m in ("dry_friction", "tanh"):
            for i, row in enumerate(self.fig1[m][::grid_stride]):
                tasks.append(Task("rate", f"fig1/{m}/{i}",
                                  self._fig1_rate(m, row["y_plus"]),
                                  self._fig1_gate(row)))
            for i, y in enumerate(self.fig1_seeded[m]):
                tasks.append(Task("rate", f"fig1_seeded/{m}/{i}",
                                  self._fig1_rate(m, y),
                                  self._interp_gate(m, y)))
        for i, (m, y0, yp) in enumerate(self.cumulant_inputs):
            tasks.append(Task("cumulants", f"cumulants/{m}/{i}",
                              cumulant_task(fpt, *self.fields[m], y0, yp),
                              cumulant_gate))
        for i, (m, y0, yp) in enumerate(self.density_inputs):
            tasks.append(Task("density", f"density/{m}/{i}",
                              self._density(m, y0, yp), calibration_gate))
        self.tasks = tasks

    def _ou_rate(self, y):
        fpt, (ff, im) = self.fpt, self.fields["ou"]

        def run(rec, outs):
            exact = rec.call("oupcf.rightmost_zero", fpt.rightmost_zero, y)
            est = rec.call("decay.estimate_lambda", fpt.estimate_lambda,
                           ff, im, y).lam
            return {"y": y, "exact": exact, "est": est, "rates": 2}
        return run

    def _fig1_rate(self, m, y):
        fpt, (ff, im) = self.fpt, self.fields[m]

        def run(rec, outs):
            est = rec.call("decay.estimate_lambda", fpt.estimate_lambda,
                           ff, im, y).lam
            exact = None
            if exact_defined(m, y):
                exact = rec.call("decay.lambda_exact", fpt.lambda_exact,
                                 m, y, **PARAMS[m])
            left = rec.call("decay.lambda_asymptotic", fpt.lambda_asymptotic,
                            im, y, "far_left")
            right = rec.call("decay.lambda_asymptotic", fpt.lambda_asymptotic,
                             im, y, "far_right")
            return {"y": y, "exact": exact, "est": est, "left": left,
                    "right": right, "rates": 1 + (exact is not None)}
        return run

    def _density(self, m, y0, yp):
        fpt, (ff, im) = self.fpt, self.fields[m]

        def run(rec, outs):
            # lambda comes from its own timed call, so build_model times
            # theta, nu and the rho calibration only
            if m == "ou":
                lam = rec.call("oupcf.rightmost_zero", fpt.rightmost_zero, yp)
                src = "exact"
            elif exact_defined(m, yp):
                lam = rec.call("decay.lambda_exact", fpt.lambda_exact,
                               m, yp, **PARAMS[m])
                src = "exact"
            else:
                lam = rec.call("decay.estimate_lambda", fpt.estimate_lambda,
                               ff, im, yp).lam
                src = "ratio-accelerated"
            model = rec.call("density.build_model", fpt.build_model,
                             ff, im, y0, yp, lam=lam, lambda_source=src)
            f = rec.call("density.eval_density", fpt.eval_density,
                         model, DENSITY_TAU)
            out = density_output(model, f)
            self._density_out[(m, y0, yp)] = out
            return out
        return run

    def _table1_gate(self, row):
        def gate(out, outs):
            ok = (close(out["exact"], row["lambda_exact"])
                  and close(out["est"], row["lambda_est"]))
            return [("table1_ref", ok,
                     f"y+={row['y_plus']:g}: exact {out['exact']!r} est "
                     f"{out['est']!r} vs {row['lambda_exact']!r} "
                     f"{row['lambda_est']!r}")]
        return gate

    def _fig1_gate(self, row):
        def gate(out, outs):
            pairs = [(out["est"], row["lambda_est"]),
                     (out["left"], row["lambda_asym_left"]),
                     (out["right"], row["lambda_asym_right"])]
            ok = all(close(a, b) for a, b in pairs)
            ok = ok and ((out["exact"] is None) == (row["lambda_exact"] is None))
            if ok and out["exact"] is not None:
                ok = close(out["exact"], row["lambda_exact"])
            return [("fig1_ref", ok, f"y+={row['y_plus']:g}: {out} vs {row}")]
        return gate

    def _interp_gate(self, m, y):
        ref = self.interp[m]

        def gate(out, outs):
            ok = close(out["est"], float(ref["lambda_est"](y)), INTERP_RTOL)
            if out["exact"] is not None:
                ok = ok and close(out["exact"], float(ref["lambda_exact"](y)),
                                  INTERP_RTOL)
            return [("seeded_interp", ok, f"{m} y+={y:g}: {out}")]
        return gate

    def final_checks(self):
        """The lam=/lambda_source= form gives the rho of the one-call form."""
        results = []
        for (m, y0, yp), out in self._density_out.items():
            ff, im = self.fields[m]
            ref = self.fpt.build_model(ff, im, y0, yp, model_name=m,
                                       model_params=PARAMS[m])
            ok = abs(ref.rho - out["rho"]) <= 1e-12 * max(1.0, abs(ref.rho))
            results.append(("rho_one_call", ok,
                            f"{m} ({y0:g}, {yp:g}): {out['rho']!r} vs {ref.rho!r}"))
        return results

    def end_to_end(self, passes):
        errs = [abs(o["est"] / o["exact"] - 1.0)
                for p in passes for o in p["outs"].values()
                if "est" in o and o["exact"] is not None]
        return rate_model_metrics(passes) | {"lambda_rel_err_max": {
            "value": max(errs, default=float("nan")), "unit": "ratio"}}


def cumulant_task(fpt, ff, im, y0, yp):
    def run(rec, outs):
        grid = fpt.HGrid(z_max=max(yp, fpt.HGrid.Z + 1.0) + 1e-9)
        table = rec.call("hseries.build_table", fpt.build_table, ff, im, grid, 4)
        cs = rec.call("cumulants.cumulants", fpt.cumulants, table, y0, yp, im=im)
        return {"kappa": cs.kappa_r.tolist(), "mean_direct": cs.mean_direct,
                "work": {"hseries.build_table.cells":
                         len(grid.nodes) * (table.r_max - 1)}}
    return run


def cumulant_gate(out, outs):
    k = out["kappa"]
    ok = all(v > 0.0 for v in k) and close(k[0], out["mean_direct"],
                                           CUMULANT_RTOL)
    return [("cumulant_mean", ok,
             f"kappa_1 {k[0]!r} vs mean_direct {out['mean_direct']!r}")]


def density_output(model, f):
    return {"rho": model.rho, "resid": model.calibration_residual,
            "lam": model.lam, "f_ok": bool(np.all(np.isfinite(f)) and np.all(f >= 0)),
            "work": {"density.eval_density.points": len(f)}}


def calibration_gate(out, outs):
    ok = abs(out["resid"]) <= CALIBRATION_TOL and out["f_ok"]
    return [("calibration", ok,
             f"residual {out['resid']!r}, density finite {out['f_ok']}")]


def rate_model_metrics(passes):
    """rates_per_s and models_per_s over the rate and density tasks."""
    rates = rate_time = models = model_time = 0.0
    for p in passes:
        for tid, out in p["outs"].items():
            kind = p["kinds"][tid]
            if kind == "rate":
                rates += out["rates"]
                rate_time += p["times"][tid]
            elif kind == "density":
                models += 1
                model_time += p["times"][tid]
    return {"rates_per_s": {"value": ratio(rates, rate_time), "unit": "1/s"},
            "models_per_s": {"value": ratio(models, model_time), "unit": "1/s"}}


# ----------------------------------------------------------------------
# validate: fpt validate (formula vs Crank-Nicolson)
# ----------------------------------------------------------------------

class Validate(Workload):
    """Two cases per model from the 27 of scripts/run_validation.py."""

    name = "validate"
    gates = ("l1_cap", "l1_ref")
    warmup_passes = 0       # one pass is most of a run

    def __init__(self, fpt, rec, seed, smoke):
        self.fpt = fpt
        rng = np.random.default_rng(seed)
        self.fields = {m: fpt.builtin(m, **p) for m, p in PARAMS.items()}
        self.ref = {}
        for m in PARAMS:
            report = json.loads((REF_DIR / f"validate_{m}.json").read_text())
            for case in report["cases"]:
                self.ref[(m, case["y_plus"], case["y0"])] = case["l1"]
        # stratified by barrier row, which sets the PDE horizon: one case
        # on the y+=2 row (tau_max 80) and one on the y+=-1 or 1 rows per
        # model; smoke size keeps one case per model on the cheap y+=-1 row
        cases = []
        for m in PARAMS:
            rows = [(-1.0,)] if smoke else [(2.0,), (-1.0, 1.0)]
            for barriers in rows:
                yp = float(rng.choice(barriers))
                off = float(rng.choice([1.0, 2.0, 4.0]))
                cases.append((m, yp - off, yp))
        self.cases = cases
        self.sizes = {"cases": cases, "dy": 1 / 200,
                      "tau_rule": "tau_max = min(80, max(10, 8/lam)); "
                                  "dtau = 1e-3 if tau_max <= 20 else 2e-3"}
        self.tasks = [Task("case", f"{m}/{yp:g}/{y0:g}",
                            self._case(m, y0, yp), self._gate(m, y0, yp))
                       for m, y0, yp in cases]

    def _case(self, m, y0, yp):
        fpt, (ff, im) = self.fpt, self.fields[m]

        def run(rec, outs):
            model = rec.call("density.build_model", fpt.build_model,
                             ff, im, y0, yp, model_name=m, model_params=PARAMS[m])
            tmax = min(80.0, max(10.0, 8.0 / model.lam))
            dtau = 1e-3 if tmax <= 20 else 2e-3
            grid = rec.call("oracle.solve_pde", fpt.solve_pde, ff, yp,
                            dy=1 / 200, dtau=dtau, tau_max=tmax, probe_y=(y0,))
            tau = grid.probe_tau[1:]
            f = rec.call("density.eval_density", fpt.eval_density, model, tau)
            l1 = rec.call("oracle.l1_distance", fpt.l1_distance,
                          tau, f, grid.probe_f[0][1:])
            return {"l1": l1, "work": {
                "oracle.solve_pde.cell_steps":
                    (len(grid.y_nodes) - 2) * (len(grid.probe_tau) - 1),
                "density.eval_density.points": len(tau)}}
        return run

    def _gate(self, m, y0, yp):
        if m == "ou":
            cap = FROZEN_L1["ou"]
        elif m == "tanh":
            cap = FROZEN_L1["tanh"]
        else:
            cap = FROZEN_L1["df_knee_or_below" if yp <= 1.0 else "df_above"]
        ref = self.ref[(m, yp, y0)]

        def gate(out, outs):
            l1 = out["l1"]
            return [("l1_cap", l1 <= cap, f"{m} ({y0:g}, {yp:g}): L1 {l1!r} cap {cap}"),
                    ("l1_ref", abs(l1 - ref) <= L1_REF_ATOL,
                     f"{m} ({y0:g}, {yp:g}): L1 {l1!r} reference {ref!r}")]
        return gate

    def end_to_end(self, passes):
        walls = [p["wall_s"] for p in passes]
        return {"cases_per_s": {"value": len(self.cases) / float(np.median(walls)),
                                "unit": "1/s"},
                "l1_max": {"value": max((o["l1"] for p in passes
                                         for o in p["outs"].values()),
                                        default=float("nan")),
                           "unit": "1"}}


# ----------------------------------------------------------------------
# mc: fpt oracle mc | tree
# ----------------------------------------------------------------------

class MonteCarlo(Workload):
    """Bridge-corrected Euler paths against the trinomial-lattice CDF."""

    name = "mc"
    gates = ("ks", "mean", "censored")
    CASES = (("ou", 1.0, 0.0), ("tanh", 1.0, 0.0))   # C08 case first
    DT, TAU_MAX = 1e-3, 30.0

    def __init__(self, fpt, rec, seed, smoke):
        self.fpt = fpt
        rng = np.random.default_rng(seed)
        self.fields = {m: fpt.builtin(m, **PARAMS[m]) for m, _, _ in self.CASES}
        self.n_paths = 2_000 if smoke else 20_000
        self.streams = [int(s) for s in rng.integers(0, 2**32, len(self.CASES))]
        self.sizes = {"cases": self.CASES, "dt": self.DT, "tau_max": self.TAU_MAX,
                      "n_paths": self.n_paths, "streams": self.streams,
                      "tree_dtau": self.DT}
        self._k1 = {}
        self.tasks = [Task("case", m, self._case(m, yp, y0, stream),
                            self._gate(m, yp, y0))
                       for (m, yp, y0), stream in zip(self.CASES, self.streams)]

    def _case(self, m, yp, y0, stream):
        fpt, (ff, _) = self.fpt, self.fields[m]
        n_steps = int(round(self.TAU_MAX / self.DT))

        def run(rec, outs):
            tree = rec.call("oracle.solve_tree", fpt.solve_tree, ff, yp, y0,
                            dtau=self.DT, tau_max=self.TAU_MAX)
            t = time.perf_counter()
            res = rec.call("oracle.simulate", fpt.simulate, ff, yp, y0,
                           dt=self.DT, n_paths=self.n_paths,
                           tau_max=self.TAU_MAX, bridge=True, seed=stream)
            simulate_s = time.perf_counter() - t
            nodes = int(np.ceil(14.0 / tree.dy)) + 1     # default span 14
            steps = int(np.rint(res.samples / res.dt).sum()) \
                + res.censored_count * n_steps
            return {"tree": tree, "mc": res, "simulate_s": simulate_s,
                    "work": {"oracle.solve_tree.node_steps":
                             nodes * len(tree.tau_nodes),
                             "oracle.simulate.path_steps": steps}}
        return run

    def _kappa1(self, m, yp, y0):
        if m not in self._k1:
            ff, im = self.fields[m]
            table = self.fpt.build_table(ff, im, self.fpt.HGrid(z_max=yp + 1e-9), 2)
            self._k1[m] = float(self.fpt.cumulants(table, y0, yp).kappa_r[0])
        return self._k1[m]

    def _gate(self, m, yp, y0):
        def gate(out, outs):
            res, tree = out["mc"], out["tree"]
            n = res.n_paths
            ks = self.fpt.kolmogorov_distance(res.samples, tree.tau_nodes,
                                              tree.F, n_paths=n)
            # DKW: P(sup|F_n - F| > eps) <= 2 exp(-2 n eps^2)
            ks_bound = math.sqrt(math.log(2.0 / MC_ALPHA) / (2.0 * n)) + MC_KS_SLACK
            k1 = self._kappa1(m, yp, y0)
            z = stats.norm.isf(MC_ALPHA / 2.0)
            mean_bound = z * res.mean_standard_error + MC_MEAN_SLACK_DT * res.dt
            # censoring ~ Binomial(n, p); p doubled from the lattice's
            # survival at tau_max to cover the sampler's own bias
            p_cens = min(1.0, 2.0 * max(1.0 - float(tree.F[-1]), 1e-12))
            cens_bound = int(stats.binom.isf(MC_ALPHA, n, p_cens))
            return [("ks", ks <= ks_bound, f"{m}: KS {ks:.5f} bound {ks_bound:.5f}"),
                    ("mean", abs(res.mean - k1) <= mean_bound,
                     f"{m}: mean {res.mean:.5f} kappa_1 {k1:.5f} bound {mean_bound:.5f}"),
                    ("censored", res.censored_count <= cens_bound,
                     f"{m}: censored {res.censored_count} bound {cens_bound}")]
        return gate

    def end_to_end(self, passes):
        steps = sum(o["work"]["oracle.simulate.path_steps"]
                    for p in passes for o in p["outs"].values())
        sim_time = sum(o["simulate_s"] for p in passes for o in p["outs"].values())
        return {"path_steps_per_s": {"value": ratio(steps, sim_time) / 1e6,
                                     "unit": "M/s"}}


# ----------------------------------------------------------------------
# custom: --config expression drifts (quadrature-backed measure)
# ----------------------------------------------------------------------

EXPRS = ("-y", "-2*tanh(y)", "-y - 0.1*sin(y)")
BUILTIN_TWIN = {"-y": "ou", "-2*tanh(y)": "tanh"}


class Custom(Workload):
    """load_field expressions through theta, rates, calibration, cumulants."""

    name = "custom"
    gates = ("builtin_lambda", "builtin_rho", "builtin_theta", "calibration",
             "cumulant_mean")

    def __init__(self, fpt, rec, seed, smoke):
        # full size at smoke too: three fields and twelve tasks are cheap
        self.fpt = fpt
        rng = np.random.default_rng(seed)
        self.fields = {e: rec.call("forcefield.load_field", fpt.load_field,
                                   {"type": "expr", "A": e, "domain": [-30, 30]})
                       for e in EXPRS}
        # six unit bins over [-3, 3]: expression i takes bin i for its rate
        # task and bin i+3 for its density and cumulant tasks
        bars = strata(rng, -3.0, 3.0, 6)
        offs = rng.uniform(1.0, 3.0, 3)
        self.inputs = {e: (float(bars[i]), float(bars[i + 3] - offs[i]),
                           float(bars[i + 3])) for i, e in enumerate(EXPRS)}
        self.sizes = {"exprs": EXPRS, "domain": [-30, 30],
                      "rate_barrier, density/cumulant (y0, y+)": self.inputs}
        self._twin_cache = {}
        tasks = []
        for e in EXPRS:
            ff, im = self.fields[e]
            b_rate, y0, yp = self.inputs[e]
            tasks += [
                Task("theta", f"theta/{e}", self._theta(e), self._theta_gate(e)),
                Task("rate", f"rate/{e}", self._rate(e, b_rate),
                     self._lambda_gate(e, b_rate)),
                Task("density", f"density/{e}", self._density(e, y0, yp),
                     self._density_gate(e, y0, yp), needs=[f"theta/{e}"]),
                Task("cumulants", f"cumulants/{e}",
                     cumulant_task(fpt, ff, im, y0, yp), cumulant_gate)]
        self.tasks = tasks

    def _theta(self, e):
        fpt, (ff, im) = self.fpt, self.fields[e]

        def run(rec, outs):
            return {"theta": rec.call("density.theta_fisher", fpt.theta_fisher,
                                      ff, im)}
        return run

    def _rate(self, e, y):
        fpt, (ff, im) = self.fpt, self.fields[e]

        def run(rec, outs):
            est = rec.call("decay.estimate_lambda", fpt.estimate_lambda,
                           ff, im, y).lam
            return {"y": y, "est": est, "rates": 1}
        return run

    def _density(self, e, y0, yp):
        fpt, (ff, im) = self.fpt, self.fields[e]

        def run(rec, outs):
            theta = outs[f"theta/{e}"]["theta"]
            lam = rec.call("decay.estimate_lambda", fpt.estimate_lambda,
                           ff, im, yp).lam
            model = rec.call("density.build_model", fpt.build_model, ff, im,
                             y0, yp, theta=theta, lam=lam,
                             lambda_source="ratio-accelerated")
            f = rec.call("density.eval_density", fpt.eval_density,
                         model, DENSITY_TAU)
            return density_output(model, f)
        return run

    def _twin(self, e):
        name = BUILTIN_TWIN[e]
        return self.fpt.builtin(name, **PARAMS[name])

    def _twin_lambda(self, e, yp):
        """Builtin-field estimate for an expression with a builtin twin."""
        key = ("lambda", e, yp)
        if key not in self._twin_cache:
            self._twin_cache[key] = self.fpt.estimate_lambda(*self._twin(e), yp).lam
        return self._twin_cache[key]

    def _twin_rho(self, e, y0, yp):
        key = ("rho", e, y0, yp)
        if key not in self._twin_cache:
            self._twin_cache[key] = self.fpt.build_model(
                *self._twin(e), y0, yp, lam=self._twin_lambda(e, yp),
                lambda_source="ratio-accelerated").rho
        return self._twin_cache[key]

    def _theta_gate(self, e):
        def gate(out, outs):
            if e not in BUILTIN_TWIN:
                return [("builtin_theta", out["theta"] > 0.0,
                         f"{e}: theta {out['theta']!r}")]
            ref = self._twin(e)[1].fisher_theta
            return [("builtin_theta", abs(out["theta"] - ref) <= MEASURE_ATOL,
                     f"{e}: theta {out['theta']!r} vs {ref!r}")]
        return gate

    def _lambda_gate(self, e, y):
        def gate(out, outs):
            if e not in BUILTIN_TWIN:
                return [("builtin_lambda", out["est"] > 0.0, f"{e}: {out['est']!r}")]
            ref = self._twin_lambda(e, y)
            return [("builtin_lambda", close(out["est"], ref, MEASURE_RTOL),
                     f"{e} y+={y:g}: {out['est']!r} vs {ref!r}")]
        return gate

    def _density_gate(self, e, y0, yp):
        def gate(out, outs):
            results = calibration_gate(out, outs)
            if e in BUILTIN_TWIN:
                lam, rho = self._twin_lambda(e, yp), self._twin_rho(e, y0, yp)
                results.append(("builtin_lambda", close(out["lam"], lam, MEASURE_RTOL),
                                f"{e} y+={yp:g}: {out['lam']!r} vs {lam!r}"))
                results.append(("builtin_rho", abs(out["rho"] - rho) <= MEASURE_ATOL,
                                f"{e} ({y0:g}, {yp:g}): rho {out['rho']!r} vs {rho!r}"))
            return results
        return gate

    def end_to_end(self, passes):
        return rate_model_metrics(passes)


WORKLOADS = {w.name: w for w in (Analytic, Validate, MonteCarlo, Custom)}
