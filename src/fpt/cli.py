"""Command-line front end.

Subcommands: lambda, hseries, cumulants, density, oracle (pde|tree|mc),
table1, fig1, validate, pcf.  Every subcommand takes --out, the model
subcommands --model or --config, and oracle the --seed that mc reads.
Exit codes: 0 success, 2 numeric failure, 3 bad input.

All CSV output is deterministic (shortest round-trip float formatting,
fixed column order) and carries '#' comment headers echoing the tool
version and the full parameter set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from . import decay as _decay
from . import density as _density
from . import hseries as _hseries
from . import oracle as _oracle
from . import oupcf as _oupcf
from .errors import InputError, NumericsError
from .forcefield import builtin, load_field

TABLE1_ROWS = [-2.86, -2.33, -np.sqrt(3.0), -1.0, -0.5, 0.0,
               0.5, 1.0, 1.5, 2.0, 2.5, 3.0]


# the builtin models, in --model order, and the options each one takes
_MODEL_PARAMS = {"ou": (), "dry_friction": ("mu",),
                 "tanh": ("alpha", "gamma"), "abm": ("mu",)}


def _config_json(args):
    """The `# config:` record of a CSV header, with sorted keys: the
    command, model ("custom" for a --config field), out and config, the
    parameters the builtin model takes under "params" and the options
    that are not model parameters under "options"."""
    config = getattr(args, "config", None)
    record = {"command": args.command,
              "model": "custom" if config else getattr(args, "model", "ou"),
              "out": args.out, "config": config,
              "params": _model_params(args) if hasattr(args, "model") else {},
              "options": {}}
    param_names = {k for names in _MODEL_PARAMS.values() for k in names}
    for k, v in vars(args).items():
        if k not in param_names and k not in record:
            record["options"][k] = v
    return json.dumps(record, sort_keys=True)


def _finite_float(text):
    """The argparse type of a number option: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_int(text):
    """The argparse type of a count option: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # bad input is exit code 3
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path, args, columns, rows):
    lines = [f"# fpt {__version__}",
             f"# command: {args.command}",
             f"# config: {_config_json(args)}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _field_from_args(args):
    """The (field, measure) pair of a command, and the builtin model name
    that selects its exact rate: None for a --config field."""
    if getattr(args, "config", None):
        return load_field(args.config), None
    return builtin(args.model, **_model_params(args)), args.model


def _model_params(args):
    """The parameters of the builtin model; none for a --config field."""
    if getattr(args, "config", None):
        return {}
    return {k: getattr(args, k) for k in _MODEL_PARAMS[args.model]}


def _parse_sweep(text):
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except Exception:
        raise InputError(f"sweep must be 'start:stop:count', got {text!r}")
    if not np.isfinite([a, b]).all():
        raise InputError(f"sweep ends must be finite, got {text!r}")
    if n < 1:
        raise InputError(f"sweep count must be at least 1, got {n}")
    return a, b, n


def _parse_list(text, option):
    """The comma-separated numbers of `option`, e.g. --barriers=-1,1,2."""
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{option} must be comma-separated numbers, got {text!r}")
    if not np.isfinite(values).all():
        raise InputError(f"{option} must be finite numbers, got {text!r}")
    return values


def _add_model_args(p):
    p.add_argument("--model", default="ou", choices=list(_MODEL_PARAMS))
    p.add_argument("--mu", type=_finite_float, default=1.0)
    p.add_argument("--alpha", type=_finite_float, default=2.0)
    p.add_argument("--gamma", type=_finite_float, default=1.0)
    p.add_argument("--config", help="JSON custom field spec (overrides --model)")


def _sibling_path(out, suffix):
    """`out` with its extension replaced by `suffix`: the companion file of
    an output path ("run/report.json" -> "run/report_curves.csv")."""
    return os.path.splitext(out)[0] + suffix


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_pcf(args):
    _write_csv(args.out, args, ["s", "y", "value"],
               [(args.s, args.y, _oupcf.pcf(args.s, args.y))])


def _rate_rows(ff, im, barriers, exact_model, params):
    """(y_plus, estimated rate, exact rate or None, far-left and far-right
    asymptotes) at each barrier, for the field a command built once.  The
    exact rate is that of the builtin `exact_model` with `params`, and
    None where it has none or `exact_model` is None."""
    for yp in map(float, barriers):
        exact = (None if exact_model is None
                 else _decay._exact_or_none(exact_model, yp, params))
        yield (yp, _decay.estimate_lambda(ff, im, yp).lam, exact,
               _decay.lambda_asymptotic(im, yp, "far_left"),
               _decay.lambda_asymptotic(im, yp, "far_right"))


def cmd_lambda(args):
    (ff, im), name = _field_from_args(args)
    if args.sweep:
        a, b, n = _parse_sweep(args.sweep)
        barriers = np.linspace(a, b, n)
    else:
        barriers = [args.barrier]
    rows = list(_rate_rows(ff, im, barriers, name if args.exact else None,
                           _model_params(args)))
    _write_csv(args.out, args,
               ["y_plus", "lambda_est", "lambda_exact",
                "lambda_asym_left", "lambda_asym_right"], rows)


def cmd_hseries(args):
    (ff, im), _ = _field_from_args(args)
    grid = _hseries.HGrid(Z=args.zleft, step=args.step, z_max=args.zmax)
    table = _hseries.build_table(ff, im, grid, args.rmax)
    cols = ["z"] + [f"h_{r}" for r in range(1, args.rmax + 1)]
    vals = table.values
    rows = [(z, *vals[:, j]) for j, z in enumerate(grid.nodes)]
    _write_csv(args.out, args, cols, rows)


def cmd_cumulants(args):
    (ff, im), _ = _field_from_args(args)
    grid = _hseries.HGrid(z_max=max(args.barrier, _hseries.HGrid.Z + 1.0) + 1e-9)
    table = _hseries.build_table(ff, im, grid, args.rmax)
    cs = _hseries.cumulants(table, args.start, args.barrier, im=im)
    r = np.arange(1, len(cs.kappa_r) + 1)
    rows = list(zip(r, cs.kappa_r, cs.kappa_r / ff.kappa ** r))
    rows.append(("mean_direct", cs.mean_direct, None))
    _write_csv(args.out, args, ["r", "kappa_r_dimensionless", "kappa_r_dimensional"], rows)


def cmd_density(args):
    (ff, im), name = _field_from_args(args)
    model = _density.build_model(
        ff, im, args.start, args.barrier,
        model_name=name, model_params=_model_params(args))
    tau = np.linspace(args.tmax / args.n, args.tmax, args.n)
    _write_csv(args.out, args, ["tau", "f_formula"],
               zip(tau, _density.eval_density(model, tau)))


def cmd_oracle(args):
    (ff, im), _ = _field_from_args(args)
    if args.oracle == "pde":
        grid = _oracle.solve_pde(ff, args.barrier, dy=args.dy, dtau=args.dtau,
                                 tau_max=args.tmax, probe_y=(args.start,))
        rows = list(zip(grid.probe_tau, grid.probe_F[0], grid.probe_f[0]))
        _write_csv(args.out, args, ["tau", "F", "f"], rows)
    elif args.oracle == "tree":
        res = _oracle.solve_tree(ff, args.barrier, args.start,
                                 dtau=args.dtau, tau_max=args.tmax)
        rows = list(zip(res.tau_nodes, res.absorbed_mass, res.F))
        _write_csv(args.out, args, ["tau", "absorbed_mass", "F"], rows)
    elif args.oracle == "mc":
        res = _oracle.simulate(ff, args.barrier, args.start, dt=args.dtau,
                               n_paths=args.paths, tau_max=args.tmax,
                               bridge=not args.no_bridge, seed=args.seed)
        tgrid = np.linspace(args.tmax / 200, args.tmax, 200)
        emp = np.searchsorted(res.samples, tgrid, side="right") / res.n_paths
        rows = [(res.mean, res.mean_standard_error, res.censored_count)]
        _write_csv(args.out, args, ["mean", "mean_se", "censored"], rows)
        if args.out:
            curve_path = _sibling_path(args.out, "_cdf.csv")
            _write_csv(curve_path, args, ["tau", "F_empirical"],
                       list(zip(tgrid, emp)))


def cmd_table1(args):
    rows = [(yp, exact, est) for yp, est, exact, _, _ in
            _rate_rows(*builtin("ou"), TABLE1_ROWS, "ou", {})]
    _write_csv(args.out, args, ["y_plus", "lambda_exact", "lambda_est"], rows)


def cmd_fig1(args):
    (ff, im), name = _field_from_args(args)
    a, b, n = _parse_sweep(args.sweep)
    rows = [("sweep", *row) for row in
            _rate_rows(ff, im, np.linspace(a, b, n), name, _model_params(args))]
    # orthogonal-polynomial zero markers, where the model has them
    if name == "ou":
        for order in range(1, 6):
            z = _oupcf.hermite_leftmost_zero(order)
            if a <= z <= b:
                rows.append(("marker", z, None, float(order), None, None))
    elif name == "tanh":
        # the n=1 level is the rate at its zero y_plus = 0 where it is bound,
        # and at alpha = 2 gamma, where it meets the branch point alpha^2/4
        if ((args.alpha / args.gamma > 2.0 or args.alpha == 2.0 * args.gamma)
                and a <= 0.0 <= b):
            lam = _decay.lambda_exact("tanh", 0.0, **_model_params(args))
            rows.append(("marker", 0.0, None, lam, None, None))
    _write_csv(args.out, args,
               ["kind", "y_plus", "lambda_est", "lambda_exact",
                "lambda_asym_left", "lambda_asym_right"], rows)


def cmd_validate(args):
    (ff, im), name = _field_from_args(args)
    params = _model_params(args)
    barriers = _parse_list(args.barriers, "--barriers")
    offsets = _parse_list(args.offsets, "--offsets")
    report = {"tool": f"fpt {__version__}", "model": name or "custom",
              "params": params, "cases": []}
    curves = []
    for yp in barriers:
        built = []                    # (case, model) of each start that built
        for off in offsets:
            case = {"y_plus": yp, "y0": yp - off}
            report["cases"].append(case)
            try:
                built.append((case, _density.build_model(
                    ff, im, case["y0"], yp,
                    model_name=name, model_params=params)))
            except (NumericsError, InputError) as exc:
                case.update(status="failed", error=str(exc))
        if not built:
            continue
        # the rate, and with it tau_max and dtau, depends on y_plus alone,
        # so one solve serves every start of the barrier
        tmax = args.tmax or min(80.0, max(10.0, 8.0 / built[0][1].lam))
        dtau = 1e-3 if tmax <= 20 else 2e-3
        pde = _pde_densities(ff, yp, [case["y0"] for case, _ in built],
                             dy=args.dy, dtau=dtau, tau_max=tmax)
        for (case, model), res in zip(built, pde):
            if isinstance(res, Exception):
                case.update(status="failed", error=str(res))
                continue
            tau, f_pde, cn_steps = res
            f_formula = _density.eval_density(model, tau)
            case.update(
                lam=model.lam, lambda_source=model.lambda_source,
                theta=model.theta, nu=model.nu, rho=model.rho,
                tau_max=tmax, pde_steps=len(tau), pde_cn_steps=cn_steps,
                l1=_oracle.l1_distance(tau, f_formula, f_pde),
                sup=float(np.max(np.abs(f_formula - f_pde))),
                normalization_residual=model.calibration_residual,
                tail_slope_error=_tail_slope_error(model, tau, f_pde),
                status="ok")
            for t, fa, fb in zip(tau[::args.curve_stride],
                                 f_formula[::args.curve_stride],
                                 f_pde[::args.curve_stride]):
                curves.append((f"{yp:g}/{case['y0']:g}", t, fa, fb))

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        curve_path = _sibling_path(args.out, "_curves.csv")
        _write_csv(curve_path, args, ["case", "tau", "f_formula", "f_pde"], curves)
    else:
        sys.stdout.write(text + "\n")


def _pde_densities(ff, y_plus, starts, **grid):
    """One `solve_pde` for all `starts`: per start, (tau, f) after
    tau = 0 and the solve's CN step count, or the error that fails its
    case.  A start outside the grid is the one bad input that concerns a
    single start, so after an InputError each start is solved alone."""
    try:
        g = _oracle.solve_pde(ff, y_plus, probe_y=starts, **grid)
    except NumericsError as exc:
        return [exc] * len(starts)
    except InputError as exc:
        if len(starts) == 1:
            return [exc]
        return [res for y0 in starts
                for res in _pde_densities(ff, y_plus, [y0], **grid)]
    return [(g.probe_tau[1:], f[1:], g.cn_steps) for f in g.probe_f]


def _tail_slope_error(model, tau, f_pde):
    """Relative mismatch between the PDE curve's late-time log-slope and
    the model's decay rate (regression over the last usable stretch)."""
    lo, hi = 0.55 * tau[-1], 0.9 * tau[-1]
    sel = (tau >= lo) & (tau <= hi) & (f_pde > 0.0)
    if np.count_nonzero(sel) < 10:
        return float("nan")
    slope = -np.polyfit(tau[sel], np.log(f_pde[sel]), 1)[0]
    return float(abs(slope / model.lam - 1.0))


# ----------------------------------------------------------------------
# wiring
# ----------------------------------------------------------------------

def build_parser():
    p = _Parser(prog="fpt", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=f"fpt {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="output CSV/JSON path (default stdout)")

    sp = sub.add_parser("pcf", help="evaluate the parabolic-cylinder relative")
    sp.add_argument("--s", type=_finite_float, required=True)
    sp.add_argument("--y", type=_finite_float, required=True)
    common(sp)

    sp = sub.add_parser("lambda", help="decay-rate estimates")
    _add_model_args(sp)
    sp.add_argument("--barrier", type=_finite_float, default=0.0)
    sp.add_argument("--sweep", help="start:stop:count barrier sweep")
    sp.add_argument("--exact", action="store_true")
    common(sp)

    sp = sub.add_parser("hseries", help="coefficient table as CSV")
    _add_model_args(sp)
    sp.add_argument("--rmax", type=int, default=6)
    sp.add_argument("--zleft", type=_finite_float, default=_hseries.HGrid.Z)
    sp.add_argument("--step", type=_finite_float, default=_hseries.HGrid.step)
    sp.add_argument("--zmax", type=_finite_float, default=_hseries.HGrid.z_max)
    common(sp)

    sp = sub.add_parser("cumulants", help="passage-time cumulants")
    _add_model_args(sp)
    sp.add_argument("--start", type=_finite_float, required=True)
    sp.add_argument("--barrier", type=_finite_float, required=True)
    sp.add_argument("--rmax", type=int, default=4)
    common(sp)

    sp = sub.add_parser("density", help="global density approximation")
    _add_model_args(sp)
    sp.add_argument("--start", type=_finite_float, required=True)
    sp.add_argument("--barrier", type=_finite_float, required=True)
    sp.add_argument("--tmax", type=_finite_float, default=10.0)
    sp.add_argument("--n", type=_positive_int, default=200)
    common(sp)

    sp = sub.add_parser("oracle", help="numerical ground truth")
    sp.add_argument("oracle", choices=["pde", "tree", "mc"])
    _add_model_args(sp)
    sp.add_argument("--start", type=_finite_float, required=True)
    sp.add_argument("--barrier", type=_finite_float, required=True)
    sp.add_argument("--tmax", type=_finite_float, default=20.0)
    sp.add_argument("--dy", type=_finite_float, default=1.0 / 200.0)
    sp.add_argument("--dtau", type=_finite_float, default=1e-3,
                    help="pde: scale of the graded time steps (dtau/10 at "
                         "first, growing to 5 dtau / min(1, lambda_1)); "
                         "tree: the uniform step; mc: the Euler step")
    sp.add_argument("--paths", type=_positive_int, default=100_000)
    sp.add_argument("--no-bridge", action="store_true")
    sp.add_argument("--seed", type=int, default=0, help="mc random seed")
    common(sp)

    sp = sub.add_parser("table1", help="exact vs estimated OU decay rates")
    common(sp)

    sp = sub.add_parser("fig1", help="decay-rate sweep with asymptotes and markers")
    _add_model_args(sp)
    sp.add_argument("--sweep", default="-3:3:25")
    common(sp)

    sp = sub.add_parser("validate", help="formula vs PDE validation report")
    _add_model_args(sp)
    sp.add_argument("--barriers", default="-1,1,2")
    sp.add_argument("--offsets", default="1,2,4")
    sp.add_argument("--tmax", type=_finite_float, default=None)
    sp.add_argument("--dy", type=_finite_float, default=1.0 / 200.0)
    sp.add_argument("--curve-stride", type=_positive_int, default=50)
    common(sp)

    return p


COMMANDS = {
    "pcf": cmd_pcf,
    "lambda": cmd_lambda,
    "hseries": cmd_hseries,
    "cumulants": cmd_cumulants,
    "density": cmd_density,
    "oracle": cmd_oracle,
    "table1": cmd_table1,
    "fig1": cmd_fig1,
    "validate": cmd_validate,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        COMMANDS[args.command](args)
    except InputError as exc:
        print(f"fpt: bad input: {exc}", file=sys.stderr)
        return 3
    except NumericsError as exc:
        print(f"fpt: numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
