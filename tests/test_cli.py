import argparse
import ast
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import fpt
from fpt import cli
from fpt.cli import main


OUT_DIR = Path(__file__).resolve().parents[1] / "out"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pcf_command(capsys):
    code, out = run(capsys, "pcf", "--s", "1", "--y", "0")
    assert code == 0
    val = float(out.strip().splitlines()[-1].split(",")[-1])
    assert val == pytest.approx(np.sqrt(np.pi / 2), rel=1e-12)


def test_output_is_deterministic(capsys):
    _, a = run(capsys, "lambda", "--model", "abm", "--mu", "1.0",
               "--barrier", "0.5", "--exact")
    _, b = run(capsys, "lambda", "--model", "abm", "--mu", "1.0",
               "--barrier", "0.5", "--exact")
    assert a == b
    assert a.startswith("# fpt ")


def test_csv_headers_echo_parameters(capsys):
    _, out = run(capsys, "lambda", "--model", "dry_friction", "--mu", "2.0",
                 "--barrier", "0.0")
    header = [l for l in out.splitlines() if l.startswith("# config:")][0]
    echoed = json.loads(header.split("# config:", 1)[1])
    assert echoed["params"]["mu"] == 2.0
    assert echoed["command"] == "lambda"


@pytest.mark.parametrize("model, params", [
    ("ou", {}), ("dry_friction", {"mu": 1.0}),
    ("tanh", {"alpha": 2.0, "gamma": 1.0})])
def test_config_record_holds_only_the_model_parameters(capsys, model, params):
    _, out = run(capsys, "fig1", "--model", model, "--sweep=0:1:2")
    cfg = json.loads(out.splitlines()[2].removeprefix("# config: "))
    assert cfg["params"] == params
    assert set(cfg["options"]) == {"sweep"}


def test_lambda_sweep_columns(capsys):
    code, out = run(capsys, "lambda", "--model", "ou", "--sweep", "0:1:3",
                    "--exact")
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "y_plus,lambda_est,lambda_exact,lambda_asym_left,lambda_asym_right"
    assert len(rows) == 4
    first = rows[1].split(",")
    assert float(first[1]) == pytest.approx(1.0, rel=0.05)
    assert float(first[2]) == pytest.approx(1.0, abs=1e-8)


def test_hseries_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _ = run(capsys, "hseries", "--model", "abm", "--rmax", "3",
                  "--zmax", "0.5", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "z,h_1,h_2,h_3"
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, rel=1e-6)
    assert float(last[3]) == pytest.approx(2.0, rel=1e-3)


def test_cumulants_command(capsys):
    code, out = run(capsys, "cumulants", "--model", "ou", "--start", "0",
                    "--barrier", "1", "--rmax", "2")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    k1 = float(rows[1][1])
    assert k1 == pytest.approx(2.0934, abs=2e-3)


def test_cumulants_command_dimensional_column(tmp_path, capsys):
    """The dimensional column is the dimensionless one over kappa^r, with
    kappa the config field's time scale."""
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps({"type": "expr", "A": "-y - 0.1*sin(y)",
                                "kappa": 1.7}))
    code, out = run(capsys, "cumulants", "--config", str(path), "--start",
                    "-1.5", "--barrier", "0.5", "--rmax", "4")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["r", "kappa_r_dimensionless", "kappa_r_dimensional"]
    for r, k, kd in rows[1:5]:
        assert float(kd) == float(k) / 1.7 ** int(r)
    assert rows[5][0] == "mean_direct" and rows[5][2] == ""


def test_oracle_pde_command(capsys):
    code, out = run(capsys, "oracle", "pde", "--model", "ou", "--start", "-1",
                    "--barrier", "0", "--tmax", "2", "--dy", "0.02",
                    "--dtau", "0.004")
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "tau,F,f"


def test_oracle_mc_command(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    code, _ = run(capsys, "oracle", "mc", "--model", "ou", "--start", "-0.5",
                  "--barrier", "0.5", "--tmax", "8", "--paths", "4000",
                  "--dtau", "0.002", "--seed", "4", "--out", str(out))
    assert code == 0
    assert out.exists() and (tmp_path / "mc_cdf.csv").exists()


def test_oracle_mc_reads_dt_as_a_prefix_of_dtau(capsys):
    """mc's Euler step is --dtau, and the unique prefix --dt still sets it."""
    argv = ["oracle", "mc", "--model", "ou", "--start", "-0.5", "--barrier",
            "0.5", "--tmax", "8", "--paths", "4000", "--seed", "4"]
    code_dt, out_dt = run(capsys, *argv, "--dt", "0.002")
    code_dtau, out_dtau = run(capsys, *argv, "--dtau", "0.002")
    _, out_default = run(capsys, *argv)
    assert code_dt == code_dtau == 0
    assert _csv_rows(out_dt) == _csv_rows(out_dtau) != _csv_rows(out_default)


def test_table1_command(capsys):
    code, out = run(capsys, "table1")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["y_plus", "lambda_exact", "lambda_est"]
    data = {float(r[0]): float(r[1]) for r in rows[1:]}
    assert data[0.0] == pytest.approx(1.0, abs=1e-8)
    assert data[-1.0] == pytest.approx(2.0, abs=1e-8)
    assert data[-0.5] == pytest.approx(1.449, abs=5e-4)
    assert data[0.5] == pytest.approx(0.649, abs=5e-4)
    assert data[2.0] == pytest.approx(0.0973, abs=5e-4)


def _csv_rows(text):
    return [l.split(",") for l in text.splitlines() if not l.startswith("#")]


@pytest.mark.parametrize("ref", ["table1.csv", "fig1_ou.csv", "fig1_tanh.csv",
                                 "fig1_dry_friction.csv"])
def test_rate_tables_reproduce_out_references(capsys, ref):
    """Rerun the command recorded in the header of a stored rate table and
    compare every cell to 1e-9 relative: the exact and estimated rates of
    table1, and the estimates, exact rates, asymptotes and markers of fig1.
    The fresh `# config:` record is the stored one but for its "out"."""
    text = (OUT_DIR / ref).read_text()
    cfg = json.loads(text.splitlines()[2].removeprefix("# config: "))
    argv = [cfg["command"]]
    if cfg["command"] == "fig1":
        argv += ["--model", cfg["model"], "--sweep=" + cfg["options"]["sweep"]]
        argv += [f"--{k}={v}" for k, v in cfg["params"].items()]
    code, out = run(capsys, *argv)
    assert code == 0
    fresh_cfg = json.loads(out.splitlines()[2].removeprefix("# config: "))
    assert fresh_cfg.pop("out") is None
    assert fresh_cfg == {k: v for k, v in cfg.items() if k != "out"}
    stored, fresh = _csv_rows(text), _csv_rows(out)
    assert fresh[0] == stored[0] and len(fresh) == len(stored)
    for new, old in zip(fresh[1:], stored[1:]):
        for a, b in zip(new, old):
            try:
                b = float(b)
            except ValueError:
                assert a == b
            else:
                assert float(a) == pytest.approx(b, rel=1e-9, abs=0.0)


def test_fig1_markers(capsys):
    code, out = run(capsys, "fig1", "--model", "ou", "--sweep=-2:1:7")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    markers = [r for r in rows[1:] if r[0] == "marker"]
    # Hermite zeros at 0, -1, -sqrt(3) fall inside [-2, 1]
    assert len(markers) == 3
    assert sorted(float(m[3]) for m in markers) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("alpha, marker", [("3", [2.0]), ("2", [1.0]),
                                           ("1.5", [])])
def test_fig1_tanh_marker(capsys, alpha, marker):
    # the n=1 level gamma*(alpha - gamma) at y_plus = 0 where it is bound,
    # or where it meets the branch point alpha^2/4 (alpha = 2 gamma)
    code, out = run(capsys, "fig1", "--model", "tanh", "--alpha", alpha,
                    "--sweep=-1:1:3")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert [(float(r[1]), float(r[3])) for r in rows if r[0] == "marker"] == [
        (0.0, lam) for lam in marker]


def test_validate_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _ = run(capsys, "validate", "--model", "ou", "--barriers", "0",
                  "--offsets", "1", "--tmax", "8", "--dy", "0.02",
                  "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    case = report["cases"][0]
    assert case["status"] == "ok"
    assert case["l1"] < 5e-3
    assert abs(case["normalization_residual"]) < 1e-8
    assert (tmp_path / "report_curves.csv").exists()


def test_validate_report_counts_the_pde_steps(capsys):
    """Each case reports the time steps of its barrier's PDE solve."""
    code, out = run(capsys, "validate", "--model", "ou", "--barriers", "0",
                    "--offsets=1,2", "--tmax", "8", "--dy", "0.02")
    assert code == 0
    g = fpt.solve_pde(fpt.builtin("ou")[0], 0.0, dy=0.02, dtau=1e-3,
                      tau_max=8.0, probe_y=(-1.0,))
    steps = [case["pde_steps"] for case in json.loads(out)["cases"]]
    assert steps == [len(g.probe_tau) - 1] * 2 and steps[0] > 0


def test_validate_report_counts_the_cn_steps(capsys):
    """Each case reports how many of its solve's time steps were CN steps;
    the rest of the grid is the spectral tail."""
    code, out = run(capsys, "validate", "--model", "ou", "--barriers", "1",
                    "--offsets=1,2", "--tmax", "20", "--dy", "0.02")
    assert code == 0
    g = fpt.solve_pde(fpt.builtin("ou")[0], 1.0, dy=0.02, dtau=1e-3,
                      tau_max=20.0, probe_y=(0.0,))
    cases = json.loads(out)["cases"]
    assert [case["pde_cn_steps"] for case in cases] == [g.cn_steps] * 2
    assert 0 < g.cn_steps < cases[0]["pde_steps"] == len(g.probe_tau) - 1


@pytest.fixture(scope="module", params=["ou", "tanh", "dry_friction"])
def validate_rerun(request, tmp_path_factory):
    """The stored out/validate_<model>.json and the report of rerunning the
    command recorded in the `# config:` header of its curves file."""
    model = request.param
    header = (OUT_DIR / f"validate_{model}_curves.csv").read_text().splitlines()[2]
    cfg = json.loads(header.removeprefix("# config: "))
    argv = ["validate", "--model", cfg["model"]]
    argv += [f"--{k}={v}" for k, v in cfg["params"].items()]
    argv += [f"--{k.replace('_', '-')}={v}"
             for k, v in cfg["options"].items() if v is not None]
    out = tmp_path_factory.mktemp(model) / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    stored = json.loads((OUT_DIR / f"validate_{model}.json").read_text())
    return stored["cases"], json.loads(out.read_text())["cases"]


def test_validate_reproduces_out_references(validate_rerun):
    """Every case of a stored validate report comes back on the same time
    grid, with its rate and calibration to 1e-9 relative and its L1 to
    1e-4."""
    stored, fresh = validate_rerun
    assert len(fresh) == len(stored) == 9
    for new, old in zip(fresh, stored):
        assert (new["y_plus"], new["y0"]) == (old["y_plus"], old["y0"])
        assert new["status"] == old["status"] == "ok"
        assert new["pde_steps"] == old["pde_steps"]
        assert new["lam"] == pytest.approx(old["lam"], rel=1e-9, abs=0.0)
        assert new["rho"] == pytest.approx(old["rho"], rel=1e-9, abs=0.0)
        assert new["l1"] == pytest.approx(old["l1"], rel=0.0, abs=1e-4)


def test_every_validate_grid_switches_to_the_spectral_tail(validate_rerun):
    """Each of the nine solves of the acceptance grids (C06) finishes on
    the spectral tail: fewer CN steps than time steps."""
    _, fresh = validate_rerun
    assert all(case["pde_cn_steps"] < case["pde_steps"] for case in fresh)


def test_validate_curves_sit_beside_an_extensionless_report(tmp_path, monkeypatch,
                                                            capsys):
    # "./report" has no extension: the curves go to ./report_curves.csv,
    # not ./_curves.csv
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, "validate", "--model", "ou", "--barriers", "0",
                  "--offsets", "1", "--tmax", "8", "--dy", "0.02",
                  "--out", "./report")
    assert code == 0
    assert json.loads((tmp_path / "report").read_text())["cases"]
    assert (tmp_path / "report_curves.csv").exists()
    assert not (tmp_path / "_curves.csv").exists()


def test_validate_solves_once_per_barrier(monkeypatch, capsys):
    """The starts of one barrier share one PDE solve, and each case reports
    what a run of its start alone reports; a start outside the PDE grid
    fails alone."""
    from fpt import cli
    calls = []
    real = cli._oracle.solve_pde

    def counting(*args, **kwargs):
        calls.append(kwargs["probe_y"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli._oracle, "solve_pde", counting)
    common = ["validate", "--model", "ou", "--barriers", "0", "--tmax", "2",
              "--dy", "0.02"]
    code, out = run(capsys, *common, "--offsets=1,2")
    assert code == 0 and calls == [[-1.0, -2.0]]
    joint = json.loads(out)["cases"]
    for case, off in zip(joint, ["1", "2"]):
        code, out = run(capsys, *common, f"--offsets={off}")
        assert case["status"] == "ok"
        assert json.loads(out)["cases"] == [case]

    calls.clear()
    code, out = run(capsys, *common, "--offsets=1,13")
    cases = json.loads(out)["cases"]
    assert code == 0 and calls == [[-1.0, -13.0], [-1.0], [-13.0]]
    assert cases[0] == joint[0]
    assert cases[1]["status"] == "failed"
    assert "outside the open interval" in cases[1]["error"]


def test_exit_code_bad_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lambda", "--model", "nonsense"])
    assert exc.value.code == 3


def test_exit_code_bad_tanh_parameters(capsys):
    # a zero gamma is bad input (exit 3), not a division by zero
    assert main(["lambda", "--model", "tanh", "--gamma", "0", "--barrier", "0"]) == 3
    assert main(["lambda", "--model", "tanh", "--gamma", "0", "--barrier", "0",
                 "--exact"]) == 3
    assert main(["fig1", "--model", "tanh", "--alpha=-1", "--gamma=-1",
                 "--sweep=-1:1:3"]) == 3


@pytest.mark.parametrize("count", ["0", "-1"])
def test_exit_code_empty_or_negative_sweep(capsys, count):
    # a sweep of no barriers is bad input, not an empty table or a numpy error
    assert main(["lambda", "--model", "ou", f"--sweep=0:1:{count}"]) == 3
    assert "sweep count" in capsys.readouterr().err


# each used to end in a traceback, a hang (tau_max = inf) or exit 0 with
# zeros or NaN rows
@pytest.mark.parametrize("argv, option", [
    (["density", "--start", "-1", "--barrier", "0", "--n", "0"], "--n"),
    (["validate", "--model", "ou", "--barriers", "0", "--offsets", "1",
      "--tmax", "2", "--dy", "0.02", "--curve-stride", "0"], "--curve-stride"),
    (["cumulants", "--start", "nan", "--barrier", "1"], "--start"),
    (["density", "--start", "0", "--barrier", "1", "--tmax", "nan"], "--tmax"),
    (["lambda", "--barrier", "nan"], "--barrier"),
    (["oracle", "pde", "--start", "0", "--barrier", "1", "--tmax", "inf"],
     "--tmax"),
    (["oracle", "mc", "--start", "0", "--barrier", "1", "--paths", "-5"],
     "--paths")])
def test_exit_code_bad_number_option(capsys, monkeypatch, argv, option):
    def unreachable(*args):
        raise AssertionError("the PDE time grid was built")

    monkeypatch.setattr(cli._oracle, "_time_steps", unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert option in capsys.readouterr().err


def test_exit_code_nonfinite_sweep(capsys):
    assert main(["lambda", "--model", "ou", "--sweep=nan:1:3"]) == 3
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--barriers", "a"),
                                           ("--offsets", "1,,2"),
                                           ("--offsets", "1,nan"),
                                           ("--barriers", "inf")])
def test_exit_code_bad_validate_list(capsys, option, value):
    # a list that is not finite numbers is bad input, not a ValueError
    # traceback or a case that fails
    assert main(["validate", "--model", "ou", f"{option}={value}"]) == 3
    assert option in capsys.readouterr().err


def test_exit_code_numeric_failure(capsys):
    code = main(["pcf", "--s", "1", "--y", "100"])
    assert code == 2


@pytest.mark.parametrize("spec, named", [
    ('{"type": "builtin", "name": "ou"}', "'builtin'"),
    ("{not json", "PATH"),
    ("[1, 2]", "PATH"),
    ({"type": "table", "A": [0.0, -1.0, -2.0, -3.0]}, "'y'"),
    ({"type": "table", "y": [0.0, 1.0, 2.0, 3.0]}, "'A'"),
    ({"type": "expr", "domain": [-5, 5]}, "'A'"),
    (None, "PATH")])
def test_exit_code_malformed_field_spec(tmp_path, capsys, spec, named):
    """A spec of an unknown type (a builtin is named by --model, not by a
    spec) or with a missing key, a missing file and a file that is not a
    JSON object are bad input (exit 3) with the type, the key or the path
    named, not a traceback."""
    path = tmp_path / "field.json"
    if spec is not None:
        path.write_text(spec if isinstance(spec, str) else json.dumps(spec))
    assert main(["lambda", "--config", str(path)]) == 3
    assert named.replace("PATH", str(path)) in capsys.readouterr().err


def test_exit_code_unevaluable_expr_field(tmp_path, capsys):
    path = tmp_path / "floor.json"
    path.write_text(json.dumps({"type": "expr", "A": "-y - floor(y)"}))
    code, _ = run(capsys, "lambda", "--config", str(path), "--barrier", "0.0")
    assert code == 3


def test_exit_code_drift_that_does_not_revert(tmp_path, capsys):
    """A drift whose psi does not decay at an end of its domain is bad
    input, not a rate set by where the domain is cut."""
    path = tmp_path / "kink.json"
    path.write_text(json.dumps({"type": "expr", "A": "-y - Abs(y - 0.77)",
                                "domain": [-30, 30]}))
    assert main(["lambda", "--config", str(path), "--barrier", "1.0"]) == 3
    assert "left end y = -30" in capsys.readouterr().err


def test_custom_field_config(tmp_path, capsys):
    y = np.linspace(-12, 12, 49)
    spec = {"type": "table", "y": y.tolist(), "A": (-y).tolist(),
            "domain": [-12, 12]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "lambda", "--config", str(path), "--barrier", "0.0")
    assert code == 0
    est = float([l for l in out.splitlines() if not l.startswith("#")][1].split(",")[1])
    assert est == pytest.approx(0.9546, rel=5e-3)   # tabulated OU drift


def test_config_record_names_custom_field(tmp_path, capsys):
    """A --config field is recorded as "custom" with no builtin parameters,
    whatever --model says, and has no exact rate."""
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"type": "expr", "A": "-2*tanh(y)"}))
    code, out = run(capsys, "lambda", "--config", str(path), "--model", "tanh",
                    "--alpha", "3", "--barrier", "0", "--exact")
    assert code == 0
    lines = out.splitlines()
    cfg = json.loads(lines[2].removeprefix("# config: "))
    assert (cfg["model"], cfg["params"], cfg["config"]) == ("custom", {}, str(path))
    assert set(cfg["options"]) == {"barrier", "exact", "sweep"}
    assert lines[4].split(",")[2] == ""


def test_density_with_custom_config_field(tmp_path, capsys):
    spec = {"type": "expr", "A": "-y", "domain": [-25, 25]}
    path = tmp_path / "ou_expr.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "density", "--config", str(path), "--start", "-1",
                    "--barrier", "0", "--tmax", "5", "--n", "10")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    tau = np.array([float(r[0]) for r in rows[1:]])
    f = np.array([float(r[1]) for r in rows[1:]])
    # the CLI must reproduce the library pipeline on the same field...
    import fpt
    ff, im = fpt.load_field(json.loads(path.read_text()))
    model = fpt.build_model(ff, im, -1.0, 0.0)
    assert f == pytest.approx(fpt.eval_density(model, tau), rel=1e-9)
    # ...and, with the decay rate coming from the accelerated estimate
    # (~4.5% low for this field), still track the known exact values
    # within the worst-case compounding exp(|d_lam| tau) of that rate error
    q = np.exp(-2 * tau)
    ref = (np.exp(-tau) / np.sqrt(np.pi * (1 - q) ** 3 / 2)
           * np.exp(-np.exp(-2 * tau) / (2 * (1 - q))))
    band = 0.02 + np.expm1(abs(model.lam - 1.0) * tau)
    assert np.all(np.abs(f / ref - 1.0) < band)


def test_fig1_dry_friction_plateau(capsys):
    code, out = run(capsys, "fig1", "--model", "dry_friction", "--mu", "1.0",
                    "--sweep=-1.5:0.5:5")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    ests = [float(r[2]) for r in rows[1:] if r[0] == "sweep"]
    # boundary below the knee: the rate stays pinned at mu^2/4
    assert ests == pytest.approx([0.25] * len(ests), rel=0.09)


def test_oracle_tree_command(capsys):
    code, out = run(capsys, "oracle", "tree", "--model", "ou", "--start", "-1",
                    "--barrier", "0", "--tmax", "4", "--dtau", "0.002")
    assert code == 0
    rows = [l.split(",") for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == ["tau", "absorbed_mass", "F"]
    assert 0.0 < float(rows[-1][2]) <= 1.0


def _cli_functions():
    """Per function of the CLI module: the options it reads, as args.<dest>
    or getattr(args, "<dest>") (a _MODEL_PARAMS lookup reads every model
    parameter), and the module functions it calls."""
    tree = ast.parse(inspect.getsource(cli))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    model_params = {k for names in cli._MODEL_PARAMS.values() for k in names}
    reads, calls = {}, {}
    for name, fn in defs.items():
        reads[name], calls[name] = set(), set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "args"):
                reads[name].add(node.attr)
            elif isinstance(node, ast.Name) and node.id == "_MODEL_PARAMS":
                reads[name] |= model_params
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if (node.func.id == "getattr" and len(node.args) >= 2
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "args"
                        and isinstance(node.args[1], ast.Constant)):
                    reads[name].add(node.args[1].value)
                elif node.func.id in defs:
                    calls[name].add(node.func.id)
    return reads, calls


# echoes every option into the CSV header, so it reads all of them and
# shows none of them to be used
NOT_A_READER = {"_config_json"}


def test_every_cli_option_is_read():
    """Each option a subcommand declares is read by its cmd_* function or
    by a helper that function calls."""
    reads, calls = _cli_functions()
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sp in subparsers.choices.items():
        reached, todo = set(), [cli.COMMANDS[command].__name__]
        while todo:
            fn = todo.pop()
            if fn not in reached and fn not in NOT_A_READER:
                reached.add(fn)
                todo += calls[fn]
        read = set().union(*(reads[fn] for fn in reached))
        unread += [f"{command} {a.dest}" for a in sp._actions
                   if a.dest != "help" and a.dest not in read]
    assert not unread


@pytest.mark.parametrize("argv", [
    ["lambda", "--model", "tanh", "--parameterization", "ratio"],
    ["pcf", "--s", "1", "--y", "0", "--zero", "1"],
    ["lambda", "--seed", "1"],
    ["lambda", "--rmax", "6"],
    ["fig1", "--rmax", "6"],
    ["density", "--start", "-1", "--barrier", "0", "--validate"]])
def test_removed_options_are_bad_input(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
