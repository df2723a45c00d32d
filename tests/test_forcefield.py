import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

import fpt
from fpt.errors import InputError


ALL_BUILTINS = ["ou", "dry_friction", "tanh", "abm"]


def _pair(name):
    return fpt.builtin(name)


# ----------------------------------------------------------------------
# invariant density consistency
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_psi_log_derivative_is_A(name):
    """psi'/psi = A by central differences at 10^4 random smooth points."""
    ff, im = _pair(name)
    rng = np.random.default_rng(7)
    y = rng.uniform(-6.0, 6.0, 10_000)
    y = y[np.abs(y) > 1e-3]           # keep away from kinks
    h = 1e-6
    fd = (im.log_psi(y + h) - im.log_psi(y - h)) / (2 * h)
    assert np.max(np.abs(fd - ff.A(y))) < 1e-6


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_A_prime_consistent_with_A(name):
    ff, _ = _pair(name)
    if name == "dry_friction":
        # the stated convention for this model: derivative 0 everywhere
        assert np.all(ff.A_prime(np.linspace(-3, 3, 101)) == 0.0)
        return
    y = np.linspace(-5, 5, 401)
    h = 1e-6
    fd = (ff.A(y + h) - ff.A(y - h)) / (2 * h)
    assert np.max(np.abs(fd - ff.A_prime(y))) < 1e-6


def test_builtin_closed_forms():
    _, im_ou = _pair("ou")
    assert im_ou.psi(0.0) == pytest.approx(1 / np.sqrt(2 * np.pi), rel=1e-14)

    _, im_df = fpt.builtin("dry_friction", mu=1.0)
    y = np.array([-2.0, -0.5, 0.7])
    assert im_df.psi(y) == pytest.approx(np.exp(-np.abs(y)) / 2, rel=1e-14)

    _, im_t = fpt.builtin("tanh", alpha=2.0, gamma=1.0)
    assert im_t.psi(y) == pytest.approx(0.5 / np.cosh(y) ** 2, rel=1e-13)

    _, im_abm = fpt.builtin("abm", mu=0.7)
    assert not im_abm.normalizable
    assert im_abm.psi(1.3) == pytest.approx(np.exp(0.7 * 1.3), rel=1e-14)


def test_psi_nonnegative_and_Psi_monotone():
    for name in ALL_BUILTINS:
        ff, im = _pair(name)
        y = np.linspace(-8, 8, 400)
        assert np.all(im.psi(y) >= 0)
        assert np.all(np.diff(np.exp(im.log_Psi(y))) >= -1e-14)
        if im.normalizable:
            assert np.exp(im.log_Psi(40.0)) == pytest.approx(1.0, abs=1e-9)


def test_quadrature_measure_matches_closed_forms():
    """Quadrature-backed Psi vs the exact normal CDF, and vs the piecewise
    exponential of dry friction, to 1e-10."""
    im = fpt.measure_from_drift(lambda y: -np.asarray(y, float),
                                domain=(-12.0, 12.0))
    pts = np.array([-3.2, -1.0, -0.3, 0.0, 0.41, 1.7, 2.9])
    assert np.exp(im.log_Psi(pts)) == pytest.approx(norm.cdf(pts), abs=1e-10)
    assert im.psi(pts) == pytest.approx(norm.pdf(pts), rel=1e-9)

    mu = 1.0
    im_df = fpt.measure_from_drift(lambda y: -mu * np.sign(y),
                                   domain=(-40.0, 40.0))
    ref = np.where(pts <= 0, np.exp(mu * pts) / 2, 1 - np.exp(-mu * pts) / 2)
    assert np.exp(im_df.log_Psi(pts)) == pytest.approx(ref, abs=1e-10)

    # the same kink between nodes (spacing 1/8 puts 0.3 inside a panel)
    im_k = fpt.measure_from_drift(lambda y: -np.sign(y - 0.3),
                                  domain=(-40.0, 40.0))
    u = pts - 0.3
    ref = np.where(u <= 0, np.exp(u) / 2, 1 - np.exp(-u) / 2)
    assert np.exp(im_k.log_Psi(pts)) == pytest.approx(ref, abs=1e-8)
    assert im_k.log_psi(pts) == pytest.approx(np.log(0.5) - np.abs(u), abs=1e-8)

    # tanh drift against the builtin closed form, deep into the left tail
    z = fpt.HGrid().nodes
    im_t = fpt.measure_from_drift(lambda y: -2.0 * np.tanh(y))
    _, im_ref = fpt.builtin("tanh", alpha=2.0, gamma=1.0)
    assert z[0] == -10.0
    assert im_t.log_Psi(z) == pytest.approx(im_ref.log_Psi(z), rel=1e-9)
    # for p = amp/gamma = 2, Psi is the logistic function: exact on the grid
    assert im_ref.log_Psi(z) == pytest.approx(-np.log1p(np.exp(-2.0 * z)),
                                              rel=1e-12)


def test_quadrature_measure_far_left_asymptote():
    """For A = -y^3, Psi underflows left of about -7.25, and log Psi there
    is the asymptote log psi - log|A|, off by about 3/y^4 from the exact
    log(Psi/psi); to its right Psi is the quadrature."""
    import mpmath as mp

    def log_ratio(y):
        # log(Psi/psi) = log int_0^inf exp((y^4 - (y - u)^4)/4) du
        with mp.workdps(30):
            y = mp.mpf(y)
            f = lambda u: mp.exp((y**4 - (y - u) ** 4) / 4)
            return float(mp.log(mp.quad(f, [0, 1e-4, 1e-3, 1e-2, 0.1, 1, mp.inf])))

    ff, im = fpt.load_field({"type": "expr", "A": "-y**3", "domain": [-30, 30]})
    for y, tol in ((-12.0, 2e-4), (-6.0, 1e-12)):
        got = float(im.log_Psi(y) - im.log_psi(y))
        assert got == pytest.approx(log_ratio(y), abs=tol)
    # the h-table seeds read the asymptote at Z = -10
    assert np.isfinite(fpt.estimate_lambda(ff, im, 0.5).lam)


def test_quadrature_measure_calls_drift_a_fixed_number_of_times():
    """Queries are answered by vectorized calls of A: the count does not
    grow with the number of query points."""
    calls = []

    def A(y):
        calls.append(np.size(y))
        return -np.asarray(y, float) - 0.1 * np.sin(y)

    im = fpt.measure_from_drift(A, domain=(-30.0, 30.0))
    z = fpt.HGrid(z_max=3.0).nodes
    assert z.size == 417
    counts = []
    for q in (z[:5], z):
        calls.clear()
        im.log_psi(q)
        im.log_Psi(q)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_ou(ou):
    assert fpt.classify(ou[0]) is True


def test_classify_dry_friction(dry_friction):
    assert fpt.classify(dry_friction[0]) is True


def test_classify_abm(abm):
    assert fpt.classify(abm[0]) is True


def test_classify_slow_field_not_in_S():
    # A = -y/(1+y^2): -y A -> 1, not infinity
    A = lambda y: -np.asarray(y, float) / (1 + np.asarray(y, float) ** 2)
    Ap = lambda y: (np.asarray(y, float) ** 2 - 1) / (1 + np.asarray(y, float) ** 2) ** 2
    ff = fpt.ForceField(A, Ap, label="slow")
    assert fpt.classify(ff) is False


# ----------------------------------------------------------------------
# JSON loading
# ----------------------------------------------------------------------

def test_load_table_field(tmp_path):
    y = np.linspace(-12, 12, 97)
    spec = {"type": "table", "y": y.tolist(), "A": (-y).tolist(),
            "domain": [-12, 12]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    ff, im = fpt.load_field(str(path))
    q = np.array([-2.3, 0.4, 1.9])
    assert ff.A(q) == pytest.approx(-q, abs=1e-9)
    assert np.exp(im.log_Psi(0.0)) == pytest.approx(0.5, abs=1e-7)


def test_load_expr_field():
    ff, im = fpt.load_field({"type": "expr", "A": "-y - 0.1*sin(y)",
                             "domain": [-30, 30]})
    assert ff.A(2.0) == pytest.approx(-2.0 - 0.1 * np.sin(2.0), rel=1e-12)
    # sympy derivative is exact
    assert ff.A_prime(2.0) == pytest.approx(-1.0 - 0.1 * np.cos(2.0), rel=1e-12)


def test_load_expr_field_with_kinks():
    # over a real y, sign and Abs differentiate in closed form; the delta
    # of a jump counts as 0 in A', as in the dry-friction field
    q = np.array([-1.5, 0.5, 2.0])
    ff, im = fpt.load_field({"type": "expr", "A": "-sign(y)",
                             "domain": [-30, 30]})
    assert np.all(ff.A_prime(q) == 0.0)
    _, im_df = fpt.builtin("dry_friction", mu=1.0)
    assert im.log_Psi(q) == pytest.approx(im_df.log_Psi(q), rel=1e-9)
    ff, im = fpt.load_field({"type": "expr", "A": "-y - Abs(y - 0.77)",
                             "domain": [-30, 30]})
    assert ff.A_prime(q) == pytest.approx([0.0, 0.0, -2.0], abs=1e-15)
    assert np.all(np.isfinite(im.log_Psi(q)))


def test_load_expr_rejects_drift_that_is_rounding_noise():
    # cos^2 + sin^2 - 1 is 0 up to rounding, and 1e6 times that rounding
    # noise cannot be integrated to 1e-14: the open segments must be
    # capped, not doubled until memory runs out
    with pytest.raises(fpt.NumericsError, match="did not converge"):
        fpt.load_field({"type": "expr",
                        "A": "-y + 1e6*(cos(y)**2 + sin(y)**2 - 1)"})


def test_segment_quadrature_raises_when_rounds_run_out(monkeypatch):
    from fpt import forcefield
    jump = lambda x, _: np.sign(x - 1 / 3)
    assert forcefield._integrate_segments(jump, 0.0, 1.0) == pytest.approx(1 / 3, rel=1e-13)
    # a jump takes about 40 rounds
    monkeypatch.setattr(forcefield, "_SEG_MAX_ROUNDS", 8)
    with pytest.raises(fpt.NumericsError, match="after round 8"):
        forcefield._integrate_segments(jump, 0.0, 1.0)


@pytest.mark.parametrize("s", [1e9, 1e12, 1e15])
def test_segment_quadrature_raises_on_a_spike_at_a_node(s):
    # the first round samples the height-s spike of unit mass at x = 0; had
    # the pieces split from it kept that node's inflated L1 mass as their
    # tolerance scale, a wrong value would come back (0.848 for s = 1e15)
    from fpt import forcefield
    spike = lambda x, _: np.where(x < 1 / s, s, 0.0)
    with pytest.raises(fpt.NumericsError, match="did not converge"):
        forcefield._integrate_segments(spike, 0.0, 1.0)


@pytest.mark.parametrize("expr", ["-y - floor(y)", "-y - gamma(y)"])
def test_load_expr_rejects_unevaluable_field(expr):
    with pytest.raises(InputError, match="cannot evaluate"):
        fpt.load_field({"type": "expr", "A": expr, "domain": [-30, 30]})


def test_load_rejects_unknown_type():
    with pytest.raises(InputError):
        fpt.load_field({"type": "nope"})


@given(st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_dry_friction_measure_properties(y):
    _, im = fpt.builtin("dry_friction", mu=1.0)
    assert 0.0 <= np.exp(im.log_Psi(y)) <= 1.0
    assert im.psi(y) > 0.0
