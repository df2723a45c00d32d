from dataclasses import replace
import warnings

import numpy as np
import pytest
from scipy import integrate, special

import fpt
import fpt.density as density
from fpt.density import _gauss_legendre, _normalizer
from fpt.errors import InputError, NumericsError


def _ou0_log_closed_form(tau, y0):
    """Known exact first-passage density for OU with the boundary at
    equilibrium, evaluated in 50-digit arithmetic so the comparison is
    independent of the library's floating-point arrangement."""
    import mpmath as mp
    out = []
    with mp.workdps(50):
        for t in np.atleast_1d(tau):
            t = mp.mpf(float(t))
            q = mp.e ** (-2 * t)
            val = (abs(mp.mpf(y0)) * mp.e ** (-t)
                   / mp.sqrt(mp.pi * (1 - q) ** 3 / 2)
                   * mp.e ** (-(y0 * mp.e ** (-t)) ** 2 / (2 * (1 - q))))
            out.append(float(mp.log(val)))
    return np.array(out)


def _invgauss(tau, b, mu):
    return (b / np.sqrt(4 * np.pi * tau**3)
            * np.exp(-(b - mu * tau) ** 2 / (4 * tau)))


# ----------------------------------------------------------------------
# theta and nu
# ----------------------------------------------------------------------

def test_theta_fisher_ou(ou):
    assert fpt.theta_fisher(*ou) == pytest.approx(1.0, abs=1e-10)


def test_theta_fisher_dry_friction_warns(dry_friction):
    # <A^2> = mu^2 a.e., but <-A'> = 0 under the kink convention
    with pytest.warns(UserWarning):
        val = fpt.theta_fisher(*dry_friction)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_theta_fisher_tanh(tanh2):
    # alpha^2 gamma/(alpha+gamma) for A = -alpha tanh(gamma y): 4/3 here
    assert fpt.theta_fisher(*tanh2) == pytest.approx(4.0 / 3.0, rel=1e-8)
    assert tanh2[1].fisher_theta == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_theta_fisher_abm_is_zero(abm):
    with pytest.warns(UserWarning):
        assert fpt.theta_fisher(*abm) == 0.0


def test_theta_quadrature_route_matches_closed_form(ou):
    ff, _ = ou
    im_q = fpt.measure_from_drift(ff.A, domain=(-12.0, 12.0))
    assert fpt.theta_fisher(ff, im_q) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("expr, exact", [("-y", 1.0), ("-2*tanh(y)", 4.0 / 3.0)])
def test_theta_of_expression_fields_matches_closed_form(expr, exact):
    for domain in ([-30, 30], [-40, 40]):
        ff, im = fpt.load_field({"type": "expr", "A": expr, "domain": domain})
        assert fpt.theta_fisher(ff, im) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_theta_of_expression_field_matches_mpmath():
    """<A^2> for A = -y - 0.1 sin y, psi ~ exp(-y^2/2 + 0.1 cos y), from a
    30-digit mpmath quadrature over the whole line."""
    import mpmath as mp
    ff, im = fpt.load_field({"type": "expr", "A": "-y - 0.1*sin(y)",
                             "domain": [-30, 30]})
    with mp.workdps(30):
        psi = lambda y: mp.exp(-y * y / 2 + mp.cos(y) / 10)
        a2 = mp.quad(lambda y: (y + mp.sin(y) / 10) ** 2 * psi(y), [-mp.inf, 0, mp.inf])
        exact = float(a2 / mp.quad(psi, [-mp.inf, 0, mp.inf]))
    assert fpt.theta_fisher(ff, im) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_theta_reads_no_mass_outside_a_quadrature_measure():
    """A quadrature measure is 0 outside its domain, so theta over (-40, 40)
    sees only the measure.  -y - |y - 0.77|/2 is -(y + 0.77)/2 left of
    0.77 and -(3y - 0.77)/2 right of it.  On [-10.2, 5.6] log psi ends
    22.2 and 21.8 below its peak, just past the bound of the measure, and
    the mass past those ends would still move theta by 1.8e-9."""
    import mpmath as mp
    lo, hi = -10.2, 5.6
    ff, im = fpt.load_field({"type": "expr", "A": "-y - 0.5*Abs(y - 0.77)",
                             "domain": [lo, hi]})
    assert im.log_psi(lo - 0.5) == -np.inf
    assert im.psi(np.array([-35.0, 31.0])).tolist() == [0.0, 0.0]
    with mp.workdps(30):
        c = mp.mpf("0.77")
        left = lambda y: mp.exp(-y * y / 4 - c * y / 2)              # y <= 0.77
        right = lambda y: mp.exp(-3 * y * y / 4 + c * y / 2 - c * c / 2)

        def theta(a, b):
            mass = mp.quad(left, [a, -c, c]) + mp.quad(right, [c, b])
            a2 = (mp.quad(lambda y: (y + c) ** 2 / 4 * left(y), [a, -c, c])
                  + mp.quad(lambda y: (3 * y - c) ** 2 / 4 * right(y), [c, b]))
            return a2 / mass

        exact = float(theta(mp.mpf(lo), mp.mpf(hi)))
        unbounded = float(theta(-mp.inf, mp.inf))
    assert abs(unbounded / exact - 1.0) > 1e-9
    assert fpt.theta_fisher(ff, im) == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_theta_of_kinked_expression_field_warns():
    # A' of -sign(y) is 0 under the jump convention, so <-A'> = 0 != <A^2>
    ff, im = fpt.load_field({"type": "expr", "A": "-sign(y)", "domain": [-40, 40]})
    with pytest.warns(UserWarning, match="disagree"):
        val = fpt.theta_fisher(ff, im)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_theta_reads_the_mass_of_a_wide_expression_domain():
    """psi ~ exp(-y^2/200) on [-80, 80] keeps e^-8 of its peak at +-40, so
    theta widens its range to the measure's domain: <A^2> = 1e-4 <y^2>
    over a Gaussian of variance 100 (truncated at 8 sigma) is 0.01."""
    ff, im = fpt.load_field({"type": "expr", "A": "-0.01*y", "domain": [-80, 80]})
    assert fpt.theta_fisher(ff, im) == pytest.approx(0.01, rel=1e-12, abs=0.0)


def test_theta_reads_the_slow_tail_of_weak_dry_friction():
    """psi ~ exp(-0.1 |y|) is e^-4 of its peak at +-40; theta doubles its
    range to (-640, 640) and returns mu^2."""
    ff, im = fpt.builtin("dry_friction", mu=0.1)
    with pytest.warns(UserWarning, match="disagree"):
        val = fpt.theta_fisher(ff, im)
    assert val == pytest.approx(0.01, rel=1e-12, abs=0.0)


def test_theta_of_a_tail_too_heavy_for_its_range_is_a_numerics_error():
    # psi ~ exp(-1e-4 |y|) is still e^-1 of its peak at +-10240
    ff, im = fpt.builtin("dry_friction", mu=1e-4)
    with pytest.raises(NumericsError, match="doublings"):
        fpt.theta_fisher(ff, im)


def test_table_drift_derivative_serves_theta_and_nu(ou):
    """A tabulated A = -y: A' is the interpolant's slope, -1, inside the
    table and 0 outside it; theta's <A^2> and <-A'> agree (no warning),
    and nu at y+ = 1 is OU's."""
    y = np.linspace(-12, 12, 961)
    ff, im = fpt.load_field({"type": "table", "y": y.tolist(),
                             "A": (-y).tolist(), "domain": [-12, 12]})
    inside = np.array([-11.99, -3.3, 0.0, 0.37, 11.5])
    assert ff.A_prime(inside) == pytest.approx(-1.0, abs=1e-12)
    assert ff.A_prime(np.array([-20.0, -12.0, 12.0, 13.5])).tolist() == [0.0] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta = fpt.theta_fisher(ff, im)
    assert theta == pytest.approx(1.0, abs=1e-10)
    lam = fpt.rightmost_zero(1.0)
    assert fpt.nu_coefficient(ff, 1.0, lam, 1.0) == pytest.approx(
        fpt.nu_coefficient(ou[0], 1.0, lam, 1.0), rel=1e-12)


def test_theta_calls_a_smooth_drift_a_fixed_number_of_times():
    """theta evaluates A, A' and psi once per round on all nodes; a smooth
    field takes a few rounds, where scalar adaptive quadrature called the
    quadrature-backed psi hundreds of times."""
    calls = []

    def A(y):
        calls.append(np.size(y))
        return -np.asarray(y, float) - 0.1 * np.sin(y)

    ff = fpt.ForceField(A, lambda y: -1.0 - 0.1 * np.cos(np.asarray(y, float)))
    im = fpt.measure_from_drift(A, domain=(-30.0, 30.0))
    calls.clear()
    fpt.theta_fisher(ff, im)
    assert len(calls) <= 8


def test_nu_zero_at_equilibrium_boundary(ou):
    ff, _ = ou
    lam = fpt.lambda_exact("ou", 0.0)
    assert lam == 1.0
    assert fpt.nu_coefficient(ff, 1.0, lam, 0.0) == 0.0


def test_nu_identity_exact(ou):
    ff, _ = ou
    theta, lam, yp = 1.0, fpt.rightmost_zero(1.0), 1.0
    nu = fpt.nu_coefficient(ff, theta, lam, yp)
    lhs = theta * nu
    rhs = 3 * theta - 2 * lam + float(ff.A_prime(yp)) + 0.5 * float(ff.A(yp)) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert nu == pytest.approx(1.724, abs=5e-4)   # with the 3 s.f. rate 0.388


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

def test_rho_vanishes_at_equilibrium_boundary(ou):
    ff, im = ou
    for y0 in (-0.5, -1.0, -2.0):
        m = fpt.build_model(ff, im, y0, 0.0, model_name="ou")
        assert abs(m.rho) < 1e-6
        assert abs(m.calibration_residual) < 1e-10


def test_calibrated_density_integrates_to_one(ou, tanh2, dry_friction):
    """Independent check with adaptive quadrature (the calibration itself
    uses fixed-node rules, so this is a genuine cross-examination)."""
    cases = [(ou, -1.0, 1.0, "ou"),
             (tanh2, -1.5, 0.5, None),
             (dry_friction, -2.0, -1.0, "dry_friction")]
    for (ff, im), y0, yp, name in cases:
        m = fpt.build_model(ff, im, y0, yp, model_name=name)
        val, _ = integrate.quad(lambda t: fpt.eval_density(m, t), 0.0, np.inf,
                                limit=500)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_internal_normalization_matches_adaptive_quad(ou):
    ff, im = ou
    m = fpt.build_model(ff, im, -2.0, 1.0, model_name="ou")
    mine = _normalizer(m)(m.rho)
    ref, _ = integrate.quad(lambda t: fpt.eval_density(m, t), 0.0, np.inf,
                            limit=500, epsabs=1e-12, epsrel=1e-12)
    assert mine == pytest.approx(ref, abs=5e-10)


def test_rho_sensitivity_flagged_near_boundary(ou):
    ff, im = ou
    lam = fpt.rightmost_zero(0.5)
    raw = fpt.DensityModel(im=im, y0=0.5 - 1e-4, y_plus=0.5, theta=1.0,
                           lam=lam, nu=fpt.nu_coefficient(ff, 1.0, lam, 0.5))
    with pytest.warns(UserWarning, match="rho"):
        rho, sens, resid = fpt.calibrate_rho(raw)
    assert abs(sens) < 1e-4
    # rho-bearing factors are inert here: normalization barely moves with rho
    norm = _normalizer(raw)
    assert abs(norm(5.0) - norm(0.0)) < 5e-3


def test_rho_bracket_doubles_until_it_straddles_the_root(ou, monkeypatch):
    ff, im = ou
    rho = fpt.build_model(ff, im, -1.0, 1.0, model_name="ou").rho
    # the root lies outside [-0.01, 0.01], so two doublings are needed
    assert abs(rho) > 0.01
    monkeypatch.setattr(density, "_RHO_BRACKET", 0.01)
    m = fpt.build_model(ff, im, -1.0, 1.0, model_name="ou")
    assert m.rho == pytest.approx(rho, abs=1e-12)
    # five doublings of 1e-4 reach only 3.2e-3
    monkeypatch.setattr(density, "_RHO_BRACKET", 1e-4)
    with pytest.raises(fpt.NumericsError, match="rho bracket exhausted"):
        fpt.build_model(ff, im, -1.0, 1.0, model_name="ou")


def _normalization_per_call(model, rho, n_mid=400, n_tail=48, w_split=0.05):
    """Reference: the normalization built afresh for every rho, through
    the public log_density.  `_normalizer` must match it bit for bit."""
    m = replace(model, rho=float(rho))
    th, lam, b = m.theta, m.lam, m.b
    tau_c = -np.log1p(-1e-8) / (2.0 * th)
    head = special.erfc(b / (2.0 * np.sqrt(tau_c)))

    T = -np.log(w_split) / th
    a = lam / th
    xj, wj = special.roots_jacobi(n_tail, 0.0, a - 1.0)
    w_nodes = (xj + 1.0) * (w_split / 2.0)
    taus = -np.log(w_nodes) / th
    with np.errstate(under="ignore"):
        G = np.exp(fpt.log_density(m, taus) + lam * taus)
    tail = (w_split / 2.0) ** a * float(wj @ G) / th

    x_lo = b / (2.0 * np.sqrt(T))
    x_hi = min(b / (2.0 * np.sqrt(tau_c)), x_lo + 9.0)
    xg, wg = _gauss_legendre(n_mid)
    x = 0.5 * (xg + 1.0) * (x_hi - x_lo) + x_lo
    tau = b * b / (4.0 * x * x)
    log_ls = (np.log(b) - 0.5 * np.log(4.0 * np.pi * tau**3)
              - b * b / (4.0 * tau))
    with np.errstate(under="ignore"):
        ratio = np.exp(fpt.log_density(m, tau) - log_ls)
        mid = 0.5 * (x_hi - x_lo) * float(
            wg @ (ratio * (2.0 / np.sqrt(np.pi)) * np.exp(-x * x)))
    return head + mid + tail


@pytest.fixture(scope="module")
def sine_expr():
    return fpt.load_field({"type": "expr", "A": "-y - 0.1*sin(y)",
                           "domain": [-30, 30]})


def test_calibration_matches_per_call_normalization(ou, tanh2, dry_friction,
                                                    sine_expr, monkeypatch):
    cases = [(ou, "ou", -1.0, 3.0), (ou, "ou", -4.0, -2.5),
             (ou, "ou", -1.0, 1.0), (ou, "ou", -0.5, 0.0),
             (tanh2, None, -1.5, 0.5), (tanh2, None, -3.0, 2.0),
             (dry_friction, "dry_friction", -2.0, -1.0),
             (dry_friction, "dry_friction", -1.0, 2.0),
             (sine_expr, None, -2.0, 1.0), (sine_expr, None, -1.0, -0.5)]
    models = [fpt.build_model(*field, y0, yp, model_name=name)
              for field, name, y0, yp in cases]
    built = [fpt.calibrate_rho(m) for m in models]
    for m in models:
        norm = _normalizer(m)
        for r in (-40.0, -3.7, 0.0, 0.25, 11.0, m.rho):
            assert norm(r) == _normalization_per_call(m, r)
    monkeypatch.setattr(density, "_normalizer",
                        lambda m: lambda r: _normalization_per_call(m, r))
    reference = [fpt.calibrate_rho(m) for m in models]
    assert built == reference
    for m, (rho, sens, resid) in zip(models, built):
        assert (m.rho, m.rho_sensitivity, m.calibration_residual) == (rho, sens, resid)


def test_build_model_reads_log_psi_twice(sine_expr):
    ff, im = sine_expr
    calls = []

    def log_psi(y):
        calls.append(y)
        return im.log_psi(y)

    m = fpt.build_model(ff, replace(im, log_psi=log_psi), -2.0, 1.0,
                        theta=1.0625874635355, lam=0.3)
    assert m.calibration_residual is not None
    assert len(calls) <= 2


def test_lambda_source_selection(ou, tanh2):
    m = fpt.build_model(*ou, y0=-1.0, y_plus=1.0, model_name="ou")
    assert m.lambda_source == "exact"
    m2 = fpt.build_model(*tanh2, y0=-1.0, y_plus=1.0, model_name="tanh",
                         model_params={"alpha": 2.0, "gamma": 1.0})
    assert m2.lambda_source == "ratio-accelerated"


def test_lambda_source_labels_only_a_given_rate(tanh2):
    """A label without a rate is bad input (it used to label an estimate
    "exact"); a given rate keeps its label, "user" by default."""
    with pytest.raises(InputError, match="lambda_source"):
        fpt.build_model(*tanh2, -1.0, 1.0, lambda_source="exact")
    m = fpt.build_model(*tanh2, -1.0, 1.0, lam=0.5)
    assert (m.lam, m.lambda_source) == (0.5, "user")
    m = fpt.build_model(*tanh2, -1.0, 1.0, lam=0.5, lambda_source="mine")
    assert m.lambda_source == "mine"


def test_unknown_model_or_parameter_is_bad_input(ou):
    """A model name or parameter that `lambda_exact` rejects is bad input,
    not a silent fall-back to the estimated rate (0.38290 and 1.8949)."""
    with pytest.raises(InputError):
        fpt.build_model(*ou, -1.0, 1.0, model_name="Ou")
    with pytest.raises(InputError):
        fpt.build_model(*fpt.builtin("tanh", alpha=3.0), -1.0, 0.0,
                        model_name="tanh", model_params={"alpha": -3.0})


# ----------------------------------------------------------------------
# exact special cases
# ----------------------------------------------------------------------

@pytest.mark.parametrize("y0", [-0.5, -1.0, -2.0])
def test_exact_for_ou_boundary_at_equilibrium(ou, y0):
    m = fpt.build_model(*ou, y0=y0, y_plus=0.0, model_name="ou")
    tau = np.geomspace(1e-3, 10.0, 40)
    got = fpt.log_density(m, tau)
    ref = _ou0_log_closed_form(tau, y0)
    # |d log f| is the relative error of f, valid below underflow too
    assert np.max(np.abs(got - ref)) < 1e-10


def test_abm_limit_is_inverse_gaussian(abm):
    ff, im = abm
    m = fpt.build_model(ff, im, 0.0, 1.5, model_name="abm",
                        model_params={"mu": 1.0})
    assert m.theta == 0.0 and m.rho == 0.0
    tau = np.geomspace(1e-3, 20.0, 50)
    got = fpt.eval_density(m, tau)
    ref = _invgauss(tau, 1.5, 1.0)
    assert np.max(np.abs(got / ref - 1.0)) < 1e-10
    val, _ = integrate.quad(lambda t: fpt.eval_density(m, t), 0.0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------------
# asymptotic laws
# ----------------------------------------------------------------------

def test_short_time_law(ou, tanh2, dry_friction):
    """f / LS tends to the drift (Girsanov) constant
    (psi(y_plus)/psi(y0))^(1/2); for a symmetric pair it is exactly the
    bare short-time density."""
    tau = 1e-4
    for (ff, im), y0, yp, name in [(ou, -1.0, 1.0, "ou"),
                                   (tanh2, -1.0, 1.0, None),
                                   (dry_friction, -1.0, 1.0, "dry_friction")]:
        m = fpt.build_model(ff, im, y0, yp, model_name=name)
        girsanov = np.exp(0.5 * (im.log_psi(yp) - im.log_psi(y0)))
        assert girsanov == pytest.approx(1.0, rel=1e-12)   # symmetric pair
        log_ls = (np.log(m.b) - 0.5 * np.log(4 * np.pi * tau**3)
                  - m.b**2 / (4 * tau))
        ratio = np.exp(fpt.log_density(m, tau) - log_ls)
        assert ratio == pytest.approx(1.0, rel=1e-2)


def test_short_time_law_asymmetric_start(ou):
    # the exact equilibrium-boundary case shows the Girsanov constant
    m = fpt.build_model(*ou, y0=-1.0, y_plus=0.0, model_name="ou")
    tau = 1e-4
    log_ls = np.log(1.0) - 0.5 * np.log(4 * np.pi * tau**3) - 1.0 / (4 * tau)
    ratio = np.exp(fpt.log_density(m, tau) - log_ls)
    girsanov = np.exp(0.5 * (m.im.log_psi(0.0) - m.im.log_psi(-1.0)))
    assert ratio == pytest.approx(girsanov, rel=1e-2)
    assert girsanov == pytest.approx(np.exp(0.25), rel=1e-12)


def test_long_time_log_slope(ou, dry_friction):
    for (ff, im), y0, yp, name in [(ou, -1.0, 0.0, "ou"),
                                   (ou, -1.0, 1.0, "ou"),
                                   (dry_friction, -1.0, 0.5, "dry_friction")]:
        m = fpt.build_model(ff, im, y0, yp, model_name=name)
        t1, t2 = 8.0 / m.lam, 12.0 / m.lam
        slope = ((fpt.log_density(m, t1) - fpt.log_density(m, t2)) / (t2 - t1))
        assert slope == pytest.approx(m.lam, rel=1e-2)


def test_log_density_slope_consistency(ou):
    """-d(ln f)/dy from the formula equals the spatial log-derivative of
    the ansatz,

        theta sqrt(q)(y - y_plus)/(1-q) + sqrt(q) A(y)/(1+sqrt(q))
        + 1/(y_plus - y),

    exactly in the equilibrium-boundary case, where the regular part h~ of
    the steady log-derivative and rho both vanish."""
    ff, im = ou
    y, y_plus = -1.0, 0.0
    m = fpt.build_model(ff, im, y, y_plus, model_name="ou")
    rng = np.random.default_rng(3)
    for tau in rng.uniform(0.05, 5.0, 6):
        dy = 1e-6
        ma = fpt.DensityModel(im=im, y0=y - dy, y_plus=y_plus,
                              theta=m.theta, lam=m.lam, nu=m.nu, rho=0.0)
        mb = fpt.DensityModel(im=im, y0=y + dy, y_plus=y_plus,
                              theta=m.theta, lam=m.lam, nu=m.nu, rho=0.0)
        fd = -(fpt.log_density(mb, tau) - fpt.log_density(ma, tau)) / (2 * dy)
        sq = np.exp(-m.theta * tau)
        one_m_q = -np.expm1(-2.0 * m.theta * tau)
        ansatz = (m.theta * sq * (y - y_plus) / one_m_q
                  + sq * float(ff.A(y)) / (1.0 + sq) + 1.0 / (y_plus - y))
        assert fd == pytest.approx(ansatz, rel=1e-6)


def test_rho_factor_is_the_only_rho_dependence(ou):
    """The tau-dependent factor multiplying rho is (1-sqrt q)/(1+sqrt q)
    exactly: algebraic identity of the formula."""
    ff, im = ou
    m = fpt.build_model(ff, im, -1.0, 1.0, model_name="ou")
    from dataclasses import replace
    rng = np.random.default_rng(5)
    for tau in rng.uniform(0.01, 30.0, 8):
        w = np.exp(-m.theta * tau)
        d = (fpt.log_density(replace(m, rho=2.5), tau)
             - fpt.log_density(replace(m, rho=1.0), tau))
        assert d == pytest.approx(1.5 * (1 - w) / (1 + w), rel=1e-12)


def test_eval_density_rejects_nonpositive_tau(ou):
    m = fpt.build_model(*ou, y0=-1.0, y_plus=0.0, model_name="ou")
    with pytest.raises(InputError):
        fpt.eval_density(m, 0.0)
    with pytest.raises(InputError):
        fpt.eval_density(m, np.array([1.0, -0.5]))


def test_calibration_at_extreme_rate_ratios(ou):
    """lam/theta spans [0.0116, 4.3] here; the far-boundary end drives the
    tail quadrature weight exponent toward its -1 limit."""
    ff, im = ou
    for y0, yp in ((-1.0, 3.0), (-4.0, -2.5)):
        m = fpt.build_model(ff, im, y0, yp, model_name="ou")
        val, _ = integrate.quad(lambda t: fpt.eval_density(m, t), 0.0, np.inf,
                                limit=800)
        assert val == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("lam", [1e-18, 1e-15, 1e-12])
def test_rate_ratio_below_the_tail_rule_is_a_numerics_error(ou, lam):
    """At lam/theta below 1e-11 calibration raises NumericsError naming the
    ratio, not scipy's ValueError: at 1e-18 the Jacobi exponent rounds to
    -1, at 1e-15 a node on w = 0 makes the normalization NaN, and at
    1e-12 the rule is 2e-5 off."""
    with pytest.raises(fpt.NumericsError, match="lambda/theta"):
        fpt.build_model(*ou, 0.0, 1.0, lam=lam, lambda_source="estimate")


def test_tail_rule_is_accurate_down_to_its_smallest_rate_ratio():
    """At the smallest lam/theta that `_normalizer` takes, its Gauss-Jacobi
    rule still integrates its own weight, int_-1^1 (1+x)^(a-1) = 2^a / a,
    to 1e-6, and its first node lies clear of the end point."""
    a = density._NORM_MIN_A
    x, w = special.roots_jacobi(density._NORM_N_TAIL, 0.0, a - 1.0)
    assert abs(w.sum() * a / 2**a - 1.0) < 1e-6
    assert x[0] + 1.0 > 0.0


def test_build_model_accepts_overrides(ou):
    ff, im = ou
    m = fpt.build_model(ff, im, -1.0, 0.0, theta=1.3, lam=0.9)
    assert m.theta == 1.3 and m.lam == 0.9
    assert m.lambda_source == "user"
    # still normalized after calibration with the overridden parameters
    val, _ = integrate.quad(lambda t: fpt.eval_density(m, t), 0.0, np.inf,
                            limit=500)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_model_objects_are_immutable(ou):
    from dataclasses import FrozenInstanceError
    m = fpt.build_model(*ou, y0=-1.0, y_plus=0.0, model_name="ou")
    with pytest.raises(FrozenInstanceError):
        m.rho = 1.0
    with pytest.raises(FrozenInstanceError):
        ou[0].kappa = 2.0


def test_concurrent_evaluation_matches_serial(ou):
    """Frozen models are advertised as thread-shareable; a pool of readers
    must reproduce the serial sweep bit for bit."""
    from concurrent.futures import ThreadPoolExecutor
    m = fpt.build_model(*ou, y0=-1.0, y_plus=1.0, model_name="ou")
    taus = np.linspace(0.05, 12.0, 60)
    serial = fpt.eval_density(m, taus)
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = np.array(list(pool.map(lambda t: float(fpt.eval_density(m, t)),
                                          taus)))
    assert np.array_equal(serial, parallel)
