import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import fpt
from fpt.hseries import cumulants
from fpt.oupcf import ou_mean_regime, EULER_GAMMA
from fpt.errors import InputError


def test_degenerate_interval_gives_zeros(ou_table6):
    cs = cumulants(ou_table6, 1.0, 1.0)
    assert np.all(cs.kappa_r == 0.0)


def test_mean_matches_direct_form(ou, ou_table6):
    _, im = ou
    cs = cumulants(ou_table6, -1.0, 1.0, im=im)
    assert cs.kappa_r[0] == pytest.approx(cs.mean_direct, rel=1e-6)


def test_mean_additivity(ou_table6):
    a = cumulants(ou_table6, -1.0, 2.0).kappa_r[0]
    b = (cumulants(ou_table6, -1.0, 0.3).kappa_r[0]
         + cumulants(ou_table6, 0.3, 2.0).kappa_r[0])
    assert a == pytest.approx(b, rel=1e-8)


def test_variance_against_nested_quadrature(ou, ou_table6, ou_phi_over_phi):
    """Independent oracle: the variance double integral
    int_y^{y+} (2/psi) int_{-inf}^z Psi^2/psi, nested adaptive quadrature
    with closed-form normal ingredients."""
    _, im = ou
    y0, yp = -0.5, 1.0

    def inner(z):
        val, _ = integrate.quad(lambda w: ou_phi_over_phi(w) ** 2 * im.psi(w),
                                -40.0, z, limit=300)
        return 2.0 * val / im.psi(z)

    ref, _ = integrate.quad(inner, y0, yp, limit=100)
    cs = cumulants(ou_table6, y0, yp)
    assert cs.kappa_r[1] == pytest.approx(ref, rel=5e-4)


def test_far_boundary_exponentiality(ou, ou_table6):
    cs = cumulants(ou_table6, 0.0, 3.0)
    k = cs.kappa_r
    assert k[1] / k[0] ** 2 == pytest.approx(1.0, abs=0.10)
    assert k[2] / k[1] ** 1.5 == pytest.approx(2.0, abs=0.30)


def test_mc_cross_check(ou, ou_table6):
    """Mean against the Monte Carlo oracle within 3 standard errors
    (reduced path count here; the full-size run lives in acceptance)."""
    cs = cumulants(ou_table6, 0.0, 1.0)
    res = fpt.simulate(ou[0], y_plus=1.0, y0=0.0, dt=1e-3, n_paths=150_000,
                       tau_max=40.0, seed=11)
    assert res.censored_count < 10
    assert abs(res.mean - cs.kappa_r[0]) < 3.0 * res.mean_standard_error


@given(st.floats(-2.0, 0.5), st.floats(0.6, 2.5))
@settings(max_examples=12, deadline=None)
def test_cumulants_positive(ou_table6, y0, yp):
    cs = cumulants(ou_table6, y0, yp)
    assert np.all(cs.kappa_r > 0.0)


@pytest.mark.parametrize("name,params", [
    ("tanh", {"alpha": 2.0, "gamma": 1.0}),
    ("dry_friction", {"mu": 1.0}),
])
def test_cumulants_positive_other_models(name, params):
    ff, im = fpt.builtin(name, **params)
    table = fpt.build_table(ff, im, fpt.HGrid(z_max=2.0), r_max=4)
    cs = cumulants(table, -1.3, 1.7)
    assert np.all(cs.kappa_r > 0.0)


def test_rejects_reversed_interval(ou_table6):
    with pytest.raises(InputError):
        cumulants(ou_table6, 2.0, 1.0)


# ----------------------------------------------------------------------
# OU mean regimes
# ----------------------------------------------------------------------

def _quad_mean(ou_phi_over_phi, y0, yp):
    val, _ = integrate.quad(ou_phi_over_phi, y0, yp, limit=300)
    return val


def test_sub_threshold_error_shrinks(ou_phi_over_phi):
    errs = []
    for yp in (2.5, 3.0, 3.5):
        ref = _quad_mean(ou_phi_over_phi, -1.0, yp)
        errs.append(abs(ou_mean_regime(-1.0, yp, "sub_threshold") / ref - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.15


def test_medial_two_terms(ou_phi_over_phi):
    ref = _quad_mean(ou_phi_over_phi, -5.0, 0.0)
    got = ou_mean_regime(-5.0, 0.0, "medial", terms=2)
    assert got == pytest.approx(ref, rel=1e-2)
    # leading term structure: (ln(2 y0^2) + euler_gamma)/2 plus corrections
    lead = 0.5 * (np.log(2 * 25.0) + EULER_GAMMA)
    assert abs(got - lead) < 0.05


def test_supra_threshold_against_quadrature(ou_phi_over_phi):
    ref = _quad_mean(ou_phi_over_phi, -6.0, -3.0)
    got = ou_mean_regime(-6.0, -3.0, "supra_threshold", terms=3)
    assert got == pytest.approx(ref, rel=5e-3)


def test_supra_threshold_leading_term_is_deterministic_time():
    # with zero volatility Y = y0 e^{-tau} hits y_plus at ln(y0/y_plus)
    y0, yp = -8.0, -2.0
    got = ou_mean_regime(y0, yp, "supra_threshold", terms=0)
    assert got == pytest.approx(np.log(y0 / yp), rel=1e-12)


def test_low_reversion_small_interval(ou_phi_over_phi):
    ref = _quad_mean(ou_phi_over_phi, -0.2, 0.1)
    got = ou_mean_regime(-0.2, 0.1, "low_reversion")
    assert got == pytest.approx(ref, rel=1e-2)


def test_regime_warnings_fire():
    with pytest.warns(UserWarning):
        ou_mean_regime(-0.5, 0.5, "sub_threshold")
    with pytest.warns(UserWarning):
        ou_mean_regime(-5.0, 0.2, "medial")
    with pytest.raises(InputError):
        ou_mean_regime(-5.0, 1.0, "supra_threshold")
    with pytest.raises(InputError):
        ou_mean_regime(0.0, 1.0, "nonsense")
