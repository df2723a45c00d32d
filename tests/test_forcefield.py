import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
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


def test_tanh_parameterizations_map_onto_each_other():
    # ratio(alpha, gamma) is amplitude(alpha/gamma, gamma)
    ff_r, im_r = fpt.builtin("tanh", alpha=2.0, gamma=1.0, parameterization="ratio")
    ff_a, im_a = fpt.builtin("tanh", alpha=2.0, gamma=1.0, parameterization="amplitude")
    y = np.linspace(-3, 3, 11)
    assert ff_r.A(y) == pytest.approx(ff_a.A(y), rel=1e-14)
    assert im_r.fisher_theta == pytest.approx(im_a.fisher_theta, rel=1e-14)


def test_psi_nonnegative_and_Psi_monotone():
    for name in ALL_BUILTINS:
        ff, im = _pair(name)
        y = np.linspace(-8, 8, 400)
        assert np.all(im.psi(y) >= 0)
        assert np.all(np.diff(im.Psi(y)) >= -1e-14)
        if im.normalizable:
            assert im.Psi(40.0) == pytest.approx(1.0, abs=1e-9)


def test_quadrature_measure_matches_closed_forms():
    """Quadrature-backed Psi vs the exact normal CDF, and vs the piecewise
    exponential of dry friction, to 1e-10."""
    im = fpt.measure_from_drift(lambda y: -np.asarray(y, float),
                                domain=(-12.0, 12.0), n=1601)
    pts = np.array([-3.2, -1.0, -0.3, 0.0, 0.41, 1.7, 2.9])
    assert im.Psi(pts) == pytest.approx(norm.cdf(pts), abs=1e-10)
    assert im.psi(pts) == pytest.approx(norm.pdf(pts), rel=1e-9)

    mu = 1.0
    im_df = fpt.measure_from_drift(lambda y: -mu * np.sign(y),
                                   domain=(-40.0, 40.0), n=3201)
    ref = np.where(pts <= 0, np.exp(mu * pts) / 2, 1 - np.exp(-mu * pts) / 2)
    assert im_df.Psi(pts) == pytest.approx(ref, abs=1e-10)

    # the same kink between nodes (spacing 1/8 puts 0.3 inside a panel)
    im_k = fpt.measure_from_drift(lambda y: -np.sign(y - 0.3),
                                  domain=(-40.0, 40.0), n=641)
    u = pts - 0.3
    ref = np.where(u <= 0, np.exp(u) / 2, 1 - np.exp(-u) / 2)
    assert im_k.Psi(pts) == pytest.approx(ref, abs=1e-8)
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
# Lamperti reduction
# ----------------------------------------------------------------------

def test_lamperti_identity_on_unit_diffusion():
    # sigma_X = sqrt(2 kappa) leaves the drift untouched
    spec = fpt.SdeSpec(mu_X=lambda x: -np.asarray(x, float),
                       sigma_X=lambda x: np.full_like(np.asarray(x, float), np.sqrt(2.0)),
                       kappa=1.0, x_range=(-8.0, 8.0))
    ff = fpt.lamperti(spec)
    y = np.linspace(-5, 5, 41)
    assert ff.A(y) == pytest.approx(-y, abs=1e-7)


def test_lamperti_ou_rescaling():
    # mu_X = -kappa x, sigma_X = sigma: y = x sqrt(2)/sigma recovers A = -y
    sigma = 0.5
    spec = fpt.SdeSpec(mu_X=lambda x: -np.asarray(x, float),
                       sigma_X=lambda x: np.full_like(np.asarray(x, float), sigma),
                       kappa=1.0, x_range=(-4.0, 4.0))
    ff = fpt.lamperti(spec)
    y = np.linspace(-6, 6, 25)
    assert ff.A(y) == pytest.approx(-y, abs=1e-6)


def test_lamperti_constant_drift_stays_constant():
    mu, sigma = 0.3, 2.0
    spec = fpt.SdeSpec(mu_X=lambda x: np.full_like(np.asarray(x, float), mu),
                       sigma_X=lambda x: np.full_like(np.asarray(x, float), sigma),
                       kappa=1.0, x_range=(-5.0, 5.0))
    ff = fpt.lamperti(spec)
    y = np.linspace(-2, 2, 17)
    expect = np.sqrt(2.0) * mu / sigma
    assert ff.A(y) == pytest.approx(np.full_like(y, expect), rel=1e-8)


def test_lamperti_cir_map_against_quadrature():
    """CIR-type sigma = s*sqrt(x): y(x) = 2 sqrt(2 kappa x)/s; the map is
    checked against independent quadrature of sqrt(2 kappa)/sigma_X."""
    s, kappa = 0.8, 1.0
    spec = fpt.SdeSpec(mu_X=lambda x: 0.3 - 0.2 * np.asarray(x, float),
                       sigma_X=lambda x: s * np.sqrt(np.asarray(x, float)),
                       kappa=kappa, x_range=(0.05, 9.0))
    ff = fpt.lamperti(spec)  # builds the map internally; recheck it here
    for x in (0.3, 1.0, 4.0):
        y_quad, _ = integrate.quad(lambda u: np.sqrt(2 * kappa) / (s * np.sqrt(u)),
                                   0.05, x)
        y_closed = 2 * np.sqrt(2 * kappa * x) / s - 2 * np.sqrt(2 * kappa * 0.05) / s
        assert y_quad == pytest.approx(y_closed, rel=1e-9)


def test_lamperti_rejects_vanishing_sigma():
    spec = fpt.SdeSpec(mu_X=lambda x: 0.0 * np.asarray(x, float),
                       sigma_X=lambda x: np.asarray(x, float),
                       x_range=(-1.0, 1.0))
    with pytest.raises(InputError):
        fpt.lamperti(spec)


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------

def test_classify_ou(ou):
    flags = fpt.classify(*ou)
    assert flags.S_minus is True
    assert flags.S_plus_star is True
    assert flags.completely_absorbing is True


def test_classify_dry_friction(dry_friction):
    flags = fpt.classify(*dry_friction)
    assert flags.S_minus is True
    assert flags.completely_absorbing is True


def test_classify_abm(abm):
    flags = fpt.classify(*abm)
    assert flags.S_minus is True
    assert flags.S_plus_star is False


def test_classify_slow_field_not_in_S():
    # A = -y/(1+y^2): -y A -> 1, not infinity
    A = lambda y: -np.asarray(y, float) / (1 + np.asarray(y, float) ** 2)
    Ap = lambda y: (np.asarray(y, float) ** 2 - 1) / (1 + np.asarray(y, float) ** 2) ** 2
    ff = fpt.ForceField(A, Ap, label="slow")
    im = fpt.measure_from_drift(A, domain=(-100.0, 100.0), n=2001)
    flags = fpt.classify(ff, im)
    assert flags.S_minus is False


# ----------------------------------------------------------------------
# JSON loading
# ----------------------------------------------------------------------

def test_load_builtin_json():
    (ff, im) = fpt.load_field({"type": "builtin", "name": "dry_friction", "mu": 2.0})
    assert ff.A(1.0) == -2.0


def test_load_table_field(tmp_path):
    y = np.linspace(-12, 12, 97)
    spec = {"type": "table", "y": y.tolist(), "A": (-y).tolist(),
            "domain": [-12, 12]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    ff, im = fpt.load_field(str(path))
    q = np.array([-2.3, 0.4, 1.9])
    assert ff.A(q) == pytest.approx(-q, abs=1e-9)
    assert im.Psi(0.0) == pytest.approx(0.5, abs=1e-7)
    flags = fpt.classify(ff, im)
    assert flags.completely_absorbing is True


def test_load_expr_field():
    ff, im = fpt.load_field({"type": "expr", "A": "-y - 0.1*sin(y)",
                             "domain": [-30, 30]})
    assert ff.A(2.0) == pytest.approx(-2.0 - 0.1 * np.sin(2.0), rel=1e-12)
    # sympy derivative is exact
    assert ff.A_prime(2.0) == pytest.approx(-1.0 - 0.1 * np.cos(2.0), rel=1e-12)


def test_load_rejects_unknown_type():
    with pytest.raises(InputError):
        fpt.load_field({"type": "nope"})


@given(st.floats(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_dry_friction_measure_properties(y):
    _, im = fpt.builtin("dry_friction", mu=1.0)
    assert 0.0 <= im.Psi(y) <= 1.0
    assert im.psi(y) > 0.0
