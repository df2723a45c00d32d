import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

import fpt
from fpt.decay import STABILITY_FACTOR
from fpt.errors import InputError, NumericsError


# ----------------------------------------------------------------------
# ratio sequences
# ----------------------------------------------------------------------

def test_ratio_sequence_abm_is_catalan(abm):
    ff, im = abm
    table = fpt.build_table(ff, im, fpt.HGrid(z_max=1.0), r_max=5)
    x = fpt.ratio_sequence(table, 1.0)
    assert x == pytest.approx([1.0, 0.5, 0.4, 5 / 14], rel=1e-10)


def test_ratio_sequence_positive(ou_table6):
    x = fpt.ratio_sequence(ou_table6, 2.0)
    assert np.all(x > 0.0)


def test_ratio_sequence_ou_equilibrium_tends_to_one(ou):
    # boundary at equilibrium: the limit is 1, approached from above
    ff, im = ou
    table = fpt.build_table(ff, im, fpt.HGrid(z_max=0.0 + 1e-9), r_max=6)
    x = fpt.ratio_sequence(table, 0.0)
    assert np.all(np.diff(x) < 0.0) and np.all(x > 1.0)
    assert x[-1] == pytest.approx(1.0, abs=0.01)


def test_ratio_sequence_out_of_grid(ou_table6):
    with pytest.raises(InputError):
        fpt.ratio_sequence(ou_table6, 9.0)


# ----------------------------------------------------------------------
# accelerators
# ----------------------------------------------------------------------

def test_a1_flags_constant_sequence():
    vals, ok = fpt.aitken_A1(np.ones(5))
    assert not np.any(ok)
    assert np.all(np.isnan(vals))


def test_a1_worked_example_is_exact():
    vals, ok = fpt.aitken_A1([1.0, 0.5, 0.4])
    assert ok[0]
    # exact limit 1/4 up to rounding of the decimal inputs (2/5 is not
    # binary-representable, so one ulp of slack is the true "exact")
    assert abs(vals[0] - 0.25) <= 5e-16


@given(st.floats(0.01, 10.0), st.floats(0.5, 5.0), st.floats(0.1, 3.0))
@settings(max_examples=100, deadline=None)
def test_a1_exact_on_hyperbolic(lam, alpha, beta):
    r = np.arange(1, 9)
    x = lam + 1.0 / (alpha + beta * r)
    vals, ok = fpt.aitken_A1(x)
    assert np.all(np.abs(vals[ok] - lam) <= 1e-8 * max(lam, 1.0))


def test_a0_undercorrects_catalan_ratios():
    # the Catalan ratio sequence converges like 1/r: the hyperbolic variant
    # must land closer to the limit 1/4 than plain delta-squared
    from fpt.hseries import catalan_numbers
    c = catalan_numbers(8)
    x = c[:-1] / c[1:]
    # A0, the plain delta-squared x_r + d_r^2/(d_{r-1} - d_r), as reference
    d = np.diff(x)
    a0 = x[2:] + d[1:] ** 2 / (d[:-1] - d[1:])
    a1, ok1 = fpt.aitken_A1(x)
    assert np.all(ok1)
    assert abs(a1[0] - 0.25) < abs(a0[0] - 0.25)
    assert abs(a1[-1] - 0.25) < abs(a0[-1] - 0.25)


def test_a1_matches_its_loop_form():
    """The array form of A1 gives the values and flags of a term-by-term
    loop bit for bit; a nan difference stays ok, with a nan value."""
    rng = np.random.default_rng(7)
    seqs = [np.ones(5), np.array([1.0, np.nan, 2.0, 2.5, 2.7]),
            np.array([1.0, 2.0, np.inf, 3.0, 3.5])]
    seqs += [rng.normal(size=n) for n in range(3, 10)]
    for x in seqs:
        d = np.diff(x)
        ref, ref_ok = np.full(len(x) - 2, np.nan), np.zeros(len(x) - 2, bool)
        with np.errstate(invalid="ignore"):
            for i in range(len(x) - 2):
                den = d[i] - d[i + 1]
                if not abs(den) < STABILITY_FACTOR * abs(x[i + 2]):
                    ref[i] = x[i + 2] + d[i + 1] * (d[i + 1] + d[i]) / den
                    ref_ok[i] = True
            vals, ok = fpt.aitken_A1(x)
        assert np.array_equal(ok, ref_ok)
        assert np.array_equal(vals, ref, equal_nan=True)


def test_accelerators_need_three_terms():
    with pytest.raises(InputError):
        fpt.aitken_A1([1.0, 2.0])


# ----------------------------------------------------------------------
# the estimator
# ----------------------------------------------------------------------

def test_estimate_ou_at_equilibrium(ou):
    est = fpt.estimate_lambda(*ou, y_plus=0.0)
    assert est.lam == pytest.approx(1.0, rel=0.05)


def test_estimate_ou_table_row(ou):
    est = fpt.estimate_lambda(*ou, y_plus=1.0)
    assert est.lam == pytest.approx(0.388, rel=0.02)


def test_estimate_abm_is_quarter_mu_squared(abm):
    est = fpt.estimate_lambda(*abm, y_plus=0.5)
    assert est.lam == pytest.approx(0.25, rel=0.01)


def test_estimate_dry_friction_plateau(dry_friction):
    est = fpt.estimate_lambda(*dry_friction, y_plus=0.5)
    assert est.lam == pytest.approx(0.25, rel=0.05)


@pytest.mark.parametrize("name,params,noise", [
    ("ou", {}, 0.01),
    ("tanh", {"alpha": 2.0, "gamma": 1.0}, 0.01),
    # the kink at the plateau knee (y_plus ~ 1/mu) makes the truncated
    # accelerated estimate bump upward by ~8% before decaying; the exact
    # rate is monotone, the estimator is not quite
    ("dry_friction", {"mu": 1.0}, 0.09),
])
def test_estimate_monotone_in_barrier(name, params, noise):
    """The rate cannot increase when the boundary moves away; allow
    model-calibrated estimator noise before asserting."""
    ff, im = fpt.builtin(name, **params)
    grid = np.linspace(-1.0, 3.0, 20)
    lams = np.array([fpt.estimate_lambda(ff, im, y).lam for y in grid])
    assert np.all(np.diff(lams) <= noise * lams[:-1])
    # strictly decreasing once safely right of any kink
    tail = lams[grid >= 1.5]
    assert np.all(np.diff(tail) < 0.0)


# ----------------------------------------------------------------------
# asymptotes
# ----------------------------------------------------------------------

def test_far_left_asymptote_ou(ou):
    _, im = ou
    # psi^2/(4 Psi^2) at -10 approaches the quadratic law y^2/4 = 25
    val = fpt.lambda_asymptotic(im, -10.0, "far_left")
    assert val == pytest.approx(25.0, rel=0.03)


def test_far_right_asymptote_ou(ou):
    _, im = ou
    y = 2.5
    ref = y * np.exp(-y * y / 2) / np.sqrt(2 * np.pi)
    assert fpt.lambda_asymptotic(im, y, "far_right") == pytest.approx(ref, rel=1e-8)


def test_far_right_asymptote_dry_friction(dry_friction):
    _, im = dry_friction
    y = 3.0
    assert fpt.lambda_asymptotic(im, y, "far_right") == pytest.approx(
        np.exp(-y) / 2, rel=1e-8)


def test_abm_far_left_matches_exact_rate(abm):
    # for constant drift the far-left formula is exact at every point
    _, im = abm
    assert fpt.lambda_asymptotic(im, -3.0, "far_left") == pytest.approx(0.25, rel=1e-10)


def test_asymptote_rejects_unknown_side(ou):
    with pytest.raises(InputError):
        fpt.lambda_asymptotic(ou[1], 0.0, "sideways")


# ----------------------------------------------------------------------
# exact rates
# ----------------------------------------------------------------------

def test_exact_ou_delegates_to_zero_finder():
    assert fpt.lambda_exact("ou", 0.0) == pytest.approx(1.0, abs=1e-10)


def test_exact_abm_ignores_barrier():
    assert fpt.lambda_exact("abm", -3.0, mu=1.0) == 0.25
    assert fpt.lambda_exact("abm", 17.0, mu=1.0) == 0.25


def test_exact_dry_friction_plateau_and_decay():
    assert fpt.lambda_exact("dry_friction", 0.3, mu=1.0) == 0.25
    assert fpt.lambda_exact("dry_friction", 1.0, mu=1.0) == 0.25
    lam5 = fpt.lambda_exact("dry_friction", 5.0, mu=1.0)
    # approaches mu^2 e^{-mu y}/2 from above
    assert lam5 == pytest.approx(np.exp(-5.0) / 2, rel=0.05)
    assert lam5 > np.exp(-5.0) / 2
    # just above the knee the pole beta = sqrt(1 - 4 lambda) -> 0, and at
    # mu*y_plus = 20 it sits 2e-9 below mu; reference: the pole condition
    # beta = 1 - exp(-beta*y_plus) solved at 60 digits
    import mpmath as mp
    for yp, beta0 in ((1.0 + 1e-9, 2e-9), (20.0, 1.0)):
        with mp.workdps(60):
            y = mp.mpf(yp)
            beta = mp.findroot(lambda b: b - 1 + mp.exp(-b * y), beta0)
            ref = float((1 - beta**2) / 4)
        assert fpt.lambda_exact("dry_friction", yp, mu=1.0) == pytest.approx(
            ref, rel=1e-13)
    with pytest.raises(NumericsError):           # mu^2 e^{-800}/2 underflows
        fpt.lambda_exact("dry_friction", 800.0, mu=1.0)


def test_exact_dry_friction_continuous_at_knee():
    lo = fpt.lambda_exact("dry_friction", 1.0 - 1e-6, mu=1.0)
    hi = fpt.lambda_exact("dry_friction", 1.0 + 1e-6, mu=1.0)
    assert abs(lo - hi) < 1e-8


def test_exact_tanh_polynomial_zero():
    # boundary at the n=1 Romanovski zero: lambda = gamma*(alpha-gamma)
    assert fpt.lambda_exact("tanh", 0.0, alpha=2.0, gamma=1.0) == pytest.approx(1.0)
    with pytest.raises(NumericsError):
        fpt.lambda_exact("tanh", 0.5, alpha=2.0, gamma=1.0)


def _dirichlet_rate(ff, y_plus, span, dy=1 / 100):
    """Principal decay rate of the finite-difference generator A d/dy +
    d^2/dy^2 on [y_plus - span, y_plus], absorbing at both ends.  Its
    off-diagonal products are positive, so it is similar to a symmetric
    tridiagonal matrix, whose lowest eigenvalue (of minus it) is the rate."""
    y = y_plus - span + dy * np.arange(1, int(round(span / dy)))
    a = np.asarray(ff.A(y), float) / (2 * dy)
    up, down = 1 / dy**2 + a[:-1], 1 / dy**2 - a[1:]
    return float(eigh_tridiagonal(np.full(y.size, 2 / dy**2), -np.sqrt(up * down),
                                  select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


@pytest.mark.parametrize("alpha", [0.8, 1.5, 3.0])
def test_exact_tanh_rate_against_finite_differences(alpha):
    """At y_plus = 0 the tanh rate is the n=1 level gamma*(alpha-gamma) for
    alpha > 2 gamma and the branch point alpha^2/4 below.  Truncating the
    half-line raises the rate, by about (pi/span)^2 at the branch point
    and exponentially little for a bound level, so doubling the span from
    24 to 48 must at least halve the gap to the exact rate, or leave it at
    the 1e-4 floor of the dy^2 error."""
    ff, _ = fpt.builtin("tanh", alpha=alpha, gamma=1.0)
    exact = fpt.lambda_exact("tanh", 0.0, alpha=alpha, gamma=1.0)
    gap24, gap48 = (_dirichlet_rate(ff, 0.0, span) - exact for span in (24, 48))
    floor = 1e-4 * exact
    assert gap24 > -floor and gap48 > -floor
    assert gap48 <= max(0.5 * gap24, floor)


@pytest.mark.parametrize("params", [
    {"gamma": 0.0}, {"gamma": -1.0}, {"alpha": 0.0}, {"alpha": -1.0, "gamma": -1.0}])
def test_tanh_parameters_rejected_like_builtin(params):
    """lambda_exact rejects the tanh parameters that `builtin` rejects,
    with InputError."""
    with pytest.raises(InputError):
        fpt.lambda_exact("tanh", 0.0, **params)
    with pytest.raises(InputError):
        fpt.builtin("tanh", **params)


def test_estimator_tracks_exact_ou_right_of_equilibrium(ou):
    """Oracle agreement where the truncated accelerated sequence is sharp:
    within 5% for barriers in [0, 3]."""
    for yp in (0.0, 0.75, 1.5, 2.25, 3.0):
        est = fpt.estimate_lambda(*ou, y_plus=yp).lam
        exact = fpt.rightmost_zero(yp)
        assert abs(est / exact - 1.0) < 0.05


def test_far_right_asymptote_tanh(tanh2):
    # -A psi = 2 tanh(y) * sech(y)^2 / 2 = sinh(y)/cosh(y)^3
    _, im = tanh2
    y = 2.0
    assert fpt.lambda_asymptotic(im, y, "far_right") == pytest.approx(
        np.sinh(y) / np.cosh(y) ** 3, rel=1e-10)
