import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator

import fpt
import fpt.hseries as hseries
from fpt.errors import InputError
from fpt.hseries import _log_h1, _log_trapezium_increment, catalan_numbers


def test_catalan_numbers():
    assert catalan_numbers(6).tolist() == [1, 1, 2, 5, 14, 42, 132]


def test_grid_nodes_cover_range():
    g = fpt.HGrid(Z=-10.0, step=1 / 32, z_max=1.0)
    assert g.nodes[0] == -10.0
    assert g.nodes[-1] >= 1.0 - 1e-12
    assert np.allclose(np.diff(g.nodes), 1 / 32)


def test_grid_rejects_bad_ranges():
    with pytest.raises(InputError):
        fpt.HGrid(Z=2.0, z_max=1.0)
    with pytest.raises(InputError):
        fpt.HGrid(step=0.0)


# ----------------------------------------------------------------------
# h_1
# ----------------------------------------------------------------------

def test_h1_ou_is_mills_ratio(ou, ou_phi_over_phi):
    _, im = ou
    for y in (-3.0, 0.0, 1.5):
        assert np.exp(_log_h1(im, y)) == pytest.approx(ou_phi_over_phi(y), rel=1e-11)
    assert np.exp(_log_h1(im, 0.0)) == pytest.approx(np.sqrt(np.pi / 2), rel=1e-11)


def test_h1_abm_is_constant(abm):
    _, im = abm
    y = np.array([-6.0, -1.0, 2.0])
    assert np.exp(_log_h1(im, y)) == pytest.approx(np.ones(3), rel=1e-12)


def test_h1_dry_friction_closed_form(dry_friction):
    _, im = dry_friction
    assert np.exp(_log_h1(im, -2.0)) == pytest.approx(1.0, rel=1e-12)
    assert np.exp(_log_h1(im, 1.0)) == pytest.approx(2 * np.e - 1, rel=1e-10)


# ----------------------------------------------------------------------
# table construction
# ----------------------------------------------------------------------

def test_table_positivity(ou_table6):
    assert np.all(np.isfinite(ou_table6.log_values))
    assert np.all(ou_table6.values > 0.0)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
def test_abm_closed_form(mu):
    """h_r = c_{r-1} mu^(1-2r) for every r and z."""
    ff, im = fpt.builtin("abm", mu=mu)
    table = fpt.build_table(ff, im, fpt.HGrid(z_max=2.0), r_max=6)
    cat = catalan_numbers(6)
    for r in range(1, 7):
        ref = cat[r - 1] * mu ** (1 - 2 * r)
        vals = table.values[r - 1]
        assert np.max(np.abs(vals / ref - 1.0)) < 5e-3


def test_left_edge_catalan_asymptotics(ou):
    """h_r / (c_{r-1} h_1^(2r-1)) -> 1 moving into the left tail.  Marched
    values (seeded far below, at Z=-18) are compared with the Catalan
    formula at successively deeper points: the deviation must shrink, and
    be small in absolute terms at the deepest one."""
    ff, im = ou
    table = fpt.build_table(ff, im, fpt.HGrid(Z=-18.0, z_max=-8.0), r_max=5)
    for r in range(2, 6):
        devs = []
        for y in (-9.0, -11.0, -13.0):
            h1_at = table.h_at(1, y)
            seedform = catalan_numbers(r)[r - 1] * h1_at ** (2 * r - 1)
            devs.append(abs(table.h_at(r, y) / seedform - 1.0))
        assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.12             # r = 5, slowest order
    assert abs(table.h_at(2, -13.0)
               / (table.h_at(1, -13.0) ** 3) - 1.0) < 1.5e-2


def test_right_tail_asymptotics(ou):
    """h_r(y) ~ (-A)^(1-r) psi^(-r) in the right tail: the deviation halves
    per unit of y and sits within 10% for r <= 3 by y = 5."""
    ff, im = ou
    table = fpt.build_table(ff, im, fpt.HGrid(z_max=5.0), r_max=4)
    for r in range(2, 5):
        devs = []
        for y in (3.0, 4.0, 5.0):
            ref = y ** (1 - r) * im.psi(y) ** (-r)
            devs.append(abs(table.h_at(r, y) / ref - 1.0))
        assert devs[0] > devs[1] > devs[2]
    assert abs(table.h_at(2, 5.0) / (5.0 ** -1 * im.psi(5.0) ** -2) - 1) < 0.05
    assert abs(table.h_at(3, 5.0) / (5.0 ** -2 * im.psi(5.0) ** -3) - 1) < 0.10


@pytest.mark.parametrize("y_plus", [-2.0, 0.0, 2.0])
def test_grid_refinement_convergence(ou, y_plus):
    ff, im = ou
    coarse = fpt.build_table(ff, im, fpt.HGrid(step=1 / 32, z_max=2.0), r_max=6)
    fine = fpt.build_table(ff, im, fpt.HGrid(step=1 / 64, z_max=2.0), r_max=6)
    for r in range(1, 7):
        a, b = coarse.h_at(r, y_plus), fine.h_at(r, y_plus)
        assert abs(a / b - 1.0) < 1e-3


def test_left_cutoff_insensitivity(ou):
    ff, im = ou
    t10 = fpt.build_table(ff, im, fpt.HGrid(Z=-10.0, z_max=1.0), r_max=6)
    t14 = fpt.build_table(ff, im, fpt.HGrid(Z=-14.0, z_max=1.0), r_max=6)
    for r in range(1, 7):
        assert t10.h_at(r, 1.0) == pytest.approx(t14.h_at(r, 1.0), rel=1e-4)


def test_build_rejects_shallow_depth(ou):
    with pytest.raises(InputError):
        fpt.build_table(*ou, fpt.HGrid(), r_max=1)


# ----------------------------------------------------------------------
# the one-pass march against the node-by-node loop it replaced
# ----------------------------------------------------------------------

def _scalar_increment(logS0, logS1, step):
    d = logS1 - logS0
    if abs(d) < 1e-12:
        return np.log(step / 2.0) + np.logaddexp(logS0, logS1)
    return (np.log(step) + max(logS0, logS1)
            + np.log(-np.expm1(-abs(d)) / abs(d)))


def _march_by_loop(im, grid, r_max):
    """Reference march: one scalar logaddexp per grid cell."""
    z = grid.nodes
    cat = catalan_numbers(r_max)
    log_psi = np.asarray(im.log_psi(z), float)
    logh = np.empty((r_max, z.size))
    logh[0] = _log_h1(im, z)
    for r in range(2, r_max + 1):
        terms = np.array([logh[k - 1] + logh[r - k - 1] for k in range(1, r)])
        m = terms.max(axis=0)
        logconv = m + np.log(np.exp(terms - m).sum(axis=0))
        logS = log_psi + logconv
        row = np.empty(z.size)
        row[0] = np.log(cat[r - 1]) + (2 * r - 1) * logh[0, 0]
        logI = row[0] + log_psi[0]
        for j in range(z.size - 1):
            logI = np.logaddexp(logI, _scalar_increment(logS[j], logS[j + 1], grid.step))
            row[j + 1] = logI - log_psi[j + 1]
        logh[r - 1] = row
    return logh


@pytest.fixture(scope="module")
def sine_expr():
    return fpt.load_field({"type": "expr", "A": "-y - 0.1*sin(y)"})


@pytest.mark.parametrize("field", ["ou", "tanh2", "dry_friction", "abm", "sine_expr"])
@pytest.mark.parametrize("r_max", [4, 8])
@pytest.mark.parametrize("step", [1 / 32, 1 / 128])
def test_march_matches_node_by_node_loop(request, field, r_max, step):
    """The accumulate applies the loop's logaddexp calls in the loop's
    order, so the tables agree bit for bit.  So do the table's one
    all-rows interpolant and one PCHIP per row, and the ratios and h_r
    read from them."""
    ff, im = request.getfixturevalue(field)
    grid = fpt.HGrid(step=step, z_max=2.5)
    table = fpt.build_table(ff, im, grid, r_max)
    assert np.array_equal(table.log_values, _march_by_loop(im, grid, r_max))
    rows = [PchipInterpolator(grid.nodes, table.log_values[r - 1], extrapolate=False)
            for r in range(1, r_max + 1)]
    for y in (-1.0, 0.37, 2.5):
        logs = np.array([row(y) for row in rows])
        assert np.array_equal(table.interpolant(y), logs)
        assert np.array_equal(fpt.ratio_sequence(table, y),
                              np.exp(logs[:-1] - logs[1:]))
        assert all(table.h_at(r, y) == np.exp(logs[r - 1])
                   for r in range(1, r_max + 1))


def test_trapezium_increment_at_equal_ordinates():
    # the arithmetic branch: step * S exactly, up to rounding of the sum
    logS = np.array([-700.0, -3.0, 0.0, 0.7, 12.5])
    for step in (1 / 32, 1 / 128, 0.3):
        assert _log_trapezium_increment(logS, logS, step) == pytest.approx(
            np.log(step) + logS, rel=4 * np.finfo(float).eps, abs=0.0)


def test_trapezium_increment_continuous_at_branch_switch():
    """Either side of |d| = 1e-12 the two branches agree to rounding: the
    exponential branch takes 1 - e^-d from expm1, and the arithmetic rule
    left of the switch is within rounding of the exact value."""
    step, d0 = 1 / 32, 1e-12
    d = np.array([d0 * (1 - 1e-9), d0, d0 * (1 + 1e-9)])
    left, at, right = _log_trapezium_increment(np.zeros(3), d, step)
    exact = np.log(step) + np.log(np.expm1(d) / d)
    assert left == pytest.approx(exact[0], abs=4 * np.finfo(float).eps)
    assert at == pytest.approx(left, abs=4 * np.finfo(float).eps)
    assert right == pytest.approx(left, abs=4 * np.finfo(float).eps)
    # and the two branches are the same rule away from the switch
    wide = np.array([1e-3, 0.5, 3.0])
    assert _log_trapezium_increment(np.zeros(3), wide, step) == pytest.approx(
        np.log(step) + np.log(np.expm1(wide) / wide), rel=1e-14)
    assert np.array_equal(_log_trapezium_increment(np.zeros(3), wide, step),
                          _log_trapezium_increment(wide, np.zeros(3), step))


def test_trapezium_increment_matches_mpmath_at_small_log_steps():
    """The increment against 40-digit mpmath where the exponential rule
    takes over, d = |log S1 - log S0| in [1e-13, 1e-3].  Forming 1 - e^-d
    as 1 - exp(-d) loses about eps/d of it: 1.5e-5 relative at d near
    1e-13 on the arithmetic side, about 1e-5 at 1e-12 and 1e-9 at 1e-7."""
    import mpmath as mp
    d = np.geomspace(1e-13, 1e-3, 121)
    worst = 0.0
    for step in (1 / 32, 1 / 128):
        for base in (-3.0, 0.0, 1.0):
            lo = np.full(d.size, base)
            hi = lo + d
            for s0, s1 in ((lo, hi), (hi, lo)):
                got = _log_trapezium_increment(s0, s1, step)
                with mp.workdps(40):
                    for g, a, b in zip(got, s0, s1):
                        a, b = mp.mpf(float(a)), mp.mpf(float(b))
                        exact = mp.log(step * (mp.exp(b) - mp.exp(a)) / (b - a))
                        worst = max(worst, float(abs(g - exact) / abs(exact)))
    assert worst <= 1e-15


# ----------------------------------------------------------------------
# interpolation
# ----------------------------------------------------------------------

def test_integrand_reproduces_nodes(ou_table6):
    nodes = ou_table6.grid.nodes[::50]
    assert ou_table6.h_at(3, nodes) == pytest.approx(ou_table6.values[2, ::50],
                                                     rel=1e-13)


def test_integrand_rejects_out_of_range(ou_table6):
    with pytest.raises(InputError):
        ou_table6.h_at(99, 0.0)
    with pytest.raises(InputError):
        fpt.integrate_h(ou_table6, 99, 0.0, 1.0)
    with pytest.raises(InputError):
        ou_table6.h_at(2, 7.0)


def test_table_builds_one_interpolant(ou, monkeypatch):
    """`cumulants` reads every row through the table's one interpolant,
    built on first use; later reads build none."""
    built = []

    class Counting(PchipInterpolator):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hseries, "PchipInterpolator", Counting)
    table = fpt.build_table(*ou, fpt.HGrid(z_max=2.0), r_max=4)
    fpt.cumulants(table, -1.0, 2.0)
    assert len(built) == 1
    for y in (-1.0, 0.5, 2.0):
        table.h_at(2, y)
    fpt.ratio_sequence(table, 1.0)
    assert len(built) == 1


def test_table_matches_taylor_coefficients_of_log_derivative(ou_table6):
    """Strongest oracle for the OU table: h_r is the r-th Taylor
    coefficient (in -s) of -d/dz log of the bounded homogeneous solution,
    computed here in 40-digit arithmetic from the parabolic-cylinder
    eigenfunctions, entirely outside the marching scheme."""
    import mpmath as mp

    def bigD(s, y):
        return mp.e ** (y * y / 4) * mp.pcfd(-s, -y)

    for y in (-1.0, 0.0, 1.0, 2.5):
        f = lambda s: -s * bigD(s + 1, y) / bigD(s, y)
        with mp.workdps(40):
            coef = mp.taylor(f, 0, 4)
        for r in range(1, 5):
            exact = float((-1) ** r * coef[r])
            # 5e-4 is the trapezium-march discretization scale at step 1/32
            assert ou_table6.h_at(r, y) == pytest.approx(exact, rel=5e-4)


def test_h2_against_direct_quadrature(ou, ou_table6, ou_phi_over_phi):
    """Independent oracle for r=2: h_2(y) = (1/psi) int_{-inf}^y h_1^2 psi,
    with h_1 from the closed form and adaptive quadrature doing the
    integral (no table involved)."""
    _, im = ou

    def integrand(z):
        return ou_phi_over_phi(z) ** 2 * im.psi(z)

    for y in (-1.0, 0.0, 1.5):
        val, _ = integrate.quad(integrand, -40.0, y, limit=400)
        ref = val / im.psi(y)
        assert ou_table6.h_at(2, y) == pytest.approx(ref, rel=2e-4)


def test_integrate_h_against_adaptive_quadrature(ou_table6):
    from scipy import integrate as scint
    g = lambda z: ou_table6.h_at(3, z)
    for a, b in ((-1.234, 0.777), (0.0, 2.5), (-5.01, -4.99)):
        ref, _ = scint.quad(g, a, b, limit=400)
        assert fpt.integrate_h(ou_table6, 3, a, b) == pytest.approx(ref, rel=1e-8)
    with pytest.raises(InputError):
        fpt.integrate_h(ou_table6, 3, -20.0, 0.0)


_GL10_X, _GL10_W = np.polynomial.legendre.leggauss(10)


def _integrate_h_fixed_rule(table, r, a, b):
    """Reference: 10-point Gauss-Legendre in every cell between grid nodes,
    on a PCHIP of row r alone, the rule `integrate_h` used before it read
    the shared interpolant through `_integrate_segments`."""
    z = table.grid.nodes
    interp = PchipInterpolator(z, table.log_values[r - 1], extrapolate=False)
    cuts = np.concatenate(([a], z[(z > a) & (z < b)], [b]))
    lo, hi = cuts[:-1], cuts[1:]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * _GL10_X[None, :]
    vals = np.exp(interp(np.clip(pts, z[0], z[-1])))
    return float(np.sum(half * (vals @ _GL10_W)))


@pytest.fixture(scope="module")
def kink_expr():
    return fpt.load_field({"type": "expr", "A": "-y - 0.5*Abs(y - 0.77)"})


@pytest.mark.parametrize("field", ["ou", "tanh2", "dry_friction", "abm",
                                   "sine_expr", "kink_expr"])
def test_integrate_h_matches_fixed_rule(request, field):
    """Every segment of `integrate_h` is exp(cubic), analytic, where the
    fixed rule is past double precision too: the two agree to 1e-13 on
    5 barriers x 5 offsets x every row of r_max 4 and 8."""
    ff, im = request.getfixturevalue(field)
    worst = 0.0
    for r_max in (4, 8):
        for y_plus in (-2.0, -0.3, 0.5, 1.7, 3.0):
            table = fpt.build_table(ff, im, fpt.HGrid(z_max=y_plus + 1e-9), r_max)
            for off in (0.02, 0.3, 1.1, 3.2, 7.5):
                for r in range(1, r_max + 1):
                    got = fpt.integrate_h(table, r, y_plus - off, y_plus)
                    ref = _integrate_h_fixed_rule(table, r, y_plus - off, y_plus)
                    worst = max(worst, abs(got / ref - 1.0))
    assert worst < 1e-13


def test_h1_reports_underflowing_measure(ou):
    ff, _ = ou
    bad = fpt.InvariantMeasure(
        log_psi=lambda y: np.full_like(np.asarray(y, float), -np.inf),
        log_Psi=lambda y: np.full_like(np.asarray(y, float), -np.inf))
    with pytest.raises(fpt.NumericsError, match="h_1 not finite on the grid"):
        fpt.build_table(ff, bad, fpt.HGrid(), 2)
