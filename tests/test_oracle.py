import numpy as np
import pytest
from scipy import special

import fpt
from fpt.errors import InputError


def _invgauss(tau, b, mu):
    return (b / np.sqrt(4 * np.pi * tau**3)
            * np.exp(-(b - mu * tau) ** 2 / (4 * tau)))


def _ou0_density(tau, y0):
    q = np.exp(-2.0 * tau)
    return (np.abs(y0) * np.exp(-tau) / np.sqrt(np.pi * (1 - q) ** 3 / 2)
            * np.exp(-(y0 * np.exp(-tau)) ** 2 / (2 * (1 - q))))


# ----------------------------------------------------------------------
# PDE solver
# ----------------------------------------------------------------------

def test_pde_abm_matches_inverse_gaussian(abm):
    ff, _ = abm
    g = fpt.solve_pde(ff, 1.0, dy=1 / 200, dtau=1e-3, tau_max=12.0,
                      probe_y=(0.0,))
    tau = g.probe_tau[1:]
    ref = _invgauss(tau, 1.0, 1.0)
    assert np.max(np.abs(g.probe_f[0][1:] - ref)) < 1e-3


def test_pde_ou_equilibrium_boundary(ou):
    ff, _ = ou
    g = fpt.solve_pde(ff, 0.0, dy=1 / 200, dtau=1e-3, tau_max=15.0,
                      probe_y=(-1.0,))
    tau = g.probe_tau[1:]
    ref = _ou0_density(tau, -1.0)
    assert np.max(np.abs(g.probe_f[0][1:] - ref)) < 1e-3


def test_pde_bounds_and_monotonicity(ou):
    ff, _ = ou
    g = fpt.solve_pde(ff, 1.0, dy=1 / 100, dtau=2e-3, tau_max=8.0)
    assert np.min(g.F) >= -1e-6 and np.max(g.F) <= 1.0 + 1e-6
    assert np.all(np.diff(g.F, axis=0) >= -1e-9)
    assert np.all(g.F[:, -1] == 1.0) and np.all(g.F[:, 0] == 0.0)
    assert np.all(g.F[0, :-1] == 0.0)


def test_pde_complete_absorption_long_run(ou):
    ff, _ = ou
    lam = fpt.rightmost_zero(1.0)
    g = fpt.solve_pde(ff, 1.0, dy=1 / 100, dtau=5e-3, tau_max=10.0 / lam,
                      probe_y=(0.0,))
    assert g.probe_F[0, -1] >= 0.999


def test_pde_second_order_convergence(ou):
    """Richardson check: halving both steps shrinks the sup error against
    the exact solution by roughly 4x."""
    ff, _ = ou
    errs = []
    for dy, dtau in ((1 / 50, 4e-3), (1 / 100, 2e-3)):
        g = fpt.solve_pde(ff, 0.0, dy=dy, dtau=dtau, tau_max=6.0,
                          probe_y=(-1.0,))
        tau = g.probe_tau[5:]
        ref = _ou0_density(tau, -1.0)
        errs.append(np.max(np.abs(g.probe_f[0][5:] - ref)))
    assert 2.5 < errs[0] / errs[1] < 6.0


def test_pde_domain_doubling_insensitive(ou):
    ff, _ = ou
    a = fpt.solve_pde(ff, 1.0, y_min=-11.0, dy=1 / 100, dtau=2e-3,
                      tau_max=6.0, probe_y=(0.0,))
    b = fpt.solve_pde(ff, 1.0, y_min=-23.0, dy=1 / 100, dtau=2e-3,
                      tau_max=6.0, probe_y=(0.0,))
    assert np.max(np.abs(a.probe_F[0] - b.probe_F[0])) < 1e-9


def test_pde_rejects_bad_grid(ou):
    with pytest.raises(InputError):
        fpt.solve_pde(ou[0], 1.0, dy=5.0)
    with pytest.raises(InputError):
        fpt.solve_pde(ou[0], 1.0, probe_y=(1.0,))   # boundary is not interior


# ----------------------------------------------------------------------
# trinomial tree
# ----------------------------------------------------------------------

def test_tree_agrees_with_pde(ou):
    ff, _ = ou
    tr = fpt.solve_tree(ff, 1.0, -1.0, dtau=1e-3, tau_max=10.0)
    g = fpt.solve_pde(ff, 1.0, dy=1 / 200, dtau=1e-3, tau_max=10.0,
                      probe_y=(-1.0,))
    F_pde = np.interp(tr.tau_nodes, g.probe_tau, g.probe_F[0])
    sel = tr.tau_nodes > 1.0
    assert np.max(np.abs(tr.F[sel] - F_pde[sel])) < 5e-3


def test_tree_driftless_matches_reflection_formula():
    # pure diffusion: F(tau) = erfc(b / (2 sqrt(tau)))
    zero = lambda y: np.zeros_like(np.asarray(y, float))
    ff = fpt.ForceField(lambda y: np.zeros_like(np.asarray(y, float)), zero,
                        label="driftless")
    tr = fpt.solve_tree(ff, 0.0, -1.0, dtau=5e-4, tau_max=4.0)
    ref = special.erfc(1.0 / (2 * np.sqrt(tr.tau_nodes)))
    assert np.max(np.abs(tr.F - ref)) < 5e-3


def test_tree_abm_kolmogorov_distance(abm):
    ff, _ = abm
    tr = fpt.solve_tree(ff, 1.0, 0.0, dtau=1e-3, tau_max=15.0)
    from scipy import integrate
    ref = np.array([integrate.quad(lambda t: _invgauss(t, 1.0, 1.0), 0, T,
                                   limit=200)[0] for T in tr.tau_nodes[::200]])
    assert np.max(np.abs(tr.F[::200] - ref)) <= 0.01


def test_tree_rejects_oversized_step(ou):
    with pytest.raises(InputError):
        fpt.solve_tree(ou[0], 1.0, 0.0, dtau=0.5, tau_max=2.0)


@pytest.mark.parametrize("kwargs", [dict(dt=-1e-3), dict(dt=0.0),
                                    dict(tau_max=-5.0), dict(n_paths=0)])
def test_mc_rejects_bad_inputs(ou, kwargs):
    args = dict(dt=1e-3, n_paths=10, tau_max=1.0, seed=0) | kwargs
    with pytest.raises(InputError):
        fpt.simulate(ou[0], 1.0, 0.0, **args)


@pytest.mark.parametrize("kwargs", [dict(dtau=-1e-3), dict(dtau=0.0),
                                    dict(tau_max=0.0), dict(span=-1.0)])
def test_tree_rejects_bad_inputs(ou, kwargs):
    args = dict(dtau=1e-3, tau_max=1.0) | kwargs
    with pytest.raises(InputError):
        fpt.solve_tree(ou[0], 1.0, 0.0, **args)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def test_mc_reproducible(ou):
    a = fpt.simulate(ou[0], 1.0, 0.0, dt=2e-3, n_paths=2000, tau_max=10.0, seed=5)
    b = fpt.simulate(ou[0], 1.0, 0.0, dt=2e-3, n_paths=2000, tau_max=10.0, seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = fpt.simulate(ou[0], 1.0, 0.0, dt=2e-3, n_paths=2000, tau_max=10.0, seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_mc_samples_in_range(ou):
    res = fpt.simulate(ou[0], 0.5, -0.5, dt=1e-3, n_paths=5000, tau_max=6.0,
                       seed=1)
    assert np.all(res.samples > 0.0) and np.all(res.samples <= 6.0 + 1e-12)
    assert res.censored_count + len(res.samples) == res.n_paths


def test_mc_start_near_boundary_hits_immediately(ou):
    res = fpt.simulate(ou[0], 0.0, -1e-3, dt=1e-3, n_paths=4000, tau_max=5.0,
                       seed=2)
    assert np.median(res.samples) <= 2e-3


def test_mc_bridge_reduces_discretization_bias(ou):
    """Against the PDE absorption curve, the bridge-corrected sampler must
    show a smaller Kolmogorov distance than the naive one at coarse dt."""
    ff, _ = ou
    g = fpt.solve_pde(ff, 1.0, dy=1 / 200, dtau=2e-3, tau_max=25.0,
                      probe_y=(0.0,))
    ks = {}
    for bridge in (True, False):
        res = fpt.simulate(ff, 1.0, 0.0, dt=5e-3, n_paths=120_000,
                           tau_max=25.0, bridge=bridge, seed=9)
        ks[bridge] = fpt.kolmogorov_distance(res.samples, g.probe_tau[1:],
                                             g.probe_F[0][1:],
                                             n_paths=res.n_paths)
    assert ks[True] < ks[False]
    assert ks[True] < 0.02


def test_mc_tail_slope_matches_decay_rate(ou):
    """Log-linear regression on the empirical survival tail reproduces the
    decay rate within 5% (OU, barrier at 1)."""
    ff, _ = ou
    lam = fpt.rightmost_zero(1.0)
    res = fpt.simulate(ff, 1.0, 0.0, dt=2e-3, n_paths=200_000, tau_max=40.0,
                       seed=3)
    t = np.linspace(4.0, 14.0, 30)
    surv = 1.0 - np.searchsorted(res.samples, t, side="right") / res.n_paths
    slope = -np.polyfit(t, np.log(surv), 1)[0]
    assert slope == pytest.approx(lam, rel=0.05)


def test_mc_matches_abm_inverse_gaussian_law(abm):
    """Constant drift mu: the Euler step and the bridge probability are
    both exact, so at the step ends the sampler follows the inverse-Gaussian
    law F(tau) = Phi((mu tau - b) / sqrt(2 tau))
                 + e^{mu b} Phi(-(mu tau + b) / sqrt(2 tau)),
    except for the skipped bridge draws, at most 2**-53 per path-step."""
    ff, _ = abm
    mu, b, dt, n, tau_max = 1.0, 1.0, 1e-2, 200_000, 20.0
    res = fpt.simulate(ff, b, 0.0, dt=dt, n_paths=n, tau_max=tau_max, seed=11)
    n_steps = int(round(tau_max / dt))
    tau = dt * np.arange(1, n_steps + 1)       # the sampler's step ends
    ref = (special.ndtr((mu * tau - b) / np.sqrt(2 * tau))
           + np.exp(mu * b) * special.ndtr(-(mu * tau + b) / np.sqrt(2 * tau)))
    ks = fpt.kolmogorov_distance(res.samples, tau, ref, n_paths=n)
    dkw = np.sqrt(np.log(2 / 1e-6) / (2 * n))  # P(KS > dkw) <= 1e-6
    slack = n_steps * 2.0**-53                 # skipped draws; Euler slack is 0
    assert ks <= dkw + slack


def test_mc_rejects_bad_geometry(ou):
    with pytest.raises(InputError):
        fpt.simulate(ou[0], -1.0, 0.0, dt=1e-3, n_paths=10, tau_max=1.0, seed=0)
