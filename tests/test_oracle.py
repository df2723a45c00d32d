from concurrent.futures import ThreadPoolExecutor
import sys
import warnings

import numpy as np
import pytest
from scipy import linalg, special
from scipy.linalg import lapack

import fpt
from fpt import oracle
from fpt.errors import InputError, NumericsError
from fpt.oracle import (_BLOCK, _CAP, _MC_BUDGET, _TAIL_MODES, _TREE_BLOCK,
                        _operator, _slowest_modes, _time_steps)


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
    probes = -11.0 + 0.59 * np.arange(1, 21)    # grid nodes in (-11, 1)
    g = fpt.solve_pde(ff, 1.0, dy=1 / 100, dtau=2e-3, tau_max=8.0,
                      probe_y=tuple(probes))
    assert g.probe_F.shape == (20, len(g.probe_tau))
    assert np.min(g.probe_F) >= -1e-6 and np.max(g.probe_F) <= 1.0 + 1e-6
    assert np.all(np.diff(g.probe_F, axis=1) >= -1e-9)
    assert np.all(g.probe_F[:, 0] == 0.0)


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
        fpt.solve_pde(ou[0], 1.0, dy=5.0, probe_y=(0.0,))
    with pytest.raises(InputError):
        fpt.solve_pde(ou[0], 1.0, probe_y=(1.0,))   # boundary is not interior
    with pytest.raises(InputError, match="probe_y"):
        fpt.solve_pde(ou[0], 1.0)                  # probes are required


def _constant_field(a):
    return fpt.ForceField(lambda y: np.full_like(np.asarray(y, float), a),
                          lambda y: np.zeros_like(np.asarray(y, float)))


def test_pde_rejects_nonfinite_drift():
    ff = fpt.ForceField(lambda y: np.where(y < -5.0, np.nan, -y),
                        lambda y: np.full_like(y, -1.0))
    with pytest.raises(InputError, match="not finite"):
        fpt.solve_pde(ff, 1.0, probe_y=(0.0,), tau_max=0.1)


def test_pde_range_check_fails_on_nan(ou, monkeypatch):
    """A NaN in the solution fails the per-step [0, 1] check."""
    real = oracle.lapack.dpttrs

    def poisoned(d, e, b, overwrite_b):
        real(d, e, b, overwrite_b=overwrite_b)
        b[len(b) // 2] = np.nan

    monkeypatch.setattr(oracle.lapack, "dpttrs", poisoned)
    with pytest.raises(NumericsError, match=r"left \[0,1\] at step 1"):
        fpt.solve_pde(ou[0], 1.0, probe_y=(0.0,), tau_max=0.1)


def _poison_dpttrs_from(monkeypatch, call, value):
    """From its `call`-th call on, dpttrs writes `value` into the middle
    of its solution."""
    real = oracle.lapack.dpttrs
    calls = []

    def poisoned(d, e, b, overwrite_b):
        real(d, e, b, overwrite_b=overwrite_b)
        calls.append(None)
        if len(calls) >= call:
            b[len(b) // 2] = value

    monkeypatch.setattr(oracle.lapack, "dpttrs", poisoned)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pde_range_check_fails_mid_block(ou, value, monkeypatch):
    """A failure inside a block names its own step, and the steps computed
    after it in the same block raise no RuntimeWarning."""
    # steps 1 and 2 solve twice each, so step 37, the fifth of the second
    # block of 32, is the 39th solve
    _poison_dpttrs_from(monkeypatch, 39, value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match=r"left \[0,1\] at step 37 "):
            fpt.solve_pde(ou[0], 1.0, probe_y=(0.0,), tau_max=0.1)


def test_pde_rejects_cell_peclet_above_one():
    # |A| dy / 2 = 1.25: the scaling is not real, and the fix is a finer dy
    with pytest.raises(InputError, match="refine dy"):
        fpt.solve_pde(_constant_field(500.0), 1.0, dy=1 / 200,
                      probe_y=(0.0,), tau_max=0.1)


def test_pde_rejects_scaling_beyond_double_range():
    # a constant drift of 100 over span 12 needs D over about e^612
    with pytest.raises(InputError, match="y_min"):
        fpt.solve_pde(_constant_field(100.0), 1.0, dy=1 / 200,
                      probe_y=(0.0,), tau_max=0.1)
    # a span of 6 (e^306) is inside the bound; at drift 100 every path
    # started 1 below the barrier hits it within about 0.01
    g = fpt.solve_pde(_constant_field(100.0), 1.0, y_min=-5.0, dy=1 / 200,
                      dtau=1e-4, probe_y=(0.0,), tau_max=0.1)
    assert 0.999 < g.probe_F[0, -1] <= 1.0 + 1e-6


def _grid_rate(ff, y_plus, dy):
    """The slowest decay rate that solve_pde caps its step by, on its grid
    for y_plus and dy: minus the largest of its slowest modes' rates."""
    _, h, _, _, _, _, sym_off = _operator(ff, y_plus, None, dy)
    return -_slowest_modes(h, sym_off, _TAIL_MODES)[0][-1]


def _dense_cn(ff, y_plus, y0, dy, steps):
    """Non-symmetric Crank-Nicolson with the same Rannacher start-up,
    stepped through dense numpy.linalg.solve on the time steps `steps`:
    F and f at y0."""
    M = int(round(12.0 / dy))
    y = y_plus - 12.0 + 12.0 * np.arange(M + 1) / M
    h = 12.0 / M
    A = ff.A(y[1:M])
    L = (np.diag(np.full(M - 1, -2.0 / h**2))
         + np.diag(1.0 / h**2 - A[1:] / (2 * h), -1)
         + np.diag(1.0 / h**2 + A[:-1] / (2 * h), 1))
    eye = np.eye(M - 1)
    propagators = {}              # step -> (backward Euler half, CN)
    for k in np.unique(steps):
        bc = np.zeros(M - 1)
        bc[-1] = (1.0 / h**2 + A[-1] / (2 * h)) * k / 2
        implicit = eye - k / 2 * L
        propagators[k] = (
            np.linalg.solve(implicit, np.column_stack([eye, bc])),
            np.linalg.solve(implicit,
                            np.column_stack([eye + k / 2 * L, 2 * bc])))
    F = np.zeros(M - 1)
    i = int(round((y0 - y[0]) / h)) - 1
    out = [F[i - 1:i + 2]]
    for step, k in enumerate(steps, start=1):
        be, cn = propagators[k]
        for P in ((be, be) if step <= 2 else (cn,)):
            F = P[:, :-1] @ F + P[:, -1]
        out.append(F[i - 1:i + 2])
    Fm, F0, Fp = np.array(out).T
    Ai = ff.A(np.array([y[i + 1]]))[0]
    return F0, Ai * (Fp - Fm) / (2 * h) + (Fp - 2 * F0 + Fm) / h**2


def _stepwise_cn(ff, y_plus, probe_y, dy, steps):
    """solve_pde's symmetric scheme stepped one step at a time on the time
    steps `steps`: each step factors K for its own step, solves with it,
    doubles and subtracts, forms F = G / D on the full grid, checks it and
    reads the probe stencils.  F and f at each probe."""
    y, h, Ay, _, upper, log_d, sym_off = _operator(ff, y_plus, None, dy)
    y_min, M = y[0], len(y) - 1
    d_inv = np.exp(-log_d)
    idx = [int(round((yp - y_min) / h)) for yp in probe_y]
    stencil = np.array([(i - 1, i, i + 1) for i in idx]).reshape(-1)

    reads = np.zeros((len(steps) + 1, stencil.size))
    cur = np.zeros(M - 1)
    nxt = np.empty(M - 1)
    profile = np.zeros(M + 1)
    profile[-1] = 1.0
    F = profile[1:M]
    for step, k in enumerate(steps, start=1):
        half = 0.5 * k
        k_diag, k_off, _ = lapack.dpttrf(
            np.full(M - 1, 1.0 + half * 2.0 / h**2), -half * sym_off)
        b = np.exp(log_d[-1]) * half * upper[-1]
        startup = step <= 2
        for _ in range(2 if startup else 1):
            nxt[:] = cur
            nxt[-1] += b
            lapack.dpttrs(k_diag, k_off, nxt, overwrite_b=1)
            if not startup:
                nxt *= 2.0
                nxt -= cur
            cur, nxt = nxt, cur
        np.multiply(cur, d_inv, out=F)
        assert F.min() >= -1e-6 and F.max() <= 1.0 + 1e-6
        reads[step] = profile[stencil]
    Fm, F0, Fp = (reads[:, j::3].T for j in range(3))
    Ai = Ay[idx][:, None]
    return F0, Ai * (Fp - Fm) / (2 * h) + (Fp - 2 * F0 + Fm) / h**2


def test_time_steps_are_graded():
    """dtau/10 in the first block, 1.01^32 times larger in each later
    block up to the cap, and the grid ends at the first node at or past
    tau_max.  At a rate of 1 or more the cap is 5 dtau; below it, 5 dtau
    / rate, so the capped step keeps k rate = 5 dtau."""
    dtau = 1e-3
    steps, tau = _time_steps(dtau, 20.0, 2.0)
    blocks = steps[::32]
    assert np.all(steps == np.repeat(blocks, 32)[:len(steps)])
    assert blocks[0] == 0.1 * dtau
    growing = blocks[blocks < _CAP * dtau]
    assert np.allclose(growing[1:] / growing[:-1], 1.01**32, rtol=1e-12)
    assert len(growing) == 13 and np.all(blocks[13:] == _CAP * dtau)
    assert np.array_equal(tau, np.concatenate(([0.0], np.cumsum(steps))))
    assert tau[-2] < 20.0 <= tau[-1] and len(steps) == 4311
    assert np.array_equal(_time_steps(dtau, 20.0, 1.0)[1], tau)
    # a tau_max on a node ends the grid there
    for n in (1, 33, 4000):
        assert len(_time_steps(dtau, tau[n], 2.0)[0]) == n

    # at rate 0.25 the same blocks grow four more times, to 20 dtau
    slow, tau = _time_steps(dtau, 20.0, 0.25)
    slow_blocks = slow[::32]
    assert np.all(slow == np.repeat(slow_blocks, 32)[:len(slow)])
    assert np.array_equal(slow_blocks[:13], growing)
    assert np.allclose(slow_blocks[13:17] / slow_blocks[12:16], 1.01**32,
                       rtol=1e-12)
    assert slow_blocks[16] < 20 * dtau and np.all(slow_blocks[17:] == 20 * dtau)
    assert tau[-2] < 20.0 <= tau[-1] and len(slow) == 1449


@pytest.mark.parametrize("y_plus", [1.0, 2.0, 3.0, 6.0])
def test_slowest_rate_is_the_grids_decay_rate(ou, y_plus):
    """The rate that caps the step is the slowest decay rate of the grid's
    operator: for OU on the dy = 1/200 grid, within its discretization
    error (1.9e-6, 1.4e-6 and 1.6e-5 relative) of the exact rate.  At
    y_plus = 6 (-6.5e-4) the default far end -y_plus - 5 keeps it so; the
    end y_plus - 12 = -6 would be as fast an exit as the barrier and
    double it."""
    lam = fpt.rightmost_zero(y_plus)
    rel = 2e-3 if y_plus == 6.0 else 5e-5
    assert _grid_rate(ou[0], y_plus, 1 / 200) == pytest.approx(lam, rel=rel)


def test_time_steps_are_uncapped_at_an_unresolved_rate(ou):
    """A rate that rounds to zero or below leaves the step growing to the
    end of the grid.  Far out on the OU tail, lambda_1 lies below the
    eigensolver's resolution (about eps 4/h^2 = 1.4e-10 at dy = 1/400),
    and the solve finishes on that schedule."""
    dtau = 1e-3
    steps, tau = _time_steps(dtau, 20.0, 0.0)
    blocks = steps[::32]
    assert np.allclose(blocks[1:] / blocks[:-1], 1.01**32, rtol=1e-12)
    assert np.array_equal(_time_steps(dtau, 20.0, -1e-11)[1], tau)
    g = fpt.solve_pde(ou[0], 8.5, y_min=-14.0, dy=1 / 400, dtau=dtau,
                      tau_max=1.0, probe_y=(7.5,))
    assert np.array_equal(g.probe_tau, _time_steps(dtau, 1.0, 0.0)[1])
    assert 0.0 <= g.probe_F.min() and g.probe_F.max() <= 1.0
    assert np.all(np.diff(g.probe_F) >= 0.0)


# n_steps = 33 takes the first larger step, 417 and 449 the first steps of
# blocks 14 and 15, past 5 dtau; "capped" is the field's first capped step
# (513 for OU and tanh, 545 for dry friction) and "cap_reused" the first
# block that reuses its factors
@pytest.mark.parametrize("n_steps", [1, 2, 3, 31, 32, 33, 69, 417, 449,
                                     "capped", "cap_reused"])
@pytest.mark.parametrize("field", ["ou", "tanh2", "dry_friction"])
def test_pde_blocks_match_stepwise_reference(field, n_steps, request,
                                             monkeypatch):
    """Stepping in blocks reads the same bits as stepping one step at a
    time: around block edges and step changes, at the probes next to the
    boundaries (their stencils read F = 0 and F = 1), and with several
    probes in one call.  The spectral tail is off, so every step is CN."""
    monkeypatch.setattr(oracle, "_TAIL_TOL", 0.0)
    ff, _ = request.getfixturevalue(field)
    dy, dtau, M = 1 / 50, 5e-3, 600
    steps, tau = _time_steps(dtau, 1000.0, _grid_rate(ff, 1.0, dy))
    if n_steps in ("capped", "cap_reused"):
        capped = int(np.argmax(steps == steps[-1])) + 1
        n_steps = capped + (_BLOCK if n_steps == "cap_reused" else 0)
    steps, tau = steps[:n_steps], tau[:n_steps + 1]
    nodes = -11.0 + 12.0 * np.arange(M + 1) / M
    for probes in [(nodes[1],), (nodes[M - 1],),
                   (nodes[1], -1.0, 0.5, nodes[M - 1])]:
        g = fpt.solve_pde(ff, 1.0, dy=dy, dtau=dtau, tau_max=tau[-1],
                          probe_y=probes)
        F_ref, f_ref = _stepwise_cn(ff, 1.0, probes, dy, steps)
        assert np.array_equal(g.probe_tau, tau)
        assert g.cn_steps == n_steps
        assert g.probe_F.shape == (len(probes), n_steps + 1)
        assert np.array_equal(g.probe_F, F_ref)
        assert np.array_equal(g.probe_f, f_ref)


@pytest.mark.parametrize("field", ["ou", "tanh2", "dry_friction"])
def test_pde_matches_dense_nonsymmetric_cn(field, request, monkeypatch):
    # tau_max = 4 runs every step size, the capped one included: 17 for
    # OU and tanh, 18 for dry friction; the spectral tail is off
    monkeypatch.setattr(oracle, "_TAIL_TOL", 0.0)
    ff, _ = request.getfixturevalue(field)
    dy, dtau, tau_max = 1 / 50, 2e-3, 4.0
    g = fpt.solve_pde(ff, 1.0, dy=dy, dtau=dtau, tau_max=tau_max,
                      probe_y=(-1.0,))
    rate = _grid_rate(ff, 1.0, dy)
    steps, _ = _time_steps(dtau, tau_max, rate)
    assert steps[-1] == _CAP * dtau / min(1.0, rate)
    assert g.cn_steps == len(steps)
    F_ref, f_ref = _dense_cn(ff, 1.0, -1.0, dy, steps)
    assert np.max(np.abs(g.probe_F[0] - F_ref)) < 1e-12
    assert np.max(np.abs(g.probe_f[0] - f_ref)) < 1e-9


def _exact_in_time(ff, y_plus, probe_y, dy, tau):
    """F at the probes from the semi-discrete system dF/dtau = L F + c of
    solve_pde's grid, solved exactly in time: with the symmetric
    S = D L D^-1 = V diag(w) V^T and the steady state L F_ss + c = 0,
    F(tau) = F_ss + D^-1 V e^(w tau) V^T D (0 - F_ss)."""
    y, h, _, lower, upper, log_d, sym_off = _operator(ff, y_plus, None, dy)
    y_min, M = y[0], len(y) - 1
    w, V = linalg.eigh_tridiagonal(np.full(M - 1, -2.0 / h**2), sym_off)
    bands = np.zeros((3, M - 1))
    bands[0, 1:] = upper[:-1]
    bands[1] = -2.0 / h**2
    bands[2, :-1] = lower[1:]
    c = np.zeros(M - 1)
    c[-1] = upper[-1]
    F_ss = linalg.solve_banded((1, 1), bands, -c)
    coef = V.T @ (np.exp(log_d) * -F_ss)
    rows = [int(round((yp - y_min) / h)) - 1 for yp in probe_y]
    modes = np.exp(np.outer(tau, w))
    return (F_ss[rows][:, None] + np.exp(-log_d[rows])[:, None]
            * (V[rows] * coef) @ modes.T)


# sup |F - F_exact| over the probes of the former uniform steps,
# dtau = 1e-3 (20 000 steps), each case's worst offset
_UNIFORM_SUP_ERROR = {("ou", 1.0): 5.7e-6, ("ou", -1.0): 1.5e-5,
                      ("tanh2", 1.0): 4.8e-6, ("tanh2", -1.0): 1.6e-5}

# the slowly decaying rows, where the rate-scaled cap grows the step most
# (lambda_1 from 0.0116 to 0.097); they run as `fpt validate` runs them, at
# dtau = 2e-3 to tau_max = 80
_SLOW_ROWS = [("ou", 2.0), ("tanh2", 2.0), ("dry_friction", 2.0),
              ("ou", 3.0), ("dry_friction", 3.0)]


@pytest.mark.parametrize("field, y_plus", list(_UNIFORM_SUP_ERROR) + _SLOW_ROWS)
def test_pde_graded_steps_match_exact_time_integration(field, y_plus,
                                                       request):
    """The graded steps stay within 1e-5 of the semi-discrete system
    solved exactly in time, at offsets 1, 2 and 4 below the barrier, and
    no further from it than the uniform steps they replace."""
    ff, _ = request.getfixturevalue(field)
    dtau, tau_max = (2e-3, 80.0) if y_plus >= 2 else (1e-3, 20.0)
    probes = (y_plus - 1.0, y_plus - 2.0, y_plus - 4.0)
    g = fpt.solve_pde(ff, y_plus, dy=1 / 200, dtau=dtau, tau_max=tau_max,
                      probe_y=probes)
    F_exact = _exact_in_time(ff, y_plus, probes, 1 / 200, g.probe_tau)
    err = np.max(np.abs(g.probe_F - F_exact))
    assert err < 1e-5
    assert err <= _UNIFORM_SUP_ERROR.get((field, y_plus), np.inf)


@pytest.mark.parametrize("field, y_plus", list(_UNIFORM_SUP_ERROR) + _SLOW_ROWS)
def test_pde_spectral_tail_is_no_further_from_exact_time_integration(
        field, y_plus, request, monkeypatch):
    """Each of these grids switches to the spectral tail.  The CN steps
    before the switch are the bits of CN stepped to the end, and after it
    the tail stays within 1e-5 of the semi-discrete system solved exactly
    in time, and no further from it than CN stepped to the end."""
    ff, _ = request.getfixturevalue(field)
    dtau, tau_max = (2e-3, 80.0) if y_plus >= 2 else (1e-3, 20.0)
    probes = (y_plus - 1.0, y_plus - 2.0, y_plus - 4.0)
    kwargs = dict(dy=1 / 200, dtau=dtau, tau_max=tau_max, probe_y=probes)
    tail = fpt.solve_pde(ff, y_plus, **kwargs)
    monkeypatch.setattr(oracle, "_TAIL_TOL", 0.0)
    stepped = fpt.solve_pde(ff, y_plus, **kwargs)
    n_steps = len(stepped.probe_tau) - 1
    assert stepped.cn_steps == n_steps and tail.cn_steps < n_steps
    assert tail.cn_steps % _BLOCK == 0
    assert np.array_equal(tail.probe_tau, stepped.probe_tau)
    taken = slice(0, tail.cn_steps + 1)
    assert np.array_equal(tail.probe_F[:, taken], stepped.probe_F[:, taken])
    assert np.array_equal(tail.probe_f[:, taken], stepped.probe_f[:, taken])
    F_exact = _exact_in_time(ff, y_plus, probes, 1 / 200, stepped.probe_tau)
    err = np.max(np.abs(tail.probe_F - F_exact))
    assert err < 1e-5
    assert err <= np.max(np.abs(stepped.probe_F - F_exact))


def test_pde_without_a_switch_is_cn_to_the_end(ou, monkeypatch):
    """A solve too short for the state to collapse onto the slowest modes
    never switches, and reads the bits of CN with the tail off."""
    kwargs = dict(dy=1 / 100, dtau=1e-3, tau_max=1.0, probe_y=(0.0, -1.0))
    g = fpt.solve_pde(ou[0], 1.0, **kwargs)
    monkeypatch.setattr(oracle, "_TAIL_TOL", 0.0)
    stepped = fpt.solve_pde(ou[0], 1.0, **kwargs)
    assert g.cn_steps == stepped.cn_steps == len(g.probe_tau) - 1
    assert np.array_equal(g.probe_F, stepped.probe_F)
    assert np.array_equal(g.probe_f, stepped.probe_f)


def test_pde_spectral_tail_reads_are_range_checked(ou, monkeypatch):
    """The tail's stencil reads pass the [0, 1] check of the CN steps: with
    the signs of the slowest rates but lambda_1 flipped, those modes grow
    after the switch, and the error names a step past it.  lambda_1 caps
    the step, so it keeps its sign, and the time grid its steps."""
    kwargs = dict(dy=1 / 100, dtau=2e-3, tau_max=20.0, probe_y=(0.0,))
    switch = fpt.solve_pde(ou[0], 1.0, **kwargs).cn_steps
    real = oracle._slowest_modes

    def growing(*args):
        w, V = real(*args)
        return np.concatenate((-w[:-1], w[-1:])), V

    monkeypatch.setattr(oracle, "_slowest_modes", growing)
    with pytest.raises(NumericsError, match=r"left \[0,1\] at step") as exc:
        fpt.solve_pde(ou[0], 1.0, **kwargs)
    step = int(str(exc.value).split("at step ")[1].split()[0])
    assert step > switch


@pytest.mark.parametrize("kwargs", [dict(tau_max=np.inf), dict(dtau=np.inf),
                                    dict(dy=np.inf), dict(y_min=np.nan),
                                    dict(probe_y=(np.nan,)),
                                    dict(y_plus=np.nan)])
def test_pde_rejects_nonfinite_inputs_before_the_time_grid(ou, kwargs,
                                                         monkeypatch):
    """A non-finite number is bad input, found before the time grid is
    built: with tau_max = inf that grid would never end."""
    def unreachable(*args):
        raise AssertionError("the time grid was built")

    monkeypatch.setattr(oracle, "_time_steps", unreachable)
    args = dict(y_plus=1.0, probe_y=(0.0,)) | kwargs
    with pytest.raises(InputError, match="finite"):
        fpt.solve_pde(ou[0], **args)


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
    ff = fpt.ForceField(lambda y: np.zeros_like(np.asarray(y, float)), zero)
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


def _stepwise_tree(ff, y_plus, y0, dtau, tau_max):
    """solve_tree's lattice stepped one step at a time: each step moves
    every node's mass (2/3 stays, p_u up, p_d down, no flux at the
    bottom), records and clears the top layer.  The absorbed mass of each
    step."""
    n0 = max(1, int(round((y_plus - y0) / np.sqrt(6.0 * dtau))))
    dy = (y_plus - y0) / n0
    dtau = dy * dy / 6.0
    K = int(np.ceil(14.0 / dy))
    shift = ff.A(y_plus - dy * np.arange(K + 1)) * dtau / (2.0 * dy)
    pu, pd = 1.0 / 6.0 + shift, 1.0 / 6.0 - shift
    mass = np.zeros(K + 1)
    mass[n0] = 1.0
    absorbed = np.zeros(int(round(tau_max / dtau)))
    for n in range(len(absorbed)):
        up = pu * mass
        down = pd * mass
        new = (2.0 / 3.0) * mass
        new[:-1] += up[1:]            # k -> k-1
        new[1:] += down[:-1]          # k -> k+1
        new[-1] += down[-1]           # no-flux bottom
        absorbed[n] = new[0]          # everything reaching the top layer
        new[0] = 0.0
        mass = new
    return absorbed


# tau_max 10 and 1 end mid-block (10 140 and 10 086 steps), 0.02 and 0.002
# inside the first block (20 steps each)
@pytest.mark.parametrize("dtau, tau_max", [(1e-3, 10.0), (1e-3, 0.02),
                                           (1e-4, 1.0), (1e-4, 0.002)])
@pytest.mark.parametrize("field", ["ou", "tanh2", "dry_friction"])
def test_tree_blocks_match_stepwise_reference(field, dtau, tau_max, request):
    """Stepping the lattice 32 steps per sparse product absorbs the same
    mass, to rounding, as stepping it one step at a time."""
    ff, _ = request.getfixturevalue(field)
    tr = fpt.solve_tree(ff, 1.0, 0.0, dtau=dtau, tau_max=tau_max)
    ref = _stepwise_tree(ff, 1.0, 0.0, dtau, tau_max)
    assert len(ref) % _TREE_BLOCK != 0
    assert len(tr.absorbed_mass) == len(ref)
    assert np.max(np.abs(tr.F - np.cumsum(ref))) <= 1e-13


# the last case is shorter than half a step: round(tau_max / dt) = 0
@pytest.mark.parametrize("kwargs", [dict(dt=-1e-3), dict(dt=0.0),
                                    dict(tau_max=-5.0), dict(n_paths=0),
                                    dict(tau_max=4e-4), dict(tau_max=np.inf)])
def test_mc_rejects_bad_inputs(ou, kwargs):
    args = dict(dt=1e-3, n_paths=10, tau_max=1.0, seed=0) | kwargs
    with pytest.raises(InputError):
        fpt.simulate(ou[0], 1.0, 0.0, **args)


@pytest.mark.parametrize("kwargs", [dict(dtau=-1e-3), dict(dtau=0.0),
                                    dict(tau_max=0.0), dict(tau_max=4e-4),
                                    dict(tau_max=np.inf)])
def test_tree_rejects_bad_inputs(ou, kwargs):
    args = dict(dtau=1e-3, tau_max=1.0) | kwargs
    with pytest.raises(InputError):
        fpt.solve_tree(ou[0], 1.0, 0.0, **args)


@pytest.mark.parametrize("y_plus, y0", [(1.0, np.nan), (np.nan, 0.0),
                                        (1.0, -np.inf)])
def test_lattice_and_mc_reject_a_nonfinite_start_or_barrier(ou, y_plus, y0):
    # a NaN start used to leave every path censored, not raise
    with pytest.raises(InputError, match="finite"):
        fpt.simulate(ou[0], y_plus, y0, n_paths=10, tau_max=1.0)
    with pytest.raises(InputError, match="finite"):
        fpt.solve_tree(ou[0], y_plus, y0, tau_max=1.0)


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
    assert res.censored_count + len(res.samples) == 5000


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
    # the sup runs over the sampler's step ends, where its hits lie
    tau = 5e-3 * np.arange(1, 5001)
    F = np.interp(tau, g.probe_tau, g.probe_F[0])
    ks = {}
    for bridge in (True, False):
        res = fpt.simulate(ff, 1.0, 0.0, dt=5e-3, n_paths=120_000,
                           tau_max=25.0, bridge=bridge, seed=9)
        ks[bridge] = fpt.kolmogorov_distance(res.samples, tau, F,
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


def _abm_kolmogorov_distance(ff, n, seed):
    """The sampler's KS distance to the exact law of drifting Brownian
    motion (mu = 1, b = 1, dt = 1e-2, tau_max = 20), and its bound: DKW at
    1e-6 plus 2**-53 per step for the skipped bridge draws."""
    mu, b, dt, tau_max = 1.0, 1.0, 1e-2, 20.0
    res = fpt.simulate(ff, b, 0.0, dt=dt, n_paths=n, tau_max=tau_max,
                       seed=seed)
    n_steps = int(round(tau_max / dt))
    tau = dt * np.arange(1, n_steps + 1)       # the sampler's step ends
    ref = (special.ndtr((mu * tau - b) / np.sqrt(2 * tau))
           + np.exp(mu * b) * special.ndtr(-(mu * tau + b) / np.sqrt(2 * tau)))
    ks = fpt.kolmogorov_distance(res.samples, tau, ref, n_paths=n)
    dkw = np.sqrt(np.log(2 / 1e-6) / (2 * n))  # P(KS > dkw) <= 1e-6
    slack = n_steps * 2.0**-53                 # skipped draws; Euler slack is 0
    return ks, dkw + slack


def test_mc_matches_abm_inverse_gaussian_law(abm):
    """Constant drift mu: the Euler step and the bridge probability are
    both exact, so at the step ends the sampler follows the inverse-Gaussian
    law F(tau) = Phi((mu tau - b) / sqrt(2 tau))
                 + e^{mu b} Phi(-(mu tau + b) / sqrt(2 tau)),
    except for the skipped bridge draws, at most 2**-53 per path-step.
    200 000 live paths step one step per block until the tail."""
    ks, bound = _abm_kolmogorov_distance(abm[0], 200_000, seed=11)
    assert ks <= bound


def test_mc_multi_step_blocks_match_abm_inverse_gaussian_law(abm):
    """The same exact law with 2 000 paths, whose blocks span 32 steps
    from the start: a path's hit is its first crossing in the block."""
    assert _MC_BUDGET // 2000 == 32
    ks, bound = _abm_kolmogorov_distance(abm[0], 2000, seed=11)
    assert ks <= bound


def test_mc_concurrent_calls_match_serial_call(ou):
    """simulate keeps its buffers in its own call, so calls running at once
    in more threads than cores, switching often, return the samples of the
    serial call with the same seed."""
    kwargs = dict(dt=1e-3, n_paths=2000, tau_max=5.0, seed=7)
    serial = fpt.simulate(ou[0], 1.0, 0.0, **kwargs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(fpt.simulate, ou[0], 1.0, 0.0, **kwargs)
                       for _ in range(4)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for res in results:
        assert np.array_equal(res.samples, serial.samples)
        assert res.censored_count == serial.censored_count


def test_mc_rejects_bad_geometry(ou):
    with pytest.raises(InputError):
        fpt.simulate(ou[0], -1.0, 0.0, dt=1e-3, n_paths=10, tau_max=1.0, seed=0)
