"""Independent numerical ground truth.

Three routes to the first-passage law, none of which share code with the
analytic modules:

  solve_pde   Crank-Nicolson for dF/dtau = A F_y + F_yy on [y_min, y_plus]
              with F(tau, y_plus) = 1, F(tau, y_min) = 0, F(0, .) = 0.
              The density is read off the spatial operator f = A F_y + F_yy
              (smooth; no O(dtau) differencing noise near tau = 0).
  solve_tree  explicit trinomial lattice, forward induction with an
              absorbing top layer.
  simulate    Euler-Maruyama paths with an optional Brownian-bridge
              correction for intra-step barrier crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import InputError, NumericsError
from .forcefield import ForceField

__all__ = ["SolutionGrid", "TreeResult", "McResult",
           "solve_pde", "solve_tree", "simulate",
           "kolmogorov_distance", "l1_distance"]


@dataclass(frozen=True)
class SolutionGrid:
    """PDE solver output.

    F and f are stored on (possibly decimated) tau snapshots to bound
    memory; `probe_tau`, `probe_F`, `probe_f` carry full-resolution time
    series at the requested starting points.
    """

    y_nodes: np.ndarray
    tau_nodes: np.ndarray
    F: np.ndarray                     # shape (n_tau_stored, n_y)
    f: np.ndarray
    probe_y: tuple = ()
    probe_tau: np.ndarray = None
    probe_F: np.ndarray = None        # shape (n_probe, n_tau_full)
    probe_f: np.ndarray = None


@dataclass(frozen=True)
class TreeResult:
    tau_nodes: np.ndarray
    absorbed_mass: np.ndarray         # mass absorbed within each step
    F: np.ndarray                     # cumulative absorption at step ends
    dy: float
    dtau: float

    @property
    def density(self):
        return self.absorbed_mass / self.dtau


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray               # hitting times, dimensionless tau
    censored_count: int
    dt: float
    n_paths: int
    seed: int
    bridge: bool

    @property
    def mean(self):
        return float(np.mean(self.samples))

    @property
    def mean_standard_error(self):
        return float(np.std(self.samples, ddof=1) / np.sqrt(len(self.samples)))


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

def solve_pde(ff: ForceField, y_plus, y_min=None, dy=1 / 200, dtau=1e-3,
              tau_max=20.0, probe_y=(), max_stored=2001) -> SolutionGrid:
    """Crank-Nicolson with Rannacher start-up.

    The first two steps are replaced by four backward-Euler half steps to
    damp the ringing CN produces from the discontinuous initial data at
    the absorbing boundary; global second-order accuracy survives.
    The far field is truncated with a Dirichlet zero at y_min
    (default y_plus - 12, where the hitting probability is negligible for
    every built-in field).
    """
    y_plus = float(y_plus)
    if y_min is None:
        y_min = y_plus - 12.0
    if not (dy > 0 and dtau > 0 and tau_max > 0):
        raise InputError("dy, dtau, tau_max must be positive")
    M = int(round((y_plus - y_min) / dy))
    if M < 8:
        raise InputError("grid too coarse")
    y = y_min + (y_plus - y_min) * np.arange(M + 1) / M
    h = (y_plus - y_min) / M
    Ay = np.asarray(ff.A(y), float)

    # interior operator  L F = A F_y + F_yy  (rows i = 1..M-1)
    lower = -Ay[1:M] / (2 * h) + 1.0 / h**2
    diag = np.full(M - 1, -2.0 / h**2)
    upper = Ay[1:M] / (2 * h) + 1.0 / h**2
    L = sp.diags([lower[1:], diag, upper[:-1]], [-1, 0, 1], format="csc")
    bc = np.zeros(M - 1)
    bc[-1] = upper[-1]                # F(., y_plus) = 1 enters the last row

    # one factorization serves both schemes: CN with step dtau and
    # backward Euler with step dtau/2 share the matrix I - (dtau/2) L
    I = sp.identity(M - 1, format="csc")
    lu = splu((I - 0.5 * dtau * L).tocsc())

    probe_idx = []
    for yp in probe_y:
        i = int(round((yp - y_min) / h))
        if not 1 <= i <= M - 1:
            raise InputError(f"probe {yp:g} outside the open interval")
        if abs(y[i] - yp) > 1e-9:
            warnings.warn(f"probe {yp:g} snapped to grid node {y[i]:.6g}")
        probe_idx.append(i)

    n_steps = int(round(tau_max / dtau))
    stride = max(1, int(np.ceil((n_steps + 1) / max_stored)))
    stored_steps = list(range(0, n_steps + 1, stride))
    if stored_steps[-1] != n_steps:
        stored_steps.append(n_steps)
    store_at = {s: k for k, s in enumerate(stored_steps)}

    Fs = np.zeros((len(stored_steps), M + 1))
    fs = np.zeros((len(stored_steps), M + 1))
    ptau = dtau * np.arange(n_steps + 1)
    pF = np.zeros((len(probe_idx), n_steps + 1))
    pf = np.zeros((len(probe_idx), n_steps + 1))

    def full_profile(Fv):
        out = np.empty(M + 1)
        out[0], out[-1] = 0.0, 1.0
        out[1:M] = Fv
        return out

    def spatial_density(Ffull):
        d = np.zeros(M + 1)
        d[1:M] = (Ay[1:M] * (Ffull[2:] - Ffull[:-2]) / (2 * h)
                  + (Ffull[2:] - 2 * Ffull[1:M] + Ffull[:-2]) / h**2)
        return d

    F = np.zeros(M - 1)
    Fs[0] = full_profile(F)
    for step in range(1, n_steps + 1):
        if step <= 2:
            for _ in range(2):        # two BE half steps per nominal step
                F = lu.solve(F + 0.5 * dtau * bc)
        else:
            F = lu.solve(F + 0.5 * dtau * (L @ F) + dtau * bc)
        if np.min(F) < -1e-6 or np.max(F) > 1.0 + 1e-6:
            raise NumericsError(
                f"PDE solution left [0,1] at step {step} "
                f"(range [{np.min(F):.3e}, {np.max(F):.3e}]); refine dtau")

        if probe_idx or step in store_at:
            Ffull = full_profile(F)
        for k, i in enumerate(probe_idx):
            pF[k, step] = Ffull[i]
            pf[k, step] = (Ay[i] * (Ffull[i + 1] - Ffull[i - 1]) / (2 * h)
                           + (Ffull[i + 1] - 2 * Ffull[i] + Ffull[i - 1]) / h**2)
        if step in store_at:
            k = store_at[step]
            Fs[k] = Ffull
            fs[k] = spatial_density(Ffull)

    return SolutionGrid(
        y_nodes=y, tau_nodes=dtau * np.asarray(stored_steps, float),
        F=Fs, f=fs,
        probe_y=tuple(y[i] for i in probe_idx),
        probe_tau=ptau if probe_idx else None,
        probe_F=pF if probe_idx else None,
        probe_f=pf if probe_idx else None)


# ----------------------------------------------------------------------
# trinomial tree
# ----------------------------------------------------------------------

def solve_tree(ff: ForceField, y_plus, y0, dtau=1e-3, tau_max=20.0,
               span=14.0) -> TreeResult:
    """Forward induction on a trinomial lattice.

    Spacing dy = sqrt(6 dtau) matches the variance 2 dtau with middle
    probability 2/3; dtau is nudged so the start sits exactly on a node.
    Branch probabilities p_{u,d} = 1/6 +- A dtau/(2 dy) must stay in
    [0, 1], which bounds |A| sqrt(dtau); violations raise with a
    suggestion to reduce dtau.  The bottom edge is treated as no-flux
    (mass there is negligible by construction).
    """
    y_plus, y0 = float(y_plus), float(y0)
    if y0 >= y_plus:
        raise InputError("needs y0 < y_plus")
    dy0 = np.sqrt(6.0 * dtau)
    n0 = max(1, int(round((y_plus - y0) / dy0)))
    dy = (y_plus - y0) / n0
    dtau = dy * dy / 6.0

    K = int(np.ceil(span / dy))
    nodes = y_plus - dy * np.arange(K + 1)     # k = 0 is the boundary layer
    A = np.asarray(ff.A(nodes), float)
    shift = A * dtau / (2.0 * dy)
    if np.max(np.abs(shift)) > 1.0 / 6.0:
        worst = nodes[int(np.argmax(np.abs(shift)))]
        raise InputError(
            f"branch probability out of range at y = {worst:.3g}; "
            f"use dtau below {(dy / (3 * np.max(np.abs(A)))) ** 1:.2e} "
            "(or shrink the lattice span)")
    pu = 1.0 / 6.0 + shift
    pd = 1.0 / 6.0 - shift

    mass = np.zeros(K + 1)
    mass[n0] = 1.0
    n_steps = int(round(tau_max / dtau))
    absorbed = np.zeros(n_steps)
    for n in range(n_steps):
        up = pu * mass
        down = pd * mass
        new = (2.0 / 3.0) * mass
        new[:-1] += up[1:]            # k -> k-1
        new[1:] += down[:-1]          # k -> k+1
        new[-1] += down[-1]           # no-flux bottom
        absorbed[n] = new[0]          # everything reaching the top layer
        new[0] = 0.0
        mass = new

    F = np.cumsum(absorbed)
    return TreeResult(tau_nodes=dtau * np.arange(1, n_steps + 1),
                      absorbed_mass=absorbed, F=F, dy=dy, dtau=dtau)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

def simulate(ff: ForceField, y_plus, y0, dt=1e-3, n_paths=100_000,
             tau_max=20.0, bridge=True, seed=0) -> McResult:
    """Euler-Maruyama first-passage sampler, dY = A(Y) dtau + sqrt(2) dW.

    With bridge=True each surviving step additionally crosses with the
    Brownian-bridge probability exp(-(y_plus-Y_i)(y_plus-Y_{i+1})/dt)
    (diffusion coefficient 2), removing most of the O(sqrt(dt))
    discretization bias of the naive scheme.  Fully reproducible from
    `seed`; paths still alive at tau_max are censored and counted.
    """
    y_plus, y0 = float(y_plus), float(y0)
    if y0 >= y_plus:
        raise InputError("needs y0 < y_plus")
    if dt > 1e-2:
        warnings.warn("dt above 1e-2 gives visibly biased hitting times")
    rng = np.random.default_rng(seed)
    n_steps = int(round(tau_max / dt))
    sq = np.sqrt(2.0 * dt)

    alive = np.full(n_paths, y0, dtype=float)
    hit_times = []
    for step in range(1, n_steps + 1):
        n_alive = alive.shape[0]
        if n_alive == 0:
            break
        prop = alive + np.asarray(ff.A(alive), float) * dt \
            + sq * rng.standard_normal(n_alive)
        crossed = prop >= y_plus
        if bridge:
            surv = ~crossed
            g0 = y_plus - alive[surv]
            g1 = y_plus - prop[surv]
            with np.errstate(under="ignore"):
                p = np.exp(-g0 * g1 / dt)
            hit_bridge = rng.random(g0.shape[0]) < p
            idx = np.flatnonzero(surv)
            crossed[idx[hit_bridge]] = True
        n_hit = int(np.count_nonzero(crossed))
        if n_hit:
            hit_times.append(np.full(n_hit, step * dt))
            alive = prop[~crossed]
        else:
            alive = prop

    samples = np.concatenate(hit_times) if hit_times else np.empty(0)
    return McResult(samples=np.sort(samples), censored_count=int(alive.shape[0]),
                    dt=dt, n_paths=n_paths, seed=seed, bridge=bridge)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def kolmogorov_distance(samples, tau_grid, F_grid, n_paths=None):
    """sup_t |F_empirical(t) - F_reference(t)| on the reference grid.

    `n_paths` lets censored paths count as not-yet-hit mass; defaults to
    len(samples).
    """
    samples = np.sort(np.asarray(samples, float))
    n = len(samples) if n_paths is None else int(n_paths)
    emp = np.searchsorted(samples, tau_grid, side="right") / n
    return float(np.max(np.abs(emp - np.asarray(F_grid, float))))


def l1_distance(tau, f_a, f_b):
    """int |f_a - f_b| dtau by the trapezoid rule on a common grid."""
    return float(np.trapezoid(np.abs(np.asarray(f_a) - np.asarray(f_b)),
                              np.asarray(tau, float)))
