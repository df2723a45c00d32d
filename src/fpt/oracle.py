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
from scipy.linalg import lapack

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
    """Lattice output.  Only the mass absorbed within each step is stored;
    the step-end times, the cumulative absorption F and the density are
    derived from it on each access."""

    absorbed_mass: np.ndarray         # mass absorbed within each step
    dy: float
    dtau: float

    @property
    def tau_nodes(self):
        return self.dtau * np.arange(1, len(self.absorbed_mass) + 1)

    @property
    def F(self):
        return np.cumsum(self.absorbed_mass)

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

    Both schemes solve with the tridiagonal matrix I - (dtau/2) L, which
    LAPACK factors once (dgttrf); each step is one in-place dgttrs solve
    on a right-hand side built in a preallocated buffer.  Every step
    checks that F stays in [0, 1] and raises NumericsError if it leaves.
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
    diag = -2.0 / h**2
    upper = Ay[1:M] / (2 * h) + 1.0 / h**2
    half = 0.5 * dtau

    # one factorization serves both schemes: CN with step dtau and
    # backward Euler with step dtau/2 share the matrix I - (dtau/2) L
    *lu, info = lapack.dgttrf(-half * lower[1:],
                              np.full(M - 1, 1.0 - half * diag),
                              -half * upper[:-1])
    if info != 0:
        raise NumericsError(f"PDE step matrix is singular (dgttrf info {info})")
    # explicit half of CN, (I + (dtau/2) L) F, reads F(., y_min) = 0 and
    # F(., y_plus) = 1 from the full profile; the implicit half's
    # boundary value enters the last row as `bc`
    c_mid, c_lo, c_up = 1.0 + half * diag, half * lower, half * upper
    bc = half * upper[-1]

    probe_idx = []
    for yp in probe_y:
        i = int(round((yp - y_min) / h))
        if not 1 <= i <= M - 1:
            raise InputError(f"probe {yp:g} outside the open interval")
        if abs(y[i] - yp) > 1e-9:
            warnings.warn(f"probe {yp:g} snapped to grid node {y[i]:.6g}")
        probe_idx.append(i)
    # each probe reads its node and both neighbours, one row per step
    stencil = np.array([(i - 1, i, i + 1) for i in probe_idx],
                       dtype=np.intp).reshape(-1)

    n_steps = int(round(tau_max / dtau))
    stride = max(1, int(np.ceil((n_steps + 1) / max_stored)))
    stored_steps = list(range(0, n_steps + 1, stride))
    if stored_steps[-1] != n_steps:
        stored_steps.append(n_steps)
    store_at = {s: k for k, s in enumerate(stored_steps)}

    Fs = np.zeros((len(stored_steps), M + 1))
    fs = np.zeros((len(stored_steps), M + 1))
    reads = np.zeros((n_steps + 1, stencil.size))

    # two full profiles swap roles each solve: the right-hand side is
    # built in the interior of `nxt` and solved there in place
    cur = np.zeros(M + 1)
    cur[-1] = 1.0
    nxt = cur.copy()
    tmp = np.empty(M - 1)
    Fs[0] = cur
    for step in range(1, n_steps + 1):
        startup = step <= 2           # two BE half steps per nominal step
        for _ in range(2 if startup else 1):
            rhs = nxt[1:M]
            if startup:
                rhs[:] = cur[1:M]
            else:
                np.multiply(cur[1:M], c_mid, out=rhs)
                np.multiply(c_lo, cur[:-2], out=tmp)
                rhs += tmp
                np.multiply(c_up, cur[2:], out=tmp)
                rhs += tmp
            rhs[-1] += bc
            lapack.dgttrs(*lu, rhs, overwrite_b=1)
            cur, nxt = nxt, cur
        F = cur[1:M]
        lo, hi = F.min(), F.max()
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise NumericsError(
                f"PDE solution left [0,1] at step {step} "
                f"(range [{lo:.3e}, {hi:.3e}]); refine dtau")

        np.take(cur, stencil, out=reads[step])
        k = store_at.get(step)
        if k is not None:
            Fs[k] = cur
            fs[k, 1:M] = (Ay[1:M] * (cur[2:] - cur[:-2]) / (2 * h)
                          + (cur[2:] - 2 * cur[1:M] + cur[:-2]) / h**2)

    ptau = pF = pf = None
    if probe_idx:
        Fm, F0, Fp = (np.ascontiguousarray(reads[:, j::3].T) for j in range(3))
        Ai = Ay[probe_idx][:, None]
        ptau = dtau * np.arange(n_steps + 1)
        pF = F0
        pf = Ai * (Fp - Fm) / (2 * h) + (Fp - 2 * F0 + Fm) / h**2
    return SolutionGrid(
        y_nodes=y, tau_nodes=dtau * np.asarray(stored_steps, float),
        F=Fs, f=fs, probe_y=tuple(y[i] for i in probe_idx),
        probe_tau=ptau, probe_F=pF, probe_f=pf)


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
    if not (dtau > 0 and tau_max > 0 and span > 0):
        raise InputError("dtau, tau_max and span must be positive")
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

    return TreeResult(absorbed_mass=absorbed, dy=dy, dtau=dtau)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

# Generator.random returns multiples of 2**-53 and exp(-37) < 2**-53, so a
# bridge probability exp(-g0 g1 / dt) with g0 g1 >= 37 dt fires only on a
# zero draw: skipping that draw moves the crossing law by at most 2**-53
# per path-step.
_BRIDGE_CUT = 37.0


def simulate(ff: ForceField, y_plus, y0, dt=1e-3, n_paths=100_000,
             tau_max=20.0, bridge=True, seed=0) -> McResult:
    """Euler-Maruyama first-passage sampler, dY = A(Y) dtau + sqrt(2) dW.

    Each path carries its gap g = y_plus - Y and crosses in a step when
    the new gap g1 is <= 0.  With bridge=True a surviving step
    additionally crosses with the Brownian-bridge probability
    exp(-g0 g1 / dt) (diffusion coefficient 2), removing most of the
    O(sqrt(dt)) discretization bias of the naive scheme.  Its uniform is
    drawn only where g0 g1 < 37 dt: elsewhere the probability is below
    exp(-37) < 2**-53, the spacing of `Generator.random`, so only a zero
    draw could fire.  Each step draws the normals of the live paths, then
    those uniforms.  Fully reproducible from `seed`; paths still alive at
    tau_max are censored and counted.  `samples` come out sorted.
    """
    y_plus, y0 = float(y_plus), float(y0)
    if y0 >= y_plus:
        raise InputError("needs y0 < y_plus")
    if not (dt > 0 and tau_max > 0 and n_paths > 0):
        raise InputError("dt, tau_max and n_paths must be positive")
    if dt > 1e-2:
        warnings.warn("dt above 1e-2 gives visibly biased hitting times")
    rng = np.random.default_rng(seed)
    n_steps = int(round(tau_max / dt))
    sq = np.sqrt(2.0 * dt)
    cut = _BRIDGE_CUT * dt

    # preallocated buffers, sliced to the live paths after each step with
    # hits; `gap` and `new_gap` swap roles on every other step
    gap = np.full(n_paths, y_plus - y0)
    new_gap, y, z, w = (np.empty(n_paths) for _ in range(4))
    mask = np.empty(n_paths, dtype=bool)
    hit_steps, hit_counts = [], []
    n = n_paths
    for step in range(1, n_steps + 1):
        np.subtract(y_plus, gap, out=y)
        np.multiply(ff.A(y), dt, out=w)
        rng.standard_normal(out=z)
        np.multiply(z, sq, out=z)
        np.add(w, z, out=w)
        np.subtract(gap, w, out=new_gap)
        if bridge:
            # candidates: crossed (g0 g1 <= 0) or close enough to bridge
            np.multiply(gap, new_gap, out=w)
            np.less(w, cut, out=mask)
        else:
            np.less_equal(new_gap, 0.0, out=mask)
        hit = mask.nonzero()[0]
        if bridge and hit.size:
            crossed = new_gap[hit] <= 0.0
            near = ~crossed
            if near.any():
                p = np.exp(w[hit[near]] / -dt)
                crossed[near] = rng.random(p.size) < p
            hit = hit[crossed]
        if hit.size:
            hit_steps.append(step)
            hit_counts.append(hit.size)
            n -= hit.size
            if n == 0:
                break
            mask.fill(True)
            mask[hit] = False
            new_gap.compress(mask, out=gap[:n])
            gap, new_gap, y, z, w, mask = (gap[:n], new_gap[:n], y[:n], z[:n],
                                           w[:n], mask[:n])
        else:
            gap, new_gap = new_gap, gap

    samples = dt * np.repeat(np.asarray(hit_steps, float), hit_counts)
    return McResult(samples=samples, censored_count=n,
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
