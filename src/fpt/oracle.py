"""Independent numerical ground truth.

Three routes to the first-passage law, none of which share code with the
analytic modules:

  solve_pde   Crank-Nicolson for dF/dtau = A F_y + F_yy on [y_min, y_plus]
              with F(tau, y_plus) = 1, F(tau, y_min) = 0, F(0, .) = 0,
              recorded at every step at the requested starting points
              only.  The density is read off the spatial operator
              f = A F_y + F_yy (smooth; no O(dtau) differencing noise near
              tau = 0).  It steps the symmetrized operator D L D^-1 as
              G <- 2 K^-1 (G + b) - G: one dpttrs solve per step, in
              blocks of 32 steps that are checked against [0, 1] and read
              at the probes at once.  The step is graded: dtau/10 in the
              first block, 1.01^32 times larger in each later one, up to
              5 dtau / min(1, lambda_1), with one dpttrf per block while it
              grows; lambda_1 is the slowest decay rate of the grid's own
              operator, so the capped step keeps k lambda_1 <= 5 dtau.
              Its grid and operator come from one builder, `_operator`,
              which also checks their domain (finite A, cell Peclet
              number below 1, scaling within e^460) up front; InputError
              names the knob to turn (dy or y_min).
  solve_tree  explicit trinomial lattice, forward induction with an
              absorbing top layer, 32 steps per sparse banded product.
  simulate    Euler-Maruyama paths with an optional Brownian-bridge
              correction for intra-step barrier crossings, advanced in
              blocks of steps whose length follows the live path count.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np
from scipy import sparse
from scipy.linalg import eigvalsh_tridiagonal, lapack

from .errors import InputError, NumericsError
from .forcefield import ForceField

__all__ = ["SolutionGrid", "TreeResult", "McResult",
           "solve_pde", "solve_tree", "simulate",
           "kolmogorov_distance", "l1_distance"]


@dataclass(frozen=True)
class SolutionGrid:
    """PDE solver output: the spatial grid, and the time series of F and
    f at every step, one row per starting point in the order of
    `solve_pde`'s `probe_y`, each read at the grid node it snaps to."""

    y_nodes: np.ndarray
    probe_tau: np.ndarray             # graded step ends, shape (n_steps + 1,)
    probe_F: np.ndarray               # shape (n_probe, n_steps + 1)
    probe_f: np.ndarray


@dataclass(frozen=True)
class TreeResult:
    """Lattice output.  Only the mass absorbed within each step and the
    spacing dy are stored; the step dtau = dy^2/6, the step-end times and
    the cumulative absorption F are derived from them on each access."""

    absorbed_mass: np.ndarray         # mass absorbed within each step
    dy: float

    @property
    def dtau(self):
        return self.dy * self.dy / 6.0

    @property
    def tau_nodes(self):
        return self.dtau * np.arange(1, len(self.absorbed_mass) + 1)

    @property
    def F(self):
        return np.cumsum(self.absorbed_mass)


@dataclass(frozen=True)
class McResult:
    samples: np.ndarray               # hitting times, dimensionless tau
    censored_count: int
    dt: float

    @property
    def n_paths(self):
        return len(self.samples) + self.censored_count

    @property
    def mean(self):
        return float(np.mean(self.samples))

    @property
    def mean_standard_error(self):
        return float(np.std(self.samples, ddof=1) / np.sqrt(len(self.samples)))


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

# The symmetric form keeps every node's scale D inside [e^-460, 1], far
# above the smallest normal double (e^-708), so G = D F neither underflows
# nor loses its relative precision.
_MAX_LOG_SCALE = 460.0

# solve_pde steps this many steps into a buffer, then checks and reads
# them at once
_BLOCK = 32

# the graded time steps of solve_pde, constant within a block: the first
# block steps _START * dtau, each later block _GROWTH times the step of the
# one before, up to _CAP * dtau / min(1, rate)
_START = 0.1
_GROWTH = 1.01 ** _BLOCK
_CAP = 5.0


def _operator(ff, y_plus, y_min, dy):
    """solve_pde's grid on [y_min, y_plus] and its operator
    L = A d/dy + d2/dy2 in symmetric form S = D L D^-1: the nodes y, their
    spacing h, A at the nodes, L's sub- and super-diagonals on the
    interior rows, log D on the interior nodes (max 0) and S's
    off-diagonal.  y_min defaults to min(y_plus - 12, -y_plus - 5).
    InputError is raised outside the domain solve_pde documents."""
    if y_min is None:
        y_min = min(y_plus - 12.0, -y_plus - 5.0)
    M = int(round((y_plus - y_min) / dy))
    if M < 8:
        raise InputError("grid too coarse")
    y = y_min + (y_plus - y_min) * np.arange(M + 1) / M
    h = (y_plus - y_min) / M
    Ay = np.asarray(ff.A(y), float)
    bad = ~np.isfinite(Ay)
    if bad.any():
        raise InputError(f"drift A(y) is not finite at y = "
                         f"{y[bad.argmax()]:.6g}")

    # interior operator  L F = A F_y + F_yy  (rows i = 1..M-1)
    peclet = np.abs(Ay[1:M]) * h / 2
    if peclet.max() >= 1.0:
        k = peclet.argmax()
        raise InputError(
            f"cell Peclet number |A| dy/2 = {peclet[k]:.3g} >= 1 at "
            f"y = {y[k + 1]:.6g}; refine dy below {2 / abs(Ay[k + 1]):.3g}")
    lower = -Ay[1:M] / (2 * h) + 1.0 / h**2
    upper = Ay[1:M] / (2 * h) + 1.0 / h**2
    log_d = np.concatenate(
        ([0.0], np.cumsum(0.5 * (np.log(upper[:-1]) - np.log(lower[1:])))))
    log_d -= log_d.max()
    if log_d.min() < -_MAX_LOG_SCALE:
        k = log_d.argmin()
        raise InputError(
            f"the symmetric scaling spans e^{-log_d[k]:.0f} (limit "
            f"e^{_MAX_LOG_SCALE:.0f}), smallest at y = {y[k + 1]:.6g}; "
            f"move y_min = {y_min:g} closer to y_plus")
    return y, h, Ay, lower, upper, log_d, np.sqrt(upper[:-1] * lower[1:])


def _slowest_rate(h, sym_off):
    """lambda_1, the slowest decay rate of solve_pde's grid: minus the
    largest eigenvalue of its symmetric operator S, whose diagonal is
    -2/h^2 and whose off-diagonal is `sym_off`.  S is similar to L, and -L
    is irreducibly diagonally dominant with positive diagonal and
    non-positive off-diagonal, so lambda_1 > 0; the eigensolver resolves
    it to about eps 4/h^2."""
    n = len(sym_off) + 1
    top = eigvalsh_tridiagonal(np.full(n, -2.0 / h**2), sym_off,
                               select="i", select_range=(n - 1, n - 1))
    return -float(top[0])


def _time_steps(dtau, tau_max, rate):
    """The step of each of solve_pde's steps, and the nodes tau_0 = 0 <
    tau_1 < ... < tau_N they reach, with tau_{N-1} < tau_max <= tau_N: the
    grid ends at the first node at or past tau_max, so its last block may
    be partial.  Each node is the running sum of the steps before it.
    The cap _CAP * dtau / min(1, rate) keeps k rate <= _CAP * dtau for
    the slowest decay rate `rate`; at rate >= 1 it is _CAP * dtau.  A rate
    the eigensolver rounds to zero or below (a lambda_1 under about
    eps 4/h^2, far out on the tail) leaves the step uncapped."""
    cap = _CAP * dtau / min(1.0, rate) if rate > 0 else np.inf
    sizes, step, span = [], _START * dtau, 0.0
    while span < tau_max:
        sizes.append(step)
        span += _BLOCK * step
        step = min(step * _GROWTH, cap)
    # one block more, so that rounding in the running sum cannot leave the
    # last node short of tau_max
    sizes.append(step)
    steps = np.repeat(sizes, _BLOCK)
    tau = np.concatenate(([0.0], np.cumsum(steps)))
    n_steps = int(np.searchsorted(tau, tau_max))
    return steps[:n_steps], tau[:n_steps + 1]


def solve_pde(ff: ForceField, y_plus, y_min=None, dy=1 / 200, dtau=1e-3,
              tau_max=20.0, probe_y=()) -> SolutionGrid:
    """Crank-Nicolson on graded time steps with Rannacher start-up, read
    at the probes.

    `probe_y` names the starting points whose F and f are recorded at
    every step; at least one is required, each strictly inside
    (y_min, y_plus), and the full field is never stored.

    `dtau` sets the scale of the time steps.  The step is constant within
    each block of _BLOCK steps: dtau/10 in the first block, then 1.01^32
    (about 1.375) times the previous block's step, up to 5 dtau /
    min(1, lambda_1).  Small steps resolve the fast start; after it the
    solution is smooth and decays like e^(-lambda_1 tau), so the step can
    grow geometrically, as step-size control would let it (Hairer, Norsett
    & Wanner, Solving ODEs I, sec. II.4).  CN's relative error on that
    slowest mode grows like (k lambda_1)^2, so the cap keeps
    k lambda_1 <= 5 dtau: a slowly decaying grid (lambda_1 < 1) takes
    steps up to 5 dtau / lambda_1, and one with lambda_1 >= 1 steps at
    most 5 dtau.  lambda_1 is minus the largest eigenvalue of the
    symmetric S below (`eigvalsh_tridiagonal`, about 1 ms at M = 2400).
    The grid `probe_tau` is the running sum of the steps and ends at the
    first node at or past tau_max.  The first two steps are replaced by
    four backward-Euler half steps to damp the ringing CN produces from
    the discontinuous initial data at the absorbing boundary (Rannacher,
    Numer. Math. 43, 1984); global second-order accuracy survives.
    The far field is truncated with a Dirichlet zero at y_min, by default
    min(y_plus - 12, -y_plus - 5), where the hitting probability is
    negligible for every built-in field: 12 below the barrier, and above
    y_plus = 3.5 further from 0 than the barrier by 5, so that for OU the
    far end stays a much slower exit than the barrier (at y_plus = 6 the
    end y_plus - 12 = -6 would exit as fast, and double lambda_1).

    The interior operator L = A d/dy + d2/dy2 has sub-diagonal
    l_i = 1/h^2 - A_i/(2h) and super-diagonal u_i = 1/h^2 + A_i/(2h).  The
    diagonal scaling D with D_{i+1}/D_i = sqrt(u_i / l_{i+1}), normalized
    to max D = 1, makes S = D L D^-1 symmetric with off-diagonal
    sqrt(u_i l_{i+1}), so for a step k the matrix K = I - (k/2) S is
    symmetric positive definite.  LAPACK factors K (dpttrf) once per
    block while the step grows, and the capped step's factors serve every
    later block; the solver carries G = D F.  With I + (k/2) S = 2I - K, a
    CN step is G <- 2 K^-1 (G + b) - G and a backward-Euler half step is
    G <- K^-1 (G + b): one in-place dpttrs solve each, where b is zero
    except on the last row, which carries the boundary value F = 1 as
    D_{M-1} (k/2) u_{M-1}; the CN solve uses the factors of K / 2, so
    its dpttrs returns 2 K^-1 (G + b) directly.

    Steps run in blocks of _BLOCK, each solved into its own row of a
    buffer.  After a block, F = G / D is checked to stay in [0, 1] at every
    node of every step, from the node-wise min and max of G over the block
    (D > 0, so this is exact), and NumericsError names the first step that
    left (or is NaN).  The probes read their stencil columns of the block.

    The scaling is defined only where it is real and representable, and
    outside that domain InputError is raised:
      - A(y) must be finite at every grid node;
      - the cell Peclet number |A| h / 2 must stay below 1 at every
        interior node (l_i, u_i > 0): refine dy;
      - log(max D / min D), the range of the integral of A/2 and so at
        most the integral of |A|/2 over [y_min, y_plus], must not exceed
        460: move y_min closer to y_plus.
    Built-in fields on the CLI grids sit far inside both bounds: OU with
    y_min = -23 has a log-range of about 132.  With the default y_min the
    log-range of OU is (y_plus + 5)^2 / 4 above y_plus = 3.5, and reaches
    460 at y_plus = 37.9.
    """
    y_plus = float(y_plus)
    if not (dy > 0 and dtau > 0 and tau_max > 0):
        raise InputError("dy, dtau, tau_max must be positive")
    if len(probe_y) == 0:
        raise InputError("solve_pde needs at least one probe_y")
    y, h, Ay, _, upper, log_d, sym_off = _operator(ff, y_plus, y_min, dy)
    y_min, M = y[0], len(y) - 1
    d_inv = np.exp(-log_d)

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

    steps, tau = _time_steps(dtau, tau_max, _slowest_rate(h, sym_off))
    n_steps = len(steps)
    reads = np.zeros((n_steps + 1, stencil.size))
    # the interior column of each stencil node; the boundary nodes 0 and M
    # read F = 0 and F = 1 instead
    col = np.clip(stencil - 1, 0, M - 2)
    at_min, at_plus = stencil == 0, stencil == M

    # G lives on the interior nodes.  Row 0 of `block` holds G at the end
    # of the previous block, rows 1.._BLOCK the steps of this one, each
    # solved in place from the row above.  Halving the diagonal factor is
    # exact, so the CN solve returns 2 K^-1 r bit for bit.
    block = np.zeros((_BLOCK + 1, M - 1))
    rows = list(block)
    rhs = np.zeros(M - 1)
    factored = None
    # steps past a failing one may overflow or turn NaN; the check raises
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(1, n_steps + 1, _BLOCK):
            n = min(_BLOCK, n_steps + 1 - first)
            if steps[first - 1] != factored:
                # one factorization serves both schemes: CN with step k
                # and backward Euler with step k/2 share the matrix K
                factored = steps[first - 1]
                half = 0.5 * factored
                k_diag, k_off, info = lapack.dpttrf(
                    np.full(M - 1, 1.0 + half * 2.0 / h**2), -half * sym_off)
                if info != 0:
                    raise NumericsError(
                        f"PDE step matrix is not positive definite "
                        f"(dpttrf info {info})")
                cn_diag = 0.5 * k_diag
                rhs[-1] = np.exp(log_d[-1]) * half * upper[-1]
            for j in range(1, n + 1):
                cur, nxt = rows[j - 1], rows[j]
                np.add(cur, rhs, out=nxt)
                if first + j <= 3:    # steps 1, 2: two BE half steps each
                    lapack.dpttrs(k_diag, k_off, nxt, overwrite_b=1)
                    nxt += rhs
                    lapack.dpttrs(k_diag, k_off, nxt, overwrite_b=1)
                else:
                    lapack.dpttrs(cn_diag, k_off, nxt, overwrite_b=1)
                    np.subtract(nxt, cur, out=nxt)
            G = block[1:n + 1]
            # D^-1 > 0 and rounding is monotone, so the node-wise extremes
            # of G, scaled, are the extremes of every step's F = G D^-1
            lo = (G.min(axis=0) * d_inv).min()
            hi = (G.max(axis=0) * d_inv).max()
            if not (lo >= -1e-6 and hi <= 1.0 + 1e-6):
                F = G * d_inv
                lo, hi = F.min(axis=1), F.max(axis=1)
                k = np.argmin((lo >= -1e-6) & (hi <= 1.0 + 1e-6))
                raise NumericsError(
                    f"PDE solution left [0,1] at step {first + k} "
                    f"(range [{lo[k]:.3e}, {hi[k]:.3e}]); refine dtau")

            out = reads[first:first + n]
            np.multiply(G[:, col], d_inv[col], out=out)
            out[:, at_min] = 0.0
            out[:, at_plus] = 1.0
            rows[0][:] = rows[n]

    Fm, F0, Fp = (np.ascontiguousarray(reads[:, j::3].T) for j in range(3))
    Ai = Ay[probe_idx][:, None]
    return SolutionGrid(
        y_nodes=y, probe_tau=tau, probe_F=F0,
        probe_f=Ai * (Fp - Fm) / (2 * h) + (Fp - 2 * F0 + Fm) / h**2)


# ----------------------------------------------------------------------
# trinomial tree
# ----------------------------------------------------------------------

# depth of the trinomial lattice below the barrier
_TREE_SPAN = 14.0

# solve_tree advances the lattice this many steps per sparse product
_TREE_BLOCK = 32


def solve_tree(ff: ForceField, y_plus, y0, dtau=1e-3,
               tau_max=20.0) -> TreeResult:
    """Forward induction on a trinomial lattice, 14 deep below y_plus.

    Spacing dy = sqrt(6 dtau) matches the variance 2 dtau with middle
    probability 2/3; dtau is nudged so the start sits exactly on a node.
    Branch probabilities p_{u,d} = 1/6 +- A dtau/(2 dy) must stay in
    [0, 1], which bounds |A| sqrt(dtau); violations raise with a
    suggestion to reduce dtau.  The bottom edge is treated as no-flux
    (mass there is negligible by construction).  The lattice runs
    round(tau_max / dtau) steps, and InputError is raised when that is 0.

    One step is m <- S m with S = C P: P moves each node's mass (2/3
    stays, p_u goes up, p_d down) and C clears node 0, the absorbing top
    layer, whose mass before clearing, T_0 m with T_0 the top row of P, is
    the mass absorbed in the step.  The lattice runs _TREE_BLOCK = 32
    steps at a time: the block's absorbed masses are the rows T_0 S^j,
    j < 32, applied to the mass at its start, and its end mass is S^32
    applied to it.  S is tridiagonal, so S^32 is a sparse matrix of
    bandwidth 32, and T_0 S^j is nonzero on nodes 0..j+1 only.  A partial
    last block reads the first rows alone.
    """
    y_plus, y0 = float(y_plus), float(y0)
    if y0 >= y_plus:
        raise InputError("needs y0 < y_plus")
    if not (dtau > 0 and tau_max > 0):
        raise InputError("dtau and tau_max must be positive")
    dy0 = np.sqrt(6.0 * dtau)
    n0 = max(1, int(round((y_plus - y0) / dy0)))
    dy = (y_plus - y0) / n0
    dtau = dy * dy / 6.0
    n_steps = int(round(tau_max / dtau))
    if n_steps == 0:
        raise InputError(f"tau_max = {tau_max:g} rounds to zero lattice "
                         f"steps of dtau = {dtau:.3g}")

    K = int(np.ceil(_TREE_SPAN / dy))
    nodes = y_plus - dy * np.arange(K + 1)     # k = 0 is the boundary layer
    A = np.asarray(ff.A(nodes), float)
    shift = A * dtau / (2.0 * dy)
    if np.max(np.abs(shift)) > 1.0 / 6.0:
        worst = nodes[int(np.argmax(np.abs(shift)))]
        raise InputError(
            f"branch probability out of range at y = {worst:.3g}; "
            f"use dtau below {dy / (3 * np.max(np.abs(A))):.2e} (the "
            f"lattice reaches {_TREE_SPAN:g} below the barrier)")
    pu = 1.0 / 6.0 + shift
    pd = 1.0 / 6.0 - shift

    # S's column k sends node k's mass to k - 1 (p_u), k (2/3) and k + 1
    # (p_d), the bottom node keeping its p_d (no flux); row 0 is cleared
    stay = np.full(K + 1, 2.0 / 3.0)
    stay[-1] += pd[-1]
    stay[0] = 0.0
    up = np.concatenate(([0.0], pu[2:]))
    S = sparse.diags_array([pd[:-1], stay, up], offsets=[-1, 0, 1],
                           format="csr")
    width = min(_TREE_BLOCK + 1, K + 1)
    rows = np.zeros((_TREE_BLOCK, K + 1))       # rows[j] = T_0 S^j
    rows[0, :2] = 2.0 / 3.0, pu[1]
    for j in range(1, _TREE_BLOCK):
        rows[j] = rows[j - 1] @ S
    rows = np.ascontiguousarray(rows[:, :width])
    # S^32 as 31 products with S, in the order of 32 single steps
    S_block = S
    for _ in range(_TREE_BLOCK - 1):
        S_block = S @ S_block

    mass = np.zeros(K + 1)
    mass[n0] = 1.0
    absorbed = np.empty(n_steps)
    full = n_steps - n_steps % _TREE_BLOCK
    for n in range(0, full, _TREE_BLOCK):
        np.dot(rows, mass[:width], out=absorbed[n:n + _TREE_BLOCK])
        mass = S_block @ mass
    absorbed[full:] = rows[:n_steps - full] @ mass[:width]

    return TreeResult(absorbed_mass=absorbed, dy=dy)


# ----------------------------------------------------------------------
# Monte Carlo
# ----------------------------------------------------------------------

# Generator.random returns multiples of 2**-53 and exp(-37) < 2**-53, so a
# bridge probability exp(-g0 g1 / dt) with g0 g1 >= 37 dt fires only on a
# zero draw: skipping that draw moves the crossing law by at most 2**-53
# per path-step.
_BRIDGE_CUT = 37.0

# simulate advances its n live paths B = max(1, min(_MC_CAP, _MC_BUDGET // n))
# steps per block
_MC_BUDGET = 2**16
_MC_CAP = 512


def simulate(ff: ForceField, y_plus, y0, dt=1e-3, n_paths=100_000,
             tau_max=20.0, bridge=True, seed=0) -> McResult:
    """Euler-Maruyama first-passage sampler, dY = A(Y) dtau + sqrt(2) dW.

    Each path carries its gap g = y_plus - Y and crosses in a step when
    the new gap g1 is <= 0.  With bridge=True a surviving step
    additionally crosses with the Brownian-bridge probability
    exp(-g0 g1 / dt) (diffusion coefficient 2), removing most of the
    O(sqrt(dt)) discretization bias of the naive scheme.  A uniform is
    drawn for every step with g0 g1 < 37 dt, which fires with probability
    min(1, exp(-g0 g1 / dt)): surely on a crossing (g0 > 0 >= g1, so
    g0 g1 <= 0), and elsewhere with the bridge probability.  Past the cut
    the probability is below exp(-37) < 2**-53, the spacing of
    `Generator.random`, so only a zero draw could fire.

    The n live paths advance in blocks of B = max(1, min(512, 2**16 // n))
    steps, so that the Python loop does only the Euler update
    Y <- Y + A(Y) dt + sqrt(2 dt) Z, four calls per step, on the normals
    of one (B, n) draw.  The uniforms of the block (drawn in block order,
    step by step) and each path's first hit are then found on the whole
    block at once, and the paths that hit leave the live set.  A path
    that crosses keeps stepping until its block ends, with A evaluated
    past the barrier; only its first crossing counts.  Block shapes follow
    the live count at each block start, so the samples are reproducible
    from `seed` alone, and the law is that of stepping one step at a time.
    The paths run round(tau_max / dt) steps, and InputError is raised
    when that is 0; paths still alive at tau_max are censored and counted.
    `samples` come out sorted.
    """
    y_plus, y0 = float(y_plus), float(y0)
    if y0 >= y_plus:
        raise InputError("needs y0 < y_plus")
    if not (dt > 0 and tau_max > 0 and n_paths > 0):
        raise InputError("dt, tau_max and n_paths must be positive")
    n_steps = int(round(tau_max / dt))
    if n_steps == 0:
        raise InputError(f"tau_max = {tau_max:g} rounds to zero steps of "
                         f"dt = {dt:g}")
    if dt > 1e-2:
        warnings.warn("dt above 1e-2 gives visibly biased hitting times")
    rng = np.random.default_rng(seed)
    sq = np.sqrt(2.0 * dt)
    cut = _BRIDGE_CUT * dt

    # flat buffers that hold every block, B n <= max(_MC_BUDGET, n_paths):
    # Y (B + 1 rows) and the gaps G in `ys` and `gs`, the normals Z and
    # then g0 g1 in `zs`.  The first n entries of `ys` carry the live
    # positions from one block to the next.
    size = max(_MC_BUDGET, n_paths)
    ys, gs = np.empty(size + n_paths), np.empty(size + n_paths)
    zs = np.empty(size)
    ys[:n_paths] = y0
    hit_steps = []
    n, done = n_paths, 0
    while n and done < n_steps:
        B = max(1, min(_MC_CAP, _MC_BUDGET // n, n_steps - done))
        Y = ys[:(B + 1) * n].reshape(B + 1, n)
        Z = zs[:B * n].reshape(B, n)
        rng.standard_normal(out=Z)
        Z *= sq
        for k in range(B):
            cur, nxt = Y[k], Y[k + 1]
            np.multiply(ff.A(cur), dt, out=nxt)
            nxt += Z[k]
            nxt += cur

        G = gs[:(B + 1) * n].reshape(B + 1, n)
        np.subtract(y_plus, Y, out=G)
        if bridge:
            np.multiply(G[:-1], G[1:], out=Z)
            near = np.flatnonzero(Z < cut)
            p = np.exp(np.minimum(Z.ravel()[near] / -dt, 0.0))
            fired = near[rng.random(near.size) < p]
        else:
            fired = np.flatnonzero(G[1:] <= 0.0)
        if fired.size:
            # `fired` runs step by step, so a path's first entry is its hit
            step, path = np.divmod(fired, n)
            path, first = np.unique(path, return_index=True)
            hit_steps.append(done + 1 + step[first])
            keep = np.ones(n, dtype=bool)
            keep[path] = False
            Y[B].compress(keep, out=ys[:n - path.size])
            n -= path.size
        else:
            ys[:n] = Y[B]
        done += B

    steps = np.concatenate(hit_steps) if hit_steps else np.zeros(0, int)
    steps.sort()
    return McResult(samples=dt * steps.astype(float), censored_count=n, dt=dt)


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------

def kolmogorov_distance(samples, tau_grid, F_grid, n_paths):
    """sup_t |F_empirical(t) - F_reference(t)| on the reference grid.

    `samples` are the hit times of `n_paths` paths; the censored ones count
    as not-yet-hit mass.
    """
    samples = np.sort(np.asarray(samples, float))
    emp = np.searchsorted(samples, tau_grid, side="right") / int(n_paths)
    return float(np.max(np.abs(emp - np.asarray(F_grid, float))))


def l1_distance(tau, f_a, f_b):
    """int |f_a - f_b| dtau by the trapezoid rule on a common grid."""
    return float(np.trapezoid(np.abs(np.asarray(f_a) - np.asarray(f_b)),
                              np.asarray(tau, float)))
