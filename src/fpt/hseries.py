"""Spatial tables of the Taylor coefficients h_r of the log-derivative
H(s,z) of the bounded homogeneous solution.

H(s,z) expands as sum_r (-s)^r h_r(z); the ratios h_r/h_{r+1} at the
boundary converge to the decay rate, and the cumulants of the passage
time are k_r = r! * int_{y0}^{y_plus} h_r (all positive, ~ lambda^(-r) for
a far boundary, where the passage time is asymptotically exponential).
`cumulants` also cross-checks the mean against the closed h_1 = Psi/psi
(`mean_direct`).  So this table is the computational backbone.

Construction (per column r >= 2):

  seed   h_r(Z) = c_{r-1} * h_1(Z)^(2r-1)   (c = Catalan numbers; valid
         deep in the left tail for fields with -y*A(y) -> +inf),
  march  I_r(z) = int_{-inf}^z psi * sum_{k=1}^{r-1} h_k h_{r-k},
         accumulated rightward with the logarithmic trapezium rule
         (exact on piecewise exponentials), then h_r = I_r / psi.

The integrand of row r depends only on the rows below it, so each row is
one array pass: all cell increments at once, then one
np.logaddexp.accumulate from the seed term.  That applies the same
left-to-right chain of logaddexp calls as a node-by-node loop, and gives
the same values bit for bit.

Everything is carried in log space: psi underflows long before the left
cutoff matters, and the seeds involve high powers of small h_1 values.

The table is read through one interpolant, a monotone cubic (PCHIP) of
log h_r over all rows at once, built on first use and kept with the
table: `integrate_h` reads it through `HTable.h_at`, and
`decay.ratio_sequence` evaluates all rows at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
import warnings

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import InputError, NumericsError
from .forcefield import ForceField, InvariantMeasure, _integrate_segments, classify

__all__ = ["HGrid", "HTable", "catalan_numbers", "build_table", "integrate_h",
           "CumulantSet", "cumulants"]


def catalan_numbers(n):
    """c_0 .. c_n with c_r = (2r)!/(r!(r+1)!)."""
    return np.array([comb(2 * r, r) // (r + 1) for r in range(n + 1)], dtype=float)


@dataclass(frozen=True)
class HGrid:
    """Uniform spatial grid for the march: z_j = Z + j*step, covering
    [Z, z_max].  The defaults (Z=-10, step=1/32) keep the seed region deep
    enough in the left tail for all built-in fields."""

    Z: float = -10.0
    step: float = 1.0 / 32.0
    z_max: float = 3.0

    def __post_init__(self):
        if self.step <= 0:
            raise InputError("grid step must be positive")
        if self.Z >= self.z_max:
            raise InputError("grid needs Z < z_max")

    @cached_property
    def nodes(self):
        n = int(np.ceil((self.z_max - self.Z) / self.step - 1e-12)) + 1
        return self.Z + self.step * np.arange(n)


@dataclass(frozen=True)
class HTable:
    """Grid of log h_r values, r = 1..r_max (row r-1).

    `interpolant` is the PCHIP of all rows of `log_values` in z, made once
    per table on first use.  It interpolates log h_r, so the h_r read from
    it are positive, and it reproduces the nodes; outside the grid it
    returns nan."""

    grid: HGrid
    log_values: np.ndarray

    @property
    def r_max(self):
        return len(self.log_values)

    @property
    def values(self):
        return np.exp(self.log_values)

    @cached_property
    def interpolant(self):
        return PchipInterpolator(self.grid.nodes, self.log_values, axis=1,
                                 extrapolate=False)

    def _check_row(self, r):
        if not 1 <= r <= self.r_max:
            raise InputError(f"r = {r} outside table range 1..{self.r_max}")

    def h_at(self, r, z):
        """h_r(z), interpolating in log space between grid nodes."""
        self._check_row(r)
        z = np.asarray(z, float)
        if np.any(z < self.grid.nodes[0] - 1e-12) or np.any(z > self.grid.nodes[-1] + 1e-12):
            raise InputError("query point outside the table grid")
        zc = np.clip(z, self.grid.nodes[0], self.grid.nodes[-1])
        return np.exp(self.interpolant(zc)[r - 1])


def _log_h1(im, y):
    # -inf - -inf = nan is possible for underflowing measures; callers
    # check finiteness and raise a diagnostic error
    with np.errstate(invalid="ignore"):
        return np.asarray(im.log_Psi(y), float) - np.asarray(im.log_psi(y), float)


def _log_trapezium_increment(logS0, logS1, step):
    """log of step*(S1-S0)/(log S1 - log S0), elementwise: the trapezium
    rule for piecewise-exponential integrands, falling back to the
    arithmetic rule where the two ordinates are nearly equal.

    The exponential rule is log(step) + max(log S) + log((1 - e^-d)/d),
    with 1 - e^-d from expm1 and one log of the ratio, so that small d
    loses nothing to cancellation: within 3e-16 relative of 40-digit
    mpmath for d in [1e-13, 1e-3]."""
    d = np.abs(logS1 - logS0)
    near = d < 1e-12
    # the exponential branch is evaluated on d = 1 where it is not used,
    # so it never divides by zero
    de = np.where(near, 1.0, d)
    exp_rule = (np.log(step) + np.maximum(logS0, logS1)
                + np.log(-np.expm1(-de) / de))
    return np.where(near, np.log(step / 2.0) + np.logaddexp(logS0, logS1),
                    exp_rule)


def build_table(ff: ForceField, im: InvariantMeasure, grid: HGrid,
                r_max: int) -> HTable:
    """Run the seeded march for r = 2..r_max over the grid."""
    if r_max < 2:
        raise InputError("r_max must be >= 2")
    if classify(ff) is False:
        warnings.warn(f"field {ff.label!r}: -y*A(y) does not blow up at "
                      "-inf; the left-edge seeds may be inaccurate")

    z = grid.nodes
    n = len(z)
    cat = catalan_numbers(r_max)
    log_psi = np.asarray(im.log_psi(z), float)
    logh = np.empty((r_max, n))
    logh[0] = _log_h1(im, z)
    if not np.all(np.isfinite(logh[0])):
        raise NumericsError("h_1 not finite on the grid; psi may underflow "
                            f"near Z = {grid.Z:g}")

    for r in range(2, r_max + 1):
        # log of the convolution sum_{k=1}^{r-1} h_k h_{r-k} at every node
        terms = np.array([logh[k - 1] + logh[r - k - 1] for k in range(1, r)])
        m = terms.max(axis=0)
        logconv = m + np.log(np.exp(terms - m).sum(axis=0))
        logS = log_psi + logconv
        if not np.all(np.isfinite(logS)):
            j = int(np.argmax(~np.isfinite(logS)))
            raise NumericsError(
                f"non-finite integrand S_{r} at z = {z[j]:g} "
                f"(log psi = {log_psi[j]:g}, log conv = {logconv[j]:g})")

        # log I_r: the seed term at Z, then one increment per cell
        seed = np.log(cat[r - 1]) + (2 * r - 1) * logh[0, 0]
        logI = np.empty(n)
        logI[0] = seed + log_psi[0]
        logI[1:] = _log_trapezium_increment(logS[:-1], logS[1:], grid.step)
        logh[r - 1] = np.logaddexp.accumulate(logI) - log_psi
        # adding and removing log_psi[0] can round; the seed is exact
        logh[r - 1, 0] = seed

    return HTable(grid=grid, log_values=logh)


def integrate_h(table: HTable, r: int, a, b):
    """int_a^b h_r over the table's interpolant, split at the grid nodes.

    In each cell log h_r is one cubic, so every segment's integrand
    exp(cubic) is analytic, and `forcefield._integrate_segments` is done
    in one round for smooth drifts (up to four for the kinked
    -y - |y - 0.77|); `HTable.h_at` rejects a range outside the grid."""
    table._check_row(r)
    a, b = float(a), float(b)
    if b < a:
        raise InputError("needs a <= b")
    if b == a:
        return 0.0
    z = table.grid.nodes
    cuts = np.concatenate(([a], z[(z > a) & (z < b)], [b]))
    h = lambda x, _: table.h_at(r, x)
    return float(np.sum(_integrate_segments(h, cuts[:-1], cuts[1:])))


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants k_1..k_r of the dimensionless passage time tau; k_r over
    kappa^r, with kappa the field's time scale, is the cumulant in
    dimensional time (`fpt cumulants` prints both)."""

    kappa_r: np.ndarray
    mean_direct: float = None         # cross-check from the closed h_1 form


def cumulants(table: HTable, y0, y_plus, im=None) -> CumulantSet:
    """k_r = r! * int_{y0}^{y_plus} h_r for every row r of the table, over
    its interpolant (see `integrate_h`).

    When the invariant measure is supplied the mean is additionally
    cross-computed from Psi/psi directly (no table interpolation) and
    carried in `mean_direct`.
    """
    y0, y_plus = float(y0), float(y_plus)
    if y0 > y_plus:
        raise InputError("needs y0 <= y_plus")
    out = np.zeros(table.r_max)
    if y_plus > y0:
        fac = 1.0
        for r in range(1, table.r_max + 1):
            fac *= r
            out[r - 1] = fac * integrate_h(table, r, y0, y_plus)

    mean_direct = None
    if im is not None and y_plus > y0:
        mean_direct = float(_integrate_segments(
            lambda z, _: np.exp(_log_h1(im, z)), y0, y_plus))

    return CumulantSet(kappa_r=out, mean_direct=mean_direct)
