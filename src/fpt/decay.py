"""Asymptotic decay rate of the first-passage density.

The ratio sequence x_r = h_r(y_plus)/h_{r+1}(y_plus) tends to the decay
rate lambda, but only at O(1/r), so a variant of Aitken's method tuned to
hyperbolically-convergent sequences is applied:

    (A1 x)_r = x_r + d_r (d_r + d_{r-1}) / (d_{r-1} - d_r),

which is exact whenever x_r = L + 1/(a + b*r).  The plain Aitken
delta-squared, (A0 x)_r = x_r + d_r^2/(d_{r-1} - d_r), is exact when the
differences are geometric instead.  On sequences that converge
hyperbolically, such as the Catalan ratios of arithmetic Brownian motion,
A0 undercorrects and A1 is exact.  For OU below equilibrium on
h_1..h_4 the reverse holds: the ratios approach the rate from above, A1
overshoots it and A0 lands closer (A0 is 2.94% and A1 8.21% off at
y_plus = -1; 0.93% and 4.54% at y_plus = 0; from y_plus = 2 up both are
within 0.15%).  `estimate_lambda` uses A1 because it is the paper's
method.

Exact rates for the worked models (OU via parabolic-cylinder zeros,
arithmetic Brownian motion, dry friction via a Lambert-W closed form of
its pole condition, tanh at the n=1 Romanovski zero y_plus = 0) live in
`lambda_exact`, and the two boundary asymptotes in `lambda_asymptotic`.
For tanh, -alpha*tanh(gamma*y), the Schrodinger form of the problem is
a Poschl-Teller well with s = alpha/(2 gamma), which binds the odd n=1
state only for s > 1: the rate at y_plus = 0 is that level,
gamma*(alpha - gamma), for alpha >= 2 gamma, and the branch point
alpha^2/4 below (the two meet at alpha = 2 gamma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import oupcf
from .errors import InputError, NumericsError
from .forcefield import ForceField, InvariantMeasure, builtin
from .hseries import HGrid, HTable, build_table

__all__ = ["DecayEstimate", "ratio_sequence", "aitken_A1",
           "estimate_lambda", "lambda_asymptotic", "lambda_exact"]

# entries where |d_{r-1} - d_r| falls below this multiple of eps*|x_r|
# are numerically meaningless and are left nan
STABILITY_FACTOR = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class DecayEstimate:
    """The chosen rate: the accelerated term of h_1..h_4."""

    lam: float


def ratio_sequence(table: HTable, y_plus):
    """x_r = h_r(y_plus)/h_{r+1}(y_plus) for r = 1..r_max-1."""
    logs = table.interpolant(float(y_plus))
    if np.any(np.isnan(logs)):
        raise InputError(f"y_plus = {y_plus:g} outside the table grid")
    return np.exp(logs[:-1] - logs[1:])


def aitken_A1(x):
    """Hyperbolic variant:  x_r + d_r(d_r+d_{r-1})/(d_{r-1}-d_r).
    Exact when x_r = L + 1/(a + b*r); derived by requiring
    1/(x_r - L) to be in arithmetic progression.  The paper's accelerator,
    used by `estimate_lambda`.  On the OU ratios of h_1..h_4 below
    equilibrium it overshoots the rate (8.21% off at y_plus = -1 and 4.54%
    at 0); from y_plus = 2 up it is within 0.15% of it."""
    x = np.asarray(x, float)
    if len(x) < 3:
        raise InputError("acceleration needs at least 3 sequence terms")
    d = np.diff(x)
    dm, dr = d[:-1], d[1:]
    den = dm - dr
    # negated so that a nan difference stays ok, with a nan value
    ok = ~(np.abs(den) < STABILITY_FACTOR * np.abs(x[2:]))
    vals = np.full(len(x) - 2, np.nan)
    vals[ok] = x[2:][ok] + dr[ok] * (dr[ok] + dm[ok]) / den[ok]
    return vals, ok


def estimate_lambda(ff: ForceField, im: InvariantMeasure, y_plus) -> DecayEstimate:
    """Decay-rate estimate from the h-table ratio sequence.

    Builds the table h_1..h_4 (grid Z=-10, step 1/32 up to y_plus), forms
    the three ratios and returns their one hyperbolically accelerated
    term; NumericsError when that term is unstable or negative.

    Accuracy for OU: the returned term is within 5% of the exact rate for
    y_plus >= 0 (4.5% at 0, under 0.1% from 2.25 to 3) but not below
    equilibrium, where the truncated sequence itself is off by 8.2% at
    y_plus = -1 and 12.6% at -2.86.  On [-1, 3] the march moves the term
    by at most 2.6e-4 relative from what the same accelerator gives on
    exact coefficients.
    """
    grid = HGrid(z_max=max(float(y_plus), HGrid.Z + 1.0) + 1e-9)
    table = build_table(ff, im, grid, 4)
    x = ratio_sequence(table, y_plus)
    accel, ok = aitken_A1(x)
    if not ok[0]:
        raise NumericsError("no stable accelerated term; raw ratios: "
                            + np.array2string(x, precision=6))
    lam = float(accel[0])
    if lam < 0.0:
        raise NumericsError(
            f"accelerated estimate went negative ({lam:g}); ratios "
            + np.array2string(x, precision=6))
    return DecayEstimate(lam=lam)


def lambda_asymptotic(im: InvariantMeasure, y_plus, side):
    """Boundary asymptotes of the decay rate.

    far_left  (boundary deep in the left tail):  psi^2 / (4 Psi^2),
    far_right (boundary deep in the right tail): -psi'(y_plus),
               evaluated as -psi * d(log psi)/dy by central differences
               so only the measure is needed.
    """
    y_plus = float(y_plus)
    if side == "far_left":
        return float(np.exp(2.0 * (im.log_psi(y_plus) - im.log_Psi(y_plus))) / 4.0)
    if side == "far_right":
        h = 1e-6 * max(1.0, abs(y_plus))
        slope = (im.log_psi(y_plus + h) - im.log_psi(y_plus - h)) / (2.0 * h)
        return float(-slope * im.psi(y_plus))
    raise InputError(f"unknown side {side!r}")


def _dry_friction_lambda(mu, y_plus):
    """Rightmost pole of the dry-friction problem.

    For y_plus <= 1/mu the only singularity in (-mu^2/4, 0) is the branch
    point, so lambda = mu^2/4.  Beyond that, substituting
    beta = sqrt(mu^2+4s) in the pole condition gives

        beta/mu = 1 - exp(-beta*y_plus),   beta in (0, mu),

    solved by beta = mu + w with w = W0(-mu*y_plus*exp(-mu*y_plus))/y_plus
    (principal Lambert W; the other real branch gives the spurious root
    beta = 0).  lambda = (mu^2 - beta^2)/4 is evaluated as -w(2mu + w)/4,
    which avoids the cancellation between mu^2 and beta^2 when beta -> mu.
    """
    if y_plus <= 1.0 / mu:
        return mu * mu / 4.0
    x = mu * y_plus
    w = special.lambertw(-x * np.exp(-x)).real / y_plus
    lam = float(-w * (2.0 * mu + w) / 4.0)
    if lam < np.finfo(float).tiny:
        raise NumericsError(f"dry-friction rate at mu*y_plus = {x:g} "
                            "underflows double precision")
    return lam


def lambda_exact(model, y_plus, mu=1.0, alpha=2.0, gamma=1.0):
    """Exact decay rate for the worked models.

    ou           minus the rightmost zero in s of pcf(s, y_plus)
                 (`oupcf.rightmost_zero`), for y_plus in about
                 [-14.367, 37.7]; NumericsError outside,
    abm          mu^2/4 for any boundary,
    dry_friction mu^2/4 up to y_plus = 1/mu, beyond it the pole of the
                 Laplace transform in closed form via Lambert W, up to
                 mu*y_plus of about 708, where the rate underflows,
    tanh         only the boundary at the n=1 polynomial zero (y_plus = 0)
                 is covered: the n=1 level gamma*(alpha-gamma) where it is
                 bound (alpha > 2 gamma), and the branch-point value
                 alpha^2/4 otherwise, which equals it at alpha = 2 gamma;
                 NumericsError elsewhere.

    The model and its parameters are checked by `builtin(model, ...)`: an
    unknown model, or one it rejects, raises InputError as there.
    """
    builtin(model, mu=mu, alpha=alpha, gamma=gamma)
    y_plus = float(y_plus)
    if model == "ou":
        return oupcf.rightmost_zero(y_plus)
    if model == "abm":
        return mu * mu / 4.0
    if model == "dry_friction":
        return _dry_friction_lambda(mu, y_plus)
    if abs(y_plus) > 1e-12:             # tanh
        raise NumericsError(
            "no polynomial eigenvalue available: the n=1 Romanovski zero "
            "sits at y_plus = 0 and higher levels are out of scope")
    return gamma * (alpha - gamma) if alpha / gamma > 2.0 else alpha * alpha / 4.0


def _exact_or_none(model, y_plus, params):
    """`lambda_exact(model, y_plus, **params)`, or None where the model has
    no exact rate at y_plus.  An unknown model or parameter is bad input
    and raises InputError as there."""
    try:
        return lambda_exact(model, y_plus, **params)
    except NumericsError:
        return None
