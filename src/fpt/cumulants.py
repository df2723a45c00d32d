"""First-passage-time cumulants and the OU mean in its asymptotic regimes.

The cumulants in dimensionless time come straight from the coefficient
table:  k_r = r! * int_{y0}^{y_plus} h_r(z) dz, all positive.  In the
far-boundary limit k_r ~ lambda^(-r), i.e. the scaled passage time is
asymptotically exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .errors import InputError
from .forcefield import _integrate_segments
from .hseries import HTable, integrate_h, _log_h1

__all__ = ["CumulantSet", "cumulants", "ou_mean_regime", "OU_MEAN_REGIMES"]

EULER_GAMMA = float(np.euler_gamma)

OU_MEAN_REGIMES = ("low_reversion", "sub_threshold", "supra_threshold", "medial")


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants k_1..k_r of the dimensionless passage time tau; divide
    k_r by kappa^r for dimensional time."""

    kappa_r: np.ndarray
    time_scale: float = 1.0
    mean_direct: float = None         # cross-check from the closed h_1 form

    def dimensional(self):
        r = np.arange(1, len(self.kappa_r) + 1)
        return self.kappa_r / self.time_scale ** r


def cumulants(table: HTable, y0, y_plus, im=None,
              time_scale=1.0) -> CumulantSet:
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

    return CumulantSet(kappa_r=out, time_scale=time_scale,
                       mean_direct=mean_direct)


# ----------------------------------------------------------------------
# OU mean: closed asymptotic regimes
# ----------------------------------------------------------------------

def _double_factorial_odd(r):
    # (2r-1)!! for r >= 1
    v = 1.0
    for k in range(1, r + 1):
        v *= 2 * k - 1
    return v


def _truncated_tail(coeff_fn, terms):
    """Sum an asymptotic series, stopping at the smallest-magnitude term
    (standard practice for divergent asymptotics), capped at `terms`."""
    total = 0.0
    prev = np.inf
    for r in range(1, terms + 1):
        t = coeff_fn(r)
        if abs(t) > prev:
            break
        total += t
        prev = abs(t)
    return total


def ou_mean_regime(y0, y_plus, regime, terms=2):
    """Asymptotic mean passage time for the OU model in a named regime.

    low_reversion    |y0|, |y_plus| small:
                     (sqrt(pi/2) + (y_plus+y0)/2) * (y_plus - y0)
    sub_threshold    y_plus >> 1:  sqrt(2 pi) e^{y_plus^2/2} / y_plus
    supra_threshold  y0 < y_plus << 0:
                     0.5*ln(y0^2/y_plus^2)
                     + sum_r (-1)^r (2r-1)!!/(2r) (y_plus^{-2r} - y0^{-2r})
    medial           y_plus = 0, y0 << 0:
                     (ln(2 y0^2) + euler_gamma)/2
                     - sum_r (-1)^r (2r-1)!!/(2r) y0^{-2r}

    A regime-mismatch warning fires when the geometry clearly does not fit
    the requested expansion.
    """
    y0, y_plus = float(y0), float(y_plus)
    if y0 >= y_plus and regime != "medial":
        raise InputError("needs y0 < y_plus")

    if regime == "low_reversion":
        if max(abs(y0), abs(y_plus)) > 1.0:
            warnings.warn("low_reversion expansion expects |y0|, |y_plus| small")
        return (np.sqrt(np.pi / 2.0) + 0.5 * (y_plus + y0)) * (y_plus - y0)

    if regime == "sub_threshold":
        if y_plus < 1.5:
            warnings.warn("sub_threshold expansion expects y_plus >> 1")
        return np.sqrt(2.0 * np.pi) * np.exp(0.5 * y_plus**2) / y_plus

    if regime == "supra_threshold":
        if not (y0 < y_plus < 0.0):
            raise InputError("supra_threshold needs y0 < y_plus < 0")
        if y_plus > -1.5:
            warnings.warn("supra_threshold expansion expects y_plus << 0")
        lead = 0.5 * np.log(y0**2 / y_plus**2)
        tail = _truncated_tail(
            lambda r: ((-1.0) ** r * _double_factorial_odd(r) / (2.0 * r)
                       * (y_plus ** (-2 * r) - y0 ** (-2 * r))), terms)
        return lead + tail

    if regime == "medial":
        if abs(y_plus) > 1e-12:
            warnings.warn("medial regime is defined for a boundary at "
                          "equilibrium (y_plus = 0)")
        if y0 > -1.5:
            warnings.warn("medial expansion expects y0 << 0")
        lead = 0.5 * (np.log(2.0 * y0**2) + EULER_GAMMA)
        tail = _truncated_tail(
            lambda r: (-(-1.0) ** r * _double_factorial_odd(r)
                       / (2.0 * r * y0 ** (2 * r))), terms)
        return lead + tail

    raise InputError(f"unknown regime {regime!r}; choose from {OU_MEAN_REGIMES}")
