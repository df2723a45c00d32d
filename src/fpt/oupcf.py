"""Parabolic-cylinder toolkit for the OU first-passage problem.

The workhorse is

    pcf(s, y) = exp(y^2/4) * D_{-s}(-y),

with D Whittaker's parabolic cylinder function (DLMF 12.2); for s > 0 it
is the integral (1/Gamma(s)) * int_0^inf u^(s-1) exp(y*u - u^2/2) du
(DLMF 12.5.1).  At nonpositive integers it is a Hermite polynomial,
pcf(-m, y) = (-1)^m He_m(y), and for all s it obeys the three-term
recursion

    pcf(s, y) = -y*pcf(s+1, y) + (s+1)*pcf(s+2, y).

Other useful identities: pcf(1, y) = Phi(y)/phi(y) and
d/dy pcf(s, y) = s*pcf(s+1, y).

The exact OU decay rate for a boundary at y_plus is minus the rightmost
zero in s of s -> pcf(s, y_plus).  `rightmost_zero` brackets it between
two consecutive integers from the Hermite values, then guesses, certifies
and, only when the guess fails, falls back:

  guess     brentq on `scipy.special.pbdv` inside the bracket, at a few
            microseconds a value against 1-3 ms for mpmath;
  certify   pcf at g -/+ 4 eps|g|; if the two values straddle zero, g is
            returned, and |g - zero| <= 4 eps|g|;
  fallback  a miss narrows the bracket with those two values and takes one
            secant step, certified the same way; a second miss, or no
            finite guess, leaves the zero to brentq on pcf in the narrowed
            bracket.

pbdv's zero is off from mpmath's by under 1e-14 relative up to y_plus
= 3.5, 1e-11 at 5, 1e-6 at 7 and 14% at 8.5, and by factors of 10-50 or
not finite from 9 on; near integer orders its sign can be wrong
(pbdv(3.999999999999999, 2.33) = +0.092, where D is -0.0259).  So it
only chooses where to look: every rate returned lies between two pcf
values of opposite sign.  The cost is 2 mpmath values per rate for
y_plus up to about 2.3, 3-4 on (2.3, 5], and 4-7 beyond, against 4-10
for brentq on the integer bracket alone.

`ou_mean_regime` is the OU mean passage time in four closed asymptotic
regimes: low reversion, sub-threshold, supra-threshold and medial.
"""

from __future__ import annotations

import functools
import threading
import warnings

import numpy as np
from scipy import special
from scipy.optimize import brentq

from .errors import InputError, NumericsError

__all__ = ["pcf", "rightmost_zero", "hermite_leftmost_zero", "ou_mean_regime",
           "OU_MEAN_REGIMES"]

Y_MAX = 40.0          # documented evaluation range; overflow is raised beyond
M_MAX = 60            # deepest integer bracket rightmost_zero searches
EPS = float(np.finfo(float).eps)
EULER_GAMMA = float(np.euler_gamma)

OU_MEAN_REGIMES = ("low_reversion", "sub_threshold", "supra_threshold", "medial")

# mpmath functions raise and restore their context's working precision as
# they run, so one context shared between threads is not thread-safe; each
# thread gets a private double-precision context, made on first use.
_MP = threading.local()


def _hermite_pcf(m, y):
    """[pcf(0, y), pcf(-1, y), ..., pcf(-m, y)], i.e. (-1)^k He_k(y), by the
    three-term recursion."""
    vals = [1.0, -y]
    for k in range(2, m + 1):
        vals.append(-y * vals[-1] - (k - 1) * vals[-2])
    return vals[:m + 1]


def pcf(s, y):
    """pcf(s, y) = exp(y^2/4) * D_{-s}(-y) for real s and |y| <= Y_MAX.

    Nonpositive integer s use the Hermite closed form, so pcf(0, y) == 1.0
    exactly.  Every other order is `mpmath.pcfd` at double precision
    (mpmath raises its working precision where its series cancel), times
    exp(y^2/4) formed from the exact square of y; both factors are
    correctly rounded to within a few ulp, so the product is too.

    Raises InputError for non-finite arguments, and NumericsError for
    |y| > Y_MAX, for a value that overflows double precision, and when
    mpmath's series fail to converge.
    """
    s = float(s)
    y = float(y)
    if not (np.isfinite(s) and np.isfinite(y)):
        raise InputError("pcf requires finite s, y")
    if abs(y) > Y_MAX:
        raise NumericsError(f"|y| = {abs(y):g} outside supported range {Y_MAX:g}")
    if s <= 0 and s.is_integer():
        return _hermite_pcf(int(-s), y)[-1]

    ctx = getattr(_MP, "ctx", None)
    if ctx is None:
        import mpmath
        ctx = _MP.ctx = mpmath.MPContext()
    try:
        growth = ctx.exp(ctx.ldexp(ctx.fmul(y, y, exact=True), -2))
        value = float(growth * ctx.pcfd(-s, -y))
    except (ValueError, ctx.NoConvergence) as exc:
        raise NumericsError(f"pcf({s:g}, {y:g}) failed to converge: {exc}") from exc
    if not np.isfinite(value):
        raise NumericsError(f"pcf({s:g}, {y:g}) overflows double precision")
    return value


def hermite_leftmost_zero(n):
    """Smallest zero of the probabilists' Hermite polynomial He_n, the
    first Gauss-Hermite node of scipy's `roots_hermitenorm`."""
    if n < 1:
        raise InputError("n must be >= 1")
    return float(special.roots_hermitenorm(n)[0][0])


def rightmost_zero(y_plus):
    """Exact OU decay rate: lambda = -s at the rightmost zero of
    s -> pcf(s, y_plus).

    lambda decreases in y_plus and equals m where y_plus is the leftmost
    zero of He_m; since the Hermite zeros interlace, lambda lies in
    (m-1, m] for the first m >= 1 with pcf(-m, y_plus) = (-1)^m He_m(y_plus)
    <= 0.  That m comes from the Hermite recursion.  Inside the bracket a
    `scipy.special.pbdv` guess g is accepted only when the mpmath values of
    pcf at g -/+ 4 eps|g| straddle zero; otherwise one certified secant
    step and then brentq on pcf find the zero (see the module docstring).
    Either way the rate is resolved to a few eps relative, so small rates
    such as 3.98e-14 at y_plus = 8 keep full relative precision, and pbdv
    never decides the value returned.  This costs 2 mpmath values of 1-3
    ms each for y_plus up to about 2.3, and at most 7 on a sweep of
    [-14.3, 37.7].  A root within 1e-8 of an integer n where He_n(y_plus)
    vanishes to machine precision is returned as exactly n.

    Covers y_plus from the leftmost zero of He_M_MAX, about -14.367 (rate
    M_MAX = 60; -14.3 gives 59.49), to about 37.7, where the rate reaches
    the smallest normal double; raises NumericsError outside that range.
    """
    y_plus = float(y_plus)
    if not np.isfinite(y_plus):
        raise InputError("rightmost_zero requires a finite y_plus")
    herm = _hermite_pcf(M_MAX, y_plus)
    m = next((k for k in range(1, M_MAX + 1) if herm[k] <= 0.0), None)
    if m is None:
        raise NumericsError(
            f"rightmost_zero: y_plus = {y_plus:g} puts the rate above {M_MAX}")

    underflow = (f"rightmost_zero: the rate at y_plus = {y_plus:g} "
                 "underflows double precision")
    # on (-1, 0) pcf grows like |s|*exp(y^2/2) and its zero is of size
    # exp(-y^2/2); past y^2/2 = 700 that zero nears the smallest normal
    # double, and one value, pcf(-tiny) < 0, shows it lies below, where
    # brentq would spend its iterations on subnormal numbers
    tiny = np.finfo(float).tiny
    if m == 1 and 0.5 * y_plus * y_plus > 700.0 and pcf(-tiny, y_plus) < 0.0:
        raise NumericsError(underflow)
    lam = -_certified_root(-float(m), 1.0 - m, y_plus)
    if lam < tiny:
        raise NumericsError(underflow)
    # snap to the Hermite-zero case: boundary exactly at a zero of He_n
    near = round(lam)
    if near >= 1 and abs(lam - near) < 1e-8:
        scale = 1.0 + abs(_hermite_pcf(near, abs(y_plus) + 1.0)[-1])
        if abs(herm[near]) <= 1e-12 * scale:
            return float(near)
    return lam


def _certified_root(lo, hi, y):
    """The zero of s -> pcf(s, y) in [lo, hi], where pcf(lo, y) <= 0 <
    pcf(hi, y), by the guess, certification and fallback of the module
    docstring."""
    try:
        guess = brentq(lambda s: special.pbdv(-s, -y)[0], lo, hi,
                       xtol=5e-324, rtol=4 * EPS, disp=False)
    except ValueError:
        guess = np.nan
    # the fallback brentq starts from bracket ends whose values are paid for
    value = functools.cache(lambda s: pcf(s, y))
    for _ in range(2):
        if not lo < guess < hi:
            break
        step = 4 * EPS * abs(guess)
        a, b = max(guess - step, lo), min(guess + step, hi)
        fa, fb = value(a), value(b)
        if fa <= 0.0 < fb:
            return guess
        if fb <= 0.0:
            lo = b
        else:
            hi = a
        if fa == fb:
            break
        guess = b - fb * (b - a) / (fb - fa)
    # xtol is the smallest subnormal, so the tolerance stays relative for
    # every rate above the smallest normal double
    return brentq(value, lo, hi, xtol=5e-324, rtol=8 * EPS)


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
