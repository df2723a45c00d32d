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
two consecutive integers from the Hermite values and refines it by brentq.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.polynomial import hermite_e
from scipy.optimize import brentq

from .errors import InputError, NumericsError

__all__ = ["pcf", "reflection_product", "rightmost_zero",
           "hermite_leftmost_zero"]

Y_MAX = 40.0          # documented evaluation range; overflow is raised beyond
M_MAX = 60            # deepest integer bracket rightmost_zero searches

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


def reflection_product(s, y, kmax=60, rtol=1e-12):
    """Truncated reflection series for pcf(s,y)*pcf(1-s,y).

    Sum_{k=0}^{kmax} [Gamma(k+s)Gamma(k+1-s) / (k! Gamma(s)Gamma(1-s))]
    * pcf(2k+1, y).  Serves as an independent identity oracle for the
    direct product; the coefficient is accumulated by its term ratio
    (k+s)(k+1-s)/(k+1) so no large Gamma values appear.  Terminates early
    once a term falls below `rtol` of the running sum.
    """
    s = float(s)
    if s.is_integer():
        raise InputError("reflection series requires non-integer s")
    if kmax < 1:
        raise InputError("kmax must be >= 1")
    coef = 1.0
    total = 0.0
    for k in range(kmax + 1):
        term = coef * pcf(2.0 * k + 1.0, y)
        total += term
        if k >= 2 and abs(term) < rtol * abs(total):
            break
        coef *= (k + s) * (k + 1.0 - s) / (k + 1.0)
    return total


def hermite_leftmost_zero(n):
    """Smallest real zero of the probabilists' Hermite polynomial He_n,
    via companion-matrix roots."""
    if n < 1:
        raise InputError("n must be >= 1")
    c = np.zeros(n + 1)
    c[n] = 1.0
    roots = hermite_e.hermeroots(c)
    real = roots[np.abs(roots.imag) < 1e-10].real if np.iscomplexobj(roots) else roots
    return float(np.min(real))


def rightmost_zero(y_plus):
    """Exact OU decay rate: lambda = -s at the rightmost zero of
    s -> pcf(s, y_plus).

    lambda decreases in y_plus and equals m where y_plus is the leftmost
    zero of He_m; since the Hermite zeros interlace, lambda lies in
    (m-1, m] for the first m >= 1 with pcf(-m, y_plus) = (-1)^m He_m(y_plus)
    <= 0.  That m comes from the Hermite recursion, and one brentq with a
    relative tolerance refines the zero inside the bracket, so small rates
    such as 3.98e-14 at y_plus = 8 keep full relative precision.  A root
    within 1e-8 of an integer n where He_n(y_plus) vanishes to machine
    precision is returned as exactly n.

    Covers y_plus from about -14.8 (rate M_MAX = 60) to about 37.7, where
    the rate reaches the smallest normal double; raises NumericsError
    outside that range.
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
    # xtol is the smallest subnormal, so the tolerance stays relative for
    # every rate above the smallest normal double
    root = brentq(pcf, -float(m), 1.0 - m, args=(y_plus,), xtol=5e-324,
                  rtol=8 * np.finfo(float).eps)
    lam = -root
    if lam < tiny:
        raise NumericsError(underflow)
    # snap to the Hermite-zero case: boundary exactly at a zero of He_n
    near = round(lam)
    if near >= 1 and abs(lam - near) < 1e-8:
        scale = 1.0 + abs(_hermite_pcf(near, abs(y_plus) + 1.0)[-1])
        if abs(herm[near]) <= 1e-12 * scale:
            return float(near)
    return lam
