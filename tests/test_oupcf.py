import csv
import pathlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq
from scipy.stats import norm

import fpt
from fpt.errors import InputError, NumericsError

DATA = pathlib.Path(__file__).parent / "data"


def _mp_rate(y_plus):
    """OU rate from a 40-digit mpmath root of nu -> D_nu(-y_plus), bracketed
    by the first integer order where D changes sign.  D is divided by its
    value at the order below, so findroot's residual check does not depend
    on the size of D (about 1e39 at y_plus = -14.3)."""
    import mpmath as mp
    with mp.workdps(40):
        y = mp.mpf(y_plus)
        f = lambda nu: mp.pcfd(nu, -y, zeroprec=400)
        m = 1
        while f(m) > 0:
            m += 1
        scale = f(m - 1)
        return float(mp.findroot(lambda nu: f(nu) / scale, (m - 1, m),
                                 solver="anderson"))


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("y", [-3.0, -1.0, 0.0, 0.7, 2.5])
def test_order_one_is_mills_ratio(y):
    assert fpt.pcf(1.0, y) == pytest.approx(norm.cdf(y) / norm.pdf(y), rel=1e-12)


def test_value_at_origin():
    assert fpt.pcf(1.0, 0.0) == pytest.approx(np.sqrt(np.pi / 2), rel=1e-13)


@pytest.mark.parametrize("y", [-2.0, -0.5, 0.0, 1.3])
def test_nonpositive_integers_are_hermite(y):
    assert fpt.pcf(-2.0, y) == pytest.approx(y * y - 1.0, abs=1e-12)
    assert fpt.pcf(0.0, y) == 1.0
    assert fpt.pcf(-3.0, y) == pytest.approx(-(y**3 - 3 * y), abs=1e-12)


@pytest.mark.parametrize("s", [0.3, 1.0, 2.4, -0.6, -1.7])
def test_derivative_identity_by_finite_differences(s):
    # d/dy pcf(s, y) = s * pcf(s+1, y), checked against central differences
    y, h = 0.8, 1e-5
    fd = (fpt.pcf(s, y + h) - fpt.pcf(s, y - h)) / (2 * h)
    assert fd == pytest.approx(s * fpt.pcf(s + 1.0, y), rel=2e-9, abs=1e-10)


@given(st.floats(-3.0, -0.01), st.floats(-3.0, 3.0))
@settings(max_examples=80, deadline=None)
def test_recursion_residual(s, y):
    lhs = fpt.pcf(s, y) + y * fpt.pcf(s + 1.0, y) - (s + 1.0) * fpt.pcf(s + 2.0, y)
    scale = max(abs(fpt.pcf(s, y)), abs(fpt.pcf(s + 2.0, y)), 1.0)
    assert abs(lhs) / scale < 1e-9


# large y with s < -1, where downward recursion from s > 0 loses accuracy,
# and orders within 1e-15 and 1e-9 of integers, where scipy.special.pbdv does
_MP_POINTS = ([(-3.5, 10.0), (-3.5, 20.0), (-5.5, 10.0), (-10.2, 10.0),
               (0.5, 1.0), (2.4, -3.0), (-0.3, 2.5), (-1.7, -6.0),
               (7.5, 30.0), (3.0, -38.5)]
              + [(sign * n + d, y) for n in range(1, 6) for sign in (-1, 1)
                 for d in (-1e-9, -1e-15, 1e-15, 1e-9) for y in (-2.33, 1.1)])


def test_matches_mpmath():
    import mpmath as mp
    with mp.workdps(40):
        for s, y in _MP_POINTS:
            ref = mp.exp(mp.mpf(y) ** 2 / 4) * mp.pcfd(-mp.mpf(s), -mp.mpf(y))
            assert fpt.pcf(s, y) == pytest.approx(float(ref), rel=1e-13), (s, y)
        # pcf works in its own context: the caller's precision is untouched
        assert mp.mp.dps == 40


def test_threads_give_serial_values():
    points = _MP_POINTS[:24]
    serial = [fpt.pcf(s, y) for s, y in points]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda p: fpt.pcf(*p), points * 4))
    finally:
        sys.setswitchinterval(old)
    assert threaded == serial * 4


def test_overflow_raises_not_inf():
    with pytest.raises(NumericsError):
        fpt.pcf(1.0, 45.0)
    with pytest.raises(NumericsError):
        fpt.pcf(2.0, 39.0)
    # rates above 60, or below the smallest normal double, are not returned
    with pytest.raises(NumericsError):
        fpt.rightmost_zero(-15.0)
    for y_plus in (37.8, 38.0, 40.0):
        with pytest.raises(NumericsError, match="underflow"):
            fpt.rightmost_zero(y_plus)


def test_rightmost_zero_fails_fast_past_underflow(monkeypatch):
    """Past the underflow onset one pcf value decides, before brentq could
    spend its iterations on subnormal numbers."""
    from fpt import oupcf
    real, calls = oupcf.pcf, []

    def counting(s, y):
        calls.append(s)
        return real(s, y)

    monkeypatch.setattr(oupcf, "pcf", counting)
    with pytest.raises(NumericsError, match="underflow"):
        oupcf.rightmost_zero(37.8)
    assert len(calls) <= 5
    # rates just below the onset of underflow are still returned
    assert oupcf.rightmost_zero(37.7) == pytest.approx(3.5297440997728714e-308,
                                                      rel=1e-14, abs=0)


def test_rejects_nonfinite():
    with pytest.raises(InputError):
        fpt.pcf(np.nan, 0.0)


# ----------------------------------------------------------------------
# reflection identity
# ----------------------------------------------------------------------

def reflection_product(s, y, kmax=60, rtol=1e-12):
    """Truncated reflection series for pcf(s,y)*pcf(1-s,y), an oracle for
    the direct product independent of it.

    Sum_{k=0}^{kmax} [Gamma(k+s)Gamma(k+1-s) / (k! Gamma(s)Gamma(1-s))]
    * pcf(2k+1, y).  The coefficient is accumulated by its term ratio
    (k+s)(k+1-s)/(k+1) so no large Gamma values appear.  Terminates early
    once a term falls below `rtol` of the running sum.
    """
    s = float(s)
    if s.is_integer():
        raise InputError("reflection series requires non-integer s")
    coef = 1.0
    total = 0.0
    for k in range(kmax + 1):
        term = coef * fpt.pcf(2.0 * k + 1.0, y)
        total += term
        if k >= 2 and abs(term) < rtol * abs(total):
            break
        coef *= (k + s) * (k + 1.0 - s) / (k + 1.0)
    return total


def test_reflection_half_order_at_origin():
    lhs = reflection_product(0.5, 0.0)
    assert lhs == pytest.approx(fpt.pcf(0.5, 0.0) ** 2, abs=1e-8)


@pytest.mark.parametrize("s,y", [(0.25, 1.0), (0.25, -1.5), (0.75, 0.3)])
def test_reflection_matches_direct_product(s, y):
    direct = fpt.pcf(s, y) * fpt.pcf(1.0 - s, y)
    assert reflection_product(s, y) == pytest.approx(direct, rel=1e-8)


def test_reflection_symmetric_in_s():
    # the series only depends on {s, 1-s}
    a = reflection_product(0.3, 0.4)
    b = reflection_product(0.7, 0.4)
    assert a == pytest.approx(b, rel=1e-12)


def test_reflection_rejects_integer_order():
    with pytest.raises(InputError):
        reflection_product(1.0, 0.0)


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def test_hermite_leftmost_zeros():
    assert fpt.hermite_leftmost_zero(2) == pytest.approx(-1.0, abs=1e-12)
    assert fpt.hermite_leftmost_zero(3) == pytest.approx(-np.sqrt(3), abs=1e-12)
    assert fpt.hermite_leftmost_zero(5) == pytest.approx(-2.86, abs=5e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rightmost_zero_inverts_hermite_zeros(n):
    zeta = fpt.hermite_leftmost_zero(n)
    assert fpt.rightmost_zero(zeta) == pytest.approx(float(n), abs=1e-8)
    # either side of the zero the bracket moves by one integer, and near
    # the integer order scipy's pbdv can have the wrong sign
    for y in (zeta - 1e-10, zeta - 1e-12, zeta + 1e-12, zeta + 1e-10):
        assert fpt.rightmost_zero(y) == pytest.approx(_mp_rate(y), rel=1e-12)


def test_rightmost_zero_golden_table():
    with open(DATA / "ou_lambda_table.csv") as fh:
        rows = [r for r in csv.DictReader(
            line for line in fh if not line.startswith("#"))]
    for row in rows:
        yp, lam = float(row["y_plus"]), float(row["lambda"])
        got = fpt.rightmost_zero(yp)
        if row["abscissa_kind"] == "exact":
            assert got == pytest.approx(lam, abs=1e-8)
        elif row["abscissa_kind"] == "rounded_3sf":
            assert abs(got - lam) <= 5e-4
        else:
            # the tabulated boundary is a 3 s.f. rounding of the true abscissa
            assert abs(got - lam) <= 2e-2
    # the 2e-2 above cannot tell 3.99208 from 4 at -2.33; deep in the right
    # tail the rate is 6.26e-11 at 7 and 3.98e-14 at 8
    for yp in (-2.33, 7.0, 8.0):
        assert fpt.rightmost_zero(yp) == pytest.approx(_mp_rate(yp), rel=1e-12,
                                                       abs=0)


def test_rightmost_zero_monotone_decreasing():
    grid = np.linspace(-1.5, 3.0, 50)
    lams = np.array([fpt.rightmost_zero(y) for y in grid])
    assert np.all(np.diff(lams) < 0.0)


def test_rightmost_zero_lower_edge():
    """The bracket stops at rate M_MAX = 60, where y_plus is the leftmost
    zero of He_60."""
    assert fpt.hermite_leftmost_zero(60) == pytest.approx(-14.36715, abs=1e-5)
    with pytest.raises(NumericsError, match="above 60"):
        fpt.rightmost_zero(-14.4)
    assert fpt.rightmost_zero(-14.3) == pytest.approx(_mp_rate(-14.3),
                                                      rel=1e-12, abs=0)


@pytest.mark.parametrize("y_plus", [5.5, 6.5, 7.5, 8.5, 9.0, 12.0])
def test_rightmost_zero_where_the_guess_degrades(y_plus):
    # scipy's pbdv zero is 7e-11 off at 5.5, 14% at 8.5 and unusable from
    # 9 on; the certified rate keeps full relative precision
    assert fpt.rightmost_zero(y_plus) == pytest.approx(_mp_rate(y_plus),
                                                       rel=1e-12, abs=0)


# a uniform grid over the rate's range and four far-right barriers, the
# last just above the underflow onset
_SWEEP = ([float(y) for y in np.linspace(-14.3, 9.0, 120)]
          + [12.0, 20.0, 30.0, 37.7])


def _brentq_rate(y_plus):
    """The rate by brentq on pcf over the integer Hermite bracket alone."""
    from fpt import oupcf
    herm = oupcf._hermite_pcf(oupcf.M_MAX, y_plus)
    m = next(k for k in range(1, oupcf.M_MAX + 1) if herm[k] <= 0.0)
    return -brentq(fpt.pcf, -float(m), 1.0 - m, args=(y_plus,),
                   xtol=5e-324, rtol=8 * np.finfo(float).eps)


def test_rightmost_zero_mpmath_budget(monkeypatch):
    """Two mpmath values certify a pbdv guess: 2 per rate up to y_plus = 2,
    at most 6 on (2, 5] and 9 beyond, where brentq on the integer bracket
    alone takes 4-10.  Every rate agrees with that brentq to 2e-15."""
    from fpt import oupcf
    reference = [_brentq_rate(y) for y in _SWEEP]
    real, calls = oupcf.pcf, []

    def counting(s, y):
        if not (s <= 0 and float(s).is_integer()):   # Hermite orders are free
            calls.append(s)
        return real(s, y)

    monkeypatch.setattr(oupcf, "pcf", counting)
    for y, ref in zip(_SWEEP, reference):
        calls.clear()
        assert oupcf.rightmost_zero(y) == pytest.approx(ref, rel=2e-15, abs=0), y
        budget = 2 if y <= 2.0 else 6 if y <= 5.0 else 9
        assert len(calls) <= budget, (y, calls)


def test_rightmost_zero_threads_give_serial_values():
    barriers = _SWEEP[:120:5]
    serial = [fpt.rightmost_zero(y) for y in barriers]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(fpt.rightmost_zero, barriers * 2,
                                     timeout=300))
    finally:
        sys.setswitchinterval(old)
    assert threaded == serial * 2
