"""Global first-passage density approximation.

For a boundary y_plus, start y0 < y_plus, and q = exp(-2 theta tau):

    f(tau) = (y_plus-y0) e^{-lam tau} / sqrt(pi (1-q)^3 / (2 theta^3))
             * exp(-theta sqrt(q) (y0-y_plus)^2 / (2(1-q)))
             * (psi(y_plus)/psi(y0))^(sqrt(q)/(1+sqrt(q)))
             * ((1+sqrt(q))/2)^nu
             * exp(rho (1-sqrt(q))/(1+sqrt(q)))

with theta the average mean-reversion rate (Fisher information of the
invariant density), lam the decay rate, nu fixed by the boundary-layer
balance theta*nu = 3 theta - 2 lam + A'(y_plus) + A(y_plus)^2/2, and rho
calibrated so the density integrates to one.  The formula is exact for
the OU model with the boundary at equilibrium and, in the theta -> 0
limit, for Brownian motion with drift (inverse Gaussian).

Normalization quadrature: the integral has an essential singularity at
tau = 0 and a slow exponential tail, so it is assembled from three exact
or spectrally-accurate pieces (see `_normalizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
import warnings

import numpy as np
from scipy import special
from scipy.optimize import brentq

from . import decay as _decay
from .errors import InputError, NumericsError
from .forcefield import ForceField, InvariantMeasure, _DOMAIN, _integrate_segments

__all__ = ["DensityModel", "theta_fisher", "nu_coefficient", "build_model",
           "calibrate_rho", "eval_density", "log_density"]


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------

# theta_fisher's panel count, and the doublings of its range allowed until
# log psi at both ends is _THETA_TAIL below its largest edge value
_THETA_PANELS, _THETA_MAX_DOUBLINGS, _THETA_TAIL = 32, 8, 60.0
# _normalizer's mid and tail node counts and the w where its tail starts;
# calibrate_rho's initial bracket, its doublings and the accepted residual
_NORM_N_MID, _NORM_N_TAIL, _NORM_W_SPLIT = 400, 48, 0.05
# the smallest lam/theta the tail rule serves: below it the 48-point
# Gauss-Jacobi rule integrates its own weight, 2^a / a, with a relative
# error above 1e-6 (8e-8 at a = 1e-11, 2e-5 at 1e-12), below 1e-13 its
# first node rounds onto w = 0, and below 1.1e-16 its exponent a - 1
# rounds to -1, which scipy refuses
_NORM_MIN_A = 1e-11
_RHO_BRACKET, _RHO_MAX_EXPAND, _RHO_TOL = 20.0, 5, 1e-10


def theta_fisher(ff: ForceField, im: InvariantMeasure):
    """Average rate of mean reversion <A^2> over the invariant density
    (the Fisher information of the location family psi(y - m)).

    The range starts at (-40, 40) and doubles, at most 8 times (then
    NumericsError), while psi at either end is above e^-60 of the largest
    psi on the 33 panel edges, read by one `log_psi` query per range: OU
    keeps (-40, 40), and dry friction with mu = 0.1 reaches (-640, 640).

    <A^2> and its cross-check <-A'> are integrated over that range together
    by `forcefield._integrate_segments`, 32 panels each, in its
    whole-integral mode: every round evaluates A, A' and psi once, on all
    of its nodes, and the two integrals are accurate to about 1e-14 of
    their mass.  Against scalar adaptive quadrature of the same psi the
    value agrees to 2e-15 for the expressions -y, -2*tanh(y) and
    -y - 0.1*sin(y) and for the builtin OU and tanh; the error of a
    quadrature-backed psi itself (up to about 6e-14) comes on top.
    Cost: about 1 ms for a smooth field over a quadrature measure (two to
    four rounds).  A jump or kink of A takes about 40 rounds, and over a
    quadrature measure each round's psi queries refine at the kink again:
    about 0.1 s for -sign(y).

    <A^2> and <-A'> must agree within 1e-6; the identity fails by
    construction for kinked fields whose A' follows a one-sided
    convention (dry-friction), which only triggers a warning.  For a
    non-normalizable measure (ABM limit) returns 0 with a warning.
    """
    if not im.normalizable:
        warnings.warn("non-normalizable invariant density: theta = 0 (ABM limit)")
        return 0.0

    # segments 0..n-1 integrate A^2 psi, segments n..2n-1 -A' psi
    n = _THETA_PANELS
    lo, hi = _DOMAIN
    for _ in range(_THETA_MAX_DOUBLINGS + 1):
        edges = np.linspace(lo, hi, n + 1)
        log_psi = np.asarray(im.log_psi(edges), float)
        if not np.any(log_psi[[0, -1]] > log_psi.max() - _THETA_TAIL):
            break
        lo, hi = 2.0 * lo, 2.0 * hi
    else:
        raise NumericsError(
            f"theta: psi at y = +-{hi / 2:g} is still above e^-{_THETA_TAIL:g} "
            f"of its peak after {_THETA_MAX_DOUBLINGS} doublings of {_DOMAIN}")

    def integrand(x, k):
        first = np.repeat(k < n, x.size // k.size)
        out = np.empty(x.size)
        out[first] = np.asarray(ff.A(x[first]), float) ** 2
        out[~first] = -np.asarray(ff.A_prime(x[~first]), float)
        return out * im.psi(x)

    parts = _integrate_segments(integrand, np.tile(edges[:-1], 2),
                                np.tile(edges[1:], 2), whole=True)
    a2, a1 = float(parts[:n].sum()), float(parts[n:].sum())
    if abs(a1 - a2) > 1e-6 * max(abs(a2), 1.0):
        warnings.warn(
            f"<A^2> = {a2:.8g} and <-A'> = {a1:.8g} disagree; expected for "
            "kinked drifts with a one-sided derivative convention")
    return a2


def nu_coefficient(ff: ForceField, theta, lam, y_plus):
    """nu = [3 theta - 2 lam + A'(y_plus) + A(y_plus)^2/2] / theta."""
    if theta <= 0:
        raise InputError("nu is defined for theta > 0; the theta -> 0 limit "
                         "is handled inside the evaluator")
    y_plus = float(y_plus)
    ap = float(ff.A_prime(y_plus))
    a = float(ff.A(y_plus))
    return (3.0 * theta - 2.0 * lam + ap + 0.5 * a * a) / theta


@dataclass(frozen=True)
class DensityModel:
    """Calibrated parameter set for one (y0, y_plus) pair.  Immutable;
    sweeps over starting points re-calibrate rho per point."""

    im: InvariantMeasure
    y0: float
    y_plus: float
    theta: float
    lam: float
    nu: float
    rho: float = 0.0
    lambda_source: str = "exact"
    rho_sensitivity: float = None     # d(normalization)/d(rho) at calibration
    calibration_residual: float = None

    def __post_init__(self):
        if self.y0 >= self.y_plus:
            raise InputError("needs y0 < y_plus")

    @property
    def b(self):
        return self.y_plus - self.y0


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def log_density(model: DensityModel, tau):
    """log f(tau, y0); vectorized over tau (all entries must be > 0)."""
    tau = np.asarray(tau, float)
    if np.any(tau <= 0.0):
        raise InputError("density is defined for tau > 0")
    dlpsi = _log_psi_ratio(model)

    if model.theta == 0.0:
        # theta -> 0 limit: all reversion factors collapse, leaving the
        # inverse Gaussian of a drifting Brownian motion
        return _log_levy(model.b, tau) - model.lam * tau + 0.5 * dlpsi

    base, w = _rho_free_log_density(model, tau, dlpsi)
    return base + model.rho * (1.0 - w) / (1.0 + w)


def _log_levy(b, tau):
    """log of the Levy-Smirnov density b/sqrt(4 pi tau^3) e^{-b^2/(4 tau)}."""
    return np.log(b) - 0.5 * np.log(4.0 * np.pi * tau**3) - b * b / (4.0 * tau)


def _log_psi_ratio(model):
    return float(model.im.log_psi(model.y_plus) - model.im.log_psi(model.y0))


def _rho_free_log_density(model, tau, dlpsi):
    """log f(tau) but for its last term rho (1-w)/(1+w), and w = sqrt(q),
    for theta > 0.  Adding that term to the first gives `log_density` bit
    for bit, as the terms are summed in the same order."""
    b, th = model.b, model.theta
    w = np.exp(-th * tau)                       # sqrt(q)
    one_m_q = -np.expm1(-2.0 * th * tau)
    # (1-q)^3 is kept inside the log: it underflows long before 1-q does
    return (np.log(b) - model.lam * tau
            - 0.5 * (np.log(np.pi / (2.0 * th**3)) + 3.0 * np.log(one_m_q))
            - th * w * b * b / (2.0 * one_m_q)
            + w / (1.0 + w) * dlpsi
            + model.nu * np.log1p(w) - model.nu * np.log(2.0)), w


def eval_density(model: DensityModel, tau):
    with np.errstate(under="ignore"):
        return np.exp(log_density(model, tau))


# ----------------------------------------------------------------------
# normalization and calibration
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_legendre(n):
    """Read-only n-point Gauss-Legendre nodes and weights, made once per
    process (leggauss(400) costs about 20 ms, a calibration needs ~16)."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _normalizer(model: DensityModel):
    """rho -> int_0^inf f dtau for `model` (theta > 0) with that rho, from
    three pieces.

    head   tau < tau_c where q > 1 - 1e-8: exact integral of the short-time
           form, erfc(b / (2 sqrt(tau_c)));
    mid    400-point Gauss-Legendre in x = b/(2 sqrt(tau)), i.e. against
           the measure d erfc = (2/sqrt(pi)) e^{-x^2} dx, which absorbs the
           essential singularity exactly and leaves a slowly-varying factor
           f/LS;
    tail   tau > T with w = e^{-theta tau} < 0.05:  f = w^{lam/theta}
           G(w)/... with G analytic at w = 0, so 48-point Gauss-Jacobi with
           weight w^{lam/theta - 1} on [0, 0.05] is spectrally accurate;
           for lam/theta below 1e-11 it is not, and NumericsError is raised.

    Everything that does not depend on rho (the nodes, log psi(y_plus) -
    log psi(y0) and log f but for its rho term) is built here, once; each
    call of the returned function adds the rho term at the nodes.
    """
    th, lam, b = model.theta, model.lam, model.b
    dlpsi = _log_psi_ratio(model)
    tau_c = -np.log1p(-1e-8) / (2.0 * th)
    head = special.erfc(b / (2.0 * np.sqrt(tau_c)))

    T = -np.log(_NORM_W_SPLIT) / th
    a = lam / th
    if not a >= _NORM_MIN_A:
        raise NumericsError(
            f"lambda/theta = {lam:.3g}/{th:.3g} = {a:.3g} is below "
            f"{_NORM_MIN_A:g}, where the tail's Gauss-Jacobi rule loses "
            f"its accuracy")
    # tail: (1/theta) int_0^wsplit w^(a-1) G(w) dw,  G = f * e^{lam tau}
    xj, wj = special.roots_jacobi(_NORM_N_TAIL, 0.0, a - 1.0)
    w_nodes = (xj + 1.0) * (_NORM_W_SPLIT / 2.0)
    taus = -np.log(w_nodes) / th
    tail_base, w = _rho_free_log_density(model, taus, dlpsi)
    tail_omw, tail_opw = 1.0 - w, 1.0 + w
    tail_lam = lam * taus
    tail_scale = (_NORM_W_SPLIT / 2.0) ** a

    x_lo = b / (2.0 * np.sqrt(T))
    x_hi = min(b / (2.0 * np.sqrt(tau_c)), x_lo + 9.0)
    xg, wg = _gauss_legendre(_NORM_N_MID)
    x = 0.5 * (xg + 1.0) * (x_hi - x_lo) + x_lo
    tau = b * b / (4.0 * x * x)
    log_ls = _log_levy(b, tau)
    mid_base, w = _rho_free_log_density(model, tau, dlpsi)
    mid_omw, mid_opw = 1.0 - w, 1.0 + w
    mid_scale = 0.5 * (x_hi - x_lo)
    erfc_density = 2.0 / np.sqrt(np.pi)
    gauss = np.exp(-x * x)

    def normalization(rho):
        # log f is log_density's rho-free part plus rho (1-w)/(1+w), and the
        # mid weight is (f/LS * 2/sqrt(pi)) * e^{-x^2}, in that order: then
        # the values do not depend on what was built ahead, to the last bit
        rho = float(rho)
        with np.errstate(under="ignore"):
            G = np.exp(tail_base + rho * tail_omw / tail_opw + tail_lam)
            ratio = np.exp(mid_base + rho * mid_omw / mid_opw - log_ls)
            mid = mid_scale * float(wg @ (ratio * erfc_density * gauss))
        tail = tail_scale * float(wj @ G) / th
        return head + mid + tail

    return normalization


def calibrate_rho(model: DensityModel):
    """Solve normalization(rho) = 1 for rho.

    The normalization is strictly increasing in rho, so a bracketed root
    find is safe; the initial bracket [-20, 20] is doubled, at most five
    times, until it straddles 1, and the residual must end below 1e-10.
    The sensitivity d(norm)/d(rho) is recorded: it vanishes as
    y0 -> y_plus, where rho becomes unidentifiable (flagged by a warning,
    not an error).

    The quadrature nodes and the rho-free part of log f at them are built
    once (`_normalizer`, about 0.4 ms), and each of the ~30 bracket,
    brentq and sensitivity evaluations only adds the rho term (about
    0.02 ms).  The values are those of building every evaluation afresh,
    bit for bit; in particular log psi is read twice per calibration, not
    twice per evaluation, which matters for quadrature-backed measures.
    """
    if model.theta <= 0.0:
        raise InputError("calibration requires theta > 0; the ABM limit "
                         "needs no rho (its factors are unity)")
    if model.lam <= 0.0:
        raise InputError("calibration requires lam > 0")

    norm = _normalizer(model)
    g = lambda r: norm(r) - 1.0
    lo, hi = -_RHO_BRACKET, _RHO_BRACKET
    glo, ghi = g(lo), g(hi)
    expand = 0
    while glo * ghi > 0.0:
        expand += 1
        if expand > _RHO_MAX_EXPAND:
            raise NumericsError(
                f"rho bracket exhausted: normalization - 1 is {glo:.3e} at "
                f"rho = {lo:g} and {ghi:.3e} at rho = {hi:g}")
        lo *= 2.0
        hi *= 2.0
        glo, ghi = g(lo), g(hi)

    rho = brentq(g, lo, hi, xtol=1e-13, rtol=8 * np.finfo(float).eps)
    resid = g(rho)
    if abs(resid) > _RHO_TOL:
        raise NumericsError(
            f"calibration residual {resid:.2e} above {_RHO_TOL:g}")

    drho = 1e-4
    sens = (norm(rho + drho) - norm(rho - drho)) / (2 * drho)
    if abs(sens) < 1e-4:
        warnings.warn(
            f"normalization nearly independent of rho (sensitivity "
            f"{sens:.2e}); start too close to the boundary for rho to matter")
    return float(rho), float(sens), float(resid)


def build_model(ff: ForceField, im: InvariantMeasure, y0, y_plus,
                theta=None, lam=None, lambda_source=None,
                model_name=None, model_params=None) -> DensityModel:
    """Assemble and calibrate a DensityModel.

    lam defaults to the exact rate of the builtin `model_name` with
    `model_params` where `lambda_exact` has one (ou, abm, dry_friction,
    and tanh at its polynomial-zero boundary), and to the accelerated
    ratio-sequence estimate elsewhere or without `model_name`;
    `lambda_source` then names that route.  A model name or parameter that
    `lambda_exact` rejects raises InputError.  A given lam is labelled
    `lambda_source` ("user" by default); a label without lam is bad input.
    theta defaults to the Fisher value.  rho is then calibrated by
    normalization; for theta = 0 (ABM) no calibration is needed.
    """
    y0, y_plus = float(y0), float(y_plus)
    params = dict(model_params or {})

    if theta is None:
        known = im.fisher_theta
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            theta = theta_fisher(ff, im) if known is None else float(known)

    if lam is None:
        if lambda_source is not None:
            raise InputError("lambda_source labels a given lam; pass lam too")
        lambda_source = "exact"
        if model_name is not None:
            lam = _decay._exact_or_none(model_name, y_plus, params)
        if lam is None:
            lam = _decay.estimate_lambda(ff, im, y_plus).lam
            lambda_source = "ratio-accelerated"
    lambda_source = lambda_source or "user"

    if theta == 0.0:
        return DensityModel(im=im, y0=y0, y_plus=y_plus, theta=0.0,
                            lam=float(lam), nu=0.0, rho=0.0,
                            lambda_source=lambda_source)

    nu = nu_coefficient(ff, theta, lam, y_plus)
    raw = DensityModel(im=im, y0=y0, y_plus=y_plus, theta=float(theta),
                       lam=float(lam), nu=float(nu),
                       lambda_source=lambda_source)
    rho, sens, resid = calibrate_rho(raw)
    return replace(raw, rho=rho, rho_sensitivity=sens,
                   calibration_residual=resid)
