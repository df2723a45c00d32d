"""Drift fields for unit-diffusion mean-reverting SDEs.

Everything downstream works with the dimensionless form

    dY = A(Y) dtau + sqrt(2) dW,        tau = kappa * t,

so a model is a pair (ForceField, InvariantMeasure) where the invariant
density psi satisfies psi'/psi = A.  General SDEs
dX = mu_X(X) dt + sigma_X(X) dW are brought to this form by the Lamperti
change of variables dy/dx = sqrt(2 kappa)/sigma_X(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional
import json
import warnings

import numpy as np
from numpy.polynomial import legendre
from scipy import integrate, special
from scipy.interpolate import PchipInterpolator

from .errors import InputError

__all__ = [
    "ForceField",
    "InvariantMeasure",
    "SdeSpec",
    "ClassificationFlags",
    "builtin",
    "lamperti",
    "classify",
    "measure_from_drift",
    "load_field",
]

LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(frozen=True)
class ForceField:
    """Dimensionless drift A and its derivative.

    `A` and `A_prime` must accept numpy arrays.  At kinks `A_prime` follows
    the one-sided average convention, except dry-friction where it is 0
    everywhere.  `kappa` (1/time) only matters when converting results back
    to dimensional time.
    """

    A: Callable
    A_prime: Callable
    kappa: float = 1.0
    label: str = "custom"

    def __post_init__(self):
        if self.kappa <= 0:
            raise InputError("kappa must be positive")


@dataclass(frozen=True)
class InvariantMeasure:
    """Invariant density psi (psi'/psi = A) and its cumulative Psi.

    `log_psi` and `log_Psi` are first-class because the h-coefficient
    march needs them far in the left tail where the linear values
    underflow.  For non-normalizable fields (ABM) psi is kept unnormalized
    and `normalizable` is False; Psi is then just the left integral of psi.
    `fisher_theta` carries the closed-form Fisher information <A^2> when
    one is known (built-ins); quadrature is used otherwise.
    """

    psi: Callable
    Psi: Callable
    log_psi: Callable
    log_Psi: Callable
    normalizable: bool = True
    fisher_theta: Optional[float] = None


@dataclass(frozen=True)
class SdeSpec:
    """General SDE dX = mu_X dt + sigma_X dW, to be Lamperti-reduced.

    `x_range` is the interval on which the monotone map x -> y is built and
    inverted numerically.  `sigma_X_prime` is optional; central differences
    are used when it is absent.
    """

    mu_X: Callable
    sigma_X: Callable
    kappa: float = 1.0
    x_range: tuple = (-10.0, 10.0)
    sigma_X_prime: Optional[Callable] = None


@dataclass(frozen=True)
class ClassificationFlags:
    """Heuristic regularity flags; None means the sampled trend was
    inconclusive.  Advisory only: algorithms proceed regardless."""

    S_minus: Optional[bool]
    S_plus_star: Optional[bool]
    completely_absorbing: Optional[bool]


# ----------------------------------------------------------------------
# built-in model catalogue
# ----------------------------------------------------------------------

def _ou():
    A = lambda y: -np.asarray(y, float)
    A_prime = lambda y: np.full_like(np.asarray(y, float), -1.0)
    log_psi = lambda y: -0.5 * np.square(np.asarray(y, float)) - LOG_SQRT_2PI
    im = InvariantMeasure(
        psi=lambda y: np.exp(log_psi(y)),
        Psi=lambda y: special.ndtr(np.asarray(y, float)),
        log_psi=log_psi,
        log_Psi=lambda y: special.log_ndtr(np.asarray(y, float)),
        fisher_theta=1.0,
    )
    return ForceField(A, A_prime, label="ou"), im


def _dry_friction(mu):
    A = lambda y: -mu * np.sign(np.asarray(y, float))
    # convention for this model: derivative 0 everywhere, including the kink
    A_prime = lambda y: np.zeros_like(np.asarray(y, float))

    def log_psi(y):
        return np.log(mu / 2.0) - mu * np.abs(np.asarray(y, float))

    def Psi(y):
        y = np.asarray(y, float)
        return np.where(y <= 0, 0.5 * np.exp(mu * np.minimum(y, 0.0)),
                        1.0 - 0.5 * np.exp(-mu * np.maximum(y, 0.0)))

    def log_Psi(y):
        y = np.asarray(y, float)
        left = mu * y - np.log(2.0)
        right = np.log1p(-0.5 * np.exp(-mu * np.abs(y)))
        return np.where(y <= 0, left, right)

    im = InvariantMeasure(psi=lambda y: np.exp(log_psi(y)), Psi=Psi,
                          log_psi=log_psi, log_Psi=log_Psi,
                          fisher_theta=mu * mu)
    return ForceField(A, A_prime, label=f"dry_friction(mu={mu:g})"), im


def _tanh_field(alpha, gamma, parameterization):
    """A = -alpha*tanh(gamma*y) ('amplitude') or -(alpha/gamma)*tanh(gamma*y)
    ('ratio').  The two conventions appear in different places in the
    literature; `ratio(alpha, gamma)` is the same field as
    `amplitude(alpha/gamma, gamma)`."""
    if parameterization == "amplitude":
        amp = alpha
    elif parameterization == "ratio":
        amp = alpha / gamma
    else:
        raise InputError(f"unknown tanh parameterization {parameterization!r}")
    p = amp / gamma                     # psi ~ sech(gamma*y)^p
    if p <= 0:
        raise InputError("tanh field needs alpha, gamma > 0")
    A = lambda y: -amp * np.tanh(gamma * np.asarray(y, float))
    A_prime = lambda y: -amp * gamma / np.cosh(gamma * np.asarray(y, float)) ** 2
    log_norm = np.log(gamma) - np.log(special.beta(p / 2.0, 0.5))

    def log_cosh(u):
        u = np.abs(u)
        return u + np.log1p(np.exp(-2.0 * u)) - np.log(2.0)

    def log_psi(y):
        return log_norm - p * log_cosh(gamma * np.asarray(y, float))

    def Psi(y):
        # (1 + tanh(gamma y)) / 2 without its cancellation in the left tail
        t = special.expit(2.0 * gamma * np.asarray(y, float))
        return special.betainc(p / 2.0, p / 2.0, t)

    im = InvariantMeasure(psi=lambda y: np.exp(log_psi(y)), Psi=Psi,
                          log_psi=log_psi,
                          log_Psi=_log_Psi_with_tail(Psi, log_psi, A),
                          fisher_theta=amp * amp * gamma / (amp + gamma))
    label = f"tanh(amp={amp:g},gamma={gamma:g})"
    return ForceField(A, A_prime, label=label), im


def _abm(mu):
    A = lambda y: np.full_like(np.asarray(y, float), mu)
    A_prime = lambda y: np.zeros_like(np.asarray(y, float))
    log_psi = lambda y: mu * np.asarray(y, float)
    im = InvariantMeasure(
        psi=lambda y: np.exp(log_psi(y)),
        Psi=lambda y: np.exp(mu * np.asarray(y, float)) / mu,
        log_psi=log_psi,
        log_Psi=lambda y: mu * np.asarray(y, float) - np.log(mu),
        normalizable=False,
        fisher_theta=0.0,
    )
    return ForceField(A, A_prime, label=f"abm(mu={mu:g})"), im


def builtin(name, mu=1.0, alpha=2.0, gamma=1.0, parameterization="amplitude"):
    """Return the (ForceField, InvariantMeasure) pair for a built-in model.

    Parameters
    ----------
    name : {'ou', 'dry_friction', 'tanh', 'abm'}
    mu : drift magnitude for dry_friction / abm (must be > 0)
    alpha, gamma, parameterization : tanh options; see `_tanh_field`
    """
    if name == "ou":
        return _ou()
    if name == "dry_friction":
        if mu <= 0:
            raise InputError("dry_friction needs mu > 0")
        return _dry_friction(mu)
    if name == "tanh":
        return _tanh_field(alpha, gamma, parameterization)
    if name == "abm":
        if mu <= 0:
            raise InputError("abm needs mu > 0")
        return _abm(mu)
    raise InputError(f"unknown builtin field {name!r}")


# ----------------------------------------------------------------------
# quadrature-backed invariant measure for custom drifts
# ----------------------------------------------------------------------

def _gauss_lobatto(n):
    """n-point Gauss-Lobatto-Legendre rule on [-1, 1]: the endpoints and
    the zeros of P'_{n-1}, weights 2 / (n (n-1) P_{n-1}(x)^2)."""
    c = np.zeros(n)
    c[-1] = 1.0
    x = np.concatenate(([-1.0], np.sort(legendre.legroots(legendre.legder(c))), [1.0]))
    return x, 2.0 / (n * (n - 1) * legendre.legval(x, c) ** 2)


# The pair of rules that `_integrate_segments` compares, on the union of
# their nodes (they share the endpoints) so that one call of the integrand
# serves both.  Rules on interior nodes cannot see a jump close to a
# segment end, and two even orders cannot see one at the centre (both are
# off by the same amount there), so the pair is Gauss-Lobatto of odd and
# even order: for a unit jump anywhere in a segment the two differ by at
# least 4e-3 of its length.
def _rule_pair(orders):
    """Union of the rules' nodes, and one column of weights per rule."""
    rules = [_gauss_lobatto(k) for k in orders]
    nodes = np.unique(np.concatenate([x for x, _ in rules]))
    weights = np.zeros((nodes.size, len(rules)))
    for col, (x, w) in enumerate(rules):
        weights[np.searchsorted(nodes, x), col] = w
    return nodes, weights


_RULE_NODES, _RULE_WEIGHTS = _rule_pair((9, 12))
_SEG_RTOL = 1e-14
_SEG_MAX_ROUNDS = 64


def _integrate_segments(f, a, b):
    """int_a^b f for every segment of the broadcast arrays a, b.

    Each round calls f(x, k) once, on the 19 nodes x of the 9- and
    12-point Gauss-Lobatto rules in every open segment (flattened, 19 per
    segment), with k the index into the flattened a, b of each segment.
    A segment is done when the two rules agree to 1e-14 of the L1 mass of
    the segment it was split from; the others are halved for the next
    round.
    A smooth f takes one round however many segments there are; a kink
    takes about 20 rounds and a jump about 40, as the halves holding it
    shrink until its share of the error is below tolerance.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    lo, hi = a.ravel(), b.ravel()
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)
    scale = None
    for rnd in range(_SEG_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        x = np.multiply.outer(half, _RULE_NODES)
        x += mid[:, None]
        fx = np.asarray(f(x.ravel(), owner), float)
        if fx.size != x.size:
            fx = np.broadcast_to(fx, (x.size,))
        fx = fx.reshape(x.shape)
        del x
        est_lo, est = (fx @ _RULE_WEIGHTS).T * half
        if scale is None:
            scale = np.abs(half) * (np.abs(fx) @ _RULE_WEIGHTS[:, 1])
        done = np.abs(est - est_lo) <= _SEG_RTOL * scale
        if rnd == _SEG_MAX_ROUNDS - 1:
            done[:] = True
        if rnd == 0 and done.all():
            return est.reshape(shape)
        total += np.bincount(owner[done], weights=est[done], minlength=total.size)
        if done.all():
            break
        open_ = ~done
        owner, scale = np.repeat(owner[open_], 2), np.repeat(scale[open_], 2)
        lo, hi, mid = np.repeat(lo[open_], 2), np.repeat(hi[open_], 2), mid[open_]
        lo[1::2] = hi[::2] = mid
    return total.reshape(shape)


def _log_Psi_with_tail(Psi, log_psi, A):
    """log Psi, taking the far-left asymptote Psi ~ psi/|A| where Psi
    underflows to 0."""
    def log_Psi(y):
        y = np.asarray(y, float)
        val = Psi(y)
        with np.errstate(divide="ignore"):
            out = np.atleast_1d(np.asarray(np.log(val)))
        bad = ~np.isfinite(out)
        if np.any(bad):
            yb = np.atleast_1d(y)[bad]
            out[bad] = log_psi(yb) - np.log(np.abs(A(yb)))
        out = out.reshape(np.shape(val))
        return out if out.ndim else float(out)
    return log_Psi


def measure_from_drift(A, domain=(-40.0, 40.0), n=641):
    """InvariantMeasure of the unit-diffusion drift A, by quadrature.

    psi is exp(int A) normalized on `domain`, and Psi its left integral.
    On the n equally spaced nodes y_j of `domain`:

    - log psi(y_j) is the cumulative sum of the panel integrals of A;
      log psi(t) adds the integral of A from the node at or left of t to
      t, so no interpolation error enters;
    - Z is the sum of the panel integrals of psi, over the panels where
      psi is above e^-60 of its peak;
    - Psi(y_j) is the cumulative sum of the panel integrals of psi / Z,
      starting at 0 at the first node where psi/Z exceeds about 1e-300;
      Psi(t) adds the integral of psi / Z from the node left of t.

    Every integral comes from `_integrate_segments`, which adapts to kinks
    and jumps of A (sign, Abs, clamped tables) without being told where
    they are.  So a query costs a fixed number of vectorized calls of A,
    however many points it holds: two for a smooth A.  `A` must accept
    numpy arrays.

    Accuracy: log psi is within a few 1e-14 absolute, and Psi within a
    few 1e-14 relative, of the exact integrals on `domain`.  On the nodes
    of `HGrid()` it matches the exact OU, tanh (Psi = 1/(1 + e^{-2y}) for
    A = -2 tanh y) and dry-friction forms to about 5e-14 in log psi and
    log Psi, also with the kink between nodes.  The exceptions are these:
    - Psi treats the mass left of the 1e-300 cutoff as 0.
    - Where Psi underflows, log Psi is the far-left asymptote
      log psi - log|A|.
    - Queries outside `domain` read its end nodes: log psi of the end
      node, and Psi of 0 or the total mass.
    Warns when the total mass differs from 1 by more than 1e-6.
    """
    y = np.linspace(domain[0], domain[1], n)
    A_at = lambda x, _: A(x)
    lp_u = np.concatenate(([0.0], np.cumsum(_integrate_segments(A_at, y[:-1], y[1:]))))
    lp_u -= lp_u.max()
    # psi on panel j is integrated as exp(shift_j + int_{y_j} A) times
    # exp(top_j): the large part of log psi stays out of the integrand, so
    # rounding it does not make the two rules disagree
    top = np.maximum(lp_u[:-1], lp_u[1:])
    shift = lp_u[:-1] - top

    def panel(t, side="right"):
        # index of the node left of t (or at t, for side="right"), and t
        # clamped to the domain
        tc = np.minimum(np.maximum(t, y[0]), y[-1])
        return np.minimum(np.maximum(np.searchsorted(y, tc, side=side) - 1, 0), n - 1), tc

    def _log_psi_u(t):
        j, tc = panel(np.asarray(t, float))
        return lp_u[j] + _integrate_segments(A_at, y[j], tc)

    def psi_integral(j, t):
        """int_{y_j}^t psi_u / exp(top_j), for t in panel j."""
        def integrand(x, k):
            jk = np.repeat(j[k], _RULE_NODES.size)
            return np.exp(shift[jk] + _integrate_segments(A_at, y[jk], x))
        return _integrate_segments(integrand, y[j], t)

    def panel_mass(j, block=64):
        # a block of panels at a time: the nested integrals evaluate A at
        # 361 points per panel, and one call for all panels would add
        # several MB to the peak memory of building a measure
        out = np.empty(j.size)
        for s in range(0, j.size, block):
            jb = j[s:s + block]
            with np.errstate(under="ignore"):
                out[s:s + block] = np.exp(top[jb]) * psi_integral(jb, y[jb + 1])
        return out

    # Z from the panels where psi is above e^-60 of its peak (the rest add
    # below 1e-26 relative)
    mass = np.zeros(n - 1)
    core = np.flatnonzero(top > -60.0)
    mass[core] = panel_mass(core)
    Z = mass.sum()
    log_Z = np.log(Z)

    def log_psi(t):
        out = np.asarray(_log_psi_u(t) - log_Z)
        return out if out.ndim else float(out)

    # cumulative at nodes, from the cutoff where psi < 1e-300, adding the
    # tail panels up to where psi/Z underflows
    start = int(np.argmax(lp_u - log_Z > -690.0))
    tail = np.flatnonzero((top <= -60.0) & (top - log_Z > -745.0)
                          & (np.arange(n - 1) >= start))
    mass[tail] = panel_mass(tail)
    Psi_nodes = np.zeros(n)
    Psi_nodes[start + 1:] = np.cumsum(mass[start:]) / Z
    total = Psi_nodes[-1]
    if abs(total - 1.0) > 1e-6:
        warnings.warn(f"invariant measure normalization off by {total - 1.0:.2e}")

    def Psi(t):
        t = np.asarray(t, float)
        out = np.where(t <= y[0], 0.0, total)
        inside = (t > y[0]) & (t < y[-1])
        if np.any(inside):
            # a node y_k reads Psi_{k-1} plus its panel, which is Psi_k but
            # for nodes up to the cutoff, where Psi_k = 0
            j, tc = panel(t[inside], side="left")
            with np.errstate(under="ignore"):
                seg = np.exp(top[j] - log_Z) * psi_integral(j, tc)
            out[inside] = Psi_nodes[j] + seg
        return out if out.ndim else float(out)

    return InvariantMeasure(psi=lambda t: np.exp(log_psi(t)), Psi=Psi,
                            log_psi=log_psi,
                            log_Psi=_log_Psi_with_tail(Psi, log_psi, A))


# ----------------------------------------------------------------------
# Lamperti reduction
# ----------------------------------------------------------------------

def lamperti(spec: SdeSpec, n=2001) -> ForceField:
    """Reduce dX = mu_X dt + sigma_X dW to unit-diffusion form.

    With y(x) = int sqrt(2 kappa)/sigma_X and Ito's lemma,

        A(y) = sqrt(2/kappa) * (mu_X/sigma_X - sigma_X'/2) at x = x(y).

    The monotone map x -> y is built by cumulative quadrature on
    `spec.x_range` and inverted with a monotone interpolant.
    """
    a, b = spec.x_range
    x = np.linspace(a, b, n)
    sig = np.asarray(spec.sigma_X(x), float)
    if np.any(sig <= 0):
        raise InputError("sigma_X must be positive on the configured interval")
    dy_dx = np.sqrt(2.0 * spec.kappa) / sig
    yx = integrate.cumulative_simpson(dy_dx, x=x, initial=0.0)
    yx -= yx[n // 2]
    x_of_y = PchipInterpolator(yx, x, extrapolate=False)

    if spec.sigma_X_prime is not None:
        sig_prime = spec.sigma_X_prime
    else:
        def sig_prime(t, _h=1e-6 * max(1.0, abs(b - a))):
            return (spec.sigma_X(t + _h) - spec.sigma_X(t - _h)) / (2 * _h)

    def drift_y(t):
        xx = np.asarray(spec.mu_X(t), float) / np.asarray(spec.sigma_X(t), float)
        return np.sqrt(2.0 / spec.kappa) * (xx - 0.5 * np.asarray(sig_prime(t), float))

    def A(yv):
        yv = np.asarray(yv, float)
        xv = x_of_y(np.clip(yv, yx[0], yx[-1]))
        return drift_y(xv)

    def A_prime(yv, _h=1e-5):
        yv = np.asarray(yv, float)
        return (A(yv + _h) - A(yv - _h)) / (2 * _h)

    return ForceField(A, A_prime, kappa=spec.kappa, label="lamperti")


# ----------------------------------------------------------------------
# regularity classification
# ----------------------------------------------------------------------

def _trend_to_infinity(vals, growth=1.1):
    """True/False/None for  'sequence increases without bound'."""
    v = np.asarray(vals, float)
    if np.any(~np.isfinite(v)):
        return bool(np.all(np.isinf(v[~np.isfinite(v)])))
    if not np.all(np.diff(v) > 0):
        return False
    ratio = v[-1] / max(v[-2], 1e-300)
    if ratio >= growth and v[-1] > 1.0:
        return True
    if ratio < 1.02:                  # flatlined: converging to a finite limit
        return False
    return None


def _trend_to_zero(vals, tol=0.05):
    v = np.abs(np.asarray(vals, float))
    if np.all(np.diff(v) < 0) and v[-1] < tol:
        return True
    if v[-1] > v[0] and v[-1] > tol:
        return False
    return True if v[-1] < tol else None


def classify(ff: ForceField, im: InvariantMeasure,
             sample_points=(20.0, 40.0, 80.0)) -> ClassificationFlags:
    """Sample -y*A(y), A'/A and A'/A^2 at large |y| and report the class
    flags.  Purely heuristic (monotone trends at three sample points);
    downstream algorithms only warn when a flag is False or None.
    """
    pts = np.asarray(sample_points, float)

    # S_minus:  -y A(y) -> +infinity as y -> -infinity
    s_minus = _trend_to_infinity(pts * np.asarray(ff.A(-pts), float))

    # S_plus_star:  same blow-up at +infinity plus A'/A -> 0, A'/A^2 -> 0
    grow = _trend_to_infinity(-pts * np.asarray(ff.A(pts), float))
    if grow is False:
        s_plus_star = False
    else:
        Ap = np.asarray(ff.A_prime(pts), float)
        Av = np.asarray(ff.A(pts), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = _trend_to_zero(np.where(Av != 0, Ap / Av, 0.0))
            r2 = _trend_to_zero(np.where(Av != 0, Ap / Av**2, 0.0))
        if grow is True and r1 is True and r2 is True:
            s_plus_star = True
        elif r1 is False or r2 is False:
            s_plus_star = False
        else:
            s_plus_star = None

    # completely absorbing: liminf_{y->-inf} A >= 0 and A bounded below
    left = np.asarray(ff.A(-pts), float)
    probe = np.linspace(-pts[-1], pts[-1], 321)
    bounded = np.all(np.isfinite(ff.A(probe)))
    if np.all(left >= -1e-9) and bounded:
        absorbing = True
    elif np.all(left < -1e-9) or not bounded:
        absorbing = False
    else:
        absorbing = None

    return ClassificationFlags(s_minus, s_plus_star, absorbing)


# ----------------------------------------------------------------------
# JSON field loading
# ----------------------------------------------------------------------

def load_field(source):
    """Load a (ForceField, InvariantMeasure) pair from a JSON spec.

    Accepts a dict, a JSON string, or a path.  Formats:

      {"type": "builtin", "name": "ou", ...params}
      {"type": "table", "y": [...], "A": [...], "domain": [lo, hi]}
      {"type": "expr", "A": "-y - 0.1*sin(y)", "domain": [lo, hi]}

    Tabulated drifts use monotone-cubic interpolation in y, clamped to the
    end values outside the table.  Expression drifts are parsed with sympy
    so the derivative is exact.
    """
    if isinstance(source, dict):
        spec = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            spec = json.loads(text)
        else:
            with open(text) as fh:
                spec = json.load(fh)

    kind = spec.get("type")
    if kind == "builtin":
        params = {k: v for k, v in spec.items() if k not in ("type", "name")}
        return builtin(spec["name"], **params)

    if kind == "table":
        ynod = np.asarray(spec["y"], float)
        Anod = np.asarray(spec["A"], float)
        if ynod.ndim != 1 or ynod.shape != Anod.shape or len(ynod) < 4:
            raise InputError("table field needs matching 1-d 'y' and 'A' (>= 4 points)")
        if np.any(np.diff(ynod) <= 0):
            raise InputError("table 'y' values must be strictly increasing")
        interp = PchipInterpolator(ynod, Anod, extrapolate=False)
        dinterp = interp.derivative()

        def A(t):
            t = np.asarray(t, float)
            return np.asarray(np.where(t <= ynod[0], Anod[0],
                              np.where(t >= ynod[-1], Anod[-1],
                                       interp(np.clip(t, ynod[0], ynod[-1])))))

        def A_prime(t):
            t = np.asarray(t, float)
            inside = (t > ynod[0]) & (t < ynod[-1])
            return np.asarray(np.where(inside, dinterp(np.clip(t, ynod[0], ynod[-1])), 0.0))

        dom = tuple(spec.get("domain", (ynod[0] - 20.0, ynod[-1] + 20.0)))
        ff = ForceField(A, A_prime, kappa=spec.get("kappa", 1.0), label="table")
        return ff, measure_from_drift(A, domain=dom)

    if kind == "expr":
        import sympy

        yvar = sympy.symbols("y")
        expr = sympy.sympify(spec["A"])
        if expr.free_symbols - {yvar}:
            raise InputError("expr field may only use the variable 'y'")
        A_fn = sympy.lambdify(yvar, expr, "numpy")
        Ap_fn = sympy.lambdify(yvar, sympy.diff(expr, yvar), "numpy")

        def elementwise(fn):
            def f(t):
                t = np.asarray(t, float)
                if not t.ndim:
                    return float(fn(t))
                out = np.asarray(fn(t), float)
                # a constant expression returns a scalar, and "y" returns t
                if out.shape != t.shape or out is t:
                    out = np.broadcast_to(out, t.shape).copy()
                return out
            return f

        A, A_prime = elementwise(A_fn), elementwise(Ap_fn)

        dom = tuple(spec.get("domain", (-40.0, 40.0)))
        ff = ForceField(A, A_prime, kappa=spec.get("kappa", 1.0), label="expr")
        return ff, measure_from_drift(A, domain=dom)

    raise InputError(f"unknown field spec type {spec.get('type')!r}")
