"""Drift fields for unit-diffusion mean-reverting SDEs.

Everything downstream works with the dimensionless form

    dY = A(Y) dtau + sqrt(2) dW,        tau = kappa * t,

so a model is a pair (ForceField, InvariantMeasure) where the invariant
density psi satisfies psi'/psi = A.  A general SDE
dX = mu_X(X) dt + sigma_X(X) dW is reduced to this form by hand: with

    y(x) = int sqrt(2 kappa)/sigma_X(x) dx,
    A(y) = sqrt(2/kappa) * (mu_X/sigma_X - sigma_X'/2)   at x = x(y)

(Ito's lemma), A goes in as an "expr" or "table" field and the start and
barrier are mapped into y with the same y(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional
import json

import numpy as np
from numpy.polynomial import legendre
from scipy import special
from scipy.interpolate import PchipInterpolator

from .errors import InputError, NumericsError

__all__ = [
    "ForceField",
    "InvariantMeasure",
    "builtin",
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

    def __post_init__(self):
        if self.kappa <= 0:
            raise InputError("kappa must be positive")


@dataclass(frozen=True)
class InvariantMeasure:
    """Invariant density psi (psi'/psi = A) and its cumulative Psi, given
    by their logarithms.

    `log_psi` and `log_Psi` are the fields because the h-coefficient
    march needs them far in the left tail where the linear values
    underflow; only `psi` exponentiates.  For non-normalizable fields
    (ABM) psi is kept unnormalized and `normalizable` is False; Psi is
    then just the left integral of psi.  `fisher_theta` carries the
    closed-form Fisher information <A^2> when one is known (built-ins);
    quadrature is used otherwise.
    """

    log_psi: Callable
    log_Psi: Callable
    normalizable: bool = True
    fisher_theta: Optional[float] = None

    def psi(self, y):
        return np.exp(self.log_psi(y))


# ----------------------------------------------------------------------
# built-in model catalogue
# ----------------------------------------------------------------------

def _ou():
    A = lambda y: -np.asarray(y, float)
    A_prime = lambda y: np.full_like(np.asarray(y, float), -1.0)
    im = InvariantMeasure(
        log_psi=lambda y: -0.5 * np.square(np.asarray(y, float)) - LOG_SQRT_2PI,
        log_Psi=lambda y: special.log_ndtr(np.asarray(y, float)),
        fisher_theta=1.0,
    )
    return ForceField(A, A_prime), im


def _dry_friction(mu):
    A = lambda y: -mu * np.sign(np.asarray(y, float))
    # convention for this model: derivative 0 everywhere, including the kink
    A_prime = lambda y: np.zeros_like(np.asarray(y, float))

    def log_psi(y):
        return np.log(mu / 2.0) - mu * np.abs(np.asarray(y, float))

    def log_Psi(y):
        y = np.asarray(y, float)
        left = mu * y - np.log(2.0)
        right = np.log1p(-0.5 * np.exp(-mu * np.abs(y)))
        return np.where(y <= 0, left, right)

    im = InvariantMeasure(log_psi=log_psi, log_Psi=log_Psi,
                          fisher_theta=mu * mu)
    return ForceField(A, A_prime), im


def _tanh_field(amp, gamma):
    """A = -amp*tanh(gamma*y)."""
    p = amp / gamma                     # psi ~ sech(gamma*y)^p
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

    im = InvariantMeasure(log_psi=log_psi,
                          log_Psi=_log_Psi_with_tail(Psi, log_psi, A),
                          fisher_theta=amp * amp * gamma / (amp + gamma))
    return ForceField(A, A_prime), im


def _abm(mu):
    A = lambda y: np.full_like(np.asarray(y, float), mu)
    A_prime = lambda y: np.zeros_like(np.asarray(y, float))
    im = InvariantMeasure(
        log_psi=lambda y: mu * np.asarray(y, float),
        log_Psi=lambda y: mu * np.asarray(y, float) - np.log(mu),
        normalizable=False,
        fisher_theta=0.0,
    )
    return ForceField(A, A_prime), im


def builtin(name, mu=1.0, alpha=2.0, gamma=1.0):
    """Return the (ForceField, InvariantMeasure) pair for a built-in model.

    Parameters
    ----------
    name : {'ou', 'dry_friction', 'tanh', 'abm'}
    mu : drift magnitude for dry_friction / abm (must be > 0)
    alpha, gamma : amplitude and rate of the tanh drift
        A = -alpha*tanh(gamma*y) (both must be > 0)
    """
    if name == "ou":
        return _ou()
    if name == "dry_friction":
        if mu <= 0:
            raise InputError("dry_friction needs mu > 0")
        return _dry_friction(mu)
    if name == "tanh":
        if not (alpha > 0 and gamma > 0):
            raise InputError("tanh field needs alpha, gamma > 0")
        return _tanh_field(alpha, gamma)
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
# Cap on the open segments: this many times the initial count, and at
# least _SEG_MIN_OPEN.  Kinked and jumping drifts keep them within 4x; an
# integrand that is rounding noise would double them every round.
_SEG_MAX_GROWTH = 64
_SEG_MIN_OPEN = 1024


def _integrate_segments(f, a, b, whole=False):
    """int_a^b f for every segment of the arrays a, b of one shape.

    Each round calls f(x, k) once, on the 19 nodes x of the 9- and
    12-point Gauss-Lobatto rules in every open segment (flattened, 19 per
    segment), with k the index into the flattened a, b of each segment.
    A segment is done when the two rules agree to 1e-14 of an L1 mass: in
    the first round its own, later that of its whole integral as the round
    estimates it (finished plus open pieces), so a spike on a first-round
    node cannot inflate the tolerance.  The others are halved.
    A smooth f takes one round however many segments there are; a kink
    takes about 20 rounds and a jump about 40, as the halves holding it
    shrink until its share of the error is below tolerance.

    With `whole`, the segments are panels of one integral, and a segment
    is also done when the rules agree to its share, by width, of 1e-14 of
    the summed first-round L1 mass of all segments.  That absolute floor
    keeps the error of the sum below about 1e-14 of its mass, and ends
    the refinement of panels where f is rounding noise on a negligible
    mass (the tails of A' = 2 tanh(y)^2 - 2 times psi), which a relative
    tolerance alone would halve without end.

    Raises NumericsError when segments are still open after 64 rounds, or
    when the open segments would exceed 64 times the initial count (at
    least 1024): f is then too rough, or too noisy, for the tolerance.
    """
    a, b = np.asarray(a, float), np.asarray(b, float)
    shape = a.shape
    lo, hi = a.ravel(), b.ravel()
    total = np.zeros(lo.size)
    mass = np.zeros(lo.size)          # L1 mass of the finished pieces
    owner = np.arange(lo.size)
    max_open = max(_SEG_MAX_GROWTH * lo.size, _SEG_MIN_OPEN)
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
        l1 = np.abs(half) * (np.abs(fx) @ _RULE_WEIGHTS[:, 1])
        if rnd == 0:
            scale = l1
            if whole:
                floor = _SEG_RTOL * scale.sum() / np.abs(half).sum()
        else:
            scale = (mass + np.bincount(owner, weights=l1,
                                        minlength=mass.size))[owner]
        err = np.abs(est - est_lo)
        done = err <= _SEG_RTOL * scale
        if whole:
            done |= err <= floor * np.abs(half)
        if rnd == 0 and done.all():
            return est.reshape(shape)
        total += np.bincount(owner[done], weights=est[done], minlength=total.size)
        mass += np.bincount(owner[done], weights=l1[done], minlength=mass.size)
        if done.all():
            break
        open_ = ~done
        n_open = int(np.count_nonzero(open_))
        if rnd == _SEG_MAX_ROUNDS - 1 or 2 * n_open > max_open:
            worst = int(np.argmax(err - _SEG_RTOL * scale))
            raise NumericsError(
                f"adaptive quadrature did not converge: {n_open} segments "
                f"still open after round {rnd + 1}, the worst on "
                f"[{lo[worst]:g}, {hi[worst]:g}]; the integrand is too "
                "rough or too noisy for a relative tolerance of 1e-14")
        owner = np.repeat(owner[open_], 2)
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


# equally spaced nodes of `measure_from_drift` on its domain; the default
# domain of a measure, which `density.theta_fisher` also starts from; and
# how far below its peak log psi must be at both ends of the domain
_MEASURE_NODES = 641
_DOMAIN = (-40.0, 40.0)
_END_DROP = 20.0


def measure_from_drift(A, domain=_DOMAIN):
    """InvariantMeasure of the unit-diffusion drift A, by quadrature.

    psi is exp(int A) normalized on `domain` and 0 outside it, and Psi
    its left integral.
    On the n = 641 equally spaced nodes y_j of `domain`:

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
    - Outside `domain` log psi is -inf, and Psi is 0 left of it and the
      total mass right of it.

    The drift must revert: InputError, naming the end, is raised before
    any integral of psi when log psi at either end of `domain` is less
    than 20 below its peak.  Such a psi does not decay there (a constant
    or repelling drift) or decays too slowly for `domain` (-y/(1+y^2)),
    and every value read from it would be set by where the domain is cut.
    Nearest the bound and passing: a `table` of -tanh on [-3, 3] (22.2
    below at the ends of its default domain) and -sign on [-30, 30] (30).
    """
    n = _MEASURE_NODES
    y = np.linspace(domain[0], domain[1], n)
    A_at = lambda x, _: A(x)
    lp_u = np.concatenate(([0.0], np.cumsum(_integrate_segments(A_at, y[:-1], y[1:]))))
    lp_u -= lp_u.max()
    short = [f"{abs(lp_u[k]):.3g} below its peak at the {side} end y = {y[k]:g}"
             for side, k in (("left", 0), ("right", -1)) if lp_u[k] > -_END_DROP]
    if short:
        raise InputError(
            f"log psi is only {' and '.join(short)}, less than "
            f"{_END_DROP:g}: the drift does not revert there, or `domain` "
            "must be wider")
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
        t = np.asarray(t, float)
        out = np.where((t < y[0]) | (t > y[-1]), -np.inf, _log_psi_u(t) - log_Z)
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

    return InvariantMeasure(log_psi=log_psi,
                            log_Psi=_log_Psi_with_tail(Psi, log_psi, A))


# ----------------------------------------------------------------------
# JSON field loading
# ----------------------------------------------------------------------

def load_field(source):
    """Load a (ForceField, InvariantMeasure) pair from a JSON spec.

    Accepts a dict, a JSON string, or a path.  Formats:

      {"type": "table", "y": [...], "A": [...], "domain": [lo, hi]}
      {"type": "expr", "A": "-y - 0.1*sin(y)", "domain": [lo, hi]}

    A builtin model has no spec: `builtin` (the CLI's --model) loads it,
    and its name is what selects its exact rate in `build_model`.

    Tabulated drifts use monotone-cubic interpolation in y, clamped to the
    end values outside the table.  Expression drifts are parsed with sympy
    over a real y so the derivative is exact; the Dirac delta of a jump
    counts as 0 in A', as for dry friction.  An expression whose A or A'
    cannot be evaluated on the domain raises InputError, as do an unknown
    type, a missing key (named), an unreadable path and text that is not
    JSON.
    """
    if isinstance(source, dict):
        spec = source
    else:
        text = str(source)
        inline = text.lstrip().startswith("{")
        where = "inline field spec" if inline else f"field spec {text}"
        try:
            if inline:
                spec = json.loads(text)
            else:
                with open(text) as fh:
                    spec = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {where}: {exc.strerror}") from None
        except ValueError as exc:          # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{where} is not valid JSON: {exc}") from None
        if not isinstance(spec, dict):
            raise InputError(f"{where} is not a JSON object")

    kind = spec.get("type")

    def required(key):
        if key not in spec:
            raise InputError(f"{kind} field spec needs {key!r}")
        return spec[key]

    if kind == "table":
        ynod = np.asarray(required("y"), float)
        Anod = np.asarray(required("A"), float)
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
        ff = ForceField(A, A_prime, kappa=spec.get("kappa", 1.0))
        return ff, measure_from_drift(A, domain=dom)

    if kind == "expr":
        import sympy

        yvar = sympy.Symbol("y", real=True)
        expr = sympy.sympify(required("A"), locals={"y": yvar})
        if expr.free_symbols - {yvar}:
            raise InputError("expr field may only use the variable 'y'")
        dexpr = sympy.diff(expr, yvar).replace(sympy.DiracDelta,
                                               lambda *_: sympy.S.Zero)

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

        dom = tuple(spec.get("domain", _DOMAIN))
        try:
            A = elementwise(sympy.lambdify(yvar, expr, "numpy"))
            A_prime = elementwise(sympy.lambdify(yvar, dexpr, "numpy"))
            # lambdify accepts names that numpy lacks (gamma, erf, zeta);
            # they fail only on the first call with an array
            probe = np.linspace(*dom, 9)
            with np.errstate(all="ignore"):
                A(probe), A_prime(probe)
        except (NotImplementedError, NameError, TypeError, ValueError) as exc:
            raise InputError(f"cannot evaluate A = {expr} or A' = {dexpr} "
                             f"with numpy: {exc}") from exc
        ff = ForceField(A, A_prime, kappa=spec.get("kappa", 1.0))
        return ff, measure_from_drift(A, domain=dom)

    raise InputError(f"unknown field spec type {spec.get('type')!r}")
