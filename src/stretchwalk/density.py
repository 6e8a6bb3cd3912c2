"""Step-distribution models: densities c * exp(-(g + q)) on (0, inf).

The exponent g is superlinear and convex (power x**beta, pure exponential
exp(x), Weibull-type x**k - (k-1) log x, or a tabulated curve); q is an
optional bounded perturbation controlled by an envelope M with
|q| <= M and M(x) <= N * log g(x) beyond a threshold y0.

Two numerical themes run through the module:

* every integral is computed with a peak shift so exponents of order 1e4
  never overflow, and
* differences of g at nearby points (the "gap" family) are computed by
  series or expm1/log1p forms rather than naive subtraction, because the
  admissibility checks evaluate them at points where the naive form loses
  every significant digit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable, Hashable

import numpy as np

from .errors import InvalidModel, NonIntegrable, OutOfSupport
from .quadrature import first_reach, log_integral, log_moment_integrals, mass_window

Array = np.ndarray

# Bump in g beyond its minimum at which the support is truncated; the mass
# beyond the cap is below exp(-100) of the total and is checked at build time.
SUPPORT_CAP_RISE = 100.0
# The first point of the open support (0, inf): every tilted window, step-law
# table, pair half-table and survival grid starts here, not at 0, where the
# log-density is -inf.
FIRST_POSITIVE = np.nextafter(0.0, 1.0)

_SERIES_TERMS = 12
_SERIES_SWITCH = 0.01


class ExponentModel:
    """Base class for the convex exponent g.

    Subclasses provide a vectorised ``g``, a stable ``log_g``, a stable
    finite difference ``gap`` and the derivatives of every order in
    ``derivative``, which ``dg`` and ``d2g`` evaluate on arrays.
    ``increase_threshold`` is the point beyond which g is increasing.
    """

    kind: str = "abstract"
    # Whether g is convex on all of (0, inf) and ``symmetric_gap`` is
    # implemented: then every pair law p(u) p(s - u) of the pure model is
    # log-concave, and ``sampler.gibbs_fixed_sum`` draws it exactly.
    log_concave_pairs: bool = False

    @property
    def increase_threshold(self) -> float:
        raise NotImplementedError

    def g(self, x: Array) -> Array:
        raise NotImplementedError

    def dg(self, x: Array) -> Array:
        return self.derivative(1, np.asarray(x, dtype=float))

    def d2g(self, x: Array) -> Array:
        return self.derivative(2, np.asarray(x, dtype=float))

    def log_g(self, x: Array) -> Array:
        """log(g(x)) computed without forming g when g would overflow."""
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.g(x))

    def derivative(self, order: int, x: float | Array) -> float | Array:
        """d^order g / dx^order, elementwise on an array.  ``dg`` and ``d2g``
        pass it arrays and the band-gap series Python floats, so each keeps
        its own arithmetic: numpy's and Python's pow and exp differ in the
        last bit on a few percent of inputs."""
        raise NotImplementedError

    def gap(self, x: float, delta: float) -> float:
        """g(x + delta) - g(x), stable for |delta| << x."""
        raise NotImplementedError

    def symmetric_gap(self, x: Array, d: Array) -> Array:
        """g(x + d) + g(x - d) - 2 g(x) for 0 <= d < x, elementwise on
        broadcast float arrays: the pair exponent about its midpoint, which
        vanishes to second order in d, in a form that does not cancel.  It
        overflows to inf where it is that large; callers that reach d = x
        or such values silence numpy's warnings."""
        raise NotImplementedError

    def _gap_series_scale(self, x: float, delta: float) -> float:
        """Dimensionless smallness measure deciding series vs direct."""
        return abs(delta) / x

    def band_gaps(self, a: float, eps: float, n: int) -> tuple[float, float]:
        """Return (F1 - n g(a), F2 - n g(a)) for the two band-exit profiles

            F1 = g(a+eps) + (n-1) g(a - eps/(n-1))
            F2 = g(a-eps) + (n-1) g(a + eps/(n-1))

        Both differences vanish to first order in eps, so for small eps/a
        they are evaluated by a Taylor series in eps using exact higher
        derivatives; otherwise by pairs of stable single gaps.
        """
        if eps == 0.0:
            return 0.0, 0.0
        m = n - 1
        if self._gap_series_scale(a, eps) < _SERIES_SWITCH:
            gap1 = 0.0
            gap2 = 0.0
            eps_pow = eps
            factorial = 1.0
            for j in range(2, _SERIES_TERMS + 1):
                eps_pow *= eps
                factorial *= j
                dj = self.derivative(j, a)
                if dj == 0.0:
                    continue
                term = dj * eps_pow / factorial
                sgn = -1.0 if j % 2 else 1.0
                mpow = float(m) ** (j - 1)
                gap1 += term * (1.0 + sgn / mpow)
                gap2 += term * (sgn + 1.0 / mpow)
                if abs(term) < 1e-18 * max(abs(gap1), abs(gap2)):
                    break
            return gap1, gap2
        gap1 = self.gap(a, eps) + m * self.gap(a, -eps / m)
        gap2 = self.gap(a, -eps) + m * self.gap(a, eps / m)
        return gap1, gap2

    def validate(self) -> None:
        """Probe convexity and monotone growth beyond the threshold."""
        X = self.increase_threshold
        lo = max(X, 1e-6)
        grid = np.linspace(lo + 1e-9, X + 50.0, 4001)
        with np.errstate(over="ignore", invalid="ignore"):
            d2, d1 = self.d2g(grid), self.dg(grid[1:])
        if not (np.all(np.isfinite(d2)) and np.all(np.isfinite(d1))):
            raise InvalidModel(f"{self.kind} exponent overflows its validation probes "
                               f"on ({lo:g}, {X + 50.0:g}]")
        if np.any(d2 < -1e-9):
            raise InvalidModel(f"{self.kind} exponent fails the convexity probe")
        # Growth is probed where g' is a normal float: near 0 a steep power's
        # g' = beta x^(beta - 1) underflows to 0 although g increases.
        d1 = d1[np.abs(d1) >= np.finfo(float).tiny]
        if d1.size == 0 or np.any(d1 < 0.0):
            raise InvalidModel(
                f"{self.kind} exponent is not increasing beyond its threshold"
            )


def _even_binomials(beta: float) -> tuple[float, ...] | None:
    """2 C(beta, j) for the even j from 2 to beta, highest j first, when beta
    is an integer up to ``_SERIES_TERMS``: then (1 + r)^beta + (1 - r)^beta - 2
    is exactly their polynomial in r^2, times r^2.  None for any other beta."""
    if not (beta.is_integer() and beta <= _SERIES_TERMS):
        return None
    # beta = 1 gives the zero polynomial: a linear g has no gap.
    return tuple(2.0 * math.comb(int(beta), j) for j in range(int(beta) // 2 * 2, 1, -2)) or (0.0,)


def _power_symmetric_gap(beta: float, coefs: tuple[float, ...] | None, x: Array,
                         d: Array) -> Array:
    """(x + d)^beta + (x - d)^beta - 2 x^beta for 0 <= d < x.

    This is x^beta times (1 + r)^beta + (1 - r)^beta - 2 with r = d / x.
    For an integer beta up to ``_SERIES_TERMS`` that bracket is the even
    polynomial ``coefs`` in r, whose terms are all positive.  For any other
    beta, with P = (beta/2) log1p(-r^2) and Q = (beta/2) atanh(r), it is
    2 (e^P cosh 2Q - 1) = 4 e^P sinh(Q)^2 + 2 expm1(P): P and Q are exact to
    rounding at every r, and the two terms, about beta^2 r^2 and -beta r^2
    at small r, cancel by at most a factor beta / (beta - 1).  Neither form
    needs a switch.
    """
    r = d / x
    if coefs is not None:
        r *= r
        q = coefs[0] * r
        for c in coefs[1:]:
            q += c
            q *= r
    else:
        p = r * r
        np.negative(p, out=p)
        np.log1p(p, out=p)
        p *= 0.5 * beta
        q = np.sinh(np.arctanh(r) * (0.5 * beta))
        q *= q
        q *= np.exp(p)
        q += 0.5 * np.expm1(p)
        q *= 4.0
    q *= x**beta
    return q


class PowerExponent(ExponentModel):
    """g(x) = x**beta with beta >= 1.

    beta = 1 (pure exponential step) sits on the boundary of the theory and
    is admitted for reference runs; its moment transform diverges for
    t >= 1, which ``mass_window`` reports by raising ``Divergent``.
    """

    kind = "power"
    log_concave_pairs = True

    def __init__(self, beta: float):
        if not (math.isfinite(beta) and beta >= 1.0):
            raise InvalidModel(f"power exponent requires finite beta >= 1, got {beta!r}")
        self.beta = float(beta)
        self._even_coefs = _even_binomials(self.beta)
        self.validate()

    @property
    def increase_threshold(self) -> float:
        return 0.0

    def g(self, x: Array) -> Array:
        return np.asarray(x, dtype=float) ** self.beta

    def log_g(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return self.beta * np.log(x)

    def derivative(self, order: int, x: float | Array) -> float | Array:
        coef = 1.0
        for i in range(order):
            coef *= self.beta - i
        if coef == 0.0:
            return np.zeros_like(x) if isinstance(x, np.ndarray) else 0.0
        return coef * x ** (self.beta - order)

    def gap(self, x: float, delta: float) -> float:
        if x + delta <= 0.0:
            raise OutOfSupport("gap endpoint left the support")
        return x**self.beta * math.expm1(self.beta * math.log1p(delta / x))

    def symmetric_gap(self, x: Array, d: Array) -> Array:
        return _power_symmetric_gap(self.beta, self._even_coefs, x, d)

    def __repr__(self) -> str:
        return f"PowerExponent(beta={self.beta})"


class ExpExponent(ExponentModel):
    """g(x) = exp(x)."""

    kind = "exp"
    log_concave_pairs = True

    def __init__(self):
        self.validate()

    @property
    def increase_threshold(self) -> float:
        return 0.0

    def g(self, x: Array) -> Array:
        return np.exp(np.asarray(x, dtype=float))

    dg = d2g = g

    def log_g(self, x: Array) -> Array:
        return np.asarray(x, dtype=float)

    def derivative(self, order: int, x: float) -> float:
        return math.exp(x)

    def _gap_series_scale(self, x: float, delta: float) -> float:
        # The natural expansion variable is delta itself, not delta/x.
        return abs(delta)

    def gap(self, x: float, delta: float) -> float:
        return math.exp(x) * math.expm1(delta)

    def symmetric_gap(self, x: Array, d: Array) -> Array:
        # e^x (e^d + e^-d - 2) = e^x (2 sinh(d/2))^2: no cancellation at
        # any d, so no series is needed.
        q = np.sinh(0.5 * d)
        q *= q
        q *= 4.0 * np.exp(x)
        return q

    def __repr__(self) -> str:
        return "ExpExponent()"


class WeibullExponent(ExponentModel):
    """g(x) = x**k - (k-1) log x with k > 2.

    With normalisation c = k this is the Weibull(k) step density; g is
    convex on all of (0, inf) and increasing beyond ((k-1)/k)**(1/k).
    """

    kind = "weibull"
    log_concave_pairs = True

    def __init__(self, k: float):
        if not (math.isfinite(k) and k > 2.0):
            raise InvalidModel(f"weibull exponent requires finite k > 2, got {k!r}")
        self.k = float(k)
        self._even_coefs = _even_binomials(self.k)
        self.validate()

    @property
    def increase_threshold(self) -> float:
        return ((self.k - 1.0) / self.k) ** (1.0 / self.k)

    def g(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return x**self.k - (self.k - 1.0) * np.log(x)

    def log_g(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        t = self.k * np.log(x)
        small = t < 700.0
        out = np.empty_like(t)
        with np.errstate(divide="ignore", over="ignore"):
            out[small] = np.log(self.g(x[small]))
        # Beyond overflow the log correction is below double precision.
        out[~small] = t[~small]
        return out

    def derivative(self, order: int, x: float | Array) -> float | Array:
        coef = 1.0
        for i in range(order):
            coef *= self.k - i
        power_part = coef * x ** (self.k - order) if coef != 0.0 else 0.0
        sgn = -1.0 if order % 2 else 1.0
        log_part = (self.k - 1.0) * sgn * math.factorial(order - 1) / x**order
        return power_part + log_part

    def gap(self, x: float, delta: float) -> float:
        if x + delta <= 0.0:
            raise OutOfSupport("gap endpoint left the support")
        lr = math.log1p(delta / x)
        return x**self.k * math.expm1(self.k * lr) - (self.k - 1.0) * lr

    def symmetric_gap(self, x: Array, d: Array) -> Array:
        # The log terms give -(k - 1) log1p(-r^2) with r = d / x, which is
        # positive and does not cancel.
        r = d / x
        return (_power_symmetric_gap(self.k, self._even_coefs, x, d)
                - (self.k - 1.0) * np.log1p(-r * r))

    def __repr__(self) -> str:
        return f"WeibullExponent(k={self.k})"


class TabulatedExponent(ExponentModel):
    """Exponent given on a user grid; derivatives by central differences.

    Values between nodes come from monotone cubic interpolation.  The series
    machinery only has second-order information here, so extreme small-gap
    regimes are outside this kind's remit; the validation probes still hold
    it to the same convexity standard.
    """

    kind = "tabulated"

    def __init__(self, x: Array, gvals: Array):
        x = np.asarray(x, dtype=float)
        gvals = np.asarray(gvals, dtype=float)
        if x.ndim != 1 or x.size < 8 or np.any(np.diff(x) <= 0.0):
            raise InvalidModel("tabulated exponent needs an increasing grid of >= 8 points")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(gvals))):
            raise InvalidModel("tabulated grid and values must be finite")
        if np.any(x <= 0.0):
            raise InvalidModel("tabulated grid must lie in (0, inf)")
        from scipy.interpolate import PchipInterpolator

        self.x_grid = x
        self.g_grid = gvals
        self._interp = PchipInterpolator(x, gvals, extrapolate=True)
        dg = np.gradient(gvals, x)
        self._d2_grid = np.gradient(dg, x)
        self._dinterp = PchipInterpolator(x, dg, extrapolate=True)
        # Steps above this go to direct differences of g, which are fine down
        # to the grid spacing; smaller ones to the two-term series.
        self._direct_delta = 1e-3 * float(np.min(np.diff(x)))
        # Increase threshold: first node from which g never decreases again.
        dec = np.flatnonzero(np.diff(gvals) < 0.0)
        self._X = float(x[dec[-1] + 1]) if dec.size else float(x[0])
        self.validate()

    def validate(self) -> None:
        scale = max(1.0, float(np.max(np.abs(self.g_grid))))
        mask = self.x_grid >= self._X
        if np.any(self._d2_grid[mask] < -1e-6 * scale):
            raise InvalidModel("tabulated exponent fails the convexity probe")
        if np.any(np.diff(self.g_grid[mask]) < 0.0):
            raise InvalidModel("tabulated exponent decreases beyond its threshold")

    @property
    def increase_threshold(self) -> float:
        return self._X

    def g(self, x: Array) -> Array:
        return np.asarray(self._interp(np.asarray(x, dtype=float)), dtype=float)

    def dg(self, x: Array) -> Array:
        return np.asarray(self._dinterp(np.asarray(x, dtype=float)), dtype=float)

    def d2g(self, x: Array) -> Array:
        return np.asarray(np.interp(np.asarray(x, dtype=float), self.x_grid, self._d2_grid),
                          dtype=float)

    def derivative(self, order: int, x: float) -> float:
        if order == 1:
            return float(self.dg(np.array([x]))[0])
        if order == 2:
            return float(self.d2g(np.array([x]))[0])
        return 0.0

    def _gap_series_scale(self, x: float, delta: float) -> float:
        return _SERIES_SWITCH * (2.0 if abs(delta) > self._direct_delta else 0.5)

    def gap(self, x: float, delta: float) -> float:
        if abs(delta) > self._direct_delta:
            return float(self.g(np.array([x + delta]))[0] - self.g(np.array([x]))[0])
        d1 = self.derivative(1, x)
        d2 = self.derivative(2, x)
        return d1 * delta + 0.5 * d2 * delta * delta

    def __repr__(self) -> str:
        return f"TabulatedExponent(points={self.x_grid.size})"


@dataclass
class Perturbation:
    """Bounded exponent perturbation q with envelope M, scale N, threshold y0.

    Contract: |q(x)| <= M(x) everywhere and M(x) <= N log g(x) for x >= y0.
    Both are spot-checked on probe grids when a density is built.  ``kinks``
    lists the points where q is not smooth, kept ascending and each once;
    quadrature puts a panel end at each (see
    ``quadrature.log_moment_integrals``).
    """

    q: Callable[[Array], Array]
    M: Callable[[Array], Array]
    N: float
    y0: float
    name: str = "custom"
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        self.kinks = tuple(sorted(set(map(float, self.kinks))))


def _solve_log_g_level(exponent: ExponentModel, level: float) -> float:
    """Smallest x beyond the increase threshold with log g(x) >= level."""
    lo = max(exponent.increase_threshold, 1e-6)
    x = first_reach(exponent.log_g, lo, max(2.0 * lo, 1.0), level, 200)
    if math.isinf(x):
        raise InvalidModel("log g never reaches the requested level")
    return x


def _level_crossings(f: Callable[[Array], Array], lo: float, hi: float,
                     levels: tuple[float, ...]) -> tuple[float, ...]:
    """Points of (lo, hi) where f crosses one of ``levels``: the sign changes
    of f - level on a 4,097-point grid, each resolved by ``first_reach`` (a
    falling crossing as a rise of -f), in increasing order."""
    xs = np.linspace(lo, hi, 4097)
    fx = np.asarray(f(xs), dtype=float)
    found = []
    for level in levels:
        above = fx >= level
        for i in np.flatnonzero(above[1:] != above[:-1]):
            if above[i + 1]:
                found.append(first_reach(f, xs[i], xs[i + 1], level, 1))
            else:
                found.append(first_reach(lambda v: -f(v), xs[i], xs[i + 1], -level, 1))
    return tuple(sorted(found))


def sin_perturbation(exponent: ExponentModel) -> Perturbation:
    """Reference oscillatory perturbation q = 0.5 sin(x) min(1, log g)+.

    The envelope is M(x) = clip(log g(x), 0, 1): the raw min(1, log g) dips
    negative where g < 1, which no valid envelope may do, so it is clamped
    at zero (q vanishes there too).  N = 1 and y0 solves log g = 1, making
    M <= N log g automatic beyond y0.  q has a kink wherever log g crosses
    0 or 1; beyond y0, where g no longer decreases, log g stays above 1.
    """
    def M(x: Array) -> Array:
        return np.clip(exponent.log_g(np.asarray(x, dtype=float)), 0.0, 1.0)

    def q(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sin(x) * M(x)

    y0 = _solve_log_g_level(exponent, 1.0)
    kinks = _level_crossings(exponent.log_g, 1e-6, 2.0 * y0, (0.0, 1.0))
    return Perturbation(q=q, M=M, N=1.0, y0=y0, name="sin(lambda=0.5)", kinks=kinks)


def _tabulated_perturbation(exponent: ExponentModel, x: Array, qvals: Array) -> Perturbation:
    from scipy.interpolate import PchipInterpolator

    interp = PchipInterpolator(x, qvals, extrapolate=False)
    bound = float(np.max(np.abs(qvals))) + 1e-12

    def q(xs: Array) -> Array:
        xs = np.asarray(xs, dtype=float)
        out = np.asarray(interp(xs), dtype=float)
        return np.where(np.isnan(out), 0.0, out)

    def M(xs: Array) -> Array:
        return np.full_like(np.asarray(xs, dtype=float), bound)

    y0 = _solve_log_g_level(exponent, bound)
    # q is zero outside the grid, so it may jump at either end.
    return Perturbation(q=q, M=M, N=1.0, y0=y0, name="tabulated",
                        kinks=(float(x[0]), float(x[-1])))


@dataclass
class PerturbedDensity:
    """Normalised density c * exp(-(g + q)) on (0, support_cap].

    Instances are immutable after construction and safe to share across
    threads.  The one mutable part is ``_derived``, a memo of deterministic
    values other modules compute from the model on first use (see
    ``derived``): the ``smalln`` survival table and one
    ``sampler.TiltedLaw`` per target mean a, which at a = ``mean`` is the
    plain law that every unconditioned draw comes from.
    """

    exponent: ExponentModel
    perturbation: Perturbation | None = None
    label: str = ""
    c: float = field(init=False, default=float("nan"))
    log_c: float = field(init=False, default=float("nan"))
    support_cap: float = field(init=False, default=float("nan"))
    mean: float = field(init=False, default=float("nan"))
    variance: float = field(init=False, default=float("nan"))
    third_cumulant: float = field(init=False, default=float("nan"))
    _derived: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.label:
            base = repr(self.exponent)
            self.label = base if self.perturbation is None else f"{base}+{self.perturbation.name}"
        self._validate_perturbation()
        self._normalize()

    def derived(self, key: Hashable, compute: Callable[[], object]):
        """``compute()``, memoised on this model under ``key``."""
        if key not in self._derived:
            self._derived[key] = compute()
        return self._derived[key]

    # -- structure ---------------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.perturbation is None

    @property
    def kinks(self) -> tuple[float, ...]:
        """Points where the log-density is not smooth: the perturbation's."""
        return () if self.perturbation is None else self.perturbation.kinks

    def q(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        if self.perturbation is None:
            return np.zeros_like(x)
        return np.asarray(self.perturbation.q(x), dtype=float)

    def exponent_value(self, x: Array) -> Array:
        """g(x) + q(x); g(x) alone for a pure model."""
        return self.exponent.g(x) if self.is_pure else self.exponent.g(x) + self.q(x)

    def _log_kernel(self, x: Array) -> Array:
        """log of the unnormalised density, -inf off the support."""
        x = np.asarray(x, dtype=float)
        pos = x > 0.0
        if pos.all():
            return -self.exponent_value(x)
        out = np.full_like(x, -np.inf)
        if np.any(pos):
            out[pos] = -self.exponent_value(x[pos])
        return out

    def _validate_perturbation(self) -> None:
        from .errors import EnvelopeViolated

        p = self.perturbation
        if p is None:
            return
        if not p.N > 0.0:
            raise InvalidModel("envelope scale N must be positive")
        X = self.exponent.increase_threshold
        probes = np.linspace(max(1e-6, X / 10.0), X + 50.0, 4001)
        qv = np.asarray(p.q(probes), dtype=float)
        Mv = np.asarray(p.M(probes), dtype=float)
        if np.any(np.abs(qv) > Mv + 1e-9):
            raise EnvelopeViolated("|q| exceeds its envelope M on the probe grid")
        if np.any(Mv < -1e-12):
            raise EnvelopeViolated("envelope M must be nonnegative")
        beyond = probes >= p.y0
        cap = p.N * self.exponent.log_g(probes[beyond])
        if np.any(Mv[beyond] > cap + 1e-9):
            raise EnvelopeViolated("M exceeds N log g beyond y0")

    # -- normalisation -----------------------------------------------------

    def _normalize(self) -> None:
        exp_model = self.exponent
        X = exp_model.increase_threshold
        probe = np.linspace(max(1e-9, X * 1e-3), max(4.0 * (X + 1.0), 8.0), 4097)
        gvals = exp_model.g(probe)
        mode_g = float(np.min(gvals))
        target = mode_g + SUPPORT_CAP_RISE
        hi = float(probe[-1])
        self.support_cap = first_reach(exp_model.g, float(probe[np.argmin(gvals)]), hi,
                                       target, math.floor(math.log2(1e12 / hi)) + 1)
        if math.isinf(self.support_cap):
            raise NonIntegrable("exponent never rises enough to truncate the support")

        mass, self.mean, var, self.third_cumulant = log_moment_integrals(
            self._log_kernel, 0.0, self.support_cap, kinks=self.kinks)
        self.log_c = -mass
        self.c = math.exp(self.log_c)
        self.variance = max(var, 0.0)
        self._check_tail(mass)

    def _check_tail(self, log_mass: float) -> None:
        cap = self.support_cap
        t1 = self._log_mass_on(cap, 2.0 * cap)
        t2 = self._log_mass_on(2.0 * cap, 4.0 * cap)
        if not (t1 - log_mass < math.log(1e-12)):
            raise NonIntegrable("truncated tail mass is not negligible")
        if not (t2 < t1):
            raise NonIntegrable("tail mass fails to decrease under cap doubling")

    def _log_mass_on(self, lo: float, hi: float) -> float:
        """log of the kernel's integral over [lo, hi], taken on its mass
        window there: past the support cap a steep exponent (power beta = 20)
        leaves all of it in a sliver at lo that panels on [lo, hi] miss."""
        w_lo, w_hi, peak = mass_window(self._log_kernel, lo, hi)
        return log_integral(self._log_kernel, w_lo, min(w_hi, hi), peak_hint=peak,
                            kinks=self.kinks)

    # -- evaluation --------------------------------------------------------

    def log_tail(self, x: float) -> float:
        """log P(X > x); shift-stabilised so deep tails stay finite.

        The integration window tracks x instead of stopping at the
        support cap, so tails far beyond it (where the mass is e.g.
        exp(-8000)) still come back accurate.
        """
        if x <= 0.0:
            return 0.0
        _, hi, peak = mass_window(self._log_kernel, x, max(2.0 * x, x + 8.0))
        return self.log_c + log_integral(self._log_kernel, x, hi, peak_hint=peak,
                                         kinks=self.kinks)


# -- construction helpers ---------------------------------------------------


def pure_density(exponent: ExponentModel) -> PerturbedDensity:
    return PerturbedDensity(exponent=exponent)


def sin_perturbed_density(exponent: ExponentModel) -> PerturbedDensity:
    return PerturbedDensity(exponent=exponent, perturbation=sin_perturbation(exponent))


def load_tabulated_csv(path: str) -> tuple[TabulatedExponent, Perturbation | None]:
    """Read a (x, g[, q]) CSV into a tabulated exponent and optional q."""
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidModel(f"cannot read tabulated CSV {path!r}: {exc}") from None
    if data.shape[1] < 2:
        raise InvalidModel("tabulated CSV needs at least columns x,g")
    exponent = TabulatedExponent(data[:, 0], data[:, 1])
    pert = None
    if data.shape[1] >= 3 and np.any(data[:, 2] != 0.0):
        pert = _tabulated_perturbation(exponent, data[:, 0], data[:, 2])
    return exponent, pert


# -- model specs --------------------------------------------------------------

# The keys each spec kind takes; every one is required, exactly once.
_SPEC_KEYS = {"power": ("beta",), "weibull": ("k",), "exp": (), "tabulated": ("path",)}
_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _split_spec(text: str, kinds: tuple[str, ...]) -> tuple[str, dict[str, str], bool]:
    """(kind, {key: value}, sin suffix) of "<kind>[:key=value,...][/sin]".

    Strict: the kind must be one of ``kinds``, its keys must be exactly
    those of _SPEC_KEYS, no value may be empty, and nothing else may follow.
    """
    if not isinstance(text, str):
        raise InvalidModel(f"model spec must be a string, got {text!r}")
    body, sin = (text[: -len("/sin")], True) if text.endswith("/sin") else (text, False)
    kind, colon, rest = body.partition(":")
    if kind not in kinds:
        raise InvalidModel(f"unknown model kind {kind!r} in {text!r}; kinds: "
                           + ", ".join(kinds))
    params: dict[str, str] = {}
    for item in rest.split(",") if colon else ():
        key, eq, value = item.partition("=")
        if not (key and eq and value):
            raise InvalidModel(f"malformed entry {item!r} in {text!r}; expected key=value")
        if key in params:
            raise InvalidModel(f"duplicate key {key!r} in {text!r}")
        params[key] = value
    expected = _SPEC_KEYS[kind]
    if set(params) != set(expected):
        want = ", ".join(f"{k}=..." for k in expected) or "no keys"
        raise InvalidModel(f"{kind} takes {want}; got {text!r}")
    return kind, params, sin


def _exponent_from(kind: str, params: dict[str, str], text: str) -> ExponentModel:
    if kind == "exp":
        return ExpExponent()
    (value,) = params.values()
    if not _NUMBER.fullmatch(value):
        raise InvalidModel(f"{value!r} in {text!r} is not a number")
    return {"power": PowerExponent, "weibull": WeibullExponent}[kind](float(value))


def parse_exponent(text: str) -> ExponentModel:
    """Parse an exponent spec: "power:beta=B", "weibull:k=K" or "exp".

    Every malformed spec raises InvalidModel.
    """
    kind, params, sin = _split_spec(text, ("power", "weibull", "exp"))
    if sin:
        raise InvalidModel(f"{text!r} names a perturbed model; an exponent spec takes no /sin")
    return _exponent_from(kind, params, text)


def parse_model(text: str) -> PerturbedDensity:
    """Parse a model spec: an exponent spec or "tabulated:path=FILE",
    optionally followed by "/sin" for the sin-perturbed variant, e.g.

        power:beta=3/sin
        weibull:k=3
        exp
        tabulated:path=steps.csv

    A q column in a tabulated file is part of that model, so such a file
    takes no /sin.  Every malformed spec raises InvalidModel.
    """
    kind, params, sin = _split_spec(text, ("power", "weibull", "exp", "tabulated"))
    file_pert: Perturbation | None = None
    if kind == "tabulated":
        exponent, file_pert = load_tabulated_csv(params["path"])
    else:
        exponent = _exponent_from(kind, params, text)
    if not sin:
        return PerturbedDensity(exponent=exponent, perturbation=file_pert)
    if file_pert is not None:
        raise InvalidModel(f"{text!r}: the tabulated file already carries a perturbation")
    return sin_perturbed_density(exponent)
