"""Numeric Legendre transform of the log moment generating function.

The rate I(x) = sup_t (t x - Lambda(t)) is computed by solving the
stationarity condition Lambda'(t) = x with a safeguarded Newton iteration.
Lambda, Lambda' and Lambda'' come together from one adaptive quadrature
pass over the tilted mass window, never from differencing Lambda, so the
iteration sees smooth derivatives.  A table type holds (x, I, t*) on a
log-spaced grid together with its duality and derivative residual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import PerturbedDensity
from .errors import Divergent, DomainError, NoConvergence, NoRoot
from .quadrature import log_moment_integrals, mass_window

_NEWTON_CAP = 200
# Wide enough that every diagnostic point of interest solves; Weibull k=3
# at x=20 already needs a tilt near 1.2e3.
_BRACKET_LIMIT = 1e4


def _tilt_tol(x: float) -> float:
    """Residual |Lambda'(t) - x| at which a tilt solve for mean x stops."""
    return 1e-8 * max(1.0, abs(x))


def _tilted_ell(model: PerturbedDensity, t: float):
    def ell(xs: np.ndarray) -> np.ndarray:
        return t * xs + model.log_c + model._log_kernel(xs)

    return ell


def _tilted_stats(model: PerturbedDensity, t: float) -> tuple[float, float, float]:
    """(Lambda(t), Lambda'(t), Lambda''(t)) from one quadrature pass."""
    ell = _tilted_ell(model, t)
    lo, hi, peak = mass_window(ell, 0.0, 8.0)
    lam, mean, second = log_moment_integrals(ell, lo, hi, peak_hint=peak)
    var = second - mean * mean
    if var <= 0.0:
        raise NoConvergence(f"tilted variance {var:g} not positive at t={t:g}")
    return lam, mean, var


def log_mgf(model: PerturbedDensity, t: float) -> float:
    """Lambda(t) = log E exp(tX), from the quadrature pass of _tilted_stats.

    Raises Divergent when the tilted integrand refuses to decay under
    window doubling, which is how a linear-exponent model at t >= 1
    announces an infinite MGF.
    """
    return _tilted_stats(model, float(t))[0]


def _solve_tilt(model: PerturbedDensity, x: float,
                t_guess: float | None = None) -> tuple[float, float]:
    """Solve Lambda'(t) = x; returns (t*, Lambda(t*)).

    Safeguarded Newton: the bracket [t_lo, t_hi] is maintained from the
    monotonicity of Lambda', Newton steps landing outside it are replaced
    by bisection.  A Divergent evaluation during bracketing caps the
    upper end instead of aborting, so linear-exponent models still solve
    for means reachable below the divergence threshold.
    """
    tol = _tilt_tol(x)
    ex = model.mean
    if abs(x - ex) <= tol:
        return 0.0, 0.0

    stats_cache: dict[float, tuple[float, float, float]] = {}

    def stats(t: float) -> tuple[float, float, float]:
        if t not in stats_cache:
            stats_cache[t] = _tilted_stats(model, t)
        return stats_cache[t]

    # Bracket the root of Lambda'(t) - x.
    if x > ex:
        t_lo, f_lo = 0.0, ex - x
        t_hi = abs(t_guess) if t_guess else 0.25
        hard_hi = math.inf
        while True:
            if t_hi >= hard_hi:
                t_hi = 0.5 * (t_lo + hard_hi)
            try:
                _, mean, _ = stats(t_hi)
            except Divergent:
                hard_hi = t_hi
                continue
            if mean >= x:
                f_hi = mean - x
                break
            t_lo, f_lo = t_hi, mean - x
            if math.isinf(hard_hi):
                if t_hi >= _BRACKET_LIMIT:
                    raise NoRoot(
                        f"no tilt with mean {x:g} found for t up to {_BRACKET_LIMIT:g}"
                    )
                t_hi *= 2.0
            else:
                if hard_hi - t_lo < 1e-13 * max(1.0, hard_hi):
                    raise NoRoot(
                        f"tilted mean stays below {x:g} up to the MGF divergence point"
                    )
                t_hi = 0.5 * (t_lo + hard_hi)
    else:
        t_hi, f_hi = 0.0, ex - x
        t_lo = -(abs(t_guess) if t_guess else 0.25)
        while True:
            _, mean, _ = stats(t_lo)
            if mean <= x:
                f_lo = mean - x
                break
            t_hi, f_hi = t_lo, mean - x
            if t_lo <= -_BRACKET_LIMIT:
                raise NoRoot(f"no tilt with mean {x:g} found for t down to -{_BRACKET_LIMIT:g}")
            t_lo *= 2.0

    t = t_lo + (t_hi - t_lo) * f_lo / (f_lo - f_hi) if f_lo != f_hi else 0.5 * (t_lo + t_hi)
    for _ in range(_NEWTON_CAP):
        lam, mean, var = stats(t)
        resid = mean - x
        if abs(resid) <= tol:
            return t, lam
        if resid > 0.0:
            t_hi = t
        else:
            t_lo = t
        step = resid / var
        t_new = t - step
        if not (t_lo < t_new < t_hi):
            t_new = 0.5 * (t_lo + t_hi)
        t = t_new
    raise NoConvergence(f"tilt solve for mean {x:g} stalled at residual {resid:g}")


def cramer_rate(model: PerturbedDensity, x: float,
                t_guess: float | None = None) -> tuple[float, float]:
    """(I(x), t*(x)) with |Lambda'(t*) - x| <= 1e-8 max(1, x)."""
    x = float(x)
    if x <= 0.0:
        raise DomainError("rate is defined only above the support infimum 0")
    t_star, lam = _solve_tilt(model, x, t_guess)
    if t_star == 0.0:
        return 0.0, 0.0
    value = t_star * x - lam
    if value < 0.0:
        if value < -1e-10 * max(1.0, abs(lam)):
            raise NoConvergence(f"negative rate {value:g} at x={x:g}")
        value = 0.0
    return value, t_star


def tail_equivalence(model: PerturbedDensity, x: float) -> float:
    """Diagnostic ratio (-log P(X > x)) / I(x); approaches 1 far in the tail."""
    value, _ = cramer_rate(model, x)
    if value <= 0.0:
        raise DomainError("tail equivalence needs x strictly above the mean")
    return -model.log_tail(x) / value


@dataclass(frozen=True)
class CramerRate:
    """Tabulated rate function on [EX, x_max].

    Nodes are log-spaced from 1.05 EX upward, with the exact anchor
    (EX, 0, 0) prepended; EX is the model's own ``mean``.
    """

    model: PerturbedDensity
    x: np.ndarray
    I: np.ndarray
    t_star: np.ndarray

    @classmethod
    def build(cls, model: PerturbedDensity, x_max: float,
              points: int = 128) -> "CramerRate":
        ex = model.mean
        lo = 1.05 * ex
        if x_max <= lo * 1.01:
            raise DomainError("x_max must sit clearly above 1.05 EX")
        if points < 8:
            raise DomainError("table needs at least 8 nodes")
        grid = np.geomspace(lo, x_max, points)
        rates = np.empty(points)
        tilts = np.empty(points)
        guess = None
        for i, xv in enumerate(grid):
            rates[i], tilts[i] = cramer_rate(model, float(xv), t_guess=guess)
            guess = tilts[i]
        table = cls(
            model=model,
            x=np.concatenate([[ex], grid]),
            I=np.concatenate([[0.0], rates]),
            t_star=np.concatenate([[0.0], tilts]),
        )
        table.validate()
        return table

    def validate(self) -> None:
        slopes = np.diff(self.I) / np.diff(self.x)
        if np.any(np.diff(slopes) < -1e-8):
            raise NoConvergence("rate table lost convexity")
        if np.any(self.I < 0.0):
            raise NoConvergence("rate table produced a negative rate")
        if np.any(np.diff(self.t_star) < 0.0):
            raise NoConvergence("tilt column is not nondecreasing")

    def duality_residuals(self) -> tuple[float, float]:
        """(max value residual, max gradient residual) over the log nodes.

        Value residual: |t* x - Lambda(t*) - I| / max(1, I) with Lambda
        freshly integrated.  Gradient residual: |Lambda'(t*) - x| / max(1, x).
        """
        value_worst = 0.0
        grad_worst = 0.0
        for xv, rate, tilt in zip(self.x[1:], self.I[1:], self.t_star[1:]):
            lam, mean, _ = _tilted_stats(self.model, float(tilt))
            value_worst = max(value_worst,
                              abs(tilt * xv - lam - rate) / max(1.0, abs(rate)))
            grad_worst = max(grad_worst, abs(mean - xv) / max(1.0, abs(xv)))
        return value_worst, grad_worst

    def derivative_residual(self) -> float:
        """max |dI/dx - t*| / max(1, t*) over interior nodes, with dI/dx
        taken from the cubic spline through (x, I)."""
        from scipy.interpolate import CubicSpline

        xs = self.x[1:-1]
        deriv = CubicSpline(self.x, self.I).derivative()(xs)
        ref = self.t_star[1:-1]
        return float(np.max(np.abs(deriv - ref) / np.maximum(1.0, np.abs(ref))))
