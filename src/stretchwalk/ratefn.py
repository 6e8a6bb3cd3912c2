"""Numeric Legendre transform of the log moment generating function.

The rate I(x) = sup_t (t x - Lambda(t)) is computed by solving the
stationarity condition Lambda'(t) = x with one safeguarded Newton loop
started at t = 0, where Lambda'(0) and Lambda''(0) are the model's own mean
and variance.  Lambda, Lambda' and Lambda'' come together from one
adaptive quadrature pass over the tilted mass window, never from
differencing Lambda, so the iteration sees smooth derivatives.  A table
type holds (x, I, t*) on a log-spaced grid together with its duality and
derivative residual checks.
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
    """(Lambda(t), Lambda'(t), Lambda''(t)) from one quadrature pass; Divergent
    where the MGF is infinite (a linear exponent at t >= 1)."""
    ell = _tilted_ell(model, t)
    lo, hi, peak = mass_window(ell, 0.0, 8.0)
    lam, mean, second = log_moment_integrals(ell, lo, hi, peak_hint=peak)
    var = second - mean * mean
    if var <= 0.0:
        raise NoConvergence(f"tilted variance {var:g} not positive at t={t:g}")
    return lam, mean, var


def _solve_tilt(model: PerturbedDensity, x: float) -> tuple[float, float, float]:
    """Solve Lambda'(t) = x; returns (t*, Lambda(t*), Lambda'(t*)) from its last pass.

    One safeguarded Newton loop from t = 0, where Lambda'(0) = EX and
    Lambda''(0) = Var X are the model's own ``mean`` and ``variance``.  The
    bracket starts as (0, inf) or (-inf, 0) on the side of x, and every
    iterate narrows it by the sign of Lambda'(t) - x.  A Newton step that
    leaves the bracket becomes a bisection; a step is clamped to
    +-_BRACKET_LIMIT, and the solve fails once Lambda' there still falls
    short of x.  A Divergent evaluation becomes the bracket's upper end, so
    linear-exponent models still solve for means reachable below the
    divergence threshold.
    """
    tol = _tilt_tol(x)
    t, lam, mean, var = 0.0, 0.0, model.mean, model.variance
    t_lo, t_hi = (0.0, math.inf) if x > mean else (-math.inf, 0.0)
    for _ in range(_NEWTON_CAP):
        resid = mean - x
        if abs(resid) <= tol:
            return t, lam, mean
        if resid > 0.0:
            t_hi = t
        else:
            t_lo = t
        if t_lo >= _BRACKET_LIMIT or t_hi <= -_BRACKET_LIMIT:
            raise NoRoot(f"no tilt with mean {x:g} found for |t| up to {_BRACKET_LIMIT:g}")
        t_new = min(max(t - resid / var, -_BRACKET_LIMIT), _BRACKET_LIMIT)
        t = t_new if t_lo < t_new < t_hi else 0.5 * (t_lo + t_hi)
        try:
            lam, mean, var = _tilted_stats(model, t)
        except Divergent:
            if t - t_lo < 1e-13 * max(1.0, t):
                raise NoRoot(
                    f"tilted mean stays below {x:g} up to the MGF divergence point"
                ) from None
            # An infinite mean caps the bracket at t, and the next step bisects.
            mean = math.inf
    raise NoConvergence(f"tilt solve for mean {x:g} stalled at residual {resid:g}")


def cramer_rate(model: PerturbedDensity, x: float) -> tuple[float, float]:
    """(I(x), t*(x)) with |Lambda'(t*) - x| <= 1e-8 max(1, x)."""
    return _rate_point(model, x)[:2]


def _rate_point(model: PerturbedDensity, x: float) -> tuple[float, float, float, float]:
    """(I(x), t*(x), Lambda(t*), Lambda'(t*)), the last two as the solve left them."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"rate needs a finite x above the support infimum 0, got {x!r}")
    t_star, lam, mean = _solve_tilt(model, x)
    if t_star == 0.0:
        return 0.0, 0.0, lam, mean
    value = t_star * x - lam
    if value < 0.0:
        if value < -1e-10 * max(1.0, abs(lam)):
            raise NoConvergence(f"negative rate {value:g} at x={x:g}")
        value = 0.0
    return value, t_star, lam, mean


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
    (EX, 0, 0) prepended; EX is the model's own ``mean``.  ``log_mgf`` and
    ``tilted_mean`` hold Lambda(t*) and Lambda'(t*) from each node's solve.
    """

    model: PerturbedDensity
    x: np.ndarray
    I: np.ndarray
    t_star: np.ndarray
    log_mgf: np.ndarray
    tilted_mean: np.ndarray

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
        rows = np.array([(0.0, 0.0, 0.0, ex)] + [_rate_point(model, xv) for xv in grid])
        table = cls(model, np.concatenate([[ex], grid]), *rows.T)
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
        """(max value residual, max gradient residual) over the log nodes:
        |t* x - Lambda(t*) - I| / max(1, I) and |Lambda'(t*) - x| / max(1, x),
        with Lambda and Lambda' from each node's solve.  Both restate the
        solve; the independent checks are the unit closed form,
        ``derivative_residual`` and tail equivalence.
        """
        x, rate, tilt = self.x[1:], self.I[1:], self.t_star[1:]
        value = np.abs(tilt * x - self.log_mgf[1:] - rate) / np.maximum(1.0, np.abs(rate))
        grad = np.abs(self.tilted_mean[1:] - x) / np.maximum(1.0, np.abs(x))
        return float(value.max()), float(grad.max())

    def derivative_residual(self) -> float:
        """max |dI/dx - t*| / max(1, t*) over interior nodes, with dI/dx
        taken from the cubic spline through (x, I)."""
        from scipy.interpolate import CubicSpline

        xs = self.x[1:-1]
        deriv = CubicSpline(self.x, self.I).derivative()(xs)
        ref = self.t_star[1:-1]
        return float(np.max(np.abs(deriv - ref) / np.maximum(1.0, np.abs(ref))))
