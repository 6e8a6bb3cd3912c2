"""Numeric Legendre transform of the log moment generating function.

The rate I(x) = sup_t (t x - Lambda(t)) is computed by solving the
stationarity condition Lambda'(t) = x with one safeguarded Halley loop
started at t = 0, where Lambda'(0), Lambda''(0) and Lambda'''(0) are the
model's own mean, variance and third cumulant.  Lambda and its first three
derivatives come together from one adaptive quadrature pass over the
tilted mass window, never from differencing Lambda, so the iteration sees
smooth derivatives.  A table type holds (x, I, t*) on a log-spaced grid
together with its duality and derivative residual checks.

The layer is row-wise.  Many means are solved at once: each keeps its own
Halley loop and bracket, and one pass a step integrates the tilts of all
live rows, through one row-wise ``mass_window`` and one row-wise
``log_moment_integrals``.  A row leaves the batch once it settles, and
every row equals its one-row solve bit for bit.  Every solve enters
through ``_rate_points``: ``CramerRate.build`` with all its nodes,
``cramer_rate`` and ``sampler.tilted_law`` (which takes t* and Lambda(t*)
from it) with one row.  A batch fails as its lowest-numbered failing row
would fail alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import FIRST_POSITIVE, PerturbedDensity
from .errors import (Divergent, DomainError, NoConvergence, NoRoot, StretchwalkError,
                     raise_first, require_counts)
from .quadrature import log_moment_integrals, mass_window

_STEP_CAP = 200
# The tilt bracket for mean x is +-max(_BRACKET_FLOOR, _BRACKET_SCALE
# max(|g'(x)|, 1/x)); see _bracket_limit.  Weibull k=3 at x=20 already
# needs a tilt near 1.2e3.
_BRACKET_FLOOR = 1e4
_BRACKET_SCALE = 4.0


def _tilt_tol(x: float) -> float:
    """Residual |Lambda'(t) - x| at which a tilt solve for mean x stops."""
    return 1e-8 * max(1.0, abs(x))


def _bracket_limit(model: PerturbedDensity, x: float) -> float:
    """Largest |t| the solve for mean x tries: _BRACKET_FLOOR, raised to
    _BRACKET_SCALE max(|g'(x)|, 1/x) where that is larger.

    The floor does not depend on the model's shape, and it covers means
    whose tilt has nothing to do with g'(x): a nearly flat density that
    ends in a steep wall, such as power beta = 20, needs t* near
    1 / (wall - x) where g'(x) is about 1.  Far in the tail the tilted law
    is a narrow peak at its mode m, where g'(m) = t, so t* is close to
    g'(x) (t* = 3 x^2 = g'(x) to four digits for the cubic at x = 58) and
    outgrows any fixed floor.  Towards 0 the tilted mean of a density that
    behaves like x^k there is (k + 1) / |t|, so t* is near -(k + 1) / x.
    A non-finite g'(x), as for ``exp`` past x = 709, leaves no bracket and
    raises NoRoot.
    """
    with np.errstate(over="ignore"):
        slope = abs(float(model.exponent.dg(x)))
    if not math.isfinite(slope):
        raise NoRoot(f"g'(x) is not finite at x={x:g}, so no tilt bracket can be set")
    return max(_BRACKET_FLOOR, _BRACKET_SCALE * max(slope, 1.0 / x))


def _tilted_ell(model: PerturbedDensity, t: float | np.ndarray):
    """log of the density tilted by t, up to Lambda(t): ``ell(xs)`` for one
    tilt, ``ell(xs, rows)`` in the row convention of ``mass_window`` for an
    array of tilts, row i of xs tilted by ``t[rows[i]]``."""
    if np.ndim(t) == 0:
        def ell(xs: np.ndarray) -> np.ndarray:
            return t * xs + model.log_c + model._log_kernel(xs)
    else:
        # One tilt multiplies every row alike, with no gather a call.
        one = t[0] if t.size == 1 else None

        def ell(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
            tilt = t[rows, None] if one is None else one
            return tilt * xs + model.log_c + model._log_kernel(xs)

    return ell


def _tilted_stats(model: PerturbedDensity, t: float | np.ndarray, failed: dict | None = None):
    """(Lambda(t), Lambda'(t), Lambda''(t), Lambda'''(t)) from one quadrature
    pass, the last the tilted law's third central moment; Divergent where
    the MGF is infinite (a linear exponent at t >= 1).

    For an array of tilts the four values are arrays, from one row-wise
    window search and one row-wise quadrature, and row k equals the call
    at ``t[k]`` bit for bit.  A failing row holds NaN, and its exception
    goes into ``failed`` under k, where given; without ``failed`` the call
    raises the exception of the lowest-numbered failing row."""
    batched = np.ndim(t) > 0
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    errors: dict = {}
    ell = _tilted_ell(model, ts)
    lo, hi, peak = mass_window(ell, np.full(ts.size, FIRST_POSITIVE), 8.0, errors)
    if errors:
        # Rows whose window diverged sit out the quadrature.
        ok = np.setdiff1d(np.arange(ts.size), list(errors))
        stats = np.full((4, ts.size), np.nan)
        if ok.size:
            part: dict = {}
            stats[:, ok] = log_moment_integrals(lambda xs, rows: ell(xs, ok[rows]), lo[ok], hi[ok],
                                                peak[ok], model.kinks, part)
            errors.update((int(ok[k]), e) for k, e in part.items())
        lam, mean, var, third = stats
    else:
        lam, mean, var, third = log_moment_integrals(ell, lo, hi, peak, model.kinks, errors)
    bad = var <= 0.0
    if np.count_nonzero(bad):
        for k in np.flatnonzero(bad):
            errors[int(k)] = NoConvergence(f"tilted variance {var[k]:g} not positive at t={ts[k]:g}")
    if failed is None or not batched:
        raise_first(errors)
    elif errors:
        failed.update(errors)
        var[list(errors)] = np.nan
    if not batched:
        return float(lam[0]), float(mean[0]), float(var[0]), float(third[0])
    return lam, mean, var, third


def _solve_rows(model: PerturbedDensity, means: list[float]) -> tuple[list, dict]:
    """Row-wise tilt solves: every mean runs its own ``_halley_steps``, with
    its own iterate, bracket and limit, the live rows share one
    ``_tilted_stats`` pass a step, and a row leaves the batch once it
    settles.  Returns each row's (t*, Lambda(t*), Lambda'(t*)), None where
    it failed, and the failed rows' exceptions by row.  A Divergent pass
    caps only its own row's bracket."""
    solved: list = [None] * len(means)
    errors: dict = {}
    live: list = []

    def advance(k, steps, reply):
        # Hand a row its pass (or the pass's exception); keep it while it
        # asks for another.
        try:
            t = steps.throw(reply) if isinstance(reply, Exception) else steps.send(reply)
        except StopIteration as stop:
            solved[k] = stop.value
        except StretchwalkError as exc:
            errors[k] = exc
        else:
            live.append((k, steps, t))

    for k, x in enumerate(means):
        advance(k, _halley_steps(model, x), None)
    while live:
        rows, live = live, []
        passed: dict = {}
        stats = _tilted_stats(model, np.array([t for _, _, t in rows]), passed)
        for i, ((k, steps, _), values) in enumerate(zip(rows, zip(*(s.tolist() for s in stats)))):
            advance(k, steps, passed.get(i, values))
    return solved, errors


def _halley_steps(model: PerturbedDensity, x: float):
    """The tilt solve for one mean x, as a generator: it yields each tilt to
    integrate at, is sent that pass's (Lambda, Lambda', Lambda'', Lambda''')
    or has its exception thrown in, and returns (t*, Lambda(t*), Lambda'(t*)).

    One safeguarded Halley loop from t = 0, where Lambda'(0) = EX,
    Lambda''(0) = Var X and Lambda'''(0) are the model's own ``mean``,
    ``variance`` and ``third_cumulant``.  With f = Lambda' - x, each step is
    the Newton step -f / f' divided by 1 - f f'' / (2 f'^2) (Traub,
    *Iterative Methods for the Solution of Equations*, 1964, sec. 5).  It is
    exact on a Moebius f such as the unit exponential's 1 / (1 - t) - x, so
    that model solves in one pass.  Where the divisor is not finite or falls
    below 1/2, which would more than double the Newton step or turn it
    round, the step stays a Newton step.  The bracket starts as (0, inf) or
    (-inf, 0) on the side of x, and every iterate narrows it by the sign of
    f.  A step that leaves the bracket becomes a bisection; a step is
    clamped to +-``_bracket_limit(model, x)``, and the solve fails once
    Lambda' there still falls short of x.  A Divergent evaluation becomes
    the bracket's upper end, so linear-exponent models still solve for
    means reachable below the divergence threshold.
    """
    tol = _tilt_tol(x)
    limit = _bracket_limit(model, x)
    t, lam, mean, var, third = 0.0, 0.0, model.mean, model.variance, model.third_cumulant
    t_lo, t_hi = (0.0, math.inf) if x > mean else (-math.inf, 0.0)
    for _ in range(_STEP_CAP):
        resid = mean - x
        if abs(resid) <= tol:
            return t, lam, mean
        if resid > 0.0:
            t_hi = t
        else:
            t_lo = t
        if t_lo >= limit or t_hi <= -limit:
            raise NoRoot(f"no tilt with mean {x:g} found for |t| up to {limit:g}")
        step = -resid / var
        # 1 - f f'' / (2 f'^2), with f = resid, f' = var and f'' = third.
        factor = 1.0 + 0.5 * step * third / var
        if math.isfinite(factor) and factor >= 0.5:
            step /= factor
        t_new = min(max(t + step, -limit), limit)
        t = t_new if t_lo < t_new < t_hi else 0.5 * (t_lo + t_hi)
        try:
            lam, mean, var, third = yield t
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
    return _rate_points(model, [float(x)])[0][:2]


def _rate_points(model: PerturbedDensity, xs: list[float]) -> list[tuple[float, ...]]:
    """(I(x), t*(x), Lambda(t*), Lambda'(t*)) for each mean in xs, the last
    two as the row-wise solve left them; raises the exception of the
    lowest-numbered failing row."""
    errors: dict = {}
    inside = []
    for k, x in enumerate(xs):
        if 0.0 < x < math.inf:
            inside.append(k)
        else:
            errors[k] = DomainError(f"rate needs a finite x above the support infimum 0, got {x!r}")
    solved, failed = _solve_rows(model, [xs[k] for k in inside])
    rows: list = [None] * len(xs)
    for i, k in enumerate(inside):
        if i in failed:
            errors[k] = failed[i]
            continue
        t_star, lam, mean = solved[i]
        if t_star == 0.0:
            rows[k] = 0.0, 0.0, lam, mean
            continue
        value = t_star * xs[k] - lam
        if value < 0.0:
            if value < -1e-10 * max(1.0, abs(lam)):
                errors[k] = NoConvergence(f"negative rate {value:g} at x={xs[k]:g}")
                continue
            value = 0.0
        rows[k] = value, t_star, lam, mean
    raise_first(errors)
    return rows


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
        require_counts(points=points)
        if points < 8:
            raise DomainError("table needs at least 8 nodes")
        grid = np.geomspace(lo, x_max, points)
        rows = np.array([(0.0, 0.0, 0.0, ex)] + _rate_points(model, grid.tolist()))
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
        taken from the not-a-knot cubic spline through (x, I)."""
        deriv = _spline_slopes(self.x, self.I)[1:-1]
        ref = self.t_star[1:-1]
        return float(np.max(np.abs(deriv - ref) / np.maximum(1.0, np.abs(ref))))


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Slopes at the nodes of the not-a-knot cubic spline through (x, y),
    at least 4 nodes: scipy's ``CubicSpline(x, y).derivative()(x)``.

    Interior rows are the spline's slope equations, continuity of the
    second derivative (de Boor, *A Practical Guide to Splines*, ch. IV);
    the end rows make the third derivative continuous at x[1] and x[-2].
    A rate table has a few hundred nodes at most, so the system is solved
    densely.
    """
    h = np.diff(x)
    d = np.diff(y) / h
    n = x.size
    a = np.zeros((n, n))
    rhs = np.empty(n)
    i = np.arange(1, n - 1)
    a[i, i - 1], a[i, i], a[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[1:-1] = 3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:])
    w0, w1 = x[2] - x[0], x[-1] - x[-3]
    a[0, :2] = h[1], w0
    rhs[0] = ((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0
    a[-1, -2:] = w1, h[-2]
    rhs[-1] = (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
    return np.linalg.solve(a, rhs)
