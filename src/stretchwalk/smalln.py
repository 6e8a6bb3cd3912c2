"""Exact sum probabilities for two- and three-step walks.

At n = 2 or 3 the events {S_n >= n a} and {all steps in the band, S_n >=
n a} are low-dimensional enough to integrate directly, entirely in the
log domain so that values at the e^-30 scale keep full relative accuracy.
These numbers anchor the certified bounds and the samplers at desk scale,
where nothing asymptotic can hide.

The survival function is tabulated once per model by a right-to-left
cumulative trapezoid over a quarter-million-point grid (positive panels
summed smallest-first, so deep-tail values keep relative accuracy), and
every integral is a composite Gauss-Legendre sum over the interpolated
integrand, split at its kinks.  Nothing here nests adaptive quadrature.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import PchipInterpolator

from .density import PerturbedDensity
from .errors import DomainError
from .quadrature import gauss_legendre

Array = np.ndarray

_SMALL_N = (2, 3)
_SURVIVAL_POINTS = 262_145
_PANELS = 32


def _check_n(n: int) -> None:
    if n not in _SMALL_N:
        raise DomainError("exact integration covers n = 2 and n = 3 only")


def _log_quad(ell, lo: float, hi: float, breakpoints=()) -> float:
    """log of the integral of exp(ell) over [lo, hi].

    ``ell`` must accept arrays and may return -inf.  The domain is split
    at the breakpoints and each piece integrated by composite 16-point
    Gauss-Legendre over 32 panels; the max of ell over all nodes
    serves as the stabilising shift.
    """
    if hi <= lo:
        return -math.inf
    cuts = sorted({lo, hi, *(p for p in breakpoints if lo < p < hi)})
    edges = [np.linspace(s_lo, s_hi, _PANELS + 1) for s_lo, s_hi in zip(cuts[:-1], cuts[1:])]
    xs, ws = gauss_legendre(np.concatenate([e[:-1] for e in edges]),
                            np.concatenate([e[1:] for e in edges]))
    xs, ws = xs.ravel(), ws.ravel()
    vals = np.asarray(ell(xs), dtype=float)
    shift = float(np.max(vals))
    if not math.isfinite(shift):
        return -math.inf
    total = float(np.sum(ws * np.exp(vals - shift)))
    if total <= 0.0:
        return -math.inf
    return shift + math.log(total)


def _log_pdf(model: PerturbedDensity, x: Array) -> Array:
    return model.log_c + model._log_kernel(np.asarray(x, dtype=float))


class _LogTable:
    """Vectorised log-values by PCHIP through finite nodes, clipped to them:
    ``left_value`` at or below ``left_edge`` and -inf past the last node."""

    def __init__(self, nodes: Array, log_values: Array, left_edge: float, left_value: float):
        self._x0, self._x1 = float(nodes[0]), float(nodes[-1])
        self._left_edge, self._left_value = left_edge, left_value
        self._interp = PchipInterpolator(nodes, log_values, extrapolate=False)

    def __call__(self, t) -> Array:
        t = np.asarray(t, dtype=float)
        out = np.asarray(self._interp(np.clip(t, self._x0, self._x1)), dtype=float)
        out = np.where(t <= self._left_edge, self._left_value, out)
        return np.where(t > self._x1, -np.inf, out)


def _finite_nodes(nodes: Array, log_values: Array) -> tuple[Array, Array] | None:
    """The nodes with finite log-values; None (probability 0) when none is."""
    finite = np.isfinite(log_values)
    if not np.any(finite):
        return None
    return nodes[finite], log_values[finite]


class _LogSurvival(_LogTable):
    """Vectorised log P(X >= t) from one cumulative pass over the density."""

    def __init__(self, model: PerturbedDensity):
        cap = model.support_cap
        xs = np.linspace(0.0, cap, _SURVIVAL_POINTS)
        xs[0] = cap * 1e-12
        pdf = np.exp(_log_pdf(model, xs))
        panels = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(xs)
        tail = np.concatenate([np.cumsum(panels[::-1])[::-1], [0.0]])
        keep = tail > 0.0
        super().__init__(xs[keep], np.log(tail[keep]), float(xs[keep][0]), 0.0)


def _survival(model: PerturbedDensity) -> _LogSurvival:
    return model.derived("survival", lambda: _LogSurvival(model))


def _log1mexp(delta: Array) -> Array:
    """log(1 - exp(delta)) for delta <= 0, -inf at delta == 0."""
    delta = np.asarray(delta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(-np.exp(delta))
    return np.where(delta >= 0.0, -np.inf, out)


def exact_log_prob_exceed(model: PerturbedDensity, n: int, a: float) -> float:
    """log P(S_n >= n a) by direct integration (n in {2, 3})."""
    _check_n(n)
    if a <= 0.0:
        raise DomainError("sum level must be positive")
    cap = model.support_cap
    tail = _survival(model)
    target = float(n) * a

    if n == 2:

        def ell(x: Array) -> Array:
            lp = _log_pdf(model, x)
            need = target - x
            return lp + np.where(need <= 0.0, 0.0, tail(need))

        return _log_quad(ell, 0.0, cap, breakpoints=(target, target - cap))

    t_lo = max(0.0, target - cap)
    t_hi = min(2.0 * cap, target)
    if t_hi <= t_lo:
        return 0.0 if t_hi <= 0.0 else -math.inf
    t_grid = np.linspace(t_lo, t_hi, 513)
    two_tail_vals = np.array(
        [exact_log_prob_exceed(model, 2, float(t) / 2.0) if t > 0.0 else 0.0
         for t in t_grid]
    )
    finite = _finite_nodes(t_grid, two_tail_vals)
    if finite is None:
        return -math.inf
    two_tail = _LogTable(*finite, 0.0, 0.0)

    def ell3(x: Array) -> Array:
        return _log_pdf(model, x) + two_tail(target - x)

    return _log_quad(ell3, 0.0, cap, breakpoints=(target - 2.0 * cap, target))


def exact_log_prob_band(model: PerturbedDensity, n: int, a: float, eps: float) -> float:
    """log P(all steps in (a-eps, a+eps) and S_n >= n a), n in {2, 3}."""
    _check_n(n)
    if eps <= 0.0:
        raise DomainError("band halfwidth must be positive for band probabilities")
    if not 0.0 < a - eps:
        raise DomainError("band must stay positive")
    cap = model.support_cap
    lo_b = a - eps
    hi_b = min(a + eps, cap)
    if lo_b >= hi_b:
        return -math.inf
    tail = _survival(model)
    log_tail_hi = float(tail(hi_b))

    def band_tail(t: Array) -> Array:
        """log P(X in band and X >= t), vectorised over t."""
        t_eff = np.maximum(np.asarray(t, dtype=float), lo_b)
        upper = tail(t_eff)
        if log_tail_hi == -math.inf:
            diff = upper
        else:
            diff = upper + _log1mexp(log_tail_hi - upper)
        return np.where(t_eff >= hi_b, -np.inf, diff)

    target = float(n) * a

    if n == 2:

        def ell(x: Array) -> Array:
            x = np.asarray(x, dtype=float)
            inside = (x > lo_b) & (x < hi_b)
            vals = _log_pdf(model, x) + band_tail(target - x)
            return np.where(inside, vals, -np.inf)

        return _log_quad(ell, lo_b, hi_b)

    t_grid = np.linspace(2.0 * lo_b, 2.0 * hi_b, 513)

    def two_band_tail_at(t: float) -> float:
        def inner(y: Array) -> Array:
            y = np.asarray(y, dtype=float)
            inside = (y > lo_b) & (y < hi_b)
            vals = _log_pdf(model, y) + band_tail(t - y)
            return np.where(inside, vals, -np.inf)

        return _log_quad(inner, lo_b, hi_b, breakpoints=(t - lo_b, t - hi_b))

    vals = np.array([two_band_tail_at(float(t)) for t in t_grid])
    finite = _finite_nodes(t_grid, vals)
    if finite is None:
        return -math.inf
    two_band = _LogTable(*finite, 2.0 * lo_b, float(finite[1][0]))

    def ell3(x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        inside = (x > lo_b) & (x < hi_b)
        vals3 = _log_pdf(model, x) + two_band(target - x)
        return np.where(inside, vals3, -np.inf)

    return _log_quad(ell3, lo_b, hi_b)


def exact_log_prob_escape(model: PerturbedDensity, n: int, a: float,
                          eps: float) -> float:
    """log P(some step leaves the band and S_n >= n a) = log(P(C) - P(I, C)).

    Computed as a log-domain difference; accurate while the conditional
    band mass stays away from 1 by more than about 1e-12.
    """
    log_c = exact_log_prob_exceed(model, n, a)
    log_band = exact_log_prob_band(model, n, a, eps)
    if log_band == -math.inf:
        return log_c
    if log_band >= log_c:
        return -math.inf
    return log_c + float(_log1mexp(log_band - log_c))


def exact_localization(model: PerturbedDensity, n: int, a: float,
                       eps: float) -> float:
    """P(all steps in the band | S_n >= n a), n in {2, 3}."""
    log_c = exact_log_prob_exceed(model, n, a)
    if log_c == -math.inf:
        raise DomainError("conditioning event has zero probability")
    log_band = exact_log_prob_band(model, n, a, eps)
    return float(math.exp(min(log_band - log_c, 0.0)))
