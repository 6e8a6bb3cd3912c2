"""Vectorised log-space quadrature, the one integration engine of the package.

Integrands are exp(ell(x)) with ell up to +-1e4, so each integral is taken
relative to the largest sampled ell and the shift is added back in log
space.  ``ell`` is only ever called on whole arrays: peaks, mass-window
edges and level crossings are found by nested 65-point grids, and
integrals by a locally adaptive composite 16-point Gauss-Legendre rule
(Davis & Rabinowitz, *Methods of Numerical Integration*) whose every
round yields the mass and the first two moments from one ``ell`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Divergent, NonIntegrable

Array = np.ndarray
LogDensity = Callable[[Array], Array]

# How far below the peak an integrand is treated as numerically zero.
MASS_DROP = 60.0
# mass_window raises Divergent when the integrand has not decayed by here.
_HI_LIMIT = 1e12

# Nested grids shrink their bracket 32-fold a level and stop at this share
# of the searched range; the level cap only binds at float resolution.
_GRID = 65
_ZOOM_STOP = 1e-13
_ZOOM_LEVELS = 16

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_START_PANELS = 4
# A panel settles when its one-panel and two-half estimates agree to _RTOL
# of the total, or to the roundoff floor of exp(ell - shift): ell is only
# accurate to about eps (1 + |shift|).  The panel cap stops an integrand
# that never settles from doubling its panels every round.
_RTOL = 1e-13
_NOISE = 64.0 * np.finfo(float).eps
_PANEL_CAP = 4096


def gauss_legendre(lo: Array, hi: Array) -> tuple[Array, Array]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on each panel
    [lo[i], hi[i]], both of shape (panels, 16)."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def _zoom(ell: LogDensity, lo: float, hi: float, probes: int,
          bracket: Callable[[Array], tuple[int, int]]) -> tuple[Array, Array, int, int]:
    """Nested grids on [lo, hi]: ``bracket(vals)`` names the nodes (i, j)
    whose span holds the target, and each level regrids that span.
    Returns the last grid, its values and (i, j)."""
    xs = np.linspace(lo, hi, probes)
    for _ in range(_ZOOM_LEVELS):
        vals = np.asarray(ell(xs), dtype=float)
        i, j = bracket(vals)
        if xs[j] - xs[i] <= _ZOOM_STOP * (hi - lo):
            break
        xs = np.linspace(xs[i], xs[j], _GRID)
    return xs, vals, i, j


def find_peak(ell: LogDensity, lo: float, hi: float, probes: int = 2048) -> tuple[float, float]:
    """(argmax, max) of ``ell`` on [lo, hi]: a probe grid, then nested-grid polish."""

    def around_max(vals):
        k = int(np.nanargmax(vals))
        return max(k - 1, 0), min(k + 1, vals.size - 1)

    xs, vals, i, j = _zoom(ell, lo, hi, probes, around_max)
    k = i + int(np.nanargmax(vals[i : j + 1]))
    return float(xs[k]), float(vals[k])


def first_reach(f: LogDensity, lo: float, hi_start: float, level: float,
                doublings: int) -> float:
    """Smallest x in [lo, hi] with f(x) >= level (NaN counts as reached),
    where hi is the first of hi_start * 2**m, m < ``doublings``, that
    reaches it.  All doublings are probed in one call and nested grids
    resolve the crossing; returns inf when no doubling reaches the level."""
    his = hi_start * 2.0 ** np.arange(doublings)
    with np.errstate(over="ignore", invalid="ignore"):
        reached = np.flatnonzero(~(np.asarray(f(his), dtype=float) < level))
    if reached.size == 0:
        return math.inf

    def first_reached(vals):
        k = int(np.argmax(~(vals < level)))
        return max(k - 1, 0), k

    xs, _, _, j = _zoom(f, lo, float(his[reached[0]]), _GRID, first_reached)
    return float(xs[j])


def mass_window(ell: LogDensity, lo: float, hi_start: float) -> tuple[float, float, float]:
    """Return (window_lo, window_hi, peak_x) containing all numerically
    relevant mass of exp(ell) on (lo, inf).

    The upper edge grows by doubling until ell falls ``MASS_DROP`` below the
    peak; all doublings up to 1e12 are probed in one call, and failure to
    decay by then raises :class:`Divergent`.
    """
    hi = max(hi_start, lo * 2 + 1.0)
    peak_x, peak = find_peak(ell, lo, hi)
    while True:
        his = hi * 2.0 ** np.arange(max(0, math.ceil(math.log2(_HI_LIMIT / hi))) + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            decayed = np.flatnonzero(np.asarray(ell(his), dtype=float) <= peak - MASS_DROP)
        if decayed.size == 0:
            raise Divergent(
                f"integrand does not decay below peak-{MASS_DROP:g} by x={his[-1]:.3g}")
        if decayed[0] == 0:
            break
        hi = float(his[decayed[0]])
        new_peak_x, new_peak = find_peak(ell, peak_x, hi)
        if new_peak <= peak:
            break
        peak_x, peak = new_peak_x, new_peak

    # Tighten both edges to the last points at or below peak - MASS_DROP.
    def first_above(vals):
        k = int(np.argmax(vals > peak - MASS_DROP))
        return max(k - 1, 0), k

    def last_above(vals):
        k = vals.size - 1 - int(np.argmax(vals[::-1] > peak - MASS_DROP))
        return k, min(k + 1, vals.size - 1)

    xs, _, i, _ = _zoom(ell, lo, peak_x, _GRID, first_above)
    w_lo = float(xs[i])
    xs, _, _, j = _zoom(ell, peak_x, hi, _GRID, last_above)
    return w_lo, float(xs[j]), peak_x


def _moments(x: Array, w: Array, f: Array) -> Array:
    """Per-panel Gauss-Legendre sums of f, x f and x^2 f, shape (panels, 3)."""
    wf = w * f
    wxf = wf * x
    return np.stack([wf.sum(axis=1), wxf.sum(axis=1), (wxf * x).sum(axis=1)], axis=1)


def log_moment_integrals(
    ell: LogDensity,
    lo: float,
    hi: float,
    peak_hint: float | None = None,
) -> tuple[float, float, float]:
    """Return (log m0, m1, m2): log mass plus first two moments of the
    normalised density exp(ell)/m0 on [lo, hi], split at the peak.  All
    three come from the same nodes and shift, so the moment ratios are
    exact."""
    if peak_hint is None:
        peak_hint, _ = find_peak(ell, lo, hi)
    cuts = np.array([lo, peak_hint, hi]) if lo < peak_hint < hi else np.array([lo, hi])
    edges = np.append(np.linspace(cuts[:-1], cuts[1:], _START_PANELS, endpoint=False).T, hi)
    a, b = edges[:-1], edges[1:]
    x, w = gauss_legendre(a, b)
    vals = np.asarray(ell(np.append(x.ravel(), peak_hint)), dtype=float)
    shift = float(np.max(vals))
    if not math.isfinite(shift):
        raise NonIntegrable("integrand has no finite maximum on the window")
    coarse = _moments(x, w, np.exp(vals[:-1].reshape(x.shape) - shift))
    floor = _NOISE * (1.0 + abs(shift))
    total, total_abs, settled = np.zeros(3), np.zeros(3), 0
    while a.size:
        if settled + a.size > _PANEL_CAP:
            raise NonIntegrable(f"quadrature did not settle within {_PANEL_CAP} panels")
        mid = 0.5 * (a + b)
        x, w = gauss_legendre(np.concatenate([a, mid]), np.concatenate([mid, b]))
        vals = np.asarray(ell(x.ravel()), dtype=float).reshape(x.shape)
        fine = _moments(x, w, np.exp(vals - shift))
        left, right = fine[: a.size], fine[a.size :]
        split = left + right
        tol = _RTOL * (total_abs + np.abs(split).sum(axis=0)) + floor * np.abs(split)
        ok = np.all(np.abs(split - coarse) <= tol, axis=1)
        total += split[ok].sum(axis=0)
        total_abs += np.abs(split[ok]).sum(axis=0)
        settled += int(ok.sum())
        a, b, mid = a[~ok], b[~ok], mid[~ok]
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        coarse = np.concatenate([left[~ok], right[~ok]])
    m0, m1, m2 = total
    if not np.isfinite(m0) or m0 <= 0.0:
        raise NonIntegrable("quadrature returned a non-positive mass")
    return shift + math.log(m0), float(m1 / m0), float(m2 / m0)


def log_integral(
    ell: LogDensity,
    lo: float,
    hi: float,
    peak_hint: float | None = None,
) -> float:
    """log of integral of exp(ell) over [lo, hi], computed with a peak shift."""
    if hi <= lo:
        return -np.inf
    return log_moment_integrals(ell, lo, hi, peak_hint)[0]


@dataclass
class GridInverseCdf:
    """Tabulated inverse-CDF sampler for a 1-D density given by a log-density.

    The table restricts itself to the region where the log-density is within
    ``MASS_DROP`` of its peak, places ``points`` equispaced nodes there, and
    builds the cumulative by composite trapezoid.  A mass region narrower
    than half the grid is re-gridded, as often as it takes, so a sharply
    peaked density (a pair conditional at a large sum, say) still gets at
    least ``points // 2`` nodes across its mass.  Node spacing at the default
    resolution keeps the inversion error well below 1e-6 in probability for
    the smooth densities used in this package.
    """

    x: Array
    cdf: Array

    @classmethod
    def build(cls, ell: LogDensity, lo: float, hi: float,
              points: int = 4097) -> "GridInverseCdf":
        def mass_span(vals: Array) -> tuple[float, int, int]:
            # Pad one node each side so the clipped region integrates cleanly.
            peak = np.max(vals)
            keep_idx = np.flatnonzero(vals > peak - MASS_DROP)
            return peak, max(keep_idx[0] - 1, 0), min(keep_idx[-1] + 1, points - 1)

        xs = np.linspace(lo, hi, points)
        vals = np.asarray(ell(xs), dtype=float)
        peak, lo_i, hi_i = mass_span(vals)
        if hi_i - lo_i + 1 >= points // 2:
            xs = xs[lo_i : hi_i + 1]
            vals = vals[lo_i : hi_i + 1]
        # Re-grid the mass region at full resolution until it spans at least
        # half the table; each pass narrows the grid at least twofold.
        while hi_i - lo_i + 1 < points // 2:
            x_lo, x_hi = float(xs[lo_i]), float(xs[hi_i])
            if x_hi - x_lo < points * math.ulp(max(abs(x_lo), abs(x_hi))):
                raise NonIntegrable("density mass narrower than float resolution")
            xs = np.linspace(x_lo, x_hi, points)
            vals = np.asarray(ell(xs), dtype=float)
            peak, lo_i, hi_i = mass_span(vals)
        w = np.exp(vals - peak)
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(xs) * (w[1:] + w[:-1]) / 2.0)])
        total = cdf[-1]
        if not np.isfinite(total) or total <= 0.0:
            raise NonIntegrable("density mass vanished on the table grid")
        return cls(x=xs, cdf=cdf / total)

    def ppf(self, u: Array) -> Array:
        u = np.asarray(u, dtype=float)
        return np.interp(u, self.cdf, self.x)

    def cdf_at(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.x, self.cdf, left=0.0, right=1.0)

    def sample(self, rng: np.random.Generator, size) -> Array:
        return self.ppf(rng.random(size))
