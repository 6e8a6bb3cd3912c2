"""Variational band-exit analysis for the sum event {S_n >= n a}.

Given the band I = (a-eps, a+eps)^n, the cheapest way for one step to leave
the band while the sum stays at n a is to park a single coordinate at a
band edge and spread the compensation evenly over the rest:

    high exit: one step at a+eps, the others at a - eps/(n-1)
    low  exit: one step at a-eps, the others at a + eps/(n-1)

For convex exponents these closed forms are the exact constrained infima;
``brute_force_infimum`` re-derives them by direct search so the closed
forms can be checked rather than trusted.  It polishes all its starts at
once: one row-wise nested-grid search per round-robin matching of the
coordinates, then one per single coordinate.  A line search stops zooming
once its answer is decided: its best node is an end of its interval on two
consecutive grids (the end is then compared exactly), or its bracket is
flat to rounding; otherwise it zooms to _ZOOM_STOP of its interval.  The
module also builds the piecewise-linear-then-convex minorant used to push
the lower probability bound through a bounded perturbation, and evaluates
both certified probability bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .density import ExponentModel, PerturbedDensity, Perturbation
from .errors import (DomainError, EnvelopeViolated, NoConvergence, ThresholdNotFound,
                     require_counts)
from .quadrature import _BLOCK_POINTS, _around_max, _zoom

Array = np.ndarray

REGIONS = ("C", "AcapC", "BcapC", "IccC")

# brute_force_infimum stops once two consecutive levels agree to _REFINE_TOL
# relative, and raises if none have by level _FINEST_LEVEL.
_REFINE_TOL = 1e-5
_FINEST_LEVEL = 3
# A descent raises if any start still gains after this many sweeps.
_MAX_SWEEPS = 200

# convex_minorant searches its thresholds on a geometric grid up to here.
_MINORANT_HI = 1e6
_MINORANT_POINTS = 200_001


@dataclass(frozen=True)
class BandEvent:
    """Sum-level a with band halfwidth eps for an n-step walk.

    eps = 0 is admitted as the degenerate band (all exit profiles collapse
    onto n g(a)); sampling operations require eps > 0.
    """

    n: int
    a: float
    eps: float

    def __post_init__(self):
        require_counts(n=self.n)
        if self.n < 2:
            raise DomainError("band events need at least two steps")
        if not self.a > 0.0:
            raise DomainError("band centre must be positive")
        if not 0.0 <= self.eps < self.a:
            raise DomainError("band halfwidth must satisfy 0 <= eps < a")


@dataclass(frozen=True)
class LocalizationBounds:
    """Closed-form exit infima and the derived gap quantities.

    escape_gap is the barrier the walk must pay to leave the band while
    keeping its sum; reciprocal_gap is g(a + 1/g(a)) - g(a), the exponent
    increment over one reciprocal cell, and volume_correction is n times
    it (the pure-convex cell-volume term of the lower bound).
    """

    high_exit: float
    low_exit: float
    escape_infimum: float
    sum_infimum: float
    escape_gap: float
    reciprocal_gap: float
    volume_correction: float


def _check_compensation(ev: BandEvent) -> None:
    if ev.a - ev.eps / (ev.n - 1) <= 0.0:
        raise DomainError("compensated step a - eps/(n-1) must stay positive")


def closed_form_bounds(exponent: ExponentModel, ev: BandEvent) -> LocalizationBounds:
    """Evaluate both exit profiles and the gap quantities for (n, a, eps).

    All differences of nearby exponent values go through the stable gap
    machinery, so the results keep full precision even when eps/a is at
    the 1e-16 scale that sequence plans reach.
    """
    if ev.a <= exponent.increase_threshold:
        raise DomainError("band centre must lie beyond the increase threshold")
    _check_compensation(ev)
    n, a, eps = ev.n, ev.a, ev.eps
    with np.errstate(over="ignore"):
        ga = float(exponent.g(np.array([a]))[0])
    if not math.isfinite(ga):
        raise DomainError(f"exponent g(a) overflows at a={a:g}")
    if ga <= 0.0:
        raise DomainError("exponent must be positive at the band centre")
    gap1, gap2 = exponent.band_gaps(a, eps, n)
    sum_inf = n * ga
    high = sum_inf + gap1
    low = sum_inf + gap2
    recip = exponent.gap(a, 1.0 / ga)
    return LocalizationBounds(
        high_exit=high,
        low_exit=low,
        escape_infimum=min(high, low),
        sum_infimum=sum_inf,
        escape_gap=min(gap1, gap2),
        reciprocal_gap=recip,
        volume_correction=n * recip,
    )


def exit_profile(exponent: ExponentModel, ev: BandEvent, k: int) -> float:
    """Objective value with k steps at a+eps and n-k equal compensating steps.

    Increasing in k for convex exponents; k = 1 reproduces the high exit.
    """
    n, a, eps = ev.n, ev.a, ev.eps
    if not 1 <= k <= n - 1:
        raise DomainError("profile index k must lie in 1..n-1")
    compensated = a - k * eps / (n - k)
    if compensated <= 0.0:
        raise DomainError("compensated step must stay positive")
    g_hi = float(exponent.g(np.array([a + eps]))[0])
    g_lo = float(exponent.g(np.array([compensated]))[0])
    return k * g_hi + (n - k) * g_lo


# -- brute-force oracle ------------------------------------------------------

_BASE_AXIS = {2: 257, 3: 81, 4: 33, 5: 17, 6: 11, 7: 9, 8: 7}
# A line-search bracket whose ends lie within this share of its best value
# is flat to rounding.
_FLAT = 4.0 * np.finfo(float).eps
# At most this many points on the grid of n - 1 coordinates.  The grid is
# walked a block at a time, so its memory is bounded per block and the cap
# bounds time.  Levels 0 and 1 always run, which leaves n <= 6.
_GRID_CAP = 2**24


def _axis_points(n: int, level: int) -> int:
    return (_BASE_AXIS[n] - 1) * 2**level + 1


def _min1d(fn, lo: Array, hi: Array, coarse: int) -> tuple[Array, Array]:
    """Row-wise minimum of a smooth function on [lo[k], hi[k]], where
    ``fn(xs, rows)`` maps a (len(rows), m) grid to values: dense grid,
    nested-grid polish around each row's best node, and that node checked
    against the row's two endpoints.

    A row stops zooming once its answer is decided:

    - its best node is its own lo or hi, exactly, on two consecutive grids.
      That end is one of the three candidates, so its value is exact.  A
      minimum inside the first cell of the coarse grid (spacing h) but
      within h/128 of the end is then reported at the end, which costs at
      most f'' (h/128)^2 / 2;
    - its best node is inside its bracket, and both bracket ends lie within
      4 eps |best| of the best value: the bracket is flat to rounding, and
      no finer grid can tell its nodes apart.  (A best node at an end of
      the bracket bounds nothing: the end and its one neighbour can tie
      about a lower minimum between them.)

    Any other row zooms on to _ZOOM_STOP of its interval."""
    rows = np.arange(lo.size)
    at_end = np.zeros(lo.size, dtype=bool)

    def decided(xs, vals, i, j, pick, live):
        r = np.arange(pick.size)
        best = xs[r, pick]
        end = (best == lo[live]) | (best == hi[live])
        twice = end & at_end[live]
        at_end[live] = end
        top = vals[r, pick]
        flat = np.minimum(vals[r, i], vals[r, j]) >= top - _FLAT * np.abs(top)
        return twice | (flat & (i < pick) & (pick < j))

    found = _zoom(lambda xs, k: -fn(xs, k), lo, hi, coarse, _around_max, decided)[0]
    cand = np.stack([found, lo, hi], axis=1)
    vals = fn(cand, rows)
    j = vals.argmin(axis=1)
    return cand[rows, j], vals[rows, j]


def _suffix_min(vals: Array) -> tuple[Array, Array]:
    """min(vals[i:]) and its leftmost position for every i: the first node at
    or after i that is no larger than everything to its right."""
    suffix_min = np.minimum.accumulate(vals[::-1])[::-1]
    record = np.append(vals[:-1] <= suffix_min[1:], True)
    nodes = np.where(record, np.arange(vals.size), vals.size)
    return suffix_min, np.minimum.accumulate(nodes[::-1])[::-1]


def _smallest(total: Array, m: int) -> Array:
    """np.argsort(total, kind="stable")[:m] without sorting all of total:
    only the values at or below the m-th smallest, ties included."""
    m = min(m, total.size)
    cut = np.partition(total, m - 1)[m - 1]
    near = np.flatnonzero(~(total > cut))
    return near[np.argsort(total[near], kind="stable")][:m]


def _completion_tables(w, ev: BandEvent, regions: tuple[str, ...], lo: float,
                       hi: float) -> list[tuple]:
    """Per region, the completion grid of the last coordinate on [lo, u_hi]
    and its running minima from the right, so that "min over u >= threshold"
    is a table lookup: (u_hi, ugrid, suffix_min, suffix_arg).  They depend on
    no grid level, so a search builds them once for all its levels."""
    a, eps = ev.a, ev.eps
    tables = []
    for region in regions:
        if region == "BcapC":
            u_hi = a - eps
            ugrid = np.linspace(lo, u_hi, 4097)
        else:
            u_hi = hi
            ugrid = np.linspace(lo, hi, 8193)
        tables.append((u_hi, ugrid, *_suffix_min(np.asarray(w(ugrid), dtype=float))))
    return tables


def _coarse_candidates(w, ev: BandEvent, regions: tuple[str, ...], axis: Array,
                       keep: int, tables: list[tuple]) -> list[list[np.ndarray]]:
    """Complete each point of the free grid (``axis`` in each of the n-1 free
    coordinates) optimally in the last coordinate over its feasible interval
    in each region, read from the region's ``_completion_tables`` entry on
    [axis[0], axis[-1]]; return each region's best few points.

    The grid is walked once, a block of whole leading-axis slabs at a time
    (about _BLOCK_POINTS points), and each block's sums serve every region.
    A block keeps its keep * 4 smallest totals in stable order, and blocks
    go in flat-index order; every winner of the whole grid is a winner
    within its block, so picking from the merged pool is the full grid's
    stable sort."""
    n, a, eps = ev.n, ev.a, ev.eps
    floor = n * a
    lo = axis[0]
    pool = keep * 4
    w_axis = np.asarray(w(axis), dtype=float)
    slab = axis.size ** (n - 2)
    rows = max(1, _BLOCK_POINTS // slab)
    # Per region, per block: total, flat index, d_lo, exact_lo, grid_min, idx.
    found = [[] for _ in regions]
    for s in range(0, axis.size, rows):
        sum_w = functools.reduce(np.add.outer, [w_axis[s:s + rows]] + [w_axis] * (n - 2)).ravel()
        sum_x = functools.reduce(np.add.outer, [axis[s:s + rows]] + [axis] * (n - 2)).ravel()
        for region, (u_hi, ugrid, suffix_min, _), blocks in zip(regions, tables, found):
            d_lo = floor - sum_x
            np.clip(d_lo, lo, None, out=d_lo)
            if region == "AcapC":
                np.clip(d_lo, a + eps, None, out=d_lo)
            feasible = np.flatnonzero(d_lo <= u_hi)
            if not feasible.size:
                continue
            d_lo = d_lo[feasible]
            idx = np.searchsorted(ugrid, d_lo, side="left")
            np.clip(idx, 0, ugrid.size - 1, out=idx)
            grid_min = suffix_min[idx]
            exact_lo = np.asarray(w(d_lo), dtype=float)
            total = sum_w[feasible] + np.minimum(grid_min, exact_lo)
            best = _smallest(total, pool)
            blocks.append((total[best], feasible[best] + s * slab, d_lo[best],
                           exact_lo[best], grid_min[best], idx[best]))

    out = []
    for (_, ugrid, _, suffix_arg), blocks in zip(tables, found):
        total, flat, d_lo, exact_lo, grid_min, idx = map(np.concatenate, zip(*blocks))
        order = _smallest(total, pool)
        free_idx = np.array(np.unravel_index(flat[order], (axis.size,) * (n - 1))).T
        points = []
        seen = set()
        for row, k in zip(free_idx, order):
            point = np.empty(n)
            point[: n - 1] = axis[row]
            if exact_lo[k] <= grid_min[k]:
                point[-1] = d_lo[k]
            else:
                point[-1] = ugrid[suffix_arg[idx[k]]]
            key = tuple(np.round(np.sort(point[: n - 1]), 6)) + (round(float(point[-1]), 6),)
            if key in seen:
                continue
            seen.add(key)
            points.append(point)
            if len(points) >= keep:
                break
        out.append(points)
    return out


def _round_robin(n: int) -> list[tuple[Array, Array]]:
    """Circle-method rounds of disjoint pairs (i, j), i < j, that cover every
    pair of range(n) once: n - 1 rounds for even n, n for odd n."""
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        seats = [0] + [(r + s) % (m - 1) + 1 for s in range(m - 1)]
        pairs = [sorted((seats[s], seats[-1 - s])) for s in range(m // 2)]
        rounds.append(tuple(np.array([p for p in pairs if p[1] < n]).T))
    return rounds


def _descend(w, ev: BandEvent, starts: Array, lb: Array, ub: Array, coarse: int) -> float:
    """Polish the feasible starts at once, row k inside the box [lb[k], ub[k]],
    and return the best value.  Pair moves keep the sum, travelling along
    the active constraint; single moves let a point leave it.  sum w(x_i) is
    separable, so the pairs of a round-robin matching move independently,
    each round one row-wise search over (start, pair); single moves couple
    through the sum floor and go one coordinate at a time.  Each start moves
    as it would alone, and retires once a sweep gains at most 1e-12 (1 + |f|);
    a start still gaining after _MAX_SWEEPS sweeps raises NoConvergence."""
    n = ev.n
    floor = n * ev.a
    x = np.clip(starts, lb, ub)
    # Restore feasibility by topping up each point's most spacious coordinate.
    deficit = floor - x.sum(axis=1)
    short = np.flatnonzero(deficit > 0.0)
    j = (ub[short] - x[short]).argmax(axis=1)
    x[short, j] = np.minimum(ub[short, j], x[short, j] + deficit[short])
    feasible = x.sum(axis=1) >= floor - 1e-9
    x, lb, ub = x[feasible], lb[feasible], ub[feasible]
    if not x.size:
        return math.inf

    f = w(x).sum(axis=1)
    live = np.arange(len(x))
    rounds = _round_robin(n)
    for _ in range(_MAX_SWEEPS):
        f_start = f[live]
        for pi, pj in rounds:
            rows = np.repeat(live, pi.size)
            i, j = np.tile(pi, live.size), np.tile(pj, live.size)
            xi, xj = x[rows, i], x[rows, j]
            t_lo = np.maximum(lb[rows, i] - xi, xj - ub[rows, j])
            t_hi = np.minimum(ub[rows, i] - xi, xj - lb[rows, j])
            move = t_hi > t_lo
            rows, i, j, xi, xj = rows[move], i[move], j[move], xi[move], xj[move]
            t, f_pair = _min1d(lambda ts, k: w(xi[k, None] + ts) + w(xj[k, None] - ts),
                               t_lo[move], t_hi[move], coarse)
            base = w(xi) + w(xj)
            ok = f_pair < base - 1e-15 * (1.0 + np.abs(base))
            x[rows[ok], i[ok]] = xi[ok] + t[ok]
            x[rows[ok], j[ok]] = xj[ok] - t[ok]
        for i in range(n):
            u_lo = np.maximum(lb[live, i], floor - (x[live].sum(axis=1) - x[live, i]))
            move = ub[live, i] > u_lo
            rows = live[move]
            u, f_new = _min1d(lambda us, k: w(us), u_lo[move], ub[rows, i], coarse)
            base = w(x[rows, i])
            ok = f_new < base - 1e-15 * (1.0 + np.abs(base))
            x[rows[ok], i] = u[ok]
        f[live] = w(x[live]).sum(axis=1)
        live = live[f_start - f[live] > 1e-12 * (1.0 + np.abs(f[live]))]
        if not live.size:
            return float(f.min())
    raise NoConvergence(f"{live.size} starts still gained after {_MAX_SWEEPS} descent sweeps")


def _box(ev: BandEvent) -> tuple[float, float]:
    """The search box [lo, hi] of every coordinate."""
    n, a, eps = ev.n, ev.a, ev.eps
    lo = min(1e-3, 0.5 * (a - eps)) if eps > 0.0 else min(1e-3, 0.5 * a)
    return lo, a + n * eps + 5.0


def _search(model: PerturbedDensity, ev: BandEvent, regions: tuple[str, ...],
            tables: list[tuple], level: int) -> float:
    """Best value over the regions at one grid resolution.  The n-1 free
    coordinates are gridded once; each region completes that grid in the
    last coordinate for its candidates from its ``tables`` entry (none is
    ever empty: hi leaves room), and one descent polishes them all, each
    start's last coordinate bounded by its own region."""
    n, a, eps = ev.n, ev.a, ev.eps
    w = model.exponent_value
    lo, hi = _box(ev)
    axis = np.linspace(lo, hi, _axis_points(n, level))
    if axis.size ** (n - 1) > _GRID_CAP:
        raise NoConvergence(f"{'/'.join(regions)} did not stabilise in {_GRID_CAP} grid points")

    starts, last = [], []
    for region, found in zip(regions, _coarse_candidates(w, ev, regions, axis, keep=6,
                                                         tables=tables)):
        if region == "C":
            found.append(np.full(n, a))
        starts += found
        last += [(a + eps if region == "AcapC" else lo,
                  a - eps if region == "BcapC" else hi)] * len(found)
    lb, ub = np.full((len(starts), n), lo), np.full((len(starts), n), hi)
    lb[:, -1], ub[:, -1] = np.array(last).T
    return _descend(w, ev, np.array(starts), lb, ub, coarse=65 * 2 ** min(level, 2))


def brute_force_infimum(model: PerturbedDensity, ev: BandEvent, region: str) -> float:
    """Directly search the constrained infimum of sum(g + q) over a region.

    Regions: "C" (sum >= n a), "AcapC" (C and some step >= a+eps), "BcapC"
    (C and some step <= a-eps), "IccC" (C and some step outside the open
    band; the min of the previous two, searched as one on a shared grid and
    descent).  By exchangeability the exit constraint is pinned to the last
    coordinate.

    The value is certified by re-running at halved grid spacing until two
    consecutive resolutions agree to 1e-5 relative; failure to agree by
    level 3 (eight times the first resolution), or before the grid passes
    2**24 points, raises NoConvergence.  The first two resolutions always
    run, so n is limited to 6: larger n raises DomainError before any search.
    """
    if region not in REGIONS:
        raise DomainError(f"unknown region {region!r}")
    if ev.n not in _BASE_AXIS or _axis_points(ev.n, 1) ** (ev.n - 1) > _GRID_CAP:
        raise DomainError(f"brute-force search is limited to n <= 6, got n={ev.n}")
    _check_compensation(ev)
    regions = ("AcapC", "BcapC") if region == "IccC" else (region,)
    tables = _completion_tables(model.exponent_value, ev, regions, *_box(ev))
    prev = _search(model, ev, regions, tables, 0)
    for level in range(1, _FINEST_LEVEL + 1):
        cur = _search(model, ev, regions, tables, level)
        if abs(cur - prev) <= _REFINE_TOL * max(abs(cur), 1e-12):
            return min(cur, prev)
        prev = min(cur, prev)
    raise NoConvergence(f"region {region} value did not stabilise under refinement")


# -- convex minorant ---------------------------------------------------------


@dataclass
class PiecewiseMinorant:
    """Convex minorant h of g - M: tangent line up to the knot, then
    g - N log g.

    Thresholds: convex_from is where g - N log g turns increasing and
    convex, envelope_from caps M by N log g(envelope_from) on everything
    below it, and knot is where the tangent is taken (slope strictly more
    than twice the slope at envelope_from, g > 2N).
    """

    exponent: ExponentModel
    N: float
    convex_from: float
    envelope_from: float
    knot: float
    knot_value: float
    knot_slope: float

    def log_adjusted(self, x: Array) -> Array:
        """g(x) - N log g(x)."""
        x = np.asarray(x, dtype=float)
        return self.exponent.g(x) - self.N * self.exponent.log_g(x)

    def tangent(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return self.knot_value + self.knot_slope * (x - self.knot)

    def value(self, x: Array) -> Array:
        x = np.asarray(x, dtype=float)
        return np.where(x < self.knot, self.tangent(x), self.log_adjusted(x))


def convex_minorant(exponent: ExponentModel, perturbation: Perturbation) -> PiecewiseMinorant:
    """Construct the glued minorant for the perturbation's envelope (M, N, y0).

    The thresholds are searched on a geometric grid up to 1e6.  The
    construction is validated numerically: h must stay below g - M on a
    probe grid, otherwise the envelope threshold is advanced and the glue
    retried.
    """
    M, N, y0 = perturbation.M, perturbation.N, perturbation.y0

    X = exponent.increase_threshold
    lo = max(1e-6, X * 1e-2, X / 10.0) if X > 0 else 1e-6
    grid = np.geomspace(lo, _MINORANT_HI, _MINORANT_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        g = exponent.g(grid)
        dg = exponent.dg(grid)
        log_g = exponent.log_g(grid)
        r_prime = dg * (1.0 - N / g)

    ok1 = (g > N) & (dg > 0.0) & (r_prime > 0.0)
    idx1 = np.flatnonzero(ok1)
    if idx1.size == 0:
        raise ThresholdNotFound("no point where g - N log g turns convex increasing")
    i1 = int(idx1[0])

    Mv = np.asarray(M(grid), dtype=float)
    prefix_max = np.maximum.accumulate(Mv)

    start2 = max(i1, int(np.searchsorted(grid, y0)))
    i2 = None
    for trial in range(64):
        cand = None
        for i in range(start2, grid.size):
            if prefix_max[i] <= N * log_g[i] + 1e-12:
                cand = i
                break
        if cand is None:
            raise ThresholdNotFound("no envelope threshold found in the search range")
        i2 = cand
        slope2 = float(dg[i2])
        ok3 = (dg > 2.0 * slope2) & (g > 2.0 * N)
        idx3 = np.flatnonzero(ok3[i2 + 1 :])
        if idx3.size == 0:
            raise ThresholdNotFound("no knot with doubled slope in the search range")
        i3 = i2 + 1 + int(idx3[0])

        y3 = float(grid[i3])
        knot_value = float(g[i3] - N * log_g[i3])
        knot_slope = float(dg[i3] * (1.0 - N / g[i3]))
        minorant = PiecewiseMinorant(
            exponent=exponent,
            N=N,
            convex_from=float(grid[i1]),
            envelope_from=float(grid[i2]),
            knot=y3,
            knot_value=knot_value,
            knot_slope=knot_slope,
        )
        probe = np.geomspace(lo, min(_MINORANT_HI, 3.0 * y3), 10_001)
        gap = exponent.g(probe) - np.asarray(M(probe), dtype=float) - minorant.value(probe)
        scale = np.maximum(1.0, np.abs(exponent.g(probe)))
        if np.all(gap >= -1e-9 * scale):
            return minorant
        start2 = i2 + max(1, grid.size // 1000)
    raise EnvelopeViolated("could not certify h <= g - M within the search range")


# -- certified probability bounds -------------------------------------------


def escape_rate_sandwich(model: PerturbedDensity, ev: BandEvent) -> tuple[float, float]:
    """Bracket the perturbed escape rate by the unperturbed closed form:

        I_pure - n N log g(a+eps)  <=  I_{g+q}  <=  n (N+1) g(a + eps/(n-1))

    For a pure model both ends collapse onto the closed form.
    """
    bounds = closed_form_bounds(model.exponent, ev)
    if model.is_pure:
        return bounds.escape_infimum, bounds.escape_infimum
    n, a, eps = ev.n, ev.a, ev.eps
    N = model.perturbation.N
    log_g_hi = float(model.exponent.log_g(np.array([a + eps]))[0])
    lo = bounds.escape_infimum - n * N * log_g_hi
    hi = n * (N + 1.0) * float(model.exponent.g(np.array([a + eps / (n - 1)]))[0])
    return lo, hi


def log_prob_exceed_lower(model: PerturbedDensity, ev: BandEvent) -> float:
    """Certified lower bound on log P(S_n >= n a).

    Pure models pay the pure-convex volume correction n (g(a + 1/g(a)) -
    g(a)); perturbed models replace the rate n g(a) by n h(a) from the
    convex minorant and add the envelope inflation n N (log g(a) +
    log g(a + 1/g(a))).  Requires a beyond the increase threshold, and
    beyond the minorant knot in the perturbed case.
    """
    exponent = model.exponent
    n, a = ev.n, ev.a
    ga = float(exponent.g(np.array([a]))[0])
    if ga <= 0.0:
        raise DomainError("exponent must be positive at the sum level")
    log_ga = float(exponent.log_g(np.array([a]))[0])
    recip = exponent.gap(a, 1.0 / ga)
    if model.is_pure:
        if a <= exponent.increase_threshold:
            raise DomainError("sum level must exceed the increase threshold")
        rate = n * ga
        correction = n * recip
    else:
        minorant = convex_minorant(exponent, model.perturbation)
        if a <= max(exponent.increase_threshold, minorant.knot):
            raise DomainError(
                "perturbed lower bound needs the sum level beyond the minorant knot"
            )
        N = model.perturbation.N
        log_g_shifted = log_ga + math.log1p(recip / ga)
        rate = n * float(minorant.value(np.array([a]))[0])
        correction = n * recip + n * N * log_ga + n * N * log_g_shifted
    return n * model.log_c - rate - correction - n * log_ga


def log_prob_escape_upper(model: PerturbedDensity, ev: BandEvent) -> float:
    """Certified upper bound on log P(some step leaves the band, S_n >= n a).

    Uses exp(-I + n log I) evaluated at the certified lower end of the
    escape-rate sandwich; that map is decreasing in I beyond I = n, which
    the precondition enforces, so the substitution preserves the bound.
    Perturbed models pay an extra n log 2.
    """
    n = ev.n
    i_lo, _ = escape_rate_sandwich(model, ev)
    if not i_lo > max(float(n), 1.0):
        raise DomainError("escape rate too small for the tail bound (needs I > n)")
    extra = 0.0 if model.is_pure else n * math.log(2.0)
    return n * model.log_c - i_lo + n * math.log(i_lo) + math.log(n + 1.0) + extra
