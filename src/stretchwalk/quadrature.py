"""Vectorised log-space quadrature: the integration engine of every module
but ``smalln``, whose fixed 16-panel rule shares only ``gauss_legendre``.

Integrands are exp(ell(x)) with ell up to +-1e4, so each integral is taken
relative to the largest sampled ell and the shift is added back in log
space.  ``ell`` is only ever called on whole arrays: peaks, mass-window
edges and level crossings are found by nested 65-point grids (a batch of
searches, such as a window's two edges, runs as the rows of one grid),
and integrals by a locally adaptive composite 16-point Gauss-Legendre
rule (Davis & Rabinowitz, *Methods of Numerical Integration*) whose every
round yields the mass, the first two moments and the third central moment
from one ``ell`` call.
The rule assumes ell smooth on each panel, so a caller names the points
where it is not (a perturbation's kinks), and each becomes a panel end.
Inverse-cdf tables only tabulate the grid they are given; ``mass_window``
is the one search for where a density's mass lies.

A nested-grid search stops at a share of its range, near float
resolution, unless it knows what it resolves.  A mass window does: it
only bounds the adaptive rule, which sets the accuracy, so its peak
search stops once the grid resolves the peak's own width (the bracket
within 1e-3 nats of its maximum) and each edge once its bracket is within
1e-3 of the edge's distance from the peak.  An edge node always lies at
or outside the crossing, so the coarser stop can only widen the window,
by at most that share.  The brute-force oracle's peak searches and
``first_reach`` keep the share-of-range stop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import Divergent, NonIntegrable, raise_first

Array = np.ndarray
LogDensity = Callable[[Array], Array]

# How far below the peak an integrand is treated as numerically zero.
MASS_DROP = 60.0
# mass_window raises Divergent when the integrand has not decayed by here.
_HI_LIMIT = 1e12

# Nested grids shrink their bracket 32-fold a level and stop at this share
# of the searched range; the level cap only binds at float resolution.  A
# peak search starts on a finer probe grid.
_GRID = 65
_ZOOM_STOP = 1e-13
_ZOOM_LEVELS = 16
_RAMP = np.arange(_GRID, dtype=float)
_PEAK_PROBES = 2048
# Row-wise searches and rounds lay at most this many points at once, a
# block of whole rows or panels each: the float temporaries of a search
# level or a round then stay near 64 KB, under glibc's default mmap
# threshold of 128 KB.  Larger ones are mapped and returned to the system
# as they are freed, or trimmed off the heap top, and a wide table faulted
# its pages in again on every pass.
_BLOCK_POINTS = 8192
# mass_window's own stops (see its docstring): the peak to within this many
# nats, each edge to this share of its distance from the peak.
_PEAK_NATS = 1e-3
_EDGE_SHARE = 1e-3

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_START_PANELS = 4
# A panel settles when its one-panel and two-half estimates agree to _RTOL
# of the total, or to the roundoff floor of exp(ell - shift): ell is only
# accurate to about eps (1 + |shift|).  The panel cap stops an integrand
# that never settles from doubling its panels every round.
_RTOL = 1e-13
_NOISE = 64.0 * np.finfo(float).eps
_PANEL_CAP = 4096
# A batched ppf divides by a cdf step no smaller than this (a flat interval).
_TINY = np.finfo(float).tiny


def gauss_legendre(lo: Array, hi: Array) -> tuple[Array, Array]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on each panel
    [lo[i], hi[i]], both of shape (panels, 16)."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS


def _row_calls(ell: LogDensity) -> Callable[[Array, Array], Array]:
    """A one-density ``ell`` in the row convention of the batched searches:
    every row of the grid is a point set of the same density."""
    return lambda xs, rows: np.asarray(ell(xs.ravel()), dtype=float).reshape(xs.shape)


def _zoom(ell: Callable[..., Array], lo: float | Array, hi: float | Array, probes: int,
          bracket: Callable[[Array, Array], tuple[Array, Array, Array]],
          resolved: Callable[..., Array] | None = None):
    """Nested grids on [lo, hi], or on every row's bounds (see find_peak):
    ``bracket(vals, rows)`` names per row the nodes (i, j) whose span holds the
    target and the node to report, and each level regrids that span.  A row
    stops once its span falls to _ZOOM_STOP of its own range, or once
    ``resolved(xs, vals, i, j, pick, rows)``, where given, is true for it.
    Rows whose first grids together exceed _BLOCK_POINTS points are searched
    a block of rows at a time.  Returns the reported node and its value."""
    batched = np.ndim(lo) > 0
    call = ell if batched else _row_calls(ell)
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    per = max(1, _BLOCK_POINTS // probes)
    if lo.size > per:
        def offset(f, s):
            # f for a block from row s on: its trailing rows argument counted from s.
            return None if f is None else (lambda *args: f(*args[:-1], args[-1] + s))

        found = [_zoom(offset(call, s), lo[s:s + per], hi[s:s + per], probes,
                       offset(bracket, s), offset(resolved, s))
                 for s in range(0, lo.size, per)]
        return tuple(np.concatenate(part) for part in zip(*found))
    out_x, out_v = np.empty(lo.size), np.empty(lo.size)
    stop = _ZOOM_STOP * (hi - lo)
    xs = _linspace_rows(lo, hi, np.arange(probes, dtype=float))
    live = r = np.arange(lo.size)
    for _ in range(_ZOOM_LEVELS):
        vals = call(xs, live)
        i, j, pick = bracket(vals, live)
        x_i, x_j = xs[r, i], xs[r, j]
        done = x_j - x_i <= stop
        if resolved is not None:
            done |= resolved(xs, vals, i, j, pick, live)
        finished = np.count_nonzero(done)
        if finished == live.size:
            out_x[live], out_v[live] = xs[r, pick], vals[r, pick]
            break
        if finished:
            out_x[live[done]], out_v[live[done]] = xs[r, pick][done], vals[r, pick][done]
            keep = ~done
            live, stop, x_i, x_j, pick, vals = (
                arr[keep] for arr in (live, stop, x_i, x_j, pick, vals))
            r = np.arange(live.size)
        xs = _linspace_rows(x_i, x_j, _RAMP)
    else:
        # Level cap (float resolution): the node index refers to the last
        # grid evaluated, its position to the regridded one.
        out_x[live], out_v[live] = xs[r, pick], vals[r, pick]
    return (out_x, out_v) if batched else (float(out_x[0]), float(out_v[0]))


def find_peak(ell: Callable[..., Array], lo: float | Array, hi: float | Array,
              probes: int = _PEAK_PROBES) -> tuple[float, float] | tuple[Array, Array]:
    """(argmax, max) of ``ell`` on [lo, hi]: a probe grid, then nested-grid polish.

    With array bounds each row is its own search: ``ell(xs, rows)`` gets a
    (len(rows), points) grid whose row i lies in [lo[rows[i]], hi[rows[i]]],
    each row stops at its own zoom level, and entry k of the two result
    arrays equals, bit for bit, the scalar call on (lo[k], hi[k])."""
    return _zoom(ell, lo, hi, probes, _around_max)


def _around_max(vals: Array, rows: Array) -> tuple[Array, Array, Array]:
    """Bracket of a peak search: the nodes either side of the largest value."""
    k = vals.argmax(axis=1)
    if np.isnan(vals).any():  # argmax stops at the first NaN
        k = np.nanargmax(vals, axis=1)
    return np.maximum(k - 1, 0), np.minimum(k + 1, vals.shape[1] - 1), k


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

    def first_reached(vals, rows):
        k = (~(vals < level)).argmax(axis=1)
        return np.maximum(k - 1, 0), k, k

    return _zoom(f, lo, float(his[reached[0]]), _GRID, first_reached)[0]


def _flat_peak(xs: Array, vals: Array, i: Array, j: Array, k: Array, rows: Array) -> Array:
    """mass_window's peak stop: both bracket ends within _PEAK_NATS of its top."""
    r = np.arange(k.size)
    return np.minimum(vals[r, i], vals[r, j]) >= vals[r, k] - _PEAK_NATS


def _mass_level(peak: Array) -> Array:
    """The level where a density's mass ends: ``MASS_DROP`` below its peak,
    or the float below the peak where that level rounds to the peak."""
    return np.minimum(peak - MASS_DROP, np.nextafter(peak, -np.inf))


def mass_window(ell: Callable[..., Array], lo: float | Array, hi_start: float | Array,
                failed: dict | None = None) -> tuple[float, float, float] | tuple[Array, Array, Array]:
    """Return (window_lo, window_hi, peak_x) containing all numerically
    relevant mass of exp(ell) on (lo, inf).

    The upper edge grows once, to the first doubling of ``hi_start`` where
    ell is ``MASS_DROP`` below the peak, and the peak is searched for again
    up to it; all doublings up to 1e12 are probed in one call, and failure
    to decay by then raises :class:`Divergent`.  The edges are then the
    last points at or below the mass level: ``MASS_DROP`` below the peak,
    or just below a peak that level rounds to (of magnitude 2^59 or more).

    Each search stops on the mass it bounds, not on a share of its range,
    which at large tilts can be orders of magnitude wider than the mass:

    - the peak, once both ends of its bracket lie within ``_PEAK_NATS`` of
      the bracket's largest value.  The grid then resolves the peak's own
      width: the split point is inside the peak, and the reported maximum,
      hence the ``peak - MASS_DROP`` level, is within a fraction of
      ``_PEAK_NATS`` of the true one;
    - each edge, once its bracket is within ``_EDGE_SHARE`` of the edge's
      distance from the peak.  The reported edge node is always at or
      outside the crossing, so stopping sooner can only widen the window,
      and only by that share.

    The window only bounds the adaptive rule of ``log_moment_integrals``,
    and that rule sets the accuracy.  Start it where ell is finite: from an
    lo where ell is -inf, such as 0 for a density with p(0+) > 0, a peak at
    lo is found only at float resolution.

    With an array ``lo`` each row is its own window, in the row convention
    of ``find_peak``: ``ell(xs, rows)`` gets a (len(rows), points) grid
    whose row i belongs to density ``rows[i]``.  Each row's searches stop on
    their own, each row probes its own doublings, and entry k of the three
    result arrays equals, bit for bit, the scalar call on ``lo[k]``.  A row
    that does not decay holds NaN, and its Divergent goes into ``failed``
    under k, where given; without ``failed`` the call raises the exception
    of the lowest-numbered such row.
    """
    batched = np.ndim(lo) > 0
    call = ell if batched else _row_calls(ell)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.maximum(hi_start, lo * 2 + 1.0)
    peak_x, peak = _zoom(call, lo, hi, _PEAK_PROBES, _around_max, _flat_peak)
    errors: dict = {}
    counts = [max(0, math.ceil(math.log2(_HI_LIMIT / v))) for v in hi.tolist()]
    steps = np.arange(max(counts) + 1)
    if min(counts) < steps[-1]:  # a row with fewer doublings repeats its last
        steps = np.minimum(steps, np.array(counts)[:, None])
    his = hi[:, None] * 2.0 ** steps
    r = np.arange(lo.size)
    with np.errstate(over="ignore", invalid="ignore"):
        decayed = call(his, r) <= (peak - MASS_DROP)[:, None]
    # The first decayed probe; 0 also where none decayed.
    first = decayed.argmax(axis=1)
    reached = decayed[r, first]
    if np.count_nonzero(reached) < lo.size:
        for k in np.flatnonzero(~reached):
            errors[int(k)] = Divergent(
                f"integrand does not decay below peak-{MASS_DROP:g} by x={his[k, -1]:.3g}")
    # A row that grows searches its peak again on the grown part.  Its new
    # upper edge lies MASS_DROP below the old peak, hence below any higher
    # one, so one round of doublings is all it takes.
    grow = np.flatnonzero(first > 0)
    if grow.size:
        hi[grow] = his[grow, first[grow]]
        new_x, new_peak = _zoom(lambda xs, rows: call(xs, grow[rows]), peak_x[grow],
                                hi[grow], _PEAK_PROBES, _around_max, _flat_peak)
        higher = new_peak > peak[grow]
        up = grow[higher]
        peak_x[up], peak[up] = new_x[higher], new_peak[higher]

    # Tighten both edges to the last points at or below the mass level, as
    # two rows of one search per window: its lower edge in row i, its upper
    # edge in row i + n.
    ok = np.setdiff1d(r, list(errors)) if errors else r
    n = ok.size
    pair = np.concatenate([ok, ok])
    level, centre = _mass_level(peak[pair]), peak_x[pair]

    def edges(vals, rows):
        above, end = vals > level[rows, None], vals.shape[1] - 1
        first, last = above.argmax(axis=1), end - above[:, ::-1].argmax(axis=1)
        lower = rows < n
        i = np.where(lower, np.maximum(first - 1, 0), last)
        j = np.where(lower, first, np.minimum(last + 1, end))
        return i, j, np.where(lower, i, j)

    def near(xs, vals, i, j, pick, rows):
        r = np.arange(i.size)
        return xs[r, j] - xs[r, i] <= _EDGE_SHARE * np.abs(xs[r, pick] - centre[rows])

    if n:
        found, _ = _zoom(lambda xs, rows: call(xs, pair[rows]),
                         np.concatenate([lo[ok], centre[:n]]),
                         np.concatenate([centre[:n], hi[ok]]), _GRID, edges, near)
    if failed is None or not batched:
        raise_first(errors)
    else:
        failed.update(errors)
    if not batched:
        return float(found[0]), float(found[1]), float(peak_x[0])
    out = np.full((3, lo.size), np.nan)
    if n:
        out[:, ok] = found[:n], found[n:], centre[:n]
    return out[0], out[1], out[2]


def _moments(x: Array, w: Array, f: Array, centre: Array) -> Array:
    """Per-panel Gauss-Legendre sums of f, x f, x^2 f, (x - centre)^2 f and
    (x - centre)^3 f, shape (panels, 5); ``centre`` is a column, one value
    a panel or one for all."""
    wf = w * f
    wxf = wf * x
    dx = x - centre
    wdf = wf * dx * dx
    out = np.empty((x.shape[0], 5))
    wf.sum(axis=1, out=out[:, 0])
    wxf.sum(axis=1, out=out[:, 1])
    (wxf * x).sum(axis=1, out=out[:, 2])
    wdf.sum(axis=1, out=out[:, 3])
    (wdf * dx).sum(axis=1, out=out[:, 4])
    return out


_SUMS = np.arange(5)


def _row_sums(values: Array, owner: Array, rows: int) -> Array:
    """Per-row sums of the (panels, 5) ``values`` over the panels each row
    owns, shape (rows, 5).  Both sum in panel order from the first panel,
    so row r's sum is ``values[owner == r].sum(axis=0)`` bit for bit."""
    if rows == 1:
        return values.sum(axis=0, keepdims=True)
    idx = (owner * 5)[:, None] + _SUMS
    return np.bincount(idx.ravel(), weights=values.ravel(), minlength=5 * rows).reshape(rows, 5)


_PANEL_RAMP = np.arange(_START_PANELS, dtype=float)


def _start_panels(lo: Array, hi: Array, peak: Array, kinks: Array) -> tuple[Array, Array, Array]:
    """The first panels of every row, as (a, b, owner), each row's panels
    together and in order: each piece of [lo, peak, hi] (of [lo, hi] where
    the peak is not inside) cut in _START_PANELS as ``np.linspace(...,
    endpoint=False)`` cuts it, then split at the kinks (ascending, each
    once) that lie strictly inside a panel, which is where ``np.union1d``
    would merge them into the edges."""
    rows = lo.size
    inside = (lo < peak) & (peak < hi)
    mid = np.where(inside, peak, hi)
    ends = np.empty((rows, 2 * _START_PANELS + 1))
    ends[:, :_START_PANELS] = _PANEL_RAMP * ((mid - lo) / _START_PANELS)[:, None] + lo[:, None]
    ends[:, _START_PANELS:-1] = _PANEL_RAMP * ((hi - peak) / _START_PANELS)[:, None] + peak[:, None]
    ends[:, -1] = hi
    if np.count_nonzero(inside) == rows:
        a, b = ends[:, :-1].ravel(), ends[:, 1:].ravel()
        owner = np.arange(a.size) // (2 * _START_PANELS)
    else:
        # A row whose peak is not inside has one piece, ending at hi.
        ends[~inside, _START_PANELS] = hi[~inside]
        used = np.ones((rows, 2 * _START_PANELS), dtype=bool)
        used[~inside, _START_PANELS:] = False
        a, b = ends[:, :-1][used], ends[:, 1:][used]
        owner = np.nonzero(used)[0]
    if kinks.size:
        cut = (a[:, None] < kinks) & (kinks < b[:, None])
        if np.count_nonzero(cut):
            inner = np.where(cut, kinks, np.nan)
            starts = np.concatenate([a[:, None], inner], axis=1)
            stops = np.concatenate([inner, b[:, None]], axis=1)
            owner = np.repeat(owner, 1 + np.count_nonzero(cut, axis=1))
            a, b = starts[~np.isnan(starts)], stops[~np.isnan(stops)]
    return a, b, owner


def log_moment_integrals(
    ell: Callable[..., Array],
    lo: float | Array,
    hi: float | Array,
    peak_hint: float | Array | None = None,
    kinks: Array | tuple[float, ...] = (),
    failed: dict | None = None,
) -> tuple[float, float, float, float] | tuple[Array, Array, Array, Array]:
    """Return (log m0, mean, variance, mu3): log mass, mean, variance and
    third central moment of the normalised density exp(ell)/m0 on [lo, hi],
    split at the peak.  All four come from the same nodes and shift, so the
    moment ratios are exact.  The variance and mu3 come from second and
    third moments summed about the peak, not the origin: in a law much
    narrower than its distance from 0, the raw m2 - m1^2 and
    m3 - 3 m1 m2 + 2 m1^3 cancel to noise.  With d = mean - peak, the
    variance is E(X - peak)^2 - d^2, and d is at most the law's own width.
    A panel settles on the mass and the first two raw moments alone, so the
    centred sums cost no extra ``ell`` call and move no panel.

    ``kinks`` (ascending, each once) are points where ell is not smooth;
    those inside (lo, hi) become panel ends.  Left inside a panel, a kink
    between the panel's end and its outermost node is seen by neither
    estimate of the adaptive rule, which then agree and settle the panel
    without its contribution.

    With array bounds (and peak hints) each row is its own integral, in the
    row convention of ``find_peak``: ``ell(xs, rows)`` gets one grid row a
    panel, row i holding a panel of density ``rows[i]``, so each round of
    the adaptive rule is one call for every row.  A row has its own shift,
    tolerance and panel cap, and a round's settled panels of a row are
    summed first, then added to its running totals, so entry k of the four
    result arrays equals the scalar call on row k bit for bit.  A row that
    fails holds NaN, and its NonIntegrable goes into ``failed`` under k,
    where given; without ``failed`` the call raises the exception of the
    lowest-numbered failing row."""
    batched = np.ndim(lo) > 0
    call = ell if batched else _row_calls(ell)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if peak_hint is None:
        peak_hint, _ = find_peak(call, lo, hi)
    peak = np.atleast_1d(np.asarray(peak_hint, dtype=float))
    rows = lo.size
    errors: dict = {}
    a, b, owner = _start_panels(lo, hi, peak, np.asarray(kinks, dtype=float))
    per = _BLOCK_POINTS // _GL_NODES.size
    x, w = gauss_legendre(a, b)
    # Each panel's nodes and its row's peak, which the shift also covers.
    grid = np.empty((a.size, x.shape[1] + 1))
    grid[:, :-1], grid[:, -1] = x, peak[owner]
    vals = _in_blocks(lambda s: call(grid[s], owner[s]), a.size, per)
    shift = np.maximum.reduceat(vals.max(axis=1), np.searchsorted(owner, np.arange(rows)))
    lost = ~np.isfinite(shift)
    if np.count_nonzero(lost):
        for k in np.flatnonzero(lost):
            errors[int(k)] = NonIntegrable("integrand has no finite maximum on the window")
        keep = ~lost[owner]
        a, b, owner, x, w, vals = (v[keep] for v in (a, b, owner, x, w, vals))
    # A row's shift, peak and noise floor as columns: one entry a panel, or
    # one for all where there is one row.
    single = rows == 1
    floor = _NOISE * (1.0 + np.abs(shift))
    shift_c, peak_c, floor_c = shift[:, None], peak[:, None], floor[:, None]

    def weigh(x, w, vals, own):
        # _moments of exp(ell - shift) on panels of the rows ``own``.  A
        # refined node far above its row's coarse-pass shift, where the
        # coarse pass missed the mass, overflows to inf or NaN here, quietly:
        # the round's check ends the row.
        with np.errstate(over="ignore", invalid="ignore"):
            return _moments(x, w, np.exp(vals - (shift_c if single else shift_c[own])),
                            peak_c if single else peak_c[own])

    coarse = _in_blocks(lambda s: weigh(x[s], w[s], vals[s, :-1], owner[s]), a.size, per)
    total, total_abs = np.zeros((rows, 5)), np.zeros((rows, 5))
    settled, settled_owners = 0, [owner[:0]]
    while a.size:
        if settled + a.size > _PANEL_CAP:
            over = np.bincount(np.concatenate([owner, *settled_owners]), minlength=rows) > _PANEL_CAP
            for k in np.flatnonzero(over):
                errors[int(k)] = NonIntegrable(
                    f"quadrature did not settle within {_PANEL_CAP} panels")
            keep = ~over[owner]
            a, b, owner, coarse = a[keep], b[keep], owner[keep], coarse[keep]
            if not a.size:
                break
        n = a.size
        mid = 0.5 * (a + b)
        starts, stops = np.concatenate([a, mid]), np.concatenate([mid, b])
        both = np.concatenate([owner, owner])

        def halves(s):
            x, w = gauss_legendre(starts[s], stops[s])
            return weigh(x, w, call(x, both[s]), both[s])

        fine = _in_blocks(halves, 2 * n, per)
        finite = np.isfinite(fine)
        if not finite.all():
            # One reduction a round; only a row whose sums overflowed fails.
            over = ~finite.all(axis=1)
            gone = np.zeros(rows, dtype=bool)
            gone[np.concatenate([owner, owner])[over]] = True
            for k in np.flatnonzero(gone):
                errors[int(k)] = NonIntegrable(
                    "moment sums overflow on refined panels: the integrand rises far "
                    "above its coarse-pass maximum, or is NaN")
            keep = ~gone[owner]
            a, b, mid, owner, coarse = a[keep], b[keep], mid[keep], owner[keep], coarse[keep]
            fine = fine[np.concatenate([keep, keep])]
            n = a.size
            if not n:
                break
        left, right = fine[:n], fine[n:]
        split = left + right
        size = np.abs(split)
        tol = _RTOL * (total_abs + _row_sums(size, owner, rows))
        tol = (tol if single else tol[owner]) + (floor_c if single else floor_c[owner]) * size
        ok = (np.abs(split - coarse) <= tol)[:, :3].all(axis=1)
        done = np.count_nonzero(ok)
        if done:
            done_owner = owner[ok]
            total += _row_sums(split[ok], done_owner, rows)
            total_abs += _row_sums(size[ok], done_owner, rows)
            settled += done
            settled_owners.append(done_owner)
            if done == n:
                break
            rest = ~ok
            a, b, mid, owner, left, right = (v[rest] for v in (a, b, mid, owner, left, right))
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
        coarse = np.concatenate([left, right])
    # Row by row in floats: math.log is the C library's, where numpy's
    # vectorised log may differ in the last bit.
    out = np.full((4, rows), np.nan)
    for k, (m0, m1, _, c2, c3) in enumerate(total.tolist()):
        if k in errors:
            continue
        if not (math.isfinite(m0) and m0 > 0.0):
            errors[k] = NonIntegrable("quadrature returned a non-positive mass")
            continue
        mean = m1 / m0
        # The central moments from the peak-centred sums: with
        # d = mean - peak, E(X - peak)^2 - d^2 and
        # E(X - peak)^3 - 3 d E(X - peak)^2 + 2 d^3.
        d = mean - float(peak[k])
        out[:, k] = (float(shift[k]) + math.log(m0), mean, c2 / m0 - d * d,
                     c3 / m0 - d * (3.0 * (c2 / m0) - 2.0 * d * d))
    if failed is None or not batched:
        raise_first(errors)
    else:
        failed.update(errors)
    if not batched:
        return float(out[0, 0]), float(out[1, 0]), float(out[2, 0]), float(out[3, 0])
    return out[0], out[1], out[2], out[3]


def log_integral(
    ell: LogDensity,
    lo: float,
    hi: float,
    peak_hint: float | None = None,
    kinks: Array | tuple[float, ...] = (),
) -> float:
    """log of integral of exp(ell) over [lo, hi], computed with a peak shift."""
    if hi <= lo:
        return -np.inf
    return log_moment_integrals(ell, lo, hi, peak_hint, kinks)[0]


@dataclass
class GridInverseCdf:
    """Tabulated inverse-CDF sampler for 1-D densities given by log-densities.

    ``build(xs, vals)`` tabulates the log-density values ``vals`` on the
    grid ``xs``: 1-D arrays for one density, or one row per density.  Each
    row's cdf is the composite trapezoid cumulative of exp(vals - peak) on
    its nodes, normalised to end at 1.  The table does not look for the
    mass: each caller lays its grid where the mass lies (``mass_window``
    for the step-law tables of ``sampler.tilted_table``, Laplace or mass
    windows for the pair conditionals).  For those step-law tables, 4097
    nodes on the mass window, the piecewise-linear cdf that ``ppf``
    inverts is within 3e-5 of an independent quadrature cdf for unit-exponential steps
    (h^2 / 8 times the density's slope at 0) and within 1e-6 for power
    beta = 2, 2/sin, 3/sin, ``exp`` and Weibull k = 3, plain and tilted to
    1.2 EX.

    A 1-D table inverts through a guide table (indexed search: Chen & Asau
    1974; Devroye 1986, *Non-Uniform Random Variate Generation*, III.2.4),
    built on first use: M = 4 x nodes buckets, a draw u in bucket
    ``floor(u M)`` (clipped to [0, M]), and per bucket its start interval
    and the cdf of the next node.  A bucket holding at most one node finds
    a draw's interval with one comparison; draws in the rare bucket holding
    two or more go to ``np.interp``, as do u outside [cdf[0], cdf[-1]),
    NaN and +-inf.  The value is np.interp's own arithmetic on that
    interval, so ``ppf`` returns ``np.interp(u, cdf, x)`` bit for bit.
    """

    x: Array
    cdf: Array
    _guide: tuple[Array, Array, Array] | None = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def build(cls, xs: Array, vals: Array) -> "GridInverseCdf":
        peak = vals.max(axis=-1, keepdims=True)
        if not peak.min() > -np.inf:
            raise NonIntegrable("log-density is not finite anywhere on the table grid")
        # The trapezoid cells of every row from one flat pass: the entry at a
        # row's first node, a cell across the row boundary, is set to 0.
        w = np.exp(vals - peak).ravel()
        x_flat = xs.ravel()
        cdf = np.empty(w.size)
        cells = np.subtract(x_flat[1:], x_flat[:-1], out=cdf[1:])
        cells *= w[1:] + w[:-1]
        cells /= 2.0
        cdf = cdf.reshape(xs.shape)
        cdf[..., 0] = 0.0
        np.add.accumulate(cdf, axis=-1, out=cdf)
        total = cdf[..., -1:]
        if not (total.min() > 0.0 and total.max() < np.inf):
            raise NonIntegrable("density mass vanished on the table grid")
        cdf /= total
        return cls(x=xs, cdf=cdf)

    def ppf(self, u: Array) -> Array:
        """Inverse cdf: any shape of u for one density, one u per row for
        many, clamped to [0, 1].

        For one density this is ``np.interp(u, cdf, x)`` bit for bit, through
        the guide (see the class docstring)."""
        u = np.asarray(u, dtype=float)
        if self.cdf.ndim == 1:
            return self._guided_ppf(u)
        # Node k is the first with cdf >= u (every row ends at cdf 1), and at
        # least node 1; interpolate on [k - 1, k].
        u = u.clip(0.0, 1.0)
        rows, points = self.cdf.shape
        k = np.maximum((self.cdf >= u[:, None]).argmax(axis=1), 1)
        k += np.arange(0, rows * points, points)
        below = k - 1
        c0, c1 = self.cdf.take(below), self.cdf.take(k)
        x0, x1 = self.x.take(below), self.x.take(k)
        return x0 + (u - c0) / np.maximum(c1 - c0, _TINY) * (x1 - x0)

    def _guided_ppf(self, u: Array) -> Array:
        if self._guide is None:
            self._guide = _guide_table(self.cdf, self.x)
        start, threshold, slope = self._guide
        buckets = start.size - 1
        flat = u.ravel()
        # out, k and tmp are the draw-sized buffers, each reused where it can be.
        out = flat * buckets
        np.minimum(out, buckets, out=out)
        with np.errstate(invalid="ignore"):  # NaN and -inf: any index, clipped by take
            k = out.astype(np.intp)
        # The interval k with cdf[k] <= u < cdf[k + 1]: -1 below the table or
        # in a crowded bucket (threshold inf), len(cdf) - 1 at or past its end.
        past = threshold.take(k, mode="clip", out=out) <= flat
        k = start.take(k, mode="clip")
        k += past
        # slope * (u - cdf[k]) + x[k] as np.interp computes it; k = -1 wraps
        # to the NaN slope, so every draw left over comes out non-finite.
        np.subtract(flat, self.cdf.take(k, mode="wrap", out=out), out=out)
        tmp = slope.take(k, mode="wrap")
        out *= tmp
        out += self.x.take(k, mode="wrap", out=tmp)
        redo = np.flatnonzero(~np.isfinite(out))
        if redo.size:
            out[redo] = np.interp(flat[redo], self.cdf, self.x)
        return out[0] if u.ndim == 0 else out.reshape(u.shape)


def _guide_table(cdf: Array, x: Array) -> tuple[Array, Array, Array]:
    """The guide of a 1-D table, for 4 buckets per node plus one that holds
    u = 1: per bucket the last node in a lower bucket and the cdf of the
    node after it (-1 and inf where the bucket holds two or more nodes),
    and np.interp's slopes followed by a NaN.

    Nodes fall in buckets by the same map as draws, and u -> bucket does
    not decrease, so a draw's interval is its bucket's start plus the count
    of that bucket's nodes at or below it: exact at every bucket edge."""
    n = cdf.size
    buckets = 4 * n
    count = np.bincount(np.clip(cdf * buckets, 0, buckets).astype(np.intp),
                        minlength=buckets + 1)
    start = np.cumsum(count) - count - 1
    threshold = cdf[np.minimum(start + 1, n - 1)]
    crowded = count > 1
    start[crowded], threshold[crowded] = -1, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):  # the flat cdf = 1 tail
        slope = np.append(np.diff(x) / np.diff(cdf), np.nan)
    return start, threshold, slope


def _in_blocks(f: Callable[[slice], Array], n: int, per: int) -> Array:
    """f(s) over slices s of range(n), at most ``per`` long, concatenated."""
    if n <= per:
        return f(slice(None))
    return np.concatenate([f(slice(s, s + per)) for s in range(0, n, per)])


def _linspace_rows(lo: Array, hi: Array, ramp: Array) -> Array:
    """np.linspace(lo[k], hi[k], ramp.size) in row k, computed the same way."""
    step = (hi - lo) / (ramp.size - 1)
    xs = ramp * step[:, None] + lo[:, None]
    xs[:, -1] = hi
    return xs
