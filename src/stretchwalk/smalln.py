"""Exact sum probabilities for two- and three-step walks.

At n = 2 or 3 the events {S_n >= n a} and {all steps in the band, S_n >=
n a} are low-dimensional enough to integrate directly, entirely in the
log domain so that values at the e^-30 scale do not underflow.  Both are
one computation, the probability that all steps lie in (lo, hi] and sum
to at least n a: the support ends at ``support_cap``, so the exceedance
is the band (0, support_cap].  These
numbers anchor the certified bounds and the samplers at desk scale, where
nothing asymptotic can hide.  Their accuracy at n = 2 is that of the
survival table.  Its panels are Simpson's rule, off by about h^4 / 2880
times the fourth derivative of p: against 30-digit references, log S is
within 3e-14 for unit-exponential steps, 7e-14 for ``exp``, 2e-12 for
power beta = 2, Weibull k = 3 and the sin perturbations of power beta = 2,
3 and Weibull k = 3, 3e-12 for power beta = 8 and 6e-10 for power beta =
20 at 2.5 EX.  Next to a kink of p the PCHIP read, not the panels, sets
the error: log S bends there, and reads in the three intervals about it
are off by up to 1e-8 for the sin perturbations and 2e-7 next to the jump
of a tabulated q at its grid's first node.  Reading them exactly would
move no n = 2, 3 value of those models by more than 1.1e-12 (a = 1.6 to
3).  Unit-exponential n = 2 values match
the gamma closed form to 3e-14; at n = 3 the 513-node two-step table sets
the error, about 1e-9.  Nothing here estimates these errors at run time,
as a second panel count would (ROADMAP.md, item 5).

The survival function is tabulated once per model by a right-to-left
cumulative Simpson sum over 32,768 panels (positive panels summed
smallest-first, so deep-tail values keep relative accuracy): the density
is evaluated at the nodes and the panel midpoints, and a panel that holds
a perturbation's kink is two Simpson pieces split there.  Every integral
is a fixed composite Gauss-Legendre sum, 16 panels to a
piece, over the interpolated integrand.  The pieces end where the integrand
is not smooth: at the band's edges, at a perturbation's kinks k (where
p(x) bends) and at t - k (where S(t - x) does), and in the third step
where 3a - x crosses 2 lo, 2 hi or lo + hi, where the two-step table
bends.  On smooth pieces the rule has converged: doubling the panels
moves no value of power beta = 1, 2, 3, Weibull k = 3 or the sin
perturbations of the last three by more than 1e-8 in log P (measured at
n = 2, 3 and a = 1.6 to 3; tests/test_smalln.py gates it).  Nothing here
nests adaptive quadrature.
An n = 3 probability reads a 513-node table of the two-step probability,
laid on the levels the third step reads, [max(2 lo, 3a - hi), min(2 hi,
3a - lo)], and built row-wise: one quadrature row per node, in a few
batched integrand calls.  Every log table is the package's one PCHIP,
``density.Pchip``, on a uniform grid: it differs from the tabulated models'
interpolants only in reading its interval by direct index, with no search.
Its coefficients are built _BLOCK_POINTS nodes at a time, so a table build
holds its nodes, its values and its coefficients but only a block of
temporaries.
"""

from __future__ import annotations

import math

import numpy as np

from .density import FIRST_POSITIVE, Pchip, PerturbedDensity
from .errors import DomainError, NonIntegrable, require_counts
from .quadrature import _BLOCK_POINTS, gauss_legendre

Array = np.ndarray

_SMALL_N = (2, 3)
_SURVIVAL_POINTS = 32_769
_PANELS = 16
# Rows per batch of a row-wise _log_quad, and panels per batch: at most 32
# rows of 96 panels (about 0.4 MB per temporary), so rows with more pieces go
# fewer at a time.  At 64 rows of 96 panels a batch's temporaries (about 4 MB)
# could reach glibc's heap trim threshold and be faulted in again every batch:
# 1.5x the time of n = 3 values.
_ROW_BLOCK = 32
_BLOCK_PANELS = _ROW_BLOCK * 96


def _check_n(n: int) -> None:
    require_counts(n=n)
    if n not in _SMALL_N:
        raise DomainError("exact integration covers n = 2 and n = 3 only")


def _log_quad(ell, lo, hi, breakpoints=()):
    """log of the integral of exp(ell) over [lo, hi], split at the breakpoints.

    ``ell`` must accept arrays and may return -inf.  The breakpoints inside
    (lo, hi) cut it into pieces, which should be where ell is not smooth:
    each piece is integrated by composite 16-point Gauss-Legendre over
    _PANELS equal panels, which converges fast only on a smooth piece.  The
    max of ell over all nodes serves as the stabilising shift.  With array
    bounds (and one value per row in each breakpoint) every row is its own
    integral and the result is an array: ``ell(xs, rows)`` gets a (len(rows),
    points) grid whose row i holds the nodes of row rows[i].  Rows with the
    same number of pieces go together, _ROW_BLOCK at a time or fewer within
    _BLOCK_PANELS, each with the scalar call's nodes.
    """
    batched = np.ndim(lo) > 0
    call = ell if batched else (lambda xs, rows: np.asarray(ell(xs[0]), dtype=float)[None, :])
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    cuts = np.array([np.broadcast_to(p, lo.shape) for p in breakpoints]).reshape(-1, lo.size).T
    # Each row's cuts inside (lo, hi), sorted, then NaN.
    cuts = np.sort(np.where((cuts > lo[:, None]) & (cuts < hi[:, None]), cuts, np.nan), axis=1)
    inner = np.count_nonzero(~np.isnan(cuts), axis=1)
    out = np.full(lo.size, -np.inf)
    for k in np.unique(inner[hi > lo]):
        group = np.flatnonzero((hi > lo) & (inner == k))
        block = max(1, min(_ROW_BLOCK, _BLOCK_PANELS // ((k + 1) * _PANELS)))
        for rows in np.split(group, range(block, group.size, block)):
            ends = np.column_stack([lo[rows], cuts[rows, :k], hi[rows]])
            edges = np.linspace(ends[:, :-1].ravel(), ends[:, 1:].ravel(), _PANELS + 1, axis=1)
            xs, ws = gauss_legendre(edges[:, :-1].ravel(), edges[:, 1:].ravel())
            xs, ws = xs.reshape(rows.size, -1), ws.reshape(rows.size, -1)
            vals = np.asarray(call(xs, rows), dtype=float)
            shift = vals.max(axis=1)
            ok = np.isfinite(shift)
            total = np.sum(ws * np.exp(vals - np.where(ok, shift, 0.0)[:, None]), axis=1)
            ok &= total > 0.0
            out[rows[ok]] = shift[ok] + np.log(total[ok])
    return out if batched else float(out[0])


def _log_pdf(model: PerturbedDensity, x: Array) -> Array:
    return model.log_c + model._log_kernel(np.asarray(x, dtype=float))


class _LogTable(Pchip):
    """Vectorised log-values by PCHIP through nodes on a uniform grid, clipped
    to them: 0 (probability one) at or below ``left_edge`` and -inf past the
    last node.  Node 0 may sit right of the grid's origin (the survival
    table's does).  A read finds its interval from the node spacing, with no
    search, so it returns what ``PchipInterpolator`` would, to within
    rounding."""

    def __init__(self, nodes: Array, log_values: Array, left_edge: float = -math.inf):
        super().__init__(nodes, log_values)
        self._left_edge = left_edge
        self._step = (nodes[-1] - nodes[0]) / (nodes.size - 1)

    def __call__(self, t) -> Array:
        t = np.asarray(t, dtype=float)
        x = self.x
        tc = np.clip(t, x[0], x[-1])
        # Within rounding of a node this may pick the neighbouring interval,
        # whose polynomial also passes through that node.
        i = np.minimum(((tc - x[0]) / self._step).astype(np.intp), x.size - 2)
        out = np.where(t <= self._left_edge, 0.0, self._sum(i, tc))
        return np.where(t > x[-1], -np.inf, out)


class _LogSurvival(_LogTable):
    """Vectorised log P(X >= t) from one cumulative pass over the density,
    built _BLOCK_POINTS nodes at a time into one tail array."""

    def __init__(self, model: PerturbedDensity):
        cap = model.support_cap
        xs = np.linspace(0.0, cap, _SURVIVAL_POINTS)
        xs[0] = FIRST_POSITIVE
        # tail[i] holds Simpson panel i, then, summed in place from the right
        # (smallest first), P(X >= xs[i]); the last node's is 0.
        tail = np.empty(xs.size)
        tail[-1] = 0.0
        for s in range(0, xs.size - 1, _BLOCK_POINTS):
            x = xs[s:s + _BLOCK_POINTS + 1]
            tail[s:s + x.size - 1] = _simpson(model, x)
        kinks = np.asarray(model.kinks, dtype=float)
        kinks = kinks[(kinks > xs[0]) & (kinks < xs[-1])]
        # A panel that holds kinks is Simpson pieces split at them.
        bent = np.unique(np.searchsorted(xs, kinks) - 1)
        tail[bent] = _split_simpson(model, xs[bent], xs[bent + 1], kinks)
        panels = tail[-2::-1]
        np.cumsum(panels, out=panels)
        # The tail falls in i, so its positive values are a prefix.
        m = np.count_nonzero(tail > 0.0)
        log_tail = np.log(tail[:m], out=tail[:m])
        super().__init__(xs[:m], log_tail, float(xs[0]))


def _simpson(model: PerturbedDensity, ends: Array) -> Array:
    """Simpson's rule for p on each panel [ends[j], ends[j + 1]], from one
    density call on the ends and midpoints, interleaved."""
    x = np.empty(2 * ends.size - 1)
    x[0::2] = ends
    x[1::2] = 0.5 * (ends[1:] + ends[:-1])
    pdf = np.exp(_log_pdf(model, x))
    return np.diff(ends) / 6.0 * (pdf[:-2:2] + 4.0 * pdf[1::2] + pdf[2::2])


def _split_simpson(model: PerturbedDensity, lo: Array, hi: Array, kinks: Array) -> Array:
    """Simpson's rule for p on each [lo[r], hi[r]], in pieces that end at
    the kinks (ascending) inside it.  Each piece reads p one ulp inside its
    ends, so where q jumps (at a tabulated q's grid ends) a piece takes its
    own side's value."""
    ends = np.column_stack([lo, *(np.clip(k, lo, hi) for k in kinks), hi])
    a, b = ends[:, :-1], ends[:, 1:]
    x = np.stack([np.nextafter(a, np.inf), 0.5 * (a + b), np.nextafter(b, -np.inf)])
    pdf = np.exp(_log_pdf(model, x))
    return ((b - a) / 6.0 * (pdf[0] + 4.0 * pdf[1] + pdf[2])).sum(axis=1)


def _survival(model: PerturbedDensity) -> _LogSurvival:
    return model.derived("survival", lambda: _LogSurvival(model))


def _log1mexp(delta: Array) -> Array:
    """log(1 - exp(delta)) for delta <= 0, -inf at delta == 0."""
    delta = np.asarray(delta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(-np.exp(delta))
    return np.where(delta >= 0.0, -np.inf, out)


def _third_step(model: PerturbedDensity, t_grid: Array, two_step: Array, target: float,
                lo: float, hi: float) -> float:
    """log of the integral over x in [lo, hi] of p(x) P2(target - x), where
    log P2 is the table through the two-step values on t_grid for steps in
    (lo, hi], one at or below 2 lo.  The pieces end at the model's kinks and
    where target - x crosses 2 lo, 2 hi or lo + hi, where P2 bends.  P2
    falls in t, so only a trailing run of the values can be -inf; with none
    finite, P = 0."""
    m = np.count_nonzero(np.isfinite(two_step))
    if not np.all(np.isfinite(two_step[:m])):
        raise NonIntegrable("two-step table is not a run of finite values then -inf")
    if m == 0:
        return -math.inf
    table = _LogTable(t_grid[:m], two_step[:m], 2.0 * lo)
    return _log_quad(lambda x: _log_pdf(model, x) + table(target - x), lo, hi,
                     (target - 2.0 * hi, target - 2.0 * lo, target - lo - hi, *model.kinks))


def _log_prob_steps_in(model: PerturbedDensity, n: int, a: float, lo: float, hi: float) -> float:
    """log P(all n steps in (lo, hi] and S_n >= n a), n in {2, 3}.

    Each step is integrated over (lo, hi] itself, so no integrand needs an
    indicator."""
    if lo >= hi:
        return -math.inf
    tail = _survival(model)
    log_tail_hi = float(tail(hi))
    kinks = model.kinks

    def step_tail(t: Array) -> Array:
        """log P(X in (lo, hi] and X >= t), vectorised over t."""
        t_eff = np.maximum(np.asarray(t, dtype=float), lo)
        upper = tail(t_eff)
        diff = upper if log_tail_hi == -math.inf else upper + _log1mexp(log_tail_hi - upper)
        return np.where(t_eff >= hi, -np.inf, diff)

    def two_step(t: Array) -> Array:
        """log P(X_1, X_2 in (lo, hi] and X_1 + X_2 >= t), one quadrature row
        per level, split where p(y) bends (y = kink) and where the step tail
        at t - y does (y = t - lo, t - hi and t - kink)."""
        return _log_quad(lambda ys, rows: _log_pdf(model, ys) + step_tail(t[rows, None] - ys),
                         np.full_like(t, lo), np.full_like(t, hi),
                         breakpoints=(t - lo, t - hi, *kinks, *(t - k for k in kinks)))

    target = float(n) * a
    if n == 2:
        return float(two_step(np.array([target]))[0])
    # The table is laid on the levels the third step reads, target - x for x
    # in (lo, hi], within the two-step sum's own range (2 lo, 2 hi].
    t_lo, t_hi = max(2.0 * lo, target - hi), min(2.0 * hi, target - lo)
    if t_hi <= t_lo:
        return -math.inf
    t_grid = np.linspace(t_lo, t_hi, 513)
    return _third_step(model, t_grid, two_step(t_grid), target, lo, hi)


def exact_log_prob_exceed(model: PerturbedDensity, n: int, a: float) -> float:
    """log P(S_n >= n a) by direct integration (n in {2, 3}), memoised on the
    model, so the escape and localization probabilities at the same level
    reuse it.  The support ends at ``support_cap``, so this is the band
    probability of steps in (0, support_cap]."""
    _check_n(n)
    if not a > 0.0:
        raise DomainError("sum level must be positive")
    return model.derived(("log_prob_exceed", n, float(a)),
                         lambda: _log_prob_steps_in(model, n, a, 0.0, model.support_cap))


def exact_log_prob_band(model: PerturbedDensity, n: int, a: float, eps: float) -> float:
    """log P(all steps in (a-eps, a+eps) and S_n >= n a), n in {2, 3}."""
    _check_n(n)
    if eps <= 0.0:
        raise DomainError("band halfwidth must be positive for band probabilities")
    if not 0.0 < a - eps:
        raise DomainError("band must stay positive")
    return _log_prob_steps_in(model, n, a, a - eps, min(a + eps, model.support_cap))


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
