"""Conditional sampling and rare-event estimation for band events.

Two complementary machines: exponential-tilt importance sampling for
probabilities under the exceedance conditioning (sum at least n a), and a
fixed-sum Gibbs sampler for the exact conditional law given the sum.  All
weight arithmetic stays in log space; unconditional probabilities far
below double-underflow are still reported through their logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import FIRST_POSITIVE, PerturbedDensity
from .errors import DegenerateWeights, DomainError, NoConvergence, NonIntegrable, require_counts
from .quadrature import (MASS_DROP, Array, GridInverseCdf, _linspace_rows, _mass_level,
                         mass_window)
from .ratefn import _rate_points, _tilted_ell

METHODS = ("TiltedIS", "FixedSumGibbs")

# Normal quantile of LocalizationEstimate.wilson_interval (95% two-sided).
_WILSON_Z = 1.96
# Nodes of each pair-conditional table, and the sweeps a Gibbs chain runs
# before it records states.
_PAIR_POINTS = 512
_PAIR_RAMP = np.arange(_PAIR_POINTS, dtype=float)
_BURN_IN = 100
# Envelope nodes of an exact pair draw and their spacing in Laplace sds of
# the offset (see ``_log_concave_pair_draws``): nodes out to 4 sds keep the
# chord envelope within 1.5% of a Gaussian's mass.  w / _LAPLACE_SDS is
# that sd; _FLAT is the slope that stands for 0 in the envelope; rounds
# beyond _MAX_ROUNDS mean the envelope is not working.
_ENVELOPE_NODES = 20
_NODE_SPACING = 0.2
_NODE_RAMP = np.arange(1.0, _ENVELOPE_NODES + 1.0)
_LAPLACE_SDS = math.sqrt(2.5 * MASS_DROP)
_FLAT = 1e-200
_MAX_ROUNDS = 64
# Step values drawn, inverted and reduced at a time by the TiltedIS and
# conditioned-path loops, in whole n-vectors: 256 KB a float array, so a
# block's uniforms, draws and ppf temporaries stay in cache, while blocks
# much smaller lose to per-block overhead.
_DRAW_BLOCK = 32_768


def _block_rows(n: int) -> int:
    """The n-vectors in one draw block: at least one."""
    return max(1, _DRAW_BLOCK // n)


@dataclass(frozen=True)
class EndValueAtLeast:
    """Exceedance conditioning: the sum of the steps is at least ``total``."""

    total: float

    def check(self, end: float) -> None:
        if end < self.total:
            raise DomainError("end value fell below the exceedance target")


@dataclass(frozen=True)
class EndValueEquals:
    """Fixed-sum conditioning: the sum of the steps equals ``total``."""

    total: float

    rel_tol = 1e-9

    def check(self, end: float) -> None:
        if abs(end - self.total) > self.rel_tol * self.total:
            raise DomainError("end value drifted from the fixed target")


@dataclass(frozen=True, eq=False)
class ConditionedSample:
    """One conditioned n-vector, drawn from the exact conditional law."""

    values: np.ndarray
    constraint: EndValueAtLeast | EndValueEquals

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if np.any(self.values <= 0.0):
            raise DomainError("sample coordinates must be positive")
        self.constraint.check(float(self.values.sum()))


@dataclass(frozen=True)
class LocalizationEstimate:
    p_hat: float
    std_err: float
    n_eff: float
    replications: int

    def __post_init__(self):
        # p_hat +- 3 std_err may leave [0, 1]: near p = 1 a short chain's
        # batch-means error is wide although the estimate is valid.
        if not (-0.05 <= self.p_hat <= 1.05 and math.isfinite(self.std_err)):
            raise NoConvergence(
                f"estimate {self.p_hat:.4g} +- {self.std_err:.4g} is not a probability "
                "with a finite error"
            )
        if self.n_eff > self.replications * (1.0 + 1e-12):
            raise NoConvergence("effective sample size exceeds the replication count")

    def wilson_interval(self) -> tuple[float, float]:
        """95% Wilson (1927) score interval for p_hat with n_eff as the count.

        Unlike p_hat +- 1.96 std_err it keeps a nonzero width at zero or all
        hits, where the plug-in error is 0: at p_hat = 0 the upper end is
        z^2 / (n_eff + z^2).  The interval always contains p_hat.
        """
        m, p = self.n_eff, self.p_hat
        z2 = _WILSON_Z * _WILSON_Z
        centre = (p + z2 / (2.0 * m)) / (1.0 + z2 / m)
        half = (_WILSON_Z / (1.0 + z2 / m)
                * math.sqrt(max(p * (1.0 - p), 0.0) / m + z2 / (4.0 * m * m)))
        return max(min(centre - half, p), 0.0), min(max(centre + half, p), 1.0)


@dataclass(frozen=True)
class ImportanceResult:
    """Raw tilted-IS output: exceedance and band-cap probabilities plus the
    conditional estimate.  Probabilities deeper than double underflow stay
    available through the log fields."""

    log_p_c: float
    p_c: float
    p_c_std_err: float
    log_p_band_and_c: float
    p_band_and_c: float
    p_band_and_c_std_err: float
    conditional: LocalizationEstimate
    tilt: float
    log_mgf_at_tilt: float
    trials: int


@dataclass(frozen=True, eq=False)
class TiltedLaw:
    """The step law tilted to mean a: its tilt t, Lambda(t) = log E exp(tX)
    and its inverse-CDF table.  The plain law has t = 0 and Lambda = 0."""

    tilt: float
    log_mgf: float
    table: GridInverseCdf


def tilted_table(model: PerturbedDensity, t: float) -> GridInverseCdf:
    """Inverse-CDF table of the tilted density; t=0 gives the plain law.

    The one builder of a step-law table: 4097 nodes on the mass window,
    searched from ``FIRST_POSITIVE``: the support is open at 0, where the
    log-density is -inf, so a node at 0 would give the first trapezoid
    cell half its mass wherever p(0+) > 0.
    """
    ell = _tilted_ell(model, t)
    lo, hi, _ = mass_window(ell, FIRST_POSITIVE, 8.0)
    xs = np.linspace(lo, hi, 4097)
    return GridInverseCdf.build(xs, ell(xs))


def tilted_law(model: PerturbedDensity, a: float) -> TiltedLaw:
    """The law tilted to mean a (the plain law at or below the mean, with
    Lambda exactly 0), built once per (model, a) and memoised on the model.
    Every step draw, plain or tilted, comes from its table."""
    if not 0.0 < a < math.inf:
        raise DomainError(f"tilted law needs a finite mean a > 0, got {a!r}")

    def build() -> TiltedLaw:
        t, lam = _rate_points(model, [float(a)])[0][1:3] if a > model.mean else (0.0, 0.0)
        return TiltedLaw(t, lam, tilted_table(model, t))

    return model.derived(("tilted_law", float(a)), build)


def importance_estimate(model: PerturbedDensity, n: int, a: float, eps: float,
                        trials: int, seed: int) -> ImportanceResult:
    """Tilted-IS estimates of P(C), P(I and C), and P(I | C).

    Draws i.i.d. n-vectors from ``tilted_law(model, a)`` (the plain law
    when a sits at or below the mean, in which case every weight is exactly
    one), with weights exp(n Lambda(t) - t S).  Band membership uses strict
    inequalities.  Deterministic for a given seed.

    The vectors are drawn, inverted and reduced to their sums and band
    flags block by block, in the order of the stream, about ``_DRAW_BLOCK``
    step values at a time: memory per call is the block plus a few
    ``trials``-length arrays, and the result does not depend on the block.
    """
    require_counts(n=n, trials=trials, seed=seed)
    if trials < 1000:
        raise DomainError("importance sampling needs at least 1000 trials")
    if n < 1 or a <= 0.0 or eps < 0.0:
        raise DomainError("need n >= 1, a > 0, eps >= 0")
    law = tilted_law(model, a)
    rng = np.random.default_rng(seed)
    sums = np.empty(trials)
    in_band = np.empty(trials, dtype=bool)
    rows = _block_rows(n)
    uniforms = np.empty((min(rows, trials), n))
    for start in range(0, trials, rows):
        draws = law.table.ppf(rng.random(out=uniforms[:trials - start]))
        block = slice(start, start + len(draws))
        sums[block] = draws.sum(axis=1)
        in_band[block] = ((draws > a - eps) & (draws < a + eps)).all(axis=1)
    log_w = n * law.log_mgf - law.tilt * sums

    in_c = sums > n * a
    in_band &= in_c

    if not np.any(in_c):
        raise DegenerateWeights("no draw satisfied the exceedance event")
    log_trials = math.log(trials)
    log_m1_c = _log_sum_exp(log_w[in_c]) - log_trials
    log_m1_band = _log_sum_exp(log_w[in_band]) - log_trials if np.any(in_band) else -math.inf

    # Shift by the exceedance mean so the per-draw weight terms are O(1).
    # Only draws in C are exponentiated: a draw far below n a has a weight
    # that overflows, and its term is zero anyway.
    c_terms = np.zeros(trials)
    c_terms[in_c] = np.exp(log_w[in_c] - log_m1_c)
    band_terms = np.where(in_band, c_terms, 0.0)

    n_eff = float(c_terms.sum() ** 2 / (c_terms**2).sum())
    if n_eff < 30.0:
        raise DegenerateWeights(
            f"effective sample size {n_eff:.1f} below 30; widen the budget"
        )

    p_c = math.exp(log_m1_c)
    p_c_se = p_c * float(np.sqrt(np.mean((c_terms - 1.0) ** 2) / trials))
    ratio = math.exp(log_m1_band - log_m1_c)
    p_band = math.exp(log_m1_band)
    band_mean = float(np.mean(band_terms))
    p_band_se = p_c * float(np.sqrt(np.mean((band_terms - band_mean) ** 2) / trials))
    # Delta-method error for the ratio estimator sum(b) / sum(c).
    ratio_se = float(np.sqrt(np.mean((band_terms - ratio * c_terms) ** 2) / trials))

    conditional = LocalizationEstimate(
        p_hat=ratio,
        std_err=min(ratio_se, 1.0),
        n_eff=min(n_eff, float(trials)),
        replications=trials,
    )
    return ImportanceResult(
        log_p_c=log_m1_c,
        p_c=p_c,
        p_c_std_err=p_c_se,
        log_p_band_and_c=log_m1_band,
        p_band_and_c=p_band,
        p_band_and_c_std_err=p_band_se,
        conditional=conditional,
        tilt=law.tilt,
        log_mgf_at_tilt=law.log_mgf,
        trials=trials,
    )


def _log_sum_exp(a: Array) -> float:
    """log(sum(exp(a))) of a nonempty finite array, in the arithmetic of
    ``scipy.special.logsumexp`` (scipy 1.17): the maxima, ties included, are
    factored out, and the other terms, shifted by the maximum, are summed in
    place and added through log1p."""
    top = a.max()
    tied = a == top
    rest = np.exp(np.where(tied, -np.inf, a) - top).sum()
    ties = np.float64(np.count_nonzero(tied))
    return float(np.log1p(rest / ties) + np.log(ties) + top)


def pair_conditional_table(model: PerturbedDensity, s: Array) -> GridInverseCdf:
    """Half-tables of the pair conditionals, one row per pair sum in s.

    ``gibbs_fixed_sum`` uses them for perturbed and tabulated models only,
    whose pair conditionals need not be log-concave; pure analytic models
    draw their pairs exactly (``_log_concave_pair_draws``).

    Row k tabulates the density proportional to p(u) p(s_k - u) on
    (0, s_k / 2].  That density is symmetric about s_k / 2, so its cdf there
    is exactly 1/2, and reflecting a half-table draw u to s_k - u with
    probability 1/2 draws from the whole conditional on (0, s_k).

    Its log-density peaks at s_k / 2 with curvature 2 g''(s_k / 2), so by
    Laplace's method it falls ``MASS_DROP`` below its peak at about
    sqrt(MASS_DROP / g''(s_k / 2)) from s_k / 2.  Each row's first grid is
    that window with a margin, [s_k / 2 - w, s_k / 2] with
    w = sqrt(1.25 MASS_DROP / g''(s_k / 2)), or (0, s_k / 2] where g''
    there is not finite and positive or the window reaches past 0; as in
    ``tilted_table``, no grid starts below the first positive float.  A
    window row whose first cell lies outside its mass and whose upper half
    lies inside it is whole: the one ``ell`` pass over all rows is its
    table.  Any other row keeps its first grid if its mass, padded by a
    node a side, spans half the grid and, on a window, misses the first
    node; if not, such as a perturbed density bent away from its Laplace
    shape, it is laid again on the ``mass_window`` of its half-density.
    Where w, or that window, is below ``_PAIR_POINTS`` float spacings, no
    grid of floats resolves the conditional: a Laplace row is then a point
    mass at s_k / 2, which it draws exactly, and a mass window raises
    ``NonIntegrable``.
    """
    s = np.asarray(s, dtype=float)
    half = s / 2.0
    start = _pair_window_start(model, half)
    point = start == half
    if point.any():
        x = np.repeat(half[:, None], _PAIR_POINTS, axis=1)
        cdf = np.ones_like(x)
        cdf[:, 0] = 0.0
        if not point.all():
            rest = pair_conditional_table(model, s[~point])
            x[~point], cdf[~point] = rest.x, rest.cdf
        return GridInverseCdf(x=x, cdf=cdf)

    def ell(us: Array, rows: Array | slice) -> Array:
        # u and s - u in one array, so the kernel runs once (np.stack costs
        # more than the subtraction at a matching's few rows).
        both = np.empty((2, *us.shape))
        both[0] = us
        np.subtract(s[rows, None], us, out=both[1])
        both = model._log_kernel(both)
        return both[0] + both[1]

    xs = _linspace_rows(start, half, _PAIR_RAMP)
    vals = ell(xs, slice(None))
    windowed = start > FIRST_POSITIVE
    peak = vals.max(axis=1)
    edge = peak - MASS_DROP
    whole = (windowed & (np.maximum(vals[:, 0], vals[:, 1]) <= edge)
             & (vals[:, _PAIR_POINTS // 2:].min(axis=1) > edge))
    if not whole.all():
        # The mass is the nodes above _mass_level, padded by a node a side.
        scan = np.flatnonzero(~whole)
        keep = vals[scan] > _mass_level(peak[scan])[:, None]
        first = np.maximum(keep.argmax(axis=1) - 1, 0)
        last = np.minimum(_PAIR_POINTS - keep[:, ::-1].argmax(axis=1), _PAIR_POINTS - 1)
        missed = scan[(windowed[scan] & (first == 0)) | (last - first + 1 < _PAIR_POINTS // 2)]
        if missed.size:
            # The half-density is -inf above s / 2, and its window is cut there.
            top = half[missed]

            def half_ell(us, rows):
                out = ell(np.minimum(us, top[rows, None]), missed[rows])
                out[us > top[rows, None]] = -np.inf
                return out

            lo, hi, _ = mass_window(half_ell, np.full(missed.size, FIRST_POSITIVE), top)
            hi = np.minimum(hi, top)
            if np.any(hi - lo < _PAIR_POINTS * np.spacing(hi)):
                raise NonIntegrable("density mass narrower than float resolution")
            xs[missed] = _linspace_rows(lo, hi, _PAIR_RAMP)
            vals[missed] = ell(xs[missed], missed)
    return GridInverseCdf.build(xs, vals)


def _laplace_half_width(model: PerturbedDensity, half: Array) -> Array:
    """w = sqrt(1.25 MASS_DROP / g''(half)), the half-width of each pair
    conditional's Laplace window (see ``pair_conditional_table``): inf
    where g'' is 0, and NaN where it is not finite and positive (0 / 0
    where it is inf).  Callers silence the divisions' warnings."""
    curvature = model.exponent.d2g(half)
    return np.sqrt(1.25 * MASS_DROP / curvature) / (curvature < np.inf)


def _pair_window_start(model: PerturbedDensity, half: Array) -> Array:
    """Left edge of each pair half-table's first grid on (0, half]: the
    Laplace window's half - w (see ``pair_conditional_table``), the first
    positive float where g''(half) is not finite and positive or the
    window reaches past it, and half where w is below float resolution."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = _laplace_half_width(model, half)
    # fmax starts the rows where w is inf or NaN at the first positive
    # float, none a point mass.
    return np.where(w < _PAIR_POINTS * np.spacing(half), half, np.fmax(half - w, FIRST_POSITIVE))


def _log_concave_pair_draws(model: PerturbedDensity, s: Array,
                            rng: np.random.Generator) -> Array:
    """The larger coordinate u = m + d of each pair, m = s_k / 2, drawn
    exactly from the pair conditional p(u) p(s_k - u) on (0, s_k) of a pure
    model whose pair laws are log-concave
    (``ExponentModel.log_concave_pairs``); reflected to s_k - u with
    probability 1/2, it is a draw of that conditional.  s_k - u is exact by
    Sterbenz's lemma, so u and s_k - u sum to s_k exactly.

    The offset d has log-density H(d) = -(g(m + d) + g(m - d) - 2 g(m)) on
    [0, m), from ``symmetric_gap``: relative to the peak, so it keeps its
    resolution where g(m) is 1e17 or more.  H is concave with its maximum
    0 at d = 0, so an envelope built from its values alone bounds it
    (Devroye 1986, *Non-Uniform Random Variate Generation*, ch. VII;
    Gilks & Wild 1992, *Appl. Statist.* 41).  Its nodes are k delta for
    k = 1..``_ENVELOPE_NODES``, where delta is ``_NODE_SPACING`` Laplace
    sds 1/sqrt(2 g''(m)) of d, or m / (``_ENVELOPE_NODES`` + 1) where that
    is smaller.  The envelope is flat at 0 up to the first node; from each
    node on it follows the chord through that node and the one before
    it, extended.  No difference of g' is taken.  Each round draws one
    offset a pair from the piecewise-exponential envelope and keeps it
    with probability exp(H - envelope); the pairs rejected go to the next
    round.  A proposal whose H lies above the envelope by more than
    rounding raises ``NoConvergence``: H is not concave there.  Rows whose
    Laplace window is under ``_PAIR_POINTS`` float spacings are the point
    mass at m, as in ``pair_conditional_table``; where g''(m) is not
    finite the pair law has no scale, and ``NonIntegrable`` is raised.
    """
    half = 0.5 * s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = _laplace_half_width(model, half)
        drawn = w >= _PAIR_POINTS * np.spacing(half)
        if not drawn.all():
            if np.isnan(w).any():
                raise NonIntegrable("pair log-density has no finite curvature at s/2")
            out = half.copy()
            if drawn.any():
                out[drawn] = _log_concave_pair_draws(model, s[drawn], rng)
            return out
        nodes = _ENVELOPE_NODES
        delta = np.minimum(w * (_NODE_SPACING / _LAPLACE_SDS), half * (1.0 / (nodes + 1)))
        # In units of delta, piece k of the envelope runs from node k (node
        # 0 is d = 0) to node k + 1, or to m from the last node, with log
        # height -gap[k] at its start and slope b[k]: the chord from node
        # k - 1, with piece 0 flat as if there were a node -1 at height 0.
        padded = np.zeros((s.size, nodes + 2))
        padded[:, 2:] = model.exponent.symmetric_gap(half[:, None], delta[:, None] * _NODE_RAMP)
        gap = padded[:, 1:]
        # fmin keeps each slope below 0, and turns the NaN of two inf gaps
        # into a piece of no mass.
        b = np.fmin(padded[:, :-1] - gap, -_FLAT)
        height = np.exp(-gap)
        rise = b.copy()
        rise[:, -1] *= half / delta - nodes
        mass = np.expm1(rise)
        mass *= height
        mass /= b
        ends = np.add.accumulate(mass, axis=1)
        total = ends[:, -1].copy()
        below = ends - mass
        # The last piece also takes whatever level rounding puts past the end.
        ends[:, -1] = np.inf
        # A level l in piece k lies x = log1p((l - below[k]) slant[k]) / b[k]
        # past its start, with slant = b / height.
        slant = np.divide(b, height, out=height)
        starts = np.arange(0, s.size * (nodes + 1), nodes + 1)
        top = np.nextafter(s, 0.0)
        out, pos = None, None
        for _ in range(_MAX_ROUNDS):
            level, keep = rng.random((2, s.size))
            level *= total
            piece = (ends > level[:, None]).argmax(axis=1)
            flat = starts + piece
            b_k = b.ravel()[flat]
            x = np.log1p((level - below.ravel()[flat]) * slant.ravel()[flat])
            x /= b_k
            d = (piece + x) * delta
            # The envelope's depth below the peak, and H above the envelope.
            depth = gap.ravel()[flat] - b_k * x
            excess = depth - model.exponent.symmetric_gap(half, d)
            if excess.max() > 1e-9 * (1.0 + depth.max()):
                raise NoConvergence("pair log-density rose above its concave envelope")
            ok = keep < np.exp(excess)
            u = np.minimum(half + d, top)
            if out is None:
                if ok.all():
                    return u
                out, pos = u, np.arange(s.size)
            else:
                out[pos[ok]] = u[ok]
            rest = ~ok
            if not rest.any():
                return out
            pos, s, half, top, delta = pos[rest], s[rest], half[rest], top[rest], delta[rest]
            gap, b, slant, ends, below, total = (gap[rest], b[rest], slant[rest], ends[rest],
                                                 below[rest], total[rest])
            starts = starts[:pos.size]
    raise NoConvergence(f"no exact pair draw accepted in {_MAX_ROUNDS} rounds")


def gibbs_fixed_sum(model: PerturbedDensity, n: int, s_total: float,
                    sweeps: int, seed: int) -> list[ConditionedSample]:
    """Fixed-sum Gibbs chain started at the all-equal point.

    Each sweep applies two uniformly random matchings, the first
    2 floor(n/2) entries of a random permutation taken in pairs.  Every pair
    of a matching redistributes its sum s by drawing one coordinate from
    the conditional p(u) p(s-u) on (0, s), all pairs at once; disjoint pair
    updates commute, so the matching keeps the fixed-sum law.  The total
    is invariant by construction; states are recorded once per sweep after
    the first 100.

    The pair draw follows what the model guarantees.  A pure model with an
    analytic exponent (power, Weibull, ``exp``: ``log_concave_pairs``) has
    a convex g, so every pair conditional is log-concave, and its pairs are
    drawn exactly by ``_log_concave_pair_draws``, with no table; the pair
    sums stay exact.  A perturbed or tabulated model has no log-concavity
    guarantee, and its matchings keep the table path: one
    ``pair_conditional_table`` build, one ``ell`` pass where every pair lies
    on its Laplace window, and one batched ``ppf`` with one uniform per
    pair.  The two paths draw from the stream differently, so a chain's
    states depend on its path as well as its seed.
    """
    require_counts(n=n, sweeps=sweeps)
    if n < 2:
        raise DomainError("fixed-sum Gibbs needs n >= 2")
    if not 0.0 < s_total < math.inf:
        raise DomainError(f"total must be positive and finite, got {s_total!r}")
    if sweeps < 1:
        raise DomainError("need at least one recorded sweep")
    rng = np.random.default_rng(seed)
    x = np.full(n, s_total / n)
    constraint = EndValueEquals(s_total)
    pairs = n // 2
    exact = model.is_pure and model.exponent.log_concave_pairs
    out: list[ConditionedSample] = []
    for sweep in range(_BURN_IN + sweeps):
        for _ in range(2):
            i, j = rng.permutation(n)[: 2 * pairs].reshape(pairs, 2).T
            s = x[i] + x[j]
            if exact:
                # The permutation orders each pair at random, so giving the
                # larger coordinate to i reflects it with probability 1/2.
                x[i] = _log_concave_pair_draws(model, s, rng)
                x[j] = s - x[i]
            else:
                # One uniform per pair: 2v below 1 inverts the lower
                # half-table, above 1 the reflected upper half, so the map
                # is the whole conditional's inverse cdf.
                v = 2.0 * rng.random(pairs)
                upper = v > 1.0
                u = pair_conditional_table(model, s).ppf(np.where(upper, 2.0 - v, v))
                rest = s - u
                x[i] = np.where(upper, rest, u)
                x[j] = np.where(upper, u, rest)
        if sweep >= _BURN_IN:
            out.append(ConditionedSample(values=x.copy(), constraint=constraint))
    return out


def _batch_means_std_err(indicators: np.ndarray) -> tuple[float, float]:
    """(std_err, n_eff) for a correlated 0/1 sequence via batch means."""
    m = indicators.size
    batches = max(int(math.isqrt(m)), 2)
    size = m // batches
    used = batches * size
    means = indicators[:used].reshape(batches, size).mean(axis=1)
    se = float(means.std(ddof=1)) / math.sqrt(batches)
    p = float(indicators.mean())
    if se == 0.0:
        return 0.0, float(m)
    n_eff = min(p * (1.0 - p) / se**2 if 0.0 < p < 1.0 else float(m), float(m))
    return se, max(n_eff, 1.0)


def estimate_localization(model: PerturbedDensity, n: int, a: float, eps: float,
                          method: str, budget: int, seed: int) -> LocalizationEstimate:
    """P(all coordinates strictly inside (a-eps, a+eps) | conditioning).

    TiltedIS conditions on the sum exceeding n a; FixedSumGibbs conditions
    on the sum equal to n a (the boundary case) with batch-means errors,
    which need a budget of at least 2 sweeps.
    The band must be nonempty: eps is positive and finite.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"band half-width eps must be positive and finite, got {eps!r}")
    if method == "TiltedIS":
        return importance_estimate(model, n, a, eps, budget, seed).conditional
    if method == "FixedSumGibbs":
        if budget < 2:
            raise DomainError("batch-means errors need at least 2 recorded sweeps")
        states = gibbs_fixed_sum(model, n, n * a, sweeps=budget, seed=seed)
        values = np.array([s.values for s in states])
        flags = np.all((values > a - eps) & (values < a + eps), axis=1).astype(float)
        se, n_eff = _batch_means_std_err(flags)
        return LocalizationEstimate(
            p_hat=float(flags.mean()),
            std_err=se,
            n_eff=n_eff,
            replications=flags.size,
        )
    raise DomainError(f"unknown method {method!r}; choices: {', '.join(METHODS)}")
