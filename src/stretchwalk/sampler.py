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

from .density import PerturbedDensity
from .errors import DegenerateWeights, DomainError, NoConvergence
from .quadrature import Array, GridInverseCdf, mass_window
from .ratefn import _tilt_tol, _tilted_ell, cramer_rate, log_mgf

METHODS = ("TiltedIS", "FixedSumGibbs")

# Normal quantile of LocalizationEstimate.wilson_interval (95% two-sided).
_WILSON_Z = 1.96
# Nodes of each pair-conditional table, and the sweeps a Gibbs chain runs
# before it records states.
_PAIR_POINTS = 512
_BURN_IN = 100


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


def tilt_for_mean(model: PerturbedDensity, a: float) -> float:
    """Tilt t with tilted mean a; zero at the mean, to the tilt solve's tolerance."""
    if a < model.mean - _tilt_tol(a):
        raise DomainError("tilt target must not sit below the mean")
    _, tilt = cramer_rate(model, a)
    return tilt


def tilted_table(model: PerturbedDensity, t: float) -> GridInverseCdf:
    """Inverse-CDF table of the tilted density; t=0 gives the plain law."""
    ell = _tilted_ell(model, t)
    lo, hi, _ = mass_window(ell, 0.0, 8.0)
    return GridInverseCdf.build(ell, lo, hi)


def importance_estimate(model: PerturbedDensity, n: int, a: float, eps: float,
                        trials: int, seed: int) -> ImportanceResult:
    """Tilted-IS estimates of P(C), P(I and C), and P(I | C).

    Draws i.i.d. n-vectors from the law tilted to mean a (plain law when a
    sits below the mean, in which case every weight is exactly one), with
    weights exp(n Lambda(t) - t S).  Band membership uses strict
    inequalities.  Deterministic for a given seed.
    """
    from scipy.special import logsumexp

    if trials < 1000:
        raise DomainError("importance sampling needs at least 1000 trials")
    if n < 1 or a <= 0.0 or eps < 0.0:
        raise DomainError("need n >= 1, a > 0, eps >= 0")
    t = tilt_for_mean(model, a) if a > model.mean else 0.0
    lam = log_mgf(model, t)
    table = tilted_table(model, t)
    rng = np.random.default_rng(seed)
    draws = table.ppf(rng.random((trials, n)))
    sums = draws.sum(axis=1)
    log_w = n * lam - t * sums

    in_c = sums > n * a
    in_band = ((draws > a - eps) & (draws < a + eps)).all(axis=1) & in_c

    if not np.any(in_c):
        raise DegenerateWeights("no draw satisfied the exceedance event")
    log_trials = math.log(trials)
    log_m1_c = float(logsumexp(log_w[in_c])) - log_trials
    log_m1_band = (float(logsumexp(log_w[in_band])) - log_trials
                   if np.any(in_band) else -math.inf)

    # Shift by the exceedance mean so the per-draw weight terms are O(1).
    shifted = np.exp(log_w - log_m1_c)
    c_terms = np.where(in_c, shifted, 0.0)
    band_terms = np.where(in_band, shifted, 0.0)

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
        tilt=t,
        log_mgf_at_tilt=lam,
        trials=trials,
    )


def pair_conditional_table(model: PerturbedDensity, s: Array) -> GridInverseCdf:
    """Half-tables of the pair conditionals, one row per pair sum in s.

    Row k tabulates the density proportional to p(u) p(s_k - u) on
    (0, s_k / 2].  That density is symmetric about s_k / 2, so its cdf there
    is exactly 1/2, and reflecting a half-table draw u to s_k - u with
    probability 1/2 draws from the whole conditional on (0, s_k).
    """
    s = np.asarray(s, dtype=float)

    def ell(us: Array, rows: Array) -> Array:
        both = model._log_kernel(np.stack((us, s[rows, None] - us)))
        return both[0] + both[1]

    return GridInverseCdf.build(ell, np.zeros_like(s), s / 2.0, points=_PAIR_POINTS)


def gibbs_fixed_sum(model: PerturbedDensity, n: int, s_total: float,
                    sweeps: int, seed: int) -> list[ConditionedSample]:
    """Fixed-sum Gibbs chain started at the all-equal point.

    Each sweep applies two uniformly random matchings, the first
    2 floor(n/2) entries of a random permutation taken in pairs.  Every pair
    of a matching redistributes its sum s by drawing one coordinate from
    the conditional p(u) p(s-u) on (0, s), all pairs at once from one
    batch of half-tables; disjoint pair updates commute, so the matching
    keeps the fixed-sum law.  The total is invariant by construction;
    states are recorded once per sweep after the first 100.
    """
    if n < 2:
        raise DomainError("fixed-sum Gibbs needs n >= 2")
    if s_total <= 0.0:
        raise DomainError("total must be positive")
    if sweeps < 1:
        raise DomainError("need at least one recorded sweep")
    rng = np.random.default_rng(seed)
    x = np.full(n, s_total / n)
    constraint = EndValueEquals(s_total)
    pairs = n // 2
    out: list[ConditionedSample] = []
    for sweep in range(_BURN_IN + sweeps):
        for _ in range(2):
            i, j = rng.permutation(n)[: 2 * pairs].reshape(pairs, 2).T
            s = x[i] + x[j]
            # One uniform per pair: 2v below 1 inverts the lower half-table,
            # above 1 the reflected upper half, so the map is the whole
            # conditional's inverse cdf.
            v = 2.0 * rng.random(pairs)
            upper = v > 1.0
            u = np.maximum(pair_conditional_table(model, s).ppf(np.where(upper, 2.0 - v, v)),
                           1e-300)
            x[i] = np.where(upper, s - u, u)
            x[j] = np.where(upper, u, s - u)
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
    on the sum equal to n a (the boundary case) with batch-means errors.
    The band must be nonempty: eps is positive and finite.
    """
    if not (eps > 0.0 and math.isfinite(eps)):
        raise DomainError(f"band half-width eps must be positive and finite, got {eps!r}")
    if method == "TiltedIS":
        return importance_estimate(model, n, a, eps, budget, seed).conditional
    if method == "FixedSumGibbs":
        states = gibbs_fixed_sum(model, n, n * a, sweeps=budget, seed=seed)
        lo, hi = a - eps, a + eps
        flags = np.array(
            [float(np.all((s.values > lo) & (s.values < hi))) for s in states]
        )
        se, n_eff = _batch_means_std_err(flags)
        return LocalizationEstimate(
            p_hat=float(flags.mean()),
            std_err=se,
            n_eff=n_eff,
            replications=flags.size,
        )
    raise DomainError(f"unknown method {method!r}; choices: {', '.join(METHODS)}")
