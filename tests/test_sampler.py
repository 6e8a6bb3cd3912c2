"""Tests for conditioned sampling: tilted importance sampling and fixed-sum Gibbs."""

import math
import warnings

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import cumulative_trapezoid
from scipy.special import logsumexp
from scipy.stats import binomtest, chi2_contingency, kstwo, norm

from stretchwalk.density import (
    FIRST_POSITIVE,
    PowerExponent,
    TabulatedExponent,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.quadrature import (MASS_DROP, GridInverseCdf, gauss_legendre, log_integral,
                                   mass_window)
from stretchwalk.errors import DegenerateWeights, DomainError, NoConvergence, NonIntegrable
from stretchwalk import sampler
from stretchwalk.paths import estimate_p_ak, simulate_conditioned_path, simulate_free_path
from stretchwalk.ratefn import _tilted_ell, _tilted_stats, cramer_rate
from stretchwalk.sampler import (
    ConditionedSample,
    EndValueAtLeast,
    EndValueEquals,
    LocalizationEstimate,
    _batch_means_std_err,
    _log_sum_exp,
    estimate_localization,
    gibbs_fixed_sum,
    importance_estimate,
    pair_conditional_table,
    tilted_law,
    tilted_table,
)
from stretchwalk.smalln import exact_localization, exact_log_prob_band, exact_log_prob_exceed


@pytest.fixture(scope="module")
def expo():
    return pure_density(PowerExponent(1.0))


@pytest.fixture(scope="module")
def power2():
    return pure_density(PowerExponent(2.0))


@pytest.fixture(scope="module")
def power3():
    return pure_density(PowerExponent(3.0))


@pytest.fixture(scope="module")
def weibull3():
    return pure_density(WeibullExponent(3.0))


class TestTiltedLaw:
    def test_exponential_closed_form(self, expo):
        # For g(x) = x the tilted mean is 1/(1-t), so mean 2 needs t = 1/2,
        # and Lambda(1/2) = log 2.
        law = tilted_law(expo, 2.0)
        assert law.tilt == pytest.approx(0.5, abs=1e-8)
        assert law.log_mgf == pytest.approx(math.log(2.0), rel=1e-6)

    def test_mean_itself_gives_zero(self, expo):
        law = tilted_law(expo, 1.0)
        assert law.tilt == 0.0 and law.log_mgf == 0.0

    def test_self_consistency(self, weibull3):
        law = tilted_law(weibull3, 2.0)
        lam, mean, _, _ = _tilted_stats(weibull3, law.tilt)
        assert abs(mean - 2.0) <= 1e-3
        assert law.log_mgf == lam

    def test_below_mean_gives_plain_law(self, weibull3):
        law = tilted_law(weibull3, 0.5)
        plain = tilted_table(weibull3, 0.0)
        assert law.tilt == 0.0 and law.log_mgf == 0.0
        assert np.array_equal(law.table.x, plain.x)
        assert np.array_equal(law.table.cdf, plain.cdf)

    @pytest.mark.parametrize("level", [1.0, 1.2])
    @pytest.mark.parametrize("spec", ["power:beta=1", "power:beta=2", "power:beta=2/sin", "exp",
                                      "power:beta=3/sin", "weibull:k=3"])
    def test_table_cdf_matches_quadrature(self, spec, level):
        # The piecewise-linear cdf the table draws from, at its nodes and at
        # the midpoints of their cells (where linear interpolation errs
        # most), against log_integral of the tilted density from 0.  The
        # support is open at 0, so the grid starts at the first positive
        # float: a node at 0, where the log-density is -inf, would count
        # only half of the first cell for every model with p(0+) > 0.
        model = parse_model(spec)
        law = tilted_law(model, level * model.mean)
        x, cdf = law.table.x, law.table.cdf
        quantiles = np.searchsorted(cdf, np.linspace(1e-3, 0.999, 40))
        k = np.unique(np.concatenate([[1, 2, 3], quantiles]))
        points = np.concatenate([x[k], 0.5 * (x[k] + x[k + 1])])
        ell = _tilted_ell(model, law.tilt)
        total = log_integral(ell, 0.0, x[-1])
        ref = np.exp(np.array([log_integral(ell, 0.0, p) for p in points]) - total)
        assert np.max(np.abs(np.interp(points, x, cdf) - ref)) <= 5e-5

    @pytest.mark.parametrize("call", [
        lambda m: cramer_rate(m, math.inf),
        lambda m: cramer_rate(m, math.nan),
        lambda m: tilted_law(m, math.inf),
        lambda m: tilted_law(m, math.nan),
        lambda m: simulate_conditioned_path(m, 5, math.nan, EndValueAtLeast(5.0), 1),
        lambda m: gibbs_fixed_sum(m, 5, math.nan, sweeps=1, seed=1),
        lambda m: gibbs_fixed_sum(m, 5, math.inf, sweeps=1, seed=1),
    ], ids=["rate-inf", "rate-nan", "law-inf", "law-nan", "path-nan", "gibbs-nan", "gibbs-inf"])
    def test_nonfinite_level_is_domain_error(self, weibull3, call):
        with pytest.raises(DomainError):
            call(weibull3)

    def test_built_once_per_model_and_mean(self, monkeypatch):
        calls = []
        solve = sampler._rate_points

        def counted(model, xs):
            calls.extend(xs)
            return solve(model, xs)

        monkeypatch.setattr(sampler, "_rate_points", counted)
        model = pure_density(WeibullExponent(3.0))
        a = 1.5 * model.mean
        estimate_p_ak(model, 50, a, 5, 2.0 * model.mean, replications=20, seed=1)
        importance_estimate(model, 5, a, 0.5, trials=1000, seed=2)
        importance_estimate(model, 5, a, 0.5, trials=1000, seed=3)
        assert calls == [a]
        assert tilted_law(model, a) is tilted_law(model, a)
        other = pure_density(WeibullExponent(3.0))
        assert tilted_law(other, a) is not tilted_law(model, a)
        assert calls == [a, a]


class TestImportanceEstimate:
    def test_matches_exact_quadrature_n2(self, power2):
        res = importance_estimate(power2, 2, 3.0, 1.5, trials=200_000, seed=7)
        p_c = math.exp(exact_log_prob_exceed(power2, 2, 3.0))
        p_band = math.exp(exact_log_prob_band(power2, 2, 3.0, 1.5))
        p_loc = exact_localization(power2, 2, 3.0, 1.5)
        assert abs(res.p_c - p_c) <= 3.0 * res.p_c_std_err
        assert abs(res.p_band_and_c - p_band) <= 3.0 * res.p_band_and_c_std_err
        assert abs(res.conditional.p_hat - p_loc) <= 3.0 * res.conditional.std_err

    def test_exponential_exceedance_closed_form(self, expo):
        # For unit-exponential steps S_2 is Gamma(2), so P(S_2 > 2a) is
        # e^{-2a} (1 + 2a).  The density is largest at 0, so a table whose
        # first node sits at x = 0 (log-density -inf) biases P(C) by about
        # 11 standard errors here.
        a = 1.3
        res = importance_estimate(expo, 2, a, 0.3, trials=2_000_000, seed=1)
        exact = math.exp(-2.0 * a) * (1.0 + 2.0 * a)
        assert abs(res.p_c - exact) <= 4.0 * res.p_c_std_err

    def test_deterministic(self, weibull3):
        a = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=99)
        b = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=99)
        assert a.p_c == b.p_c
        assert a.log_p_band_and_c == b.log_p_band_and_c
        assert a.conditional.p_hat == b.conditional.p_hat
        assert a.conditional.n_eff == b.conditional.n_eff

    def test_seed_changes_draws(self, weibull3):
        a = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=1)
        b = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=2)
        assert a.p_c != b.p_c

    def test_weight_bookkeeping_reconstructed(self, weibull3):
        # Rebuild the draw stream with the same seed and check the reported
        # numbers come from log w = n*Lambda(t) - t*S with strict indicators.
        n, a, eps, trials, seed = 6, 2.0, 0.5, 5_000, 123
        res = importance_estimate(weibull3, n, a, eps, trials=trials, seed=seed)
        table = tilted_law(weibull3, a).table
        rng = default_rng(seed)
        draws = table.ppf(rng.random((trials, n)))
        sums = draws.sum(axis=1)
        log_w = n * res.log_mgf_at_tilt - res.tilt * sums
        in_c = sums > n * a
        in_band = in_c & np.all((draws > a - eps) & (draws < a + eps), axis=1)
        log_p_c = logsumexp(log_w[in_c]) - math.log(trials)
        log_p_band = logsumexp(log_w[in_band]) - math.log(trials)
        assert log_p_c == res.log_p_c
        assert log_p_band == res.log_p_band_and_c

    def test_log_sum_exp_matches_scipy(self):
        # Bit for bit against scipy.special.logsumexp: random arrays of
        # lengths on both sides of numpy's pairwise-summation blocks, tied
        # maxima, one element, and a 1e3-nat spread.
        rng = default_rng(11)
        cases = [np.array([-3.25]), np.array([7.0, 7.0]), np.full(300, -2.5)]
        for size in (2, 3, 8, 9, 127, 128, 129, 1000, 20_000):
            cases += [rng.normal(-400.0, 30.0, size), rng.uniform(-1e3, 0.0, size)]
            tied = rng.normal(0.0, 1.0, size)
            tied[rng.integers(0, size, 3)] = tied.max()
            cases += [tied, np.round(rng.normal(0.0, 1.0, size), 1)]
        for a in cases:
            assert _log_sum_exp(a).hex() == float(logsumexp(a)).hex()

    def test_ratio_consistency(self, weibull3):
        res = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=5)
        assert res.conditional.p_hat == pytest.approx(
            math.exp(res.log_p_band_and_c - res.log_p_c), rel=1e-12
        )

    def test_wider_band_no_smaller(self, power2):
        narrow = importance_estimate(power2, 2, 3.0, 0.5, trials=50_000, seed=4)
        wide = importance_estimate(power2, 2, 3.0, 2.99, trials=50_000, seed=4)
        assert wide.conditional.p_hat >= narrow.conditional.p_hat

    def test_below_mean_unconditional_recovery(self, weibull3):
        # Target at or below the mean needs no tilt: weights are exactly one
        # and p_c reduces to the plain Monte Carlo hit fraction.
        mean = weibull3.mean
        res = importance_estimate(weibull3, 4, 0.8 * mean, 0.5, trials=10_000, seed=21)
        assert res.tilt == 0.0
        assert res.log_mgf_at_tilt == 0.0
        draws = tilted_law(weibull3, 0.8 * mean).table.ppf(default_rng(21).random((10_000, 4)))
        assert np.all(np.exp(4 * res.log_mgf_at_tilt - res.tilt * draws.sum(axis=1)) == 1.0)
        assert res.conditional.n_eff == pytest.approx(res.p_c * res.trials, rel=1e-9)

    def test_tiny_trials_rejected(self, weibull3):
        with pytest.raises(DomainError):
            importance_estimate(weibull3, 10, 2.0, 0.5, trials=999, seed=0)

    def test_degenerate_weights_detected(self, weibull3):
        with pytest.raises(DegenerateWeights):
            importance_estimate(weibull3, 50, 2.5, 0.5, trials=1000, seed=2)

    def test_bad_geometry_rejected(self, weibull3):
        with pytest.raises(DomainError):
            importance_estimate(weibull3, 0, 2.0, 0.5, trials=2000, seed=0)
        with pytest.raises(DomainError):
            importance_estimate(weibull3, 10, -1.0, 0.5, trials=2000, seed=0)
        with pytest.raises(DomainError):
            importance_estimate(weibull3, 10, 2.0, -0.5, trials=2000, seed=0)

    def test_zero_width_band_gives_zero(self, weibull3):
        # eps = 0 is a legal degenerate band: the strict inequalities admit
        # no draw, so the conditional probability is exactly zero.
        res = importance_estimate(weibull3, 10, 2.0, 0.0, trials=2000, seed=0)
        assert res.conditional.p_hat == 0.0
        assert res.log_p_band_and_c == -math.inf

    def test_draws_outside_c_do_not_overflow(self):
        # For the cubic at a = 20 the tilt is 3 a^2 = 1200, so a draw whose
        # sum falls short of n a by more than 709 / 1200 has a relative
        # weight past exp(709).  Such draws lie outside C, where the weight
        # terms are zero; only draws in C may be exponentiated.
        model = parse_model("power:beta=3")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = importance_estimate(model, 5, 20.0, 0.5, trials=20_000, seed=7)
        assert res.conditional.p_hat == 1.0 and res.conditional.n_eff > 30.0

    @pytest.mark.parametrize("n", [5, 20])
    @pytest.mark.parametrize("rows", ["ragged", "one row"])
    def test_independent_of_draw_block(self, weibull3, monkeypatch, n, rows):
        # 1,001 trials are not a multiple of 3 rows, so the last block of
        # 3 n + 1 values is ragged; a block below n holds one row.
        def estimate(block):
            monkeypatch.setattr(sampler, "_DRAW_BLOCK", block)
            return importance_estimate(weibull3, n, 2.0, 0.5, trials=1001, seed=3)

        whole = estimate(10**9)
        assert estimate(3 * n + 1 if rows == "ragged" else n - 1) == whole

    def test_numpy_integer_counts_accepted(self, weibull3):
        want = importance_estimate(weibull3, 5, 2.0, 0.5, trials=2000, seed=4)
        got = importance_estimate(weibull3, np.int32(5), 2.0, 0.5, trials=np.int64(2000),
                                  seed=np.uint64(4))
        assert got == want


@pytest.mark.parametrize("call", [
    pytest.param(lambda m: importance_estimate(m, 2.5, 2.0, 0.5, 2000, 0), id="is-n-float"),
    pytest.param(lambda m: importance_estimate(m, True, 2.0, 0.5, 2000, 0), id="is-n-bool"),
    pytest.param(lambda m: importance_estimate(m, 5, 2.0, 0.5, 2000.0, 0), id="is-trials"),
    pytest.param(lambda m: importance_estimate(m, 5, 2.0, 0.5, 2000, 1.5), id="is-seed"),
    pytest.param(lambda m: gibbs_fixed_sum(m, 4.0, 8.0, 1, 0), id="gibbs-n"),
    pytest.param(lambda m: gibbs_fixed_sum(m, 4, 8.0, 2.5, 0), id="gibbs-sweeps"),
    pytest.param(lambda m: simulate_conditioned_path(m, 100.0, 2.0, EndValueAtLeast(200.0), 0),
                 id="path-n"),
    pytest.param(lambda m: simulate_free_path(m, 100.0, 0), id="free-path-n"),
    pytest.param(lambda m: estimate_p_ak(m, 10, 2.0, 3, 1.0, 3.5, 0), id="p-ak-replications"),
])
def test_non_integer_counts_are_domain_errors(weibull3, call):
    with pytest.raises(DomainError, match="must be an integer"):
        call(weibull3)


class TestLocalizationEstimateInvariants:
    def test_probability_range_enforced(self):
        for p_hat, std_err in ((1.4, 0.01), (math.nan, 0.01), (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(NoConvergence):
                LocalizationEstimate(p_hat=p_hat, std_err=std_err, n_eff=100.0,
                                     replications=100)

    def test_n_eff_cannot_exceed_replications(self):
        with pytest.raises(NoConvergence):
            LocalizationEstimate(p_hat=0.5, std_err=0.01, n_eff=101.0, replications=100)

    def test_short_chain_near_one_accepted(self):
        # A valid estimate whose three-sigma band reaches past 1.05: of seeds
        # 0-29, these three give p_hat 0.95 +- 0.05 from 20 sweeps.
        LocalizationEstimate(p_hat=0.95, std_err=0.05, n_eff=19.0, replications=20)
        model = sin_perturbed_density(PowerExponent(3.0))
        for seed in (4, 22, 29):
            est = estimate_localization(model, 20, 5.0, 1.0 / math.log(5.0),
                                        "FixedSumGibbs", 20, seed)
            assert 0.0 <= est.p_hat <= 1.0

    def test_moderate_error_bar_tolerated(self):
        est = LocalizationEstimate(p_hat=0.5, std_err=0.05, n_eff=40.0, replications=100)
        assert est.p_hat == 0.5


class TestWilsonInterval:
    # Reference: scipy's binomial Wilson interval at the level whose normal
    # quantile is 1.96.
    _LEVEL = 2.0 * float(norm.cdf(1.96)) - 1.0

    @pytest.mark.parametrize("hits, trials", [(0, 200), (37, 120), (200, 200)])
    def test_matches_scipy(self, hits, trials):
        p = hits / trials
        est = LocalizationEstimate(p_hat=p, std_err=math.sqrt(p * (1 - p) / trials),
                                   n_eff=float(trials), replications=trials)
        ref = binomtest(hits, trials).proportion_ci(self._LEVEL, method="wilson")
        lo, hi = est.wilson_interval()
        assert lo == pytest.approx(ref.low, abs=1e-12)
        assert hi == pytest.approx(ref.high, abs=1e-12)

    def test_zero_and_all_hits_keep_width(self):
        # The plug-in error is 0 at both ends; the score interval is not.
        zero = LocalizationEstimate(p_hat=0.0, std_err=0.0, n_eff=200.0, replications=200)
        full = LocalizationEstimate(p_hat=1.0, std_err=0.0, n_eff=200.0, replications=200)
        assert zero.wilson_interval() == (0.0, pytest.approx(1.96**2 / (200 + 1.96**2)))
        assert full.wilson_interval() == (pytest.approx(200 / (200 + 1.96**2)), 1.0)
        assert zero.std_err == full.std_err == 0.0

    def test_partial_hits_bracket_estimate(self):
        est = LocalizationEstimate(p_hat=0.9, std_err=0.01, n_eff=900.0, replications=4000)
        lo, hi = est.wilson_interval()
        assert lo < 0.9 < hi
        # Fewer effective draws give a wider interval.
        wide = LocalizationEstimate(p_hat=0.9, std_err=0.02, n_eff=225.0, replications=4000)
        w_lo, w_hi = wide.wilson_interval()
        assert w_lo < lo and w_hi > hi


def _trapezoid_table(ell, lo, hi, points):
    """``points`` equispaced nodes on [lo, hi] and the normalised trapezoid
    cumulative of exp(ell - max) on them."""
    xs = np.linspace(lo, hi, points)
    vals = ell(xs)
    cdf = np.concatenate([[0.0], cumulative_trapezoid(np.exp(vals - vals.max()), xs)])
    return xs, cdf / cdf[-1]


def _half_table(model, s):
    """The half-table of the pair conditional at sum s, as a 1-D table."""
    table = pair_conditional_table(model, [s])
    return GridInverseCdf(x=table.x[0], cdf=table.cdf[0])


def _half_cdf(half, u):
    """cdf at u of a 1-D half-table, 0 left of it and 1 right of it."""
    return np.interp(u, half.x, half.cdf, left=0.0, right=1.0)


def _pair_cdf(half, s, u):
    """cdf at u of the whole pair conditional on (0, s), from its half-table
    on (0, s/2] and the reflection u -> s - u."""
    u = np.asarray(u, dtype=float)
    return np.where(u <= s / 2, _half_cdf(half, u) / 2, 1.0 - _half_cdf(half, s - u) / 2)


def _cubic(kind):
    """A fresh power beta=3 model, pure or sin-perturbed (tests may patch it)."""
    exponent = PowerExponent(3.0)
    return pure_density(exponent) if kind == "pure" else sin_perturbed_density(exponent)


def _half_table_error(model, s, half):
    """Largest error of a cubic's half-table cdf against a fine trapezoid
    cumulative on s/2 - 30 sd .. s/2, with sd = 1 / sqrt(6 s).  Tests bound
    it by the worst error of the tables laid on (0, s/2] before Laplace
    windows (1.25e-4, at s = 6 with 312 nodes)."""
    sd = 1.0 / math.sqrt(6.0 * s)
    us = np.linspace(max(s / 2 - 30 * sd, 0.0), s / 2, 200_001)
    log_w = _pair_ell(model, s)(us)
    ref = np.concatenate([[0.0], cumulative_trapezoid(np.exp(log_w - log_w.max()), us)])
    return np.max(np.abs(_half_cdf(half, us) - ref / ref[-1]))


def _pair_ell(model, s):
    def ell(us):
        return model._log_kernel(us) + model._log_kernel(s - us)

    return ell


class TestTableResolution:
    @pytest.mark.parametrize("s", [800.0, 2000.0])
    def test_narrow_pair_table_matches_fine_grid(self, power3, s):
        # The pair conditional at sum s has sd about 1 / sqrt(6 s) for the
        # cubic, far below one cell of the first 512-point grid on (0, s/2].
        sd = 1.0 / math.sqrt(6.0 * s)
        us = np.linspace(s / 2 - 30 * sd, s / 2 + 30 * sd, 400_001)
        log_w = power3._log_kernel(us) + power3._log_kernel(s - us)
        ref = np.concatenate([[0.0], cumulative_trapezoid(np.exp(log_w - log_w.max()), us)])
        ref /= ref[-1]
        half = _half_table(power3, s)
        assert np.max(np.abs(_pair_cdf(half, s, us) - ref)) <= 1e-3

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    @pytest.mark.parametrize("s", [6.0, 8.0, 10.0, 20.0, 50.0, 100.0, 199.9, 200.0])
    def test_pair_tables_accurate(self, kind, s):
        model = _cubic(kind)
        half = _half_table(model, s)
        assert half.x.size == 512
        assert _half_table_error(model, s, half) <= 1.25e-4

    @pytest.mark.parametrize("spec, s", [
        ("power:beta=1", 0.5), ("power:beta=1", 4.0), ("power:beta=1", 40.0),
        ("exp", 0.5), ("exp", 1.0), ("power:beta=2", 0.5), ("power:beta=3/sin", 0.5)])
    def test_pair_rows_from_the_origin_match_quadrature(self, spec, s):
        # Rows whose grid starts at the left end of the support, where
        # p(0+) p(s) is not negligible against the peak at s/2.  The pair
        # log-density is -inf at u = 0, so a node there would count only
        # half of the first cell; from the first positive float the
        # half-table's cdf, at its nodes and cell midpoints, matches
        # log_integral of the pair density from 0.
        model = parse_model(spec)
        half = _half_table(model, s)
        assert half.x[0] < 1e-300
        k = np.unique(np.concatenate([[1, 2, 3], np.searchsorted(half.cdf, np.linspace(
            1e-3, 0.999, 40))]))
        points = np.concatenate([half.x[k], 0.5 * (half.x[k] + half.x[k - 1])])
        ell = _pair_ell(model, s)
        total = log_integral(ell, 0.0, s / 2)
        ref = np.exp(np.array([log_integral(ell, 0.0, p) for p in points]) - total)
        assert np.max(np.abs(_half_cdf(half, points) - ref)) <= 1e-6

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    def test_one_ell_pass_per_build(self, kind):
        model = _cubic(kind)
        calls = []
        kernel = model._log_kernel
        model._log_kernel = lambda x: calls.append(x.shape) or kernel(x)
        sums = [6.0, 8.0, 10.0, 20.0, 50.0, 200.0, 800.0, 2000.0]
        for s in sums:
            pair_conditional_table(model, [s])
        pair_conditional_table(model, sums)
        assert calls == [(2, 1, 512)] * len(sums) + [(2, len(sums), 512)]

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    def test_laplace_rows_are_kept_whole(self, kind):
        # Rows on their Laplace windows, built together in one ell pass: each
        # row is its whole window, with the trapezoid cdf of exp(ell - max)
        # on it, to within one ulp.
        model = _cubic(kind)
        calls = []
        kernel = model._log_kernel
        model._log_kernel = lambda x: calls.append(x.shape) or kernel(x)
        sums = np.array([6.0, 8.0, 10.0, 20.0, 50.0, 200.0, 800.0, 2000.0])
        table = pair_conditional_table(model, sums)
        assert calls == [(2, sums.size, 512)]
        model._log_kernel = kernel
        start = sampler._pair_window_start(model, sums / 2)
        for k, s in enumerate(sums):
            x = np.linspace(start[k], s / 2, 512)
            log_w = _pair_ell(model, s)(x)
            cdf = cumulative_trapezoid(np.exp(log_w - log_w.max()), x, initial=0.0)
            cdf /= cdf[-1]
            assert np.all(np.abs(table.x[k] - x) <= np.spacing(x))
            assert np.all(np.abs(table.cdf[k] - cdf) <= np.spacing(cdf))
            # The first cell lies outside the mass, the upper half inside it.
            assert log_w[1] <= log_w.max() - MASS_DROP < log_w[256:].min()

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    @pytest.mark.parametrize("s", [6.0, 8.0, 10.0, 20.0, 50.0, 100.0, 199.9, 200.0])
    def test_resolved_pair_tables_unchanged(self, kind, s, monkeypatch):
        # A g'' a hundred times too large makes each Laplace window ten times
        # too narrow, so the row's mass reaches the window's left edge.  The
        # row is then the trapezoid table on the mass window of its
        # half-density (-inf above s/2, the window cut there), bit for bit,
        # and keeps the accuracy of the rows kept on their windows.
        model = _cubic(kind)
        exponent = model.exponent
        monkeypatch.setattr(exponent, "d2g", lambda x: 100.0 * type(exponent).d2g(exponent, x))
        pair = _pair_ell(model, s)

        def half_ell(us):
            return np.where(us > s / 2, -np.inf, pair(np.minimum(us, s / 2)))

        lo, hi, _ = mass_window(half_ell, FIRST_POSITIVE, s / 2)
        xs, cdf = _trapezoid_table(pair, lo, min(hi, s / 2), 512)
        half = _half_table(model, s)
        assert half.x[0] < sampler._pair_window_start(model, np.array([s / 2]))[0]
        assert np.array_equal(half.x, xs)
        assert np.array_equal(half.cdf, cdf)
        assert _half_table_error(model, s, half) <= 1.25e-4

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    def test_batched_rows_match_scalar_builds(self, kind, monkeypatch):
        # Rows kept whole on their Laplace windows, a row on (0, s/2] from
        # the start (4.5) and rows laid again on their mass windows (g'' made
        # too large above s/2 = 300), built together: each row is its
        # one-row table, bit for bit.
        model = _cubic(kind)
        exponent = model.exponent
        true_d2g = type(exponent).d2g
        too_large = lambda x: np.where(x > 300.0, 100.0, 1.0) * true_d2g(exponent, x)
        monkeypatch.setattr(exponent, "d2g", too_large)
        sums = np.array([6.0, 2000.0, 4.5, 50.0, 800.0, 8.0, 199.9])
        table = pair_conditional_table(model, sums)
        assert table.x.shape == table.cdf.shape == (sums.size, 512)
        for k, s in enumerate(sums):
            alone = pair_conditional_table(model, [s])
            assert np.array_equal(table.x[k], alone.x[0])
            assert np.array_equal(table.cdf[k], alone.cdf[0])

    def test_unresolvable_mass_raises(self, monkeypatch):
        # A kernel spike about 1e-14 wide at 3, under the cubic's Laplace
        # window [1, 3] at sum 6: the first grid's mass is its last node, so
        # the row is laid again on its mass window, about 5e-14 wide, which
        # is under 512 float spacings at 3 (2.3e-13).
        model = _cubic("pure")
        monkeypatch.setattr(model, "_log_kernel", lambda x: -(((x - 3.0) / 1e-14) ** 2))
        with pytest.raises(NonIntegrable, match="float resolution"):
            pair_conditional_table(model, [6.0])

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    def test_every_row_is_a_whole_grid(self, kind, monkeypatch):
        # One layout for every row: Laplace-window rows (sums 6 to 199.9), a
        # row on (0, s/2] from the start whose mass misses the grid's first
        # nodes (4.5: its Laplace window reaches past 0, and p(u) p(s - u)
        # at u -> 0 is about e^-68 of its peak), and rows laid again on
        # their mass windows (g'' made too large above s/2 = 300) each hold
        # 512 strictly increasing nodes with a cdf rising from 0 to 1.
        model = _cubic(kind)
        exponent = model.exponent
        true_d2g = type(exponent).d2g
        too_large = lambda x: np.where(x > 300.0, 100.0, 1.0) * true_d2g(exponent, x)
        monkeypatch.setattr(exponent, "d2g", too_large)
        sums = np.array([6.0, 2000.0, 4.5, 50.0, 800.0, 8.0, 199.9])
        start = sampler._pair_window_start(model, sums / 2)
        table = pair_conditional_table(model, sums)
        assert table.x.shape == table.cdf.shape == (sums.size, 512)
        assert np.all(np.diff(table.x, axis=1) > 0.0)
        assert np.all(table.cdf[:, 0] == 0.0) and np.all(table.cdf[:, -1] == 1.0)
        assert np.all(np.diff(table.cdf, axis=1) >= 0.0)
        laplace = sums < 600.0
        laplace[2] = False
        assert np.all(table.x[laplace, 0] == start[laplace])
        assert start[2] == FIRST_POSITIVE == table.x[2, 0]
        # A window too narrow is laid again on the mass window, which starts
        # below it.
        regridded = sums > 600.0
        assert np.all(FIRST_POSITIVE < table.x[regridded, 0])
        assert np.all(table.x[regridded, 0] < start[regridded])

    def test_sub_resolution_pair_is_point_mass(self):
        # For g = exp at pair sum 800 the conditional's sd is about 1e-87,
        # far below the float spacing at 400: its row is a point mass at
        # s/2, beside an ordinary row at sum 6.
        model = parse_model("exp")
        table = pair_conditional_table(model, [800.0, 6.0])
        assert np.all(table.x[0] == 400.0)
        assert table.x[1, 0] > 0.0 and table.x[1, -1] == 3.0
        for u in [np.array([0.0, 0.5]), np.array([1.0, 0.5]), *default_rng(0).random((5, 2))]:
            assert table.ppf(u)[0] == 400.0
        for n in (2, 4):
            states = gibbs_fixed_sum(model, n, n * 400.0, sweeps=5, seed=1)
            assert all(np.all(st.values == 400.0) for st in states)
            est = estimate_localization(model, n, 400.0, 0.5, "FixedSumGibbs", budget=100, seed=0)
            assert est.p_hat == 1.0

    def test_batched_ppf_matches_row_interp(self, power3):
        sums = np.array([6.0, 2000.0, 50.0, 8.0])
        table = pair_conditional_table(power3, sums)
        # u outside [0, 1] takes the row's end node, as np.interp does.
        cases = [np.array([0.0, 0.3, 0.999999, 1.0]), np.array([-0.5, 0.0, 1.0, 1.5]),
                 np.array([1.5, 1.0, 0.0, -0.5])]
        cases += [default_rng(trial).random(sums.size) for trial in range(20)]
        for u in cases:
            got = table.ppf(u)
            for k in range(sums.size):
                want = np.interp(u[k], table.cdf[k], table.x[k])
                assert got[k] == pytest.approx(want, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("spec, level", [
        ("weibull:k=3", 1.5), ("power:beta=1", 1.5), ("power:beta=1", 3.0),
        ("power:beta=2", 1.5), ("exp", 3.0), ("power:beta=3/sin", 1.0)])
    def test_tilted_table_unchanged(self, spec, level):
        # Each step-law table is the mass window's grid of 4097 nodes, also
        # where its mass region ends before the last node (every case here
        # but Weibull k=3).
        model = parse_model(spec)
        law = tilted_law(model, level * model.mean)
        t = law.tilt

        def ell(xs):
            return t * xs + model.log_c + model._log_kernel(xs)

        lo, hi, _ = mass_window(ell, FIRST_POSITIVE, 8.0)
        xs, cdf = _trapezoid_table(ell, lo, hi, 4097)
        assert law.table.x.size == 4097
        assert np.array_equal(law.table.x, xs)
        assert np.array_equal(law.table.cdf, cdf)


_TAB_X = np.linspace(0.05, 12.0, 12)
_GUIDE_SPECS = ("power:beta=1", "power:beta=2", "weibull:k=3", "exp", "tabulated",
                "power:beta=3/sin")


@pytest.fixture(scope="module")
def guide_models():
    models = {spec: parse_model(spec) for spec in _GUIDE_SPECS if spec != "tabulated"}
    models["tabulated"] = pure_density(
        TabulatedExponent(_TAB_X, (_TAB_X - 0.3) ** 2 + 0.1 * _TAB_X**3))
    return models


def _plain_interp_ppf(self, u):
    """The 1-D inverse cdf as it was before the guide: np.interp alone."""
    return np.interp(np.asarray(u, dtype=float), self.cdf, self.x)


class TestGuidedPpf:
    """The guided 1-D lookup returns np.interp(u, cdf, x), bit for bit."""

    @pytest.mark.parametrize("level", [None, 1.2, 1.5, 3.0])
    @pytest.mark.parametrize("spec", _GUIDE_SPECS)
    def test_matches_interp_bit_for_bit(self, guide_models, spec, level):
        model = guide_models[spec]
        # level None is the plain law, the law "tilted" to the mean.
        table = tilted_law(model, (level or 1.0) * model.mean).table
        cdf = table.cdf
        edges = np.arange(4 * cdf.size + 1) / (4 * cdf.size)
        rng = default_rng(17)
        inputs = [
            rng.random((64, 2000)),
            cdf,
            0.5 * (cdf[1:] + cdf[:-1]),
            edges,
            np.nextafter(edges, -1.0),
            np.array([0.0, -0.0, np.nextafter(1.0, 0.0), 1.0, 1.5, -0.1, 1e30, -1e30,
                      np.inf, -np.inf, np.nan]),
            np.asarray(0.3),
            np.asarray(np.nan),
            np.empty(0),
            rng.random(7),
        ]
        for u in inputs:
            got, want = table.ppf(u), np.interp(u, cdf, table.x)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
        # The random draws reach both the one-comparison buckets and the
        # np.interp fallback for buckets holding two or more nodes.
        _, threshold, _ = table._guide
        crowded = np.isinf(threshold)
        assert crowded.any() and not crowded.all()

    def test_consumers_draw_the_same(self, weibull3, monkeypatch):
        a = 1.5 * weibull3.mean
        runs = []
        for patch in (False, True):
            if patch:
                monkeypatch.setattr(GridInverseCdf, "ppf", _plain_interp_ppf)
            paths = [simulate_conditioned_path(weibull3, n, a, EndValueAtLeast(n * a), seed=5)
                     for n in (500, 2000)]
            runs.append(([p.increments for p in paths], [p.note for p in paths],
                         [importance_estimate(weibull3, n, a, 0.5, 4000, seed=9)
                          for n in (2, 20)]))
        (inc, notes, est), (inc_ref, notes_ref, est_ref) = runs
        assert all(np.array_equal(x, y) for x, y in zip(inc, inc_ref))
        assert notes == notes_ref == ["", ""]
        assert est == est_ref


class TestGibbsFixedSum:
    def test_shapes_and_sum_invariance(self, weibull3):
        states = gibbs_fixed_sum(weibull3, 8, 16.0, sweeps=50, seed=3)
        assert len(states) == 50
        for s in states:
            assert s.values.shape == (8,)
            assert np.all(s.values > 0)
            assert abs(s.values.sum() - 16.0) <= 1e-9 * 16.0
            assert isinstance(s.constraint, EndValueEquals)

    def test_deterministic(self, weibull3):
        a = gibbs_fixed_sum(weibull3, 5, 10.0, sweeps=20, seed=8)
        b = gibbs_fixed_sum(weibull3, 5, 10.0, sweeps=20, seed=8)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.values, sb.values)

    def test_pair_marginal_matches_quadrature(self, power2):
        # With n = 2 every matching resamples the only pair from its exact
        # conditional, so recorded first coordinates are iid draws from the
        # u | u + v = s density. Compare with the quadrature cdf of the
        # half-table, reflected about s/2.
        s_total = 6.0
        states = gibbs_fixed_sum(power2, 2, s_total, sweeps=10_000, seed=42)
        first = np.sort(np.array([st.values[0] for st in states]))
        half = _half_table(power2, s_total)
        cdf = _pair_cdf(half, s_total, first)
        m = len(first)
        ks = np.max(np.maximum(cdf - np.arange(m) / m, (np.arange(m) + 1) / m - cdf))
        assert ks < 0.02
        assert kstwo.sf(ks, m) > 0.01

    @pytest.mark.parametrize("s_total", [6.0, 2000.0])
    def test_pair_conditional_density_shape(self, power2, s_total):
        # The half-table's law must have density proportional to p(u) p(s - u)
        # on (0, s/2]: its cdf matches a fine trapezoid cumulative of that
        # product.  For the square exponent the product is a normal density
        # with sd 1/2 about s/2, so (s/2 - 12, s/2] holds all of its half;
        # at s = 2000 that is under a cell of a 512-point grid on (0, s/2].
        half = _half_table(power2, s_total)
        fine = np.linspace(max(0.0, s_total / 2 - 12.0), s_total / 2, 200_001)
        log_ref = power2._log_kernel(fine) + power2._log_kernel(s_total - fine)
        ref = np.concatenate([[0.0], cumulative_trapezoid(np.exp(log_ref - log_ref.max()), fine)])
        ref /= ref[-1]
        us = s_total / 2 + np.linspace(-2.7, 0.0, 41)
        got = _half_cdf(half, us)
        assert np.max(np.abs(got - np.interp(us, fine, ref))) <= 1e-4

    def test_exchangeable_coordinates(self, power2):
        # Coordinates share one exchangeable law, so per-coordinate histograms
        # should agree; a contingency chi-square should not reject.
        states = gibbs_fixed_sum(power2, 5, 15.0, sweeps=800, seed=3)
        vals = np.array([s.values for s in states])
        edges = np.quantile(vals, [0.0, 0.25, 0.5, 0.75, 1.0])
        edges[0] -= 1.0
        edges[-1] += 1.0
        counts = np.array(
            [np.histogram(vals[:, c], bins=edges)[0] for c in range(vals.shape[1])]
        )
        _, p_value, _, _ = chi2_contingency(counts)
        assert p_value >= 0.01

    def test_deeper_sum_localizes_harder(self, weibull3):
        # Conditioned on a larger average, mass concentrates near that average:
        # the fraction of coordinates inside a +- 0.15 grows with a.
        def band_fraction(a):
            states = gibbs_fixed_sum(weibull3, 20, 20 * a, sweeps=400, seed=11)
            return float(
                np.mean(
                    [np.mean((s.values > a - 0.15) & (s.values < a + 0.15)) for s in states]
                )
            )

        assert band_fraction(6.0) > band_fraction(3.0)

    def test_bad_arguments_rejected(self, weibull3):
        with pytest.raises(DomainError):
            gibbs_fixed_sum(weibull3, 1, 5.0, sweeps=10, seed=0)
        with pytest.raises(DomainError):
            gibbs_fixed_sum(weibull3, 4, -1.0, sweeps=10, seed=0)
        with pytest.raises(DomainError):
            gibbs_fixed_sum(weibull3, 4, 8.0, sweeps=0, seed=0)


def _gauss_legendre(lo, hi, panels=64):
    """Nodes and weights of a composite 16-point Gauss-Legendre rule on each
    interval (lo[i], hi[i]): arrays of shape (len(lo), 16 * panels)."""
    lo, hi = np.asarray(lo, dtype=float)[:, None], np.asarray(hi, dtype=float)[:, None]
    edges = lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1)
    x, w = gauss_legendre(edges[:, :-1].ravel(), edges[:, 1:].ravel())
    return x.reshape(lo.size, -1), w.reshape(lo.size, -1)


def _fixed_sum_n3(model, a, eps, lo, hi):
    """P(x1, x2, x3 all in (a - eps, a + eps) | x1 + x2 + x3 = 3a), and the
    conditional cdf of x1 on a grid, by quadrature over the slice.

    The slice is parametrised by (x1, x2) with x3 = 3a - x1 - x2; the
    conditional density is proportional to p(x1) p(x2) p(x3).  Every
    coordinate is kept in (lo, hi), which must hold all but a negligible
    part of the mass.  For each x1 the inner rule runs over the x2 that keep
    x2 and x3 inside the box, so the box edges are integration limits.
    """
    s = 3.0 * a

    def log_density(x1, box_lo, box_hi):
        x2_lo = np.maximum(box_lo, s - x1 - box_hi)
        x2_hi = np.maximum(np.minimum(box_hi, s - x1 - box_lo), x2_lo)
        x2, w2 = _gauss_legendre(x2_lo, x2_hi)
        x3 = s - x1[:, None] - x2
        ell = model._log_kernel(x1)[:, None] + model._log_kernel(x2) + model._log_kernel(x3)
        return ell, w2

    x1, w1 = _gauss_legendre([lo], [hi])
    ell, w2 = log_density(x1[0], lo, hi)
    shift = ell.max()
    total = float(w1[0] @ (w2 * np.exp(ell - shift)).sum(axis=1))
    b1, bw1 = _gauss_legendre([a - eps], [a + eps])
    ell, w2 = log_density(b1[0], a - eps, a + eps)
    band = float(bw1[0] @ (w2 * np.exp(ell - shift)).sum(axis=1))
    grid = np.linspace(lo, hi, 4001)
    ell, w2 = log_density(grid, lo, hi)
    marginal = (w2 * np.exp(ell - shift)).sum(axis=1)
    cdf = np.concatenate([[0.0], cumulative_trapezoid(marginal, grid)])
    return band / total, grid, cdf / cdf[-1]


class TestFixedSumOracle:
    """The Gibbs kernel against an exact law at n = 3.

    At a = 2 a pair table's Laplace window reaches past 0, so it is laid on
    (0, s/2] from the start; at a = 25 it is laid on its Laplace
    window, about 0.7 wide at s/2 = 25.  At a = 2 the box is the whole
    slice.  At a = 25 the log-density falls by about 3a (d1^2 + d2^2 + d3^2)
    from (a, a, a), since g'' = 6a and the offsets d sum to 0, so a
    coordinate one unit off costs at least 3a * 1.5 = 112 and the box
    (a - 1, a + 1) misses only about e^-112 of the mass.
    """

    _SEEDS = range(8)
    _SWEEPS = 1000

    @pytest.mark.parametrize("spec", ["power:beta=3", "power:beta=3/sin"])
    @pytest.mark.parametrize("a, eps, lo, hi", [(2.0, 0.3, 0.0, 6.0), (25.0, 0.05, 24.0, 26.0)])
    def test_pooled_chains_match_quadrature(self, spec, a, eps, lo, hi):
        model = parse_model(spec)
        p_exact, grid, cdf = _fixed_sum_n3(model, a, eps, lo, hi)
        estimates, variances, coords = [], [], []
        for seed in self._SEEDS:
            values = np.array([st.values for st in gibbs_fixed_sum(
                model, 3, 3.0 * a, sweeps=self._SWEEPS, seed=seed)])
            flags = np.all((values > a - eps) & (values < a + eps), axis=1).astype(float)
            se, _ = _batch_means_std_err(flags)
            estimates.append(flags.mean())
            variances.append(se * se)
            coords.append(values.ravel())
        p_hat = float(np.mean(estimates))
        se = math.sqrt(sum(variances)) / len(estimates)
        assert abs(p_hat - p_exact) <= 4.0 * se, (p_hat, se, p_exact)
        # The coordinates are exchangeable, so each follows the x1 marginal.
        pooled = np.sort(np.concatenate(coords))
        m = pooled.size
        ref = np.interp(pooled, grid, cdf)
        ks = float(np.max(np.maximum(ref - np.arange(m) / m, (np.arange(m) + 1) / m - ref)))
        print(f"{spec} a={a} eps={eps}: p_hat {p_hat:.4f} +- {se:.4f}, "
              f"exact {p_exact:.6f}, KS {ks:.4f} over {m} coordinates")
        assert ks < 0.03


def _within_four_std_errs(series, expected):
    """|mean - expected| <= 4 se, se the batch-means error of the series.

    A chain average is about normal with sd se once the chain mixes
    (sqrt(m) batches of sqrt(m) sweeps, ``_batch_means_std_err``), so four
    estimated errors pass a correct sampler with probability about 1 - 1e-4
    per check.  The seeds are fixed, so each check is deterministic."""
    se, _ = _batch_means_std_err(series)
    mean = float(series.mean())
    return abs(mean - expected) <= 4.0 * se, (mean, se, expected)


class TestExponentialSimplex:
    """FixedSumGibbs at n >= 4 against closed forms.

    Given the sum n a, i.i.d. unit-exponential steps are uniform on the
    simplex (Feller, vol. II, I.9, on uniform spacings).  So all steps lie
    in (a - eps, a + eps) with probability
    (eps/a)^(n-1) sum_k (-1)^k C(n, k) (1 - 2k/n)_+^(n-1) for eps <= a
    (shift every step by a - eps, then bound each shifted step by 2 eps),
    and each step over n a is Beta(1, n - 1).  The pair log-density is
    flat (g'' = 0), so every row of every matching is laid on (0, s/2] from
    the first positive float: these are the generic rows of a batched pair
    update, several to a matching.  Each check is a chain average held to
    four batch-means errors (``_within_four_std_errs``).
    """

    _SWEEPS = 1500

    @staticmethod
    def _band_probability(n, a, eps):
        return (eps / a) ** (n - 1) * sum(
            (-1) ** k * math.comb(n, k) * max(1.0 - 2.0 * k / n, 0.0) ** (n - 1)
            for k in range(n + 1))

    @pytest.mark.parametrize("n, a, eps, seed", [(5, 1.0, 0.8, 3), (10, 1.0, 1.0, 4)])
    def test_band_and_marginal_match_the_simplex(self, expo, n, a, eps, seed):
        values = np.array([st.values for st in gibbs_fixed_sum(
            expo, n, n * a, sweeps=self._SWEEPS, seed=seed)])
        flags = np.all((values > a - eps) & (values < a + eps), axis=1).astype(float)
        ok, detail = _within_four_std_errs(flags, self._band_probability(n, a, eps))
        assert ok, detail
        # Per sweep, the share of the n coordinates at or below a Beta(1, n-1)
        # quantile of x / (n a); its mean is that quantile's level.
        for level in (0.25, 0.5, 0.75):
            q = 1.0 - (1.0 - level) ** (1.0 / (n - 1))
            ok, detail = _within_four_std_errs((values <= q * n * a).mean(axis=1), level)
            assert ok, (level, detail)


def _last_coordinate_is(model, n, a, eps, t, draws, seed):
    """P(all steps in (a - eps, a + eps) | sum n a) by importance sampling on
    the last coordinate, with its delta-method standard error.

    X_1..X_{n-1} come from ``tilted_table(model, t)`` and X_n = n a - S_{n-1}.
    The fixed-sum density is proportional to p(x_1)...p(x_{n-1}) p(n a - S)
    and the proposal to p(x_1)...p(x_{n-1}) e^{t S}, so the weight is
    p(X_n) e^{t X_n} up to a constant (Asmussen & Glynn, *Stochastic
    Simulation*, 2007, ch. V), and the self-normalised estimate is
    consistent for any t.
    """
    rng = np.random.default_rng(seed)
    steps = np.empty((draws, n))
    steps[:, :-1] = tilted_table(model, t).ppf(rng.random((draws, n - 1)))
    steps[:, -1] = n * a - steps[:, :-1].sum(axis=1)
    log_w = model._log_kernel(steps[:, -1]) + t * steps[:, -1]
    w = np.exp(log_w - log_w.max())
    hit = np.all((steps > a - eps) & (steps < a + eps), axis=1)
    p = float(w[hit].sum() / w.sum())
    se = float(np.sqrt(np.sum(w * w * (hit - p) ** 2)) / w.sum())
    return p, se


class TestLaplaceWindowRows:
    """FixedSumGibbs on Laplace-window rows against an independent estimate.

    Criterion 8's first triple, n = 5, a = 25, eps = 1/(2 log 25), for the
    cubic, pure and sin-perturbed: every pair row of a matching lies on its
    Laplace window.  The reference is ``_last_coordinate_is`` tilted by
    g'(a), so each arm has a value of its own.  The two estimates are
    independent and about normal, so their difference is held to four
    times the root sum of squares of the Gibbs batch-means error and the
    importance-sampling delta-method error: a correct sampler passes with
    probability about 1 - 1e-4.
    """

    @pytest.mark.parametrize("spec", ["power:beta=3", "power:beta=3/sin"])
    def test_band_probability_matches_last_coordinate_is(self, spec):
        model = parse_model(spec)
        n, a, eps = 5, 25.0, 0.5 / math.log(25.0)
        gibbs = estimate_localization(model, n, a, eps, "FixedSumGibbs", budget=2000, seed=5)
        p_is, se_is = _last_coordinate_is(model, n, a, eps, model.exponent.dg(a),
                                          draws=100_000, seed=6)
        joint = math.hypot(gibbs.std_err, se_is)
        assert abs(gibbs.p_hat - p_is) <= 4.0 * joint, (gibbs.p_hat, gibbs.std_err, p_is, se_is)


class TestConditionedSampleValidation:
    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            ConditionedSample(values=np.array([1.0, -0.5]), constraint=EndValueEquals(0.5))

    def test_rejects_violated_constraint(self):
        with pytest.raises(DomainError):
            ConditionedSample(values=np.array([1.0, 1.0]), constraint=EndValueAtLeast(10.0))


class TestEstimateLocalization:
    def test_tilted_is_path_matches_direct_call(self, weibull3):
        est = estimate_localization(weibull3, 10, 2.0, 0.5, "TiltedIS", budget=20_000, seed=99)
        direct = importance_estimate(weibull3, 10, 2.0, 0.5, trials=20_000, seed=99)
        assert est.p_hat == direct.conditional.p_hat
        assert est.std_err == direct.conditional.std_err
        assert est.n_eff == direct.conditional.n_eff

    def test_gibbs_path_sane(self, power3):
        est = estimate_localization(power3, 5, 4.0, 1.0, "FixedSumGibbs", budget=500, seed=31)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.std_err >= 0.0
        assert est.n_eff <= est.replications

    def test_methods_agree(self, power3):
        is_est = estimate_localization(power3, 5, 4.0, 1.0, "TiltedIS", budget=50_000, seed=31)
        gb_est = estimate_localization(power3, 5, 4.0, 1.0, "FixedSumGibbs", budget=4000, seed=31)
        joint = math.hypot(is_est.std_err, gb_est.std_err)
        assert abs(is_est.p_hat - gb_est.p_hat) <= 3.0 * joint + 1e-12

    @pytest.mark.parametrize("method", ["TiltedIS", "FixedSumGibbs"])
    @pytest.mark.parametrize("eps", [0.0, -0.5, math.inf, math.nan])
    def test_empty_or_unbounded_band_rejected(self, weibull3, method, eps):
        with pytest.raises(DomainError):
            estimate_localization(weibull3, 5, 2.0, eps, method, budget=1000, seed=0)

    @pytest.mark.parametrize("budget", [0, 1])
    def test_gibbs_needs_two_sweeps(self, weibull3, budget):
        # Batch means split the recorded sweeps into at least two batches.
        with pytest.raises(DomainError, match="2 recorded sweeps"):
            estimate_localization(weibull3, 5, 2.0, 0.5, "FixedSumGibbs", budget=budget, seed=0)
        est = estimate_localization(weibull3, 5, 2.0, 0.5, "FixedSumGibbs", budget=2, seed=0)
        assert est.replications == 2 and math.isfinite(est.std_err)

    def test_unknown_method_rejected(self, weibull3):
        with pytest.raises(DomainError):
            estimate_localization(weibull3, 10, 2.0, 0.5, "Hamiltonian", budget=1000, seed=0)


class TestBatchMeansStdErr:
    def test_constant_sequence(self):
        se, n_eff = _batch_means_std_err(np.ones(400))
        assert se == 0.0
        assert n_eff == 400.0

    def test_iid_bernoulli_close_to_binomial(self):
        rng = default_rng(17)
        flags = (rng.random(10_000) < 0.3).astype(float)
        se, n_eff = _batch_means_std_err(flags)
        p = flags.mean()
        binom = math.sqrt(p * (1 - p) / len(flags))
        assert 0.5 * binom <= se <= 2.0 * binom
        assert 0.0 < n_eff <= len(flags)

    def test_correlated_sequence_discounted(self):
        # A slowly alternating block sequence has strong autocorrelation;
        # batch means must report fewer effective samples than raw length.
        blocks = np.repeat((np.arange(40) % 2).astype(float), 100)
        se, n_eff = _batch_means_std_err(blocks)
        assert se > math.sqrt(0.25 / 4000)
        assert n_eff < 4000.0
