"""Tests for conditioned sampling: tilted importance sampling and fixed-sum Gibbs."""

import math

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import cumulative_trapezoid
from scipy.special import logsumexp
from scipy.stats import binomtest, chi2_contingency, kstwo, norm

from stretchwalk.density import (
    PowerExponent,
    WeibullExponent,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.quadrature import MASS_DROP, GridInverseCdf, mass_window
from stretchwalk.errors import DegenerateWeights, DomainError, NoConvergence, NonIntegrable
from stretchwalk.ratefn import log_mgf
from stretchwalk.sampler import (
    ConditionedSample,
    EndValueAtLeast,
    EndValueEquals,
    LocalizationEstimate,
    _batch_means_std_err,
    estimate_localization,
    gibbs_fixed_sum,
    importance_estimate,
    pair_conditional_table,
    tilt_for_mean,
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


class TestTiltForMean:
    def test_exponential_closed_form(self, expo):
        # For g(x) = x the tilted mean is 1/(1-t), so mean 2 needs t = 1/2.
        t = tilt_for_mean(expo, 2.0)
        assert t == pytest.approx(0.5, abs=1e-8)

    def test_mean_itself_gives_zero(self, expo):
        assert tilt_for_mean(expo, 1.0) == 0.0

    def test_self_consistency(self, weibull3):
        from stretchwalk.ratefn import _tilted_stats

        t = tilt_for_mean(weibull3, 2.0)
        _, mean, _ = _tilted_stats(weibull3, t)
        assert abs(mean - 2.0) <= 1e-3

    def test_below_mean_rejected(self, weibull3):
        with pytest.raises(DomainError):
            tilt_for_mean(weibull3, 0.5)


class TestImportanceEstimate:
    def test_matches_exact_quadrature_n2(self, power2):
        res = importance_estimate(power2, 2, 3.0, 1.5, trials=200_000, seed=7)
        p_c = math.exp(exact_log_prob_exceed(power2, 2, 3.0))
        p_band = math.exp(exact_log_prob_band(power2, 2, 3.0, 1.5))
        p_loc = exact_localization(power2, 2, 3.0, 1.5)
        assert abs(res.p_c - p_c) <= 3.0 * res.p_c_std_err
        assert abs(res.p_band_and_c - p_band) <= 3.0 * res.p_band_and_c_std_err
        assert abs(res.conditional.p_hat - p_loc) <= 3.0 * res.conditional.std_err

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
        table = tilted_table(weibull3, res.tilt)
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
        assert res.log_mgf_at_tilt == log_mgf(weibull3, 0.0)
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


def _one_regrid_table(ell, lo, hi, points):
    """The table with at most one re-grid, as GridInverseCdf built it before
    repeated re-gridding; where that one pass already resolves the mass
    region the two constructions must agree bit for bit."""
    xs = np.linspace(lo, hi, points)
    vals = ell(xs)
    keep = np.flatnonzero(vals > vals.max() - MASS_DROP)
    lo_i, hi_i = max(keep[0] - 1, 0), min(keep[-1] + 1, points - 1)
    if hi_i - lo_i + 1 < points // 2:
        xs = np.linspace(xs[lo_i], xs[hi_i], points)
        vals = ell(xs)
    else:
        xs, vals = xs[lo_i : hi_i + 1], vals[lo_i : hi_i + 1]
    cdf = np.concatenate([[0.0], cumulative_trapezoid(np.exp(vals - vals.max()), xs)])
    return xs, cdf / cdf[-1]


class TestTableResolution:
    @pytest.mark.parametrize("s", [800.0, 2000.0])
    def test_narrow_pair_table_matches_fine_grid(self, power3, s):
        # The pair conditional at sum s has sd about 1 / sqrt(6 s) for the
        # cubic, far below one cell of the first 512-point grid on (0, s).
        sd = 1.0 / math.sqrt(6.0 * s)
        us = np.linspace(s / 2 - 30 * sd, s / 2 + 30 * sd, 400_001)
        log_w = power3._log_kernel(us) + power3._log_kernel(s - us)
        ref = np.concatenate([[0.0], cumulative_trapezoid(np.exp(log_w - log_w.max()), us)])
        ref /= ref[-1]
        table = pair_conditional_table(power3, s)
        assert np.max(np.abs(table.cdf_at(us) - ref)) <= 1e-3

    @pytest.mark.parametrize("kind", ["pure", "sin"])
    @pytest.mark.parametrize("s", [6.0, 8.0, 10.0, 20.0, 50.0, 100.0, 199.9, 200.0])
    def test_resolved_pair_tables_unchanged(self, kind, s):
        exponent = PowerExponent(3.0)
        model = pure_density(exponent) if kind == "pure" else sin_perturbed_density(exponent)

        def ell(us):
            return model._log_kernel(us) + model._log_kernel(s - us)

        xs, cdf = _one_regrid_table(ell, 0.0, s, 512)
        table = pair_conditional_table(model, s)
        assert np.array_equal(table.x, xs)
        assert np.array_equal(table.cdf, cdf)

    def test_tilted_table_unchanged(self, weibull3):
        t = tilt_for_mean(weibull3, 1.5 * weibull3.mean)

        def ell(xs):
            return t * xs + weibull3.log_c + weibull3._log_kernel(xs)

        lo, hi, _ = mass_window(ell, 0.0, 8.0)
        xs, cdf = _one_regrid_table(ell, lo, hi, 4097)
        table = tilted_table(weibull3, t)
        assert np.array_equal(table.x, xs)
        assert np.array_equal(table.cdf, cdf)

    def test_unresolvable_mass_raises(self):
        # Mass on a single node of every grid never widens to half the table;
        # re-gridding stops at float resolution instead of looping.
        def spike(xs):
            return np.where(xs == xs[len(xs) // 2], 0.0, -np.inf)

        with pytest.raises(NonIntegrable):
            GridInverseCdf.build(spike, 0.0, 1.0, points=9)


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
        # With n = 2 every sweep resamples the only pair from its exact
        # conditional, so recorded first coordinates are iid draws from the
        # u | u + v = s density. Compare with a direct quadrature cdf.
        s_total = 6.0
        states = gibbs_fixed_sum(power2, 2, s_total, sweeps=10_000, seed=42)
        first = np.sort(np.array([st.values[0] for st in states]))
        table = pair_conditional_table(power2, s_total)
        cdf = np.array([table.cdf_at(x) for x in first])
        m = len(first)
        ks = np.max(np.maximum(cdf - np.arange(m) / m, (np.arange(m) + 1) / m - cdf))
        assert ks < 0.02
        assert kstwo.sf(ks, m) > 0.01

    def test_pair_conditional_density_shape(self, power2):
        # The pair table's law must have density proportional to p(u) p(s - u):
        # its cdf matches a fine trapezoid cumulative of that product.
        s_total = 6.0
        table = pair_conditional_table(power2, s_total)
        fine = np.linspace(0.0, s_total, 200_001)
        log_ref = power2._log_kernel(fine) + power2._log_kernel(s_total - fine)
        ref = np.concatenate([[0.0], cumulative_trapezoid(np.exp(log_ref - log_ref.max()), fine)])
        ref /= ref[-1]
        us = np.linspace(0.3, 5.7, 41)
        got = table.cdf_at(us)
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
