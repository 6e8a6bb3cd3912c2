"""Tests for trajectory simulation, sliding-window slopes, and segment detection."""

import math

import numpy as np
import pytest
from scipy.special import gammaincc
from scipy.stats import ks_2samp, kstest, kstwo

from stretchwalk.density import PowerExponent, WeibullExponent, parse_model, pure_density
from stretchwalk.errors import BadWindow, DomainError
from stretchwalk.paths import (
    EndValueAtLeast,
    EndValueEquals,
    SegmentReport,
    Trajectory,
    detect_segments,
    estimate_p_ak,
    simulate_conditioned_path,
    simulate_free_path,
    sliding_slopes,
)
from stretchwalk.ratefn import cramer_rate
from stretchwalk import sampler
from stretchwalk.sampler import tilted_law
from stretchwalk.seeding import derive_seed
from stretchwalk.smalln import exact_log_prob_exceed


@pytest.fixture(scope="module")
def power2():
    return pure_density(PowerExponent(2.0))


@pytest.fixture(scope="module")
def weibull3():
    return pure_density(WeibullExponent(3.0))


def _free_traj(increments):
    return Trajectory(
        increments=np.asarray(increments, dtype=float),
        partial_sums=np.cumsum(increments),
        conditioning=None,
    )


class TestTrajectory:
    def test_partial_sums_reproduce_bitwise(self, weibull3):
        traj = simulate_free_path(weibull3, 200, seed=5)
        assert np.array_equal(traj.partial_sums, np.cumsum(traj.increments))

    def test_increments_recovered_to_rounding(self, weibull3):
        # Differencing the running sums reintroduces rounding at the scale of
        # the final sum; the recovery must be exact up to a few ulps of that.
        traj = simulate_free_path(weibull3, 500, seed=6)
        recovered = np.diff(traj.partial_sums, prepend=0.0)
        tol = 64.0 * np.spacing(traj.partial_sums[-1])
        assert np.max(np.abs(recovered - traj.increments)) <= tol

    def test_misaligned_arrays_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(
                increments=np.ones(3),
                partial_sums=np.ones(4),
                conditioning=None,
            )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Trajectory(
                increments=np.array([]),
                partial_sums=np.array([]),
                conditioning=None,
            )

    def test_exceedance_constraint_checked(self):
        with pytest.raises(DomainError):
            Trajectory(
                increments=np.array([1.0, 1.0]),
                partial_sums=np.array([1.0, 2.0]),
                conditioning=EndValueAtLeast(5.0),
            )

    def test_fixed_end_drift_checked(self):
        with pytest.raises(DomainError):
            Trajectory(
                increments=np.array([1.0, 1.0]),
                partial_sums=np.array([1.0, 2.0001]),
                conditioning=EndValueEquals(2.0),
            )

    def test_n_property(self):
        assert _free_traj([0.5, 0.25, 1.0]).n == 3


class TestSlidingSlopes:
    def test_power_of_two_window_exact(self, weibull3):
        # Division and multiplication by 8 are exact in binary floating
        # point, so the slope identity k * slope[j] == S[j+k] - S[j] holds
        # bitwise for this window length.
        traj = simulate_free_path(weibull3, 100, seed=9)
        k = 8
        slopes = sliding_slopes(traj, k)
        prefix = np.concatenate([[0.0], traj.partial_sums])
        assert np.array_equal(slopes * k, prefix[k:] - prefix[:-k])

    def test_matches_naive_recomputation(self, weibull3):
        traj = simulate_free_path(weibull3, 60, seed=10)
        k = 7
        slopes = sliding_slopes(traj, k)
        naive = np.array(
            [traj.increments[j : j + k].sum() / k for j in range(traj.n - k + 1)]
        )
        assert slopes == pytest.approx(naive, rel=1e-12)

    def test_constant_increments(self):
        traj = _free_traj([0.25] * 12)
        assert np.all(sliding_slopes(traj, 4) == 0.25)

    def test_window_equal_to_n_is_overall_mean(self, weibull3):
        traj = simulate_free_path(weibull3, 50, seed=11)
        slopes = sliding_slopes(traj, 50)
        assert slopes.shape == (1,)
        assert slopes[0] == pytest.approx(traj.partial_sums[-1] / 50, rel=1e-15)

    def test_window_one_returns_increments(self, weibull3):
        traj = simulate_free_path(weibull3, 40, seed=12)
        assert sliding_slopes(traj, 1) == pytest.approx(traj.increments, rel=1e-12)

    def test_length(self, weibull3):
        traj = simulate_free_path(weibull3, 30, seed=13)
        assert sliding_slopes(traj, 4).shape == (27,)

    def test_bad_window_rejected(self, weibull3):
        traj = simulate_free_path(weibull3, 10, seed=14)
        for k in (0, -1, 11):
            with pytest.raises(BadWindow):
                sliding_slopes(traj, k)


class TestDetectSegments:
    def test_tie_breaks_to_smallest_index(self):
        # Increments 1,3,1,3,1 give every length-2 window the same slope 2,
        # so the argmax must settle on j = 0.
        traj = _free_traj([1.0, 3.0, 1.0, 3.0, 1.0])
        report = detect_segments(traj, 2, alpha=1.9)
        assert np.all(report.slopes == 2.0)
        assert report.argmax_j == 0
        assert report.max_slope == 2.0
        assert report.a_k_event

    def test_threshold_is_strict(self):
        traj = _free_traj([1.0, 3.0, 1.0, 3.0, 1.0])
        assert not detect_segments(traj, 2, alpha=2.0).a_k_event

    def test_locates_planted_burst(self):
        increments = [0.1] * 10 + [5.0, 5.0, 5.0] + [0.1] * 10
        traj = _free_traj(increments)
        report = detect_segments(traj, 3, alpha=4.0)
        assert report.argmax_j == 10
        assert report.max_slope == pytest.approx(5.0, rel=1e-12)
        assert report.a_k_event


class TestSimulateConditionedPath:
    def test_exceedance_end_value(self, weibull3):
        traj = simulate_conditioned_path(
            weibull3, 50, 2.0, EndValueAtLeast(100.0), seed=3
        )
        assert traj.n == 50
        assert traj.partial_sums[-1] > 100.0
        assert traj.note == ""
        assert np.all(traj.increments > 0)

    def test_fixed_end_value(self, weibull3):
        traj = simulate_conditioned_path(
            weibull3, 10, 2.0, EndValueEquals(20.0), seed=4
        )
        assert traj.partial_sums[-1] == pytest.approx(20.0, rel=1e-9)

    def test_deterministic(self, weibull3):
        a = simulate_conditioned_path(weibull3, 20, 2.0, EndValueAtLeast(40.0), seed=7)
        b = simulate_conditioned_path(weibull3, 20, 2.0, EndValueAtLeast(40.0), seed=7)
        assert np.array_equal(a.increments, b.increments)

    def test_seeds_decorrelate(self, weibull3):
        a = simulate_conditioned_path(weibull3, 20, 2.0, EndValueAtLeast(40.0), seed=7)
        b = simulate_conditioned_path(weibull3, 20, 2.0, EndValueAtLeast(40.0), seed=8)
        assert not np.array_equal(a.increments, b.increments)

    def test_unreachable_target_falls_back(self, weibull3):
        # Tilted to mean 2 the sum concentrates near 20, so an end value of
        # 100 never accepts inside the budget; the boundary draw takes over.
        traj = simulate_conditioned_path(
            weibull3, 10, 2.0, EndValueAtLeast(100.0), seed=5
        )
        assert traj.note != ""
        assert isinstance(traj.conditioning, EndValueEquals)
        assert traj.partial_sums[-1] == pytest.approx(100.0, rel=1e-9)

    @pytest.mark.parametrize("rows", ["ragged", "one row"])
    @pytest.mark.parametrize("spec, n, ratio, seeds", [
        ("weibull:k=3", 200, 1.5, range(6)),
        # Every one of the 4,096 draws fails: the fallback's permutation
        # reads the stream where the acceptance loop left it.
        ("power:beta=3", 20, None, [0]),
    ])
    def test_independent_of_draw_block(self, monkeypatch, rows, spec, n, ratio, seeds):
        model = parse_model(spec)
        a = 100.0 if ratio is None else ratio * model.mean

        def path(block, seed):
            monkeypatch.setattr(sampler, "_DRAW_BLOCK", block)
            return simulate_conditioned_path(model, n, a, EndValueAtLeast(n * a), seed=seed)

        for seed in seeds:
            whole = path(10**9, seed)
            got = path(3 * n + 1 if rows == "ragged" else n - 1, seed)
            assert np.array_equal(got.increments, whole.increments)
            assert (got.note, got.conditioning) == (whole.note, whole.conditioning)
        assert bool(whole.note) == (ratio is None)

    def test_bad_arguments_rejected(self, weibull3):
        with pytest.raises(DomainError):
            simulate_conditioned_path(weibull3, 1, 2.0, EndValueAtLeast(2.0), seed=0)
        with pytest.raises(DomainError):
            simulate_conditioned_path(
                weibull3, 10, 0.5 * weibull3.mean, EndValueAtLeast(5.0), seed=0
            )
        with pytest.raises(DomainError):
            simulate_conditioned_path(weibull3, 10, 2.0, "at least 20", seed=0)

    def test_conditioned_increments_concentrate_at_level(self, weibull3):
        # Conditioned on mean exceedance at level 2, increments follow the
        # tilted law with mean 2 rather than the free mean 0.893.
        vals = []
        for r in range(30):
            traj = simulate_conditioned_path(
                weibull3, 500, 2.0, EndValueAtLeast(1000.0), seed=derive_seed(40, r)
            )
            vals.append(traj.increments.mean())
        assert abs(np.mean(vals) - 2.0) <= 0.05

    def test_exceedance_law_matches_exact_n2(self, weibull3):
        # P(S_2 > 2a + 0.3 | S_2 > 2a) is 0.19 exactly; the tilted law merely
        # restricted to {S_2 > 2a} puts about 0.52 of its paths there.
        a = 1.5 * weibull3.mean
        paths = 1000
        hits = sum(
            simulate_conditioned_path(weibull3, 2, a, EndValueAtLeast(2.0 * a),
                                      seed=derive_seed(60, r)).partial_sums[-1] > 2.0 * a + 0.3
            for r in range(paths)
        )
        exact = math.exp(exact_log_prob_exceed(weibull3, 2, a + 0.15)
                         - exact_log_prob_exceed(weibull3, 2, a))
        assert abs(hits / paths - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / paths)

    def test_conditioned_windows_match_free_tilted_walks(self, weibull3):
        """Gibbs conditioning at criterion 10's largest (n, k).

        Given S_n > n a, short windows of the walk look like windows of an
        i.i.d. walk under the law tilted to mean a (Dembo & Zeitouni, *Large
        Deviations Techniques and Applications*, section 7.3).  Such a free
        walk is one table draw per step, with no acceptance step and no
        fixed-sum fallback, so comparing the two checks both.  Settings are
        criterion 10's: Weibull k=3, a = 1.5 EX, alpha = 2 EX, n = 2000 and
        k = floor(log n / (2 J(alpha))) = 3.

        Tolerance, fixed before the data: the free walk's sum wanders by
        about sigma sqrt(n) (about 15) around n a, while the conditioned
        sum overshoots n a by only O(1/t) (about 0.24).  Each free walk thus
        carries a mean shift per step of about sigma / sqrt(n) = 0.007, of
        either sign, that the conditioned walk lacks; it blurs the law of
        the largest window slope by that much, far below what a two-sample
        KS test resolves with R paths a side.  So the KS distance between
        the largest k-window slopes of R conditioned and R free tilted
        walks must stay below the test's 1% critical value,
        sqrt(-log(0.005) / 2) sqrt(2 / R) = 0.115 at R = 400.
        """
        n, paths = 2000, 400
        a, alpha = 1.5 * weibull3.mean, 2.0 * weibull3.mean
        rate_a, tilt_a = cramer_rate(weibull3, a)
        j_alpha = cramer_rate(weibull3, alpha)[0] - rate_a - tilt_a * (alpha - a)
        k = math.floor(math.log(n) / (2.0 * j_alpha))
        assert k == 3
        conditioned = [simulate_conditioned_path(weibull3, n, a, EndValueAtLeast(n * a),
                                                 seed=derive_seed(90, r))
                       for r in range(paths)]
        assert all(traj.note == "" for traj in conditioned)
        steps = tilted_law(weibull3, a).table.ppf(np.random.default_rng(91).random((paths, n)))
        free = [_free_traj(row) for row in steps]
        d = ks_2samp([detect_segments(t, k, alpha).max_slope for t in conditioned],
                     [detect_segments(t, k, alpha).max_slope for t in free]).statistic
        assert d < math.sqrt(-math.log(0.005) / 2.0) * math.sqrt(2.0 / paths)

    @pytest.mark.parametrize("n, a", [(20, 2.0), (200, 1.5)])
    def test_exponential_end_values_are_truncated_gamma(self, n, a):
        """Exact end law for unit-exponential steps (power beta = 1).

        S_n is Gamma(n, 1), so given S_n >= T = n a it has the cdf
        1 - Q(n, s) / Q(n, T) on s >= T, with Q the regularised upper
        incomplete gamma function; the survival form keeps the ratio exact
        where 1 - P(n, s) would cancel.  Each path runs the tilt solve,
        the mass window, the tilted table and the acceptance step end to
        end.  Under that law the KS distance D of R = 400 end values
        follows the Kolmogorov law of R points, so the test fails with
        probability 0.005 per case when D exceeds its 0.995 quantile
        (about 0.086).
        """
        model = parse_model("power:beta=1")
        paths = 400
        total = n * a
        ends = [simulate_conditioned_path(model, n, a, EndValueAtLeast(total),
                                          seed=derive_seed(110 + n, r)).partial_sums[-1]
                for r in range(paths)]
        tail = gammaincc(n, total)
        d = kstest(ends, lambda s: 1.0 - gammaincc(n, np.maximum(s, total)) / tail).statistic
        assert d < kstwo.isf(0.005, paths)


class TestEstimatePAk:
    def test_zero_threshold_always_hits(self, weibull3):
        est = estimate_p_ak(weibull3, 10, 2.0, 3, 0.0, replications=10, seed=1)
        assert est.p_hat == 1.0
        assert est.std_err == 0.0
        assert est.n_eff == 10.0

    def test_full_window_hits_when_threshold_below_level(self, weibull3):
        # With k = n the only window is the whole path, whose slope exceeds
        # a by the conditioning, hence certainly exceeds alpha <= a.
        est = estimate_p_ak(weibull3, 10, 2.0, 10, 2.0, replications=10, seed=2)
        assert est.p_hat == 1.0

    def test_replication_indexing_matches_manual_loop(self, weibull3):
        n, a, k, alpha, reps, seed = 20, 2.0, 5, 1.5, 6, 77
        est = estimate_p_ak(weibull3, n, a, k, alpha, replications=reps, seed=seed)
        hits = 0
        for r in range(reps):
            traj = simulate_conditioned_path(
                weibull3, n, a, EndValueAtLeast(n * a), seed=derive_seed(seed, r)
            )
            if detect_segments(traj, k, alpha).a_k_event:
                hits += 1
        assert est.p_hat == hits / reps

    def test_conditioning_raises_hit_rate(self, weibull3):
        cond = estimate_p_ak(weibull3, 100, 2.0, 5, 1.5, replications=20, seed=3)
        base = estimate_p_ak(
            weibull3, 100, 2.0, 5, 1.5, replications=20, seed=3, conditioned=False
        )
        assert cond.p_hat > base.p_hat

    def test_zero_replications_rejected(self, weibull3):
        with pytest.raises(DomainError):
            estimate_p_ak(weibull3, 10, 2.0, 3, 1.0, replications=0, seed=0)
