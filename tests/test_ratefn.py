"""Tests for the numeric Legendre-transform rate function.

The linear-exponent model has closed forms (Lambda(t) = -log(1-t),
I(x) = x - 1 - log x, t* = 1 - 1/x) and anchors the solver exactly.
Frozen reference values for the other models were computed offline with
50-digit arithmetic.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from stretchwalk import cli, ratefn
from stretchwalk.conditions import PRESETS
from stretchwalk.density import (
    FIRST_POSITIVE,
    PowerExponent,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.errors import Divergent, DomainError, NoRoot, StretchwalkError
from stretchwalk.quadrature import mass_window
from stretchwalk.ratefn import CramerRate, _tilted_stats, cramer_rate, tail_equivalence
from stretchwalk.sampler import tilted_law


@pytest.fixture(scope="module")
def expo():
    return pure_density(PowerExponent(1.0))


@pytest.fixture(scope="module")
def power2():
    return pure_density(PowerExponent(2.0))


@pytest.fixture(scope="module")
def weibull3():
    return pure_density(WeibullExponent(3.0))


@pytest.fixture(scope="module")
def weibull_table(weibull3):
    return CramerRate.build(weibull3, 20.0)


class TestLogMgf:
    def test_exponential_closed_form(self, expo):
        assert _tilted_stats(expo, 0.5)[0] == pytest.approx(math.log(2.0), rel=1e-9)
        assert _tilted_stats(expo, -1.0)[0] == pytest.approx(-math.log(2.0), rel=1e-9)

    def test_zero_tilt_is_zero(self, expo, weibull3):
        assert _tilted_stats(expo, 0.0)[0] == pytest.approx(0.0, abs=1e-10)
        assert _tilted_stats(weibull3, 0.0)[0] == pytest.approx(0.0, abs=1e-10)

    def test_divergent_at_unit_tilt(self, expo):
        with pytest.raises(Divergent):
            _tilted_stats(expo, 1.0)[0]
        with pytest.raises(Divergent):
            _tilted_stats(expo, 1.5)[0]

    @pytest.mark.parametrize("t", [-3.0, -1.0, 0.5, 0.9])
    def test_exponential_third_derivative(self, expo, t):
        # Lambda'''(t) = 2 / (1 - t)^3, the third central moment of the
        # tilted law: the curvature a Halley step reads.
        assert _tilted_stats(expo, t)[3] == pytest.approx(2.0 / (1.0 - t) ** 3, rel=1e-12)

    @pytest.mark.parametrize("spec, t, stats", [
        ("power:beta=1", 0.5, (0.6931471805599451, 2.000000000000002, 4.0000000000000036)),
        ("power:beta=2", 1.5, (1.099668951412497, 0.9378645800973914, 0.32380846447178696)),
        ("weibull:k=3", -2.0, (-1.5847989069127526, 0.6973900280014732, 0.08874559687330216)),
        ("exp", 4.0, (3.289520681241827, 1.2861302608711978, 0.24032061404008342)),
        ("power:beta=3/sin", 3.29, (2.2989577148512748, 0.9258475293001398, 0.14362690325650773)),
    ])
    def test_first_three_derivatives_are_pinned(self, spec, t, stats):
        # Lambda, Lambda' and Lambda'' bit for bit: the pass's centred
        # second and third moment sums are not part of its settle test, so
        # they move no panel.  Lambda'' is the centred second moment less
        # (mean - peak)^2; as the raw m2 - m1^2 it was off from 40-digit
        # mpmath by up to 3.5e-15 relative at these tilts (exp at t = 4),
        # and is now within 2.6e-16.
        assert _tilted_stats(parse_model(spec), t)[:3] == stats

    @pytest.mark.parametrize("t, stats", [
        (0.0, (1.1449174941446927e-16, 0.4886217777982227, 0.0007953172326635727)),
        (-1.0, (-0.44869780934948683, 0.4095093094734767, 0.007663753295785669)),
        (-3.0, (-1.128167351437848, 0.27752971917515507, 0.0123913371182571)),
    ])
    def test_settled_panels_are_summed_before_the_total(self, t, stats):
        # Lambda, Lambda' and Lambda''' bit for bit where the quadrature
        # takes more than one round: each round's settled panels are summed
        # among themselves, then added to the running total.  Adding them
        # one by one to the total regroups the sum and moves Lambda' at
        # t = 0 and Lambda''' at all three tilts.
        lam, mean, _, third = _tilted_stats(parse_model("power:beta=20"), t)
        assert (lam, mean, third) == stats

    def test_weibull_frozen_value(self, weibull3):
        # 50-digit arithmetic.
        assert _tilted_stats(weibull3, 1.0)[0] == pytest.approx(0.94647650166262236, rel=1e-9)

    def test_weibull_monte_carlo_agreement(self, weibull3):
        u = np.random.default_rng(20240817).random(1_000_000)
        draws = tilted_law(weibull3, weibull3.mean).table.ppf(u)
        vals = np.exp(draws)
        mc_mean = float(vals.mean())
        mc_se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        assert abs(math.exp(_tilted_stats(weibull3, 1.0)[0]) - mc_mean) <= 3.0 * mc_se


class TestCramerRate:
    def test_exponential_closed_form(self, expo):
        for x in (2.0, 5.0, 10.0):
            value, tilt = cramer_rate(expo, x)
            assert abs(value - (x - 1.0 - math.log(x))) <= 1e-6
            assert abs(tilt - (1.0 - 1.0 / x)) <= 1e-6

    @pytest.mark.parametrize("x", [0.1, 0.5, 50.0, 100.0, 1000.0])
    def test_exponential_closed_form_far_from_the_mean(self, expo, x):
        # Both sides of the mean, up to t* = 0.999 next to the MGF's
        # divergence at t = 1.
        value, tilt = cramer_rate(expo, x)
        assert abs(value - (x - 1.0 - math.log(x))) <= 1e-6
        assert abs(tilt - (1.0 - 1.0 / x)) <= 1e-6

    def test_cold_solves_stay_cheap(self, monkeypatch):
        # 28 solves from t = 0, one quadrature pass per Halley, Newton or
        # bisection step: three passes a solve (108 in all with Newton
        # steps alone), every tilt within the residual tolerance.  A pass
        # integrates an array of tilts, one a live row.
        passes = []

        def counted(model, t, failed=None):
            passes.extend(np.atleast_1d(t))
            return _tilted_stats(model, t, failed)

        monkeypatch.setattr(ratefn, "_tilted_stats", counted)
        solved = []
        for spec in ("power:beta=2", "power:beta=3", "weibull:k=3", "exp"):
            model = parse_model(spec)
            for ratio in np.geomspace(1.15, 3.4, 7):
                x = ratio * model.mean
                solved.append((model, x, cramer_rate(model, x)[1]))
        assert len(solved) == 28 and len(passes) <= 84
        for model, x, tilt in solved:
            assert abs(_tilted_stats(model, tilt)[1] - x) <= 1e-8 * max(1.0, x)

    def test_cold_solves_call_the_integrand_sparingly(self, monkeypatch):
        """Integrand calls over the 32 cold solves of one pass of the
        benchmark's ``rate`` workload, without its jitter: power beta=1 at
        x = 1.6, 2.8 and 3.2; power beta=2, beta=3, Weibull k=3 and exp at
        1.15 to 3.4 times EX; the /sin cubic at 1.5 EX.  With each window
        search resolved to float resolution they took 2,867 calls, 90 a
        solve; with its stops tied to the mass it bounds, and the sin
        envelope's kinks as panel ends, 1,005.  The unit-exponential
        tilted law peaks at the support's start, so while its windows were
        searched from 0, where ell is -inf, they zoomed to float
        resolution there: 90 to 108 calls a beta=1 solve.  From the first
        positive float they took 54 to 64, and the 32 solves 870.  Halley
        steps solve each beta=1 mean in one pass, 9 calls, where Newton
        steps took 6 to 8 passes, and the 32 solves take 570 calls."""
        calls = 0
        tilted_ell = ratefn._tilted_ell

        def counted(model, t):
            ell = tilted_ell(model, t)

            def call(xs, *rows):
                nonlocal calls
                calls += 1
                return ell(xs, *rows)

            return call

        monkeypatch.setattr(ratefn, "_tilted_ell", counted)
        unit = parse_model("power:beta=1")
        for x in (1.6, 2.8, 3.2):
            before = calls
            cramer_rate(unit, x)
            assert calls - before <= 9
        points = []
        for spec in ("power:beta=2", "power:beta=3", "weibull:k=3", "exp"):
            model = parse_model(spec)
            points += [(model, f * model.mean) for f in (1.15, 1.4, 1.7, 2.1, 2.5, 2.9, 3.4)]
        sin = parse_model("power:beta=3/sin")
        points.append((sin, 1.5 * sin.mean))
        for model, x in points:
            cramer_rate(model, x)
        assert calls <= 18 * (len(points) + 3)

    @pytest.mark.parametrize("x", [1.6, 2.8, 3.2])
    def test_unit_exponential_solves_in_one_pass(self, expo, x, monkeypatch):
        # Lambda'(t) = 1 / (1 - t) is a Moebius function of t, on which one
        # Halley step from t = 0 (where Lambda''' = 2) lands on t* = 1 - 1/x.
        # Newton steps overshoot the convex Lambda' and took 6 to 8 passes.
        passes = []

        def counted(model, t, failed=None):
            passes.extend(np.atleast_1d(t))
            return _tilted_stats(model, t, failed)

        monkeypatch.setattr(ratefn, "_tilted_stats", counted)
        value, tilt = cramer_rate(expo, x)
        assert len(passes) == 1
        assert abs(tilt - (1.0 - 1.0 / x)) <= 1e-12
        assert abs(value - (x - 1.0 - math.log(x))) <= 1e-12

    def test_far_tail_solve_reaches_the_slope(self):
        # From t = 0 a Newton step for x = 1e6 would go to t = 3.3e6, far past
        # the bracket limit of 1e4; the Halley factor 1 + (x - EX)
        # Lambda''' / (2 Lambda''^2), about 1.2e6, shortens it to t = 2.7,
        # and the solve climbs from below to t* = g'(x) = 1.5 sqrt(x), where
        # I(x) = g(x) = 1e9 up to terms of order log x.
        model = pure_density(PowerExponent(1.5))
        value, tilt = cramer_rate(model, 1e6)
        assert tilt == pytest.approx(1500.0, rel=1e-6)
        assert abs(_tilted_stats(model, tilt)[1] - 1e6) <= 1e-8 * 1e6
        assert value == pytest.approx(1e9, rel=1e-8)

    def test_exponential_left_branch(self, expo):
        value, tilt = cramer_rate(expo, 0.25)
        assert value == pytest.approx(0.25 - 1.0 - math.log(0.25), rel=1e-8)
        assert tilt == pytest.approx(-3.0, abs=1e-6)

    def test_at_the_mean(self, weibull3):
        value, tilt = cramer_rate(weibull3, weibull3.mean)
        assert value == 0.0
        assert tilt == 0.0

    def test_frozen_values(self, power2, weibull3):
        # 50-digit arithmetic.
        value, tilt = cramer_rate(power2, 2.0)
        assert value == pytest.approx(3.3092218194091278, rel=1e-10)
        assert tilt == pytest.approx(3.9894204981659331, rel=1e-6)
        value, _ = cramer_rate(power2, 5.0)
        assert value == pytest.approx(24.306852819440823, rel=1e-10)
        value, tilt = cramer_rate(weibull3, 2.0)
        assert value == pytest.approx(5.8584034035071651, rel=1e-10)
        assert tilt == pytest.approx(11.219238766026694, rel=1e-6)
        value, tilt = cramer_rate(weibull3, 3.0)
        assert value == pytest.approx(24.236129047186027, rel=1e-10)
        assert tilt == pytest.approx(26.494220730709822, rel=1e-6)

    def test_perturbation_shifts_rate_boundedly(self, power2):
        # The log-density ratio between the sin-perturbed and pure models
        # is bounded, so the rates can differ by at most that bound.
        sin_model = sin_perturbed_density(PowerExponent(2.0))
        bound = 0.5 + abs(sin_model.log_c - power2.log_c) + 1e-9
        for x in (1.5, 3.0):
            pure_value, _ = cramer_rate(power2, x)
            sin_value, _ = cramer_rate(sin_model, x)
            assert abs(sin_value - pure_value) <= bound

    def test_domain_errors(self, weibull3):
        with pytest.raises(DomainError):
            cramer_rate(weibull3, 0.0)
        with pytest.raises(DomainError):
            cramer_rate(weibull3, -1.0)

    def test_no_root_past_bracket_limit(self, weibull3, monkeypatch):
        # Held at its floor of 1e4, the bracket stops short of the tilt of
        # about 3e4 that x = 100 needs, and the solve says so.
        monkeypatch.setattr(ratefn, "_BRACKET_SCALE", 0.0)
        with pytest.raises(NoRoot, match="up to 10000"):
            cramer_rate(weibull3, 100.0)

    def test_steep_wall_solves_past_the_slope(self):
        """power beta=20 is nearly uniform on (0, 1) and ends in a steep
        wall, so the tilt for mean x = 0.85 (about 1.74 EX) is set by the
        wall, t* = 6.85, not by g'(0.85) = 0.91: a bracket of 4 max(1,
        |g'(x)|, 1/x) = 4.71 alone would miss it.  Reference: mpmath on
        [0, 1.5], where exp(t x - x^20) has fallen by e^-3300, split at 1."""
        model = parse_model("power:beta=20")
        x = 0.85
        _, t, lam, mean = ratefn._rate_points(model, [x])[0]
        assert t > 4.0 * max(1.0, float(model.exponent.dg(x)), 1.0 / x)
        with mp.workdps(30):
            tt = mp.mpf(t)
            cuts = [0, 1, mp.mpf("1.5")]
            z = mp.quad(lambda v: mp.exp(-v**20), cuts)
            m0, m1 = (mp.quad(lambda v, j=j: v**j * mp.exp(tt * v - v**20), cuts)
                      for j in range(2))
            ref_lam, ref_mean = float(mp.log(m0 / z)), float(m1 / m0)
        assert abs(ref_mean - x) <= 1e-8
        assert abs(mean - ref_mean) <= 1e-12
        assert abs(lam - ref_lam) <= 1e-12 * ref_lam

    def test_no_root_where_the_slope_is_not_finite(self):
        # The bracket scales with g'(x), which overflows for exp past x = 709.
        with pytest.raises(NoRoot, match="not finite"):
            cramer_rate(parse_model("exp"), 800.0)

    @pytest.mark.parametrize("a", [100.0, 400.0])
    def test_far_levels_match_mpmath(self, a):
        """Criterion 8's levels for the cubic, where t* = 3 a^2 (3e4 and
        4.8e5) lies past any fixed bracket of 1e4.  The tilted mass has
        sd 1 / sqrt(6 a), under 0.041, against a window search that starts
        on (0, 8] and doubles past a: the mass is narrow against the
        searched range, so this also checks the window's stops there.  The
        reference is mpmath on [m - 1, m + 1] about the mode m = sqrt(t/3),
        25 sd either side, with c = 1 / Gamma(4/3)."""
        _, t, lam, mean = ratefn._rate_points(parse_model("power:beta=3"), [a])[0]
        assert t == pytest.approx(3.0 * a * a, rel=1e-6)
        with mp.workdps(30):
            tt = mp.mpf(t)
            m = mp.sqrt(tt / 3)
            top = tt * m - m**3
            cuts = [m - 1, m - mp.mpf("0.1"), m, m + mp.mpf("0.1"), m + 1]
            m0, m1 = (mp.quad(lambda x, j=j: x**j * mp.exp(tt * x - x**3 - top), cuts)
                      for j in range(2))
            ref_lam = float(top + mp.log(m0) - mp.loggamma(mp.mpf(4) / 3))
            ref_mean = float(m1 / m0)
        assert abs(ref_mean - a) <= 1e-8 * a
        assert abs(mean - ref_mean) <= 1e-10 * a
        assert abs(lam - ref_lam) <= 1e-10 * ref_lam

    def test_mean_cached(self, weibull3):
        # The solver anchors at the mean the model computed at construction.
        assert weibull3.mean == pytest.approx(0.89297951156924921, rel=1e-9)
        assert cramer_rate(weibull3, weibull3.mean) == (0.0, 0.0)


class TestNarrowTiltedLaws:
    """Far in the tail a tilted law is a peak much narrower than its
    distance from 0.  Lambda'' is its peak-centred second moment less
    (mean - peak)^2, so no digit cancels; as the raw m2 - m1^2 it came out
    negative for power beta=20 past 10 EX (NoConvergence), and 8e-4 off
    between two nearby tilts for exp at 50 EX."""

    @staticmethod
    def _mpmath_variance(G, t, peak, half):
        # exp(t x - G(x)) with every moment taken about the peak.
        with mp.workdps(40):
            t, m = mp.mpf(t), mp.mpf(peak)
            top = t * m - G(m)
            cuts = [-half, -half / 10, 0, half / 10, half]
            c0, c1, c2 = (mp.quad(lambda u, j=j: u**j * mp.exp(t * (m + u) - G(m + u) - top), cuts)
                          for j in range(3))
            d = c1 / c0
            return float(c2 / c0 - d * d)

    @pytest.mark.parametrize("spec, ratio, G, tol", [
        ("power:beta=20", 10.0, lambda v: v**20, 5e-2),
        ("exp", 50.0, mp.exp, 1e-5),
    ], ids=["power20", "exp"])
    def test_variance_matches_mpmath_about_the_peak(self, spec, ratio, G, tol):
        """At the solved tilt (2.5e14 and 4.8e9) the law's standard
        deviation is 7e-9 and 6e-7 of its mean.  ell = t x - g(x) itself
        rounds to about eps t x: 0.27 nats for beta=20 at x = 4.9, which
        bounds any float Lambda'' there to a few percent, and 2.4e-5 nats
        for exp.  The raw m2 - m1^2 gave a negative variance for beta=20
        and one 2.6e-5 off for exp; both are within 2.1e-2 and 1.4e-6."""
        model = parse_model(spec)
        _, t, _, mean = ratefn._rate_points(model, [ratio * model.mean])[0]
        _, _, var, _ = _tilted_stats(model, t)
        _, _, peak = mass_window(ratefn._tilted_ell(model, t), FIRST_POSITIVE, 8.0)
        ref = self._mpmath_variance(G, t, peak, 60.0 * math.sqrt(var))
        assert abs(mean - ratio * model.mean) <= 1e-8 * ratio * model.mean
        assert abs(var / ref - 1.0) <= tol

    def test_nearby_tilts_agree(self):
        # exp at 50 EX: Lambda'' at t* and at t* (1 + 2.6e-8) differed by
        # 8e-4 relative with the raw moments, and now by 2.2e-6.
        model = parse_model("exp")
        t = ratefn._rate_points(model, [50.0 * model.mean])[0][1]
        var = _tilted_stats(model, t)[2]
        assert abs(_tilted_stats(model, t * (1.0 + 2.6e-8))[2] / var - 1.0) <= 1e-5

    @pytest.mark.parametrize("ratio", [5.0, 10.0])
    def test_steep_wall_tables_build(self, ratio):
        # power beta=20 to 5 and 10 EX.  The table to 10 EX ended in
        # NoConvergence (a tilted variance of 0 at t = 2.3e13).
        model = parse_model("power:beta=20")
        table = CramerRate.build(model, ratio * model.mean)
        value_resid, grad_resid = table.duality_residuals()
        assert value_resid <= 1e-12 and grad_resid <= 1e-8

    def test_steeper_walls_end_in_a_documented_error(self):
        # Past 10 EX the tilted law of beta=20 narrows below what the
        # quadrature can weigh; the solve still ends in a StretchwalkError.
        model = parse_model("power:beta=20")
        with pytest.raises(StretchwalkError):
            cramer_rate(model, 20.0 * model.mean)


class TestTailEquivalence:
    def test_exponential_closed_form(self, expo):
        # Survival is exactly e^{-x}, so the ratio is x / (x - 1 - log x).
        ratio = tail_equivalence(expo, 50.0)
        assert ratio == pytest.approx(50.0 / (49.0 - math.log(50.0)), rel=1e-8)
        assert abs(ratio - 1.0) <= 0.15

    def test_weibull_approaches_one(self, weibull3):
        ratios = [tail_equivalence(weibull3, x) for x in (5.0, 10.0, 20.0)]
        gaps = [abs(r - 1.0) for r in ratios]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.15

    def test_weibull_exact_numerator(self, weibull3):
        # Survival is exactly exp(-x^3) for this model, so the ratio
        # equals x^3 / I(x).
        value, _ = cramer_rate(weibull3, 5.0)
        assert tail_equivalence(weibull3, 5.0) == pytest.approx(
            125.0 / value, rel=1e-9
        )


class TestRateTable:
    def test_unit_exponential_table_is_the_closed_form(self, expo):
        # The README's `rate --model power:beta=1 --a 4` table.  Each tilted
        # law below t = 1 peaks at the support's first point; its windows
        # stop there, and every row is I(x) = x - 1 - log x to rounding.
        table = CramerRate.build(expo, 4.0)
        closed = table.x - 1.0 - np.log(table.x)
        assert np.max(np.abs(table.I - closed)) <= 1e-15
        assert np.max(np.abs(table.t_star - (1.0 - 1.0 / table.x))) <= 1e-8

    def test_anchor_row(self, weibull_table):
        assert weibull_table.x[0] == weibull_table.model.mean
        assert weibull_table.I[0] == 0.0
        assert weibull_table.t_star[0] == 0.0

    def test_invariants(self, weibull_table):
        slopes = np.diff(weibull_table.I) / np.diff(weibull_table.x)
        assert np.all(np.diff(slopes) >= -1e-8)
        assert np.all(weibull_table.I >= 0.0)
        assert np.all(np.diff(weibull_table.t_star) >= 0.0)

    def test_duality_residuals(self, weibull_table):
        value_resid, grad_resid = weibull_table.duality_residuals()
        assert value_resid <= 1e-6
        assert grad_resid <= 1e-6

    def test_table_keeps_the_solves_last_pass(self, weibull_table, monkeypatch):
        # Lambda(t*) and Lambda'(t*) are the pass that stopped each solve, so
        # integrating again at t* repeats them bit for bit, and the duality
        # residuals read them without a quadrature pass.
        t = weibull_table
        for k in range(1, t.x.size, 17):
            lam, mean, _, _ = _tilted_stats(t.model, float(t.t_star[k]))
            assert (t.log_mgf[k], t.tilted_mean[k]) == (lam, mean)
        assert (t.log_mgf[0], t.tilted_mean[0]) == (0.0, t.model.mean)
        monkeypatch.setattr(ratefn, "_tilted_stats", lambda *args: pytest.fail("integrated"))
        assert t.duality_residuals()[1] <= 1e-8

    def test_derivative_matches_tilt(self, weibull_table):
        assert weibull_table.derivative_residual() <= 1e-4

    @pytest.mark.parametrize("preset, x_max", [("example1-case1", 5.0), ("example1-case2", 4.0),
                                               ("example2", 2.5), ("weibull-corollary", 5.0)])
    def test_spline_slopes_match_scipy(self, preset, x_max):
        # Criterion 5's tables: the numpy slopes are scipy's not-a-knot
        # CubicSpline derivative at the nodes.
        from scipy.interpolate import CubicSpline

        table = CramerRate.build(pure_density(PRESETS[preset].exponent()), x_max)
        ref = CubicSpline(table.x, table.I).derivative()(table.x)
        got = ratefn._spline_slopes(table.x, table.I)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13

    @pytest.mark.parametrize("spec", ["power:beta=2", "power:beta=2/sin", "weibull:k=3",
                                      "weibull:k=3/sin", "exp", "exp/sin",
                                      "tabulated:path={csv}", "tabulated:path={csv}/sin"])
    def test_anchor_is_the_mean(self, spec, tmp_path):
        # One mean: the table anchors at the value the model computed.
        csv = tmp_path / "steps.csv"
        grid = np.linspace(1e-3, 14.0, 3000)
        np.savetxt(csv, np.column_stack([grid, grid**2]), delimiter=",")
        model = parse_model(spec.format(csv=csv))
        assert CramerRate.build(model, 2.0 * model.mean, points=8).x[0] == model.mean

    def test_csv_export(self, weibull_table, capsys):
        assert cli.main(["rate", "--model", "weibull:k=3", "--a", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "x,I,t_star"
        assert len(lines) == weibull_table.x.size + 2
        x0, i0, t0 = lines[2].split(",")
        assert float(x0) == weibull_table.x[0]
        assert float(i0) == 0.0 and float(t0) == 0.0

    def test_build_validation(self, weibull3):
        with pytest.raises(DomainError):
            CramerRate.build(weibull3, 0.9)
        with pytest.raises(DomainError):
            CramerRate.build(weibull3, 5.0, points=4)
        # np.geomspace refused 8.0 with a bare TypeError.
        with pytest.raises(DomainError, match="points must be an integer"):
            CramerRate.build(weibull3, 5.0, points=8.0)

    @pytest.mark.parametrize("spec", ["weibull:k=3", "power:beta=3/sin"])
    def test_tilted_law_is_the_table_node(self, spec):
        # tilted_law enters the solve through _rate_points, as a table does,
        # so its tilt and Lambda are the table node's at the same mean.
        model = parse_model(spec)
        table = CramerRate.build(model, 3.0 * model.mean, points=8)
        for k in range(1, table.x.size):
            law = tilted_law(model, float(table.x[k]))
            assert law.tilt.hex() == float(table.t_star[k]).hex(), k
            assert law.log_mgf.hex() == float(table.log_mgf[k]).hex(), k


class TestRowWise:
    """A rate table solves all its nodes in one row-wise Halley loop: each
    row keeps its own bracket, and the live rows share one quadrature pass a
    step.  Every row is its one-row solve bit for bit."""

    @pytest.mark.parametrize("spec, x_max", [
        ("example1-case1", 5.0), ("example1-case2", 4.0), ("example2", 2.5),
        ("weibull-corollary", 5.0), ("power:beta=2", 6.0), ("weibull:k=3/sin", 3.0)])
    def test_table_nodes_are_their_one_row_solves(self, spec, x_max):
        # Criterion 5's four presets, the README table and a table whose
        # rows split their panels at kinks.  Summing a row's settled panels
        # panel by panel into its running total, not first among themselves,
        # moved 97 of the 128 rows of example1-case1 by up to 3.3e-16.
        model = (pure_density(PRESETS[spec].exponent()) if spec in PRESETS
                 else parse_model(spec))
        table = CramerRate.build(model, x_max)
        for k in range(1, table.x.size):
            alone = ratefn._rate_points(model, [float(table.x[k])])[0][1:]
            assert alone == (table.t_star[k], table.log_mgf[k], table.tilted_mean[k]), k

    def test_divergent_rows_cap_only_their_own_bracket(self, monkeypatch):
        """Unit-exponential steps with Lambda''' taken as 0: Newton steps
        from t = 0 overshoot the divergence at t = 1 once for x = 2.8 and
        twice for x = 3.2, and never for x = 1.6.  In one batch every row
        equals its one-row solve and the closed form t* = 1 - 1/x,
        Lambda = log x."""
        model = parse_model("power:beta=1")
        monkeypatch.setattr(model, "third_cumulant", 0.0)
        stats = ratefn._tilted_stats
        diverged = []

        def counted(model, t, failed=None):
            got = stats(model, t, failed)
            diverged.append(sum(isinstance(e, Divergent) for e in (failed or {}).values()))
            return got

        monkeypatch.setattr(ratefn, "_tilted_stats", counted)
        means = np.array([1.6, 2.8, 3.2])
        _, t_star, lam, mean = np.array(ratefn._rate_points(model, means.tolist())).T
        assert sum(diverged) == 3
        for k, (x, times) in enumerate(zip(means, (0, 1, 2))):
            diverged.clear()
            assert (t_star[k], lam[k], mean[k]) == ratefn._rate_points(model, [float(x)])[0][1:]
            assert sum(diverged) == times
            assert abs(t_star[k] - (1.0 - 1.0 / x)) <= 1e-12
            assert abs(lam[k] - math.log(x)) <= 1e-12
            assert abs(mean[k] - x) <= 1e-8 * x

    def test_a_row_past_its_bracket_raises_its_own_no_root(self, weibull3, monkeypatch):
        # Held at its floor of 1e4, the bracket of x = 100 stops short of its
        # tilt near 3e4.  In a batch beside rows that solve, the batch
        # raises the NoRoot of that row alone, and so does a table whose
        # last nodes lie past it.
        monkeypatch.setattr(ratefn, "_BRACKET_SCALE", 0.0)
        with pytest.raises(NoRoot) as alone:
            ratefn._rate_points(weibull3, [100.0])
        with pytest.raises(NoRoot) as batch:
            ratefn._rate_points(weibull3, [2.0, 100.0, 3.0])
        assert str(batch.value) == str(alone.value)
        with pytest.raises(NoRoot, match="up to 10000"):
            CramerRate.build(weibull3, 100.0, points=8)

    @pytest.mark.parametrize("spec, x_max", [("weibull:k=3", 20.0), ("power:beta=3/sin", 3.0),
                                             ("exp", 3.0), ("power:beta=1", 4.0)])
    def test_table_rounds_are_its_slowest_node(self, spec, x_max, monkeypatch):
        # One row-wise pass a round, as many rounds as the node that takes
        # the most one-row passes, and in all as many rows as the nodes'
        # one-row passes together.
        model = parse_model(spec)
        stats = ratefn._tilted_stats
        calls = []

        def counted(model, t, failed=None):
            calls.append(np.size(t))
            return stats(model, t, failed)

        monkeypatch.setattr(ratefn, "_tilted_stats", counted)
        table = CramerRate.build(model, x_max, points=16)
        rounds, rows = len(calls), sum(calls)
        passes = []
        for x in table.x[1:]:
            calls.clear()
            ratefn._rate_points(model, [float(x)])
            passes.append(len(calls))
        assert rounds == max(passes)
        assert rows == sum(passes)
