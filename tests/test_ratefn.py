"""Tests for the numeric Legendre-transform rate function.

The linear-exponent model has closed forms (Lambda(t) = -log(1-t),
I(x) = x - 1 - log x, t* = 1 - 1/x) and anchors the solver exactly.
Frozen reference values for the other models were computed offline with
50-digit arithmetic.
"""

import math

import numpy as np
import pytest

from stretchwalk import cli
from stretchwalk.density import (
    PowerExponent,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.errors import Divergent, DomainError, NoRoot
from stretchwalk.ratefn import CramerRate, cramer_rate, log_mgf, tail_equivalence


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
        assert log_mgf(expo, 0.5) == pytest.approx(math.log(2.0), rel=1e-9)
        assert log_mgf(expo, -1.0) == pytest.approx(-math.log(2.0), rel=1e-9)

    def test_zero_tilt_is_zero(self, expo, weibull3):
        assert log_mgf(expo, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert log_mgf(weibull3, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_divergent_at_unit_tilt(self, expo):
        with pytest.raises(Divergent):
            log_mgf(expo, 1.0)
        with pytest.raises(Divergent):
            log_mgf(expo, 1.5)

    def test_weibull_frozen_value(self, weibull3):
        # 50-digit arithmetic.
        assert log_mgf(weibull3, 1.0) == pytest.approx(0.94647650166262236, rel=1e-9)

    def test_weibull_monte_carlo_agreement(self, weibull3):
        draws = weibull3.sample(1_000_000, seed=20240817)
        vals = np.exp(draws)
        mc_mean = float(vals.mean())
        mc_se = float(vals.std(ddof=1)) / math.sqrt(vals.size)
        assert abs(math.exp(log_mgf(weibull3, 1.0)) - mc_mean) <= 3.0 * mc_se


class TestCramerRate:
    def test_exponential_closed_form(self, expo):
        for x in (2.0, 5.0, 10.0):
            value, tilt = cramer_rate(expo, x)
            assert abs(value - (x - 1.0 - math.log(x))) <= 1e-6
            assert abs(tilt - (1.0 - 1.0 / x)) <= 1e-6

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

    def test_no_root_past_bracket_limit(self, weibull3):
        # The tilt needed for x=100 is about 3e4, beyond the search cap.
        with pytest.raises(NoRoot):
            cramer_rate(weibull3, 100.0)

    def test_mean_cached(self, weibull3):
        # The solver anchors at the mean the model computed at construction.
        assert weibull3.mean == pytest.approx(0.89297951156924921, rel=1e-9)
        assert cramer_rate(weibull3, weibull3.mean) == (0.0, 0.0)


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

    def test_derivative_matches_tilt(self, weibull_table):
        assert weibull_table.derivative_residual() <= 1e-4

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
