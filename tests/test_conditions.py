"""Tests for the localization-condition diagnostics.

Frozen reference rows were computed offline with 50-digit arithmetic from
the closed-form band infima; the module under test must reproduce them
through its own float pipeline.
"""

import math

import numpy as np
import pytest

from stretchwalk import cli
from stretchwalk.conditions import (
    ExpDecay,
    InverseLogA,
    InversePower,
    PlanPreset,
    PowerOfA,
    PRESETS,
    SequencePlan,
    _trend_verdict,
    evaluate_conditions,
    growth_ratio,
)
from stretchwalk.density import ExpExponent, PowerExponent, WeibullExponent
from stretchwalk.errors import DegeneratePlan, DomainError

QUAD_LEVEL_PLAN = SequencePlan(InversePower(alpha=0.5), InverseLogA(c=1.0))


class TestSequencePlan:
    def test_level_forms(self):
        assert InversePower(alpha=2.0).level(100) == pytest.approx(10.0, rel=1e-15)
        assert InversePower(alpha=0.5).level(100) == pytest.approx(1e4, rel=1e-15)

    def test_halfwidth_forms(self):
        assert PowerOfA(c=0.3, rho=0.0).halfwidth(50, 7.0) == 0.3
        assert InverseLogA(c=2.0).halfwidth(50, math.e**2) == pytest.approx(1.0)
        assert PowerOfA(c=2.0, rho=0.5).halfwidth(50, 9.0) == pytest.approx(6.0)
        assert ExpDecay(c=1.0, kappa=0.125).halfwidth(50, 8.0) == pytest.approx(
            math.exp(-1.0)
        )


class TestFrozenRows:
    """Reference rows, 50-digit arithmetic."""

    def test_cubic_row(self):
        rep = evaluate_conditions(PowerExponent(3.0), QUAD_LEVEL_PLAN, [100])
        row = rep.rows[0]
        assert row.a == pytest.approx(1e4, rel=1e-15)
        assert row.eps == pytest.approx(0.10857362047581294, rel=1e-14)
        assert row.H == pytest.approx(357.21784336771882, rel=1e-12)
        assert row.G == pytest.approx(0.00030000000000000003, rel=1e-12)
        assert row.ratio_growth == pytest.approx(6.0, rel=1e-13)
        assert row.ratio32 == pytest.approx(7.7350709660364185, rel=1e-12)
        assert row.ratio33 == pytest.approx(8.398236694217457e-5, rel=1e-12)

    def test_weibull_row(self):
        rep = evaluate_conditions(WeibullExponent(3.0), QUAD_LEVEL_PLAN, [1000])
        row = rep.rows[0]
        assert row.eps == pytest.approx(0.07238241365054197, rel=1e-14)
        assert row.H == pytest.approx(15733.374413200361, rel=1e-12)
        assert row.G == pytest.approx(3.0e-6, rel=1e-12)
        assert row.ratio32 == pytest.approx(2.6343065894539608, rel=1e-12)
        assert row.ratio33 == pytest.approx(1.9067746824120505e-7, rel=1e-12)


class TestEvaluateConditions:
    def test_rows_sorted_and_row_local(self):
        exp = PowerExponent(3.0)
        full = evaluate_conditions(exp, QUAD_LEVEL_PLAN, [1000, 100, 10000])
        assert [r.n for r in full.rows] == [100, 1000, 10000]
        # Each row depends only on its own (n, a, eps): subsampling the
        # grid must leave surviving rows bit-identical.
        sub = evaluate_conditions(exp, QUAD_LEVEL_PLAN, [1000])
        keep = next(r for r in full.rows if r.n == 1000)
        assert sub.rows[0] == keep

    def test_growth_verdict(self):
        rep = evaluate_conditions(PowerExponent(3.0), QUAD_LEVEL_PLAN, [100, 1000])
        assert rep.growth is True
        assert all(r.ratio_growth > 0.0 for r in rep.rows)

    def test_degenerate_plan_rejected(self):
        # Linear exponent: the band infimum never clears n g(a), H == 0
        # on every row, which is past the 10% allowance.
        with pytest.raises(DegeneratePlan):
            evaluate_conditions(PowerExponent(1.0), QUAD_LEVEL_PLAN, [10, 100, 1000])

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            evaluate_conditions(PowerExponent(3.0), QUAD_LEVEL_PLAN, [])

    def test_non_integer_grid_rejected(self):
        # These were read as the rows n = 100, 200, 300 and 400.
        with pytest.raises(DomainError, match=r"n_grid\[0\] must be an integer"):
            evaluate_conditions(PowerExponent(3.0), QUAD_LEVEL_PLAN,
                                [100.7, 200.2, 300.9, 400.5])

    def test_csv_header_and_shape(self, capsys):
        # The example1-case2 preset is the cubic law under QUAD_LEVEL_PLAN.
        assert cli.main(["conditions", "--plan", "example1-case2", "--n", "100,1000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "# seed=0"
        assert lines[1] == "n,a,eps,ratio_growth,ratio32,ratio33,H,G"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert first[0] == "100"
        assert float(first[4]) == pytest.approx(7.7350709660364185, rel=1e-12)


class TestTrendVerdicts:
    def test_cubic_shrinking_band_decreasing(self):
        preset = PRESETS["example1-case2"]
        rep = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        assert rep.c32_trend == "decreasing"
        assert rep.c33_trend == "decreasing"
        assert rep.growth is True
        assert rep.final_ratio32 < 1e-2

    def test_narrow_band_increasing(self):
        preset = PRESETS["example1-case1"]
        rep = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        assert rep.c32_trend == "increasing"

    def test_exponential_plan_decreasing(self):
        preset = PRESETS["example2"]
        rep = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        assert rep.c32_trend == "decreasing"
        assert rep.c33_trend == "decreasing"

    def test_weibull_plan_decreasing(self):
        preset = PRESETS["weibull-corollary"]
        rep = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        assert rep.c32_trend == "decreasing"
        assert rep.final_ratio32 < 1e-2

    def test_flat_sequence_inconclusive(self):
        # Constant ratios carry no trend signal.
        ns = np.array([10, 20, 40, 80, 160, 320])
        assert _trend_verdict(ns, np.full(ns.size, 0.7)) == "inconclusive"

    def test_verdicts_deterministic(self):
        preset = PRESETS["example2"]
        a = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        b = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        assert (a.c32_trend, a.c33_trend) == (b.c32_trend, b.c33_trend)


class TestPresets:
    def test_all_presets_runnable(self):
        for name, preset in PRESETS.items():
            assert isinstance(preset, PlanPreset)
            assert preset.name == name
            model = preset.exponent()
            assert model.g(np.array([2.0]))[0] > 0.0
            assert len(preset.n_grid) >= 5
            assert all(b > a for a, b in zip(preset.n_grid, preset.n_grid[1:]))

    def test_exponent_specs(self):
        assert isinstance(PRESETS["example1-case2"].exponent(), PowerExponent)
        assert isinstance(PRESETS["example2"].exponent(), ExpExponent)
        assert isinstance(PRESETS["weibull-corollary"].exponent(), WeibullExponent)


def test_growth_ratio_value():
    assert growth_ratio(PowerExponent(3.0), 100, 1e4) == pytest.approx(6.0, rel=1e-13)
    with pytest.raises(DomainError):
        growth_ratio(PowerExponent(3.0), 1, 2.0)
