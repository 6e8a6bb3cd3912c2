"""Acceptance suite: one test per numbered criterion, one printed line each.

Every criterion runs through :mod:`stretchwalk.acceptance` with root seed 0,
so this file and the ``verify`` command exercise the same checks.  The
asserts carry the full detail payload, which makes a red criterion print
its measured numbers instead of a bare False.

Criteria 8 and 10 test the paper's two trend claims by sampling, at
parameters inside the regime the claims cover: criterion 8 along the cubic
worked example's plan a_n = n^2, criterion 10 with windows sized by the
Erdos-Renyi law for the tilted increments.  The derivations sit next to
their assertions in ``stretchwalk.acceptance``.
"""

import json

import pytest

from stretchwalk import acceptance

_ROOT_SEED = 0


def _check(index: int) -> None:
    result = acceptance.run_all(criteria=[index], root_seed=_ROOT_SEED)[0]
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {index:2d}: {status}  ({result.runtime_s:.1f}s)")
    assert result.passed, json.dumps(result.details, indent=2, default=str)


def test_criterion_01_closed_forms_match_brute_force():
    # Relative gap <= 1e-4 over 4 exponents x 3 n x 3 a x 2 eps; <= 2 min.
    _check(1)


def test_criterion_02_exit_profile_monotone():
    # Profile nondecreasing in k, anchored at the high exit for k=1.
    _check(2)


def test_criterion_03_bound_sandwich_small_n():
    # Exact quadrature sits between the certified bounds with positive slack.
    _check(3)


def test_criterion_04_convex_minorant():
    # h <= g - M on a 1e4-point grid, second differences >= -1e-10, knot
    # conditions hold, for each perturbed preset model.
    _check(4)


def test_criterion_05_rate_function_duality():
    # Unit-exponent closed form within 1e-6; duality residuals <= 1e-6 and
    # spline derivative within 1e-4 of the tilt on every preset table.
    _check(5)


def test_criterion_06_tail_equivalence():
    # |(-log P(X>x)) / I(x) - 1| decreasing over x in {5, 10, 20}, <= 0.15
    # at x = 20.
    _check(6)


def test_criterion_07_importance_sampling_rate_match():
    # |(-log P_IS(C)) / (n I(a)) - 1| <= 0.15 with n_eff >= 100; <= 1 min.
    _check(7)


def test_criterion_08_localization_trend_gibbs():
    # Band probability strictly increasing along a_n = n^2 at n = 5, 10, 20
    # with eps_n = c / log a_n, 3-std-err endpoint separation and final value
    # >= 0.9, for the pure and the sin-perturbed cubic model.  c = 1/2 comes
    # from the closed form, not from sampler output: one of n steps leaves
    # the band at cost about the escape barrier H, so P(not localized) is of
    # order exp(-(H - log n)), and c = 1/2 gives H - log n = 0.65, 1.63, 5.80
    # (c = 1 gives 7.4 at the first triple, where every estimate reads 1).
    # Measured: 0.8635, 0.9525, 0.9995 for both models.
    _check(8)


def test_criterion_09_sequence_plan_verdicts():
    # Ratio trends and final values for the three worked sequence plans.
    _check(9)


def test_criterion_10_steep_window_hits():
    # Conditioned steep-window hit rate nondecreasing in n (a drop counts
    # only if the 95% Wilson intervals are disjoint), >= 0.9 at n=2000,
    # baseline strictly lower, 200 replications; <= 5 min.  Windows of
    # length k_n = floor(log n / (2 J(alpha))), J the rate of the law tilted
    # to mean a, so c J <= 1/2, inside the Erdos-Renyi regime c J < 1 where
    # the hit rate tends to 1.  Measured: k = 3, conditioned 0.97, 1.0, 1.0,
    # baseline 0, 0, 0.005.
    _check(10)


def test_criterion_11_verify_reruns_byte_identical():
    # Repeated sub-runs with one seed emit byte-identical CSV/JSON.
    _check(11)
