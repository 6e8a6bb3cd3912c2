"""Band-exit closed forms against the brute-force oracle, the minorant
construction, and both certified probability bounds.

Frozen reference values come from 50-digit arithmetic; the brute-force
comparisons are live searches so the closed forms are checked, not assumed.
"""

import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from stretchwalk.density import (
    ExpExponent,
    PowerExponent,
    Perturbation,
    PerturbedDensity,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk import variational
from stretchwalk.errors import DomainError, NoConvergence, ThresholdNotFound
from stretchwalk.smalln import exact_log_prob_escape, exact_log_prob_exceed
from stretchwalk.variational import (
    BandEvent,
    brute_force_infimum,
    closed_form_bounds,
    convex_minorant,
    escape_rate_sandwich,
    exit_profile,
    log_prob_escape_upper,
    log_prob_exceed_lower,
)


# -- closed forms ------------------------------------------------------------


def test_square_exponent_hand_values():
    bounds = closed_form_bounds(PowerExponent(2.0), BandEvent(2, 1.0, 0.5))
    assert bounds.high_exit == pytest.approx(2.5, rel=1e-14)
    assert bounds.low_exit == pytest.approx(2.5, rel=1e-14)
    assert bounds.sum_infimum == pytest.approx(2.0, rel=1e-14)
    assert bounds.escape_gap == pytest.approx(0.5, rel=1e-14)


def test_reciprocal_gap_square_exponent_exact_fraction():
    # g = x^2, a = 3: g(3 + 1/9) - g(3) = (28/9)^2 - 9 = 55/81.
    bounds = closed_form_bounds(PowerExponent(2.0), BandEvent(2, 3.0, 0.5))
    assert bounds.reciprocal_gap == pytest.approx(55.0 / 81.0, rel=1e-13)
    assert bounds.volume_correction == pytest.approx(110.0 / 81.0, rel=1e-13)


@pytest.mark.parametrize(
    "exponent,a,want",
    [
        (PowerExponent(2.5), 10.0, 0.25005929583100464),
        (WeibullExponent(3.0), 2.0, 1.809283094239861),
        (ExpExponent(), 3.0, 1.0253118532515547),
        (PowerExponent(2.0), 1e8, 2.0e-8),
    ],
)
def test_reciprocal_gap_reference_values(exponent, a, want):
    # 50-digit arithmetic; the last case vanishes in naive double precision.
    bounds = closed_form_bounds(exponent, BandEvent(4, a, a * 1e-4))
    assert bounds.reciprocal_gap == pytest.approx(want, rel=1e-11)


def test_exit_profile_hand_values():
    exponent = PowerExponent(2.0)
    ev = BandEvent(4, 2.0, 0.5)
    assert exit_profile(exponent, ev, 1) == pytest.approx(49.0 / 3.0, rel=1e-13)
    assert exit_profile(exponent, ev, 2) == pytest.approx(17.0, rel=1e-13)
    assert exit_profile(exponent, ev, 3) == pytest.approx(19.0, rel=1e-13)


def test_exit_profile_increasing_in_k():
    for exponent in (PowerExponent(2.5), WeibullExponent(3.0), ExpExponent()):
        ev = BandEvent(6, 2.2, 0.4)
        values = [exit_profile(exponent, ev, k) for k in range(1, 6)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_exit_profile_k_one_matches_high_exit():
    exponent = WeibullExponent(3.0)
    ev = BandEvent(5, 1.9, 0.3)
    bounds = closed_form_bounds(exponent, ev)
    assert exit_profile(exponent, ev, 1) == pytest.approx(
        bounds.high_exit, rel=1e-12
    )


def test_band_event_validation():
    with pytest.raises(DomainError):
        BandEvent(1, 1.0, 0.1)
    with pytest.raises(DomainError):
        BandEvent(3, -2.0, 0.1)
    with pytest.raises(DomainError):
        BandEvent(3, 1.0, 1.5)
    # A 2.5-step walk was accepted, and closed_form_bounds gave it a value.
    with pytest.raises(DomainError, match="n must be an integer"):
        BandEvent(2.5, 2.0, 0.5)
    BandEvent(3, 1.0, 0.0)  # degenerate band is allowed
    BandEvent(np.int64(3), 1.0, 0.1)


def test_closed_form_requires_level_beyond_threshold():
    # Weibull g decreases below ((k-1)/k)^(1/k); the exit calculus needs
    # the band centre past that point.
    with pytest.raises(DomainError):
        closed_form_bounds(WeibullExponent(3.0), BandEvent(3, 0.5, 0.1))


# -- brute-force oracle ------------------------------------------------------


@pytest.mark.parametrize(
    "exponent,n,a,eps",
    [
        (PowerExponent(2.0), 2, 2.0, 0.5),
        (PowerExponent(2.0), 3, 2.0, 0.5),
        (PowerExponent(2.0), 4, 2.0, 0.5),
        (PowerExponent(2.5), 2, 4.0, 1.0),
        (WeibullExponent(3.0), 3, 1.8, 0.3),
        (ExpExponent(), 3, 2.5, 0.4),
        (PowerExponent(2.0), 5, 3.0, 0.5),
    ],
)
def test_brute_force_recovers_closed_forms(exponent, n, a, eps):
    model = pure_density(exponent)
    ev = BandEvent(n, a, eps)
    bounds = closed_form_bounds(exponent, ev)
    got_c = brute_force_infimum(model, ev, "C")
    got_a = brute_force_infimum(model, ev, "AcapC")
    got_b = brute_force_infimum(model, ev, "BcapC")
    assert got_c == pytest.approx(bounds.sum_infimum, rel=2e-4)
    assert got_a == pytest.approx(bounds.high_exit, rel=2e-4)
    assert got_b == pytest.approx(bounds.low_exit, rel=2e-4)


def test_brute_force_escape_region_is_min_of_sides():
    model = pure_density(PowerExponent(2.0))
    ev = BandEvent(3, 2.0, 0.5)
    got = brute_force_infimum(model, ev, "IccC")
    bounds = closed_form_bounds(model.exponent, ev)
    assert got == pytest.approx(bounds.escape_infimum, rel=2e-4)


def test_brute_force_perturbed_stays_in_envelope_corridor():
    # |q| <= 1/2 per step for the oscillatory model, so every regional
    # infimum sits within n/2 of its unperturbed counterpart.
    model = sin_perturbed_density(PowerExponent(2.0))
    ev = BandEvent(3, 2.0, 0.5)
    bounds = closed_form_bounds(model.exponent, ev)
    for region, pure_value in (("C", bounds.sum_infimum),
                               ("AcapC", bounds.high_exit),
                               ("BcapC", bounds.low_exit)):
        got = brute_force_infimum(model, ev, region)
        assert abs(got - pure_value) <= 1.5 + 1e-6


def test_brute_force_perturbed_alc_corridor():
    # Almost log-concave: |q| = log(1 + sin(x)^2 / 2) <= log(3/2) per step.
    alc = Perturbation(q=lambda x: -np.log1p(0.5 * np.sin(x) ** 2),
                       M=lambda x: np.full_like(x, math.log(1.5)), N=1.0, y0=math.sqrt(1.5))
    model = PerturbedDensity(exponent=PowerExponent(2.0), perturbation=alc)
    ev = BandEvent(3, 2.0, 0.5)
    bounds = closed_form_bounds(model.exponent, ev)
    slack = 3 * math.log(1.5) + 1e-6
    got = brute_force_infimum(model, ev, "C")
    assert abs(got - bounds.sum_infimum) <= slack


def test_brute_force_region_ordering():
    model = pure_density(WeibullExponent(3.0))
    ev = BandEvent(3, 1.8, 0.3)
    got_c = brute_force_infimum(model, ev, "C")
    got_icc = brute_force_infimum(model, ev, "IccC")
    assert got_icc >= got_c - 1e-9


def test_brute_force_input_validation():
    model = pure_density(PowerExponent(2.0))
    with pytest.raises(DomainError):
        brute_force_infimum(model, BandEvent(3, 2.0, 0.5), "elsewhere")
    # n = 7 and 8 would grid 24M and 63M points at the second resolution;
    # both are refused before any search.
    for n in (7, 8, 9):
        with pytest.raises(DomainError):
            brute_force_infimum(model, BandEvent(n, 2.0, 0.5), "C")


def test_brute_force_refinement_stops_at_the_grid_cap(monkeypatch):
    # At n = 5 the third resolution would grid 65^4 > 2^24 points; when the
    # first two disagree the search raises instead of allocating it.
    monkeypatch.setattr(variational, "_REFINE_TOL", -1.0)
    with pytest.raises(NoConvergence):
        brute_force_infimum(pure_density(PowerExponent(2.0)), BandEvent(5, 3.0, 0.5), "C")


@pytest.mark.parametrize("region", ["C", "AcapC", "BcapC"])
def test_coarse_candidates_match_full_stable_sort(monkeypatch, region):
    # g = x^2 at n = 4 is symmetric in the three gridded coordinates, so
    # equal totals come in groups of up to six; the partial selection must
    # keep the stable order of a full argsort through every tie.
    g = PowerExponent(2.0).g
    ev = BandEvent(4, 2.0, 0.5)
    axis = np.linspace(1e-3, 2.0 + 4 * 0.5 + 5.0, 65)
    sum_w = functools.reduce(np.add.outer, [g(axis)] * 3).ravel()
    sum_x = functools.reduce(np.add.outer, [axis] * 3).ravel()
    args = (g, ev, region, axis, sum_w, sum_x, 6)
    got = variational._coarse_candidates(*args)
    monkeypatch.setattr(variational, "_smallest",
                        lambda total, m: np.argsort(total, kind="stable")[:m])
    want = variational._coarse_candidates(*args)
    assert len(got) == len(want) == 6
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_refinement_ladder_runs_each_level_once(monkeypatch):
    # When no two resolutions agree, levels 0..3 each run one search and
    # the fourth disagreement raises: no level is searched twice.
    levels = []
    search = variational._search
    monkeypatch.setattr(variational, "_search",
                        lambda *args: levels.append(args[-1]) or search(*args))
    monkeypatch.setattr(variational, "_REFINE_TOL", -1.0)
    with pytest.raises(NoConvergence):
        brute_force_infimum(pure_density(PowerExponent(2.0)), BandEvent(2, 3.0, 0.5), "IccC")
    assert levels == [0, 1, 2, 3]


def test_escape_search_is_one_search_per_level(monkeypatch):
    # Both exit regions share one free grid (two outer-sum reductions: w
    # and x) and one descent per level, with no recursion into the regions.
    reduces, descents = [], []
    descend = variational._descend
    monkeypatch.setattr(variational, "functools", types.SimpleNamespace(
        reduce=lambda *args: reduces.append(1) or functools.reduce(*args)))
    monkeypatch.setattr(variational, "_descend",
                        lambda *args, **kw: descents.append(len(args[2])) or descend(*args, **kw))
    monkeypatch.setattr(variational, "_REFINE_TOL", -1.0)
    with pytest.raises(NoConvergence):
        brute_force_infimum(pure_density(PowerExponent(2.0)), BandEvent(3, 2.0, 0.5), "IccC")
    assert len(reduces) == 2 * 4 and len(descents) == 4
    # Each descent polishes the candidates of both regions together.
    assert all(count > 6 for count in descents)


@pytest.mark.parametrize("spec, ev", [
    ("power:beta=2", BandEvent(3, 2.0, 0.5)),
    ("weibull:k=3", BandEvent(2, 1.8, 0.3)),
    ("exp", BandEvent(3, 2.5, 0.4)),
    ("power:beta=2/sin", BandEvent(3, 3.0, 0.5)),
    ("power:beta=3/sin", BandEvent(4, 2.0, 0.5)),
])
def test_escape_search_is_min_of_exit_regions_bit_for_bit(spec, ev):
    model = parse_model(spec)
    both = brute_force_infimum(model, ev, "IccC")
    assert both == min(brute_force_infimum(model, ev, "AcapC"),
                       brute_force_infimum(model, ev, "BcapC"))


def test_suffix_min_matches_scan():
    rng = np.random.default_rng(11)
    for vals in (rng.integers(0, 4, 300).astype(float),   # many ties
                 np.linspace(2.0, -1.0, 50) ** 2,          # one interior minimum
                 rng.normal(size=1000), np.ones(7), np.array([3.0])):
        want_arg = np.zeros(vals.size, dtype=int)
        best = vals.size - 1
        for i in range(vals.size - 1, -1, -1):
            if vals[i] <= vals[best]:
                best = i
            want_arg[i] = best
        got_min, got_arg = variational._suffix_min(vals)
        assert np.array_equal(got_arg, want_arg)
        assert np.array_equal(got_min, vals[want_arg])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_round_robin_covers_every_pair_once(n):
    rounds = variational._round_robin(n)
    assert len(rounds) == (n - 1 if n % 2 == 0 else n)
    pairs = []
    for i, j in rounds:
        assert np.all(i < j)
        assert len(set(i.tolist() + j.tolist())) == 2 * i.size == 2 * (n // 2)
        pairs += list(zip(i.tolist(), j.tolist()))
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]


# -- convex minorant ---------------------------------------------------------


def test_minorant_thresholds_ordered():
    model = sin_perturbed_density(PowerExponent(2.0))
    minorant = convex_minorant(model.exponent, model.perturbation)
    assert 0.0 < minorant.convex_from <= minorant.envelope_from < minorant.knot


def test_minorant_stays_below_adjusted_exponent():
    model = sin_perturbed_density(PowerExponent(2.0))
    pert = model.perturbation
    minorant = convex_minorant(model.exponent, pert)
    xs = np.geomspace(1e-3, 3.0 * minorant.knot, 20_001)
    slack = model.exponent.g(xs) - pert.M(xs) - minorant.value(xs)
    assert np.all(slack >= -1e-8 * np.maximum(1.0, np.abs(model.exponent.g(xs))))


def test_minorant_equals_adjusted_form_beyond_knot():
    model = sin_perturbed_density(WeibullExponent(3.0))
    minorant = convex_minorant(model.exponent, model.perturbation)
    xs = np.linspace(minorant.knot, minorant.knot * 2.0, 101)
    np.testing.assert_allclose(minorant.value(xs), minorant.log_adjusted(xs), rtol=1e-12)


def test_minorant_convex():
    model = sin_perturbed_density(PowerExponent(2.0))
    minorant = convex_minorant(model.exponent, model.perturbation)
    xs = np.linspace(minorant.knot * 0.2, minorant.knot * 3.0, 4001)
    vals = minorant.value(xs)
    second = np.diff(vals, 2)
    assert np.all(second >= -1e-8 * np.maximum(1.0, np.abs(vals[1:-1])))


def test_minorant_threshold_not_found_in_tiny_range():
    # An envelope threshold y0 beyond the search grid (up to 1e6) leaves no
    # point to glue at.
    model = sin_perturbed_density(PowerExponent(2.0))
    far = dataclasses.replace(model.perturbation, y0=2e6)
    with pytest.raises(ThresholdNotFound):
        convex_minorant(model.exponent, far)


# -- certified probability bounds -------------------------------------------


def test_lower_bound_hand_value():
    # g = x^2, n = 2, a = 3: the bound is
    # 2 log(2/sqrt(pi)) - 18 - 110/81 - 2 log 9, assembled independently.
    model = pure_density(PowerExponent(2.0))
    got = log_prob_exceed_lower(model, BandEvent(2, 3.0, 0.5))
    want = 2.0 * math.log(2.0 / math.sqrt(math.pi)) - 18.0 - 110.0 / 81.0 - 2.0 * math.log(9.0)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize(
    "make_model,n,a,eps",
    [
        (lambda: pure_density(PowerExponent(2.0)), 2, 3.0, 0.5),
        (lambda: pure_density(WeibullExponent(3.0)), 2, 2.0, 0.4),
        (lambda: pure_density(ExpExponent()), 2, 2.2, 0.3),
        (lambda: sin_perturbed_density(PowerExponent(2.0)), 2, 5.0, 0.5),
    ],
)
def test_bounds_sandwich_exact_probabilities(make_model, n, a, eps):
    model = make_model()
    ev = BandEvent(n, a, eps)
    exact_exceed = exact_log_prob_exceed(model, n, a)
    exact_escape = exact_log_prob_escape(model, n, a, eps)
    assert log_prob_exceed_lower(model, ev) <= exact_exceed
    assert log_prob_escape_upper(model, ev) >= exact_escape


def test_escape_sandwich_orders():
    pure = pure_density(PowerExponent(2.0))
    ev = BandEvent(2, 3.0, 0.5)
    lo, hi = escape_rate_sandwich(pure, ev)
    assert lo == hi
    perturbed = sin_perturbed_density(PowerExponent(2.0))
    lo_p, hi_p = escape_rate_sandwich(perturbed, ev)
    assert lo_p < lo
    assert lo_p <= hi_p


def test_perturbed_lower_bound_needs_level_beyond_knot():
    model = sin_perturbed_density(PowerExponent(2.0))
    minorant = convex_minorant(model.exponent, model.perturbation)
    with pytest.raises(DomainError):
        log_prob_exceed_lower(model, BandEvent(2, minorant.knot * 0.5, 0.1))


def test_escape_upper_bound_needs_large_rate():
    # At a = 0.9 with g = x^2 the escape rate is below n, outside the
    # region where the tail bound is proved.
    model = pure_density(PowerExponent(2.0))
    with pytest.raises(DomainError):
        log_prob_escape_upper(model, BandEvent(2, 0.9, 0.1))
