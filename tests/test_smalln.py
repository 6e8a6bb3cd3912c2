"""Exact two- and three-step probabilities against independent references.

Frozen values come from 50-digit arithmetic reductions to one-dimensional
integrals with closed-form survival inside; the pure-exponential cases use
the gamma-sum closed form evaluated inline.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from stretchwalk.density import (
    PowerExponent,
    WeibullExponent,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk import smalln
from stretchwalk.errors import DomainError, NonIntegrable
from stretchwalk.smalln import (
    _BLOCK_PANELS,
    _ROW_BLOCK,
    _LogTable,
    _log_quad,
    exact_localization,
    exact_log_prob_band,
    exact_log_prob_escape,
    exact_log_prob_exceed,
)


def test_power2_two_steps_frozen():
    model = pure_density(PowerExponent(2.0))
    got = exact_log_prob_exceed(model, 2, 3.0)
    assert got == pytest.approx(-19.350474589141342, abs=5e-7)


def test_weibull_two_steps_frozen():
    model = pure_density(WeibullExponent(3.0))
    got = exact_log_prob_exceed(model, 2, 2.0)
    assert got == pytest.approx(-14.174818945145753, abs=5e-7)


def test_weibull_two_step_band_frozen():
    model = pure_density(WeibullExponent(3.0))
    got = exact_log_prob_band(model, 2, 2.0, 0.4)
    assert got == pytest.approx(-14.253901761628991, abs=5e-7)
    loc = exact_localization(model, 2, 2.0, 0.4)
    assert loc == pytest.approx(0.92396340187688121, rel=1e-6)


def test_weibull_three_steps_frozen():
    model = pure_density(WeibullExponent(3.0))
    got = exact_log_prob_exceed(model, 3, 1.6)
    assert got == pytest.approx(-9.1797924714977, abs=2e-6)
    band = exact_log_prob_band(model, 3, 1.6, 0.35)
    assert band == pytest.approx(-9.66778712942558, abs=2e-6)
    loc = exact_localization(model, 3, 1.6, 0.35)
    assert loc == pytest.approx(0.613856152297897, rel=1e-5)


def test_perturbed_two_steps_frozen():
    # 30-digit mpmath reduction: P = int_0^cap p(x) S(5 - x) dx with
    # p = exp(-(x^2 + q)) / Z, q = 0.5 sin(x) clip(2 log x, 0, 1) and S(y) the
    # integral of p over [y, cap] (1 for y <= 0), cap = 10.  Every integral is
    # split at the kinks of q, x = 1 and e^(1/2), and the outer one also at
    # 5 - e^(1/2), 4 and 5, where S(5 - x) bends: log P = -14.05669640277447.
    # What is left is the survival table's trapezoid error, about 2.8e-9.
    model = sin_perturbed_density(PowerExponent(2.0))
    got = exact_log_prob_exceed(model, 2, 2.5)
    assert got == pytest.approx(-14.05669640277447, abs=1e-8)


def test_perturbed_weibull_two_steps_frozen():
    # The same reduction at 25 digits and t = 3.2, for g = x^3 - 2 log x,
    # whose envelope clip(log g, 0, 1) bends at the four model.kinks k: split
    # at each k and, in the outer integral, at each 3.2 - k.
    model = sin_perturbed_density(WeibullExponent(3.0))
    got = exact_log_prob_exceed(model, 2, 1.6)
    assert got == pytest.approx(-7.41065081541222, abs=1e-8)


_CONVERGENCE_MODELS = {
    "power2": lambda: pure_density(PowerExponent(2.0)),
    "weibull3": lambda: pure_density(WeibullExponent(3.0)),
    "power2/sin": lambda: sin_perturbed_density(PowerExponent(2.0)),
    "power3/sin": lambda: sin_perturbed_density(PowerExponent(3.0)),
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", sorted(_CONVERGENCE_MODELS))
def test_values_converge_in_the_panel_count(monkeypatch, spec, n):
    # Pieces split at every kink of the integrand are smooth, so doubling the
    # panels moves no value by more than 1e-8 in log P.  Each panel count gets
    # its own model: values are memoised on it.
    def values():
        model = _CONVERGENCE_MODELS[spec]()
        return np.array([v for a, eps in ((1.6, 0.35), (2.0, 0.5))
                         for v in (exact_log_prob_exceed(model, n, a),
                                   exact_log_prob_band(model, n, a, eps))])

    base = values()
    monkeypatch.setattr(smalln, "_PANELS", 2 * smalln._PANELS)
    doubled = values()
    assert np.all(np.isfinite(base))
    assert np.max(np.abs(base - doubled)) <= 1e-8


def test_third_step_refuses_a_table_with_a_gap():
    # The two-step probability falls in t, so its finite values form one
    # leading run; a table with a -inf inside it is refused, under python -O too.
    model = pure_density(PowerExponent(2.0))
    t_grid = np.linspace(0.0, 4.0, 5)
    two_step = np.array([0.0, -1.0, -math.inf, -3.0, -math.inf])
    with pytest.raises(NonIntegrable):
        smalln._third_step(model, t_grid, two_step, 6.0, 0.0, model.support_cap)


def test_pure_exponential_matches_gamma_sums():
    # beta = 1 steps are Exp(1), so S_n is Gamma(n, 1) and the tail is the
    # truncated exponential series evaluated exactly.
    model = pure_density(PowerExponent(1.0))
    for n, a in ((2, 3.0), (3, 2.0), (2, 0.4), (3, 4.0)):
        s = n * a
        tail = sum(s**j / math.factorial(j) for j in range(n))
        want = -s + math.log(tail)
        got = exact_log_prob_exceed(model, n, a)
        assert got == pytest.approx(want, abs=5e-6)


def test_band_plus_escape_reassembles_exceed():
    model = pure_density(WeibullExponent(3.0))
    n, a, eps = 3, 1.6, 0.35
    total = math.exp(exact_log_prob_band(model, n, a, eps)) + math.exp(
        exact_log_prob_escape(model, n, a, eps)
    )
    assert total == pytest.approx(math.exp(exact_log_prob_exceed(model, n, a)), rel=1e-9)


def test_localization_monotone_in_band_width():
    model = pure_density(WeibullExponent(3.0))
    values = [exact_localization(model, 2, 2.0, eps) for eps in (0.2, 0.3, 0.4)]
    assert values[0] < values[1] < values[2]


def test_localization_bounded_by_one():
    model = pure_density(PowerExponent(2.0))
    assert 0.0 < exact_localization(model, 2, 2.5, 0.6) <= 1.0


def test_rejects_large_n():
    model = pure_density(PowerExponent(2.0))
    with pytest.raises(DomainError):
        exact_log_prob_exceed(model, 5, 2.0)


@pytest.mark.parametrize("call", [
    lambda m: exact_log_prob_exceed(m, 2.0, 2.0),
    lambda m: exact_log_prob_band(m, 3.0, 2.0, 0.5),
], ids=["exceed", "band"])
def test_rejects_non_integer_n(call):
    # n = 2.0 compared equal to 2 and was taken for a two-step walk.
    with pytest.raises(DomainError, match="n must be an integer"):
        call(pure_density(PowerExponent(2.0)))


@pytest.mark.parametrize("a, eps", [(1.6, 0.35), (2.0, 1.5)])
def test_three_step_table_lies_on_the_levels_read(monkeypatch, a, eps):
    # The third step reads the two-step table at 3a - x for x in (lo, hi],
    # within the two-step range (2 lo, 2 hi]: its 513 rows span exactly
    # [max(2 lo, 3a - hi), min(2 hi, 3a - lo)], for the band and for the
    # exceedance, whose steps lie in (0, support_cap].
    levels = []

    def recorded(ell, lo, hi, breakpoints=()):
        if np.ndim(lo) > 0:
            levels.append(breakpoints[0] + lo)  # the first breakpoint is t - lo
        return _log_quad(ell, lo, hi, breakpoints)

    model = pure_density(WeibullExponent(3.0))
    monkeypatch.setattr(smalln, "_log_quad", recorded)
    for lo, hi in ((a - eps, a + eps), (0.0, model.support_cap)):
        levels.clear()
        if lo > 0.0:
            exact_log_prob_band(model, 3, a, eps)
        else:
            exact_log_prob_exceed(model, 3, a)
        (t,) = levels
        assert t.size == 513
        assert t[0] == pytest.approx(max(2.0 * lo, 3.0 * a - hi), abs=1e-12)
        assert t[-1] == pytest.approx(min(2.0 * hi, 3.0 * a - lo), abs=1e-12)
        assert np.ptp(np.diff(t)) <= 1e-12


def test_band_requires_positive_width():
    model = pure_density(PowerExponent(2.0))
    with pytest.raises(DomainError):
        exact_log_prob_band(model, 2, 2.0, 0.0)
    with pytest.raises(DomainError):
        exact_log_prob_band(model, 2, 0.3, 0.5)


def test_deep_level_returns_minus_inf():
    model = pure_density(PowerExponent(2.0))
    assert exact_log_prob_exceed(model, 2, model.support_cap * 2.0) == -math.inf


def test_nan_level_raises_and_infinite_level_has_probability_zero():
    model = pure_density(PowerExponent(2.0))
    for n in (2, 3):
        with pytest.raises(DomainError):
            exact_log_prob_exceed(model, n, math.nan)
        assert exact_log_prob_exceed(model, n, math.inf) == -math.inf


def test_exceedance_is_shared_by_escape_and_localization(monkeypatch):
    # At n = 3 exceedance and band take two _log_quad calls each (the
    # two-step table, then the third step); the escape and localization
    # probabilities at the same level reuse the exceedance, bit for bit.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _log_quad(*args, **kwargs)

    model = pure_density(WeibullExponent(3.0))
    fresh = pure_density(WeibullExponent(3.0))
    monkeypatch.setattr(smalln, "_log_quad", counted)
    log_c = exact_log_prob_exceed(model, 3, 1.6)
    log_escape = exact_log_prob_escape(model, 3, 1.6, 0.35)
    assert len(calls) == 4
    exact_localization(model, 3, 1.6, 0.35)
    assert len(calls) == 6
    assert exact_log_prob_exceed(model, 3, 1.6) == log_c and len(calls) == 6
    assert exact_log_prob_escape(fresh, 3, 1.6, 0.35) == log_escape
    assert exact_log_prob_exceed(fresh, 3, 1.6) == log_c


def _irwin_hall_band3(a, eps):
    """log P(all three Exp(1) steps in (a - eps, a + eps), S_3 >= 3a).

    Given the band, the sum's surface measure is w^2 f_IH((s - 3l) / w) with
    f_IH the Irwin-Hall density of three uniforms, so the probability is one
    integral of e^-s against it, taken over f_IH's quadratic pieces."""

    def f_ih(u):
        if u < 1:
            return u**2 / 2
        if u < 2:
            return (-2 * u**2 + 6 * u - 3) / 2
        return (3 - u) ** 2 / 2

    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(a) - mpmath.mpf(eps), mpmath.mpf(a) + mpmath.mpf(eps)
        w = hi - lo
        start = max(3 * mpmath.mpf(a), 3 * lo)
        knots = [3 * lo + w, 3 * lo + 2 * w]
        pieces = [start] + [k for k in knots if k > start] + [3 * hi]
        total = mpmath.quad(lambda s: mpmath.exp(-s) * w**2 * f_ih((s - 3 * lo) / w), pieces)
        return float(mpmath.log(total))


@pytest.mark.parametrize("a, eps", [(1.6, 0.35), (2.0, 0.5), (2.5, 1.0), (3.0, 0.5)])
def test_three_step_band_matches_irwin_hall(a, eps):
    model = pure_density(PowerExponent(1.0))
    assert exact_log_prob_band(model, 3, a, eps) == pytest.approx(_irwin_hall_band3(a, eps), abs=1e-6)


def test_row_wise_log_quad_matches_scalar_rows():
    rng = np.random.default_rng(11)
    rows = 2 * _ROW_BLOCK + 9
    lo = rng.uniform(0.0, 1.0, rows)
    hi = lo + rng.uniform(0.5, 3.0, rows)
    hi[3] = lo[3]  # an empty row
    kink = rng.uniform(-0.5, 4.5, rows)  # inside some rows, outside others
    stop = np.where(rng.random(rows) < 0.2, lo - 1.0, hi - 0.1)  # some rows all -inf
    level = rng.uniform(-700.0, 700.0, rows)  # each row needs its own shift

    def ell_rows(xs, r):
        vals = level[r, None] - 40.0 * np.abs(xs - kink[r, None]) - xs
        return np.where(xs < stop[r, None], vals, -np.inf)

    got = _log_quad(ell_rows, lo, hi, breakpoints=(kink, stop))
    assert got.shape == (rows,)
    assert got[3] == -math.inf and np.any(got[4:] == -math.inf) and np.any(np.isfinite(got))
    for k in range(rows):
        want = _log_quad(lambda x: ell_rows(x[None, :], np.array([k]))[0], lo[k], hi[k],
                         breakpoints=(kink[k], stop[k]))
        assert isinstance(want, float)
        assert got[k] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_row_wise_log_quad_batches_stay_within_the_panel_budget():
    # Rows of many pieces go fewer at a time, so no batch holds more than
    # _BLOCK_PANELS panels; each row still equals its scalar call.
    rows = 3 * _ROW_BLOCK
    lo, hi = np.zeros(rows), np.full(rows, 10.0)
    cuts = tuple(np.linspace(0.5, 9.5, rows) + shift for shift in np.linspace(-0.4, 0.4, 12))
    sizes = []

    def ell_rows(xs, r):
        sizes.append(xs.size)
        return -np.abs(xs - cuts[0][r, None]) - 0.1 * xs

    got = _log_quad(ell_rows, lo, hi, breakpoints=cuts)
    assert max(sizes) <= 16 * _BLOCK_PANELS  # 16 Gauss-Legendre nodes a panel
    assert len(sizes) > rows // _ROW_BLOCK
    for k in (0, rows // 2, rows - 1):
        want = _log_quad(lambda x: ell_rows(x[None, :], np.array([k]))[0], lo[k], hi[k],
                         breakpoints=tuple(c[k] for c in cuts))
        assert got[k] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_log_table_matches_pchip():
    # A survival-like grid: uniform, with node 0 moved right of the origin.
    nodes = np.linspace(0.0, 10.0, 2001)
    nodes[0] = 10.0 * 1e-12
    values = -nodes**1.5 - 0.1 * np.log1p(nodes)
    ref = PchipInterpolator(nodes, values)
    rng = np.random.default_rng(3)
    inside = np.concatenate([
        nodes,
        0.5 * (nodes[1:] + nodes[:-1]),
        rng.uniform(nodes[0], nodes[-1], 5000),
        rng.uniform(nodes[0], nodes[1], 500),  # the short first interval
    ])

    def close(got, want):
        return np.all(np.abs(got - want) <= 4.0 * np.spacing(np.abs(want)))

    clamped = _LogTable(nodes, values, left_edge=nodes[0])
    plain = _LogTable(nodes, values)
    right = inside[inside > nodes[0]]
    for table, points in ((clamped, right), (plain, inside)):
        assert close(table(points), ref(points))
        grid = points[: points.size // 7 * 7].reshape(-1, 7)  # a 2-D read, as the quadrature makes
        assert close(table(grid), ref(grid))
        assert np.all(table(np.array([10.0 + 1e-9, 11.0, np.inf])) == -np.inf)
    below = np.array([nodes[0], 0.5 * nodes[0], 0.0, -3.0])
    assert np.all(clamped(below) == 0.0)
    assert close(plain(below), ref(np.full(below.size, nodes[0])))
