"""Exact two- and three-step probabilities against independent references.

Frozen values come from 50-digit arithmetic reductions to one-dimensional
integrals with closed-form survival inside; the pure-exponential cases use
the gamma-sum closed form evaluated inline.
"""

import math
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from stretchwalk.density import (
    ExpExponent,
    PowerExponent,
    WeibullExponent,
    _pchip_coefficients,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk import smalln
from stretchwalk.errors import DomainError, NonIntegrable
from stretchwalk.quadrature import gauss_legendre
from stretchwalk.smalln import (
    _BLOCK_PANELS,
    _ROW_BLOCK,
    _LogSurvival,
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
    model = sin_perturbed_density(PowerExponent(2.0))
    got = exact_log_prob_exceed(model, 2, 2.5)
    assert got == pytest.approx(-14.05669640277447, abs=1e-9)


def test_perturbed_weibull_two_steps_frozen():
    # The same reduction at 25 digits and t = 3.2, for g = x^3 - 2 log x,
    # whose envelope clip(log g, 0, 1) bends at the four model.kinks k: split
    # at each k and, in the outer integral, at each 3.2 - k.
    model = sin_perturbed_density(WeibullExponent(3.0))
    got = exact_log_prob_exceed(model, 2, 1.6)
    assert got == pytest.approx(-7.41065081541222, abs=1e-9)


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
        assert got == pytest.approx(want, abs=1e-8)


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
    assert exact_log_prob_band(model, 3, a, eps) == pytest.approx(_irwin_hall_band3(a, eps), abs=1e-10)


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
    nodes, values = _survival_like_grid(2001)
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


def _survival_like_grid(size):
    """Uniform nodes on [0, 10] with node 0 moved right of the origin, and
    smooth falling log-values."""
    nodes = np.linspace(0.0, 10.0, size)
    nodes[0] = 10.0 * 1e-12
    return nodes, -nodes**1.5 - 0.1 * np.log1p(nodes)


@pytest.mark.parametrize("values", [
    [0.0, 1.0, 3.0],      # the end slope as estimated
    [0.0, 1.0, 6.0],      # estimate of the wrong sign: 0
    [0.0, 1.0, -4.0],     # the end segments turn and the estimate overshoots: 3 m0
    [0.0, 1.0, -1.5],     # they turn, but the estimate stays within 3 m0
    [0.0, 0.0, 2.0],      # a flat end segment
    [1.0, 1.0, 1.0, 1.0],
    [0.0, 2.0, 1.0, 5.0],
    [0.0, 1.0, 6.0, 7.0],
    [3.0, 2.0, -4.0, -4.5],
    [0.0, 1.0],
])
def test_pchip_coefficients_equal_scipy_on_short_grids(values):
    y = np.array(values)
    for x in (np.arange(y.size, dtype=float), np.cumsum([0.3, 1.0, 0.25, 2.0][:y.size])):
        assert np.array_equal(_pchip_coefficients(x, y), PchipInterpolator(x, y).c)


@pytest.mark.parametrize("size", [3, 4, 5, 17, 8192, 8193, 8194, 8195, 16_386, 20_000])
def test_pchip_coefficients_equal_scipy_bit_for_bit(size):
    # Random spacings, steps with both signs and flat runs, and sizes around
    # the block boundaries: the blocked build repeats scipy's arithmetic.
    rng = np.random.default_rng(size)
    x = np.cumsum(rng.uniform(0.01, 1.0, size))
    steps = rng.normal(size=size) * (rng.uniform(size=size) < 0.7)
    y = np.cumsum(steps)
    assert np.array_equal(_pchip_coefficients(x, y), PchipInterpolator(x, y).c)
    nodes, values = _survival_like_grid(size)
    assert np.array_equal(_pchip_coefficients(nodes, values),
                          PchipInterpolator(nodes, values).c)


def test_survival_table_is_built_in_bounded_memory():
    # The table keeps its nodes (0.25 MB) and coefficients (1 MB); the build
    # adds its tail array (0.25 MB) and a block of temporaries, about 2.4 MB
    # at the peak, not a dozen full-size arrays.
    model = pure_density(WeibullExponent(3.0))
    tracemalloc.start()
    try:
        table = _LogSurvival(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.x.size == smalln._SURVIVAL_POINTS - 1
    assert peak < 4 * 2**20


# -- the survival table against closed forms and mpmath ------------------------
#
# Each table is read at fixed probes between its nodes.  Its Simpson panels
# on 32,769 nodes hold log S within 2e-12 of the exact values, and within
# 1e-9 for power beta = 20, whose g' is steep where its table is read.

def _mp_log_e1_tail(model, t):
    """log S for g = e^x: S(t) = c E1(e^t)."""
    with mpmath.workdps(30):
        return float(mpmath.log(model.c * mpmath.e1(mpmath.exp(t))))


def _mp_log_power20_tail(model, t):
    """log S for g = x^20: S(t) = c Gamma(1/20, t^20) / 20."""
    with mpmath.workdps(30):
        return float(mpmath.log(model.c * mpmath.gammainc(mpmath.mpf(1) / 20, mpmath.mpf(t) ** 20) / 20))


_CLOSED_FORM_TAILS = {
    "power1": (lambda: pure_density(PowerExponent(1.0)),
               lambda model, t: math.log(model.c) - t),
    "power2": (lambda: pure_density(PowerExponent(2.0)),
               lambda model, t: math.log(model.c * math.sqrt(math.pi) / 2.0 * math.erfc(t))),
    "weibull3": (lambda: pure_density(WeibullExponent(3.0)),
                 lambda model, t: math.log(model.c / 3.0) - t**3),
    "exp": (lambda: pure_density(ExpExponent()), _mp_log_e1_tail),
}


@pytest.mark.parametrize("spec", sorted(_CLOSED_FORM_TAILS))
def test_survival_table_matches_closed_forms(spec):
    build, exact = _CLOSED_FORM_TAILS[spec]
    model = build()
    ts = model.mean * np.array([0.0123, 0.31, 0.77, 1.5, 2.2, 3.1, 4.4])
    got = _LogSurvival(model)(ts)
    want = np.array([exact(model, t) for t in ts])
    assert np.max(np.abs(got - want)) <= 2e-12


def test_survival_table_of_a_steep_power_matches_the_incomplete_gamma():
    # g' = 20 x^19 is steep where the table is read: at 2.5 EX log S is -61.5.
    model = pure_density(PowerExponent(20.0))
    ts = model.mean * np.array([2.0, 2.5])
    got = _LogSurvival(model)(ts)
    want = np.array([_mp_log_power20_tail(model, t) for t in ts])
    assert np.max(np.abs(got - want)) <= 1e-9


_SIN_TAILS = {
    "power2/sin": (PowerExponent(2.0), lambda x: x**2),
    "power3/sin": (PowerExponent(3.0), lambda x: x**3),
    "weibull3/sin": (WeibullExponent(3.0), lambda x: x**3 - 2 * mpmath.log(x)),
}


def _mp_log_sin_tails(g, cap, kinks, ts):
    """log S at each t for p ~ exp(-(g + q)) on (0, cap], q = 0.5 sin(x)
    clip(log g, 0, 1): 30-digit mpmath, every integral split at the kinks."""
    with mpmath.workdps(30):
        def p(x):
            gx = g(x)
            return mpmath.exp(-(gx + mpmath.sin(x) * min(max(mpmath.log(gx), 0), 1) / 2))

        ends = sorted({mpmath.mpf(0), mpmath.mpf(cap), *map(mpmath.mpf, kinks),
                       *map(mpmath.mpf, ts)})
        pieces = [mpmath.quad(p, [a, b]) for a, b in zip(ends[:-1], ends[1:])]
        tails = [mpmath.fsum(pieces[i:]) for i in range(len(pieces))]
        return [float(mpmath.log(tails[ends.index(mpmath.mpf(t))] / tails[0])) for t in ts]


def _kink_probes(table, kinks):
    """Probes about each kink k in the table's interval [x[j], x[j + 1]]:
    ``clean``, the nodes x[j], x[j + 1] and the middles of the intervals
    next but one to k; ``near``, reads either side of k in its interval and
    the middles of the two intervals next to it.  The PCHIP slopes at x[j]
    and x[j + 1] straddle the bend, so ``near`` reads carry the PCHIP's
    error there, not the table's."""
    x, h = table.x, table._step
    clean, near = [], []
    for k in kinks:
        j = int(np.searchsorted(x, k)) - 1
        clean += [x[j], x[j + 1], x[j - 1] - 0.5 * h, x[j + 2] + 0.5 * h]
        near += [k - 0.3 * (k - x[j]), k + 0.3 * (x[j + 1] - k), x[j] - 0.5 * h,
                 x[j + 1] + 0.5 * h]
    return np.array(clean), np.array(near)


@pytest.mark.parametrize("spec", sorted(_SIN_TAILS))
def test_survival_table_across_kinks_matches_mpmath(spec):
    # p bends at each kink k, and the panel holding k is two Simpson pieces:
    # node values and reads clear of k keep the Simpson accuracy.  Reads
    # next to k carry the PCHIP's error across the jump in (log S)'', about
    # h^2 times that jump: 9.5e-9 for power beta = 2/sin.
    exponent, g = _SIN_TAILS[spec]
    model = sin_perturbed_density(exponent)
    table = _LogSurvival(model)
    clean, near = _kink_probes(table, model.kinks)
    clean = np.append(clean, 1.37 * model.mean)
    want = _mp_log_sin_tails(g, model.support_cap, model.kinks, np.concatenate([clean, near]))
    assert np.max(np.abs(table(clean) - want[:clean.size])) <= 2e-12
    assert np.max(np.abs(table(near) - want[clean.size:])) <= 1e-8


def test_survival_table_across_a_jump_of_tabulated_q(tmp_path):
    # A tabulated q is 0 below its grid, so p jumps at the grid's first node
    # x0 = 0.05 (q(x0) = 0.3 sin 0.05): each Simpson piece of the panel
    # holding x0 reads p on its own side.  Node values and reads clear of x0
    # keep the Simpson accuracy; log S has a kink at x0, so reads next to it
    # carry the PCHIP's first-order error there, about h times the jump in
    # p / S: 2.0e-7.  The reference sums p, which is smooth between grid
    # nodes, by 16-point Gauss-Legendre on 64 panels per grid interval.
    grid = np.linspace(0.05, 60.0, 400)
    path = tmp_path / "cubic_q.csv"
    np.savetxt(path, np.column_stack([grid, grid**3, 0.3 * np.sin(grid)]), delimiter=",")
    model = parse_model(f"tabulated:path={path}")
    table = _LogSurvival(model)
    clean, near = _kink_probes(table, [grid[0]])
    clean = np.append(clean, model.mean * np.array([0.5, 1.37]))
    ts = np.concatenate([clean, near])
    cap = model.support_cap
    ends = np.unique(np.concatenate([[0.0, cap], grid[grid < cap], ts]))
    sub = np.linspace(ends[:-1], ends[1:], 65, axis=1)
    nodes, weights = gauss_legendre(sub[:, :-1].ravel(), sub[:, 1:].ravel())
    mass = (weights * np.exp(smalln._log_pdf(model, nodes))).sum(axis=1)
    pieces = mass.reshape(ends.size - 1, 64).sum(axis=1)
    want = np.array([math.log(math.fsum(pieces[np.searchsorted(ends, t):]) / math.fsum(pieces))
                     for t in ts])
    assert np.max(np.abs(table(clean) - want[:clean.size])) <= 2e-12
    assert np.max(np.abs(table(near) - want[clean.size:])) <= 2.5e-7


def test_exact_probabilities_leave_scipy_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from stretchwalk import acceptance, smalln; "
         "from stretchwalk.density import parse_model; "
         "value = smalln.exact_log_prob_escape(parse_model('weibull:k=3'), 3, 1.6, 0.35); "
         "print(value < 0.0, sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"
