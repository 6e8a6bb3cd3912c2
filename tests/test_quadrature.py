"""The Gauss-Legendre engine against 40-digit mpmath references.

References integrate the model's own exponent in mpmath, split at its
kinks (the clipped sin envelope, the nodes of a tabulated curve), so they
share nothing with the engine but the model definition.
"""

from __future__ import annotations

import bisect
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from stretchwalk.density import (
    FIRST_POSITIVE,
    ExpExponent,
    PowerExponent,
    TabulatedExponent,
    WeibullExponent,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.errors import Divergent, NonIntegrable
from stretchwalk.quadrature import (MASS_DROP, GridInverseCdf, find_peak, log_integral,
                                   log_moment_integrals, mass_window)
from stretchwalk.ratefn import _tilted_ell, _tilted_stats

DPS = 40
TOL = 1e-10
TILTS = (-1, 0, 1, 4)

_TAB_X = np.linspace(0.05, 12.0, 12)
_TAB = TabulatedExponent(_TAB_X, (_TAB_X - 0.3) ** 2 + 0.1 * _TAB_X**3)


def _pchip_mp(interp):
    """The tabulated exponent's piecewise cubic, evaluated in mpmath."""
    knots = [float(v) for v in interp.x]
    coef = [[mp.mpf(float(c)) for c in col] for col in interp.c.T]

    def g(x):
        i = min(max(bisect.bisect_right(knots, float(x)) - 1, 0), len(coef) - 1)
        dx = x - knots[i]
        c3, c2, c1, c0 = coef[i]
        return ((c3 * dx + c2) * dx + c1) * dx + c0

    return g


def _sin_cubic(x):
    return x**3 + mp.mpf("0.5") * mp.sin(x) * min(max(3 * mp.log(x), 0), 1)


def _no_kinks():
    return []


# name -> (model factory, exponent g + q in mpmath, its kinks)
CASES = {
    "power2": (lambda: pure_density(PowerExponent(2.0)), lambda x: x**2, _no_kinks),
    "weibull3": (lambda: pure_density(WeibullExponent(3.0)),
                 lambda x: x**3 - 2 * mp.log(x), _no_kinks),
    "exp": (lambda: pure_density(ExpExponent()), mp.exp, _no_kinks),
    # The clipped envelope min(1, log g)+ bends where g = 1 and g = e.
    "power3_sin": (lambda: sin_perturbed_density(PowerExponent(3.0)), _sin_cubic,
                   lambda: [mp.mpf(1), mp.exp(mp.mpf(1) / 3)]),
    "tabulated": (lambda: pure_density(_TAB), _pchip_mp(_TAB._interp),
                  lambda: [mp.mpf(float(v)) for v in _TAB_X]),
}


def _mp_integral(f, lo, hi, kinks):
    pts = sorted({mp.mpf(lo), mp.mpf(hi), *(k for k in kinks if lo < k < hi)})
    return mp.quad(f, pts)


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    make, G, kinks = CASES[request.param]
    model = make()
    with mp.workdps(DPS):
        kinks = kinks()
        log_z = mp.log(_mp_integral(lambda x: mp.exp(-G(x)), 0, model.support_cap, kinks))
        refs = {}
        for t in TILTS:
            # Far past the engine's window, so the reference sees all the mass.
            _, hi, peak = mass_window(_tilted_ell(model, float(t)), 0.0, 8.0)
            cuts = [*kinks, mp.mpf(peak)]
            m0, m1, m2, m3 = (_mp_integral(lambda x, j=j: x**j * mp.exp(t * x - G(x)),
                                           0, 1.5 * hi + 1.0, cuts) for j in range(4))
            mean = m1 / m0
            var = m2 / m0 - mean**2
            third = m3 / m0 - 3 * mean * var - mean**3
            refs[t] = (float(mp.log(m0) - log_z), float(mean), float(var), float(third))
    return model, refs


def test_tilted_moments_match_mpmath(case):
    # The third cumulant is held to TOL of its own scale, Var^(3/2): near
    # a symmetric tilted law it is a small difference of that size.
    model, refs = case
    for t, (lam, mean, var, third) in refs.items():
        got = _tilted_stats(model, float(t))
        assert abs(got[0] - lam) <= TOL * max(1.0, abs(lam)), (t, got, lam)
        assert abs(got[1] - mean) <= TOL * mean, (t, got, mean)
        assert abs(got[2] - var) <= TOL * var, (t, got, var)
        assert abs(got[3] - third) <= TOL * var**1.5, (t, got, third)


# A scan of tilts for the sin-perturbed cubic; see test_sin_kinks_are_panel_ends.
_TILT_SCAN = np.linspace(-1.0, 12.0, 301)


@pytest.mark.parametrize("k", [76, 99, 100, 104, 198])
def test_sin_kinks_are_panel_ends(k):
    """Tilts at which Lambda of the sin-perturbed cubic was off by 5e-10 to
    8e-8 (t = 2.29, 3.29, 3.33, 3.51, 7.62) while its envelope's kinks lay
    inside panels: on some panel layouts a kink sits between a panel's end
    and its outermost node, where neither estimate of the adaptive rule sees
    it.  With the kinks as panel ends, Lambda and the mean agree to 1e-12."""
    make, G, kinks = CASES["power3_sin"]
    model, t = make(), float(_TILT_SCAN[k])
    lam, mean, _, _ = _tilted_stats(model, t)
    _, hi, peak = mass_window(_tilted_ell(model, t), 0.0, 8.0)
    with mp.workdps(DPS):
        log_z = mp.log(_mp_integral(lambda x: mp.exp(-G(x)), 0, model.support_cap, kinks()))
        m0, m1 = (_mp_integral(lambda x, j=j: x**j * mp.exp(t * x - G(x)), 0, 1.5 * hi + 1.0,
                               [*kinks(), mp.mpf(peak)]) for j in range(2))
        ref_lam, ref_mean = float(mp.log(m0) - log_z), float(m1 / m0)
    assert abs(lam - ref_lam) <= 1e-12 * max(1.0, abs(ref_lam))
    assert abs(mean - ref_mean) <= 1e-12 * ref_mean


@pytest.mark.parametrize("spec, G, kinks", [
    ("power:beta=2/sin",
     lambda x: x**2 + mp.mpf("0.5") * mp.sin(x) * min(max(2 * mp.log(x), 0), 1),
     lambda: [mp.mpf(1), mp.exp(mp.mpf("0.5"))]),
    ("power:beta=1.5", lambda x: x ** mp.mpf("1.5"), _no_kinks),
    # All the mass past the support cap lies within 1e-6 of it.
    ("power:beta=20", lambda x: x**20, _no_kinks),
])
def test_mean_matches_mpmath(spec, G, kinks):
    # EX is computed once, from the moments that normalise the model.
    model = parse_model(spec)
    with mp.workdps(DPS):
        m0, m1 = (_mp_integral(lambda x, j=j: x**j * mp.exp(-G(x)), 0, model.support_cap,
                               kinks()) for j in range(2))
        ref = float(m1 / m0)
    assert abs(model.mean - ref) <= 1e-12 * ref


def test_weibull_tail_window_converges():
    # Weibull k=3 on [2 cap, 4 cap]: ell sits near -828, far above the
    # relative target's reach, so only the roundoff floor settles it.
    model = pure_density(WeibullExponent(3.0))
    cap = model.support_cap
    got = log_integral(model._log_kernel, 2.0 * cap, 4.0 * cap)
    # The kernel is x^2 exp(-x^3); its integral over [u, v] is
    # (exp(-u^3) - exp(-v^3)) / 3.
    lo3, hi3 = (2.0 * cap) ** 3, (4.0 * cap) ** 3
    ref = -lo3 + math.log1p(-math.exp(lo3 - hi3)) - math.log(3.0)
    assert got < -800.0
    assert abs(got - ref) <= TOL * abs(ref)


def test_adaptive_split_settles_a_jump():
    # Only the panel holding the jump stays unsettled; halving it alone
    # reaches the closed form.
    def step(x):
        return np.where(x < 1.0, 0.0, -1.0)

    got = log_integral(step, 0.0, 3.0, peak_hint=0.5)
    assert got == pytest.approx(math.log(1.0 + 2.0 * math.exp(-1.0)), rel=1e-14)


def test_unsettled_integrand_raises_with_bounded_memory():
    rng = np.random.default_rng(3)

    def noise(x):
        return rng.normal(size=np.shape(x))

    tracemalloc.start()
    try:
        for _ in range(2):
            with pytest.raises(NonIntegrable):
                log_integral(noise, 0.0, 1.0, peak_hint=0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("probes", [65, 2048])
def test_batched_find_peak_rows_match_scalar_calls(probes):
    # The rows stop at different zoom levels: an empty range at once, a
    # peak past the range's right edge (one-cell brackets), interior peaks,
    # and a range below float resolution that runs to the level cap.
    centre = np.array([0.3, 7.0, 2.0, -1.0, 1e6 + 3e-4, 5.0])
    lo = np.array([0.0, 5.0, 0.0, -4.0, 1e6, 5.0])
    hi = np.array([1.0, 6.0, 10.0, 2.0, 1e6 + 1e-3, 5.0])
    levels = np.zeros(lo.size, dtype=int)

    def rows_ell(xs, rows):
        levels[rows] += 1
        return -((xs - centre[rows, None]) ** 2) + np.sin(3.0 * xs)

    x_rows, v_rows = find_peak(rows_ell, lo, hi, probes=probes)
    for k in range(lo.size):
        x, v = find_peak(lambda xs: -((xs - centre[k]) ** 2) + np.sin(3.0 * xs),
                         lo[k], hi[k], probes=probes)
        assert x_rows[k] == x and v_rows[k] == v
    assert levels[-1] == 1 and levels[4] == 16
    assert len(set(levels.tolist())) >= 4


@pytest.mark.parametrize("spec, tilts", [
    ("power:beta=3/sin", [-1.0, 0.0, 2.29, 3.29, 12.0, 1e3]),
    ("power:beta=1", [-3.0, 0.5, 1.5, 0.9, 1.0]),
    ("weibull:k=3", [1200.0, -2.0, 1.0, 8.0]),
])
def test_batched_windows_and_moments_match_scalar_calls(spec, tilts):
    """Each row of a row-wise window search and quadrature is the scalar
    call at its tilt, bit for bit, with its own doublings, kinks and panel
    rounds.  The unit exponential's MGF diverges at t >= 1: those rows hold
    NaN and their Divergent, and the rest go on."""
    model = parse_model(spec)
    t = np.array(tilts)
    failed = {}
    window = mass_window(_tilted_ell(model, t), np.full(t.size, FIRST_POSITIVE), 8.0, failed)
    for k, tk in enumerate(tilts):
        ell = _tilted_ell(model, tk)
        if tk >= 1.0 and spec == "power:beta=1":
            assert isinstance(failed[k], Divergent)
            assert all(np.isnan(v[k]) for v in window)
            with pytest.raises(Divergent) as alone:
                mass_window(ell, FIRST_POSITIVE, 8.0)
            assert str(alone.value) == str(failed[k])
            continue
        assert tuple(v[k] for v in window) == mass_window(ell, FIRST_POSITIVE, 8.0)
    ok = np.flatnonzero(~np.isnan(window[2]))
    rows = log_moment_integrals(lambda xs, r: _tilted_ell(model, t[ok])(xs, r),
                                *(v[ok] for v in window), kinks=model.kinks)
    for i, k in enumerate(ok):
        lo, hi, peak = (float(v[k]) for v in window)
        alone = log_moment_integrals(_tilted_ell(model, float(t[k])), lo, hi, peak, model.kinks)
        assert tuple(v[i] for v in rows) == alone


def test_window_rows_probe_their_own_doublings():
    # Windows searched from lo = 1e-3, 10 and 3e3 start their doublings at
    # hi = 8, 21 and 6001, so their first probes up to 1e12 number 38, 37
    # and 29, and a shorter row repeats its last probe.  The peaks at 40
    # and 9e4 lie past hi, and those two rows search their peaks again up
    # to their own new hi.  Each row is its scalar call.
    centre = np.array([5.0, 40.0, 9e4])
    width = np.array([1.0, 3.0, 1e3])
    lo = np.array([1e-3, 10.0, 3e3])

    def rows_ell(xs, rows):
        return -(((xs - centre[rows, None]) / width[rows, None]) ** 2)

    window = mass_window(rows_ell, lo, 8.0)
    for k in range(lo.size):
        alone = mass_window(lambda xs, k=k: -(((xs - centre[k]) / width[k]) ** 2), lo[k], 8.0)
        assert tuple(v[k] for v in window) == alone


def test_window_grows_its_upper_edge_once():
    # The peak at 20 lies past hi = 8.  One call probes the 38 doublings of
    # 8 up to 1e12; the first MASS_DROP below the peak found on (0, 8], 64,
    # is the new hi, and the peak is searched for again on [8, 64].  64 lies
    # MASS_DROP below the first peak, so also below the higher one: no
    # second round of doublings.  Six calls in all: two levels of the first
    # peak search, the doublings, one level of the second, and two levels
    # of the edges.
    calls = []

    def ell(xs):
        calls.append(xs.size)
        return -0.5 * ((xs - 20.0) / 2.0) ** 2

    lo, hi, peak_x = mass_window(ell, FIRST_POSITIVE, 8.0)
    assert calls == [2048, 65, 38, 2048, 130, 65]
    assert abs(peak_x - 20.0) < 0.02 and 20.0 + 2.0 * math.sqrt(120.0) <= hi < 64.0


def test_mass_level_below_a_peak_it_rounds_to():
    # At ell about -1e20, peak - MASS_DROP rounds to the peak, so the mass
    # ends where ell falls below the peak at all: about 1e-8 from the peak,
    # not the whole searched range.  A window of ordinary ell is the same
    # as with the plain peak - MASS_DROP level, bit for bit.
    lo, hi, peak_x = mass_window(lambda x: -1e20 * (1.0 + (x - 5.0) ** 2), 0.001, 8.0)
    assert 5.0 - 2e-8 < lo < peak_x < 5.0 < hi < 5.0 + 2e-8
    window = mass_window(lambda x: -0.5 * ((x - 3.0) / 0.1) ** 2, FIRST_POSITIVE, 8.0)
    assert window == (float.fromhex("0x1.e78p+0"), float.fromhex("0x1.061bdp+2"), 3.0)


def test_tables_tabulate_their_grid():
    # A 1-D build is the matching row of a 2-D build, bit for bit, with the
    # normalised trapezoid cdf of exp(vals - max); a row with no finite
    # value raises, with no floating-point warning on the way.
    xs = np.array([np.linspace(0.0, 1.0, 9), np.linspace(2.0, 5.0, 9)])
    vals = np.array([-((xs[0] - 0.3) ** 2), -3.0 * xs[1]]) + 700.0
    table = GridInverseCdf.build(xs, vals)
    for k in range(2):
        row = GridInverseCdf.build(xs[k], vals[k])
        assert np.array_equal(row.x, table.x[k]) and np.array_equal(row.cdf, table.cdf[k])
        w = np.exp(vals[k] - vals[k].max())
        cdf = np.concatenate([[0.0], np.cumsum(np.diff(xs[k]) * (w[1:] + w[:-1]) / 2.0)])
        assert np.allclose(row.cdf, cdf / cdf[-1], rtol=1e-15, atol=0.0)
    vals[1] = -np.inf
    with np.errstate(all="raise"), pytest.raises(NonIntegrable, match="not finite"):
        GridInverseCdf.build(xs, vals)


def test_a_failing_quadrature_row_leaves_the_others():
    # Row 1 never settles; it holds NaN and its NonIntegrable, and rows 0
    # and 2 are their scalar calls.
    rng = np.random.default_rng(3)
    centre = np.array([0.4, 0.5, 0.6])

    def smooth(xs, c):
        return -((xs - c) ** 2) / 0.01

    def rows_ell(xs, rows):
        vals = smooth(xs, centre[rows, None])
        vals[rows == 1] = rng.normal(size=vals[rows == 1].shape)
        return vals

    lo, hi = np.zeros(3), np.ones(3)
    failed = {}
    got = log_moment_integrals(rows_ell, lo, hi, centre, failed=failed)
    assert list(failed) == [1] and isinstance(failed[1], NonIntegrable)
    assert all(np.isnan(v[1]) for v in got)
    for k in (0, 2):
        alone = log_moment_integrals(lambda xs, c=centre[k]: smooth(xs, c), 0.0, 1.0, centre[k])
        assert tuple(v[k] for v in got) == alone
    with pytest.raises(NonIntegrable, match="settle"):
        log_moment_integrals(rows_ell, lo, hi, centre)


@pytest.mark.parametrize("spec, t", [("power:beta=2", 0.0), ("weibull:k=3", 1.0),
                                     ("weibull:k=3", 1200.0), ("power:beta=3", 3e4),
                                     ("exp", 5.0), ("power:beta=1", -3.0)])
def test_window_stops_on_the_mass_it_bounds(spec, t):
    # The window's peak is within 1e-3 nats of the fully resolved maximum,
    # and each edge lies at or outside its crossing of peak - MASS_DROP
    # (or at the support's first point), by at most 1e-3 of its distance
    # from the peak.
    ell = _tilted_ell(parse_model(spec), t)
    lo, hi, peak_x = mass_window(ell, FIRST_POSITIVE, 8.0)
    top = find_peak(ell, lo, hi)[1]
    peak = float(ell(np.array([peak_x]))[0])
    assert abs(peak - top) <= 1e-3
    level = peak - MASS_DROP
    ends = ell(np.array([lo, hi]))
    assert (lo == FIRST_POSITIVE or ends[0] <= level) and ends[1] <= level
    inner = np.array([lo + 1e-3 * (peak_x - lo), hi - 1e-3 * (hi - peak_x)])
    assert np.all(ell(inner) > level)


def test_window_of_a_peak_at_the_support_start():
    # The plain power law's density is largest at 0+.  Searched from the
    # first positive float, whose log-density is finite, the peak search
    # stops by its nats rule on the support's first point, and so does the
    # lower edge: no search zooms towards an endpoint where ell is -inf.
    calls = 0
    ell = _tilted_ell(parse_model("power:beta=2"), 0.0)

    def counted(xs):
        nonlocal calls
        calls += 1
        return ell(xs)

    lo, hi, peak_x = mass_window(counted, FIRST_POSITIVE, 8.0)
    assert lo == peak_x == FIRST_POSITIVE
    assert ell(np.array([hi]))[0] <= ell(np.array([peak_x]))[0] - MASS_DROP
    assert calls <= 4
