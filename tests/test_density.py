"""Step-density layer: normalisation, tails, stable gaps, perturbations.

Reference values marked "50-digit arithmetic" were computed offline with
mpmath at 50 significant digits and are frozen here as literals.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats
from scipy.interpolate import PchipInterpolator

from stretchwalk.density import (
    ExpExponent,
    Pchip,
    Perturbation,
    PerturbedDensity,
    PowerExponent,
    TabulatedExponent,
    WeibullExponent,
    _tabulated_perturbation,
    load_tabulated_csv,
    parse_model,
    pure_density,
    sin_perturbed_density,
)
from stretchwalk.errors import EnvelopeViolated, InvalidModel, OutOfSupport
from stretchwalk.paths import simulate_free_path
from stretchwalk.quadrature import log_integral
from stretchwalk.sampler import tilted_law


# -- normalisation and moments ----------------------------------------------


def test_power2_normalisation_closed_form():
    model = pure_density(PowerExponent(2.0))
    assert math.isclose(model.c, 2.0 / math.sqrt(math.pi), rel_tol=1e-10)
    assert math.isclose(model.mean, 1.0 / math.sqrt(math.pi), rel_tol=1e-8)


def test_weibull3_is_standard_weibull():
    model = pure_density(WeibullExponent(3.0))
    assert math.isclose(model.c, 3.0, rel_tol=1e-10)
    # Gamma(4/3) and Gamma(5/3) - Gamma(4/3)^2, 50-digit arithmetic.
    assert math.isclose(model.mean, 0.89297951156924921, rel_tol=1e-8)
    assert math.isclose(model.variance, 0.10533288486847873, rel_tol=1e-6)


def test_third_cumulant_closed_forms():
    # Unit exponential: kappa3 = 2.  Weibull(3): Gamma(2) - 3 Gamma(4/3)
    # Gamma(5/3) + 2 Gamma(4/3)^3, a difference of terms near 1 that is
    # itself 0.0057, so it is held to a tolerance of that absolute scale.
    assert math.isclose(pure_density(PowerExponent(1.0)).third_cumulant, 2.0, rel_tol=1e-12)
    g1, g2 = math.gamma(4.0 / 3.0), math.gamma(5.0 / 3.0)
    third = 1.0 - 3.0 * g1 * g2 + 2.0 * g1**3
    assert abs(pure_density(WeibullExponent(3.0)).third_cumulant - third) <= 1e-12


def test_exp_kind_normalisation():
    # 1 / E_1(1) and the first moment, 50-digit arithmetic.
    model = pure_density(ExpExponent())
    assert math.isclose(model.c, 4.558218917694912, rel_tol=1e-9)
    assert math.isclose(model.mean, 0.44599071252078017, rel_tol=1e-8)


def test_power25_normalisation():
    # 1 / Gamma(1 + 2/5), 50-digit arithmetic.
    model = pure_density(PowerExponent(2.5))
    assert math.isclose(model.c, 1.1270604979860277, rel_tol=1e-9)


def test_perturbed_normalisation():
    # 50-digit arithmetic with the same clipped-log envelope.
    sin_model = sin_perturbed_density(PowerExponent(2.0))
    assert math.isclose(sin_model.c, 1.1642507332973796, rel_tol=1e-8)
    # Almost log-concave: q = -log(1 + sin(x)^2 / 2) under the constant
    # envelope log(3/2), which N log g = 2 log x meets from sqrt(3/2) on.
    alc = Perturbation(q=lambda x: -np.log1p(0.5 * np.sin(x) ** 2),
                       M=lambda x: np.full_like(x, math.log(1.5)), N=1.0, y0=math.sqrt(1.5))
    alc_model = PerturbedDensity(exponent=PowerExponent(2.0), perturbation=alc)
    assert math.isclose(alc_model.c, 0.97439533601506655, rel_tol=1e-8)


def test_density_integrates_to_one():
    for model in (pure_density(WeibullExponent(2.5)),
                  sin_perturbed_density(PowerExponent(3.0))):
        xs = np.linspace(1e-9, model.support_cap, 400_001)
        mass = np.trapezoid(np.exp(model.log_c + model._log_kernel(xs)), xs)
        assert math.isclose(mass, 1.0, rel_tol=1e-6)


# -- survival ----------------------------------------------------------------


def test_weibull_survival_is_exact():
    model = pure_density(WeibullExponent(3.0))
    for x in (0.7, 1.0, 2.0, 3.0):
        assert math.isclose(model.log_tail(x), -(x**3), rel_tol=1e-9)


def test_power2_survival_matches_erfc():
    model = pure_density(PowerExponent(2.0))
    for x in (0.5, 2.0, 3.5):
        want = math.log(model.c * math.sqrt(math.pi) / 2.0 * math.erfc(x))
        assert math.isclose(model.log_tail(x), want, rel_tol=1e-9)


def test_exp_kind_survival_frozen():
    # log(E_1(e^x) / E_1(1)), 50-digit arithmetic.
    model = pure_density(ExpExponent())
    assert math.isclose(model.log_tail(1.0), -2.4605649609979628, rel_tol=1e-9)
    assert math.isclose(model.log_tail(2.5), -13.239362260190196, rel_tol=1e-9)


def test_survival_edges():
    model = pure_density(PowerExponent(2.0))
    assert model.log_tail(0.0) == 0.0
    # Far beyond the sampling cap the tail must stay finite and accurate;
    # for this model the survival is exactly erfc(x).
    deep = model.support_cap * 2.0
    assert model.log_tail(deep) == pytest.approx(math.log(math.erfc(deep)), rel=1e-10)


# -- stable gap machinery ----------------------------------------------------

# 50-digit arithmetic; the eps literals are the exact doubles used there.
BAND_GAP_CASES = [
    (PowerExponent(2.5), 10.0, 1.0, 5, 7.5030139943091746, 7.3176503063876642),
    (PowerExponent(2.5), 1e6, 0.07238241365054197, 1000,
     9.8333593637751256, 9.833359126758525),
    (PowerExponent(2.5), 1e14, 0.031021034421660845, 10**7,
     18043.212615383789, 18043.212615380064),
    (WeibullExponent(3.0), 2.0, 0.3, 4, 0.77223588157498575, 0.72829687397895775),
    (WeibullExponent(3.0), 1e5, 0.08685889638065036, 10**6,
     2263.3432827861491, 2263.3419721778414),
    (WeibullExponent(3.0), 100.0, 0.99, 50, 301.00060649040527, 299.06081802940547),
    (WeibullExponent(3.0), 100.0, 1.01, 50, 313.30548550121236, 311.24574310103122),
    (ExpExponent(), 3.0, 0.05, 8, 0.029108831674287153, 0.028288909265859353),
    (ExpExponent(), 50.0, 0.25562221863533147, 10**5,
     1.847980862695719e20, 1.558368278556898e20),
    (PowerExponent(1.0), 5.0, 0.5, 3, 0.0, 0.0),
]


@pytest.mark.parametrize("exponent,a,eps,n,want1,want2", BAND_GAP_CASES)
def test_band_gaps_against_reference(exponent, a, eps, n, want1, want2):
    got1, got2 = exponent.band_gaps(a, eps, n)
    assert got1 == pytest.approx(want1, rel=1e-12, abs=1e-300)
    assert got2 == pytest.approx(want2, rel=1e-12, abs=1e-300)


def test_band_gaps_degenerate_eps():
    assert PowerExponent(2.0).band_gaps(5.0, 0.0, 4) == (0.0, 0.0)


def test_gap_survives_catastrophic_cancellation():
    # g(a + 1/g(a)) - g(a) for g = x^2 at a = 1e8 is exactly 2e-8 + 1e-32;
    # the naive difference of doubles is identically zero.
    exponent = PowerExponent(2.0)
    a = 1e8
    got = exponent.gap(a, 1.0 / a**2)
    assert got == pytest.approx(2e-8, rel=1e-12)
    naive = float(exponent.g(np.array([a + 1.0 / a**2]))[0] - exponent.g(np.array([a]))[0])
    assert naive == 0.0


def test_gap_matches_plain_difference_at_moderate_scale():
    for exponent in (PowerExponent(2.5), WeibullExponent(3.0), ExpExponent()):
        for x, delta in ((2.0, 0.7), (5.0, -0.5), (1.5, 1.2)):
            want = float(exponent.g(np.array([x + delta]))[0] - exponent.g(np.array([x]))[0])
            assert exponent.gap(x, delta) == pytest.approx(want, rel=1e-11)


def test_gap_rejects_leaving_support():
    with pytest.raises(OutOfSupport):
        PowerExponent(2.0).gap(1.0, -2.0)


# -- exponent validation -----------------------------------------------------


def test_invalid_exponent_parameters():
    with pytest.raises(InvalidModel):
        PowerExponent(0.5)
    with pytest.raises(InvalidModel):
        WeibullExponent(2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("make", [lambda: PowerExponent(200.0), lambda: WeibullExponent(200.0),
                                  lambda: WeibullExponent(180.0)])
def test_exponent_overflowing_its_probes_is_invalid(make):
    # The probes run to X + 50, where x**200 and its derivatives overflow:
    # the model is refused by name, not by a bare RuntimeWarning.
    with pytest.raises(InvalidModel, match="overflows its validation probes"):
        make()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_power_100_keeps_finite_probes():
    assert PowerExponent(100.0).beta == 100.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("beta", [171.0, 172.0, 176.0, 180.0])
def test_steep_powers_pass_the_growth_probe(beta):
    # g' = beta x^(beta - 1) underflows to 0 at the second probe node,
    # 0.0125, from beta = 172 on; growth is probed where g' is a normal
    # float, so these increasing powers build.
    assert PowerExponent(beta).beta == beta


def test_growth_probe_still_refuses_a_decreasing_exponent():
    class Falling(PowerExponent):
        def derivative(self, order, x):
            return -super().derivative(order, x) if order == 1 else super().derivative(order, x)

    with pytest.raises(InvalidModel, match="not increasing"):
        Falling(3.0)


def _symmetric_gap_mp(kind, p, x, d):
    """g(x + d) + g(x - d) - 2 g(x) in mpmath at 50 digits."""
    with mp.workdps(50):
        x, d = mp.mpf(x), mp.mpf(d)
        if kind == "power":
            g = lambda v: v**p  # noqa: E731
        elif kind == "weibull":
            g = lambda v: v**p - (p - 1) * mp.log(v)  # noqa: E731
        else:
            g = mp.exp
        return g(x + d) + g(x - d) - 2 * g(x)


@pytest.mark.parametrize("kind, p, make", [
    ("power", 1.5, lambda: PowerExponent(1.5)),
    ("power", 2.0, lambda: PowerExponent(2.0)),
    ("power", 3.0, lambda: PowerExponent(3.0)),
    ("power", 7.5, lambda: PowerExponent(7.5)),
    ("power", 20.0, lambda: PowerExponent(20.0)),
    ("weibull", 2.5, lambda: WeibullExponent(2.5)),
    ("weibull", 3.0, lambda: WeibullExponent(3.0)),
    ("exp", None, ExpExponent),
])
def test_symmetric_gap_matches_mpmath(kind, p, make):
    # Both sides of the series switch (d / x = 0.01), deep below it where
    # the gap is 1e-16 of g(x), and out to d / x = 0.95.
    exponent = make()
    ratios = np.array([1e-8, 1e-4, 0.0099, 0.0101, 0.05, 0.3, 0.7, 0.95])
    for x in (0.3, 2.0, 25.0, 300.0):
        d = ratios * x
        got = exponent.symmetric_gap(np.array([x]), d)
        for di, gi in zip(d, got):
            ref = _symmetric_gap_mp(kind, p, x, di)
            if ref > 1e300:
                continue
            assert gi == pytest.approx(float(ref), rel=5e-13), (x, di)


def test_envelope_violation_detected():
    exponent = PowerExponent(2.0)

    def q(x):
        return np.sin(np.asarray(x))

    def envelope(x):
        return np.full_like(np.asarray(x, dtype=float), 0.1)

    bad = Perturbation(q=q, M=envelope, N=1.0, y0=1.7, name="oversized")
    with pytest.raises(EnvelopeViolated):
        PerturbedDensity(exponent=exponent, perturbation=bad)


# -- sampling ----------------------------------------------------------------
# Every step draw comes from the plain law's table, tilted_law(model, EX).


def _plain_draws(model, size, seed):
    return tilted_law(model, model.mean).table.ppf(np.random.default_rng(seed).random(size))


def test_sampling_deterministic():
    model = pure_density(WeibullExponent(3.0))
    a = simulate_free_path(model, 1000, seed=42).increments
    b = simulate_free_path(model, 1000, seed=42).increments
    c = simulate_free_path(model, 1000, seed=43).increments
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, _plain_draws(model, 1000, seed=42))
    assert not np.array_equal(a, c)


def test_weibull_sampling_ks():
    model = pure_density(WeibullExponent(3.0))
    draws = _plain_draws(model, 200_000, seed=7)
    result = stats.kstest(draws, lambda x: 1.0 - np.exp(-(x**3)))
    assert result.statistic < 0.004


def test_power2_sampling_ks():
    model = pure_density(PowerExponent(2.0))
    draws = _plain_draws(model, 200_000, seed=11)
    result = stats.kstest(draws, lambda x: stats.norm.cdf(x * math.sqrt(2.0)) * 2.0 - 1.0)
    assert result.statistic < 0.004


def test_perturbed_sampling_tracks_density():
    # The cdf is independent of the sampling table: log_integral of the
    # kernel over (0, x) at 1001 nodes, summed cell by cell, and read between
    # nodes linearly (an error below 1e-4 at this spacing).
    model = sin_perturbed_density(PowerExponent(2.0))
    draws = _plain_draws(model, 200_000, seed=3)
    edges = np.linspace(0.0, model.support_cap, 1001)
    cells = [log_integral(model._log_kernel, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(np.array(cells) + model.log_c))])
    result = stats.kstest(draws, lambda x: np.interp(x, edges, cdf))
    assert result.statistic < 0.005


def test_inverse_cdf_roundtrip():
    model = pure_density(PowerExponent(2.5))
    table = tilted_law(model, model.mean).table
    xs = np.linspace(0.2, 2.0, 50)
    cdf = np.interp(xs, table.x, table.cdf, left=0.0, right=1.0)
    np.testing.assert_allclose(table.ppf(cdf), xs, rtol=1e-4)


@pytest.mark.parametrize("spec", ["power:beta=3", "power:beta=3/sin", "weibull:k=3", "exp/sin"])
def test_log_kernel_positive_fast_path_bitwise(spec):
    # An all-positive array skips the support mask; its values are the
    # masked path's, bit for bit, also on strided input.
    model = parse_model(spec)
    x = np.random.default_rng(4).random((3, 257)) * 12.0 + 1e-9
    masked = model._log_kernel(np.concatenate([np.zeros((3, 1)), x], axis=1))
    assert np.array_equal(model._log_kernel(x), masked[:, 1:])
    assert np.array_equal(model._log_kernel(np.repeat(x, 2, axis=1)[:, ::2]), masked[:, 1:])
    assert masked[0, 0] == -np.inf


@pytest.mark.parametrize("spec", ["power:beta=1", "power:beta=3", "weibull:k=3", "exp"])
def test_pure_log_kernel_is_minus_g_bitwise(spec, monkeypatch):
    # A pure model's exponent is g itself: no zero perturbation is built
    # or added.
    model = parse_model(spec)
    monkeypatch.setattr(PerturbedDensity, "q", lambda self, x: pytest.fail("q evaluated"))
    x = np.random.default_rng(5).random((2, 129)) * 12.0 + 1e-9
    assert np.array_equal(model._log_kernel(x), -model.exponent.g(x))
    assert np.array_equal(model.exponent_value(x[0]), model.exponent.g(x[0]))


# -- tabulated models and parsing -------------------------------------------


def test_tabulated_roundtrip(tmp_path):
    grid = np.linspace(1e-3, 14.0, 3000)
    gvals = grid**2.5
    path = tmp_path / "steps.csv"
    np.savetxt(path, np.column_stack([grid, gvals]), delimiter=",")
    exponent, perturbation = load_tabulated_csv(str(path))
    assert perturbation is None
    mid = np.linspace(1.0, 5.0, 17)
    np.testing.assert_allclose(exponent.g(mid), mid**2.5, rtol=1e-6)
    np.testing.assert_allclose(exponent.dg(mid), 2.5 * mid**1.5, rtol=1e-3)


def _bitwise_equal(got, want):
    """Same shape, NaN where want is NaN, and the same bits elsewhere."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    num = ~np.isnan(want)
    return (got.shape == want.shape and np.array_equal(np.isnan(got), ~num)
            and np.array_equal(got[num].view(np.int64), want[num].view(np.int64)))


def _random_tabulated(rng):
    """8-300 random nodes in (0, inf) and a convex, increasing g on them, a
    random sequence with flat runs, and reads at the nodes, between them,
    past both ends and at NaN."""
    m = int(rng.integers(8, 300))
    x = np.cumsum(rng.uniform(0.01, 1.0, m)) + rng.uniform(1e-3, 1.0)
    g = np.cumsum(np.cumsum(rng.uniform(0.0, 2.0, m)) * np.diff(x, prepend=0.0))
    y = np.cumsum(rng.normal(size=m) * (rng.uniform(size=m) < 0.7))
    t = np.concatenate([x, 0.5 * (x[1:] + x[:-1]), rng.uniform(x[0], x[-1], 400),
                        x[0] - rng.exponential(2.0, 40), x[-1] + rng.exponential(2.0, 40),
                        [np.nan, np.nextafter(x[-1], np.inf), np.nextafter(x[0], -np.inf)]])
    return x, g, y, t


def test_tabulated_interpolants_equal_scipy_bit_for_bit():
    # g and g' extrapolate with the end cubics, as does a PCHIP through data
    # of both signs with flat runs; q is 0 off its grid and at NaN.  A 2-D
    # read, as the quadrature makes, gives the same values.
    rng = np.random.default_rng(12)
    for _ in range(40):
        x, g, y, t = _random_tabulated(rng)
        exponent = TabulatedExponent(x, g)
        qvals = 0.3 * y / np.max(np.abs(y))
        q = _tabulated_perturbation(exponent, x, qvals).q
        refs = ((exponent.g, PchipInterpolator(x, g)),
                (exponent.dg, PchipInterpolator(x, np.gradient(g, x))),
                (Pchip(x, y), PchipInterpolator(x, y)),
                (q, lambda v: np.nan_to_num(PchipInterpolator(x, qvals, extrapolate=False)(v),
                                            nan=0.0)))
        for ours, ref in refs:
            assert _bitwise_equal(ours(t), ref(t))
            grid = t[: t.size // 5 * 5].reshape(5, -1)
            assert _bitwise_equal(ours(grid), ref(grid))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_tabulated_q_column_must_be_finite(bad, tmp_path):
    x = np.linspace(0.05, 12.0, 40)
    q = 0.3 * np.sin(x)
    q[7] = bad
    path = tmp_path / "steps.csv"
    np.savetxt(path, np.column_stack([x, x**3, q]), delimiter=",")
    with pytest.raises(InvalidModel, match="q column"):
        load_tabulated_csv(str(path))


def _cubic_csv(tmp_path, nodes, end, with_q):
    x = np.linspace(0.05, end, nodes)
    cols = [x, x**3] + ([0.3 * np.sin(x)] if with_q else [])
    path = tmp_path / f"cubic_{nodes}_{with_q}.csv"
    np.savetxt(path, np.column_stack(cols), delimiter=",")
    return path


@pytest.mark.parametrize("warn", ["error", "ignore"])
@pytest.mark.parametrize("suffix, with_q", [("", True), ("/sin", False)])
def test_envelope_probe_refuses_a_non_positive_g(warn, suffix, with_q, tmp_path):
    # Past x = 12 the 40-node cubic follows its end cubic, which falls
    # below 0 near x = 32; the probes reach 50, where M <= N log g cannot
    # hold.  Without the check log g read NaN there and the comparison
    # passed, or warnings-as-errors ended the build in a bare warning.
    path = _cubic_csv(tmp_path, 40, 12.0, with_q)
    with warnings.catch_warnings():
        warnings.simplefilter(warn)
        with pytest.raises(EnvelopeViolated, match=r"g is not positive at x = 32\.02"):
            parse_model(f"tabulated:path={path}{suffix}")
    # The exponent alone reads no log g past the grid and builds.
    assert pure_density(load_tabulated_csv(str(path))[0]).is_pure


@pytest.mark.parametrize("suffix, with_q", [("", True), ("/sin", False)])
def test_envelope_probe_passes_a_grid_past_the_probes(suffix, with_q, tmp_path):
    # A 400-node cubic to x = 60 is positive on every probe, out to 50.05.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = parse_model(f"tabulated:path={_cubic_csv(tmp_path, 400, 60.0, with_q)}{suffix}")
    assert not model.is_pure


def test_tabulated_nonconvex_rejected():
    grid = np.linspace(0.1, 10.0, 500)
    dip = grid**2 - 8.0 * np.exp(-((grid - 5.0) ** 2) * 4.0)
    with pytest.raises(InvalidModel):
        TabulatedExponent(grid, dip)


def test_parse_model_compact_strings():
    model = parse_model("weibull:k=3/sin")
    assert model.exponent.kind == "weibull"
    assert model.exponent.k == 3.0
    assert model.perturbation is not None
    pure = parse_model("power:beta=2.5")
    assert pure.is_pure
    assert pure.exponent.beta == 2.5
    assert parse_model("exp").exponent.kind == "exp"


def test_parse_model_rejects_unknown_kind():
    with pytest.raises(InvalidModel):
        parse_model("cauchy")


@pytest.mark.parametrize("make", [
    lambda: PowerExponent(math.inf),
    lambda: PowerExponent(math.nan),
    lambda: WeibullExponent(math.inf),
    lambda: WeibullExponent(math.nan),
    lambda: TabulatedExponent(np.linspace(0.1, 2.0, 8), np.array([1.0] * 7 + [math.inf])),
])
def test_nonfinite_parameters_rejected(make):
    with pytest.raises(InvalidModel):
        make()


@pytest.mark.parametrize("spec, count", [("power:beta=3/sin", 2), ("weibull:k=3/sin", 4),
                                         ("exp/sin", 1)])
def test_sin_kinks_are_where_the_envelope_bends(spec, count):
    # clip(log g, 0, 1) bends where log g crosses 0 or 1: at 1 and e^(1/3)
    # for the cubic, on both sides of the Weibull exponent's minimum (where
    # g is 0.94), and only at 1 for exp, whose log g is 0 at the origin.
    model = parse_model(spec)
    kinks = np.array(model.kinks)
    assert kinks.size == count and np.all(np.diff(kinks) > 0.0)
    log_g = model.exponent.log_g(kinks)
    assert np.all(np.minimum(abs(log_g), abs(log_g - 1.0)) <= 1e-12)
