"""Machine-checkable acceptance criteria for the whole package.

Each criterion is one function returning (passed, details); ``run_all``
wraps them with timing and error capture and is what the ``verify``
command consumes.  Criteria that sample derive their seeds from the root
seed, so a verify run is reproducible end to end.
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .conditions import PRESETS, InverseLogA, SequencePlan
from .density import (
    PowerExponent,
    WeibullExponent,
    parse_exponent,
    pure_density,
    sin_perturbed_density,
)
from .errors import DomainError, StretchwalkError
from .paths import estimate_p_ak
from .ratefn import CramerRate, cramer_rate, tail_equivalence
from .sampler import estimate_localization, importance_estimate
from .seeding import derive_seed
from .smalln import exact_log_prob_escape, exact_log_prob_exceed
from .variational import (
    BandEvent,
    brute_force_infimum,
    closed_form_bounds,
    convex_minorant,
    exit_profile,
    log_prob_escape_upper,
    log_prob_exceed_lower,
)

_ORACLE_EXPONENTS = {
    label: parse_exponent(label)
    for label in ("power:beta=2", "power:beta=3", "exp", "weibull:k=3")
}

_PRESET_MODELS = {
    name: PRESETS[name].exponent() for name in sorted(PRESETS)
}


@dataclass(frozen=True)
class CriterionResult:
    index: int
    passed: bool
    runtime_s: float
    details: dict


def _oracle_grid():
    for label, exponent in _ORACLE_EXPONENTS.items():
        for n in (2, 3, 4):
            for a in (2.0, 3.0, 5.0):
                for frac in (0.2, 0.5):
                    yield label, exponent, BandEvent(n=n, a=a, eps=frac * a)


def criterion_1(root_seed: int) -> tuple[bool, dict]:
    """Closed-form escape infimum equals the brute-force search to 1e-4."""
    worst = 0.0
    worst_case = None
    for label, exponent, ev in _oracle_grid():
        bounds = closed_form_bounds(exponent, ev)
        oracle = brute_force_infimum(pure_density(exponent), ev, "IccC")
        rel = abs(bounds.escape_infimum - oracle) / abs(oracle)
        if rel > worst:
            worst = rel
            worst_case = f"{label} n={ev.n} a={ev.a:g} eps={ev.eps:g}"
    passed = worst <= 1e-4
    return passed, {"worst_rel": worst, "worst_case": worst_case, "cases": 72}


def criterion_2(root_seed: int) -> tuple[bool, dict]:
    """Exit profile nondecreasing in k and equal to the high exit at k=1."""
    worst_drop = 0.0
    anchor_gap = 0.0
    for label, exponent, ev in _oracle_grid():
        bounds = closed_form_bounds(exponent, ev)
        profile = []
        for k in range(1, ev.n):
            try:
                profile.append(exit_profile(exponent, ev, k))
            except DomainError:
                # Wide bands exhaust the compensating mass early; the
                # profile ends where the configuration stops existing.
                break
        anchor_gap = max(
            anchor_gap,
            abs(profile[0] - bounds.high_exit) / abs(bounds.high_exit),
        )
        for lo, hi in zip(profile, profile[1:]):
            drop = (lo - hi) / max(1.0, abs(lo))
            worst_drop = max(worst_drop, drop)
    passed = worst_drop <= 1e-12 and anchor_gap <= 1e-12
    return passed, {"worst_drop": worst_drop, "anchor_gap": anchor_gap}


def criterion_3(root_seed: int) -> tuple[bool, dict]:
    """Certified bounds sandwich the exact quadrature probabilities."""
    model = pure_density(PowerExponent(2.0))
    slacks = []
    ok = True
    for n in (2, 3):
        for a in (2.0, 3.0):
            ev = BandEvent(n=n, a=a, eps=0.5)
            lo = log_prob_exceed_lower(model, ev)
            exact_c = exact_log_prob_exceed(model, n, a)
            hi = log_prob_escape_upper(model, ev)
            exact_esc = exact_log_prob_escape(model, n, a, 0.5)
            s1 = exact_c - lo
            s2 = hi - exact_esc
            slacks.append({"n": n, "a": a, "exceed_slack": s1, "escape_slack": s2})
            ok = ok and math.isfinite(s1) and math.isfinite(s2) and s1 > 0.0 and s2 > 0.0
    return ok, {"slacks": slacks}


def criterion_4(root_seed: int) -> tuple[bool, dict]:
    """Glued convex minorant: domination, convexity, and knot conditions."""
    reports = []
    ok = True
    for label, exponent in _ORACLE_EXPONENTS.items():
        model = sin_perturbed_density(exponent)
        pert = model.perturbation
        h = convex_minorant(exponent, pert)
        xs = np.geomspace(1e-3, 3.0 * h.knot, 10_000)
        slack = exponent.g(xs) - pert.M(xs) - h.value(xs)
        scale = np.maximum(1.0, np.abs(exponent.g(xs)))
        dominated = bool(np.all(slack >= -1e-9 * scale))
        us = np.linspace(h.knot * 0.2, h.knot * 3.0, 10_000)
        second = np.diff(h.value(us), 2)
        convex = bool(np.min(second) >= -1e-10)
        # Knot conditions: the tangent touches g - N log g with matching
        # slope at the knot, the slope doubled relative to the envelope
        # threshold, and g cleared 2N there.
        touch = abs(h.tangent(np.array([h.knot]))[0] - h.log_adjusted(np.array([h.knot]))[0])
        g_knot = float(exponent.g(np.array([h.knot]))[0])
        dg_knot = float(exponent.dg(np.array([h.knot]))[0])
        slope_gap = abs(h.knot_slope - dg_knot * (1.0 - h.N / g_knot))
        dg_env = float(exponent.dg(np.array([h.envelope_from]))[0])
        knots_ok = (
            touch <= 1e-9 * max(1.0, abs(h.knot_value))
            and slope_gap <= 1e-9 * max(1.0, abs(h.knot_slope))
            and dg_knot > 2.0 * dg_env
            and g_knot > 2.0 * h.N
            and h.convex_from <= h.envelope_from < h.knot
        )
        ok = ok and dominated and convex and knots_ok
        reports.append({
            "model": label,
            "dominated": dominated,
            "convex": convex,
            "knot_conditions": bool(knots_ok),
            "min_second_difference": float(np.min(second)),
        })
    return ok, {"models": reports}


def criterion_5(root_seed: int) -> tuple[bool, dict]:
    """Rate function: unit closed form, then duality on every preset model."""
    unit = pure_density(PowerExponent(1.0))
    closed_gaps = [abs(cramer_rate(unit, x)[0] - (x - 1.0 - math.log(x)))
                   for x in (2.0, 5.0, 10.0)]
    closed_ok = max(closed_gaps) <= 1e-6
    duality = []
    ok = closed_ok
    x_max = {"example1-case1": 5.0, "example1-case2": 4.0,
             "example2": 2.5, "weibull-corollary": 5.0}
    for name, exponent in _PRESET_MODELS.items():
        model = pure_density(exponent)
        table = CramerRate.build(model, x_max[name])
        value_res, grad_res = table.duality_residuals()
        deriv_res = table.derivative_residual()
        this_ok = value_res <= 1e-6 and grad_res <= 1e-6 and deriv_res <= 1e-4
        ok = ok and this_ok
        duality.append({
            "preset": name,
            "value_residual": value_res,
            "gradient_residual": grad_res,
            "derivative_residual": deriv_res,
        })
    return ok, {"closed_form_gaps": closed_gaps, "duality": duality}


def criterion_6(root_seed: int) -> tuple[bool, dict]:
    """Log-survival over the rate function approaches one for Weibull k=3."""
    model = pure_density(WeibullExponent(3.0))
    gaps = [abs(tail_equivalence(model, x) - 1.0) for x in (5.0, 10.0, 20.0)]
    passed = gaps[0] > gaps[1] > gaps[2] and gaps[2] <= 0.15
    return passed, {"gaps": gaps}


def criterion_7(root_seed: int) -> tuple[bool, dict]:
    """Importance-sampled log P(C) matches n I(a) within 15 percent."""
    model = pure_density(WeibullExponent(3.0))
    n, a = 10, 2.0
    rate, _ = cramer_rate(model, a)
    res = importance_estimate(model, n, a, eps=0.5, trials=200_000,
                              seed=derive_seed(root_seed, 7))
    ratio = -res.log_p_c / (n * rate)
    passed = abs(ratio - 1.0) <= 0.15 and res.conditional.n_eff >= 100.0
    return passed, {"ratio": ratio, "n_eff": res.conditional.n_eff,
                    "log_p_c": res.log_p_c, "n_times_rate": n * rate}


def criterion_8(root_seed: int) -> tuple[bool, dict]:
    """Gibbs band probability increasing along a_n = n^2, eps_n = c / log a_n.

    This is the cubic worked example's plan (preset ``example1-case2``),
    where a_n outgrows n and localization strengthens with n, at
    n = 5, 10, 20.
    """
    preset = PRESETS["example1-case2"]
    exponent = preset.exponent()
    # The paper's plan leaves the constant c in eps_n open (PAPER.md does not
    # settle it); it is fixed here from the closed form, not from sampler
    # output.  A step leaves the band at cost about the escape barrier H and
    # any of the n steps may do so, so P(not localized) is of order
    # exp(-(H - log n)).  c = 1/2 puts the first triple at H - log n = 0.65,
    # where the band probability sits well below 1, and H - log n then grows
    # (1.63, 5.80), so a 4000-sweep estimate can resolve the increase.  At
    # c = 1 the first triple already has H - log n = 7.4 and every estimate
    # reads 1 within its error.
    c = 0.5
    plan = SequencePlan(preset.plan.a_form, InverseLogA(c=c))
    triples = []
    for n in (5, 10, 20):
        a, eps = plan.level(n), plan.halfwidth(n)
        barrier = closed_form_bounds(exponent, BandEvent(n, a, eps)).escape_gap
        triples.append((n, a, eps, barrier - math.log(n)))
    details = {"c": c,
               "triples": [{"n": n, "a": a, "eps": eps, "H_minus_log_n": excess}
                           for n, a, eps, excess in triples]}
    passed = True
    for tag, model in (
        ("pure", pure_density(exponent)),
        ("sin_perturbed", sin_perturbed_density(exponent)),
    ):
        ests = [estimate_localization(model, n, a, eps, "FixedSumGibbs",
                                      budget=4000,
                                      seed=derive_seed(root_seed, 80 + i))
                for i, (n, a, eps, _) in enumerate(triples)]
        ps = [est.p_hat for est in ests]
        ses = [est.std_err for est in ests]
        increasing = all(hi > lo for lo, hi in zip(ps, ps[1:]))
        separated = ps[-1] - ps[0] > 3.0 * math.hypot(ses[0], ses[-1])
        endpoint = ps[-1] >= 0.9
        details[tag] = {"p_hat": ps, "std_err": ses,
                        "wilson_95": [est.wilson_interval() for est in ests],
                        "strictly_increasing": increasing,
                        "endpoint_separated": separated,
                        "endpoint_at_least_0.9": endpoint}
        passed = passed and increasing and separated and endpoint
    return passed, details


def criterion_9(root_seed: int) -> tuple[bool, dict]:
    """Condition checker reproduces the worked sequence-plan verdicts."""
    from .conditions import evaluate_conditions

    reports = {}
    for name in ("example1-case2", "example1-case1", "example2"):
        preset = PRESETS[name]
        rep = evaluate_conditions(preset.exponent(), preset.plan, preset.n_grid)
        reports[name] = {"c32_trend": rep.c32_trend, "c33_trend": rep.c33_trend,
                         "final_ratio32": rep.final_ratio32}
    passed = (
        reports["example1-case2"]["c32_trend"] == "decreasing"
        and reports["example1-case2"]["c33_trend"] == "decreasing"
        and reports["example1-case2"]["final_ratio32"] < 1e-2
        and reports["example1-case1"]["c32_trend"] == "increasing"
        and reports["example2"]["c32_trend"] == "decreasing"
    )
    return passed, reports


def criterion_10(root_seed: int) -> tuple[bool, dict]:
    """Steep-window hits conditioned vs baseline over growing n.

    Windows have length k_n = floor(log n / (2 J(alpha))), where
    J(x) = I(x) - I(a) - t_a (x - a) is the rate function of the law tilted
    to mean a, the law of the increments given the end value (Gibbs
    conditioning).  By the Erdos-Renyi law the largest mean over windows
    of length c log n tends to the level x with c J(x) = 1, so windows with
    c J(alpha) < 1 clear alpha with probability tending to one; k_n keeps
    c J(alpha) at most 1/2.  Under the plain law the rate at alpha is
    I(alpha) and the hit rate stays far lower.
    """
    model = pure_density(WeibullExponent(3.0))
    ex = model.mean
    a = 1.5 * ex
    alpha = 2.0 * ex
    rate_a, tilt_a = cramer_rate(model, a)
    rate_alpha, _ = cramer_rate(model, alpha)
    j_alpha = rate_alpha - rate_a - tilt_a * (alpha - a)
    # The margin c J = 1/2 is not settled by the paper; convergence at these
    # sizes is slow enough that c J = 0.65 (k = 5) hits only 0.72 at n = 2000.
    c_j = 0.5
    rows, cond_ests = [], []
    for i, n in enumerate((500, 1000, 2000)):
        k = int(math.floor(c_j * math.log(n) / j_alpha))
        cond = estimate_p_ak(model, n, a, k, alpha, replications=200,
                             seed=derive_seed(root_seed, 1000 + i))
        base = estimate_p_ak(model, n, a, k, alpha, replications=200,
                             seed=derive_seed(root_seed, 1100 + i),
                             conditioned=False)
        cond_ests.append(cond)
        rows.append({"n": n, "k": k, "c_J": k * j_alpha / math.log(n),
                     "conditioned_p": cond.p_hat,
                     "conditioned_se": cond.std_err,
                     "conditioned_wilson_95": cond.wilson_interval(),
                     "baseline_p": base.p_hat, "baseline_se": base.std_err,
                     "baseline_wilson_95": base.wilson_interval()})
    conds = [r["conditioned_p"] for r in rows]
    # A drop counts only when the two 95% Wilson intervals are disjoint:
    # near-equal estimates (0.995 then 0.99, say) do not order by their points.
    nondecreasing = all(
        later.wilson_interval()[1] >= earlier.wilson_interval()[0]
        for earlier, later in zip(cond_ests, cond_ests[1:])
    )
    endpoint = conds[-1] >= 0.9
    baseline_lower = all(r["baseline_p"] < r["conditioned_p"] for r in rows)
    passed = nondecreasing and endpoint and baseline_lower
    return passed, {"a": a, "alpha": alpha, "J_alpha": j_alpha, "c_J_target": c_j,
                    "rows": rows,
                    "nondecreasing": nondecreasing,
                    "endpoint_at_least_0.9": endpoint,
                    "baseline_strictly_lower": baseline_lower}


def criterion_11(root_seed: int) -> tuple[bool, dict]:
    """Repeated command runs with one seed emit byte-identical files."""
    from . import cli

    seed = str(root_seed)
    sub_runs = [
        ("conditions", ["conditions", "--plan", "example2", "--format", "csv"]),
        ("localize", ["localize", "--model", "weibull:k=3", "--n", "5,10",
                      "--a", "2", "--eps", "0.5", "--trials", "5000",
                      "--seed", seed]),
        ("rate", ["rate", "--model", "power:beta=2", "--a", "6",
                  "--format", "json"]),
        ("paths", ["paths", "--model", "weibull:k=3", "--n", "50", "--a", "2",
                   "--k", "5", "--alpha", "1.5", "--trials", "10",
                   "--format", "json", "--seed", seed]),
    ]
    checks = []
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sub_runs:
            identical = True
            dirs = [Path(tmp, f"{name}-{r}") for r in (0, 1)]
            for d in dirs:
                rc = cli.run(argv + ["--out", str(d)])
                identical = identical and rc == 0
            if identical:
                primaries = sorted(
                    p.name for p in dirs[0].iterdir() if not p.name.endswith("meta.json")
                )
                identical = bool(primaries)
                for fname in primaries:
                    identical = identical and (
                        (dirs[0] / fname).read_bytes() == (dirs[1] / fname).read_bytes()
                    )
            checks.append({"sub_run": name, "byte_identical": bool(identical)})
            ok = ok and identical
    return ok, {"sub_runs": checks}


_CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
}

_RUNTIME_CAPS_S = {1: 120.0, 7: 60.0, 10: 300.0}


def run_all(criteria=None, root_seed: int = 0) -> list[CriterionResult]:
    wanted = sorted(_CRITERIA) if criteria is None else list(criteria)
    results = []
    for index in wanted:
        fn = _CRITERIA[index]
        start = time.perf_counter()
        try:
            passed, details = fn(root_seed)
        except StretchwalkError as exc:
            passed, details = False, {"error": type(exc).__name__, "message": str(exc)}
        runtime = time.perf_counter() - start
        cap = _RUNTIME_CAPS_S.get(index)
        if cap is not None:
            details = dict(details)
            details["within_runtime_budget"] = runtime <= cap
            passed = passed and runtime <= cap
        results.append(CriterionResult(index=index, passed=passed,
                                       runtime_s=runtime, details=details))
    return results
