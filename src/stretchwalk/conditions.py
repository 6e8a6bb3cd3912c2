"""Diagnostic ratios for band-localization along parametric (a_n, eps_n) plans.

Localization of every step near the sum level holds when two ratios vanish
along the plan: the entropy-to-barrier ratio n log g(a+eps) / H and the
volume-to-barrier ratio n G / H.  Limits are not computable from finitely
many n, so a report certifies monotone decrease (least-squares slope in
log-log, sign-flip significance) plus the final value instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import ExponentModel, parse_exponent
from .errors import DegeneratePlan, DomainError, require_counts
from .variational import BandEvent, closed_form_bounds

_BOOTSTRAP_B = 2048
_BOOTSTRAP_SEED = 0x5F3759DF
_TREND_P = 0.01


# -- sequence plans ----------------------------------------------------------


@dataclass(frozen=True)
class InversePower:
    """a_n = n**(1/alpha); the plan parameter is the reciprocal exponent."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise DomainError(f"level exponent alpha must be finite and positive, "
                              f"got {self.alpha!r}")

    def level(self, n: int) -> float:
        try:
            return float(n) ** (1.0 / self.alpha)
        except OverflowError:
            raise DomainError(f"level n**(1/{self.alpha:g}) overflows at n={n}") from None


@dataclass(frozen=True)
class InverseLogA:
    """eps_n = c / log a_n."""

    c: float = 1.0

    def halfwidth(self, n: int, a: float) -> float:
        return self.c / math.log(a)


@dataclass(frozen=True)
class PowerOfA:
    """eps_n = c * a_n**rho."""

    c: float = 1.0
    rho: float = 0.0

    def halfwidth(self, n: int, a: float) -> float:
        return self.c * a**self.rho


@dataclass(frozen=True)
class ExpDecay:
    """eps_n = c * exp(-kappa * a_n)."""

    c: float = 1.0
    kappa: float = 1.0

    def halfwidth(self, n: int, a: float) -> float:
        return self.c * math.exp(-self.kappa * a)


@dataclass(frozen=True)
class SequencePlan:
    a_form: InversePower
    eps_form: InverseLogA | PowerOfA | ExpDecay

    def level(self, n: int) -> float:
        return self.a_form.level(n)

    def halfwidth(self, n: int) -> float:
        a = self.level(n)
        return self.eps_form.halfwidth(n, a)


# -- presets -----------------------------------------------------------------


@dataclass(frozen=True)
class PlanPreset:
    """A named runnable configuration: exponent, plan, evaluation grid."""

    name: str
    exponent_spec: str
    plan: SequencePlan
    n_grid: tuple[int, ...]

    def exponent(self) -> ExponentModel:
        return parse_exponent(self.exponent_spec)


def _log_grid(lo: float, hi: float, count: int) -> tuple[int, ...]:
    # The rounded geomspace does not decrease, so dropping repeats in order
    # sorts as np.unique would, without np.unique's import of numpy.ma.
    raw = dict.fromkeys(int(v) for v in np.round(np.geomspace(lo, hi, count)))
    return tuple(v for v in raw if v >= 2)


PRESETS: dict[str, PlanPreset] = {
    # Cubic steps, a_n = n^2, shrinking band 1/log a: both ratios fall.
    # The entropy ratio behaves like 8 log^3(n) / n, so the grid must reach
    # n ~ 1e7 before it drops under 1e-2.
    "example1-case2": PlanPreset(
        name="example1-case2",
        exponent_spec="power:beta=3",
        plan=SequencePlan(InversePower(alpha=0.5), InverseLogA(c=1.0)),
        n_grid=_log_grid(1e2, 1e7, 11),
    ),
    # Mildly superlinear steps with a band too narrow for the barrier:
    # the entropy ratio grows and localization is not certified.
    "example1-case1": PlanPreset(
        name="example1-case1",
        exponent_spec="power:beta=1.5",
        plan=SequencePlan(InversePower(alpha=0.5), PowerOfA(c=1.0, rho=0.1)),
        n_grid=_log_grid(10, 1e4, 9),
    ),
    # Exponential steps with an exponentially shrinking band kept above
    # the exp(-a/4) frontier.  17 grid points: the ratios fall so fast that
    # a sparser grid leaves the sign-flip test without enough patterns to
    # reach significance.
    "example2": PlanPreset(
        name="example2",
        exponent_spec="exp",
        plan=SequencePlan(InversePower(alpha=2.0), ExpDecay(c=1.0, kappa=0.125)),
        n_grid=_log_grid(25, 2500, 17),
    ),
    # Weibull steps under the same quadratic level plan.
    "weibull-corollary": PlanPreset(
        name="weibull-corollary",
        exponent_spec="weibull:k=3",
        plan=SequencePlan(InversePower(alpha=0.5), InverseLogA(c=1.0)),
        n_grid=_log_grid(1e2, 1e7, 11),
    ),
}


# -- condition evaluation ----------------------------------------------------


@dataclass(frozen=True)
class ConditionRow:
    n: int
    a: float
    eps: float
    ratio_growth: float
    ratio32: float
    ratio33: float
    H: float
    G: float
    degenerate: bool = False


@dataclass
class ConditionReport:
    rows: list[ConditionRow]
    growth: bool
    c32_trend: str
    c33_trend: str

    @property
    def final_ratio32(self) -> float:
        for row in reversed(self.rows):
            if not row.degenerate:
                return row.ratio32
        return math.nan


def growth_ratio(exponent: ExponentModel, n: int, a: float) -> float:
    """log g(a) / log n, the finite-n growth diagnostic."""
    if n < 2 or a <= 0.0:
        raise DomainError("growth ratio needs n >= 2 and a > 0")
    return float(exponent.log_g(np.array([a]))[0]) / math.log(n)


def _trend_verdict(ns: np.ndarray, values: np.ndarray) -> str:
    """Least-squares slope of log value vs log n, significance by a
    sign-flip test on the centred responses."""
    ok = np.isfinite(values) & (values > 0.0)
    if ok.sum() < 4:
        return "inconclusive"
    x = np.log(ns[ok].astype(float))
    y = np.log(values[ok])
    x_c = x - x.mean()
    y_c = y - y.mean()
    denom = float(np.dot(x_c, x_c))
    if denom == 0.0:
        return "inconclusive"
    slope = float(np.dot(x_c, y_c)) / denom
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    signs = rng.choice([-1.0, 1.0], size=(_BOOTSTRAP_B, y_c.size))
    flipped = (signs * y_c) @ x_c / denom
    p = (np.count_nonzero(np.abs(flipped) >= abs(slope)) + 1) / (_BOOTSTRAP_B + 1)
    if p >= _TREND_P:
        return "inconclusive"
    return "decreasing" if slope < 0.0 else "increasing"


def evaluate_conditions(exponent: ExponentModel, plan: SequencePlan,
                        n_grid) -> ConditionReport:
    """Evaluate the localization ratios on every n in the grid.

    Rows where the barrier H fails to be positive are flagged degenerate
    and carry NaN ratios; if more than 10% of rows degenerate the whole
    plan is rejected with DegeneratePlan.  Per-row values depend only on
    (n, a_n, eps_n), so subsampling the grid never changes surviving rows.
    """
    require_counts(**{f"n_grid[{k}]": n for k, n in enumerate(n_grid)})
    ns = [int(n) for n in n_grid]
    if len(ns) == 0:
        raise DomainError("empty evaluation grid")
    rows: list[ConditionRow] = []
    bad = 0
    for n in sorted(ns):
        a = plan.level(n)
        eps = plan.halfwidth(n)
        ev = BandEvent(n, a, eps)  # validates eps in [0, a) and n >= 2
        if eps <= 0.0:
            raise DomainError("plan produced a nonpositive band halfwidth")
        bounds = closed_form_bounds(exponent, ev)
        H = bounds.escape_gap
        G = bounds.reciprocal_gap
        r_growth = growth_ratio(exponent, n, a)
        if H <= 0.0:
            bad += 1
            rows.append(ConditionRow(n, a, eps, r_growth, math.nan, math.nan,
                                     H, G, degenerate=True))
            continue
        log_g_edge = float(exponent.log_g(np.array([a + eps]))[0])
        rows.append(ConditionRow(
            n=n, a=a, eps=eps,
            ratio_growth=r_growth,
            ratio32=n * log_g_edge / H,
            ratio33=n * G / H,
            H=H, G=G,
        ))
    if bad > 0.10 * len(rows):
        raise DegeneratePlan(
            f"barrier H nonpositive on {bad} of {len(rows)} rows"
        )
    ns_arr = np.array([r.n for r in rows])
    r32 = np.array([r.ratio32 for r in rows])
    r33 = np.array([r.ratio33 for r in rows])
    growth = all(r.ratio_growth > 0.0 for r in rows)
    return ConditionReport(
        rows=rows,
        growth=growth,
        c32_trend=_trend_verdict(ns_arr, r32),
        c33_trend=_trend_verdict(ns_arr, r33),
    )

