"""End-value-conditioned walk trajectories and sliding-slope analysis.

A conditioned walk is built from a conditioned increment multiset (tilted
acceptance sampling for the exceedance case, fixed-sum Gibbs for the
boundary case) followed by a uniformly random permutation, which is the
correct ordering because the conditional law is exchangeable.  Slope
scans then look for windows whose average climb clears a threshold.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .density import PerturbedDensity
from .errors import BadWindow, DomainError, require_counts
from .sampler import (
    EndValueAtLeast,
    EndValueEquals,
    LocalizationEstimate,
    TiltedLaw,
    _block_rows,
    gibbs_fixed_sum,
    tilted_law,
)
from .seeding import derive_seed

logger = logging.getLogger(__name__)

# Tilted draws for the exceedance event come in batches of 64, and at most
# 4,096 are tried before the fixed-sum boundary draw takes over.
_ACCEPT_BATCH = 64
_ACCEPT_DRAWS = 4096


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A walk with its increments, partial sums, and conditioning."""

    increments: np.ndarray
    partial_sums: np.ndarray
    conditioning: EndValueAtLeast | EndValueEquals | None
    note: str = ""

    def __post_init__(self):
        object.__setattr__(self, "increments", np.asarray(self.increments, dtype=float))
        object.__setattr__(self, "partial_sums", np.asarray(self.partial_sums, dtype=float))
        if self.increments.size != self.partial_sums.size or self.increments.size == 0:
            raise DomainError("increments and partial sums must align and be nonempty")
        if self.conditioning is not None:
            self.conditioning.check(float(self.partial_sums[-1]))

    @property
    def n(self) -> int:
        return self.increments.size


def simulate_conditioned_path(model: PerturbedDensity, n: int, a: float,
                              conditioning, seed: int) -> Trajectory:
    """Draw one conditioned trajectory; deterministic for a given seed.

    Exceedance conditioning {S_n > T} draws from the law tilted to mean a
    (tilt t > 0; ``tilted_law``, built once per (model, a)) and keeps a draw in the event with probability
    exp(-t (S_n - T)), which yields the conditioned law.  At T = n a,
    Weibull k=3 and a = 1.5 EX, 0.18 of draws are kept at n = 2 and 0.007
    at n = 2000, where 4,096 draws all fail with probability about 3e-13.
    If none of the 4,096 draws is kept, the sampler falls back to a
    fixed-sum draw at the boundary, with EndValueEquals conditioning and a
    note on the trajectory.

    Each batch of 64 draws takes its step uniforms and then its acceptance
    uniforms from the stream up front, but its draws are inverted and
    tested block by block, about ``sampler._DRAW_BLOCK`` step values at a
    time, stopping at the first block that keeps one: memory per call is
    bounded by the batch's uniforms and one block, and the trajectory does
    not depend on the block.
    """
    require_counts(n=n)
    if n < 2:
        raise DomainError("a walk needs at least 2 increments")
    if not a > model.mean:
        raise DomainError("conditioning level must exceed the mean")
    rng = np.random.default_rng(seed)
    note = ""
    if isinstance(conditioning, EndValueEquals):
        state = gibbs_fixed_sum(model, n, conditioning.total, sweeps=1,
                                seed=derive_seed(seed, 0))
        increments = state[-1].values
    elif isinstance(conditioning, EndValueAtLeast):
        target = conditioning.total
        increments = _accepted_draw(tilted_law(model, a), n, target, rng)
        if increments is None:
            note = "acceptance budget exhausted; fixed-sum boundary draw used"
            logger.warning(note)
            state = gibbs_fixed_sum(model, n, target, sweeps=1,
                                    seed=derive_seed(seed, 1))
            increments = state[-1].values
            conditioning = EndValueEquals(target)
    else:
        raise DomainError("conditioning must be EndValueAtLeast or EndValueEquals")
    increments = rng.permutation(increments)
    return Trajectory(
        increments=increments,
        partial_sums=np.cumsum(increments),
        conditioning=conditioning,
        note=note,
    )


def _accepted_draw(law: TiltedLaw, n: int, target: float,
                   rng: np.random.Generator) -> np.ndarray | None:
    """The first tilted n-vector kept in {S_n > target}, or None after
    ``_ACCEPT_DRAWS`` tries; every batch's uniforms are drawn whole."""
    rows = _block_rows(n)
    for _ in range(_ACCEPT_DRAWS // _ACCEPT_BATCH):
        steps = rng.random((_ACCEPT_BATCH, n))
        accept = rng.random(_ACCEPT_BATCH)
        for start in range(0, _ACCEPT_BATCH, rows):
            block = law.table.ppf(steps[start:start + rows])
            excess = block.sum(axis=1) - target
            keep = np.exp(-law.tilt * np.maximum(excess, 0.0))
            hits = np.flatnonzero((excess > 0.0) & (accept[start:start + rows] < keep))
            if hits.size:
                return block[hits[0]]
    return None


def simulate_free_path(model: PerturbedDensity, n: int, seed: int) -> Trajectory:
    """Unconditioned i.i.d. walk, the baseline for conditioned comparisons:
    n draws from the plain law's table, ``tilted_law(model, model.mean)``;
    deterministic for a given seed."""
    require_counts(n=n)
    rng = np.random.default_rng(seed)
    increments = tilted_law(model, model.mean).table.ppf(rng.random(n))
    return Trajectory(
        increments=increments,
        partial_sums=np.cumsum(increments),
        conditioning=None,
    )


def sliding_slopes(traj: Trajectory, k: int) -> np.ndarray:
    """All window-average climbs (S[j+k] - S[j]) / k for j = 0..n-k.

    k may equal n, in which case the single slope is the overall mean.
    """
    n = traj.n
    if not 1 <= k <= n:
        raise BadWindow(f"window length {k} outside 1..{n}")
    prefix = np.concatenate([[0.0], traj.partial_sums])
    return (prefix[k:] - prefix[:-k]) / k


@dataclass(frozen=True, eq=False)
class SegmentReport:
    k: int
    alpha: float
    slopes: np.ndarray
    argmax_j: int
    max_slope: float
    a_k_event: bool


def detect_segments(traj: Trajectory, k: int, alpha: float) -> SegmentReport:
    """Scan all sliding windows; ties in the argmax break to the smallest j."""
    slopes = sliding_slopes(traj, k)
    argmax_j = int(np.argmax(slopes))
    max_slope = float(slopes[argmax_j])
    return SegmentReport(
        k=k,
        alpha=alpha,
        slopes=slopes,
        argmax_j=argmax_j,
        max_slope=max_slope,
        a_k_event=max_slope > alpha,
    )


def estimate_p_ak(model: PerturbedDensity, n: int, a: float, k: int, alpha: float,
                  replications: int, seed: int,
                  conditioned: bool = True) -> LocalizationEstimate:
    """Frequency of a window clearing alpha, over independent paths.

    Replication r uses the derived seed for index r, so raising the
    replication count extends the run without changing earlier paths.
    The unconditioned variant serves as the comparison baseline.
    """
    require_counts(replications=replications)
    if replications < 1:
        raise DomainError("need at least one replication")
    hits = 0
    for r in range(replications):
        path_seed = derive_seed(seed, r)
        if conditioned:
            traj = simulate_conditioned_path(
                model, n, a, EndValueAtLeast(n * a), seed=path_seed
            )
        else:
            traj = simulate_free_path(model, n, seed=path_seed)
        if detect_segments(traj, k, alpha).a_k_event:
            hits += 1
    p = hits / replications
    se = math.sqrt(p * (1.0 - p) / replications)
    return LocalizationEstimate(
        p_hat=p,
        std_err=se,
        n_eff=float(replications),
        replications=replications,
    )
