"""Finite-N coalescent from sampling uniforms onto a normalized partition.

N heavy-tailed (or gamma) variables X_1..X_N are normalized by their sum to
break the unit interval into N random segments; throwing i independent
uniforms and counting the distinct segments hit realizes one i-to-j merger.
Size-biasing by the beta-th power of the total is handled as self-normalized
importance sampling, so no closed form for the weight normalizer is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .samplers import RngStream, batched, pareto_sample
from .weighted import RatioAccumulator, WeightedEstimate, warn_if_degenerate


@dataclass(frozen=True)
class PartitionModel:
    """Sampling model: which law the segment lengths come from.

    family "pareto" uses Pareto(alpha) on [1, inf); family "gamma" uses
    gamma(theta) with unit scale. beta is the size-bias exponent applied to
    the total sum. For the pareto family with alpha < 2 the weight moment
    only exists for beta < alpha; for alpha >= 2 any beta is accepted but
    large beta still degrades the estimator, which we flag heuristically.
    """

    family: str
    N: int
    alpha: float | None = None
    theta: float | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N >= 1 required")
        if self.family == "pareto":
            if self.alpha is None or self.alpha <= 0:
                raise ValueError("pareto family requires alpha > 0")
            if self.alpha < 2.0 and not self.beta < self.alpha:
                raise ValueError("beta < alpha required for alpha < 2")
            if self.alpha >= 2.0 and self.beta >= self.alpha / 2.0 + 1.0:
                warnings.warn(
                    "beta this large gives heavy-tailed weights; expect a "
                    "degenerate effective sample size",
                    RuntimeWarning,
                    # past the generated __init__ and pareto(), to the
                    # line that called PartitionModel.pareto
                    stacklevel=4,
                )
        elif self.family == "gamma":
            if self.theta is None or self.theta <= 0:
                raise ValueError("gamma family requires theta > 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def pareto(cls, alpha: float, N: int, beta: float = 0.0) -> "PartitionModel":
        return cls(family="pareto", N=N, alpha=alpha, beta=beta)

    @classmethod
    def gamma(cls, theta: float, N: int, beta: float = 0.0) -> "PartitionModel":
        return cls(family="gamma", N=N, theta=theta, beta=beta)

    def draw(self, shape, rng: RngStream) -> np.ndarray:
        if self.family == "pareto":
            return pareto_sample(self.alpha, rng, shape)
        return rng.gen.gamma(self.theta, size=shape)


@dataclass(frozen=True)
class BlockState:
    """Block count of the ancestral process at a time point or step."""

    when: float
    blocks: int


@dataclass(frozen=True)
class DiscreteTrajectory:
    states: tuple[BlockState, ...]
    absorbed: bool

    @property
    def steps(self) -> int:
        return len(self.states) - 1


def _distinct_counts(idx: np.ndarray) -> np.ndarray:
    """Distinct values per row of a small-width integer matrix."""
    s = np.sort(idx, axis=1)
    return 1 + (np.diff(s, axis=1) > 0).sum(axis=1)


def _segment_hits(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to segment indices, rows independent.

    x is (b, N) positive segment weights, u is (b, i) uniforms in [0, 1).
    Rows are offset to disjoint unit intervals so one flat searchsorted
    handles the whole batch.
    """
    b = x.shape[0]
    cum = np.cumsum(x, axis=1)
    cum /= cum[:, -1:]
    off = np.arange(b)[:, None]
    flat = (cum + off).ravel()
    idx = np.searchsorted(flat, (u + off).ravel(), side="left")
    return idx.reshape(u.shape)


def estimate_p_row(
    model: PartitionModel, i: int, replicas: int, rng: RngStream
) -> list[WeightedEstimate]:
    """Merger probabilities P_(i,j) for every j = 1..i from shared replicas."""
    return estimate_p_rows_nested(model, [i], replicas, rng)[i]


def estimate_p_ij(
    model: PartitionModel, i: int, j: int, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Self-normalized estimate of the i-to-j merger probability."""
    if not 1 <= j <= i:
        raise ValueError("need 1 <= j <= i")
    return estimate_p_row(model, i, replicas, rng)[j - 1]


def estimate_p_rows_nested(
    model: PartitionModel, i_values: list[int], replicas: int, rng: RngStream
) -> dict[int, list[WeightedEstimate]]:
    """Rows for several sample sizes i, coupled on shared partitions.

    Each replica draws one partition and max(i) uniforms; row i uses the
    first i of them, so the estimates are nested in i (and positively
    correlated across rows, which sharpens ratio comparisons).
    """
    i_values = sorted(set(i_values))
    if not i_values:
        raise ValueError("at least one sample size i required")
    if i_values[0] < 1 or i_values[-1] > model.N:
        raise ValueError("need 1 <= i <= N")
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    i_top = i_values[-1]
    accs = {i: RatioAccumulator(columns=i) for i in i_values}
    for b in batched(replicas, model.N):
        x = model.draw((b, model.N), rng)
        log_w = model.beta * np.log(x.sum(axis=1))
        u = rng.gen.random((b, i_top))
        hits = _segment_hits(x, u)
        for i in i_values:
            j = _distinct_counts(hits[:, :i])
            v = (j[:, None] == np.arange(1, i + 1)[None, :]).astype(float)
            accs[i].add(log_w, v)
    rows = {i: accs[i].estimates() for i in i_values}
    for i, row in rows.items():
        for j, est in enumerate(row, start=1):
            warn_if_degenerate(est, f"estimate_p_ij(i={i}, j={j})")
    return rows


def estimate_c_N(
    model: PartitionModel, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Coalescence probability: two uniforms hit the same segment."""
    return estimate_p_ij(model, 2, 1, replicas, rng)


def estimate_c_N_conditional(
    model: PartitionModel, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Coalescence probability via the conditional collision chance.

    Given the partition, the probability that two uniforms share a segment
    is sum_n S_n^2 exactly, so averaging that (with the same weights) has
    the same expectation as estimate_c_N at a fraction of the variance.
    Used by the scaling harness where c_N is small.
    """
    if replicas < 2:
        raise ValueError("replicas >= 2 required")
    acc = RatioAccumulator(columns=1)
    for b in batched(replicas, model.N):
        x = model.draw((b, model.N), rng)
        s = x.sum(axis=1)
        log_w = model.beta * np.log(s)
        v = (x * x).sum(axis=1) / (s * s)
        acc.add(log_w, v)
    est = acc.estimate()
    warn_if_degenerate(est, "estimate_c_N_conditional")
    return est


def run_discrete_coalescent(
    model: PartitionModel,
    n0: int,
    rng: RngStream,
    max_steps: int = 100_000,
) -> DiscreteTrajectory:
    """Iterate the one-step merger dynamics until one block remains.

    Each generation draws a fresh partition and throws as many uniforms as
    there are surviving blocks. n0 may exceed N (a single-segment partition
    collapses everything in one step). Trajectories are always run unbiased
    (weights enter one-step probability estimates only, not path dynamics).
    """
    if n0 < 1:
        raise ValueError("need n0 >= 1")
    states = [BlockState(0.0, n0)]
    blocks = n0
    step = 0
    while blocks > 1 and step < max_steps:
        x = model.draw(model.N, rng)
        cum = np.cumsum(x)
        u = rng.gen.random(blocks) * cum[-1]
        idx = np.searchsorted(cum, u, side="left")
        blocks = int(np.unique(idx).size)
        step += 1
        states.append(BlockState(float(step), blocks))
    return DiscreteTrajectory(states=tuple(states), absorbed=blocks == 1)
