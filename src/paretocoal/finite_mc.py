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

from .samplers import RngStream, pareto_sample, replica_blocks
from .weighted import RatioAccumulator, WeightedEstimate, warn_if_degenerate

# Step cap of absorb, the loop of both discrete chains; each step it keeps
# is one int of the path.
_MAX_STEPS = 1_000_000
# A row whose sum lies outside [1/_SAFE_SUM, _SAFE_SUM] is divided by its
# sum before squaring, so its squared segments neither overflow nor lose
# digits to underflow; every other row squares its raw draws.
_SAFE_SUM = 2.0**500


@dataclass(frozen=True)
class PartitionModel:
    """Sampling model: which law the segment lengths come from.

    family "pareto" uses Pareto(alpha) on [1, inf); family "gamma" uses
    gamma(theta) with unit scale. beta is the size-bias exponent applied to
    the total sum. For the pareto family E Sigma^beta is finite if and only
    if beta < alpha, at every alpha; beta >= alpha is refused below alpha
    = 2 but still accepted from alpha = 2 on. The weights' variance E
    Sigma^(2 beta) is finite only for 2 beta < alpha, so a model with beta
    > 0 and 2 beta >= alpha warns: its stderr has no central limit. A gamma
    total is independent of the normalized partition (Lukacs 1955), so
    beta leaves the gamma partition law unchanged. The block estimators
    draw gamma segments; run_discrete_coalescent walks their PD(-theta,
    N theta) urn instead.

    A 2-D Pareto draw stratifies the smallest uniform M over a run of
    `total` rows: run row j (blocks start at `first`) takes M = 1 - (1 -
    q)^(1/N), q ~ U(j/total, (j+1)/total], at a random column, the rest
    U(M, 1]. Rows are one a stratum of the plain law, in stratum order.
    """

    family: str
    N: int
    alpha: float | None = None
    theta: float | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N >= 1 required")
        if not abs(self.beta) < np.inf:
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.family == "pareto":
            if self.alpha is None or not 0 < self.alpha < np.inf:
                raise ValueError("pareto family requires finite alpha > 0")
            if self.alpha < 2.0 and not self.beta < self.alpha:
                raise ValueError("beta < alpha required for alpha < 2")
            if self.beta > 0 and 2.0 * self.beta >= self.alpha:
                warnings.warn(
                    f"2*beta >= alpha (beta={self.beta}, alpha={self.alpha}) "
                    "gives heavy-tailed weights of infinite variance; the "
                    "stderr has no central limit there",
                    RuntimeWarning,
                    # past the generated __init__ and pareto(), to the
                    # line that called PartitionModel.pareto
                    stacklevel=4,
                )
        elif self.family == "gamma":
            if self.theta is None or not self.theta > 0:
                raise ValueError("gamma family requires theta > 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def pareto(cls, alpha: float, N: int, beta: float = 0.0) -> "PartitionModel":
        return cls(family="pareto", N=N, alpha=alpha, beta=beta)

    @classmethod
    def gamma(cls, theta: float, N: int, beta: float = 0.0) -> "PartitionModel":
        return cls(family="gamma", N=N, theta=theta, beta=beta)

    def draw(self, shape, rng: RngStream, first: int = 0, total=None) -> np.ndarray:
        if self.family == "gamma":
            return rng.gen.gamma(self.theta, size=shape)
        if np.ndim(shape) == 0:
            return pareto_sample(self.alpha, rng, shape)
        rows, n = shape
        u = rng.gen.random(shape)  # V', then 1 - V'(1 - M) in place
        m = rng.uniform_open(rows)  # V, q, M in place (temporaries add RSS)
        m += np.arange(first, first + rows)
        m /= total or rows
        np.log1p(np.negative(m, out=m), out=m)  # q = 1 (V = 1) gives M = 1
        np.negative(np.expm1(np.divide(m, n, out=m), out=m), out=m)
        u *= (m - 1.0)[:, None]
        u += 1.0
        u[np.arange(rows), rng.gen.integers(n, size=rows)] = m
        u **= -1.0 / self.alpha
        return u

    def draw_rows(self, rows: int, rng: RngStream, first: int, total: int):
        """A (rows, N) block and its row sums. A Pareto draw can overflow
        once alpha < 53/1024 and a gamma draw is 0 at small theta; a sum
        that is inf or 0 normalizes to no partition, so it raises."""
        with np.errstate(over="ignore", divide="ignore"):
            x = self.draw((rows, self.N), rng, first, total)
        s = x.sum(axis=1)
        if not (s.min() > 0 and s.max() < np.inf):
            raise self._no_partition()
        return x, s

    def _no_partition(self) -> ValueError:
        law = (f"alpha={self.alpha}" if self.family == "pareto"
               else f"theta={self.theta}")
        return ValueError(
            f"a partition row sums to inf or 0 at {law}, N={self.N}"
        )


@dataclass(frozen=True)
class BlockState:
    """Block count of the ancestral process at a time point or step."""

    when: float
    blocks: int


@dataclass(frozen=True)
class DiscreteTrajectory:
    """A chain's block counts at steps 0, 1, ..; states builds BlockState
    views of them on each read."""
    blocks: list[int]

    @property
    def steps(self) -> int:
        return len(self.blocks) - 1

    @property
    def states(self) -> tuple[BlockState, ...]:
        return tuple(BlockState(float(k), b) for k, b in enumerate(self.blocks))


def _distinct_counts(idx: np.ndarray) -> np.ndarray:
    """Distinct values per row of a small-width integer matrix."""
    s = np.sort(idx, axis=1)
    return 1 + (np.diff(s, axis=1) > 0).sum(axis=1)


def _segment_hits(x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms to segment indices, rows independent.

    x is (b, N) positive segment weights, u is (b, i) uniforms in [0, 1).
    x is overwritten: it ends as the offset cumulative sums. Rows are
    offset to disjoint unit intervals so one flat searchsorted handles the
    whole batch.
    """
    b = x.shape[0]
    cum = np.cumsum(x, axis=1, out=x)
    cum /= cum[:, -1:]
    off = np.arange(b)[:, None]
    cum += off
    idx = np.searchsorted(cum.ravel(), (u + off).ravel(), side="left")
    return idx.reshape(u.shape)


def estimate_p_row(
    model: PartitionModel, i: int, replicas: int, rng: RngStream
) -> list[WeightedEstimate]:
    """Merger probabilities P_(i,j) for every j = 1..i from shared replicas."""
    return estimate_p_rows_nested(model, [i], replicas, rng)[i]


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
    def block(rows, child, first):
        x, s = model.draw_rows(rows, child, first, replicas)
        log_w = model.beta * np.log(s)
        return log_w, _segment_hits(x, child.gen.random((rows, i_top)))

    accs = {i: RatioAccumulator(columns=i) for i in i_values}
    for log_w, hits in replica_blocks(replicas, model.N, rng, block):
        for i in i_values:
            j = _distinct_counts(hits[:, :i])
            v = (j[:, None] == np.arange(1, i + 1)[None, :]).astype(float)
            accs[i].add(log_w, v)
    rows = {i: accs[i].estimates() for i in i_values}
    # Every accumulator is fed the same log-weights, so all share one ESS.
    warn_if_degenerate(rows[i_top][0], f"P rows for i in {i_values}")
    return rows


def estimate_c_N(
    model: PartitionModel, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Coalescence probability: two uniforms hit the same segment."""
    return estimate_p_row(model, 2, replicas, rng)[0]


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
    def block(rows, child, first):
        x, s = model.draw_rows(rows, child, first, replicas)
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.einsum("ij,ij->i", x, x) / (s * s)
        if s.min() < 1.0 / _SAFE_SUM or s.max() > _SAFE_SUM:
            far = (s < 1.0 / _SAFE_SUM) | (s > _SAFE_SUM)
            y = x[far] / s[far, None]
            v[far] = np.einsum("ij,ij->i", y, y)
        return model.beta * np.log(s), v

    acc = RatioAccumulator(columns=1)
    for log_w, v in replica_blocks(replicas, model.N, rng, block):
        acc.add(log_w, v)
    est = acc.estimate()
    warn_if_degenerate(est, "estimate_c_N_conditional")
    return est


def absorb(n0: int, step) -> list[int]:
    """Block counts at steps 0, 1, .. of a discrete chain until one remains.

    step(blocks) draws the next count. The chain can stay put, so one still
    above one block after _MAX_STEPS steps raises RuntimeError.
    """
    path = [n0]
    while path[-1] > 1:
        if len(path) > _MAX_STEPS:
            raise RuntimeError(f"chain exceeded {_MAX_STEPS} steps")
        path.append(step(path[-1]))
    return path


def run_discrete_coalescent(
    model: PartitionModel, n0: int, rng: RngStream
) -> DiscreteTrajectory:
    """Iterate the one-step merger dynamics until one block remains.

    A Pareto step throws as many uniforms as there are blocks on a fresh
    partition and raises, as draw_rows does, if it sums to inf or 0. A
    gamma step walks the Polya urn of a symmetric Dirichlet(theta) vector
    of N colours, Pitman's PD(-theta, N theta): after n throws on k blocks,
    throw n + 1 opens a new block with chance (N - k) theta / (n + N theta).
    The block estimators still draw gamma segments. n0 may exceed N. Paths
    are unbiased: beta enters the estimators' weights only, and for the
    gamma family the total is independent of the normalized partition
    (Lukacs 1955), so beta leaves its law unchanged. The chain runs through
    absorb and its step cap.
    """
    if n0 < 1:
        raise ValueError("need n0 >= 1")
    def step(blocks: int) -> int:
        cum = np.cumsum(model.draw(model.N, rng))
        if not 0 < cum[-1] < np.inf:
            raise model._no_partition()
        u = rng.gen.random(blocks) * cum[-1]
        return int(np.unique(np.searchsorted(cum, u, side="left")).size)
    def urn_step(blocks: int) -> int:
        k = 1
        for n, u in enumerate(rng.gen.random(blocks - 1).tolist(), 1):
            k += u * (n / model.theta + model.N) < model.N - k
        return k

    with np.errstate(over="ignore"):
        return DiscreteTrajectory(
            absorb(n0, urn_step if model.family == "gamma" else step))
