"""Forward-in-time branching model with top-N selection.

Each generation, every individual spawns offspring along a Poisson point
process whose intensity scales with the parent's fitness to the power
alpha; keeping the N fittest collapses the whole population into one
sufficient statistic, the global equivalent fitness (sum of fitness^alpha)
^(1/alpha). One generation multiplies it by tau_(N+1)^(-1/alpha) times the
alpha-norm of N fresh Pareto(alpha) draws, all of which we carry in log
space. The selected fitnesses themselves are recoverable from the arrival
times, which is what the explicit mode materializes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .samplers import (
    RngStream,
    frechet_sample,
    ordered_map,
    pareto_row_sums,
    poisson_arrivals,
)
from .specfun import digamma
from .weighted import WeightedEstimate, mean_estimate

_LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))
# A trajectory keeps one ForwardState per generation, about 350 B each.
_MAX_GENERATIONS = 1_000_000


@dataclass(frozen=True)
class ForwardConfig:
    N: int
    alpha: float
    generations: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N >= 2 required")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"finite alpha > 0 required, got {self.alpha}")
        if not math.log(self.N) / self.alpha < math.inf:
            raise ValueError(
                f"ln(N)/alpha overflows at alpha={self.alpha}, N={self.N}"
            )
        if self.generations < 1:
            raise ValueError("generations >= 1 required")


@dataclass(frozen=True)
class ForwardState:
    """Log-space population summary after k generations."""

    k: int
    log_global: float
    log_holder_mean: float
    log_fittest: float


def initial_state(config: ForwardConfig) -> ForwardState:
    """Generation 0 of N unit fitnesses: global fitness N^(1/alpha)."""
    return ForwardState(0, math.log(config.N) / config.alpha, 0.0, 0.0)


# Arrival rows shrink to two numbers at once; small blocks bound memory.
_ARRIVAL_ELEMENTS = 1 << 16


def _arrival_blocks(config: ForwardConfig, rng: RngStream):
    """Arrival rows of every generation, one (b, N+1) block at a time."""
    chunk = max(1, _ARRIVAL_ELEMENTS // (config.N + 1))
    for done in range(0, config.generations, chunk):
        b = min(chunk, config.generations - done)
        yield poisson_arrivals(b, config.N + 1, rng)


def _log_increments(tau: np.ndarray, alpha: float):
    """Per-row (log point-sum increment, log tau_1); overwrites tau[:, :-1].

    The increment ln(sum tau_n^-1)/alpha, n <= N, updates the global
    fitness; pathwise it equals the recursion through tau_(N+1) and N
    unit-Pareto draws.
    """
    log_tau1 = np.log(tau[:, 0])
    inv = np.reciprocal(tau[:, :-1], out=tau[:, :-1])
    return np.log(inv.sum(axis=1)) / alpha, log_tau1


def _walk(start: ForwardState, config: ForwardConfig, incr, log_tau1):
    """The states after start, one per increment; only logs move."""
    g = np.cumsum(np.concatenate(([start.log_global], incr)))
    h = g[1:] - math.log(config.N) / config.alpha
    f = g[:-1] - log_tau1 / config.alpha
    k = range(start.k + 1, start.k + 1 + incr.size)
    return list(map(ForwardState, k, g[1:].tolist(), h.tolist(), f.tolist()))


def trajectory(config: ForwardConfig, rng: RngStream) -> list[ForwardState]:
    if config.generations > _MAX_GENERATIONS:
        raise ValueError(f"generations must be <= {_MAX_GENERATIONS}")
    states = [initial_state(config)]
    for tau in _arrival_blocks(config, rng):
        states += _walk(states[-1], config, *_log_increments(tau, config.alpha))
    return states


def explicit_fitnesses(
    state: ForwardState, config: ForwardConfig, rng: RngStream
) -> tuple[ForwardState, np.ndarray]:
    """One generation materializing the N selected fitnesses.

    The returned vector is decreasing: fitness n is exp(log_global) times
    tau_n^(-1/alpha). Draws one arrival row as trajectory() does, so
    summaries recomputed from the vector coincide pathwise with the
    log-space recursion. Raises OverflowError once the top fitness passes
    the largest double.
    """
    tau = poisson_arrivals(1, config.N + 1, rng)
    log_fit = state.log_global - np.log(tau[0, :-1]) / config.alpha
    if log_fit[0] > _LOG_MAX_DOUBLE:
        raise OverflowError(
            f"log fitness {log_fit[0]:.1f} at generation {state.k + 1} exceeds "
            f"ln(max double) = {_LOG_MAX_DOUBLE:.1f}; trajectory() stays in "
            f"log space"
        )
    (nxt,) = _walk(state, config, *_log_increments(tau, config.alpha))
    return nxt, np.exp(log_fit)


def increments(config: ForwardConfig, rng: RngStream) -> np.ndarray:
    """All per-generation log increments of one trajectory, vectorized."""
    return np.concatenate(
        [_log_increments(tau, config.alpha)[0]
         for tau in _arrival_blocks(config, rng)]
    )


def speed_estimate(
    config: ForwardConfig, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Mean of (1/k) log Holder-alpha-mean fitness at the final generation.

    With unit initial fitnesses the Holder mean starts at 1, so the speed
    per replica is just the average log increment.
    """
    if config.generations < 100:
        raise ValueError("speed_estimate wants generations >= 100")
    if replicas < 2:
        raise ValueError(f"replicas >= 2 required, got {replicas}")
    means = ordered_map(lambda child: increments(config, child).mean(),
                        rng.spawn(replicas))
    return mean_estimate(list(means))


def per_step_mean_parts(
    config: ForwardConfig, replicas: int, rng: RngStream
) -> tuple[float, WeightedEstimate]:
    """Oracle decomposition of the per-generation drift.

    Returns the exact selection part -psi(N+1)/alpha and a direct Monte
    Carlo estimate of E(ln sum X_n^alpha)/alpha from fresh unit-Pareto
    draws, independent of the trajectory path.
    """
    if replicas < 2:
        raise ValueError(f"replicas >= 2 required, got {replicas}")
    sel = -digamma(config.N + 1) / config.alpha
    sums = pareto_row_sums(1.0, config.N, replicas, rng)
    return sel, mean_estimate(np.log(sums) / config.alpha)


# ---------------------------------------------------------------------------
# Pressure and its Legendre transform


def pressure(alpha: float, N: int, beta: float) -> float:
    """Cumulant scaling function of the log mean fitness, beta < alpha."""
    if not 0 < alpha < math.inf or N < 3:
        raise ValueError(
            f"need finite alpha > 0 and N >= 3, got alpha={alpha}, N={N}"
        )
    if not beta < alpha:
        raise ValueError("pressure requires beta < alpha")
    if not abs(beta / alpha) < math.inf:
        raise ValueError(f"beta/alpha overflows at beta={beta}, alpha={alpha}")
    loglog = math.log(math.log(N))
    corr = digamma(1.0 - beta / alpha) - loglog - 1.0
    return -(beta / alpha) * loglog - beta / (alpha * math.log(N)) * corr


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def legendre(alpha: float, N: int, a: float) -> float:
    """Legendre value of the pressure at slope a: the tangency point.

    Returns a*beta_star - pressure(beta_star) where beta_star solves
    pressure'(beta) = a. The closed-form pressure is strictly convex in
    beta, as its exact counterpart ln E exp(beta Y) is by Holder's
    inequality, so the stationary point is located by
    golden-section search on the extremum of a*beta - pressure(beta) over
    the bracket [-50, alpha). A stationary point pinned to a bracket edge
    means a is outside the attainable slope range, which is an error. The
    duality diagnostic is unchanged: the line through the result with slope
    a is tangent to the pressure at beta_star.
    """
    lo, hi, tol = -50.0, alpha - 1e-6, 1e-8

    def neg_g(b: float) -> float:
        # pressure is convex so a*b - pressure(b) is concave: maximize it.
        return pressure(alpha, N, b) - a * b

    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = neg_g(x1), neg_g(x2)
    left, right = lo, hi
    while right - left > tol:
        if f1 <= f2:
            right, x2, f2 = x2, x1, f1
            x1 = right - _GOLDEN * (right - left)
            f1 = neg_g(x1)
        else:
            left, x1, f1 = x1, x2, f2
            x2 = left + _GOLDEN * (right - left)
            f2 = neg_g(x2)
    b_star = 0.5 * (left + right)
    if b_star - lo < 10 * tol or hi - b_star < 10 * tol:
        raise ValueError(
            f"Legendre stationary point pinned at bracket edge "
            f"(beta*={b_star:.3f}); a={a} is outside the attainable slope "
            f"range"
        )
    return a * b_star - pressure(alpha, N, b_star)


# ---------------------------------------------------------------------------
# Fittest individual


@dataclass(frozen=True)
class FittestStats:
    """Conditional law of fittest-offspring fitness over global fitness."""

    replicas: int
    median_ratio: float
    mean_ratio: float | None
    mean_stderr: float | None


def fittest_stats(
    config: ForwardConfig, replicas: int, rng: RngStream
) -> FittestStats:
    """Ratio of the next generation's top fitness to the global fitness.

    Built from the first arrival of the offspring process, tau_1 ~ exp(1),
    as ratio = tau_1^(-1/alpha). The mean is only reported for alpha > 1
    (it is infinite otherwise).
    """
    if replicas < 2:
        raise ValueError(f"replicas >= 2 required, got {replicas}")
    ratio = frechet_sample(config.alpha, rng, replicas)
    med = float(np.median(ratio))
    if config.alpha > 1.0:
        est = mean_estimate(ratio)
        return FittestStats(replicas, med, est.value, est.stderr)
    return FittestStats(replicas, med, None, None)
