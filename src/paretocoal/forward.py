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
    batched,
    frechet_sample,
    pareto_sample,
    poisson_arrivals,
)
from .specfun import digamma
from .weighted import WeightedEstimate, mean_estimate

_LOG_MAX_DOUBLE = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class ForwardConfig:
    N: int
    alpha: float
    generations: int
    initial_fitnesses: np.ndarray | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError("N >= 2 required")
        if self.alpha <= 0:
            raise ValueError("alpha > 0 required")
        if self.generations < 1:
            raise ValueError("generations >= 1 required")
        if self.initial_fitnesses is not None:
            x0 = np.asarray(self.initial_fitnesses, dtype=float)
            if x0.shape != (self.N,) or np.any(x0 <= 0):
                raise ValueError("initial fitnesses must be N positive reals")
            object.__setattr__(self, "initial_fitnesses", x0)

    def log_global_start(self) -> float:
        if self.initial_fitnesses is None:
            return math.log(self.N) / self.alpha
        ax = self.alpha * np.log(self.initial_fitnesses)
        return float(_logsumexp(ax)) / self.alpha

    def log_fittest_start(self) -> float:
        if self.initial_fitnesses is None:
            return 0.0
        return float(np.log(self.initial_fitnesses.max()))


def _logsumexp(a: np.ndarray) -> float:
    m = a.max()
    return m + math.log(np.exp(a - m).sum())


@dataclass(frozen=True)
class ForwardState:
    """Log-space population summary after k generations."""

    k: int
    log_global: float
    log_holder_mean: float
    log_fittest: float


def initial_state(config: ForwardConfig) -> ForwardState:
    lg = config.log_global_start()
    return ForwardState(
        k=0,
        log_global=lg,
        log_holder_mean=lg - math.log(config.N) / config.alpha,
        log_fittest=config.log_fittest_start(),
    )


def _one_generation(config: ForwardConfig, rng: RngStream):
    """Arrival times of the first N+1 offspring of the pooled process.

    Returns (log point-sum increment, log tau_1, arrivals). The increment
    ln(sum tau_n^-1)/alpha, n <= N, updates the global fitness; pathwise it
    equals the recursion through tau_(N+1) and N unit-Pareto draws.
    """
    tau = poisson_arrivals(config.N + 1, rng)
    incr = math.log(np.reciprocal(tau[:-1]).sum()) / config.alpha
    return incr, math.log(tau[0]), tau


def _next_state(
    state: ForwardState, config: ForwardConfig, incr: float, log_tau1: float
) -> ForwardState:
    log_global = state.log_global + incr
    return ForwardState(
        k=state.k + 1,
        log_global=log_global,
        log_holder_mean=log_global - math.log(config.N) / config.alpha,
        log_fittest=state.log_global - log_tau1 / config.alpha,
    )


def step(state: ForwardState, config: ForwardConfig, rng: RngStream) -> ForwardState:
    """Advance one generation; overflow-proof because only logs move."""
    incr, log_tau1, _ = _one_generation(config, rng)
    return _next_state(state, config, incr, log_tau1)


def trajectory(config: ForwardConfig, rng: RngStream) -> list[ForwardState]:
    states = [initial_state(config)]
    for _ in range(config.generations):
        states.append(step(states[-1], config, rng))
    return states


def explicit_fitnesses(
    state: ForwardState, config: ForwardConfig, rng: RngStream
) -> tuple[ForwardState, np.ndarray]:
    """One generation materializing the N selected fitnesses.

    The returned vector is decreasing: fitness n is exp(log_global) times
    tau_n^(-1/alpha). Shares the draws with step(), so summaries recomputed
    from the vector coincide pathwise with the log-space recursion. Raises
    OverflowError once the top fitness passes the largest double.
    """
    incr, log_tau1, tau = _one_generation(config, rng)
    log_fit = state.log_global - np.log(tau[:-1]) / config.alpha
    if log_fit[0] > _LOG_MAX_DOUBLE:
        raise OverflowError(
            f"log fitness {log_fit[0]:.1f} at generation {state.k + 1} exceeds "
            f"ln(max double) = {_LOG_MAX_DOUBLE:.1f}; step() stays in log space"
        )
    return _next_state(state, config, incr, log_tau1), np.exp(log_fit)


def increments(config: ForwardConfig, rng: RngStream) -> np.ndarray:
    """All per-generation log increments of one trajectory, vectorized."""
    k, n = config.generations, config.N
    e = rng.gen.standard_exponential((k, n + 1))
    tau = np.cumsum(e, axis=1)
    return np.log(np.reciprocal(tau[:, :-1]).sum(axis=1)) / config.alpha


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
    vals = np.empty(replicas)
    for r in range(replicas):
        vals[r] = increments(config, rng.substream(r)).mean()
    return mean_estimate(vals)


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
    sums = np.concatenate(
        [pareto_sample(1.0, rng, (b, config.N)).sum(axis=1)
         for b in batched(replicas, config.N)]
    )
    return sel, mean_estimate(np.log(sums) / config.alpha)


# ---------------------------------------------------------------------------
# Pressure and its Legendre transform


def pressure(alpha: float, N: int, beta: float) -> float:
    """Cumulant scaling function of the log mean fitness, beta < alpha."""
    if alpha <= 0 or N < 3:
        raise ValueError("need alpha > 0 and N >= 3")
    if not beta < alpha:
        raise ValueError("pressure requires beta < alpha")
    loglog = math.log(math.log(N))
    corr = digamma(1.0 - beta / alpha) - loglog - 1.0
    return -(beta / alpha) * loglog - beta / (alpha * math.log(N)) * corr


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def legendre(alpha: float, N: int, a: float, tol: float = 1e-8) -> float:
    """Legendre value of the pressure at slope a: the tangency point.

    Returns a*beta_star - pressure(beta_star) where beta_star solves
    pressure'(beta) = a. The closed-form pressure turns out strictly convex
    in beta (its exact cumulant counterpart is concave; the asymptotics
    flip the curvature), so the stationary point is located by
    golden-section search on the extremum of a*beta - pressure(beta) over
    the bracket [-50, alpha). A stationary point pinned to a bracket edge
    means a is outside the attainable slope range, which is an error. The
    duality diagnostic is unchanged: the line through the result with slope
    a is tangent to the pressure at beta_star.
    """
    lo, hi = -50.0, alpha - 1e-6

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
    ratio = frechet_sample(config.alpha, rng, replicas)
    med = float(np.median(ratio))
    if config.alpha > 1.0:
        est = mean_estimate(ratio)
        return FittestStats(replicas, med, est.value, est.stderr)
    return FittestStats(replicas, med, None, None)
