"""Random variates, heavy-tailed sums, and stable-limit scaling constants.

The RNG is counter-based (Philox keyed through numpy's SeedSequence), so a
(seed, stream_index) pair pins down the whole variate sequence and distinct
stream indices give statistically independent streams that can be consumed
in any order, e.g. one stream per Monte Carlo worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import EULER_GAMMA


@dataclass
class RngStream:
    """Deterministic random stream identified by (seed, stream_index)."""

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            # SeedSequence wants unsigned words; map signed 64-bit values
            # through two's complement so negative seeds/indices stay valid.
            mask = (1 << 64) - 1
            ss = np.random.SeedSequence(
                entropy=int(self.seed) & mask,
                spawn_key=(int(self.stream_index) & mask,),
            )
            self._gen = np.random.Generator(np.random.Philox(ss))
        return self._gen

    def substream(self, j: int) -> "RngStream":
        """Derive an independent child stream; deterministic in (self, j)."""
        return RngStream(self.seed, self.stream_index * 1_000_003 + j + 1)

    def uniform_open(self, size=None):
        """Uniforms on (0, 1]: never 0, so inverse-CDF maps stay finite."""
        u = self.gen.random(size)
        return 1.0 - u


# Replica batches are sized so one batch holds about this many doubles.
_BATCH_ELEMENTS = 1 << 24


def batched(replicas: int, N: int):
    """Batch sizes summing to replicas, each batch about 2^24 / N rows."""
    chunk = max(1, _BATCH_ELEMENTS // max(N, 1))
    done = 0
    while done < replicas:
        b = min(chunk, replicas - done)
        yield b
        done += b


def pareto_sample(alpha: float, rng: RngStream, size=None):
    """Pareto(alpha) variates on [1, inf) with tail P(X > x) = x^-alpha.

    Inverse CDF: X = U^(-1/alpha) with U uniform on (0, 1].
    """
    if alpha <= 0:
        raise ValueError("pareto_sample requires alpha > 0")
    return rng.uniform_open(size) ** (-1.0 / alpha)


def poisson_arrivals(count: int, rng: RngStream) -> np.ndarray:
    """First `count` arrival times of a unit-rate Poisson process.

    Returned strictly increasing; the n-th entry is Erlang gamma(n).
    """
    if count < 1:
        raise ValueError("poisson_arrivals requires count >= 1")
    return rng.gen.standard_exponential(count).cumsum()


def frechet_sample(alpha: float, rng: RngStream, size=None):
    """Frechet variates with CDF exp(-x^-alpha), built as tau^(-1/alpha)."""
    if alpha <= 0:
        raise ValueError("frechet_sample requires alpha > 0")
    tau = rng.gen.standard_exponential(size)
    return tau ** (-1.0 / alpha)


@dataclass(frozen=True)
class GcltConstants:
    """Centering a_N, scaling b_N and tail constant for partial Pareto sums."""

    a_N: float
    b_N: float
    C_alpha: float
    regime_tag: str


def gclt_constants(alpha: float, N: int) -> GcltConstants:
    """Constants so that (Sigma_N - a_N)/b_N has a stable or normal limit.

    Regimes: alpha in (0,1) one-sided stable with a_N = 0; alpha = 1 skewed
    Cauchy with logarithmic centering (asymptotic form); alpha in (1,2)
    stable with a_N = N*mu; alpha = 2 normal with b_N = sqrt(N log N);
    alpha > 2 normal with variance-based C_alpha.
    """
    if alpha <= 0:
        raise ValueError("gclt_constants requires alpha > 0")
    if N < 1:
        raise ValueError("gclt_constants requires N >= 1")
    if alpha == 1.0:
        c = math.pi / 2.0
        a = N * math.log(N) + N * (1.0 - EULER_GAMMA - math.log(2.0 / math.pi))
        return GcltConstants(a, c * N, c, "cauchy(1)")
    if alpha == 2.0:
        # b_N degenerates at N = 1 (log 1 = 0); meaningful for N >= 2.
        return GcltConstants(2.0 * N, math.sqrt(N * math.log(N)), float("nan"), "critical(2)")
    if alpha < 2.0:
        # Gamma(1-alpha) is finite here (alpha = 1 returned above) and
        # changes sign with cos(pi alpha/2) at alpha = 1.
        prod = math.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
        if prod <= 0:
            raise ValueError(f"non-positive tail constant at alpha={alpha}")
        c = prod ** (1.0 / alpha)
        try:
            b = c * N ** max(1.0 / alpha, 0.5)
        except OverflowError:
            b = math.inf
        if b == math.inf:
            raise ValueError(
                f"scaling b_N = C_alpha N^(1/alpha) overflows a double at "
                f"alpha={alpha}, N={N}"
            )
        if alpha < 1.0:
            return GcltConstants(0.0, b, c, "stable(0,1)")
        mu = alpha / (alpha - 1.0)
        return GcltConstants(N * mu, b, c, "stable(1,2)")
    mu = alpha / (alpha - 1.0)
    c = math.sqrt(alpha / (alpha - 2.0) - mu * mu)
    return GcltConstants(N * mu, c * math.sqrt(N), c, "normal(>2)")


@dataclass(frozen=True)
class SumStats:
    """Summary of the standardized partial sum (Sigma_N - a_N)/b_N."""

    alpha: float
    N: int
    replicas: int
    mean: float
    variance: float
    mean_stderr: float
    quantiles: dict[float, float]
    raw_median: float
    constants: GcltConstants


_QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def standardized_sum_stats(
    alpha: float, N: int, replicas: int, rng: RngStream
) -> SumStats:
    """Monte Carlo summary of the centered and scaled Pareto partial sum."""
    if replicas < 1000:
        raise ValueError("standardized_sum_stats requires replicas >= 1000")
    consts = gclt_constants(alpha, N)
    if not consts.b_N > 0:
        raise ValueError(f"degenerate scaling b_N={consts.b_N} at N={N}")
    with np.errstate(over="ignore"):
        sums = np.concatenate(
            [pareto_sample(alpha, rng, size=(b, N)).sum(axis=1)
             for b in batched(replicas, N)]
        )
    if not np.isfinite(sums).all():
        # U^(-1/alpha) passes the largest double once U < exp(-709.8 alpha).
        raise ValueError(
            f"Pareto partial sums overflow a double at alpha={alpha}, N={N}"
        )
    z = (sums - consts.a_N) / consts.b_N
    qs = {q: float(v) for q, v in zip(_QUANTILES, np.quantile(z, _QUANTILES))}
    return SumStats(
        alpha=alpha,
        N=N,
        replicas=replicas,
        mean=float(z.mean()),
        variance=float(z.var(ddof=1)),
        mean_stderr=float(z.std(ddof=1) / math.sqrt(replicas)),
        quantiles=qs,
        raw_median=float(np.median(sums)),
        constants=consts,
    )
