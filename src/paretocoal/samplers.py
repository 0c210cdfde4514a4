"""Random variates, heavy-tailed sums, and stable-limit scaling constants.

Every stream is a PCG64DXSM generator keyed through numpy's SeedSequence,
so a (seed, stream_index) pair pins down the whole variate sequence. Every
derived stream is a spawned SeedSequence child (`RngStream.spawn`): a
stream never hands out the same child twice, and a child is independent of
its parent, its siblings and every root. Replica loops run in fixed blocks
on spawned streams over one thread per CPU, so their results do not depend
on the thread count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .specfun import EULER_GAMMA

# The bit generator behind every stream; provenance lines name it.
BIT_GENERATOR = np.random.PCG64DXSM


@dataclass(eq=False)
class RngStream:
    """Deterministic random stream rooted at (seed, stream_index).

    The generator is BIT_GENERATOR over this stream's SeedSequence, both
    built lazily on first use. A root's spawn key is the 64-bit stream
    index as two 32-bit words; child streams come only from `spawn`
    (numpy's SeedSequence.spawn), whose keys are three words or more, so
    no root draws what a child draws. Streams compare by identity: two
    with the same (seed, stream_index) may draw different numbers.
    """

    seed: int
    stream_index: int = 0
    _seq: np.random.SeedSequence | None = field(default=None, repr=False)
    _gen: np.random.Generator | None = field(default=None, repr=False)

    @property
    def seq(self) -> np.random.SeedSequence:
        """The SeedSequence the generator and the spawned children use."""
        if self._seq is None:
            # SeedSequence wants unsigned words; map signed 64-bit values
            # through two's complement so negative seeds/indices stay valid.
            mask = (1 << 64) - 1
            index = int(self.stream_index) & mask
            self._seq = np.random.SeedSequence(
                entropy=int(self.seed) & mask,
                spawn_key=(index & 0xFFFFFFFF, index >> 32),
            )
        return self._seq

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(BIT_GENERATOR(self.seq))
        return self._gen

    def spawn(self, n: int) -> list["RngStream"]:
        """n child streams, fresh on every call (SeedSequence.spawn)."""
        return [RngStream(self.seed, self.stream_index, _seq=c)
                for c in self.seq.spawn(n)]

    def uniform_open(self, size) -> np.ndarray:
        """Uniforms on (0, 1]: never 0, so inverse-CDF maps stay finite."""
        u = self.gen.random(size)
        return np.subtract(1.0, u, out=u)


# A replica block holds about this many doubles.
_BLOCK_ELEMENTS = 1 << 20
_POOL = None


def _pool():
    """One thread per usable CPU, built on first use."""
    global _POOL
    if _POOL is None:
        from concurrent.futures import ThreadPoolExecutor

        affinity = getattr(os, "sched_getaffinity", None)
        workers = len(affinity(0)) if affinity else os.cpu_count() or 1
        _POOL = ThreadPoolExecutor(workers)
    return _POOL


def ordered_map(fn, *args):
    """fn over zipped sequences on the pool, results in order; a single
    call runs here. numpy's errstate does not reach the pool's threads."""
    if len(args[0]) == 1:
        return [fn(*[a[0] for a in args])]
    return _pool().map(fn, *args)


def pareto_row_sums(alpha: float, N: int, replicas: int, rng: RngStream):
    """Row sums of replicas x N Pareto(alpha) draws; inf where one overflows."""
    def block(rows, child):
        with np.errstate(over="ignore"):
            return pareto_sample(alpha, child, (rows, N)).sum(axis=1)

    return np.concatenate(list(replica_blocks(replicas, N, rng, block)))


def replica_blocks(replicas: int, N: int, rng: RngStream, fn):
    """fn(rows, child) per block of about 2^20 doubles, in block order.
    Block k draws from the k-th child rng.spawn gives, whatever thread
    runs it."""
    chunk = max(1, _BLOCK_ELEMENTS // max(N, 1))
    rows = [min(chunk, replicas - s) for s in range(0, replicas, chunk)]
    return ordered_map(fn, rows, rng.spawn(len(rows)))


def pareto_sample(alpha: float, rng: RngStream, size) -> np.ndarray:
    """Pareto(alpha) variates on [1, inf) with tail P(X > x) = x^-alpha.

    Inverse CDF: X = U^(-1/alpha) with U uniform on (0, 1].
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"pareto_sample requires finite alpha > 0, got {alpha}")
    u = rng.uniform_open(size)
    u **= -1.0 / alpha
    return u


def poisson_arrivals(rows: int, count: int, rng: RngStream) -> np.ndarray:
    """Arrival times of independent unit-rate Poisson processes, one a row.

    Row r holds the first `count` arrivals of process r, strictly
    increasing; entry n is Erlang gamma(n).
    """
    if count < 1:
        raise ValueError("poisson_arrivals requires count >= 1")
    tau = rng.gen.standard_exponential((rows, count))
    return np.cumsum(tau, axis=-1, out=tau)


def frechet_sample(alpha: float, rng: RngStream, size=None):
    """Frechet variates with CDF exp(-x^-alpha), built as tau^(-1/alpha)."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"frechet_sample requires finite alpha > 0, got {alpha}")
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
    if not 0 < alpha < math.inf:
        raise ValueError(f"gclt_constants requires finite alpha > 0, got {alpha}")
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
    sums = pareto_row_sums(alpha, N, replicas, rng)
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
