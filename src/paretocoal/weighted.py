"""Self-normalized importance-sampling ratio estimates.

Estimates of the form E(w * v) / E(w) with weights w given in log space.
The accumulator keeps streaming sums so replicas can arrive in chunks; the
combination is associative, which keeps results independent of chunk
scheduling for a fixed replica order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WeightedEstimate:
    """A ratio estimate with delta-method standard error.

    ess is the effective sample size (sum w)^2 / sum w^2; values far below
    the replica count, or a NaN, flag weight degeneracy.
    """

    value: float
    stderr: float
    replicas: int
    ess: float

    @property
    def degenerate(self) -> bool:
        return not self.ess >= 0.01 * self.replicas


class RatioAccumulator:
    """Streaming sums for one or more ratio estimates sharing weights.

    v may be a vector per replica (shape (batch, k)); one estimate per
    column is produced. Weights are shifted by the median log-weight of the
    first batch before exponentiation, which cancels in every reported
    quantity but keeps the running sums in floating range.
    """

    def __init__(self, columns: int = 1):
        self.columns = columns
        self.n = 0
        self._shift = None
        self._sw = 0.0
        self._sw2 = 0.0
        self._swv = np.zeros(columns)
        self._swv2 = np.zeros(columns)
        self._sw2v = np.zeros(columns)

    def add(self, log_w: np.ndarray, v: np.ndarray) -> None:
        log_w = np.asarray(log_w, dtype=float)
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if self._shift is None:
            self._shift = float(np.median(log_w))
        w = np.exp(log_w - self._shift)
        wv = w[:, None] * v
        self.n += log_w.shape[0]
        self._sw += float(w.sum())
        self._sw2 += float((w * w).sum())
        self._swv += wv.sum(axis=0)
        self._swv2 += (wv * wv).sum(axis=0)
        self._sw2v += (wv * w[:, None]).sum(axis=0)

    def estimates(self) -> list[WeightedEstimate]:
        if self.n == 0:
            raise ValueError("no replicas accumulated")
        n = self.n
        m0 = self._sw / n
        m1 = self._swv / n
        ratio = m1 / m0
        var_wv = self._swv2 / n - m1 * m1
        var_w = self._sw2 / n - m0 * m0
        cov = self._sw2v / n - m1 * m0
        var_ratio = (var_wv - 2.0 * ratio * cov + ratio * ratio * var_w) / (
            n * m0 * m0
        )
        stderr = np.sqrt(np.maximum(var_ratio, 0.0))
        ess = self._sw * self._sw / self._sw2 if self._sw2 > 0 else 0.0
        out = [
            WeightedEstimate(float(r), float(s), n, float(ess))
            for r, s in zip(ratio, stderr)
        ]
        return out

    def estimate(self) -> WeightedEstimate:
        est = self.estimates()
        if len(est) != 1:
            raise ValueError("estimate() needs a single-column accumulator")
        return est[0]


def warn_if_degenerate(est: WeightedEstimate, context: str) -> None:
    if est.degenerate:
        warnings.warn(
            f"{context}: effective sample size {est.ess:.1f} below 1% of "
            f"{est.replicas} replicas; importance weights are degenerate",
            RuntimeWarning,
            stacklevel=2,
        )


def mean_estimate(values: np.ndarray) -> WeightedEstimate:
    """Plain sample-mean wrapper so unweighted estimators share the type."""
    values = np.asarray(values, dtype=float)
    n = values.size
    se = float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return WeightedEstimate(float(values.mean()), se, n, float(n))
