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
    column is produced. Weights are taken relative to the largest log-weight
    seen so far, so every stored weight is at most 1 and no sum overflows;
    a batch that raises the maximum rescales the stored sums.

    Rows are taken in the order added, across adds, and the stderr comes
    from successive steps, Var(sum z) ~ n/(n-1) sum (z_k - z_(k+1))^2 / 2,
    z = w (v - R) (Wolter, Introduction to Variance Estimation, ch. 8). For
    i.i.d. rows it is unbiased, since E(z_k - z_(k+1))^2 / 2 = Var z; for
    rows drawn one a stratum in stratum order the spread between strata
    stays out, and the mean step between neighbours makes it err high.
    Each batch is reduced to its ratio R and the centered sums over its
    steps (a, b) of (w v, w), t = a - R b: sum b t and sum t^2. Batches
    merge by moving both to the pooled ratio (Chan, Golub and LeVeque
    1979), so the variance never comes from cancelling raw moments.
    """

    def __init__(self, columns: int = 1):
        self.n = 0
        self._shift = -math.inf
        self._sw = 0.0
        self._sw2 = 0.0
        self._sb2 = 0.0  # sum b^2 over stderr terms (a, b), t = a - ratio b
        self._ratio = np.zeros(columns)
        self._c1 = np.zeros(columns)  # sum b t
        self._c2 = np.zeros(columns)  # sum t^2
        self._last = None  # log-weight and v of the last row added

    def add(self, log_w: np.ndarray, v: np.ndarray) -> None:
        log_w = np.asarray(log_w, dtype=float)
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        self.n += log_w.shape[0]
        if log_w.size == 0:
            return
        top = float(log_w.max())
        if top > self._shift:
            f = math.exp(self._shift - top)
            self._sw *= f
            self._sw2 *= f * f
            self._sb2 *= f * f
            self._c1 *= f * f
            self._c2 *= f * f
            self._shift = top
        w = np.exp(log_w - self._shift)
        sw, sw2 = float(w.sum()), float((w * w).sum())
        # rows that underflow next to the maximum step too
        ratio = (w @ v) / sw if sw > 0.0 else self._ratio
        wv = w[:, None] * v
        if self._last is not None:
            w0 = math.exp(self._last[0] - self._shift)
            w, wv = np.r_[w0, w], np.vstack([w0 * self._last[1], wv])
        self._last = (log_w[-1], v[-1])
        b = np.diff(w)
        t = np.diff(wv, axis=0) - ratio * b[:, None]
        sb2, c1, c2 = float(b @ b), b @ t, (t * t).sum(axis=0)
        total = self._sw + sw
        pooled = self._ratio + (ratio - self._ratio) * (sw / total)
        da, db = self._ratio - pooled, ratio - pooled
        self._c2 += 2.0 * da * self._c1 + da * da * self._sb2
        self._c2 += c2 + 2.0 * db * c1 + db * db * sb2
        self._c1 += da * self._sb2 + c1 + db * sb2
        self._ratio = pooled
        self._sw, self._sw2, self._sb2 = total, self._sw2 + sw2, self._sb2 + sb2

    def estimates(self) -> list[WeightedEstimate]:
        if self.n < 2:
            raise ValueError(f"a stderr needs 2 replicas or more, got {self.n}")
        c2 = self._c2 * (self.n / (2 * (self.n - 1)))
        stderr = np.sqrt(np.maximum(c2, 0.0)) / self._sw
        ess = self._sw * self._sw / self._sw2 if self._sw2 > 0 else 0.0
        return [
            WeightedEstimate(float(r), float(s), self.n, float(ess))
            for r, s in zip(self._ratio, stderr)
        ]

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
    if n < 2:
        raise ValueError(f"replicas >= 2 required for a standard error, got {n}")
    se = float(values.std(ddof=1) / math.sqrt(n))
    return WeightedEstimate(float(values.mean()), se, n, float(n))
