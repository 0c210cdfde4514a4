"""Closed-form limit objects: merger rates, transition matrices, c_N laws.

Covers the continuous-time multiple-merger rates lambda_(i,j) for the
beta(2-alpha, alpha-beta) family (including the alpha = 1 logarithmic case
and, for alpha >= 2, Kingman's binary mergers: the point mass at 0, the
alpha = 2 end of the same recursion), the discrete-time simultaneous-merger
transition matrix for alpha in [0, 1) (the Poisson-Dirichlet(alpha, -beta)
block-count law, built by one recursion that also covers the alpha = 0
Stirling-number case), and the leading-order coalescence probability in
every regime.

Lambda rates come from ratio recursions of the measure's moments, the Xi
matrix from Pitman's recursion, so no rate is assembled from gamma
functions; tables are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# bench/tracing.py wraps rates.log_gamma, log_beta and log_binomial by
# name, so all three imports stay.
from .specfun import log_beta, log_binomial, log_gamma  # noqa: F401


@dataclass(frozen=True)
class Params:
    """Tail exponent alpha >= 0 and size-bias exponent beta.

    beta < alpha is required below alpha = 2 (the rate normalizer involves
    Gamma(alpha - beta)); above 2 the limit no longer depends on beta.
    """

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"finite alpha >= 0 required, got {self.alpha}")
        if not abs(self.beta) < math.inf:
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.alpha < 2.0 and not self.beta < self.alpha:
            raise ValueError("beta < alpha required for alpha < 2")

    @property
    def regime(self) -> str:
        a = self.alpha
        if a < 1.0:
            return "xi"
        if a == 1.0:
            return "bs"
        if a < 2.0:
            return "beta"
        if a == 2.0:
            return "critical"
        return "kingman"


def beta_shape(params: Params) -> tuple[float, float]:
    """(a, b) of the beta(2-a, a-b) measure whose recursion gives the rates.

    alpha >= 2 is Kingman's coalescent, the point mass at 0 that ends the
    family at a = 2. There (2, 0) makes every ratio below exact (at
    (2, beta) a term ratio can be 0/0), so binary rates are C(i, 2).
    """
    if params.regime == "xi":
        raise ValueError("no continuous-time rates in the xi regime")
    if params.alpha >= 2.0:
        return 2.0, 0.0
    return params.alpha, params.beta


def _beta_moments(params: Params, m_max: int) -> np.ndarray:
    """I_m = E(1-X)^m, m = 0..m_max, for X ~ beta(2-a, a-b).

    Ratio recursion I_m / I_(m-1) = (a-b+m-1)/(1-b+m), I_0 = 1, with
    (a, b) = beta_shape(params); I_m = 1 for Kingman. Every total,
    block-loss and single-merger rate of the measure is a partial sum of
    these: lambda_(i+1) = lambda_i + i I_(i-1), r(i+1) = r(i) +
    sum_(m<i) I_m, lambda_2 = r(2) = 1, and the binary rate is
    C(i, 2) I_(i-2).
    """
    a, b = beta_shape(params)
    m = np.arange(1, m_max + 1, dtype=float)
    ratios = (a - b + m - 1.0) / (1.0 - b + m)
    return np.concatenate(([1.0], np.cumprod(ratios)))


def lambda_rate(params: Params, i: int, j: int) -> float:
    """Rate of an i-to-j merger for the beta(2-alpha, alpha-beta) measure.

    lambda_(i,j) = C(i, j-1) B(i-j+1-alpha, alpha-beta+j-1) / B(2-alpha, alpha-beta),
    read off rate_row; for alpha >= 2 these are Kingman's rates.
    """
    if i < 2 or not 1 <= j < i:
        raise ValueError("need i >= 2 and 1 <= j < i")
    return float(rate_row(params, i)[j - 1])


def rate_row(params: Params, i: int) -> np.ndarray:
    """All rates lambda_(i, 1..i-1) from the ratio recursion.

    The binary rate is lambda_(i,2) = C(i, 2) I_(i-2) (see _beta_moments);
    the term ratio lambda_(i,k+1)/lambda_(i,k) =
    (i-k)(k-a) / ((k+1)(i-k-1+a-b)) carries it up to k = i merging
    blocks, with (a, b) = beta_shape(params); at (2, 0) it is 0 from
    k = 2 on. Entry j-1 holds the i-to-j merger, k = i-j+1.
    """
    if i < 2:
        raise ValueError("i >= 2 required")
    a, b = beta_shape(params)
    k = np.arange(2, i, dtype=float)
    ratios = (i - k) * (k - a) / ((k + 1.0) * (i - k - 1.0 + a - b))
    first = i * (i - 1) / 2.0 * _beta_moments(params, i - 2)[-1]
    terms = first * np.concatenate(([1.0], np.cumprod(ratios)))
    return terms[::-1].copy()  # a row of its own, not a reversed view


def jump_rates(params: Params, n0: int) -> tuple[memoryview, memoryview]:
    """Total rates lambda_i and binary-merger rates lambda_(i,2), i <= n0.

    Index i holds block count i (entries 0 and 1 are unused); both are
    partial sums of _beta_moments, so no rate row is built. Memoryviews
    index to plain floats without a per-entry object.
    """
    if n0 < 2:
        raise ValueError(f"block count >= 2 required, got {n0}")
    i = np.arange(n0 + 1, dtype=float)
    moments = _beta_moments(params, n0 - 2)
    total = np.ones(n0 + 1)
    total[3:] += np.cumsum(i[2:-1] * moments[1:])
    binary = np.zeros(n0 + 1)
    binary[2:] = i[2:] * (i[2:] - 1.0) / 2.0 * moments
    return memoryview(total), memoryview(binary)


def _loss_rates(params: Params, i_max: int) -> np.ndarray:
    """r(i), i = 2..i_max: r(2) = 1, r(i+1) = r(i) + sum_(m<i) I_m."""
    if i_max < 2:
        raise ValueError(f"block count >= 2 required, got {i_max}")
    steps = np.cumsum(_beta_moments(params, i_max - 2))[1:]
    return np.concatenate(([1.0], 1.0 + np.cumsum(steps)))


def total_rate(params: Params, i: int) -> float:
    """lambda_i, the total rate of leaving state i."""
    return jump_rates(params, i)[0][i]


def block_loss_rate(params: Params, i: int) -> float:
    """r(i) = sum_j (i - j) lambda_(i,j), the mean block-loss speed."""
    return float(_loss_rates(params, i)[-1])


def mean_first_collision_size(params: Params, i: int) -> float:
    """Expected number of blocks taking part in the first collision.

    Uses the identity r(i) = lambda_i (E(U_i) - 1).
    """
    return 1.0 + block_loss_rate(params, i) / total_rate(params, i)


def comes_down_diagnostic(params: Params, M: int) -> np.ndarray:
    """Partial sums of 1/r(i) for i = 2..M.

    Bounded partial sums signal that the process started from infinitely
    many blocks reaches a finite count immediately; unbounded growth (as in
    the alpha = 1 case) signals it does not.
    """
    return np.cumsum(1.0 / _loss_rates(params, M))


@dataclass(frozen=True)
class RateTable:
    """Triangular table of rates (j < i) or transition probabilities (j <= i).

    rows[i] holds the entries for block count i; probability rows are
    validated to sum to one at construction.
    """

    i_max: int
    kind: str
    _rows: dict[int, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("rates", "probabilities"):
            raise ValueError("kind must be 'rates' or 'probabilities'")
        for row in self._rows.values():
            row.flags.writeable = False
        if self.kind == "probabilities":
            for i, row in self._rows.items():
                if i >= 2 and abs(row.sum() - 1.0) > 1e-10:
                    raise ValueError(f"row {i} sums to {row.sum()!r}, not 1")

    def row(self, i: int) -> np.ndarray:
        if i not in self._rows:
            raise ValueError(f"block count {i} outside table (i_max={self.i_max})")
        return self._rows[i]

    def entry(self, i: int, j: int) -> float:
        row = self.row(i)
        if not 1 <= j <= len(row):
            raise ValueError(f"no entry ({i}, {j}) in a {self.kind} table")
        return float(row[j - 1])

    def to_csv(self) -> str:
        lines = ["i,j,value"]
        for i in sorted(self._rows):
            for j, v in enumerate(self.row(i), start=1):
                lines.append(f"{i},{j},{float(v):.12g}")
        return "\n".join(lines) + "\n"


I_MAX_CAP = 2000  # a table holds i_max^2 / 2 doubles


def build_rate_table(params: Params, i_max: int) -> RateTable:
    """Materialized continuous-time rate table for i = 2..i_max."""
    if not 2 <= i_max <= I_MAX_CAP:
        raise ValueError(f"i_max must be in 2..{I_MAX_CAP}, got {i_max}")
    rows = {i: rate_row(params, i) for i in range(2, i_max + 1)}
    return RateTable(i_max=i_max, kind="rates", _rows=rows)


# ---------------------------------------------------------------------------
# Discrete-time simultaneous-merger matrix, alpha in [0, 1)


def _pd_block_counts(alpha: float, theta: float, i_max: int) -> RateTable:
    """Block-count law of a Poisson-Dirichlet(alpha, theta) partition of i.

    Row i holds P(i, k), k = 1..i, from Pitman's sequential recursion
    P(n+1, k) = [P(n, k-1)(theta + (k-1)alpha) + P(n, k)(n - k alpha)]
    / (theta + n), P(1, 1) = 1. With theta > -alpha every term is
    nonnegative, so nothing cancels.
    """
    if not 1 <= i_max <= I_MAX_CAP:
        raise ValueError(f"i_max must be in 1..{I_MAX_CAP}, got {i_max}")
    rows = {1: np.array([1.0])}
    for n in range(1, i_max):
        prev = rows[n]
        k = np.arange(1, n + 1)
        row = np.zeros(n + 1)
        row[:-1] = prev * (n - k * alpha)
        row[1:] += prev * (theta + k * alpha)
        rows[n + 1] = row / (theta + n)
    return RateTable(i_max=i_max, kind="probabilities", _rows=rows)


def xi_transition_matrix(params: Params, i_max: int) -> RateTable:
    """Exact transition matrix of the discrete simultaneous-merger chain.

    P_(i,j) is the law of the number of blocks of a Poisson-Dirichlet
    (alpha, -beta) partition of i points; alpha = 0 is the Ewens case.
    """
    if params.regime != "xi":
        raise ValueError("the xi transition matrix requires 0 <= alpha < 1")
    return _pd_block_counts(params.alpha, -params.beta, i_max)


def stirling_case_matrix(beta: float, i_max: int) -> RateTable:
    """Transition matrix at the alpha = 0 boundary, beta < 0.

    P_(i,j) = (-beta)^j Gamma(-beta) / Gamma(i - beta) * s_(i,j) with
    unsigned first-kind Stirling numbers s.
    """
    if beta >= 0:
        raise ValueError("the alpha = 0 case requires beta < 0")
    return _pd_block_counts(0.0, -beta, i_max)


# ---------------------------------------------------------------------------
# Leading-order coalescence probability per regime


def c_N_asymptotic(params: Params, N: int) -> tuple[float, str]:
    """Leading-order c_N and the regime tag it was computed under.

    xi:       (1-alpha)/(1-beta), an N-free constant;
    bs:       1/log N;
    beta:     alpha mu^-alpha B(2-alpha, alpha-beta) N^-(alpha-1);
    critical: log N / (2N);
    kingman:  (rho/mu^2)/N with mu = alpha/(alpha-1), rho = alpha/(alpha-2).
    """
    if N < 3:
        raise ValueError("N >= 3 required")
    a, b = params.alpha, params.beta
    regime = params.regime
    if regime == "xi":
        return (1.0 - a) / (1.0 - b), regime
    if regime == "bs":
        return 1.0 / math.log(N), regime
    if regime == "beta":
        mu = a / (a - 1.0)
        val = a * mu ** (-a) * math.exp(log_beta(2 - a, a - b)) * N ** (-(a - 1.0))
        return val, regime
    if regime == "critical":
        return 0.5 * math.log(N) / N, regime
    mu = a / (a - 1.0)
    rho = a / (a - 2.0)
    return (rho / (mu * mu)) / N, regime
