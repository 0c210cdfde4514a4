"""Scaling-exponent regression for the coalescence probability.

Estimates c_N on a geometric N grid, then fits log c_N against the
regime's predictor by weighted least squares with inverse-variance weights
(points at different N have very different Monte Carlo noise).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .finite_mc import PartitionModel, estimate_c_N_conditional
from .rates import Params
from .samplers import RngStream


@dataclass(frozen=True)
class ScalingPoint:
    N: int
    c_hat: float
    stderr: float


@dataclass(frozen=True)
class ScalingFit:
    regime: str
    predictor: str
    slope: float
    slope_se: float
    intercept: float
    prefactor: float
    r_squared: float
    noisy: bool
    points: tuple[ScalingPoint, ...]
    diagnostics: dict[str, float]


def _wls(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    A = np.column_stack([np.ones_like(x), x])
    AtW = A.T * w
    cov = np.linalg.inv(AtW @ A)
    coef = cov @ (AtW @ y)
    resid = y - A @ coef
    ybar = (w * y).sum() / w.sum()
    ss_res = float((w * resid**2).sum())
    ss_tot = float((w * (y - ybar) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return coef, cov, r2


def _predictor(regime: str, N: np.ndarray):
    logN = np.log(N)
    if regime == "critical":
        # c ~ log N / (2N): slope -1 against log N - log log N.
        return logN - np.log(logN), "log N - log log N"
    if regime == "bs":
        # c ~ 1/log N: slope -1 against log log N.
        return np.log(logN), "log log N"
    # xi (flat), beta (slope -(alpha-1)) and kingman (slope -1): log N.
    return logN, "log N"


def fit_c_N_scaling(
    alpha: float,
    beta: float,
    N_grid: list[int],
    replicas: int,
    rng: RngStream,
) -> ScalingFit:
    """Monte Carlo c_N over the grid plus a weighted log-log fit.

    The per-point estimator is the conditional collision probability,
    which shares the expectation of the occupancy estimator with far less
    variance at small c_N.
    """
    if len(N_grid) < 4:
        raise ValueError(
            f"N grid needs at least 4 values, got {list(N_grid)}"
        )
    if min(N_grid) < 2:
        # c_N = 1 exactly at N = 1: a zero stderr, an infinite fit weight.
        raise ValueError(f"N grid values must be >= 2, got {list(N_grid)}")
    if any(a >= b for a, b in zip(N_grid, N_grid[1:])):
        raise ValueError(
            f"N grid must be strictly increasing, got {list(N_grid)}"
        )
    params = Params(alpha, beta)
    points, degenerate = [], []
    for N, child in zip(N_grid, rng.spawn(len(N_grid))):
        model = PartitionModel.pareto(alpha, N, beta)
        est = estimate_c_N_conditional(model, replicas, child)
        points.append(ScalingPoint(N=N, c_hat=est.value, stderr=est.stderr))
        if est.degenerate:
            degenerate.append(N)
    if degenerate:
        # A stderr from ESS ~ 1 is noise, and its 1/se^2 weight breaks the fit.
        raise ValueError(
            f"degenerate weights (ESS under 1% of {replicas} replicas) at "
            f"alpha={alpha}, beta={beta}, N={degenerate}; no scaling fit"
        )
    Ns = np.array([p.N for p in points], dtype=float)
    c = np.array([p.c_hat for p in points])
    se_log = np.array([p.stderr / p.c_hat for p in points])
    x, predictor = _predictor(params.regime, Ns)
    coef, cov, r2 = _wls(x, np.log(c), 1.0 / se_log**2)
    slope, intercept = float(coef[1]), float(coef[0])
    slope_se = float(math.sqrt(cov[1, 1]))
    top = points[-1]
    logN_top = math.log(top.N)
    diagnostics = {
        "c_times_logN_at_max_N": top.c_hat * logN_top,
        "c_times_N_over_logN_at_max_N": top.c_hat * top.N / logN_top,
        "c_at_max_N": top.c_hat,
    }
    return ScalingFit(
        regime=params.regime,
        predictor=predictor,
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        prefactor=math.exp(intercept),
        r_squared=r2,
        noisy=2 * 1.96 * slope_se > abs(slope),
        points=tuple(points),
        diagnostics=diagnostics,
    )
