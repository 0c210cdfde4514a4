"""Scalar special functions: log-gamma, digamma, log-beta, log-binomial.

Log-gamma is the C library's lgamma; log-beta and log-binomial are built
on it and take scalars. Digamma (an asymptotic series after upward
recurrence) also accepts numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


# Asymptotic series psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}),
# applied after shifting the argument above 8.
_DIGAMMA_TAIL = np.array(
    [
        -1.0 / 12.0,
        1.0 / 120.0,
        -1.0 / 252.0,
        1.0 / 240.0,
        -1.0 / 132.0,
        691.0 / 32760.0,
        -1.0 / 12.0,
    ]
)


def digamma(x):
    """Digamma function psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    arr = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("digamma requires x > 0")
    y = arr.copy() if arr.ndim else np.array([float(arr)])
    acc = np.zeros_like(y)
    # Recurrence psi(y) = psi(y+1) - 1/y until y >= 8.
    for _ in range(9):
        mask = y < 8.0
        if not mask.any():
            break
        acc[mask] -= 1.0 / y[mask]
        y[mask] += 1.0
    inv2 = 1.0 / (y * y)
    tail = np.zeros_like(y)
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p = p * inv2
    res = acc + np.log(y) - 0.5 / y + tail
    if np.isscalar(x) or arr.ndim == 0:
        return float(res[0])
    return res.reshape(arr.shape)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_binomial(n: float, k: float) -> float:
    """log of the binomial coefficient C(n, k) for real n >= k >= 0."""
    if k < 0 or n - k < 0:
        raise ValueError("log_binomial requires 0 <= k <= n")
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)
