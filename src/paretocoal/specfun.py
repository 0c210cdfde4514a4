"""Scalar special functions: log-gamma, digamma, log-beta, log-binomial.

Log-gamma is the C library's lgamma; log-beta and log-binomial are built
on it. Digamma is an asymptotic series after upward recurrence.
"""

from __future__ import annotations

import math

EULER_GAMMA = 0.5772156649015328606


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for finite x > 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("log_gamma requires x > 0")
    return math.lgamma(x)


# Asymptotic series psi(x) ~ ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}),
# applied after shifting the argument above 8.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)


def digamma(x: float) -> float:
    """Digamma function psi(x) = Gamma'(x)/Gamma(x) for finite x > 0."""
    if not 0.0 < x < math.inf:
        raise ValueError("digamma requires x > 0")
    acc, x = 0.0, float(x)
    while x < 8.0:  # psi(x) = psi(x+1) - 1/x
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail, p = 0.0, inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x + tail


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log Gamma(a) + log Gamma(b) - log Gamma(a+b), a, b > 0."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def log_binomial(n: float, k: float) -> float:
    """log of the binomial coefficient C(n, k) for real n >= k >= 0."""
    if k < 0 or n - k < 0:
        raise ValueError("log_binomial requires 0 <= k <= n")
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)
