"""Reference values computed apart from paretocoal.

Nothing here imports the package under test. Closed forms use integer
arithmetic, scipy special functions or plain float recursions; the
Laplace-transform integrals use mpmath quadrature. The benchmark imports
this module only after the timed rounds and the peak-memory reading, so
scipy and mpmath never count towards either.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.special import betaln, digamma, gammaln


def _quad_over_scales(f, N: int) -> float:
    """int_0^inf f(t) dt for a Laplace integrand whose phi(t)^N factor
    falls off at t ~ 1/N: split there so tanh-sinh sees smooth pieces."""
    with mp.workdps(20):
        s = mp.mpf(1) / N
        return float(mp.quad(f, [0, s / 100, s / 10, s, 10 * s, 100 * s, 1, 10, mp.inf]))


# ---------------------------------------------------------------------------
# Normalized partitions


def bose_einstein(N: int, i: int, j: int) -> float:
    """P(i uniforms hit j segments) for normalized gamma(1) segments.

    The Dirichlet(1, ..., 1) vector is uniform on the simplex, so the i
    throws fall as in Bose-Einstein occupancy:
    C(N, j) C(i-1, j-1) / C(N+i-1, i).
    """
    num = math.comb(N, j) * math.comb(i - 1, j - 1)
    return float(Fraction(num, math.comb(N + i - 1, i)))


def bose_einstein_matrix(N: int, n_max: int) -> np.ndarray:
    """P[i, j] = bose_einstein(N, i, j) for 1 <= j <= i <= n_max."""
    P = np.zeros((n_max + 1, n_max + 1))
    for i in range(1, n_max + 1):
        for j in range(1, i + 1):
            P[i, j] = bose_einstein(N, i, j)
    return P


def pareto_p_i1(alpha: float, N: int, i: int) -> float:
    """P(i uniforms all hit one segment) for N normalized Pareto(alpha).

    N E[S_1^i] = N / Gamma(i) * int_0^inf t^(i-1) phi_i(t) phi(t)^(N-1) dt
    with phi(t) = alpha t^alpha Gamma(-alpha, t), the Laplace transform of
    the Pareto law, and phi_i(t) = alpha t^(alpha-i) Gamma(i-alpha, t), the
    transform of X^i. i = 2 gives c_N.
    """
    a = mp.mpf(alpha)

    def integrand(t):
        phi = a * t**a * mp.gammainc(-a, t)
        phi_i = a * t ** (a - i) * mp.gammainc(i - a, t)
        return t ** (i - 1) * phi_i * phi ** (N - 1)

    return N / math.gamma(i) * _quad_over_scales(integrand, N)


def wls_line(x, y, w) -> tuple[float, float]:
    """(slope, intercept) of a weighted least-squares line, via lstsq."""
    sw = np.sqrt(np.asarray(w, dtype=float))
    A = np.column_stack([np.ones_like(x), x]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(A, np.asarray(y) * sw, rcond=None)
    return float(coef[1]), float(coef[0])


# ---------------------------------------------------------------------------
# Beta(2 - alpha, alpha - beta) coalescent


def lambda_row(alpha: float, beta: float, i: int) -> np.ndarray:
    """Rates of i -> j for j = 1..i-1, from scipy's log-gamma and log-beta.

    lambda_(i,j) = C(i, j-1) B(i-j+1-alpha, alpha-beta+j-1)
    / B(2-alpha, alpha-beta).
    """
    j = np.arange(1, i, dtype=float)
    log_binom = gammaln(i + 1.0) - gammaln(j) - gammaln(i - j + 2.0)
    log_r = (
        log_binom
        + betaln(i - j + 1 - alpha, alpha - beta + j - 1)
        - betaln(2 - alpha, alpha - beta)
    )
    return np.exp(log_r)


def block_loss(alpha: float, beta: float, i: int) -> float:
    """r(i) = sum_j (i - j) lambda_(i,j)."""
    row = lambda_row(alpha, beta, i)
    return math.fsum((i - np.arange(1, i)) * row)


def first_step_functionals(alpha: float, beta: float, n0: int) -> dict:
    """Mean height, total length and collisions from n0 blocks.

    First-step analysis on the block-counting chain: leaving i at total
    rate lambda_i towards j with probability lambda_(i,j) / lambda_i,
    E[H_i] = 1/lambda_i + sum_j p_ij E[H_j], E[L_i] = i/lambda_i + ...,
    E[C_i] = 1 + ..., all zero at i = 1.
    """
    H = np.zeros(n0 + 1)
    L = np.zeros(n0 + 1)
    C = np.zeros(n0 + 1)
    for i in range(2, n0 + 1):
        row = lambda_row(alpha, beta, i)
        lam = math.fsum(row)
        p = row / lam
        H[i] = 1.0 / lam + float(p @ H[1:i])
        L[i] = i / lam + float(p @ L[1:i])
        C[i] = 1.0 + float(p @ C[1:i])
    return {"height": H[n0], "total_length": L[n0], "collisions": C[n0]}


# ---------------------------------------------------------------------------
# Discrete chains


def pd_block_counts(alpha: float, theta: float, n_max: int) -> np.ndarray:
    """P[n, k]: law of the block count of a Poisson-Dirichlet(alpha, theta)
    partition of n, by Pitman's sequential recursion

    P(n+1, k) = [P(n, k-1)(theta + (k-1) alpha) + P(n, k)(n - k alpha)]
    / (theta + n).
    """
    P = np.zeros((n_max + 1, n_max + 2))
    P[1, 1] = 1.0
    for n in range(1, n_max):
        k = np.arange(1, n + 2)
        P[n + 1, 1 : n + 2] = (
            P[n, 0 : n + 1] * (theta + (k - 1) * alpha)
            + P[n, 1 : n + 2] * (n - k * alpha)
        ) / (theta + n)
    return P[:, : n_max + 1]


def absorption_steps(P: np.ndarray, n0: int) -> float:
    """Mean steps to reach one block from n0 under the transition matrix P.

    E[T_i] = (1 + sum_{j<i} P[i, j] E[T_j]) / (1 - P[i, i]), E[T_1] = 0.
    """
    T = np.zeros(n0 + 1)
    for i in range(2, n0 + 1):
        T[i] = (1.0 + float(P[i, 1:i] @ T[1:i])) / (1.0 - P[i, i])
    return float(T[n0])


# ---------------------------------------------------------------------------
# Forward selection model


def forward_drift(alpha: float, N: int, psi_shift: int = 1) -> float:
    """Mean per-generation log increment of the global fitness.

    (-psi(N + 1) + E[ln sum_{n<=N} Y_n]) / alpha with Y unit Pareto, and
    E[ln S] = int_0^inf (e^-t - phi_1(t)^N) / t dt (Frullani) with
    phi_1(t) = e^-t - t E_1(t), the Laplace transform of Y. psi_shift = 0
    gives the known-wrong -psi(N) variant the self-test feeds the check.
    """

    def integrand(t):
        phi1 = mp.exp(-t) - t * mp.e1(t)
        return (mp.exp(-t) - phi1**N) / t

    growth = _quad_over_scales(integrand, N)
    return (-float(digamma(N + psi_shift)) + growth) / alpha
