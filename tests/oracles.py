"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the package's own special-function and
rate code: gamma/beta values come from scipy, integrals from QUADPACK's
algebraic-weight adaptive rule (quad with weight="alg"), which handles the
endpoint singularities of beta densities natively. Integrands are written
with expm1/log1p or explicit polynomial forms so they stay accurate where
naive evaluation cancels. Transition-matrix entries of the discrete
chain come from sums over compositions and, at alpha = 0, from exact
integer Stirling numbers.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, special


def _beta_weight_integral(g, p: float, q: float) -> float:
    """integral over (0,1) of u^p (1-u)^q g(u), p, q > -1."""
    val, _ = integrate.quad(
        g, 0.0, 1.0, weight="alg", wvar=(p, q), epsabs=1e-12, epsrel=1e-12,
        limit=200,
    )
    return val


def _density_norm(alpha: float, beta: float) -> float:
    return math.exp(special.betaln(2.0 - alpha, alpha - beta))


def lambda_rate_quad(alpha: float, beta: float, i: int, j: int) -> float:
    """C(i, j-1) * int u^(i-j-1) (1-u)^(j-1) dLambda(u) by quadrature."""
    p = (i - j - 1) + (1.0 - alpha)
    q = (j - 1) + (alpha - beta - 1.0)
    val = _beta_weight_integral(lambda u: 1.0, p, q)
    return math.comb(i, j - 1) * val / _density_norm(alpha, beta)


def _one_minus_wi_over_u2(i: int, u: float) -> float:
    """(1 - (1-u)^i - i u (1-u)^(i-1)) / u^2, stable near u = 0."""
    if u < 0.1:
        # i(i-1) * sum_k (-1)^k C(i-2, k) u^k / (k+2), exact polynomial
        acc = 0.0
        for k in range(i - 1):
            acc += (-1.0) ** k * math.comb(i - 2, k) * u**k / (k + 2.0)
        return i * (i - 1) * acc
    w = 1.0 - u
    return (1.0 - w**i - i * u * w ** (i - 1)) / (u * u)


def total_rate_quad(alpha: float, beta: float, i: int) -> float:
    """int u^-2 (1 - (1-u)^i - i u (1-u)^(i-1)) dLambda(u)."""
    p = 1.0 - alpha
    q = alpha - beta - 1.0
    val = _beta_weight_integral(lambda u: _one_minus_wi_over_u2(i, u), p, q)
    return val / _density_norm(alpha, beta)


def _loss_kernel(i: int, u: float) -> float:
    """(u i - 1 + (1-u)^i) / u^2, stable near u = 0."""
    if u < 0.1:
        acc = 0.0
        for k in range(2, i + 1):
            acc += (-1.0) ** k * math.comb(i, k) * u ** (k - 2)
        return acc
    if u >= 1.0:
        return float(i - 1)
    return (u * i + math.expm1(i * math.log1p(-u))) / (u * u)


def block_loss_rate_quad(alpha: float, beta: float, i: int) -> float:
    """int (u i - 1 + (1-u)^i) u^-2 dLambda(u)."""
    p = 1.0 - alpha
    q = alpha - beta - 1.0
    val = _beta_weight_integral(lambda u: _loss_kernel(i, u), p, q)
    return val / _density_norm(alpha, beta)


def mean_first_collision_quad(alpha: float, beta: float, i: int) -> float:
    """(i / lambda_i) int (1-u-(1-u)^i) / (u(1-u)) dLambda(u)."""

    def kernel(u: float) -> float:
        # (1-u-(1-u)^i)/(u(1-u)) merged with the density's (1-u) factor:
        # here we integrate (1 - (1-u)^(i-1)) / u against the full density.
        if u < 1e-14:
            return float(i - 1)
        if u >= 1.0:
            return 1.0
        return -math.expm1((i - 1) * math.log1p(-u)) / u

    p = 1.0 - alpha
    q = alpha - beta - 1.0
    val = _beta_weight_integral(kernel, p, q) / _density_norm(alpha, beta)
    return i * val / total_rate_quad(alpha, beta, i)


def xi_merger_prob_alt(alpha: float, beta: float, composition) -> float:
    """Product-of-gammas merger probability in its second factorization.

    phi_j = [prod_l Gamma((l-1)a + 1 - b) / (Gamma(1-a) Gamma(l a - b))]
            * Gamma(a j - b) / Gamma(i - b) * prod_l Gamma(i_l - a),
    evaluated with scipy log-gammas.
    """
    j = len(composition)
    i = sum(composition)
    log_c = 0.0
    for l in range(1, j + 1):
        log_c += (
            special.gammaln((l - 1) * alpha + 1.0 - beta)
            - special.gammaln(1.0 - alpha)
            - special.gammaln(l * alpha - beta)
        )
    log_phi = (
        log_c
        + special.gammaln(alpha * j - beta)
        - special.gammaln(i - beta)
        + sum(special.gammaln(p - alpha) for p in composition)
    )
    return float(np.exp(log_phi))


def _compositions(i: int, j: int):
    """Compositions of i into j positive parts, via j - 1 cut points."""
    for cuts in itertools.combinations(range(1, i), j - 1):
        bounds = (0,) + cuts + (i,)
        yield tuple(bounds[k + 1] - bounds[k] for k in range(j))


def xi_transition_entry_enum(alpha: float, beta: float, i: int, j: int) -> float:
    """P_(i,j) of the Poisson-Dirichlet(alpha, theta = -beta) block count,
    summed over all 2^(i-1) compositions of i (so keep i small).

    P_(i,j) = (i!/j!) prod_(l<j) (theta + l alpha) / prod_(n<i) (theta + n)
              * sum over compositions of prod_l g(i_l),
    with g(m) = Gamma(m - alpha) / (Gamma(1 - alpha) m!). Written with
    rising products so that alpha = 0 (g(m) = 1/m) needs no special case.
    """
    theta = -beta
    g = [0.0, 1.0]
    for m in range(2, i + 1):
        g.append(g[-1] * (m - 1 - alpha) / m)
    total = math.fsum(
        math.prod(g[p] for p in comp) for comp in _compositions(i, j)
    )
    pref = math.prod(theta + l * alpha for l in range(1, j)) / math.prod(
        theta + n for n in range(1, i)
    )
    return pref * math.factorial(i) / math.factorial(j) * total


def xi_reassembled_entry(merger_prob, i: int, j: int) -> float:
    """P_(i,j) rebuilt from per-composition merger probabilities.

    (1/j!) sum over compositions of multinomial(i; parts) * phi_j(parts),
    where merger_prob(composition) gives phi_j.
    """
    total = 0.0
    for comp in _compositions(i, j):
        multi = math.factorial(i)
        for p in comp:
            multi //= math.factorial(p)
        total += multi * merger_prob(comp)
    return total / math.factorial(j)


def stirling_triangle(i_max: int) -> list[list[int]]:
    """Unsigned Stirling numbers of the first kind, s[i][j], exact integers."""
    s = [[0] * (i_max + 1) for _ in range(i_max + 1)]
    s[0][0] = 1
    for i in range(1, i_max + 1):
        for j in range(1, i + 1):
            s[i][j] = s[i - 1][j - 1] + (i - 1) * s[i - 1][j]
    return s


def gamma_partition_c_N_exact(theta: float, N: int) -> float:
    """Exact coalescence probability for the gamma(theta) partition.

    The normalized first segment is Beta(theta, (N-1)theta), independent of
    the total, so c_N = N E(S_1^2) = (1+theta)/(N theta + 1). The widely
    quoted (1/N)(1+theta)/theta is this law's large-N limit.
    """
    return (1.0 + theta) / (N * theta + 1.0)


def kingman_tagged_branch_exact(i: int) -> float:
    """E(length of a random external branch), binary-merger coalescent.

    Recursion E(l_i) = 1/C(i,2) + ((i-2)/i) E(l_(i-1)), E(l_2) = 1, which
    telescopes to exactly 2/i.
    """
    val = 1.0
    for m in range(3, i + 1):
        val = 1.0 / (m * (m - 1) / 2.0) + ((m - 2.0) / m) * val
    return val
