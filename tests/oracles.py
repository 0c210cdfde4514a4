"""Independent numerical oracles used across the test suite.

Everything here deliberately avoids the package's own special-function and
rate code: gamma/beta values come from scipy, integrals from QUADPACK's
algebraic-weight adaptive rule (quad with weight="alg"), which handles the
endpoint singularities of beta densities natively. Integrands are written
with expm1/log1p or explicit polynomial forms so they stay accurate where
naive evaluation cancels. The size-biased Pareto c_N integrates Laplace
transforms with mpmath's tanh-sinh rule, and so do the exact speed and the
k-step moments of the forward model. Transition-matrix entries of the
discrete chain come from sums over compositions and, at alpha = 0, from
exact integer Stirling numbers; the gamma block-count law is the
Dirichlet-multinomial occupancy summed over compositions, in exact
rationals. Alternative algebraic routes (the moment form of the Lambda
rates and of the finite-N merger probabilities, the product form of the Xi
merger probabilities) live here too, as independent cross-checks of the
package's own recursions and estimators.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
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


def lambda_rate_moment_form(alpha: float, beta: float, i: int, j: int) -> float:
    """lambda_(i,j) rebuilt from the one-merger moments q_m = lambda_(m,1).

    Expanding the (1-u)^(j-1) factor of the rate integral binomially gives
    lambda_(i,j) = C(i, j-1) sum_{l=0}^{j-1} (-1)^l C(j-1, l) q_(i-j+1+l),
    with q_m = B(m - alpha, alpha - beta) / B(2 - alpha, alpha - beta) from
    scipy's betaln. The alternating sum cancels, so expect absolute (not
    relative) accuracy.
    """
    if i < 2 or not 1 <= j < i:
        raise ValueError("need i >= 2 and 1 <= j < i")
    denom = special.betaln(2.0 - alpha, alpha - beta)

    def q(m: int) -> float:
        return math.exp(special.betaln(m - alpha, alpha - beta) - denom)

    total = math.fsum(
        (-1.0) ** l * math.comb(j - 1, l) * q(i - j + 1 + l) for l in range(j)
    )
    return math.comb(i, j - 1) * total


def xi_merger_prob(alpha: float, beta: float, composition) -> float:
    """Probability of the specific (i_1,..,i_j)-merger, parts >= 1.

    phi_j = alpha^(j-1) Gamma(1-b) Gamma(j - b/a) / (Gamma(1 - b/a) Gamma(i-b))
            * prod_l Gamma(i_l - a) / Gamma(1 - a), with scipy log-gammas.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("xi merger probabilities require 0 < alpha < 1")
    if len(composition) == 0 or any(p < 1 for p in composition):
        raise ValueError("composition parts must be >= 1")
    i, j = sum(composition), len(composition)
    g = special.gammaln
    log_phi = (
        (j - 1) * math.log(alpha)
        + g(1.0 - beta)
        - g(1.0 - beta / alpha)
        + g(j - beta / alpha)
        - g(i - beta)
        + sum(g(p - alpha) - g(1.0 - alpha) for p in composition)
    )
    return float(math.exp(log_phi))


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


def gamma_block_counts_exact(theta, N: int, i: int) -> list[Fraction]:
    """P(k blocks), k = 1..i, when i uniforms fall on N gamma(theta)
    segments normalized by their sum; exact for rational theta = a/c.

    The normalized segments are a symmetric Dirichlet(theta) vector, so the
    hit counts (n_1..n_N) are Dirichlet-multinomial: i!/prod n_c! times
    prod (theta)_(n_c) / (N theta)_i, with rising factorials (x)_m. Every
    rising factorial carries c^-m, and those cancel, leaving integers. For
    k blocks choose the k colours hit, C(N, k) ways (0 once k > N), and sum
    over the compositions of i into k parts: 2^(i-1) terms in all.
    """
    a, c = Fraction(theta).numerator, Fraction(theta).denominator
    rising = [1]
    for m in range(i):
        rising.append(rising[-1] * (a + m * c))
    fact = [math.factorial(m) for m in range(i + 1)]
    total = math.prod(N * a + m * c for m in range(i))
    row = []
    for k in range(1, i + 1):
        ways = sum(
            fact[i] // math.prod([fact[p] for p in comp])
            * math.prod([rising[p] for p in comp])
            for comp in _compositions(i, k)
        )
        row.append(Fraction(math.comb(N, k) * ways, total))
    return row


def absorption_steps(P: np.ndarray, n0: int) -> float:
    """Mean steps to reach one block from n0 under the transition matrix P.

    E[T_i] = (1 + sum_{j<i} P[i, j] E[T_j]) / (1 - P[i, i]), E[T_1] = 0.
    """
    T = np.zeros(n0 + 1)
    for i in range(2, n0 + 1):
        T[i] = (1.0 + float(P[i, 1:i] @ T[1:i])) / (1.0 - P[i, i])
    return float(T[n0])


def pareto_c_N_exact(alpha: float, beta: float, N: int) -> float:
    """Exact c_N for N Pareto(alpha) segments size-biased by Sigma^beta.

    c_N = N E[X_1^2 Sigma^(beta-2)] / E[Sigma^beta], by Laplace transforms
    (mpmath): phi(t) = alpha t^alpha Gamma(-alpha, t) = E e^(-tX) and
    psi(t) = alpha t^(alpha-2) Gamma(2-alpha, t) = E X^2 e^(-tX). From
    Sigma^-s = int t^(s-1) e^(-t Sigma) dt / Gamma(s), the numerator is
    int t^(1-beta) psi phi^(N-1) dt / Gamma(2-beta). The denominator is
    beta/Gamma(1-beta) int (1 - phi^N) t^(-beta-1) dt for 0 < beta < 1,
    int t^(-beta-1) phi^N dt / Gamma(-beta) for beta < 0, and 1 at 0.
    """
    if not (beta < 1 and beta < alpha):
        raise ValueError("pareto_c_N_exact needs beta < min(1, alpha)")
    with mp.workdps(20):
        a, b = mp.mpf(alpha), mp.mpf(beta)

        def phi(t):
            return a * t**a * mp.gammainc(-a, t)

        def psi(t):
            return a * t ** (a - 2) * mp.gammainc(2 - a, t)

        # Sigma is of order N^max(1, 1/alpha): split the range about
        # t = 1/Sigma so each tanh-sinh piece is smooth.
        s = mp.mpf(N) ** -max(1.0, 1.0 / alpha)
        cuts = [0, s / 100, s / 10, s, 10 * s, 100 * s, 1, 10, mp.inf]
        num = mp.quad(lambda t: t ** (1 - b) * psi(t) * phi(t) ** (N - 1), cuts)
        num /= mp.gamma(2 - b)
        if beta > 0:
            den = mp.quad(lambda t: (1 - phi(t) ** N) * t ** (-b - 1), cuts)
            den *= b / mp.gamma(1 - b)
        elif beta < 0:
            den = mp.quad(lambda t: t ** (-b - 1) * phi(t) ** N, cuts)
            den /= mp.gamma(-b)
        else:
            den = 1
        return float(N * num / den)


def frechet_mean(alpha: float) -> float:
    """Gamma(1 - 1/alpha), the mean of a Frechet(alpha) variate, alpha > 1.

    It is the exact conditional mean of the fittest offspring's fitness
    over the global fitness in the forward model.
    """
    if alpha <= 1.0:
        raise ValueError("the Frechet mean is finite only for alpha > 1")
    return math.exp(special.gammaln(1.0 - 1.0 / alpha))


def forward_speed_exact(N: int, alpha: float) -> float:
    """v_N, the forward model's exact speed per generation.

    v_N = (-psi(N+1) + E ln(Y_1 + ... + Y_N)) / alpha with Y_n unit
    Pareto. Frullani's ln s = int_0^inf (e^-t - e^-st) dt/t and the
    Laplace transform E e^-tY = E_2(t) give
    E ln sum Y = int_0^inf (e^-t - E_2(t)^N) dt/t, by tanh-sinh quadrature.
    """
    with mp.workdps(20):
        growth = mp.quad(
            lambda t: (mp.exp(-t) - mp.expint(2, t) ** N) / t, [0, 1, mp.inf]
        )
        return float((growth - mp.digamma(N + 1)) / alpha)


def forward_moment_exact(N: int, alpha: float, beta: float, k: int) -> float:
    """E exp(beta * (sum of k forward log increments)), s = beta/alpha < 1.

    One increment is (ln S_N - ln Gamma_(N+1))/alpha with S_N a sum of N
    unit Pareto variables independent of the Erlang Gamma_(N+1), and the
    increments are i.i.d., so the moment is
    (Gamma(N+1-s)/Gamma(N+1) * E S_N^s)^k, where for 0 < s < 1
    E S^s = s/Gamma(1-s) int_0^inf (1 - E_2(t)^N) t^(-s-1) dt.
    Past t = 100, E_2(t)^N < e^(-100) is dropped and the rest of the
    integral is 100^(-s)/s in closed form, which keeps small s accurate.
    """
    s = beta / alpha
    if not 0.0 < s < 1.0:
        raise ValueError(f"need 0 < beta/alpha < 1, got {s}")
    with mp.workdps(20):
        head = mp.quad(
            lambda t: (1 - mp.expint(2, t) ** N) * t ** (-s - 1), [0, 1, 100]
        )
        moment_s = s / mp.gamma(1 - s) * (head + mp.mpf(100) ** -s / s)
        selection = mp.exp(mp.loggamma(N + 1 - s) - mp.loggamma(N + 1))
        return float((selection * moment_s) ** k)


def kingman_tagged_branch_exact(i: int) -> float:
    """E(length of a random external branch), binary-merger coalescent.

    Recursion E(l_i) = 1/C(i,2) + ((i-2)/i) E(l_(i-1)), E(l_2) = 1, which
    telescopes to exactly 2/i.
    """
    val = 1.0
    for m in range(3, i + 1):
        val = 1.0 / (m * (m - 1) / 2.0) + ((m - 2.0) / m) * val
    return val


def lambda_row_betaln(alpha: float, beta: float, i: int) -> np.ndarray:
    """lambda_(i, j), j = 1..i-1, from scipy's betaln and gammaln.

    An i -> j merger joins k = i - j + 1 blocks at rate
    C(i, k) B(k - alpha, alpha - beta + i - k) / B(2 - alpha, alpha - beta).
    """
    k = i - np.arange(1, i) + 1.0
    log_r = (
        special.gammaln(i + 1.0)
        - special.gammaln(k + 1.0)
        - special.gammaln(i - k + 1.0)
        + special.betaln(k - alpha, alpha - beta + (i - k))
        - special.betaln(2.0 - alpha, alpha - beta)
    )
    return np.exp(log_r)


def kingman_row(i: int) -> np.ndarray:
    """Binary-merger rates lambda_(i, j), j = 1..i-1."""
    row = np.zeros(i - 1)
    row[-1] = i * (i - 1) / 2.0
    return row


def first_step_means(row, n0: int) -> dict:
    """Exact mean tree functionals from n0 blocks by first-step analysis.

    row(i) gives the rates lambda_(i, j), j = 1..i-1; from i the chain
    waits an exponential time of rate lambda_i and moves to j with
    probability lambda_(i,j)/lambda_i, merging k = i - j + 1 blocks:
    height h(i) = 1/lambda_i + sum_j p_ij h(j), total length
    L(i) = i/lambda_i + sum_j p_ij L(j), collisions C(i) = 1 + sum_j p_ij C(j),
    and a tagged singleton, hit by the merger with probability k/i, keeps
    its external branch for g(i) = 1/lambda_i + sum_j p_ij (1 - k/i) g(j).
    All vanish at i = 1. By exchangeability the external length has mean
    n0 g(n0).
    """
    h, tot, col, tag = (np.zeros(n0 + 1) for _ in range(4))
    for i in range(2, n0 + 1):
        rates = row(i)
        lam = math.fsum(rates)
        p = rates / lam
        j = np.arange(1, i)
        h[i] = 1.0 / lam + float(p @ h[1:i])
        tot[i] = i / lam + float(p @ tot[1:i])
        col[i] = 1.0 + float(p @ col[1:i])
        tag[i] = 1.0 / lam + float((p * (j - 1.0) / i) @ tag[1:i])
    return {
        "height": h[n0],
        "total_length": tot[n0],
        "collisions": col[n0],
        "random_external_branch": tag[n0],
        "external_length": n0 * tag[n0],
    }


class MeanEstimate(NamedTuple):
    value: float
    stderr: float


def estimate_moment_form(batches, i: int, j: int, beta: float = 0.0) -> MeanEstimate:
    """P_(i,j) through the alternating sum of partial-segment moments.

    batches yields (b, N) arrays of unnormalized segment lengths, one row
    per replica. Evaluates C(N,j) * sum_l (-1)^(j-l) C(j,l) E((S_1+..+S_l)^i)
    by Monte Carlo, an independent cross-check of the occupancy estimator.
    Only the plain (beta = 0) form is supported, and the alternating sum
    limits the usable range to small i and j.
    """
    if beta != 0.0:
        raise ValueError("moment-form estimator requires beta = 0")
    if not 1 <= j <= i <= 8:
        raise ValueError("need 1 <= j <= i <= 8")
    coef = np.array(
        [(-1.0) ** (j - l) * math.comb(j, l) for l in range(1, j + 1)]
    )
    vals = []
    for x in batches:
        partial = np.cumsum(x[:, :j], axis=1) / x.sum(axis=1)[:, None]
        vals.append(float(math.comb(x.shape[1], j)) * (partial**i @ coef))
    v = np.concatenate(vals)
    est = MeanEstimate(float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size)))
    if est.stderr > max(abs(est.value), 1e-300):
        warnings.warn(
            "moment-form estimate noisier than its own value; the "
            "alternating sum is cancelling badly",
            RuntimeWarning,
            stacklevel=2,
        )
    return est
