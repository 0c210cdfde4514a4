import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    block_loss_rate_quad,
    lambda_rate_moment_form,
    lambda_rate_quad,
    lambda_row_betaln,
    mean_first_collision_quad,
    stirling_triangle,
    total_rate_quad,
    xi_merger_prob,
    xi_merger_prob_alt,
    xi_reassembled_entry,
    xi_transition_entry_enum,
)
from paretocoal.rates import (
    Params,
    _beta_moments,
    build_rate_table,
    c_N_asymptotic,
    comes_down_diagnostic,
    kingman_rate,
    lambda_rate,
    lambda_row,
    mean_first_collision_size,
    block_loss_rate,
    rate_row,
    stirling_case_matrix,
    total_rate,
    xi_transition_matrix,
)
from paretocoal.simulate import _jump_rates

PAIRS = [(1.0, 0.0), (1.0, -1.0), (1.25, 0.0), (1.5, 0.75), (1.5, -2.0), (1.75, 0.0)]


class TestParams:
    def test_regimes(self):
        assert Params(0.0, -1.0).regime == "xi"
        assert Params(0.5, 0.0).regime == "xi"
        assert Params(1.0, 0.0).regime == "bs"
        assert Params(1.5, 0.0).regime == "beta"
        assert Params(2.0, 5.0).regime == "critical"
        assert Params(3.0, 100.0).regime == "kingman"

    def test_bias_constraint(self):
        with pytest.raises(ValueError, match="beta < alpha"):
            Params(1.5, 1.6)
        with pytest.raises(ValueError, match="beta < alpha"):
            Params(0.5, 0.5)
        Params(2.0, 10.0)  # unconstrained at and above 2


class TestLambdaRate:
    def test_pair_rate_is_one_for_any_probability_measure(self):
        for a, b in PAIRS:
            assert lambda_rate(Params(a, b), 2, 1) == pytest.approx(1.0)

    def test_log_case_merge_all(self):
        # alpha = 1, beta = 0: merging all i blocks at rate 1/(i-1)
        p = Params(1.0, 0.0)
        for i in range(2, 8):
            assert lambda_rate(p, i, 1) == pytest.approx(1.0 / (i - 1.0))

    def test_value_from_mean_of_measure(self):
        # (3,2)-rate is 3 E(1-U) under the measure, here 3 * 0.75
        assert lambda_rate(Params(1.5, 0.0), 3, 2) == pytest.approx(2.25)

    def test_row_matches_scalar(self):
        p = Params(1.3, -0.5)
        ref = lambda_row_betaln(1.3, -0.5, 9)
        assert_allclose(lambda_row(p, 9), ref, rtol=1e-13)
        assert_allclose([lambda_rate(p, 9, j) for j in range(1, 9)], ref, rtol=1e-13)

    @pytest.mark.parametrize(
        "a, b", [(1.0, 0.0), (1.5, 0.3), (1.9, -2.0), (1.2, 1.199)]
    )
    def test_row_matches_mpmath_at_two_thousand(self, a, b):
        # 40-digit reference for sampled entries of one deep row; log-gamma
        # rows miss 1e-13 here by more than an order of magnitude.
        i = 2000
        row = lambda_row(Params(a, b), i)
        ma, mb = mp.mpf(a), mp.mpf(b)
        js = [1, 2, i - 2, i - 1, *np.random.default_rng(8).integers(1, i, 40)]
        with mp.workdps(40):
            norm = mp.beta(2 - ma, ma - mb)
            for j in js:
                k = i - int(j) + 1
                want = mp.binomial(i, k) * mp.beta(k - ma, ma - mb + i - k) / norm
                assert abs(row[j - 1] - want) <= 1e-13 * want

    def test_quadrature_agreement(self):
        for a, b in PAIRS:
            p = Params(a, b)
            for i in range(2, 11):
                for j in range(1, i):
                    assert abs(
                        lambda_rate(p, i, j) - lambda_rate_quad(a, b, i, j)
                    ) <= 1e-8

    def test_regime_errors(self):
        with pytest.raises(ValueError):
            lambda_rate(Params(0.5, 0.0), 3, 1)
        with pytest.raises(ValueError):
            lambda_rate(Params(3.0, 0.0), 3, 1)
        with pytest.raises(ValueError):
            lambda_rate(Params(1.5, 0.0), 3, 3)


class TestKingman:
    def test_values(self):
        assert kingman_rate(3, 2) == 3.0
        assert kingman_rate(5, 4) == 10.0
        assert kingman_rate(5, 2) == 0.0

    def test_totals(self):
        p = Params(3.0, 0.0)
        assert total_rate(p, 4) == pytest.approx(6.0)
        assert block_loss_rate(p, 4) == pytest.approx(6.0)
        assert mean_first_collision_size(p, 4) == pytest.approx(2.0)


class TestTotalsAndLossRates:
    def test_block_loss_rate_two_blocks(self):
        for a, b in PAIRS:
            assert block_loss_rate(Params(a, b), 2) == pytest.approx(1.0)

    def test_log_case_total_rate_three(self):
        assert total_rate(Params(1.0, 0.0), 3) == pytest.approx(2.0)

    def test_quadrature_agreement(self):
        for a, b in PAIRS:
            p = Params(a, b)
            for i in range(2, 11):
                assert abs(total_rate(p, i) - total_rate_quad(a, b, i)) <= 1e-8
                assert abs(
                    block_loss_rate(p, i) - block_loss_rate_quad(a, b, i)
                ) <= 1e-8
                assert abs(
                    mean_first_collision_size(p, i)
                    - mean_first_collision_quad(a, b, i)
                ) <= 1e-8

    def test_loss_rate_identities(self):
        for a, b in PAIRS:
            p = Params(a, b)
            for i in range(2, 11):
                row = lambda_row(p, i)
                j = np.arange(1, i)
                lam = row.sum()
                r_direct = float(((i - j) * row).sum())
                r_via_mean = float(i * lam - (j * row).sum())
                assert abs(r_direct - r_via_mean) <= 1e-10 * max(1.0, r_direct)
                eu = mean_first_collision_size(p, i)
                assert abs(r_direct - lam * (eu - 1.0)) <= 1e-10 * max(1.0, r_direct)

    def test_moment_form_identity(self):
        for a in (1.0, 1.25, 1.5, 1.75):
            for b in (0.0, -1.0, 0.5 * a):
                p = Params(a, b)
                for i in range(2, 11):
                    for j in range(1, i):
                        direct = lambda_rate(p, i, j)
                        alt = lambda_rate_moment_form(a, b, i, j)
                        assert abs(direct - alt) <= 1e-9 * max(1.0, direct)


class TestComesDown:
    def test_increments_match_quadrature(self):
        for a, b in PAIRS:
            inc = np.diff(comes_down_diagnostic(Params(a, b), 10), prepend=0.0)
            for i in range(2, 11):
                want = 1.0 / block_loss_rate_quad(a, b, i)
                assert inc[i - 2] == pytest.approx(want, rel=1e-9)

    def test_kingman_telescopes(self):
        sums = comes_down_diagnostic(Params(3.0, 0.0), 1000)
        assert sums[-1] == pytest.approx(2.0 * (1.0 - 1.0 / 1000.0))

    def test_heavy_merger_regime_saturates(self):
        sums = comes_down_diagnostic(Params(1.5, 0.0), 10_000)
        s3, s4 = sums[1000 - 2], sums[-1]
        assert (s4 - s3) / s3 < 0.05

    def test_log_regime_diverges(self):
        # Block-loss rate grows like i log i here, so the partial sums climb
        # like log log M: increments per decade shrink only by the ratio of
        # log logs, never geometrically. A convergent (comes-down) family
        # decays by about 10^-(alpha-1) per decade instead.
        sums = comes_down_diagnostic(Params(1.0, 0.0), 10_000)
        inc_23 = sums[1000 - 2] - sums[100 - 2]
        inc_34 = sums[10_000 - 2] - sums[1000 - 2]
        assert inc_34 > 0.2
        assert inc_34 > 0.5 * inc_23
        conv = comes_down_diagnostic(Params(1.5, 0.0), 10_000)
        cinc_23 = conv[1000 - 2] - conv[100 - 2]
        cinc_34 = conv[10_000 - 2] - conv[1000 - 2]
        assert cinc_34 < 0.5 * cinc_23


class TestRatioRecursion:
    # Partial sums of I_m = E(1-X)^m, X ~ beta(2-alpha, alpha-beta), and the
    # recursion-built rows against sums of scipy betaln rows; with
    # k = i - j + 1 merging blocks, lambda_(i,k) is the row's entry j.
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.0, 1.999),
        gap=st.floats(1e-3, 5.0),
        i=st.integers(2, 400),
    )
    def test_partial_sums_match_rows(self, alpha, gap, i):
        a, b = alpha, alpha - gap
        p = Params(a, b)
        moments = _beta_moments(p, i)
        row = lambda_row_betaln(a, b, i)
        assert_allclose(lambda_row(p, i), row, rtol=1e-11)
        k = i - np.arange(1, i) + 1.0
        total = 1.0 + math.fsum(m * moments[m - 1] for m in range(2, i))
        loss = 1.0 + math.fsum(math.fsum(moments[:n]) for n in range(2, i))
        assert total == pytest.approx(math.fsum(row), rel=1e-11)
        assert i * (i - 1) / 2.0 * moments[i - 2] == pytest.approx(row[-1], rel=1e-11)
        assert loss == pytest.approx(math.fsum((k - 1.0) * row), rel=1e-11)
        sim_total, sim_binary = _jump_rates(p, i)
        assert sim_total[i] == pytest.approx(total, rel=1e-13)
        assert sim_binary[i] == pytest.approx(row[-1], rel=1e-11)
        # lambda_(i,k+1)/lambda_(i,k) = (i-k)(k-alpha) / ((k+1)(i-k-1+alpha-beta))
        kk = k[1:]  # k = 2..i-1 paired with k + 1
        ratio = (i - kk) * (kk - a) / ((kk + 1) * (i - kk - 1 + a - b))
        assert_allclose(row[:-1] / row[1:], ratio, rtol=1e-11)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.0, 1.999),
        gap=st.floats(1e-3, 5.0),
        b=st.integers(2, 400),
    )
    def test_pitman_consistency(self, alpha, gap, b):
        # Pitman (1999): lambda_(b,k) = lambda_(b+1,k) + lambda_(b+1,k+1) for
        # the rate of one given k-tuple, i.e. the rate over C(b, k).
        p = Params(alpha, alpha - gap)

        def per_tuple(n):
            k = n - np.arange(1, n) + 1
            return lambda_row(p, n) / np.array([float(math.comb(n, int(c))) for c in k])

        lo, hi = per_tuple(b), per_tuple(b + 1)
        # entry j of row b joins k = b - j + 1 blocks; in row b+1 that k
        # sits at j + 1 and k + 1 at j
        assert_allclose(lo, hi[1:] + hi[:-1], rtol=1e-11)


class TestXiMatrix:
    def test_half_alpha_pair_probabilities(self):
        m = xi_transition_matrix(Params(0.5, 0.0), 4)
        assert m.entry(2, 1) == pytest.approx(0.5, abs=1e-12)
        assert m.entry(2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_closed_form(self):
        # P_(i,i) = alpha^(i-1) G(1-b) G(i-b/a) / (G(1-b/a) G(i-b))
        from scipy.special import gammaln

        for a, b in [(0.3, 0.0), (0.5, 0.0), (0.7, 0.3), (0.9, -2.0)]:
            m = xi_transition_matrix(Params(a, b), 9)
            for i in range(2, 10):
                expect = math.exp(
                    (i - 1) * math.log(a)
                    + gammaln(1 - b)
                    - gammaln(1 - b / a)
                    + gammaln(i - b / a)
                    - gammaln(i - b)
                )
                assert m.entry(i, i) == pytest.approx(expect, rel=1e-10)

    def test_merge_all_column_closed_form(self):
        from scipy.special import gammaln

        for a, b in [(0.5, 0.0), (0.7, 0.3)]:
            m = xi_transition_matrix(Params(a, b), 10)
            for i in range(2, 11):
                expect = math.exp(
                    gammaln(1 - b) - gammaln(1 - a) + gammaln(i - a) - gammaln(i - b)
                )
                assert m.entry(i, 1) == pytest.approx(expect, rel=1e-10)

    def test_rows_sum_to_one(self):
        m = xi_transition_matrix(Params(0.5, 0.0), 12)
        for i in range(2, 13):
            assert abs(m.row(i).sum() - 1.0) <= 1e-10

    def test_merger_prob_two_factorizations_agree(self):
        for a, b in [(0.5, 0.0), (0.8, 0.4), (0.25, -1.5)]:
            for comp in [(2,), (3,), (2, 1), (1, 1, 1), (3, 2), (2, 2, 1)]:
                assert xi_merger_prob(a, b, comp) == pytest.approx(
                    xi_merger_prob_alt(a, b, comp), rel=1e-11
                )

    def test_reassembled_from_merger_probs(self):
        p = Params(0.5, 0.0)
        m = xi_transition_matrix(p, 6)
        for i in range(2, 7):
            for j in range(1, i + 1):
                assert abs(
                    xi_reassembled_entry(
                        lambda comp: xi_merger_prob(0.5, 0.0, comp), i, j
                    )
                    - m.entry(i, j)
                ) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 0.999),
        gap=st.floats(1e-3, 5.0),
        i_max=st.integers(1, 12),
    )
    def test_recursion_matches_composition_enumeration(self, alpha, gap, i_max):
        # Any beta < alpha; the Poisson-Dirichlet recursion needs no
        # composition sums, the oracle sums all 2^(i-1) of them.
        beta = alpha - gap
        m = xi_transition_matrix(Params(alpha, beta), i_max)
        for i in range(1, i_max + 1):
            for j in range(1, i + 1):
                assert abs(
                    m.entry(i, j) - xi_transition_entry_enum(alpha, beta, i, j)
                ) <= 1e-13

    def test_rows_sum_to_one_at_the_cap(self):
        for a, b in [(0.5, 0.0), (0.0, -1.0), (0.9, 0.89)]:
            m = xi_transition_matrix(Params(a, b), 2000)
            sums = np.array([m.row(i).sum() for i in range(1, 2001)])
            assert np.abs(sums - 1.0).max() <= 1e-12

    def test_near_one_alpha_rarely_merges_everything(self):
        assert xi_transition_matrix(Params(0.999, 0.0), 2).entry(2, 1) < 0.01

    def test_bounds(self):
        xi_transition_matrix(Params(0.5, 0.0), 31)  # inside the cap
        with pytest.raises(ValueError, match="2000"):
            xi_transition_matrix(Params(0.5, 0.0), 2001)
        with pytest.raises(ValueError):
            xi_transition_matrix(Params(0.5, 0.0), 0)
        with pytest.raises(ValueError):
            xi_transition_matrix(Params(1.5, 0.0), 5)


class TestStirlingCase:
    def test_triangle_values(self):
        s = stirling_triangle(5)
        assert s[3][2] == 3
        assert s[4][2] == 11
        assert s[5][1] == 24  # (5-1)!

    def test_rows_match_exact_stirling_law(self):
        # P_(i,j) = theta^j s_(i,j) / (theta (theta+1) ... (theta+i-1)),
        # evaluated in exact rationals for theta = -beta.
        s = stirling_triangle(30)
        for b in (-0.5, -1.0, -2.5):
            theta = Fraction(-b)
            tables = [
                stirling_case_matrix(b, 30),
                xi_transition_matrix(Params(0.0, b), 30),
            ]
            rising = Fraction(1)
            for i in range(1, 31):
                rising *= theta + i - 1
                for j in range(1, i + 1):
                    exact = float(theta**j * s[i][j] / rising)
                    for m in tables:
                        assert abs(m.entry(i, j) - exact) <= 1e-13 * exact

    def test_unit_negative_bias_pair_probability(self):
        m = stirling_case_matrix(-1.0, 5)
        assert m.entry(2, 1) == pytest.approx(0.5, rel=1e-12)

    def test_rows_sum_to_one(self):
        for b in (-0.5, -1.0, -2.0):
            m = stirling_case_matrix(b, 10)
            for i in range(1, 11):
                assert abs(m.row(i).sum() - 1.0) <= 1e-10

    def test_requires_negative_bias(self):
        with pytest.raises(ValueError):
            stirling_case_matrix(0.5, 5)


class TestCnAsymptotic:
    def test_constant_regime(self):
        val, tag = c_N_asymptotic(Params(0.5, 0.0), 10**6)
        assert val == pytest.approx(0.5)
        assert tag == "xi"
        val, _ = c_N_asymptotic(Params(0.5, -1.0), 100)
        assert val == pytest.approx(0.25)

    def test_kingman_regime(self):
        val, tag = c_N_asymptotic(Params(3.0, 0.0), 1000)
        assert val == pytest.approx(3.0 / 2.25 / 1000)
        assert tag == "kingman"

    def test_critical_regime(self):
        val, tag = c_N_asymptotic(Params(2.0, 0.0), 10**4)
        assert val == pytest.approx(0.5 * math.log(10**4) / 10**4)
        assert tag == "critical"

    def test_log_regime(self):
        val, tag = c_N_asymptotic(Params(1.0, 0.0), 10**5)
        assert val == pytest.approx(1.0 / math.log(10**5))
        assert tag == "bs"

    def test_power_regime_prefactor(self):
        a, b = 1.5, 0.0
        val, tag = c_N_asymptotic(Params(a, b), 100)
        mu = 3.0
        expect = a * mu**-a * (math.pi / 2.0) * 100 ** -(a - 1.0)
        assert val == pytest.approx(expect, rel=1e-12)
        assert tag == "beta"


class TestTables:
    def test_build_matches_scalars(self):
        p = Params(1.5, 0.0)
        t = build_rate_table(p, 8)
        assert t.entry(3, 2) == pytest.approx(lambda_rate(p, 3, 2))
        assert t.total(5) == pytest.approx(total_rate(p, 5))

    def test_lazy_rows_match(self):
        # The simulator's recursion-built totals and binary rates agree
        # with the materialized table, in both rate regimes.
        for p in (Params(1.25, -0.5), Params(3.0, 0.0)):
            t = build_rate_table(p, 12)
            total, binary = _jump_rates(p, 12)
            for i in (2, 7, 12):
                assert_allclose(rate_row(p, i), t.row(i))
                assert_allclose(total[i], t.total(i), rtol=1e-13)
                assert_allclose(binary[i], t.entry(i, i - 1), rtol=1e-13)

    def test_i_max_capped_like_the_xi_table(self):
        for p in (Params(1.5, 0.0), Params(3.0, 0.0)):
            with pytest.raises(ValueError, match="2000"):
                build_rate_table(p, 2001)
        t = build_rate_table(Params(1.0, 0.0), 2000)
        total, _ = _jump_rates(Params(1.0, 0.0), 2000)
        assert t.total(2000) == pytest.approx(total[2000], rel=1e-12)

    def test_csv_contains_simple_pair_row(self):
        m = xi_transition_matrix(Params(0.5, 0.0), 2)
        assert "2,1,0.5" in m.to_csv().splitlines()

    def test_entry_bounds(self):
        t = build_rate_table(Params(1.5, 0.0), 5)
        with pytest.raises(ValueError):
            t.entry(6, 1)
        with pytest.raises(ValueError):
            t.entry(5, 5)
