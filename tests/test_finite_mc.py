import math
import warnings

import numpy as np
import pytest

from oracles import (
    estimate_moment_form,
    gamma_partition_c_N_exact,
    pareto_c_N_exact,
)
from paretocoal.finite_mc import (
    PartitionModel,
    estimate_c_N,
    estimate_c_N_conditional,
    estimate_p_row,
    estimate_p_rows_nested,
    run_discrete_coalescent,
    _distinct_counts,
    _segment_hits,
)
from paretocoal.samplers import RngStream, replica_blocks


def combined_se(*ests) -> float:
    return math.sqrt(sum(e.stderr**2 for e in ests))


def moment_form(model, i, j, replicas, rng):
    """The moment-form oracle on segments drawn in the estimators' blocks."""
    draws = replica_blocks(
        replicas, model.N, rng, lambda rows, child: model.draw((rows, model.N), child)
    )
    return estimate_moment_form(draws, i, j, beta=model.beta)


class TestPartitionModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionModel.pareto(0.0, 10)
        with pytest.raises(ValueError, match="beta < alpha"):
            PartitionModel.pareto(1.5, 10, beta=1.5)
        with pytest.raises(ValueError):
            PartitionModel.gamma(-1.0, 10)
        with pytest.raises(ValueError):
            PartitionModel(family="weird", N=10)

    def test_nan_fails_naming_the_parameter(self):
        nan = math.nan
        for make, name in (
            (lambda: PartitionModel.pareto(nan, 10), "alpha"),
            (lambda: PartitionModel.pareto(math.inf, 10), "alpha"),
            (lambda: PartitionModel.gamma(nan, 10), "theta"),
            (lambda: PartitionModel.gamma(1.0, 10, beta=nan), "beta"),
            (lambda: PartitionModel.pareto(3.0, 10, beta=nan), "beta"),
            (lambda: PartitionModel.pareto(1.5, 10, beta=-math.inf), "beta"),
        ):
            with pytest.raises(ValueError, match=name):
                make()

    def test_unconstrained_bias_above_two_warns_when_large(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PartitionModel.pareto(3.0, 10, beta=2.0)  # fine, no warning
        with pytest.warns(RuntimeWarning) as record:
            PartitionModel.pareto(3.0, 10, beta=2.6)
        # reported at this line, not inside the generated __init__
        assert record[0].filename == __file__


class TestGammaOracle:
    """The gamma partition has an exact coalescence law: the weight is
    independent of the segments, so c_N = (1+theta)/(N theta + 1) for every
    bias exponent. The popular (1/N)(1+theta)/theta is its large-N limit."""

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("N", [10, 100, 1000])
    def test_exact_law(self, theta, N):
        model = PartitionModel.gamma(theta, N)
        est = estimate_c_N(model, 30_000, RngStream(24, int(theta * 10) + N))
        assert abs(est.value - gamma_partition_c_N_exact(theta, N)) < 3 * est.stderr

    def test_bias_invariance(self):
        a = estimate_c_N(PartitionModel.gamma(1.0, 50, beta=0.0), 30_000, RngStream(25))
        b = estimate_c_N(PartitionModel.gamma(1.0, 50, beta=2.0), 30_000, RngStream(26))
        assert abs(a.value - b.value) < 3 * combined_se(a, b)

    def test_asymptotic_form_at_large_N(self):
        # (1/N)(1+theta)/theta approximates the exact law to O(1/N^2); by
        # N = 1000 the occupancy estimator cannot tell them apart.
        theta, N = 1.0, 1000
        exact = gamma_partition_c_N_exact(theta, N)
        approx = (1.0 / N) * (1 + theta) / theta
        assert abs(approx - exact) / exact < 2e-3
        est = estimate_c_N(PartitionModel.gamma(theta, N), 30_000, RngStream(27))
        assert abs(est.value - approx) < 3 * est.stderr


class TestParetoOracle:
    @pytest.mark.parametrize("alpha, beta", [(0.8, 0.4), (1.5, 0.0), (1.5, -1.0)])
    def test_one_segment_is_certain(self, alpha, beta):
        # N = 1: numerator and denominator are both E X^beta
        assert pareto_c_N_exact(alpha, beta, 1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "alpha, beta, N, seed", [(0.8, 0.4, 1000, 111), (1.5, -1.0, 200, 112)]
    )
    def test_size_biased_conditional_c_N(self, alpha, beta, N, seed):
        # The importance weights Sigma^beta against an exact target
        model = PartitionModel.pareto(alpha, N, beta)
        est = estimate_c_N_conditional(model, 200_000, RngStream(seed))
        exact = pareto_c_N_exact(alpha, beta, N)
        assert abs(est.value - exact) < 3 * est.stderr


class TestEstimators:
    def test_row_sums_to_one(self):
        for model in (
            PartitionModel.pareto(0.5, 200),
            PartitionModel.pareto(1.5, 200, beta=-1.0),
            PartitionModel.gamma(2.0, 200),
        ):
            row = estimate_p_row(model, 6, 4000, RngStream(28))
            total = sum(e.value for e in row)
            assert abs(total - 1.0) < 1e-12  # weights shared, sums exactly

    def test_heavy_tail_limit_constant(self):
        model = PartitionModel.pareto(0.5, 10_000)
        est = estimate_p_row(model, 2, 20_000, RngStream(29))[0]
        assert abs(est.value - 0.5) < 0.02

    def test_conditional_matches_indicator(self):
        model = PartitionModel.pareto(1.5, 100, beta=0.5)
        a = estimate_c_N(model, 60_000, RngStream(30))
        b = estimate_c_N_conditional(model, 60_000, RngStream(31))
        assert abs(a.value - b.value) < 3 * combined_se(a, b)

    def test_zero_bias_reduces_to_plain_frequency(self):
        model = PartitionModel.pareto(1.5, 50)
        est = estimate_p_row(model, 3, 5000, RngStream(32))[1]
        assert est.ess == pytest.approx(5000.0)
        count = est.value * 5000
        assert abs(count - round(count)) < 1e-9

    def test_estimate_c_N_is_pair_merge_entry(self):
        model = PartitionModel.gamma(1.0, 30)
        a = estimate_c_N(model, 4000, RngStream(33))
        b = estimate_p_row(model, 2, 4000, RngStream(33))[0]
        assert a.value == b.value

    def test_monotone_occupancy_coupling(self):
        # On one partition with nested uniforms, the number of distinct
        # segments hit can only grow with the sample size.
        model = PartitionModel.pareto(0.8, 100)
        rng = RngStream(34)
        x = model.draw((500, 100), rng)
        u = rng.gen.random((500, 6))
        hits = _segment_hits(x, u)
        prev = None
        for i in range(2, 7):
            j = _distinct_counts(hits[:, :i])
            if prev is not None:
                assert np.all(j >= prev)
            prev = j

    def test_nested_rows_match_plain_rows(self):
        model = PartitionModel.pareto(0.5, 300)
        nested = estimate_p_rows_nested(model, [2, 4], 20_000, RngStream(35))
        plain = estimate_p_row(model, 4, 20_000, RngStream(36))
        for j in range(1, 5):
            a, b = nested[4][j - 1], plain[j - 1]
            assert abs(a.value - b.value) < 3 * combined_se(a, b)

    def test_nested_rows_validate_like_plain_rows(self):
        model = PartitionModel.pareto(1.5, 5)
        for i_values, replicas in (([7], 100), ([0, 2], 100), ([], 100), ([2], 1)):
            with pytest.raises(ValueError):
                estimate_p_rows_nested(model, i_values, replicas, RngStream(1))
        biased = PartitionModel.pareto(0.5, 500, beta=0.45)
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            estimate_p_rows_nested(biased, [2, 3], 200_000, RngStream(37))

    def test_degenerate_weights_flagged(self):
        # bias close to the tail index: the weight moment barely exists.
        # The ESS grows about as replicas^0.2, so its share falls with the
        # replica count: at 2e4 replicas it straddles the 1% flag (0.007%
        # to 1.8% over 20 streams), at 2e5 it stays below 0.7%.
        model = PartitionModel.pareto(0.5, 500, beta=0.45)
        with pytest.warns(RuntimeWarning, match="effective sample size"):
            est = estimate_c_N_conditional(model, 200_000, RngStream(37))
        assert est.ess < 0.01 * est.replicas

    def test_nan_ess_is_flagged_degenerate(self):
        # At beta = 200 and 1000 raw weight sums would overflow, leaving a
        # NaN ESS. One weight dominates: the figures stay finite with an ESS
        # near 1, the run is flagged, and the only warning is the package's
        # own, never a numpy one.
        for beta in (200, 1000):
            with pytest.warns(RuntimeWarning, match="heavy-tailed weights"):
                model = PartitionModel.pareto(2.5, 50, beta=beta)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est = estimate_c_N_conditional(model, 400_000, RngStream(2013))
            messages = [str(w.message) for w in caught]
            assert messages and all("effective sample size" in m for m in messages)
            assert all(math.isfinite(x) for x in (est.value, est.stderr, est.ess))
            assert 1.0 / 50 <= est.value <= 1.0
            assert est.ess < 2.0 and est.degenerate


class TestMomentForm:
    def test_rejects_bias(self):
        with pytest.raises(ValueError):
            moment_form(
                PartitionModel.pareto(1.5, 50, beta=0.5), 2, 1, 100, RngStream(0)
            )

    def test_pair_case_reduces_to_second_moment(self):
        theta, N = 1.0, 100
        model = PartitionModel.gamma(theta, N)
        est = moment_form(model, 2, 1, 200_000, RngStream(38))
        assert abs(est.value - gamma_partition_c_N_exact(theta, N)) < 3 * est.stderr

    def test_agrees_with_occupancy_estimator(self):
        # Heavy-tailed segments make the alternating sum very noisy, and
        # the estimator may say so itself; agreement still holds within
        # its own error bars.
        model = PartitionModel.pareto(1.5, 200)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", ".*alternating sum", RuntimeWarning)
            a = moment_form(model, 3, 2, 150_000, RngStream(39))
        b = estimate_p_row(model, 3, 60_000, RngStream(40))[1]
        assert abs(a.value - b.value) < 3 * combined_se(a, b)

    def test_warns_only_when_noisier_than_its_value(self):
        # i = j = 2 on two segments: a row (x1, x2) scores 1 - 2 (x1/(x1+x2))^2.
        steady = [np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 1.0]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_moment_form(steady, 2, 2)
        assert est == (0.5, 0.0)
        noisy = [np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 1.0]])]
        with pytest.warns(RuntimeWarning, match="alternating sum"):
            est = estimate_moment_form(noisy, 2, 2)
        assert est.value == pytest.approx(1.0 / 6.0)
        assert est.stderr > est.value

    def test_agrees_tightly_for_concentrated_segments(self):
        model = PartitionModel.gamma(2.0, 100)
        a = moment_form(model, 3, 2, 100_000, RngStream(92))
        b = estimate_p_row(model, 3, 100_000, RngStream(93))[1]
        assert a.stderr < 0.3 * a.value
        assert abs(a.value - b.value) < 3 * combined_se(a, b)

    def test_range_guard(self):
        model = PartitionModel.pareto(1.5, 50)
        with pytest.raises(ValueError):
            moment_form(model, 9, 2, 100, RngStream(0))


class TestDiscreteCoalescent:
    def test_single_segment_collapses_in_one_step(self):
        model = PartitionModel.pareto(1.0, 1)
        for n0 in (2, 5, 12):
            traj = run_discrete_coalescent(model, n0, RngStream(41, n0))
            assert traj.absorbed and traj.steps == 1
        already = run_discrete_coalescent(model, 1, RngStream(42))
        assert already.absorbed and already.steps == 0

    def test_block_counts_never_increase(self):
        model = PartitionModel.pareto(0.7, 50)
        traj = run_discrete_coalescent(model, 20, RngStream(43))
        blocks = [s.blocks for s in traj.states]
        assert all(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:]))
        assert blocks[-1] == 1

    def test_one_step_matches_row_estimates(self):
        model = PartitionModel.gamma(1.0, 100)
        reps = 20_000
        rng = RngStream(44)
        firsts = np.empty(reps, dtype=int)
        for r in range(reps):
            traj = run_discrete_coalescent(model, 4, rng, max_steps=1)
            firsts[r] = traj.states[1].blocks
        row = estimate_p_row(model, 4, 40_000, RngStream(45))
        for j in range(1, 5):
            freq = (firsts == j).mean()
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / reps)
            assert abs(freq - row[j - 1].value) < 3 * math.hypot(se, row[j - 1].stderr)

    def test_truncation_flag(self):
        model = PartitionModel.gamma(0.5, 10_000)
        traj = run_discrete_coalescent(model, 50, RngStream(46), max_steps=2)
        assert not traj.absorbed and traj.steps == 2

    @pytest.mark.slow
    def test_absorption_time_tracks_pairwise_rate(self):
        # Mean absorption, started from 10 of 1000: about 2(1 - 1/10) in
        # units of 1/c_N generations.
        theta, N, n0 = 1.0, 1000, 10
        model = PartitionModel.gamma(theta, N)
        target = 2.0 * (1 - 1 / n0) / gamma_partition_c_N_exact(theta, N)
        rng = RngStream(47)
        steps = [run_discrete_coalescent(model, n0, rng).steps for _ in range(150)]
        assert abs(np.mean(steps) - target) / target < 0.15

    @pytest.mark.slow
    def test_triple_mergers_negligible_at_scale(self):
        # P_(3,1)/c_N for the gamma partition falls like 1/N.
        theta, N = 1.0, 1000
        model = PartitionModel.gamma(theta, N)
        rng = RngStream(48)
        triple = moment_form(model, 3, 1, 100_000, rng)
        pair = estimate_c_N_conditional(model, 100_000, RngStream(49))
        assert triple.value / pair.value < 0.05
