import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special

from oracles import forward_moment_exact, forward_speed_exact, frechet_mean
from paretocoal import forward
from paretocoal.forward import (
    ForwardConfig,
    explicit_fitnesses,
    fittest_stats,
    increments,
    initial_state,
    legendre,
    per_step_mean_parts,
    pressure,
    speed_estimate,
    trajectory,
)
from paretocoal.finite_mc import PartitionModel, estimate_c_N_conditional
from paretocoal.samplers import RngStream
from paretocoal.weighted import WeightedEstimate, mean_estimate


def selection_probs(fit: np.ndarray, alpha: float, mode: str) -> np.ndarray:
    """Chance that a child descends from each selected parent.

    mode "plain" reads the offspring intensity: weights fit^alpha. mode
    "distorted" reads the image intensity under x -> x^alpha: weights fit.
    """
    w = fit**alpha if mode == "plain" else fit
    return w / w.sum()


def forward_genealogy_c_N(
    alpha: float, N: int, mode: str, replicas: int, rng: RngStream
) -> WeightedEstimate:
    """Coalescence probability of the forward model's genealogy.

    Each replica runs one explicit_fitnesses generation from unit fitnesses
    and scores sum p_n^2, the chance that two children share a parent.
    """
    cfg = ForwardConfig(N=N, alpha=alpha, generations=1)
    start = initial_state(cfg)
    vals = np.empty(replicas)
    for r in range(replicas):
        p = selection_probs(explicit_fitnesses(start, cfg, rng)[1], alpha, mode)
        vals[r] = p @ p
    return mean_estimate(vals)


class TestConfigAndState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForwardConfig(N=1, alpha=1.0, generations=10)
        with pytest.raises(ValueError):
            ForwardConfig(N=10, alpha=0.0, generations=10)

    def test_nan_fails_naming_the_parameter(self):
        # At alpha = 1e-308 generation 0's ln(N)/alpha overflows.
        for alpha in (math.nan, math.inf, 1e-308):
            with pytest.raises(ValueError, match="alpha"):
                ForwardConfig(N=10, alpha=alpha, generations=10)

    def test_unit_start(self):
        cfg = ForwardConfig(N=100, alpha=2.0, generations=1)
        st = initial_state(cfg)
        assert st.log_global == pytest.approx(math.log(100) / 2.0)
        assert st.log_holder_mean == pytest.approx(0.0)
        assert st.log_fittest == pytest.approx(0.0)

    def test_holder_mean_definition_invariant(self):
        cfg = ForwardConfig(N=64, alpha=1.5, generations=5)
        states = trajectory(cfg, RngStream(70))
        for st in states:
            assert st.log_holder_mean == pytest.approx(
                st.log_global - math.log(64) / 1.5, abs=1e-12
            )
        assert states[-1].k == 5

    def test_trajectory_length(self):
        cfg = ForwardConfig(N=10, alpha=1.0, generations=7)
        states = trajectory(cfg, RngStream(71))
        assert [s.k for s in states] == list(range(8))


class TestLogSpaceConsistency:
    def test_explicit_mode_reproduces_log_recursion(self):
        # Materialized fitness vectors, re-aggregated in plain floating
        # point, must agree with the pure log-space recursion pathwise, and
        # iterating explicit_fitnesses walks the trajectory state for state.
        for N, alpha in [(4, 1.0), (8, 0.7), (6, 2.5)]:
            cfg = ForwardConfig(N=N, alpha=alpha, generations=5)
            states = trajectory(cfg, RngStream(72, N))
            st_exp = initial_state(cfg)
            rng_b = RngStream(72, N)
            for st_log in states[1:]:
                st_exp, fits = explicit_fitnesses(st_exp, cfg, rng_b)
                assert st_exp == st_log
                holder = (np.sum(fits**alpha) / N) ** (1.0 / alpha)
                assert math.exp(st_exp.log_holder_mean) == pytest.approx(
                    holder, abs=1e-10, rel=1e-10
                )
                assert np.all(np.diff(fits) <= 0)  # ranked fittest first
                assert math.exp(st_exp.log_fittest) == pytest.approx(
                    fits[0], rel=1e-12
                )

    def test_batch_size_does_not_change_the_path(self, monkeypatch):
        # Arrival rows drawn across many small blocks consume the stream as
        # one large block does, so every state is bitwise the same.
        cfg = ForwardConfig(N=10, alpha=1.5, generations=300)
        states = trajectory(cfg, RngStream(96))
        incs = increments(cfg, RngStream(97))
        monkeypatch.setattr(forward, "_ARRIVAL_ELEMENTS", 64)
        assert trajectory(cfg, RngStream(96)) == states
        assert np.array_equal(increments(cfg, RngStream(97)), incs)

    def test_arrival_blocks_bound_memory(self):
        # One block of every generation's arrivals would be 2000 x 10001
        # doubles (160 MB); the arrival blocks hold about 2^16 doubles.
        cfg = ForwardConfig(N=10_000, alpha=1.0, generations=2000)
        tracemalloc.start()
        try:
            states = trajectory(cfg, RngStream(98))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(states) == 2001
        assert peak < 16 * 2**20

    def test_generation_cap_fails_before_drawing(self, monkeypatch):
        # Each stored state costs about 350 B, so the cap bounds memory;
        # the speed path keeps one double a generation and has no cap.
        monkeypatch.setattr(forward, "_MAX_GENERATIONS", 5)
        rng = RngStream(99)
        with pytest.raises(ValueError, match="generations must be <= 5"):
            trajectory(ForwardConfig(N=10, alpha=1.0, generations=6), rng)
        assert np.array_equal(rng.gen.random(3), RngStream(99).gen.random(3))
        assert len(trajectory(ForwardConfig(10, 1.0, 5), RngStream(99))) == 6
        assert increments(ForwardConfig(10, 1.0, 6), RngStream(99)).size == 6


class TestDrift:
    def test_selection_part_is_digamma(self):
        # E(ln tau_(N+1)) = psi(N+1) for an Erlang arrival time.
        N = 50
        rng = RngStream(74)
        tau = rng.gen.gamma(N + 1, size=100_000)
        logs = np.log(tau)
        se = logs.std(ddof=1) / math.sqrt(logs.size)
        assert abs(logs.mean() - special.digamma(N + 1)) < 3 * se

    def test_speed_against_split_oracle(self):
        cfg = ForwardConfig(N=100, alpha=1.0, generations=150)
        est = speed_estimate(cfg, 80, RngStream(75))
        sel, growth = per_step_mean_parts(cfg, 60_000, RngStream(76))
        oracle = sel + growth.value
        se = math.hypot(est.stderr, growth.stderr)
        assert abs(est.value - oracle) < 3 * se

    @pytest.mark.parametrize("N, alpha, seed", [(100, 1.0, 99), (10_000, 1.5, 100)])
    def test_speed_against_exact(self, N, alpha, seed):
        cfg = ForwardConfig(N=N, alpha=alpha, generations=120)
        est = speed_estimate(cfg, 60, RngStream(seed))
        assert abs(est.value - forward_speed_exact(N, alpha)) < 3 * est.stderr

    def test_growth_part_against_exact(self):
        # E ln S_N / alpha = v_N + psi(N+1)/alpha, S_N a sum of N unit Pareto.
        N, alpha = 100, 1.0
        cfg = ForwardConfig(N=N, alpha=alpha, generations=1)
        _, growth = per_step_mean_parts(cfg, 200_000, RngStream(102))
        exact = forward_speed_exact(N, alpha) + special.digamma(N + 1) / alpha
        assert abs(growth.value - exact) < 3 * growth.stderr

    def test_k_step_moment_against_exact(self):
        # Increments are i.i.d. over generations, so consecutive k-blocks
        # of one trajectory are independent draws of the k-step sum. At
        # s = beta/alpha = 1/4 the summand's tail index is 1/s = 4, so its
        # variance, and the standard error, are finite.
        N, alpha, beta, k, reps = 100, 1.0, 0.25, 3, 100_000
        cfg = ForwardConfig(N=N, alpha=alpha, generations=k * reps)
        incs = increments(cfg, RngStream(103)).reshape(reps, k)
        vals = np.exp(beta * incs.sum(axis=1))
        se = vals.std(ddof=1) / math.sqrt(reps)
        exact = forward_moment_exact(N, alpha, beta, k)
        assert abs(vals.mean() - exact) < 3 * se

    def test_moment_oracle_slope_is_the_speed(self):
        # d/dbeta ln E exp(beta * increment) at beta = 0 is the mean
        # increment, so the two oracles must agree.
        h = 1e-5
        slope = math.log(forward_moment_exact(100, 1.0, h, 1)) / h
        assert slope == pytest.approx(forward_speed_exact(100, 1.0), abs=1e-4)

    def test_speed_scales_inversely_with_alpha(self):
        cfg1 = ForwardConfig(N=100, alpha=1.0, generations=120)
        cfg2 = ForwardConfig(N=100, alpha=2.0, generations=120)
        e1 = speed_estimate(cfg1, 60, RngStream(77))
        e2 = speed_estimate(cfg2, 60, RngStream(78))
        se = math.hypot(0.5 * e1.stderr, e2.stderr)
        assert abs(e2.value - 0.5 * e1.value) < 3 * se

    def test_speed_grows_with_population(self):
        e_small = speed_estimate(
            ForwardConfig(N=16, alpha=1.0, generations=120), 60, RngStream(79)
        )
        e_big = speed_estimate(
            ForwardConfig(N=4096, alpha=1.0, generations=120), 60, RngStream(80)
        )
        assert e_big.value > e_small.value

    def test_drift_tracks_log_log_population(self):
        N = 10_000
        cfg = ForwardConfig(N=N, alpha=1.0, generations=1000)
        incs = increments(cfg, RngStream(95))
        assert abs(incs.mean() - math.log(math.log(N))) / math.log(
            math.log(N)
        ) < 0.15

    def test_replica_moments_identity(self):
        # E(m^beta) after k generations factorizes into per-step moments.
        N, alpha, beta, k = 100, 1.0, 0.5, 3
        cfg = ForwardConfig(N=N, alpha=alpha, generations=k)
        rng = RngStream(81)
        reps = 40_000
        vals = np.empty(reps)
        for r, child in enumerate(rng.spawn(reps)):
            incs = increments(cfg, child)
            vals[r] = math.exp(beta * incs.sum())
        lhs = vals.mean()
        lhs_se = vals.std(ddof=1) / math.sqrt(reps)

        aux = RngStream(82)
        tau = aux.gen.gamma(N + 1, size=100_000)
        f1 = tau ** (-beta / alpha)
        y = 1.0 / aux.uniform_open((100_000, N))
        f2 = y.sum(axis=1) ** (beta / alpha)
        m1, m2 = f1.mean(), f2.mean()
        se1 = f1.std(ddof=1) / math.sqrt(f1.size)
        se2 = f2.std(ddof=1) / math.sqrt(f2.size)
        rhs = (m1 * m2) ** k
        # delta method on k * (log m1 + log m2)
        rhs_se = rhs * k * math.hypot(se1 / m1, se2 / m2)
        assert abs(lhs - rhs) < 3 * math.hypot(lhs_se, rhs_se)

    def test_selection_factor_moment_is_gamma_ratio(self):
        N, alpha, beta = 50, 1.0, 0.5
        rng = RngStream(83)
        tau = rng.gen.gamma(N + 1, size=200_000)
        w = tau ** (-beta / alpha)
        se = w.std(ddof=1) / math.sqrt(w.size)
        expect = math.exp(
            special.gammaln(N + 1 - beta / alpha) - special.gammaln(N + 1)
        )
        assert abs(w.mean() - expect) < 3 * se


class TestPressure:
    def test_zero_bias_is_zero(self):
        for alpha, N in [(1.0, 100), (2.0, 10**4), (0.8, 10**6)]:
            assert pressure(alpha, N, 0.0) == 0.0

    def test_slope_at_zero(self):
        h = 1e-6
        slope = (pressure(1.0, 10**4, h) - pressure(1.0, 10**4, -h)) / (2 * h)
        assert -slope == pytest.approx(1.808, abs=2e-3)

    def test_requires_sub_alpha_bias(self):
        with pytest.raises(ValueError):
            pressure(1.0, 100, 1.0)

    def test_legendre_tangency(self):
        alpha, N = 1.0, 10**4
        h = 1e-6
        for b0 in (-2.0, -0.5, 0.0, 0.4):
            a = (pressure(alpha, N, b0 + h) - pressure(alpha, N, b0 - h)) / (2 * h)
            f = legendre(alpha, N, a)
            # tangency: the transform value equals a*b0 - F(b0) at the touch
            assert f == pytest.approx(a * b0 - pressure(alpha, N, b0), abs=1e-6)

    def test_legendre_zero_slope_of_typical_value(self):
        alpha, N = 1.0, 10**4
        h = 1e-6
        a0 = (pressure(alpha, N, h) - pressure(alpha, N, -h)) / (2 * h)
        assert abs(legendre(alpha, N, a0)) < 1e-9

    def test_legendre_out_of_range(self):
        with pytest.raises(ValueError, match="slope range"):
            legendre(1.0, 10**4, -10.0)


class TestFittest:
    def test_median_and_mean(self):
        cfg = ForwardConfig(N=100, alpha=2.0, generations=1)
        st = fittest_stats(cfg, 400_000, RngStream(84))
        target_med = math.log(2.0) ** (-0.5)
        assert abs(st.median_ratio - target_med) < 0.01
        assert st.mean_ratio is not None
        assert abs(st.mean_ratio - math.sqrt(math.pi)) < 3 * st.mean_stderr
        assert frechet_mean(2.0) == pytest.approx(math.sqrt(math.pi))

    def test_mean_suppressed_for_small_alpha(self):
        cfg = ForwardConfig(N=100, alpha=0.8, generations=1)
        st = fittest_stats(cfg, 1000, RngStream(85))
        assert st.mean_ratio is None
        with pytest.raises(ValueError):
            frechet_mean(0.8)

    def test_one_replica_fails_before_drawing(self):
        cfg = ForwardConfig(N=100, alpha=0.8, generations=1)
        for replicas in (0, 1):
            with pytest.raises(ValueError, match="replicas >= 2"):
                fittest_stats(cfg, replicas, RngStream(86))


class TestGenealogy:
    def test_probabilities_normalized(self):
        cfg = ForwardConfig(N=500, alpha=1.5, generations=1)
        _, fit = explicit_fitnesses(initial_state(cfg), cfg, RngStream(86))
        for mode in ("plain", "distorted"):
            p = selection_probs(fit, cfg.alpha, mode)
            assert p.shape == (500,)
            assert p.min() > 0
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_plain_mode_is_alpha_free(self):
        N, reps = 500, 40_000
        a = forward_genealogy_c_N(0.7, N, "plain", reps, RngStream(87))
        b = forward_genealogy_c_N(1.5, N, "plain", reps, RngStream(88))
        se = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) < 3 * se
        ref = estimate_c_N_conditional(
            PartitionModel.pareto(1.0, N), reps, RngStream(89)
        )
        assert abs(a.value - ref.value) < 3 * math.hypot(a.stderr, ref.stderr)

    def test_distorted_mode_matches_segment_model(self):
        N, reps = 500, 40_000
        est = forward_genealogy_c_N(1.5, N, "distorted", reps, RngStream(90))
        ref = estimate_c_N_conditional(
            PartitionModel.pareto(1.5, N), reps, RngStream(91)
        )
        assert abs(est.value - ref.value) < 3 * math.hypot(est.stderr, ref.stderr)


class TestExplicitOverflow:
    def test_overflow_raises_and_names_the_log_space_step(self):
        # From unit fitnesses at alpha = 1, N = 100 the global fitness
        # passes the largest double after about 350 generations.
        cfg = ForwardConfig(N=100, alpha=1.0, generations=1)
        st, rng = initial_state(cfg), RngStream(3)
        with pytest.raises(OverflowError, match=r"ln\(max double\).*trajectory\(\)"):
            for _ in range(1000):
                st, fit = explicit_fitnesses(st, cfg, rng)
                assert np.all(np.isfinite(fit))
        assert 300 < st.k < 400


class TestLogSpaceOverflow:
    # At alpha = 1e-306, N = 10 generation 0's ln(N)/alpha = 2.3e306 is
    # finite, but each log increment is about 1e306, so the log-space sums
    # leave the doubles after about a hundred generations.
    def tiny(self, generations=400, alpha=1e-306):
        return ForwardConfig(N=10, alpha=alpha, generations=generations)

    def test_trajectory_names_the_first_infinite_generation(self):
        with np.errstate(all="ignore"):
            states = trajectory(self.tiny(114), RngStream(0))
            assert np.isfinite([s.log_fittest for s in states]).all()
            with pytest.raises(ValueError, match=(
                    r"generation 115 overflows at alpha=1e-306, N=10")):
                trajectory(self.tiny(115), RngStream(0))

    # np.errstate does not reach the replica threads of speed_estimate
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_speed_path_raises_naming_alpha_and_N(self):
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=(
                    r"speed estimate overflows at alpha=1e-306, N=10")):
                speed_estimate(self.tiny(), 2, RngStream(0))
            with pytest.raises(ValueError, match=(
                    r"growth part overflows at alpha=1e-306, N=10")):
                per_step_mean_parts(self.tiny(), 20, RngStream(0))
            # ln(10)/alpha = 1.5e308 is finite, a larger log point sum is not
            with pytest.raises(ValueError, match=(
                    r"log increment overflows at alpha=1.5e-308, N=10")):
                increments(self.tiny(alpha=1.5e-308), RngStream(0))
