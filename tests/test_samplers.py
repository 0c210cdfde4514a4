import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special

from paretocoal import samplers
from paretocoal.finite_mc import (
    PartitionModel,
    estimate_c_N_conditional,
    estimate_p_row,
)
from paretocoal.forward import ForwardConfig, speed_estimate
from paretocoal.samplers import (
    GcltConstants,
    RngStream,
    frechet_sample,
    gclt_constants,
    pareto_sample,
    poisson_arrivals,
    standardized_sum_stats,
)
from paretocoal.simulate import kingman_functionals


def median_stderr(samples: np.ndarray) -> float:
    """Large-sample standard error of the sample median via the density
    estimated from the interquartile spread (normal-reference rule)."""
    n = samples.size
    q25, q75 = np.quantile(samples, [0.25, 0.75])
    f_med = 0.3989 / ((q75 - q25) / 1.349)
    return 1.0 / (2.0 * f_med * math.sqrt(n))


class TestRngStream:
    def test_bit_identical_for_same_key(self):
        a = RngStream(42, 3).gen.random(1000)
        b = RngStream(42, 3).gen.random(1000)
        assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).gen.random(100)
        b = RngStream(42, 1).gen.random(100)
        assert not np.array_equal(a, b)

    def test_spawned_children_are_new_streams(self):
        parent = RngStream(7)
        children = parent.spawn(3)
        for k, child in enumerate(children):
            assert child != parent
            assert all(child != other for other in children[k + 1:])
        first = [c.gen.random(8) for c in children]
        roots = [RngStream(7, j).gen.random(8) for j in range(4)]
        for draws in first:
            assert not any(np.array_equal(draws, r) for r in roots)
        again = [c.gen.random(8) for c in RngStream(7).spawn(3)]
        for a, b in zip(first, again):
            assert_array_equal(a, b)

    def test_negative_seed_and_stream_accepted(self):
        # Each root is reproducible and differs from its would-be twin: the
        # same index with the sign flipped, or a spawned child whose key
        # words a 64-bit root index could spell out.
        pairs = [
            ((-12345, -7), RngStream(-12345, 7)),
            ((5, 2**32 + 1), RngStream(5, 1).spawn(2)[1]),
        ] + [((9, k << 32), RngStream(9, 0).spawn(k + 1)[k]) for k in (1, 3)]
        for (seed, index), twin in pairs:
            a = RngStream(seed, index).gen.random(64)
            assert_array_equal(a, RngStream(seed, index).gen.random(64))
            assert not np.array_equal(a, twin.gen.random(64))

    def test_uniform_open_excludes_zero(self):
        u = RngStream(0).uniform_open(100000)
        assert u.min() > 0.0
        assert u.max() <= 1.0


class TestPareto:
    def test_support(self):
        x = pareto_sample(0.5, RngStream(1), 100000)
        assert x.min() >= 1.0

    def test_mean_alpha_three(self):
        x = pareto_sample(3.0, RngStream(2, 1), 1_000_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.5) < 3 * se

    def test_median_alpha_one(self):
        x = pareto_sample(1.0, RngStream(3), 500_000)
        med = np.median(x)
        assert abs(med - 2.0) < 3 * median_stderr(x)

    def test_quantile_transform(self):
        # P(X > x) = x^-alpha: compare the empirical tail at x = 4, alpha = 1
        x = pareto_sample(1.0, RngStream(4), 400_000)
        phat = (x > 4.0).mean()
        se = math.sqrt(0.25 * 0.75 / x.size)
        assert abs(phat - 0.25) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            pareto_sample(0.0, RngStream(0), 10)


class TestGamma:
    """The one gamma sampler is PartitionModel.draw of the gamma family."""

    def test_moments(self):
        x = PartitionModel.gamma(2.0, 1).draw(1_000_000, RngStream(5))
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 2.0) < 3 * se
        assert abs(x.var(ddof=1) - 2.0) < 0.05

    def test_exponential_median(self):
        x = PartitionModel.gamma(1.0, 1).draw(500_000, RngStream(6))
        assert abs(np.median(x) - math.log(2.0)) < 3 * median_stderr(x)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionModel.gamma(-1.0, 1)


class TestPoissonArrivals:
    def test_strictly_increasing(self):
        for k in range(20):
            tau = poisson_arrivals(1, 50, RngStream(7, k))[0]
            assert np.all(np.diff(tau) > 0)

    def test_first_arrival_mean(self):
        t1 = np.array([poisson_arrivals(1, 1, RngStream(8, k))[0, 0] for k in range(4000)])
        se = t1.std(ddof=1) / math.sqrt(t1.size)
        assert abs(t1.mean() - 1.0) < 3 * se

    def test_fifth_arrival_mean(self):
        t5 = np.array([poisson_arrivals(1, 5, RngStream(9, k))[0, -1] for k in range(4000)])
        se = t5.std(ddof=1) / math.sqrt(t5.size)
        assert abs(t5.mean() - 5.0) < 3 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(1, 0, RngStream(0))


class TestFrechet:
    def test_positive(self):
        x = frechet_sample(2.0, RngStream(10), 100000)
        assert x.min() > 0

    def test_median(self):
        x = frechet_sample(2.0, RngStream(11), 1_000_000)
        target = math.log(2.0) ** (-0.5)
        assert abs(np.median(x) - target) < 3 * median_stderr(x)

    def test_mean_is_gamma_of_one_minus_inv_alpha(self):
        x = frechet_sample(2.0, RngStream(12), 1_000_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - math.sqrt(math.pi)) < 3 * se


class TestGcltConstants:
    def test_alpha_one(self):
        c = gclt_constants(1.0, 50)
        assert c.C_alpha == pytest.approx(math.pi / 2.0)
        assert c.regime_tag == "cauchy(1)"

    def test_alpha_three_centering(self):
        c = gclt_constants(3.0, 100)
        assert c.a_N == pytest.approx(150.0)
        assert c.regime_tag == "normal(>2)"
        # C_alpha^2 = Var(X) = alpha/(alpha-2) - mu^2
        assert c.C_alpha**2 == pytest.approx(3.0 - 2.25)

    def test_alpha_three_halves_scaling(self):
        c = gclt_constants(1.5, 1000)
        # reference: (|Gamma(-0.5)| cos(3 pi/4) < 0 product is positive)
        prod = special.gamma(-0.5) * math.cos(0.75 * math.pi)
        assert c.C_alpha == pytest.approx(prod ** (2.0 / 3.0), rel=1e-12)
        assert c.b_N == pytest.approx(184.527, rel=1e-3)
        assert c.a_N == pytest.approx(1000 * 3.0)

    def test_alpha_below_one(self):
        c = gclt_constants(0.5, 100)
        assert c.a_N == 0.0
        assert c.regime_tag == "stable(0,1)"
        # (Gamma(0.5) cos(pi/4))^2 = pi/2
        assert c.C_alpha == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert c.b_N == pytest.approx(math.pi / 2.0 * 100**2, rel=1e-12)

    def test_alpha_two(self):
        c = gclt_constants(2.0, 1000)
        assert c.b_N == pytest.approx(math.sqrt(1000 * math.log(1000)))
        assert c.a_N == pytest.approx(2000.0)
        assert c.regime_tag == "critical(2)"

    def test_tail_constant_against_scipy(self):
        # Gamma(1-alpha) and cos(pi alpha/2) both change sign at alpha = 1.
        for alpha in [t / 10 for t in (*range(1, 10), *range(11, 20))]:
            prod = special.gamma(1.0 - alpha) * math.cos(math.pi * alpha / 2.0)
            assert prod > 0
            c = gclt_constants(alpha, 10).C_alpha
            assert c == pytest.approx(prod ** (1.0 / alpha), rel=1e-12)

    def test_b_positive(self):
        for alpha in (0.3, 1.0, 1.5, 2.0, 2.5, 4.0):
            assert gclt_constants(alpha, 10).b_N > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            gclt_constants(-1.0, 10)
        with pytest.raises(ValueError):
            gclt_constants(1.0, 0)
        with pytest.raises(ValueError, match=r"b_N .* alpha=0\.01, N=10000"):
            gclt_constants(0.01, 10_000)


class TestStandardizedSums:
    def test_single_draw_reduces_to_standardized_variate(self):
        stats = standardized_sum_stats(3.0, 1, 1000, RngStream(13))
        # 1000 rows of one element are one replica block: the first child.
        (child,) = RngStream(13).spawn(1)
        x = pareto_sample(3.0, child, (1000, 1)).ravel()
        c = gclt_constants(3.0, 1)
        assert stats.mean == pytest.approx(((x - c.a_N) / c.b_N).mean())

    def test_normal_regime_moments(self):
        stats = standardized_sum_stats(3.0, 2000, 4000, RngStream(14))
        assert abs(stats.mean) < 3 * stats.mean_stderr
        assert abs(stats.variance - 1.0) < 0.10

    def test_heavy_tail_median_scaling(self):
        a = standardized_sum_stats(0.5, 1000, 3000, RngStream(15))
        b = standardized_sum_stats(0.5, 10000, 3000, RngStream(16))
        ratio = b.raw_median / a.raw_median
        assert abs(ratio - 100.0) < 15.0

    def test_sum_tail_tracks_single_large_jump(self):
        # For alpha < 1 the sum's tail is N times one variate's tail.
        N, alpha, reps = 10, 0.5, 200_000
        sums = pareto_sample(alpha, RngStream(17), (reps, N)).sum(axis=1)
        s = np.quantile(sums, 0.999)
        ratio = (sums > s).mean() / (N * s**-alpha)
        assert 0.7 < ratio < 1.3

    def test_replica_floor(self):
        with pytest.raises(ValueError):
            standardized_sum_stats(3.0, 10, 999, RngStream(0))

    def test_degenerate_scaling_rejected(self):
        # alpha = 2, N = 1 has b_N = sqrt(1 * log 1) = 0
        with pytest.raises(ValueError, match="b_N"):
            standardized_sum_stats(2.0, 1, 1000, RngStream(0))

    def test_overflow_raises_without_numpy_warning(self):
        # U^-200 overflows for U < exp(-3.55), about 3% of draws; b_N is
        # finite. Each worker thread sets its own errstate, so numpy's
        # overflow warning must not escape from the pool either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow a double"):
                standardized_sum_stats(0.005, 10, 200_000, RngStream(18))


class TestNonFiniteAlpha:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0])
    def test_fails_naming_alpha(self, alpha):
        for call in (
            lambda: pareto_sample(alpha, RngStream(0), 10),
            lambda: frechet_sample(alpha, RngStream(0), 10),
            lambda: gclt_constants(alpha, 10),
        ):
            with pytest.raises(ValueError, match="alpha"):
                call()


def _with_workers(monkeypatch, run, workers=1):
    """run() on the default pool, then on a pool of `workers` threads."""
    default = run()
    pool = ThreadPoolExecutor(workers)
    monkeypatch.setattr(samplers, "_pool", lambda: pool)
    try:
        return default, run()
    finally:
        pool.shutdown()


class TestReplicaBlocks:
    @pytest.mark.parametrize(
        "model",
        [PartitionModel.gamma(1.0, 1000, beta=1.0),
         PartitionModel.pareto(1.5, 1000, beta=0.5)],
    )
    def test_p_row_independent_of_thread_count(self, monkeypatch, model):
        # 5000 replicas at N = 1000 are five blocks
        many, one = _with_workers(
            monkeypatch, lambda: estimate_p_row(model, 4, 5000, RngStream(19))
        )
        assert many == one

    def test_conditional_c_N_independent_of_thread_count(self, monkeypatch):
        model = PartitionModel.pareto(0.8, 2000, beta=0.4)
        many, one = _with_workers(
            monkeypatch,
            lambda: estimate_c_N_conditional(model, 3000, RngStream(20)),
        )
        assert many == one

    def test_sum_stats_independent_of_thread_count(self, monkeypatch):
        many, one = _with_workers(
            monkeypatch,
            lambda: standardized_sum_stats(1.5, 1000, 3000, RngStream(21)),
        )
        assert many == one

    def test_kingman_independent_of_thread_count(self, monkeypatch):
        many, one = _with_workers(
            monkeypatch, lambda: kingman_functionals(200, 20_000, RngStream(22))
        )
        assert many.keys() == one.keys()
        for key in many:
            assert_array_equal(many[key], one[key])

    def test_speed_independent_of_thread_count(self, monkeypatch):
        cfg = ForwardConfig(N=100, alpha=1.0, generations=100)
        many, one = _with_workers(
            monkeypatch, lambda: speed_estimate(cfg, 8, RngStream(23))
        )
        assert many == one

    def test_more_threads_than_cores_with_fast_switching(self, monkeypatch):
        model = PartitionModel.pareto(1.5, 200, beta=0.5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            default, eight = _with_workers(
                monkeypatch,
                lambda: estimate_p_row(model, 3, 40_000, RngStream(26)),
                workers=8,
            )
        finally:
            sys.setswitchinterval(interval)
        assert default == eight

    def test_successive_calls_draw_fresh_blocks(self):
        model = PartitionModel.pareto(1.5, 1000)
        rng = RngStream(24)
        a = estimate_c_N_conditional(model, 3000, rng)
        b = estimate_c_N_conditional(model, 3000, rng)
        assert a.value != b.value
        assert a == estimate_c_N_conditional(model, 3000, RngStream(24))

    def test_blocks_bound_memory(self):
        # 5000 rows of 10^4 doubles are 400 MB; blocks of 2^20 doubles,
        # at most one drawing per thread, stay far below it.
        model = PartitionModel.pareto(0.8, 10_000)
        tracemalloc.start()
        try:
            estimate_c_N_conditional(model, 5000, RngStream(25))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
