import math
import warnings

import numpy as np
import pytest

from paretocoal.weighted import RatioAccumulator, WeightedEstimate, mean_estimate


def successive_difference_se(v):
    """The mean's stderr from steps between neighbours, unit weights."""
    n = v.size
    return math.sqrt(n / (n - 1) * np.sum(np.diff(v) ** 2) / 2) / n


class TestRatioAccumulator:
    def test_zero_log_weights_reduce_to_sample_mean(self):
        rng = np.random.default_rng(0)
        v = rng.random(5000)
        acc = RatioAccumulator()
        acc.add(np.zeros(2500), v[:2500])
        acc.add(np.zeros(2500), v[2500:])
        est = acc.estimate()
        assert est.value == pytest.approx(v.mean(), rel=1e-12)
        assert est.ess == pytest.approx(5000.0)
        # with unit weights the steps of z = v - R are the steps of v, and
        # the stderr is the successive-difference one across both adds
        assert est.stderr == pytest.approx(
            successive_difference_se(v), rel=1e-9
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.random(4000)
        logw = rng.normal(size=4000)
        a = RatioAccumulator()
        a.add(logw, v)
        b = RatioAccumulator()
        b.add(logw + 123.456, v)
        ea, eb = a.estimate(), b.estimate()
        assert ea.value == pytest.approx(eb.value, rel=1e-10)
        assert ea.stderr == pytest.approx(eb.stderr, rel=1e-8)
        assert ea.ess == pytest.approx(eb.ess, rel=1e-10)

    def test_chunking_is_equivalent(self):
        rng = np.random.default_rng(2)
        v = rng.random(3000)
        logw = rng.normal(size=3000)
        one = RatioAccumulator()
        one.add(logw, v)
        many = RatioAccumulator()
        for lo in range(0, 3000, 500):
            many.add(logw[lo : lo + 500], v[lo : lo + 500])
        a, b = many.estimate(), one.estimate()
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-12)
        assert a.ess == pytest.approx(b.ess, rel=1e-12)

    def test_one_replica_batches_at_large_bias(self):
        # Size-biased c_N at alpha = 2.5, beta = 300, N = 50, fed one replica
        # at a time: later weights exceed the first by hundreds of orders of
        # magnitude, so sums of w^2 taken against the first would overflow.
        rng = np.random.default_rng(4)
        x = (1.0 - rng.random((20_000, 50))) ** (-1.0 / 2.5)
        s = x.sum(axis=1)
        logw, v = 300.0 * np.log(s), (x * x).sum(axis=1) / (s * s)
        one = RatioAccumulator()
        one.add(logw, v)
        many = RatioAccumulator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(v.size):
                many.add(logw[k : k + 1], v[k : k + 1])
        a, b = many.estimate(), one.estimate()
        assert all(math.isfinite(t) for t in (a.value, a.stderr, a.ess))
        assert a.value == pytest.approx(b.value, rel=1e-12)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-9)
        assert a.ess == pytest.approx(b.ess, rel=1e-12)

    def test_no_cancellation_at_large_offset(self):
        # Unit weights and v = 1e8 + U(0, 1): raw second moments would cancel
        # (to a stderr of 0.0); centered sums keep the true 2.9e-4.
        rng = np.random.default_rng(5)
        u = rng.random(1_000_000)
        v = 1e8 + u
        want = successive_difference_se(u)
        acc = RatioAccumulator()
        for lo in range(0, v.size, 250_000):
            acc.add(np.zeros(250_000), v[lo : lo + 250_000])
        assert acc.estimate().stderr == pytest.approx(want, rel=1e-6)

    def test_vector_columns(self):
        rng = np.random.default_rng(3)
        v = rng.random((2000, 3))
        logw = rng.normal(size=2000)
        acc = RatioAccumulator(columns=3)
        acc.add(logw, v)
        ests = acc.estimates()
        for k in range(3):
            solo = RatioAccumulator()
            solo.add(logw, v[:, k])
            assert ests[k].value == pytest.approx(solo.estimate().value, rel=1e-12)

    def test_known_ratio(self):
        # w concentrated on half the replicas: ratio is a weighted mean
        v = np.array([1.0, 0.0, 1.0, 0.0])
        logw = np.log(np.array([2.0, 2.0, 1.0, 1.0]))
        acc = RatioAccumulator()
        acc.add(logw, v)
        assert acc.estimate().value == pytest.approx(0.5)
        # ess = (sum w)^2 / sum w^2 = 36/10
        assert acc.estimate().ess == pytest.approx(3.6)

    def test_ordered_rows_by_hand(self):
        # w = 1, 2, 3, 4 and v = 1, 0, 0, 1: R = 5/10, z = w (v - R) =
        # 1/2, -1, -3/2, 2, successive steps -3/2, -1/2, 7/2, so
        # Var(sum z) = 4/3 * (9/4 + 1/4 + 49/4) / 2 = 59/6.
        logw, v = np.log([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 0.0, 0.0, 1.0])
        acc = RatioAccumulator()
        acc.add(logw, v)
        est = acc.estimate()
        assert est.value == pytest.approx(0.5, rel=1e-15)
        assert est.stderr == pytest.approx(math.sqrt(59 / 6) / 10, rel=1e-14)
        # replicas and ESS count rows: ess = 10^2 / (1 + 4 + 9 + 16)
        assert est.replicas == 4 and est.ess == pytest.approx(100 / 30)

    def test_ordered_steps_leave_the_trend_out(self):
        # Rows on a straight line with no noise: the spread between strata
        # is not sampling error, so only the steps (here 1/999) remain.
        v = np.linspace(0.0, 1.0, 1000)
        acc = RatioAccumulator()
        acc.add(np.zeros(1000), v)
        est = acc.estimate()
        assert est.stderr == pytest.approx(math.sqrt(1000 / 999 * 999 / 2) / 999 / 1000)
        assert est.stderr < np.std(v) / math.sqrt(v.size) / 400

    def test_ordered_chunking_is_equivalent(self):
        # Chunks of 1, 2, 37, ... rows; later chunks raise the maximum
        # log-weight, so the carried last row is rescaled too.
        rng = np.random.default_rng(7)
        v = rng.random((3037, 2))
        logw = rng.normal(size=3037) + np.linspace(0.0, 4.0, 3037)
        one = RatioAccumulator(columns=2)
        one.add(logw, v)
        many = RatioAccumulator(columns=2)
        cuts = [0, 1, 3, 40, 500, 501, 2000, 3037]
        for lo, hi in zip(cuts, cuts[1:]):
            many.add(logw[lo:hi], v[lo:hi])
        for a, b in zip(many.estimates(), one.estimates()):
            assert a.value == pytest.approx(b.value, rel=1e-12)
            assert a.stderr == pytest.approx(b.stderr, rel=1e-12)
            assert a.ess == pytest.approx(b.ess, rel=1e-12)
            assert a.replicas == b.replicas == 3037

    def test_ordered_one_replica_batches_stay_finite(self):
        # Rows whose weights underflow next to the maximum still take part
        # in the steps; one-row batches match one batch of all the rows.
        logw = np.array([0.0, -800.0, -800.0, 5.0, 1.0])
        v = np.array([0.2, 0.9, 0.4, 0.6, 0.1])
        acc = RatioAccumulator()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(v.size):
                acc.add(logw[k : k + 1], v[k : k + 1])
        est = acc.estimate()
        assert all(math.isfinite(t) for t in (est.value, est.stderr, est.ess))
        whole = RatioAccumulator()
        whole.add(logw, v)
        assert est.value == pytest.approx(whole.estimate().value, rel=1e-12)
        assert est.stderr == pytest.approx(whole.estimate().stderr, rel=1e-12)

    def test_ordered_stderr_needs_two_rows(self):
        acc = RatioAccumulator()
        acc.add([0.0], [0.5])
        with pytest.raises(ValueError, match="2 replicas"):
            acc.estimate()
        acc.add([0.0], [0.25])
        assert acc.estimate().stderr == pytest.approx(0.125)

    def test_empty_accumulator_raises(self):
        with pytest.raises(ValueError):
            RatioAccumulator().estimate()


class TestWeightedEstimate:
    def test_degenerate_flag(self):
        assert WeightedEstimate(1.0, 0.1, 1000, 5.0).degenerate
        assert not WeightedEstimate(1.0, 0.1, 1000, 500.0).degenerate

    def test_mean_estimate_wrapper(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        est = mean_estimate(x)
        assert est.value == pytest.approx(2.5)
        assert est.replicas == 4
        assert est.stderr == pytest.approx(x.std(ddof=1) / 2.0)

    def test_mean_estimate_needs_two_values(self):
        for x in (np.array([]), np.array([1.0])):
            with pytest.raises(ValueError, match="replicas >= 2"):
                mean_estimate(x)
