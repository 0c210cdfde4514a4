import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import special

from paretocoal.specfun import (
    EULER_GAMMA,
    digamma,
    log_beta,
    log_binomial,
    log_gamma,
)


class TestLogGamma:
    def test_known_values(self):
        assert abs(log_gamma(1.0)) < 1e-14
        assert abs(log_gamma(2.0)) < 1e-14
        assert_allclose(log_gamma(0.5), 0.5 * math.log(math.pi), rtol=1e-13)
        assert_allclose(log_gamma(10.0), math.log(362880.0), rtol=1e-13)

    def test_matches_reference_over_wide_range(self):
        x = np.concatenate(
            [
                np.geomspace(1e-3, 1.0, 400),
                np.linspace(1.0, 200.0, 400),
                np.geomspace(200.0, 1e6, 200),
            ]
        )
        for xi in x:
            ref = special.gammaln(xi)
            assert abs(log_gamma(xi) - ref) / max(1.0, abs(ref)) < 1e-12

    def test_recurrence_thousand_points(self):
        rng = np.random.default_rng(1234)
        for x in rng.uniform(1e-6, 100.0, size=1000):
            lhs = log_gamma(x + 1.0)
            rhs = log_gamma(x) + math.log(x)
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-11

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e5))
    def test_recurrence_property(self, x):
        assert log_gamma(x + 1.0) == pytest.approx(
            log_gamma(x) + math.log(x), rel=1e-11, abs=1e-11
        )

    def test_domain_errors(self):
        for bad in (0.0, -1.0, -0.5, -2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                log_gamma(bad)


class TestDigamma:
    def test_known_values(self):
        assert_allclose(digamma(1.0), -EULER_GAMMA, atol=1e-12)
        assert_allclose(digamma(2.0), 1.0 - EULER_GAMMA, atol=1e-12)
        assert_allclose(
            digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0), atol=1e-12
        )

    def test_against_reference(self):
        x = np.concatenate(
            [np.geomspace(1e-3, 1.0, 300), np.geomspace(1.0, 1e6, 300)]
        )
        assert np.max(np.abs(digamma(x) - special.digamma(x))) < 1e-10

    def test_matches_finite_difference_of_log_gamma(self):
        h = 1e-5
        for x in np.linspace(0.1, 50.0, 197):
            fd = (log_gamma(x + h) - log_gamma(x - h)) / (2.0 * h)
            assert abs(digamma(x) - fd) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-3.2)


class TestLogBeta:
    def test_known_values(self):
        assert_allclose(log_beta(2.0, 3.0), math.log(1.0 / 12.0), rtol=1e-13)
        assert_allclose(log_beta(0.5, 1.5), math.log(math.pi / 2.0), rtol=1e-13)

    def test_first_argument_one(self):
        for b in (0.25, 1.0, 7.5, 40.0):
            assert_allclose(log_beta(1.0, b), -math.log(b), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_symmetry_exact(self, a, b):
        assert log_beta(a, b) == log_beta(b, a)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)


class TestLogBinomial:
    def test_integer_values(self):
        for n, k in [(5, 2), (10, 0), (10, 10), (52, 5)]:
            assert_allclose(
                log_binomial(n, k), math.log(math.comb(n, k)), atol=1e-11
            )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_binomial(3, 5)
        with pytest.raises(ValueError):
            log_binomial(3, -1)
