import math

import numpy as np
import pytest

from freeqg import (
    DomainError,
    catalan,
    semicircle_cdf,
    semicircle_density,
    semicircle_moment,
    semicircle_sample,
    spectrum_interval,
)


class TestDensity:
    def test_point_values(self):
        assert semicircle_density(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert semicircle_density(2.0) == 0.0
        assert semicircle_density(-2.0) == 0.0
        assert semicircle_density(3.0) == 0.0
        assert semicircle_density(-5.1) == 0.0

    def test_even_and_nonnegative(self):
        xs = np.linspace(-3, 3, 401)
        values = semicircle_density(xs)
        assert np.all(values >= 0)
        assert values == pytest.approx(semicircle_density(-xs))

    def test_array_shape(self):
        assert semicircle_density(np.zeros((2, 3))).shape == (2, 3)


class TestMoments:
    def test_total_mass(self):
        assert semicircle_moment(0) == pytest.approx(1.0, abs=1e-10)

    def test_small_even_moments(self):
        assert semicircle_moment(2) == pytest.approx(1.0, abs=1e-10)
        assert semicircle_moment(6) == pytest.approx(5.0, abs=1e-10)

    def test_matches_catalan(self):
        for m in range(9):
            assert semicircle_moment(2 * m, 10_000) == pytest.approx(catalan(m), abs=1e-8)

    def test_odd_moments_vanish(self):
        for k in (1, 3, 5, 9, 15):
            assert abs(semicircle_moment(k)) <= 1e-12

    def test_minimum_subdivisions(self):
        assert semicircle_moment(4, 64) == pytest.approx(2.0, abs=1e-8)
        with pytest.raises(DomainError):
            semicircle_moment(2, 32)


class TestCdf:
    def test_endpoints_and_center(self):
        assert semicircle_cdf(-2.0) == pytest.approx(0.0, abs=1e-15)
        assert semicircle_cdf(0.0) == pytest.approx(0.5, rel=1e-15)
        assert semicircle_cdf(2.0) == pytest.approx(1.0, rel=1e-15)
        assert semicircle_cdf(-7.0) == 0.0
        assert semicircle_cdf(7.0) == 1.0

    def test_monotone_and_matches_quadrature(self):
        xs = np.linspace(-2, 2, 101)
        values = semicircle_cdf(xs)
        assert np.all(np.diff(values) >= 0)
        # independent check: integrate the density with the trapezoid rule
        fine = np.linspace(-2.0, 1.0, 300_001)
        trapz = np.trapezoid(semicircle_density(fine), fine)
        assert semicircle_cdf(1.0) == pytest.approx(trapz, abs=1e-8)


class TestSampling:
    def test_support_and_reproducibility(self):
        first = semicircle_sample(42, 5000)
        assert first.shape == (5000,)
        assert first.min() >= -2.0 and first.max() <= 2.0
        again = semicircle_sample(42, 5000)
        assert np.array_equal(first, again)
        other = semicircle_sample(43, 5000)
        assert not np.array_equal(first, other)

    def test_prefix_consistency(self):
        # the chunked loop must not make the stream depend on count in a
        # nondeterministic way: same seed, same count, same values
        a = semicircle_sample(7, 1234)
        b = semicircle_sample(7, 1234)
        assert np.array_equal(a, b)

    def test_loose_moments(self):
        samples = semicircle_sample(2024, 200_000)
        assert abs(samples.mean()) < 0.02
        assert abs((samples**2).mean() - 1.0) < 0.02
        assert abs((samples**4).mean() - 2.0) < 0.06

    def test_count_validation(self):
        with pytest.raises(DomainError):
            semicircle_sample(1, 0)

    def test_seed_validation(self):
        # these used to leak numpy's ValueError / TypeError
        for seed in (-1, 1.5, "x"):
            with pytest.raises(DomainError):
                semicircle_sample(seed, 3)
        # None still draws a fresh, unseeded stream
        unseeded = semicircle_sample(None, 100)
        assert unseeded.shape == (100,) and np.all(np.abs(unseeded) <= 2.0)
        assert np.array_equal(semicircle_sample(np.int64(42), 100), semicircle_sample(42, 100))


class TestSpectrumInterval:
    def test_examples(self):
        assert spectrum_interval("reduced", 7) == (-2.0, 2.0)
        assert spectrum_interval("full", 3) == (-3.0, 3.0)
        assert spectrum_interval("full", 2) == spectrum_interval("reduced", 2)

    def test_all_small_n(self):
        for n in range(2, 11):
            assert spectrum_interval("reduced", n) == (-2.0, 2.0)
            assert spectrum_interval("full", n) == (-float(n), float(n))

    def test_domain(self):
        with pytest.raises(DomainError):
            spectrum_interval("reduced", 1)
        with pytest.raises(DomainError):
            spectrum_interval("banach", 3)
        for spelling in ("Reduced", " full", "FULL", "reduced\n"):
            with pytest.raises(DomainError, match="algebra must be"):
                spectrum_interval(spelling, 3)
