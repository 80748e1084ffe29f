import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from freeqg import (
    DomainError,
    cheby_u,
    coeff_ratio,
    coeff_ratios,
    decay_constant,
    dim_orth,
    q_of,
)


def closed_form(n, t):
    # independent route, valid for t > 2 only
    q = (t + math.sqrt(t * t - 4.0)) / 2.0
    return (q ** (n + 1) - q ** -(n + 1)) / (q - 1.0 / q)


class TestChebyU:
    def test_initial_values(self):
        assert cheby_u(0, 7.3) == 1
        assert cheby_u(1, 3) == 3

    def test_small_exact_values(self):
        assert cheby_u(2, 3) == 8
        assert cheby_u(3, 3) == 21

    def test_integer_inputs_stay_exact_integers(self):
        value = cheby_u(40, 3)
        assert isinstance(value, int)
        assert value == dim_orth(40, 3)

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=-50, max_value=50))
    def test_recursion_identity_exact(self, n, x):
        assert x * cheby_u(n, x) == cheby_u(n + 1, x) + cheby_u(n - 1, x)

    @pytest.mark.parametrize("t", [2.1, 2.5, 3.0, 5.0, 10.0, 100.0])
    def test_closed_form_cross_check(self, t):
        for n in range(61):
            expected = closed_form(n, t)
            assert cheby_u(n, t) == pytest.approx(expected, rel=1e-9)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            cheby_u(-1, 3.0)


class TestQ:
    def test_known_values(self):
        assert q_of(2) == 1.0
        assert q_of(3) == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-15)
        assert q_of(4) == pytest.approx(2 + math.sqrt(3), rel=1e-15)

    @given(st.floats(min_value=2.0, max_value=100.0, allow_nan=False))
    def test_defining_identity(self, t):
        q = q_of(t)
        assert q >= 1.0
        assert q + 1.0 / q == pytest.approx(t, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_of(1.999)


class TestDimOrth:
    def test_examples(self):
        assert dim_orth(5, 2) == 6
        assert dim_orth(0, 17) == 1
        assert dim_orth(3, 3) == 21

    def test_n_equals_two_is_linear(self):
        assert [dim_orth(n, 2) for n in range(41)] == list(range(1, 42))

    @pytest.mark.parametrize("N", [3, 4, 5, 9])
    def test_strictly_increasing(self, N):
        dims = [dim_orth(n, N) for n in range(50)]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert dims[0] == 1

    @pytest.mark.parametrize("N", [3, 4, 7])
    def test_matches_closed_form(self, N):
        for n in range(40):
            assert dim_orth(n, N) == pytest.approx(closed_form(n, float(N)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            dim_orth(3, 1)

    @pytest.mark.parametrize("N", [2, 3, 4, 8])
    def test_is_the_integer_recursion(self, N):
        # dim_orth doubles over the bits of n; cheby_u steps through every level
        edges = [2**k + d for k in range(9, 12) for d in (-1, 0, 1)]
        for n in [*range(301), *edges, 3000]:
            value = dim_orth(n, N)
            assert type(value) is int
            assert value == cheby_u(n, N)


class TestCoeffRatio:
    def test_examples(self):
        assert coeff_ratio(0, 2.7, 4) == 1.0
        assert coeff_ratio(1, 2.5, 3) == pytest.approx(2.5 / 3, rel=1e-15)
        assert coeff_ratio(2, 2.5, 5) == pytest.approx(5.25 / 24, rel=1e-15)

    @pytest.mark.parametrize("N", [3, 5])
    def test_range_and_endpoint(self, N):
        for n in range(40):
            for t in np.linspace(2.5, N, 9):
                value = coeff_ratio(n, float(t), N)
                assert 0.0 < value <= 1.0
        for n in range(40):
            assert coeff_ratio(n, float(N), N) == 1.0

    def test_one_only_at_endpoint_or_level_zero(self):
        assert coeff_ratio(3, 2.9, 4) < 1.0
        assert coeff_ratio(0, 2.9, 4) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 7, 19])
    def test_strictly_increasing_in_t(self, n):
        grid = np.linspace(2.5, 6.0, 30)
        values = [coeff_ratio(n, float(t), 6) for t in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            coeff_ratio(1, 2.4, 5)  # below t0
        with pytest.raises(DomainError):
            coeff_ratio(1, 5.1, 5)  # above N
        with pytest.raises(DomainError):
            coeff_ratio(1, 2.5, 2)  # N too small

    def test_overflowing_level_is_domain_error(self):
        # u_n(3.0) overflows a double at n = 738; the ratio used to read 0.0
        # there and NaN from n = 740 on
        assert 0.0 < coeff_ratio(737, 2.9, 3) == cheby_u(737, 2.9) / cheby_u(737, 3.0)
        for n, N in ((738, 3), (740, 3), (2000, 3), (500, 6)):
            with pytest.raises(DomainError, match=f"level n={n} for N={N}"):
                coeff_ratio(n, 2.9, N)
        for N in (3, 4, 6, 8):
            last = max(n for n in range(800) if math.isfinite(cheby_u(n, float(N))))
            assert 0.0 < coeff_ratio(last, 2.7, N) == cheby_u(last, 2.7) / cheby_u(last, float(N))
            with pytest.raises(DomainError):
                coeff_ratio(last + 1, 2.7, N)


    def test_coeff_ratios_equal_single_calls(self):
        # one pass of both recursions gives the bits of m + 1 separate calls,
        # up to the last finite level, and the same error one level later
        rng = random.Random(264)
        for N in (3, 4, 5, 6, 8):
            overflow = next(n for n in range(800) if not math.isfinite(cheby_u(n, float(N))))
            for t in (2.5, rng.uniform(2.5, N), rng.uniform(2.5, N), float(N)):
                for m in (0, 1, 7, overflow - 8, overflow - 1):
                    assert coeff_ratios(m, t, N) == [coeff_ratio(n, t, N) for n in range(m + 1)]
                with pytest.raises(DomainError, match=f"level n={overflow} for N={N}"):
                    coeff_ratios(overflow, t, N)

    def test_coeff_ratios_domain(self):
        for args in ((1, 2.4, 5), (1, 5.1, 5), (1, 2.5, 2), (-1, 2.5, 3)):
            with pytest.raises(DomainError):
                coeff_ratios(*args)


class TestDecayConstant:
    def test_midpoint_value(self):
        assert decay_constant(2.5) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_always_above_one(self):
        for t0 in np.linspace(2.01, 2.99, 25):
            assert decay_constant(float(t0)) > 1.0

    def test_domain_endpoints_rejected(self):
        for bad in (2.0, 3.0, 1.5, 3.2):
            with pytest.raises(DomainError):
                decay_constant(bad)

    def test_decay_bound_quick_grid(self):
        c = decay_constant(2.5)
        for N in (3, 5):
            for t in np.linspace(2.5, N, 7):
                for n in range(30):
                    ratio = coeff_ratio(n, float(t), N)
                    assert 0.0 < ratio <= c * (float(t) / N) ** n + 1e-12

