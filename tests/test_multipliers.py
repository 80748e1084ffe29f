import math
import random
import sys
import time
from array import array
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeqg import (
    BoundParams,
    DomainError,
    Group,
    MultiplierCoeffs,
    ResourceCapError,
    a_coeff,
    a_coeff_from_form,
    all_words,
    alternating_form,
    approx_identity_weights,
    cheby_u,
    choose_truncation,
    coeff_ratio,
    coeff_ratios,
    decay_constant,
    dim_orth,
    dim_unitary,
    involution,
    k_a,
    multipliers,
    q_of,
    r_of,
    tail_bound_orth,
    tail_bound_unitary,
    tail_sup,
    truncated_coeffs,
    ultra_bound,
)

PI_OVER_SQRT6 = math.pi / math.sqrt(6.0)


def direct_tail_sup(coef, ratio, start, horizon=3000):
    # independent oracle: plain max over a long explicit range
    return max((n + 1) ** 2 * coef * ratio**n for n in range(start, horizon))


def linear_tail_sup(coef, ratio, from_level):
    # reference: the scan from from_level, O(peak) steps, that tail_sup shortcuts
    if coef == 0.0:
        return 0.0
    if ratio >= 1.0:
        return math.inf
    best = 0.0
    n = from_level
    while True:
        best = max(best, (n + 1) ** 2 * coef * ratio**n)
        if (n + 2) ** 2 * ratio < (n + 1) ** 2:
            return best
        n += 1


def linear_choose_truncation(t, eps, N, group, bounds):
    # reference: the scan m = 0, 1, 2, ... that choose_truncation bisects
    bound_fn = tail_bound_orth if group == "o" else tail_bound_unitary
    m = 0
    while (bound := bound_fn(t, m, N, bounds)) > eps:
        m += 1
    return m, bound


def reference_unit_table(t, m, N, t0=2.5):
    # reference: one parsed form and one a_coeff_from_form per word
    return {w: a_coeff_from_form(alternating_form(w), t, N, t0) for w in all_words(m)}


def decimal_tail_bound(t, m, N, constant, t0=2.5):
    # pi * K / sqrt(6) * sup_{n > m} (n+1)^2 * C * (t/N)^n to 60 digits, with
    # t/N the exact quotient of the double t by N; C = 4/3 at t0 = 2.5.  For
    # m + 1 past the peak of (n+1)^2 (t/N)^n the supremum is at n = m + 1.
    assert t0 == 2.5 and m + 1 > -2.0 / math.log(t / N)
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        n = m + 1
        return pi * Decimal(constant) / Decimal(6).sqrt() * Decimal(4) / 3 * (n + 1) ** 2 * (
            Decimal(t) / N) ** n


def stop_level(ratio):
    # first level at which the envelope's stop test (n+2)^2 ratio < (n+1)^2 passes
    n = 0
    while not (n + 2) ** 2 * ratio < (n + 1) ** 2:
        n += 1
    return n


def test_state_domain_bound():
    # |u_n(t)| <= u_n(N) on [-N, N]: the point evaluations of the full
    # character algebra are states
    for N in (3, 4, 6):
        for t in np.linspace(-N, N, 41):
            for n in range(61):
                assert abs(cheby_u(n, float(t))) <= cheby_u(n, float(N)) * (1 + 1e-12)


class TestRandACoeff:
    def test_r_examples(self):
        assert r_of(3.0, 3) == 1.0
        expected = (1 - 0.25) / (1 - q_of(3) ** -2)
        assert r_of(2.5, 3) == pytest.approx(expected, rel=1e-15)
        assert r_of(2.6, 3) > r_of(2.5, 3)

    def test_r_domain(self):
        with pytest.raises(DomainError):
            r_of(2.4, 3)
        with pytest.raises(DomainError):
            r_of(3.1, 3)

    def test_a_examples(self):
        r = r_of(2.5, 3)
        assert a_coeff("", 2.5, 3) == 1.0
        assert a_coeff("a", 2.5, 3) == pytest.approx(r * 2.5 / 3, rel=1e-15)
        assert a_coeff("ab", 2.5, 3) == pytest.approx(r**2 * coeff_ratio(2, 2.5, 3), rel=1e-15)
        # not multiplicative over concatenation; the doubled generator goes
        # through its own form eps=(1,1,0), blocks=(1,1)
        assert a_coeff("aa", 2.5, 3) == pytest.approx(r**2 * (2.5 / 3) ** 2, rel=1e-15)

    def test_involution_symmetry_is_exact(self):
        for w in all_words(9):
            assert a_coeff(w, 2.7, 4) == a_coeff(involution(w), 2.7, 4)

    def test_range_and_endpoint(self):
        for w in ("", "a", "ab", "abba", "aabb"):
            assert a_coeff(w, 4.0, 4) == 1.0
            value = a_coeff(w, 2.5, 4)
            assert 0.0 < value <= 1.0

    def test_strictly_increasing_in_t(self):
        grid = np.linspace(2.5, 4.0, 25)
        for w in ("a", "ab", "aab", "abab"):
            values = [a_coeff(w, float(t), 4) for t in grid]
            assert all(lo < hi for lo, hi in zip(values, values[1:]))
            assert values[-1] == 1.0

    def test_decay_bound_quick(self):
        c = decay_constant(2.5)
        for w in all_words(7):
            for t in (2.5, 3.1, 3.9):
                assert 0.0 < a_coeff(w, t, 4) <= c * (t / 4.0) ** len(w) + 1e-12


class TestNetMemo:
    """coeff_ratio, r_of and a_coeff_from_form share one memo per (t, N)."""

    def test_numpy_scalars_give_plain_float_bits(self):
        form = alternating_form("aabab")
        for t, N in ((2.71828, 7), (2.5, 3), (3.0, 3)):
            # numpy arguments first, so a memo keyed on them would fill first
            nt, nN = np.float64(t), np.int64(N)
            from_numpy = (coeff_ratio(5, nt, nN), r_of(nt, nN), a_coeff_from_form(form, nt, nN))
            plain = (coeff_ratio(5, t, N), r_of(t, N), a_coeff_from_form(form, t, N))
            assert [type(v) for v in from_numpy + plain] == [float] * 6
            assert from_numpy == plain

    def test_float_n_after_int_n_still_rejected(self):
        form = alternating_form("ab")
        assert coeff_ratio(2, 2.9, 3) > 0.0 and r_of(2.9, 3) > 0.0
        assert a_coeff_from_form(form, 2.9, 3) > 0.0
        for call in (lambda: coeff_ratio(2, 2.9, 3.0), lambda: r_of(2.9, 3.0),
                     lambda: a_coeff_from_form(form, 2.9, 3.0)):
            with pytest.raises(DomainError, match="N must be an integer"):
                call()

    def test_block_past_double_overflow(self):
        form = alternating_form("ab" * 369)
        assert form.blocks == (738,)
        with pytest.raises(DomainError, match="level n=738 for N=3"):
            a_coeff_from_form(form, 2.9, 3)
        assert 0.0 < a_coeff_from_form(alternating_form("ab" * 368 + "a"), 2.9, 3)


class TestTailSup:
    def test_geometric_toy(self):
        assert tail_sup(1.0, 0.5, 0) == 2.25
        assert tail_sup(1.0, 0.5, 3) == 16 * 0.5**3
        assert tail_sup(0.0, 0.5, 0) == 0.0
        assert tail_sup(1.0, 1.0, 0) == math.inf

    def test_matches_direct_scan(self):
        for ratio in (0.3, 5 / 6, 0.95):
            for start in (0, 1, 7, 40):
                assert tail_sup(4 / 3, ratio, start) == direct_tail_sup(4 / 3, ratio, start)

    def test_bit_identical_to_linear_scan(self):
        rng = random.Random(20110302)
        for _ in range(300):
            ratio = 1.0 - math.exp(rng.uniform(math.log(1e-4), math.log(0.5)))
            coef = rng.choice([4 / 3, 1.0, 2.7])
            peak = math.floor(-2.0 / math.log(ratio) - 1.0)
            for start in {0, 1, max(0, peak - 3), peak + 3, peak + 50, 2 * peak + 10}:
                assert tail_sup(coef, ratio, start) == linear_tail_sup(coef, ratio, start), (
                    coef, ratio, start)
        for start in (0, 1, 5):
            assert tail_sup(4 / 3, 0.0, start) == linear_tail_sup(4 / 3, 0.0, start)

    def test_terminates_next_to_one(self):
        # a few ulps below 1 rounding keeps the stop test failing for over a
        # million levels past the peak, so only the peak bound ends the walk
        for ratio in (1.0 - 6 * 2.0**-53, 1.0 - 10 * 2.0**-53, 1.0 - 24 * 2.0**-53):
            peak = -2.0 / math.log(ratio) - 1.0
            at_peak = max((n + 1) ** 2 * ratio**n for n in (math.floor(peak), math.ceil(peak)))
            start = time.perf_counter()
            value = tail_sup(1.0, ratio, 0)
            assert time.perf_counter() - start < 0.5
            assert at_peak <= value <= at_peak * (1.0 + 1e-9)

    def test_rejects_non_finite_and_overflow(self):
        for coef, ratio in ((math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (-1.0, 0.5)):
            with pytest.raises(DomainError):
                tail_sup(coef, ratio, 0)
        with pytest.raises(DomainError):
            tail_sup(1.0, 0.5, 10**200)


class TestKa:
    def test_full_net_at_least_one(self):
        table = truncated_coeffs("o", 2.5, 12, 3)
        assert k_a(table) >= 1.0
        assert math.isfinite(k_a(table))

    def test_geometric_toy_table(self):
        entries = {n: 2.0**-n for n in range(25)}
        table = MultiplierCoeffs("o", entries, t=2.5, N=5)
        assert k_a(table) == 2.25

    def test_window_table_includes_envelope_tail(self):
        window = MultiplierCoeffs(
            "o", {n: coeff_ratio(n, 2.5, 3) for n in range(3)}, t=2.5, N=3, truncated=False
        )
        c = decay_constant(2.5)
        assert k_a(window) == max(
            max((n + 1) ** 2 * coeff_ratio(n, 2.5, 3) for n in range(3)),
            tail_sup(c, 2.5 / 3, 3),
        )

    def test_tail_from_level_dominated(self):
        table = truncated_coeffs("o", 2.5, 40, 3)
        m = 5
        c = decay_constant(2.5)
        assert k_a(table, from_level=m + 1) <= tail_sup(c, 2.5 / 3, m + 1)


class TestUltraBound:
    def test_examples(self):
        assert ultra_bound(0.0, 2.0) == 0.0
        assert ultra_bound(1.0, 1.0) == pytest.approx(PI_OVER_SQRT6, rel=1e-15)
        assert ultra_bound(math.sqrt(6) / math.pi, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            ultra_bound(-0.1, 1.0)
        with pytest.raises(DomainError):
            ultra_bound(1.0, 0.0)


class TestTailBounds:
    bounds = BoundParams(D=1.0, R=2.0, t0=2.5)

    def test_orth_matches_independent_scan(self):
        expected = PI_OVER_SQRT6 * direct_tail_sup(4 / 3, 2.5 / 3, 1)
        assert tail_bound_orth(2.5, 0, 3, self.bounds) == pytest.approx(expected, rel=1e-15)

    def test_unitary_scales_by_r_constant(self):
        orth = tail_bound_orth(2.5, 4, 3, BoundParams(D=1.0))
        unit = tail_bound_unitary(2.5, 4, 3, BoundParams(R=2.0))
        assert unit == pytest.approx(2.0 * orth, rel=1e-15)

    def test_monotone_nonincreasing_to_zero(self):
        values = [tail_bound_orth(2.5, m, 3, self.bounds) for m in range(120)]
        assert all(hi <= lo for lo, hi in zip(values, values[1:]))
        assert values[-1] < values[0]
        assert values[-1] < 1e-4
        # strict decrease once past the envelope peak
        assert all(hi < lo for lo, hi in zip(values[11:], values[12:]))

    def test_unitary_consistent_with_coefficient_decay(self):
        m = 3
        bound = tail_bound_unitary(2.5, m, 3, self.bounds)
        for w in ("abab", "aaaa", "bbba"):
            assert len(w) == m + 1
            assert bound >= PI_OVER_SQRT6 * self.bounds.R * (m + 2) ** 2 * a_coeff(w, 2.5, 3)

    def test_domain_rejects_t_at_n(self):
        with pytest.raises(DomainError):
            tail_bound_orth(3.0, 2, 3, self.bounds)

    def test_missing_constant(self):
        with pytest.raises(DomainError):
            tail_bound_orth(2.5, 2, 3, BoundParams(R=1.0))
        with pytest.raises(DomainError):
            tail_bound_unitary(2.5, 2, 3, BoundParams(D=1.0))

    def test_non_finite_bound_is_domain_error(self):
        # pi * D overflows to inf; once the tail underflows to 0 the product is NaN
        huge = BoundParams(D=1e308, R=1e308)
        assert tail_bound_orth(2.9, 10, 3, huge) == math.inf
        for fn in (tail_bound_orth, tail_bound_unitary):
            with pytest.raises(DomainError):
                fn(2.9, 40_000, 3, huge)
            with pytest.raises(DomainError):
                fn(2.9, 10**200, 3, self.bounds)

    def test_underflowed_tail_is_positive_and_above_the_real_bound(self):
        # (t/N)^n is subnormal from n = 20896 on for t = 2.9, N = 3, where the
        # bound pi * D / sqrt(6) * (n+1)^2 * C * (t/N)^n is still about 16;
        # the float tail read 2e-8 (relative) below the real bound at m = 21470
        bounds = BoundParams(D=1e300, R=1e300)
        ratio = 2.9 / 3
        switch = next(m for m in range(20_000, 22_000) if ratio ** (m + 1) < sys.float_info.min)
        values = [tail_bound_orth(2.9, m, 3, bounds) for m in range(switch - 40, switch + 40)]
        assert all(hi < lo for lo, hi in zip(values, values[1:]))
        real = decimal_tail_bound(2.9, switch - 1, 3, 1e300)
        assert abs(Decimal(values[39]) / real - 1) < Decimal(1e-10)
        for m in (switch, switch + 1, 21_979, 30_000, 41_394):
            bound = tail_bound_orth(2.9, m, 3, bounds)
            real = decimal_tail_bound(2.9, m, 3, 1e300)
            assert real <= Decimal(bound) <= real * Decimal(1 + 1e-10), m
            assert tail_bound_unitary(2.9, m, 3, bounds) == bound
        # a tail far below the smallest double still gives a positive bound
        assert tail_bound_orth(2.9, 10**6, 3, bounds) == math.ulp(0.0)

    def test_rejects_non_finite_constants(self):
        for value in (math.nan, math.inf, -math.inf, 0.0):
            with pytest.raises(DomainError):
                BoundParams(D=value)
            with pytest.raises(DomainError):
                BoundParams(R=value)


class TestChooseTruncation:
    bounds = BoundParams(D=1.0, R=1.0, t0=2.5)

    def test_minimality(self):
        cert = choose_truncation(2.5, 1e-3, 3, "o", self.bounds)
        assert cert.satisfied
        assert cert.tail_bound <= 1e-3
        assert tail_bound_orth(2.5, cert.m - 1, 3, self.bounds) > 1e-3

    def test_golden_order(self):
        cert = choose_truncation(2.5, 1e-3, 3, "o", self.bounds)
        assert cert.m == 90

    def test_huge_eps_gives_zero(self):
        big = tail_bound_orth(2.5, 0, 3, self.bounds) + 1.0
        assert choose_truncation(2.5, big, 3, "o", self.bounds).m == 0

    def test_monotone_in_eps(self):
        orders = [
            choose_truncation(2.5, 10.0**-k, 3, "u", self.bounds).m for k in range(1, 7)
        ]
        assert all(lo <= hi for lo, hi in zip(orders, orders[1:]))

    def test_rejects_bad_eps(self):
        for eps in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(DomainError):
                choose_truncation(2.5, eps, 3, "o", self.bounds)

    def test_matches_linear_scan(self):
        rng = random.Random(1103)
        for _ in range(40):
            N = rng.choice([3, 4, 5, 6, 8])
            gap = math.exp(rng.uniform(math.log(1.5e-3), math.log(1.0 - 2.5 / N)))
            t = N * (1.0 - gap)
            eps = math.exp(rng.uniform(math.log(1e-8), math.log(1e-1)))
            constant = rng.choice([0.5, 1.0, 2.0])
            bounds = BoundParams(D=constant, R=constant)
            for group, bound_fn in (("o", tail_bound_orth), ("u", tail_bound_unitary)):
                cert = choose_truncation(t, eps, N, group, bounds)
                reference = linear_choose_truncation(t, eps, N, group, bounds)
                assert (cert.m, cert.tail_bound) == reference, (t, eps, N, group, constant)
                assert cert.m == 0 or bound_fn(t, cert.m - 1, N, bounds) > eps

    # t/3 within a few ulps of ((n+1)/(n+2))^2: the float bound rises by an
    # ulp from m = s-1 to m = s, where s is the stop level of the envelope
    RISING_T = (2.9097796143250685, 2.968831380208333, 2.983493841495344)

    def test_matches_linear_scan_where_the_float_bound_rises(self):
        bounds = BoundParams(D=1.0)
        for t in self.RISING_T:
            s = stop_level(t / 3)
            rise = tail_bound_orth(t, s, 3, bounds)
            assert rise > tail_bound_orth(t, s - 1, 3, bounds)
            top = tail_bound_orth(t, 0, 3, bounds)
            for eps in (top, math.nextafter(top, 0.0), rise, math.nextafter(rise, 0.0)):
                cert = choose_truncation(t, eps, 3, "o", bounds)
                assert (cert.m, cert.tail_bound) == linear_choose_truncation(t, eps, 3, "o", bounds)

    def test_near_n_order_and_bound_unchanged(self):
        cert = choose_truncation(2.999, 1e-3, 3, "o", BoundParams(D=1.0))
        assert (cert.m, cert.tail_bound) == (90817, 0.0009998218735391595)

    # At t = 2.9 the tail underflowed to 0 before pi * D was applied, and the
    # certificate claimed tail_bound 0 at m = 21979 (real bound ~2e-15).  At
    # t = 2.980019, t/N rounds down by 3.7e-17 relative, which (t/N)^n turns
    # into 8e-12 below the real bound at n ~ 210000, more than BOUND_SLACK.
    @pytest.mark.parametrize("t,m", [(2.9, 41394), (2.980019, 210486)])
    def test_underflowed_tail_certificate(self, t, m):
        cert = choose_truncation(t, 1e-300, 3, "o", BoundParams(D=1e300))
        assert 0.0 < cert.tail_bound <= 1e-300
        assert cert.m == m
        assert Decimal(cert.tail_bound) >= decimal_tail_bound(t, cert.m, 3, 1e300)
        assert decimal_tail_bound(t, cert.m - 1, 3, 1e300) > Decimal(1e-300)

    def test_subnormal_bound_certificate(self):
        # with a tiny rapid-decay constant the bound itself is subnormal; the
        # float product used to round to 9.65e-321 at m = 318, 2e-5
        # (relative) below the real bound
        bounds = BoundParams(D=1e-300, R=1e-300)
        for group in ("o", "u"):
            cert = choose_truncation(2.5, 1e-320, 3, group, bounds)
            assert cert.m == 318
            assert 0.0 < cert.tail_bound <= 1e-320
            assert Decimal(cert.tail_bound) >= decimal_tail_bound(2.5, cert.m, 3, 1e-300)
            assert decimal_tail_bound(2.5, cert.m - 1, 3, 1e-300) > Decimal(1e-320)
        for m in range(100, 330, 7):
            bound = tail_bound_orth(2.5, m, 3, bounds)
            real = decimal_tail_bound(2.5, m, 3, 1e-300)
            slack = real * Decimal(1e-10) + 2 * Decimal(math.ulp(0.0))
            assert real <= Decimal(bound) <= real + slack, m
        # a constant so small that pi * D is subnormal while the bound is
        # normal: the float product rounded pi * D there, 1.5e-10 (relative)
        # below the real bound
        tiny = BoundParams(D=1e-315, R=1e-315)
        for m in (16000, 18000, 20000):
            real = decimal_tail_bound(7.999, m, 8, 1e-315)
            for bound in (tail_bound_orth(7.999, m, 8, tiny), tail_bound_unitary(7.999, m, 8, tiny)):
                assert bound > sys.float_info.min
                assert real <= Decimal(bound) <= real * (1 + Decimal(1e-10)), m
        cert = choose_truncation(7.999, 3e-308, 8, "o", tiny)
        assert Decimal(cert.tail_bound) >= decimal_tail_bound(7.999, cert.m, 8, 1e-315)
        assert sys.float_info.min < cert.tail_bound <= 3e-308

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([3, 4, 5, 6, 8]),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False),
        st.sampled_from(["o", "u"]),
    )
    def test_certificate_or_domain_error(self, N, position, eps, constant, group):
        t = min(2.5 + position * (N - 2.5), math.nextafter(float(N), 0.0))
        try:
            cert = choose_truncation(t, eps, N, group, BoundParams(D=constant, R=constant))
        except DomainError:
            return
        assert cert.satisfied
        assert 0.0 <= cert.tail_bound <= eps


class TestTruncatedCoeffs:
    def test_orth_level_zero(self):
        table = truncated_coeffs("o", 2.9, 0, 4)
        assert dict(table.entries) == {0: 1.0}

    def test_orth_example(self):
        table = truncated_coeffs("o", 2.5, 2, 5)
        assert dict(table.entries) == {
            0: 1.0,
            1: 0.5,
            2: pytest.approx(5.25 / 24, rel=1e-15),
        }

    def test_unit_level_one(self):
        table = truncated_coeffs("u", 2.5, 1, 3)
        r = r_of(2.5, 3)
        assert set(table.entries) == {"", "a", "b"}
        assert table.entries[""] == 1.0
        assert table.entries["a"] == table.entries["b"] == pytest.approx(r * 2.5 / 3, rel=1e-15)
        assert table.r == r

    def test_unit_count_and_match_scalar(self):
        table = truncated_coeffs("u", 2.7, 6, 4)
        assert len(table.entries) == 2**7 - 1
        for w in ("", "a", "abab", "bbbaab"):
            assert table.entries[w] == a_coeff(w, 2.7, 4)

    def test_unit_table_matches_per_word_reference(self):
        rng = random.Random(1103)
        for N in (3, 4, 5, 6, 8):
            for t in (2.5, *sorted(rng.uniform(2.5, N) for _ in range(3)), float(N)):
                reference = list(reference_unit_table(t, 10, N).items())
                for m in (0, 1, 2, 5, 10):
                    entries = truncated_coeffs("u", t, m, N).entries
                    assert list(entries.items()) == reference[: 2 ** (m + 1) - 1], (t, m, N)
                for w, value in entries.items():
                    assert value == entries[involution(w)]

    @staticmethod
    def memo_contents():
        # everything the shape memo holds, through its tuples and lists
        held, stack = [], [multipliers._shape]
        while stack:
            held.append(item := stack.pop())
            if isinstance(item, (tuple, list)):
                stack.extend(item)
        return held

    def test_unit_tables_in_any_depth_order(self, monkeypatch):
        monkeypatch.setattr(multipliers, "_shape", (-1, array("H"), []))
        pool = [(2.5, 3), (2.71, 4), (4.0, 4), (2.5, 5), (5.0, 5), (3.3, 8)]
        for m, (t, N) in zip((12, 0, 5, 14, 3, 12), pool):
            entries = truncated_coeffs("u", t, m, N).entries
            reference = reference_unit_table(t, m, N)
            assert list(entries) == list(reference), (t, m, N)
            assert list(map(float.hex, entries.values())) == list(
                map(float.hex, reference.values())), (t, m, N)
            for w, value in entries.items():
                assert value.hex() == entries[involution(w)].hex()
            memo = multipliers._shape
            for refused in (lambda: truncated_coeffs("u", t, 15, N, entry_cap=2**16 - 2),
                            lambda: truncated_coeffs("u", 2.4, 15, N)):
                with pytest.raises((ResourceCapError, DomainError)):
                    refused()
                assert multipliers._shape is memo
            held = self.memo_contents()
            indexes = [item for item in held if isinstance(item, array)]
            assert len(indexes) == 1 and indexes[0].itemsize == 2
            assert len(indexes[0]) == 2 ** (memo[0] + 1) - 1
            assert not any(isinstance(item, str) for item in held)
        assert multipliers._shape[0] == 14

    @pytest.mark.parametrize("fresh", [True, False])
    def test_one_coefficient_per_key(self, monkeypatch, fresh):
        class CountingList(list):
            reads = 0

            def __getitem__(self, k):
                CountingList.reads += 1
                return super().__getitem__(k)

        if fresh:
            monkeypatch.setattr(multipliers, "_shape", (-1, array("H"), []))
        for m in (9, 4, 0, 11):
            t, N = 2.7, 4
            forms = map(alternating_form, all_words(m))
            keys = {(form.eps_weight, tuple(sorted(form.blocks))) for form in forms}
            CountingList.reads = 0
            ratios = CountingList(coeff_ratios(m, t, N))
            entries = multipliers._unitary_entries(m, r_of(t, N), ratios)
            assert CountingList.reads == sum(len(blocks) for _, blocks in keys), m
            assert entries == reference_unit_table(t, m, N)

    def test_identity_endpoint(self):
        table = truncated_coeffs("u", 3.0, 3, 3)
        assert set(table.entries.values()) == {1.0}

    def test_entry_cap(self):
        with pytest.raises(ResourceCapError):
            truncated_coeffs("u", 2.5, 12, 3, entry_cap=100)

    def test_table_validation(self):
        with pytest.raises(DomainError):
            MultiplierCoeffs("o", {0: 1.0, 1: 1.5}, t=2.5, N=3)
        with pytest.raises(DomainError):
            MultiplierCoeffs("o", {0: 0.5}, t=2.5, N=3)
        with pytest.raises(DomainError):
            MultiplierCoeffs("o", {1: -0.2}, t=2.5, N=3)

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_entry_cap_boundary(self, k):
        # level k - 1 needs 2**k - 1 entries: one short of the cap is refused
        m = k - 1
        with pytest.raises(ResourceCapError):
            truncated_coeffs("u", 2.5, m, 3, entry_cap=2**k - 2)
        for cap in (2**k - 1, 2**k):
            assert len(truncated_coeffs("u", 2.5, m, 3, entry_cap=cap).entries) == 2**k - 1

    def test_entry_cap_huge_level_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match=r"2\*\*1000000000000000001 - 1 entries"):
            truncated_coeffs("u", 2.5, 10**18, 3)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("group", ["o", "u"])
    @pytest.mark.parametrize("cap", [-1, 2.5, "x", None])
    def test_entry_cap_domain(self, group, cap):
        with pytest.raises(DomainError, match="entry_cap"):
            truncated_coeffs(group, 2.5, 3, 3, entry_cap=cap)

    def test_r_is_derived(self):
        assert truncated_coeffs("u", 2.7, 2, 4).r == r_of(2.7, 4)
        assert MultiplierCoeffs("u", {"": 1.0}, t=2.5, N=3).r == r_of(2.5, 3)
        assert MultiplierCoeffs("o", {0: 1.0}, t=2.5, N=3).r is None
        for r in (7.0, float("nan"), r_of(2.5, 3)):
            with pytest.raises(TypeError):
                MultiplierCoeffs("u", {"": 1.0}, t=2.5, N=3, r=r)

    @pytest.mark.parametrize("group,entries", [
        ("o", {"x": 0.5}),
        ("o", {"": 1.0}),
        ("o", {-1: 0.5}),
        ("o", {0.5: 0.5}),
        ("u", {1: 0.5}),
        ("u", {"": 1.0, "ac": 0.5}),
        ("u", {"a": 0.5, None: 0.5}),
    ])
    def test_labels_of_the_wrong_kind(self, group, entries):
        with pytest.raises(DomainError):
            MultiplierCoeffs(group, entries, t=2.5, N=3)

    @pytest.mark.parametrize("entries,bad", [
        ({"ab" * 50 + "c" + "ab": 0.5}, "ab" * 50 + "c" + "ab"),
        ({"a": 0.5, "bä": 0.5}, "bä"),
        ({**{w: 0.5 for w in list(all_words(9))[1:1001]}, 7: 0.5}, 7),
        ({"a": 0.5, "\uff41b": 0.5}, "\uff41b"),
        ({"a": 0.5, "b\x00": 0.5, "ab": 0.5}, "b\x00"),
        ({"a": 0.5, "a\ud800": 0.5}, "a\ud800"),
        ({"a": 0.5, b"ab": 0.5}, b"ab"),
    ], ids=["bad-letter-in-long-label", "non-ascii-letter", "non-str-among-1000-words",
            "fullwidth-letter", "nul", "lone-surrogate", "bytes-label"])
    def test_bad_unitary_label_is_named(self, entries, bad):
        with pytest.raises(DomainError) as info:
            MultiplierCoeffs("u", entries, t=2.5, N=3)
        assert f"got {bad!r}" in str(info.value)

    def test_numpy_labels(self):
        table = MultiplierCoeffs("o", {np.int64(0): 1.0, np.int64(2): 0.5}, t=2.5, N=3)
        assert list(table.entries) == [0, 2]
        assert all(type(label) is int for label in table.entries)
        assert table.level_maxima() == {0: 1.0, 2: 0.5}
        table = MultiplierCoeffs("u", {np.str_("ab"): 0.5, np.str_("ba"): 0.25}, t=2.5, N=3)
        assert table.level_maxima() == {2: 0.5}

    @staticmethod
    def valid_levels(count):
        return {0: 1.0, **{n: 0.5 for n in range(1, count)}}

    @pytest.mark.parametrize("group,entries,bad", [
        ("o", {**valid_levels(1000), 500: math.nan}, 500),
        ("o", {**valid_levels(1000), 500: np.float64("nan")}, 500),
        ("u", {w: 0.5 for w in list(all_words(9))[1:1001]} | {"ab": math.nan}, "ab"),
        ("o", {**valid_levels(10), 10: -0.0, 11: 0.5}, 10),
        ("o", {**valid_levels(10), 10: 0.0}, 10),
        ("o", {**valid_levels(10), 10: 1.0 + 2e-12, 11: 0.5}, 10),
        ("o", {**valid_levels(10), 10: Fraction(0), 11: 0.5}, 10),
        ("o", {**valid_levels(10), 10: np.float64(1.5), 11: 0.5}, 10),
        ("o", {0: 1.0, 7: math.nan, 3: 0.0, 5: 0.5}, 7),
        ("o", {0: 1.0, 9: 2.0, 4: math.nan, 5: 0.5}, 9),
        ("o", {0: math.nan, **{n: 0.5 for n in range(1, 1000)}}, 0),
        ("o", {**valid_levels(1000), 1000: math.nan}, 1000),
        ("u", {"ab" * 5: math.nan} | {w: 0.5 for w in list(all_words(9))[1:1001]}, "ab" * 5),
        ("u", {w: 0.5 for w in list(all_words(9))[1:1001]} | {"ab" * 5: math.nan}, "ab" * 5),
        ("o", {0: 1.0, 1: math.nan, 2: Decimal("0.5"), 3: Fraction(1, 4)}, 1),
        ("o", {0: 1.0, 1: Decimal("0.5"), 2: 1.5, 3: 0.25}, 2),
    ], ids=["nan-among-1000", "np-nan-among-1000", "nan-word", "minus-zero", "zero-last",
            "above-slack", "fraction-zero", "np-float64-above-1", "nan-before-zero",
            "above-1-before-nan", "nan-first", "nan-last", "nan-first-word", "nan-last-word",
            "nan-beside-decimal", "above-1-beside-decimal"])
    def test_out_of_range_value_is_named(self, group, entries, bad):
        # min and max skip a NaN that is not first; the first bad label in
        # insertion order is the one named
        with pytest.raises(DomainError) as info:
            MultiplierCoeffs(group, entries, t=2.5, N=3)
        assert f"coefficient at {bad!r} is {entries[bad]}, outside (0, 1]" == str(info.value)

    @pytest.mark.parametrize("group,entries", [
        ("o", {0: 0.5, 1: 0.25}),
        ("u", {"": 0.5, "a": 0.25}),
    ], ids=["level-0", "unit-word"])
    def test_trivial_label_reads_exactly_1(self, group, entries):
        with pytest.raises(DomainError) as info:
            MultiplierCoeffs(group, entries, t=2.5, N=3)
        assert str(info.value) == "trivial-label coefficient must be exactly 1, got 0.5"

    def test_values_at_the_ends_of_the_range(self):
        entries = {0: 1.0, 1: 1.0 + 1e-12, 2: 5e-324, 3: Fraction(1, 2), 4: np.float64(0.25)}
        assert MultiplierCoeffs("o", entries, t=2.5, N=3).entries == entries
        assert MultiplierCoeffs("u", {}, t=2.5, N=3).entries == {}
        # a Decimal does not add to a float or a Fraction, but is still a value in range
        entries = {0: 1.0, 1: Decimal("0.5"), 2: Fraction(1, 3), 3: np.float64(0.25)}
        assert MultiplierCoeffs("o", entries, t=2.5, N=3).entries == entries


def reference_orth_weights(t, m, N):
    # the orthogonal weights as they were computed before both groups read
    # them off truncated_coeffs: straight from the ratio table
    return [(n, ratio * float(dim_orth(n, N))) for n, ratio in enumerate(coeff_ratios(m, t, N))]


class TestApproxIdentityWeights:
    def test_orth_level_one(self):
        for t in (2.5, 2.75):
            weights = approx_identity_weights("o", t, 1, 3)
            assert weights[0] == (0, 1.0)
            assert weights[1][0] == 1
            assert weights[1][1] == pytest.approx(t, rel=1e-12)

    def test_unit_level_one(self):
        weights = dict(approx_identity_weights("u", 2.5, 1, 3))
        r = r_of(2.5, 3)
        assert weights[""] == 1.0
        assert weights["a"] == pytest.approx(r * 2.5, rel=1e-12)
        assert weights["b"] == pytest.approx(r * 2.5, rel=1e-12)

    def test_unit_weights_use_conjugate_coefficient(self):
        weights = dict(approx_identity_weights("u", 2.6, 3, 3))
        for w in ("aab", "ab", "bbb"):
            expected = a_coeff(involution(w), 2.6, 3) * dim_unitary(w, 3)
            assert weights[w] == pytest.approx(expected, rel=1e-14)

    def test_unit_weights_match_per_word_expression(self):
        for t, N in ((2.5, 3), (2.71, 4), (5.9, 6)):
            for m in range(9):
                expected = [
                    (w, a_coeff(involution(w), t, N) * float(dim_unitary(w, N)))
                    for w in all_words(m)
                ]
                assert approx_identity_weights("u", t, m, N) == expected

    @pytest.mark.parametrize("t, N", [(2.5, 3), (2.71, 4), (5.9, 6)])
    def test_orth_weights_match_the_ratio_expression(self, t, N):
        for m in range(61):
            assert approx_identity_weights("o", t, m, N) == reference_orth_weights(t, m, N)

    def test_unit_entry_cap(self):
        with pytest.raises(ResourceCapError):
            approx_identity_weights("u", 2.5, 12, 3, entry_cap=100)

    @pytest.mark.parametrize("group", ["o", "u"])
    def test_negative_entry_cap_is_domain_error(self, group):
        with pytest.raises(DomainError, match="entry_cap"):
            approx_identity_weights(group, 2.5, 1, 3, entry_cap=-1)

    def test_rejects_endpoint(self):
        with pytest.raises(DomainError):
            approx_identity_weights("o", 3.0, 1, 3)

    def test_endpoint_has_the_tail_bound_message(self):
        # t = N is refused by one check, with one message, wherever a net
        # needs t < N
        bounds = BoundParams(D=1.0, R=1.0, t0=2.6)
        calls = [
            lambda: approx_identity_weights("o", 4.0, 1, 4, t0=2.6),
            lambda: approx_identity_weights("u", 4.0, 1, 4, t0=2.6),
            lambda: choose_truncation(4.0, 1e-3, 4, "o", bounds),
            lambda: choose_truncation(4.0, 1e-3, 4, "u", bounds),
            lambda: tail_bound_orth(4.0, 3, 4, bounds),
            lambda: tail_bound_unitary(4.0, 3, 4, bounds),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(DomainError) as info:
                call()
            messages.add(str(info.value))
        assert messages == {"t must lie in [2.6, 4) for a finite tail bound, got 4.0"}

    def test_dimension_overflow_is_domain_error(self):
        with pytest.raises(DomainError, match="738"):
            approx_identity_weights("o", 2.9, 800, 3)


class TestGroup:
    def test_coercion(self):
        assert Group.coerce("o") is Group.ORTH
        assert Group.coerce("u") is Group.UNIT
        assert Group.coerce(Group.ORTH) is Group.ORTH
        assert Group.coerce(Group.UNIT) is Group.UNIT
        with pytest.raises(DomainError):
            Group.coerce("x")

    @pytest.mark.parametrize("value", [
        "orth", "orthogonal", "unit", "unitary", " O ", "U", "", None, 0, ["o"],
    ])
    def test_rejects_other_spellings(self, value):
        with pytest.raises(DomainError) as info:
            Group.coerce(value)
        assert str(info.value) == f"unknown group {value!r}; expected 'o' or 'u'"
