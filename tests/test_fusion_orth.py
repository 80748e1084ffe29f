import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeqg import (
    DomainError,
    catalan,
    char_moment_orth,
    dim_check_fusion,
    dim_orth,
    fuse_orth,
    fuse_orth_many,
)
from freeqg._util import as_nonneg_int

labels = st.integers(min_value=0, max_value=12)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def tensor_expand(seq, rng):
    """Independent oracle: expand a tensor word summand-by-summand in a
    random association order, never touching the multiset shortcut."""
    seq = list(seq)
    if not seq:
        return {0: 1}
    while len(seq) > 1:
        i = rng.randrange(len(seq) - 1)
        a, b = seq[i], seq[i + 1]
        # replace the pair by its decomposition, distributing over summands
        rest = seq[:i] + seq[i + 2 :]
        total = {}
        for label in fuse_orth(a, b):
            sub = tensor_expand(rest[:i] + [label] + rest[i:], rng) if rest else {label: 1}
            for key, mult in sub.items():
                total[key] = total.get(key, 0) + mult
        return total
    return {seq[0]: 1}


def reference_fuse_orth_many(labels):
    # fuse_orth_many as it was before it shared its fold with fuse_unitary_many
    acc = {0: 1}
    for s in labels:
        s = as_nonneg_int(s, "label")
        nxt = {}
        for a, mult in acc.items():
            for b in fuse_orth(a, s):
                nxt[b] = nxt.get(b, 0) + mult
        acc = nxt
    return dict(sorted(acc.items()))


def summand_count(levels):
    # the number of distinct levels in the product, as the fuse command counts
    # them before fusing: low, low + 2, ..., total
    total = sum(levels)
    low = max(2 * max(levels, default=0) - total, total % 2)
    return (total - low) // 2 + 1


class TestFuseOrth:
    def test_fundamental_square(self):
        assert fuse_orth(1, 1) == {0: 1, 2: 1}

    def test_unit_acts_trivially(self):
        for s in range(8):
            assert fuse_orth(0, s) == {s: 1}
            assert fuse_orth(s, 0) == {s: 1}

    def test_two_three(self):
        assert fuse_orth(2, 3) == {1: 1, 3: 1, 5: 1}

    @given(labels, labels)
    def test_multiplicity_free_and_commutative(self, r, s):
        terms = fuse_orth(r, s)
        assert set(terms.values()) == {1}
        assert len(terms) == min(r, s) + 1
        assert terms == fuse_orth(s, r)

    def test_character_recursion_shadow(self):
        for n in range(1, 20):
            assert fuse_orth(1, n) == {n - 1: 1, n + 1: 1}


class TestFuseOrthMany:
    def test_examples(self):
        assert fuse_orth_many([1, 1]) == {0: 1, 2: 1}
        assert fuse_orth_many([1, 1, 1]) == {1: 2, 3: 1}
        assert fuse_orth_many([1, 1, 1, 1]) == {0: 2, 2: 3, 4: 1}

    def test_empty_product_is_unit(self):
        assert fuse_orth_many([]) == {0: 1}

    def test_matches_random_association_oracle(self):
        rng = random.Random(20240817)
        for _ in range(40):
            seq = [rng.randint(0, 4) for _ in range(rng.randint(1, 6))]
            expected = dict(sorted(tensor_expand(seq, rng).items()))
            assert fuse_orth_many(seq) == expected

    @settings(max_examples=300)
    @given(st.lists(labels, max_size=6), st.booleans())
    def test_matches_reference_fold(self, seq, as_iterator):
        expected = reference_fuse_orth_many(seq)
        result = fuse_orth_many(iter(seq) if as_iterator else seq)
        assert list(result.items()) == list(expected.items())

    @pytest.mark.parametrize("bad", [-1, 2.5, "3"])
    def test_bad_label_is_domain_error(self, bad):
        for seq in ([bad], [1, bad], [bad, 2, 3]):
            with pytest.raises(DomainError, match="label"):
                fuse_orth_many(seq)

    @settings(max_examples=300)
    @given(st.lists(st.integers(min_value=0, max_value=30), max_size=6))
    def test_summand_count_formula(self, seq):
        assert summand_count(seq) == len(fuse_orth_many(seq))
        # no fold along the way holds more terms than the final product
        for k in range(len(seq)):
            assert len(fuse_orth_many(seq[:k])) <= summand_count(seq)

    @given(labels, labels, labels)
    def test_associativity(self, a, b, c):
        left = fuse_orth_many([a, b, c])
        right = {}
        for x, mult in fuse_orth(b, c).items():
            for y in fuse_orth(a, x):
                right[y] = right.get(y, 0) + mult
        assert left == dict(sorted(right.items()))


class TestCharMoments:
    def test_trivial_and_odd(self):
        assert char_moment_orth(0) == 1
        assert char_moment_orth(3) == 0
        assert all(char_moment_orth(2 * m + 1) == 0 for m in range(8))

    def test_even_moments_are_catalan(self):
        for m in range(9):
            assert char_moment_orth(2 * m) == CATALAN[m]
            assert char_moment_orth(2 * m) == catalan(m)


class TestCatalan:
    def test_reference_values(self):
        assert [catalan(m) for m in range(9)] == CATALAN
        assert catalan(8) == 1430

    def test_segner_recurrence(self):
        # independent route: C_{m+1} = sum C_i C_{m-i}
        for m in range(12):
            assert catalan(m + 1) == sum(catalan(i) * catalan(m - i) for i in range(m + 1))


class TestDimensionConsistency:
    def test_examples(self):
        assert dim_check_fusion(1, 1, 3)
        assert dim_orth(2, 4) * dim_orth(3, 4) == 15 * 56 == 4 + 56 + 780
        assert dim_check_fusion(2, 3, 4)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_exhaustive_small(self, N):
        for r in range(9):
            for s in range(9):
                assert dim_check_fusion(r, s, N)
