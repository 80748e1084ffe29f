import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeqg import (
    AlternatingForm,
    DomainError,
    WordParseError,
    all_words,
    alternating_form,
    char_expand_oracle,
    dim_check_fusion_unitary,
    dim_unitary,
    dim_unitary_recursive,
    fuse_unitary,
    fuse_unitary_many,
    involution,
    word_parse,
)

words = st.text(alphabet="ab", max_size=12)


def reference_fuse_unitary(g, h):
    # fuse_unitary as it was before it read its summands off the common
    # prefix of involution(g) and h: try every cut, parsing each suffix again
    g = word_parse(g)
    h = word_parse(h)
    terms = {}
    for cut in range(len(g) + 1):
        sigma = g[cut:]
        if h.startswith(involution(sigma)):
            term = g[:cut] + h[len(sigma):]
            terms[term] = terms.get(term, 0) + 1
    return dict(sorted(terms.items(), key=lambda kv: (len(kv[0]), kv[0])))


def reference_fuse_unitary_many(operands):
    # the iterated fusion the fuse command ran inline before fuse_unitary_many
    decomposition = {operands[0]: 1}
    for nxt in operands[1:]:
        acc = {}
        for term, mult in decomposition.items():
            for new_term, m2 in reference_fuse_unitary(term, nxt).items():
                acc[new_term] = acc.get(new_term, 0) + mult * m2
        decomposition = dict(sorted(acc.items(), key=lambda kv: (len(kv[0]), kv[0])))
    return decomposition


class TestWordParse:
    def test_accepts_alphabet(self):
        assert word_parse("") == ""
        assert word_parse("a") == "a"
        assert word_parse("aab") == "aab"

    def test_rejects_other_characters(self):
        for bad in ("c", "aAb", "a b", "e"):
            with pytest.raises(WordParseError):
                word_parse(bad)


class TestInvolution:
    def test_examples(self):
        assert involution("") == ""
        assert involution("a") == "b"
        assert involution("aab") == "abb"

    @given(words)
    def test_is_an_involution(self, w):
        assert involution(involution(w)) == w

    @given(words, words)
    def test_antimultiplicative(self, g, h):
        assert involution(g + h) == involution(h) + involution(g)


class TestFuseUnitary:
    def test_unit_is_neutral(self):
        for h in ("", "a", "abba"):
            assert fuse_unitary("", h) == {h: 1}
            assert fuse_unitary(h, "") == {h: 1}

    def test_examples(self):
        assert fuse_unitary("a", "b") == {"": 1, "ab": 1}
        assert fuse_unitary("a", "a") == {"aa": 1}
        assert fuse_unitary("ab", "ba") == {"abba": 1}

    def test_multiplicity_free_with_distinct_lengths(self):
        pool = list(all_words(5))
        for g in pool:
            for h in pool:
                terms = fuse_unitary(g, h)
                assert set(terms.values()) <= {1}
                lengths = [len(term) for term in terms]
                assert len(set(lengths)) == len(lengths)

    @given(words, words)
    def test_conjugation_symmetry(self, g, h):
        terms = fuse_unitary(g, h)
        conjugated = fuse_unitary(involution(h), involution(g))
        assert conjugated == {involution(term): mult for term, mult in terms.items()}

    @settings(max_examples=500)
    @given(words, words)
    def test_matches_reference(self, g, h):
        assert list(fuse_unitary(g, h).items()) == list(reference_fuse_unitary(g, h).items())

    def test_matches_reference_exhaustively(self):
        pool = list(all_words(5))
        for g in pool:
            for h in pool:
                assert list(fuse_unitary(g, h).items()) == list(reference_fuse_unitary(g, h).items())

    @pytest.mark.parametrize("bad", ["c", "aAb", "a b", 3, None])
    def test_bad_letter_is_parse_error(self, bad):
        with pytest.raises(WordParseError):
            fuse_unitary(bad, "ab")
        with pytest.raises(WordParseError):
            fuse_unitary("ab", bad)


class TestFuseUnitaryMany:
    @settings(max_examples=300)
    @given(st.lists(words, min_size=1, max_size=4))
    def test_matches_reference_fold(self, operands):
        expected = reference_fuse_unitary_many(operands)
        assert list(fuse_unitary_many(operands).items()) == list(expected.items())

    def test_examples(self):
        assert fuse_unitary_many([]) == {"": 1}
        assert fuse_unitary_many(["ab"]) == {"ab": 1}
        assert fuse_unitary_many(iter(["a", "b", "a", "b"])) == {"": 2, "ab": 3, "abab": 1}

    @pytest.mark.parametrize("bad", ["c", "aAb", 3])
    def test_bad_letter_is_parse_error(self, bad):
        for operands in ([bad], ["a", bad], [bad, "b", "a"]):
            with pytest.raises(WordParseError):
                fuse_unitary_many(operands)


class TestAlternatingForm:
    def test_examples(self):
        assert alternating_form("a") == AlternatingForm((1, 0), (1,))
        assert alternating_form("ab") == AlternatingForm((1, -1), (2,))
        assert alternating_form("ba") == AlternatingForm((0, 0), (2,))
        assert alternating_form("aa") == AlternatingForm((1, 1, 0), (1, 1))
        assert alternating_form("bb") == AlternatingForm((0, -1, -1), (1, 1))
        assert alternating_form("") == AlternatingForm((0,), ())

    def test_repeated_generator_restriction(self):
        for k in range(1, 9):
            form = alternating_form("a" * k)
            assert form.blocks == (1,) * k
            assert form.eps == (1,) * k + (0,)

    @given(words)
    def test_shape_invariants(self, w):
        form = alternating_form(w)
        assert form.length == len(w)
        boundaries = sum(1 for i in range(1, len(w)) if w[i] == w[i - 1])
        assert len(form.blocks) == (0 if not w else boundaries + 1)
        assert form.eps_weight == sum(1 for e in form.eps if e)

    def test_validation(self):
        with pytest.raises(ValueError):
            AlternatingForm((1, 1), ())  # unit must be ((0,), ())
        with pytest.raises(ValueError):
            AlternatingForm((-1, 0), (1,))  # leading sign must be 0/+1
        with pytest.raises(ValueError):
            AlternatingForm((1, 1), (1, 1))  # eps/blocks length mismatch
        with pytest.raises(ValueError):
            AlternatingForm((1, 0, 0), (1, 1))  # interior sign must be +-1
        with pytest.raises(ValueError):
            AlternatingForm((1, 0), (0,))  # blocks must be positive


class TestCharExpandOracle:
    def test_examples(self):
        assert char_expand_oracle("aba") == AlternatingForm((1, 0), (3,))
        assert char_expand_oracle("aa") == AlternatingForm((1, 1, 0), (1, 1))
        assert char_expand_oracle("bb") == AlternatingForm((0, -1, -1), (1, 1))

    def test_agrees_with_run_rule_exhaustively(self):
        count = 0
        for w in all_words(8):
            assert alternating_form(w) == char_expand_oracle(w)
            count += 1
        assert count == 511


class TestDimensions:
    def test_block_product_examples(self):
        assert dim_unitary("", 5) == 1
        assert dim_unitary("a", 7) == 7
        assert dim_unitary("ab", 3) == 8

    def test_recursive_examples(self):
        assert dim_unitary_recursive("ab", 3) == 8
        assert dim_unitary_recursive("aa", 3) == 9
        assert dim_unitary_recursive("aba", 3) == 21

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_two_routes_agree(self, N):
        for w in all_words(6):
            assert dim_unitary(w, N) == dim_unitary_recursive(w, N)

    @given(words, st.integers(min_value=2, max_value=5))
    def test_involution_preserves_dimension(self, w, N):
        assert dim_unitary(w, N) == dim_unitary(involution(w), N)

    def test_domain(self):
        with pytest.raises(DomainError):
            dim_unitary("a", 1)
        with pytest.raises(DomainError):
            dim_unitary_recursive("a", 1)


class TestDimCheckFusion:
    def test_examples(self):
        assert dim_check_fusion_unitary("a", "b", 3)
        assert dim_check_fusion_unitary("", "abab", 4)
        assert dim_check_fusion_unitary("ab", "ba", 3)

    @given(words, words, st.integers(min_value=2, max_value=4))
    def test_random_pairs(self, g, h, N):
        assert dim_check_fusion_unitary(g, h, N)

    def test_word_count_sanity(self):
        assert len(list(all_words(10))) == 2047
