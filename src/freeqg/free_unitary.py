"""Word combinatorics and fusion for the free unitary quantum group.

Irreducibles are indexed by words over the two-letter alphabet ``'a'``/``'b'``
(the free monoid on two generators; the empty string is the unit).  The
conjugation involution reverses a word and swaps the letters.  Tensor
products decompose over suffix/prefix cancellations: for every way of writing
``g = alpha.sigma`` and ``h = involution(sigma).beta`` the product contains
the summand ``alpha.beta`` once.  Since ``involution(g[cut:])`` is the prefix
of ``involution(g)`` of length ``len(g) - cut``, the cancellations are the
first k letters of ``h`` for every k up to the common-prefix length of
``involution(g)`` and ``h``.

Every irreducible character factorizes inside the free product as an
alternating word in powers of the circle generator z and orthogonal
characters:

    z**eps(1) * chi_{k(1)} * z**eps(2) * ... * chi_{k(n)} * z**eps(n+1)

recorded here as an :class:`AlternatingForm`.  Two independent routes compute
it: :func:`alternating_form` reads the signs and blocks straight off the
letter pattern of the word, while :func:`char_expand_oracle` multiplies the
character out letter by letter in the free-product monomial algebra and
checks that exactly one monomial survives each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain
from os.path import commonprefix

from ._util import as_int, as_nonneg_int
from .chebyshev import _dim_orth
from .errors import FormExpansionError, WordParseError
from .fusion_orth import _fold

ALPHABET = "ab"
_SWAP = str.maketrans("ab", "ba")


def word_parse(text: str) -> str:
    """Validate a word over 'a'/'b'; the empty string denotes the unit."""
    if not isinstance(text, str):
        raise WordParseError(f"expected a word string, got {text!r}")
    if text.strip(ALPHABET):
        bad = sorted(set(text) - set(ALPHABET))
        raise WordParseError(f"invalid characters {bad!r} in word {text!r}; alphabet is 'a','b'")
    return text


def involution(w: str) -> str:
    """Antimultiplicative involution: reverse the word and swap a <-> b."""
    return word_parse(w)[::-1].translate(_SWAP)


def all_words(max_len: int):
    """All words of length <= max_len, ordered by (length, lexicographic)."""
    levels = accumulate(range(as_nonneg_int(max_len, "max_len")), initial=[""],
                        func=lambda level, _: [w + c for w in level for c in ALPHABET])
    return chain.from_iterable(levels)


def fuse_unitary(g: str, h: str) -> dict[str, int]:
    """Decompose the tensor product of the irreducibles at words g and h.

    With L the common-prefix length of involution(g) and h, the summands are
    ``g[:len(g) - k] + h[k:]`` for k = L, L - 1, ..., 0, each once.  They
    have the distinct lengths |g| + |h| - 2k, so the result is
    multiplicity-free, and it comes ordered by (length, lexicographic).
    """
    g = word_parse(g)
    h = word_parse(h)
    conj = g[::-1].translate(_SWAP)  # involution(g), without parsing g again
    cancel = len(commonprefix([conj, h]))
    return {g[: len(g) - k] + h[k:]: 1 for k in range(cancel, -1, -1)}


def fuse_unitary_many(words) -> dict[str, int]:
    """Left-to-right decomposition of a tensor word of irreducibles.

    Folds :func:`fuse_unitary` over the words, adding up multiplicities;
    terms are ordered by (length, lexicographic).  The empty sequence gives
    the unit {'': 1}.
    """
    return _fold(fuse_unitary, "", words, key=lambda kv: (len(kv[0]), kv[0]))


@dataclass(frozen=True)
class AlternatingForm:
    """Factorization data of a free unitary character.

    ``eps`` holds the n+1 circle exponents and ``blocks`` the n orthogonal
    block sizes of the alternating factorization; the block sizes sum to the
    word length.  Interior signs are +-1.  The construction always yields a
    leading sign in {0, +1} and a trailing sign in {0, -1} -- sharper than
    the generic {0, +-1} ends -- and the test suite validates this against
    the expansion oracle exhaustively.
    """

    eps: tuple[int, ...]
    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(self.eps) != len(self.blocks) + 1:
            raise ValueError("eps needs exactly one more entry than blocks")
        if not self.blocks:
            if self.eps != (0,):
                raise ValueError("the unit has form eps=(0,), blocks=()")
            return
        if self.eps[0] not in (0, 1):
            raise ValueError(f"leading sign must be 0 or +1, got {self.eps[0]}")
        if self.eps[-1] not in (0, -1):
            raise ValueError(f"trailing sign must be 0 or -1, got {self.eps[-1]}")
        for e in self.eps[1:-1]:
            if e not in (-1, 1):
                raise ValueError(f"interior signs must be +-1, got {e}")
        for k in self.blocks:
            if k < 1:
                raise ValueError(f"block sizes must be positive, got {k}")

    @property
    def length(self) -> int:
        """Length of the underlying word: the total of the block sizes."""
        return sum(self.blocks)

    @property
    def eps_weight(self) -> int:
        """Number of nonzero circle exponents (the exponent of r(t))."""
        return len(self.eps) - self.eps.count(0)


def alternating_form(w: str) -> AlternatingForm:
    """Sign/block factorization of the character at w, by the run rule.

    Blocks are the maximal runs of strictly alternating letters (a new block
    starts after every position where two consecutive letters agree).  The
    leading sign is +1 when w starts with 'a', the trailing sign is -1 when w
    ends with 'b', and the interior sign at a boundary is +1 when the
    repeated letter is 'a' and -1 when it is 'b'.
    """
    w = word_parse(w)
    if not w:
        return AlternatingForm((0,), ())
    eps = [1 if w[0] == "a" else 0]
    blocks = []
    run = 1
    for i in range(1, len(w)):
        if w[i] == w[i - 1]:
            blocks.append(run)
            run = 1
            eps.append(1 if w[i] == "a" else -1)
        else:
            run += 1
    blocks.append(run)
    eps.append(-1 if w[-1] == "b" else 0)
    return AlternatingForm(tuple(eps), tuple(blocks))


# The oracle works in the free-product monomial algebra.  A monomial is a
# tuple of symbols ('z', p) with p a nonzero integer or ('c', k) with k >= 1
# (chi_0 = 1 never appears as a symbol); the empty tuple is the unit.  Only
# right-multiplication by z**+-1 and by chi_1 is ever needed.

_Z, _C = "z", "c"


def _mul_z(combo: dict, p: int) -> dict:
    out: dict = {}
    for mono, coef in combo.items():
        if mono and mono[-1][0] == _Z:
            q = mono[-1][1] + p
            new = mono[:-1] if q == 0 else mono[:-1] + ((_Z, q),)
        else:
            new = mono + ((_Z, p),)
        out[new] = out.get(new, 0) + coef
    return out


def _mul_chi1(combo: dict) -> dict:
    out: dict = {}
    for mono, coef in combo.items():
        if mono and mono[-1][0] == _C:
            # chi_k * chi_1 = chi_{k+1} + chi_{k-1}, with chi_0 = 1
            head, k = mono[:-1], mono[-1][1]
            products = (head + ((_C, k + 1),), head if k == 1 else head + ((_C, k - 1),))
        else:
            products = (mono + ((_C, 1),),)
        for new in products:
            out[new] = out.get(new, 0) + coef
    return out


def _form_from_monomial(mono) -> AlternatingForm:
    # an optional leading circle power, then chi and z symbols in turn
    lead = 1 if mono and mono[0][0] == _Z else 0
    eps = [mono[0][1] if lead else 0]
    blocks = []
    for i, (kind, value) in enumerate(mono[lead:]):
        if kind != (_C if i % 2 == 0 else _Z):
            raise FormExpansionError(f"monomial {mono!r} is not alternating")
        if kind == _C:
            blocks.append(value)
        else:
            eps.append(value)
    if len(eps) == len(blocks):  # no trailing circle power
        eps.append(0)
    try:
        return AlternatingForm(tuple(eps), tuple(blocks))
    except ValueError as exc:
        raise FormExpansionError(f"monomial {mono!r} violates the sign pattern") from exc


def char_expand_oracle(w: str) -> AlternatingForm:
    """Sign/block factorization of the character at w, by direct expansion.

    Builds the character prefix by prefix.  Appending a letter s multiplies
    by z*chi_1 (for 'a') or chi_1*z**-1 (for 'b') in the monomial algebra,
    and when the current word ends with the conjugate letter the fusion rule
    contributes a correction term: the character of the word with its last
    letter removed is subtracted.  Exactly one monomial with coefficient 1
    must survive each step; anything else raises
    :class:`~freeqg.errors.FormExpansionError`.
    """
    w = word_parse(w)
    forms = [()]  # monomial of each prefix; () is the unit
    for i, letter in enumerate(w):
        combo = {forms[i]: 1}
        if letter == "a":
            combo = _mul_chi1(_mul_z(combo, +1))
        else:
            combo = _mul_z(_mul_chi1(combo), -1)
        if i >= 1 and w[i - 1] != letter:  # w ends with the conjugate letter
            prev = forms[i - 1]
            combo[prev] = combo.get(prev, 0) - 1
        combo = {m: c for m, c in combo.items() if c != 0}
        if len(combo) != 1 or next(iter(combo.values())) != 1:
            raise FormExpansionError(
                f"expansion of {w[: i + 1]!r} left {len(combo)} monomials, expected 1"
            )
        forms.append(next(iter(combo)))
    return _form_from_monomial(forms[-1])


@lru_cache(maxsize=8192)
def _dim_unitary(w: str, N: int) -> int:
    result = 1
    for k in alternating_form(w).blocks:
        result *= _dim_orth(k, N)
    return result


def dim_unitary(w: str, N) -> int:
    """Exact dimension of the irreducible at w: product of its block dimensions.

    The circle factors have dimension 1, so only the orthogonal blocks
    contribute.  Agrees with :func:`dim_unitary_recursive`.
    """
    return _dim_unitary(word_parse(w), as_int(N, "N", 2))


def dim_unitary_recursive(w: str, N) -> int:
    """Exact dimension of the irreducible at w, by the fusion recursion.

    d(unit) = 1 and d(w.s) = N*d(w) - d(w minus its last letter) when w ends
    with the conjugate of s, else N*d(w).
    """
    w = word_parse(w)
    N = as_int(N, "N", 2)
    dims = [1]
    for i, letter in enumerate(w):
        correction = dims[i - 1] if i >= 1 and w[i - 1] != letter else 0
        dims.append(N * dims[i] - correction)
    return dims[-1]


def dim_check_fusion_unitary(g: str, h: str, N) -> bool:
    """Exact check that dimensions are additive over the fusion decomposition."""
    terms = fuse_unitary(g, h)  # checks g and h
    N = as_int(N, "N", 2)
    rhs = sum(mult * _dim_unitary(term, N) for term, mult in terms.items())
    return _dim_unitary(g, N) * _dim_unitary(h, N) == rhs
