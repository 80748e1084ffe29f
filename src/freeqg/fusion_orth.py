"""Fusion ring of the free orthogonal quantum group.

Irreducibles sit at non-negative integer levels; level 0 is the unit, level 1
the fundamental corepresentation, and every level is self-conjugate.  Level r
tensor level s decomposes multiplicity-free into levels |r-s|, |r-s|+2, ...,
r+s.  Haar moments of the fundamental character count trivial summands of
iterated fusion powers, which is how the Catalan numbers enter: the even
moments are Catalan numbers and the odd ones vanish.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from ._util import as_nonneg_int
from .chebyshev import dim_orth

def fuse_orth(r, s) -> dict[int, int]:
    """Decompose level r tensor level s.

    The summands are r+s-2l for l = 0..min(r, s), each with multiplicity 1;
    returned in ascending level order.
    """
    r = as_nonneg_int(r, "r")
    s = as_nonneg_int(s, "s")
    return {label: 1 for label in range(abs(r - s), r + s + 1, 2)}


def fuse_orth_many(labels: Iterable[int]) -> dict[int, int]:
    """Left-to-right decomposition of a tensor word of levels.

    Works level-by-level on the multiset of summands, so a k-fold power
    touches O(k^2) (level, multiplicity) pairs instead of exponentially many
    tensor factors.  Fusion is associative, hence the result is independent
    of evaluation order.  The empty sequence gives the unit {0: 1}.
    """
    return _fold(fuse_orth, 0, (as_nonneg_int(s, "label") for s in labels))


def _fold(fuse, unit, labels, key=None) -> dict:
    # the left-to-right fold of fuse over labels from {unit: 1}, adding up
    # multiplicities; the terms are returned sorted by key, which is given
    # each (term, multiplicity) pair
    acc = {unit: 1}
    for s in labels:
        nxt = {}
        for a, mult in acc.items():
            for b in fuse(a, s):
                nxt[b] = nxt.get(b, 0) + mult
        acc = nxt
    return dict(sorted(acc.items(), key=key))


def char_moment_orth(k) -> int:
    """k-th Haar moment of the fundamental character, by brute-force fusion.

    Equals the multiplicity of the trivial level in the k-th fusion power of
    level 1: zero for odd k and catalan(k/2) for even k.
    """
    k = as_nonneg_int(k, "k")
    return fuse_orth_many([1] * k).get(0, 0)


def catalan(m) -> int:
    """The m-th Catalan number binomial(2m, m)/(m+1), exactly."""
    m = as_nonneg_int(m, "m")
    return math.comb(2 * m, m) // (m + 1)


def dim_check_fusion(r, s, N) -> bool:
    """Exact big-integer check that dimensions multiply over fusion."""
    lhs = dim_orth(r, N) * dim_orth(s, N)
    rhs = sum(mult * dim_orth(label, N) for label, mult in fuse_orth(r, s).items())
    return lhs == rhs
