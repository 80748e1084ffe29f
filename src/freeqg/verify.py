"""Bulk invariant suites behind the ``verify`` CLI command.

Each suite returns ``(check_name, cases, failures)`` triples, where a case is
one concrete instance of an identity or bound and ``failures`` counts the
violations; :func:`_tally` builds every triple.  All randomized sampling is
driven by an explicit seed.
"""

from __future__ import annotations

import random
from itertools import chain, product

from ._util import as_int, as_nonneg_int
from .chebyshev import DEFAULT_T0, _check_ratio_args, cheby_u, coeff_ratios, decay_constant
from .fusion_orth import catalan, char_moment_orth, dim_check_fusion, fuse_orth, fuse_orth_many
from .free_unitary import (
    all_words,
    alternating_form,
    char_expand_oracle,
    dim_check_fusion_unitary,
    dim_unitary,
    dim_unitary_recursive,
    fuse_unitary,
    involution,
)
from .multipliers import BOUND_SLACK, a_coeff_from_form
from .spectral import semicircle_moment

Check = tuple[str, int, int]

#: The N at which verify_dims checks orthogonal and unitary dimensions.
ORTH_NS = (2, 3, 4, 5)
UNIT_NS = (3, 4)


def _tally(name: str, failures_per_case) -> Check:
    """The record (name, cases, failures) of one check.

    ``failures_per_case`` yields one item per case: whether it failed, or in
    how many ways.
    """
    cases = failures = 0
    for cases, failed in enumerate(failures_per_case, 1):
        failures += failed
    return name, cases, failures


def _random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def _fuse_right(a: int, b: int, c: int) -> dict[int, int]:
    # a (b c), fused one summand of (b c) at a time
    right: dict[int, int] = {}
    for x, mult in fuse_orth(b, c).items():
        for y in fuse_orth(a, x):
            right[y] = right.get(y, 0) + mult
    return right


def verify_fusion(max_label: int = 10, unit_max_len: int = 5) -> list[Check]:
    """Structural identities of both fusion rings."""
    labels = range(as_nonneg_int(max_label, "max_label") + 1)
    words = list(all_words(as_nonneg_int(unit_max_len, "unit_max_len")))
    pairs = list(product(labels, repeat=2))
    # a unitary product fails once for a repeated multiplicity and once for a
    # repeated length
    mult_failures, conj_failures = [], []
    for g, h in product(words, repeat=2):
        terms = fuse_unitary(g, h)
        lengths = {len(term) for term in terms}
        mult_failures.append(any(m != 1 for m in terms.values()) + (len(lengths) != len(terms)))
        conj = fuse_unitary(involution(h), involution(g))
        conj_failures.append(conj != {involution(term): m for term, m in terms.items()})
    return [
        _tally("orth_multiplicity_free",
               (any(m != 1 for m in fuse_orth(r, s).values()) for r, s in pairs)),
        _tally("orth_commutative", (fuse_orth(r, s) != fuse_orth(s, r) for r, s in pairs)),
        _tally("orth_char_recursion",
               (fuse_orth(1, n) != {n - 1: 1, n + 1: 1} for n in labels[1:])),
        _tally("orth_associative", (
            fuse_orth_many([a, b, c]) != _fuse_right(a, b, c)
            for a, b, c in product(labels, repeat=3)
        )),
        _tally("unit_multiplicity_free", mult_failures),
        _tally("unit_conjugation_symmetry", conj_failures),
    ]


def verify_moments(max_m: int = 8, subdivisions: int = 10_000) -> list[Check]:
    """Three-way agreement of the fundamental character moments."""
    ms = range(as_nonneg_int(max_m, "max_m") + 1)
    return [
        _tally("moment_triple_even", (
            char_moment_orth(2 * m) != catalan(m)
            or abs(semicircle_moment(2 * m, subdivisions) - catalan(m)) > 1e-8
            for m in ms
        )),
        _tally("moment_odd_zero", (
            char_moment_orth(2 * m + 1) != 0
            or abs(semicircle_moment(2 * m + 1, subdivisions)) > 1e-12
            for m in ms
        )),
    ]


def verify_forms(max_len: int = 10) -> list[Check]:
    """Run-rule forms against the expansion oracle, plus shape invariants."""
    words = list(all_words(as_nonneg_int(max_len, "max_len")))
    forms = [alternating_form(w) for w in words]
    return [
        _tally("form_oracle_equality", (f != char_expand_oracle(w) for w, f in zip(words, forms))),
        # one block per run of alternating letters
        _tally("form_shape", (
            f.length != len(w) or len(f.blocks) != bool(w) + sum(x == y for x, y in zip(w, w[1:]))
            for w, f in zip(words, forms)
        )),
    ]


def verify_dims(
    max_label: int = 12,
    exhaustive_len: int = 6,
    random_pairs: int = 10_000,
    random_len: int = 10,
    seed: int = 42,
) -> list[Check]:
    """Dimension multiplicativity over fusion, exact in big integers."""
    max_label = as_nonneg_int(max_label, "max_label")
    exhaustive_len = as_nonneg_int(exhaustive_len, "exhaustive_len")
    random_pairs = as_nonneg_int(random_pairs, "random_pairs")
    random_len = as_nonneg_int(random_len, "random_len")
    labels = range(max_label + 1)
    words = list(all_words(exhaustive_len))
    rng = random.Random(seed)
    sampled = [
        (_random_word(rng, random_len), _random_word(rng, random_len))
        for _ in range(random_pairs)
    ]
    return [
        _tally("orth_dim_consistency", (
            not dim_check_fusion(r, s, n) for n in ORTH_NS for r in labels for s in labels
        )),
        _tally("unit_dim_consistency_exhaustive", (
            not dim_check_fusion_unitary(g, h, n) for n in UNIT_NS for g in words for h in words
        )),
        _tally("unit_dim_consistency_random", (
            not dim_check_fusion_unitary(g, h, n) for n in UNIT_NS for g, h in sampled
        )),
        # every short word, then random words drawn after the pairs
        _tally("unit_dim_two_routes", (
            dim_unitary(w, n) != dim_unitary_recursive(w, n)
            for n in (2, 3, 4)
            for w in chain(all_words(min(exhaustive_len + 2, 8)),
                           (_random_word(rng, max_label) for _ in range(random_pairs // 10)))
        )),
    ]


def verify_decay(
    ns: tuple[int, ...] = (3, 4, 5, 6),
    grid_points: int = 20,
    max_n: int = 60,
    max_len: int = 8,
) -> list[Check]:
    """Geometric decay, contraction range, and monotonicity of the nets.

    Each t-grid runs from DEFAULT_T0 to N, so it needs ``grid_points >= 2``.
    """
    grid_points = as_int(grid_points, "grid_points", 2)
    max_n = as_nonneg_int(max_n, "max_n")
    max_len = as_nonneg_int(max_len, "max_len")
    t0 = DEFAULT_T0
    # every N of the suite must carry a net on [t0, N]
    ns = tuple(_check_ratio_args(t0, n, t0)[1] for n in ns)
    import numpy as np

    c = decay_constant(t0)
    top = min(max_n, 20)
    forms = [(alternating_form(w), len(w)) for w in all_words(max_len)]
    grids = [(n_dim, [float(t) for t in np.linspace(t0, n_dim, grid_points)]) for n_dim in ns]
    points = [(n_dim, t, t / n_dim) for n_dim, grid in grids for t in grid]

    def monotone():
        # a case per grid point and level: below N the value must not exceed
        # the next one, and at t = N it must be 1
        for n_dim, grid in grids:
            rows = [coeff_ratios(top, t, n_dim, t0) for t in grid]
            for n in range(1, top + 1):
                values = [row[n] for row in rows]
                yield from (hi <= lo - 1e-14 for lo, hi in zip(values, values[1:]))
                yield values[-1] != 1.0

    return [
        _tally("orth_coeff_decay", (
            not 0.0 < value <= c * ratio**n + BOUND_SLACK
            for n_dim, t, ratio in points
            for n, value in enumerate(coeff_ratios(max_n, t, n_dim, t0))
        )),
        _tally("unit_coeff_decay", (
            not 0.0 < a_coeff_from_form(form, t, n_dim, t0) <= c * ratio**length + BOUND_SLACK
            for n_dim, t, ratio in points for form, length in forms
        )),
        _tally("orth_coeff_monotone_in_t", monotone()),
        _tally("central_state_bound", (
            abs(cheby_u(n, t)) > cheby_u(n, float(n_dim)) * (1.0 + BOUND_SLACK)
            for n_dim in ns for t in map(float, np.linspace(-n_dim, n_dim, grid_points))
            for n in range(max_n + 1)
        )),
    ]


SUITES = {
    "fusion": verify_fusion,
    "moments": verify_moments,
    "forms": verify_forms,
    "dims": verify_dims,
    "decay": verify_decay,
}
