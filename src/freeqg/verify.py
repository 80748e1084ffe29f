"""Bulk invariant suites behind the ``verify`` CLI command.

Each suite returns ``(check_name, cases, failures)`` triples, where a case is
one concrete instance of an identity or bound and ``failures`` counts the
violations.  All randomized sampling is driven by an explicit seed.
"""

from __future__ import annotations

import random

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


def _random_word(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("ab") for _ in range(rng.randint(0, max_len)))


def verify_fusion(max_label: int = 10, unit_max_len: int = 5) -> list[Check]:
    """Structural identities of both fusion rings."""
    max_label = as_nonneg_int(max_label, "max_label")
    unit_max_len = as_nonneg_int(unit_max_len, "unit_max_len")
    checks: list[Check] = []

    pairs = [(r, s) for r in range(max_label + 1) for s in range(max_label + 1)]
    mult_fail = sum(
        1 for r, s in pairs if any(m != 1 for m in fuse_orth(r, s).values())
    )
    checks.append(("orth_multiplicity_free", len(pairs), mult_fail))
    comm_fail = sum(1 for r, s in pairs if fuse_orth(r, s) != fuse_orth(s, r))
    checks.append(("orth_commutative", len(pairs), comm_fail))

    rec_fail = sum(
        1
        for n in range(1, max_label + 1)
        if fuse_orth(1, n) != {n - 1: 1, n + 1: 1}
    )
    checks.append(("orth_char_recursion", max_label, rec_fail))

    triples = [
        (a, b, c)
        for a in range(max_label + 1)
        for b in range(max_label + 1)
        for c in range(max_label + 1)
    ]
    assoc_fail = 0
    for a, b, c in triples:
        left = fuse_orth_many([a, b, c])
        right: dict[int, int] = {}
        for x, mult in fuse_orth(b, c).items():
            for y in fuse_orth(a, x):
                right[y] = right.get(y, 0) + mult
        if left != dict(sorted(right.items())):
            assoc_fail += 1
    checks.append(("orth_associative", len(triples), assoc_fail))

    words = list(all_words(unit_max_len))
    mult_fail = 0
    conj_fail = 0
    for g in words:
        for h in words:
            terms = fuse_unitary(g, h)
            if any(m != 1 for m in terms.values()):
                mult_fail += 1
            if len({len(term) for term in terms}) != len(terms):
                mult_fail += 1
            conj = fuse_unitary(involution(h), involution(g))
            if conj != {involution(term): m for term, m in terms.items()}:
                conj_fail += 1
    checks.append(("unit_multiplicity_free", len(words) ** 2, mult_fail))
    checks.append(("unit_conjugation_symmetry", len(words) ** 2, conj_fail))
    return checks


def verify_moments(max_m: int = 8, subdivisions: int = 10_000) -> list[Check]:
    """Three-way agreement of the fundamental character moments."""
    max_m = as_nonneg_int(max_m, "max_m")
    checks: list[Check] = []
    even_fail = 0
    for m in range(max_m + 1):
        fusion = char_moment_orth(2 * m)
        closed = catalan(m)
        quad = semicircle_moment(2 * m, subdivisions)
        if fusion != closed or abs(quad - closed) > 1e-8:
            even_fail += 1
    checks.append(("moment_triple_even", max_m + 1, even_fail))
    odd_fail = 0
    for m in range(max_m + 1):
        k = 2 * m + 1
        if char_moment_orth(k) != 0 or abs(semicircle_moment(k, subdivisions)) > 1e-12:
            odd_fail += 1
    checks.append(("moment_odd_zero", max_m + 1, odd_fail))
    return checks


def verify_forms(max_len: int = 10) -> list[Check]:
    """Run-rule forms against the expansion oracle, plus shape invariants."""
    words = list(all_words(as_nonneg_int(max_len, "max_len")))
    eq_fail = 0
    shape_fail = 0
    for w in words:
        form = alternating_form(w)
        if form != char_expand_oracle(w):
            eq_fail += 1
        boundaries = sum(1 for i in range(1, len(w)) if w[i] == w[i - 1])
        expected_blocks = 0 if not w else boundaries + 1
        if form.length != len(w) or len(form.blocks) != expected_blocks:
            shape_fail += 1
    return [
        ("form_oracle_equality", len(words), eq_fail),
        ("form_shape", len(words), shape_fail),
    ]


def verify_dims(
    max_label: int = 12,
    orth_ns: tuple[int, ...] = (2, 3, 4, 5),
    unit_ns: tuple[int, ...] = (3, 4),
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
    checks: list[Check] = []

    cases = 0
    failures = 0
    for n in orth_ns:
        for r in range(max_label + 1):
            for s in range(max_label + 1):
                cases += 1
                if not dim_check_fusion(r, s, n):
                    failures += 1
    checks.append(("orth_dim_consistency", cases, failures))

    words = list(all_words(exhaustive_len))
    cases = 0
    failures = 0
    for n in unit_ns:
        for g in words:
            for h in words:
                cases += 1
                if not dim_check_fusion_unitary(g, h, n):
                    failures += 1
    checks.append(("unit_dim_consistency_exhaustive", cases, failures))

    rng = random.Random(seed)
    sampled = [
        (_random_word(rng, random_len), _random_word(rng, random_len))
        for _ in range(random_pairs)
    ]
    cases = 0
    failures = 0
    for n in unit_ns:
        for g, h in sampled:
            cases += 1
            if not dim_check_fusion_unitary(g, h, n):
                failures += 1
    checks.append(("unit_dim_consistency_random", cases, failures))

    cases = 0
    failures = 0
    for n in (2, 3, 4):
        for w in all_words(min(exhaustive_len + 2, 8)):
            cases += 1
            if dim_unitary(w, n) != dim_unitary_recursive(w, n):
                failures += 1
        for _ in range(random_pairs // 10):
            w = _random_word(rng, max_label)
            cases += 1
            if dim_unitary(w, n) != dim_unitary_recursive(w, n):
                failures += 1
    checks.append(("unit_dim_two_routes", cases, failures))
    return checks


def verify_decay(
    ns: tuple[int, ...] = (3, 4, 5, 6),
    grid_points: int = 20,
    max_n: int = 60,
    max_len: int = 8,
    t0: float = DEFAULT_T0,
) -> list[Check]:
    """Geometric decay, contraction range, and monotonicity of the nets.

    Each t-grid runs from t0 to N, so it needs ``grid_points >= 2``.
    """
    grid_points = as_int(grid_points, "grid_points", 2)
    max_n = as_nonneg_int(max_n, "max_n")
    max_len = as_nonneg_int(max_len, "max_len")
    # every N of the suite must carry a net on [t0, N]
    ns = tuple(_check_ratio_args(t0, n, t0)[1] for n in ns)
    import numpy as np

    checks: list[Check] = []
    c = decay_constant(t0)

    cases = 0
    failures = 0
    for n_dim in ns:
        for t in np.linspace(t0, n_dim, grid_points):
            t = float(t)
            ratio = t / n_dim
            for n, value in enumerate(coeff_ratios(max_n, t, n_dim, t0)):
                cases += 1
                if not 0.0 < value <= c * ratio**n + BOUND_SLACK:
                    failures += 1
    checks.append(("orth_coeff_decay", cases, failures))

    words = list(all_words(max_len))
    forms = [alternating_form(w) for w in words]
    cases = 0
    failures = 0
    for n_dim in ns:
        for t in np.linspace(t0, n_dim, grid_points):
            t = float(t)
            ratio = t / n_dim
            for form in forms:
                value = a_coeff_from_form(form, t, n_dim, t0)
                if not 0.0 < value <= c * ratio**form.length + BOUND_SLACK:
                    failures += 1
                cases += 1
    checks.append(("unit_coeff_decay", cases, failures))

    cases = 0
    failures = 0
    for n_dim in ns:
        top = min(max_n, 20)
        grid = [float(t) for t in np.linspace(t0, n_dim, grid_points)]
        rows = [coeff_ratios(top, t, n_dim, t0) for t in grid]
        for n in range(1, top + 1):
            values = [row[n] for row in rows]
            cases += len(values)
            if values[-1] != 1.0:
                failures += 1
            for lo, hi in zip(values, values[1:]):
                if hi <= lo - 1e-14:
                    failures += 1
    checks.append(("orth_coeff_monotone_in_t", cases, failures))

    cases = 0
    failures = 0
    for n_dim in ns:
        for t in np.linspace(-n_dim, n_dim, grid_points):
            t = float(t)
            for n in range(max_n + 1):
                cases += 1
                if abs(cheby_u(n, t)) > cheby_u(n, float(n_dim)) * (1.0 + BOUND_SLACK):
                    failures += 1
    checks.append(("central_state_bound", cases, failures))
    return checks


SUITES = {
    "fusion": verify_fusion,
    "moments": verify_moments,
    "forms": verify_forms,
    "dims": verify_dims,
    "decay": verify_decay,
}
