"""Central multiplier nets: coefficients, decay bounds, truncation certificates.

A central multiplier acts as a scalar on each irreducible level.  For the free
orthogonal quantum group the net indexed by t in [t0, N] has eigenvalue
``u_n(t)/u_n(N)`` at level n; for the free unitary quantum group the
eigenvalue at a word g is

    a_t(g) = r(t)**(number of nonzero circle exponents of g)
             * prod over blocks k of u_k(t)/u_k(N),

with ``r(t) = (1 - q(t)^-2)/(1 - q(N)^-2)``.  Both families are unital,
bounded by 1 in absolute value, and decay geometrically:
``coefficient <= C_t0 * (t/N)**level`` with ``C_t0 = (1 - q(t0)^-2)^-1``.

Combining the geometric decay with a rapid-decay (Haagerup-type) inequality
gives computable operator-norm certificates for truncating the net to finitely
many levels: the L2->Linf norm of a net with level coefficients ``a_n`` is at
most ``pi * K * k_a / sqrt(6)`` where ``K`` is the rapid-decay constant and
``k_a = sup (n+1)^2 |a_n|``.  The rapid-decay constants are quantum-group
data that this package does not derive; callers must supply them.
"""

from __future__ import annotations

import enum
import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice
from types import MappingProxyType

from ._util import as_nonneg_int
from .chebyshev import (
    DEFAULT_T0,
    _check_ratio_args,
    _check_t0,
    _net,
    _overflow_error,
    coeff_ratios,
    decay_constant,
    dim_orth,
)
from .errors import DomainError, ResourceCapError
from .free_unitary import ALPHABET, AlternatingForm, all_words, alternating_form, dim_unitary

#: Default cap on the number of entries of a unitary coefficient table; the
#: label set doubles per level, so tables are refused rather than silently
#: truncated beyond this size.
DEFAULT_ENTRY_CAP = 2**20

#: Comparison slack absorbing double-precision rounding in bound checks.
BOUND_SLACK = 1e-12


class Group(enum.Enum):
    """Which of the two quantum-group families a table belongs to."""

    ORTH = "o"
    UNIT = "u"

    @classmethod
    def coerce(cls, value) -> "Group":
        if isinstance(value, cls):
            return value
        try:
            return cls(value)
        except ValueError:
            raise DomainError(f"unknown group {value!r}; expected 'o' or 'u'") from None


@dataclass(frozen=True)
class MultiplierCoeffs:
    """Finite coefficient table of a central multiplier net.

    ``entries`` maps labels (levels for the orthogonal family, words for the
    unitary one) to eigenvalues in (0, 1]; the trivial label, when present,
    carries exactly 1.  ``truncated`` distinguishes a genuinely finite net
    (a truncation, zero beyond the stored levels) from a stored window of the
    full net, whose unstored levels are dominated by the geometric envelope
    ``decay_constant(t0) * (t/N)**level``.  ``t``, ``N`` and ``t0`` are
    checked as :func:`~freeqg.chebyshev.coeff_ratio` checks them, and the
    labels must be non-negative integers or words over 'a'/'b'.  ``r`` is
    derived: r(t) for a unitary table, None for an orthogonal one.  Every
    table, built here or by a caller, has its values checked in one pass
    (``min``, ``max`` and a NaN test); a value outside (0, 1] raises
    :class:`~freeqg.errors.DomainError` naming the first such label.
    """

    group: Group
    entries: dict
    t: float
    N: int
    t0: float = DEFAULT_T0
    truncated: bool = True
    r: float | None = field(init=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "group", Group.coerce(self.group))
        t, N = _check_ratio_args(self.t, self.N, self.t0)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "t0", float(self.t0))
        if self.group is Group.ORTH:
            entries = {as_nonneg_int(label, "label"): v for label, v in self.entries.items()}
        else:
            entries = dict(self.entries)
            object.__setattr__(self, "r", _net(t, N)[0])
            # word_parse's rule over the joined labels (ALPHABET), at C speed: a non-ASCII
            # character encodes to "?".  The bad label is looked up only to name it.
            try:
                stray = "".join(entries).encode("ascii", "replace").translate(None, b"ab")
            except TypeError:  # a label that is not a str
                stray = True
            if stray:
                bad = next(w for w in entries if not isinstance(w, str) or w.strip(ALPHABET))
                raise DomainError(f"unitary labels must be words over 'a'/'b', got {bad!r}")
        # min and max skip a NaN that is not first; once they pass, the sum is NaN just when a
        # value is (the rest lie in (0, 1 + BOUND_SLACK]).  The walk only names the first bad label.
        values = entries.values()
        low, high = min(values, default=1.0), max(values, default=1.0)
        try:
            nan = math.isnan(sum(values))
        except TypeError:  # a Decimal does not add to a float or a Fraction
            nan = any(map(math.isnan, values))
        if not 0.0 < low <= high <= 1.0 + BOUND_SLACK or nan:
            bad = next(k for k, v in entries.items() if not 0.0 < v <= 1.0 + BOUND_SLACK)
            raise DomainError(f"coefficient at {bad!r} is {entries[bad]}, outside (0, 1]")
        trivial = entries.get(0 if self.group is Group.ORTH else "")
        if trivial is not None and trivial != 1.0:
            raise DomainError(f"trivial-label coefficient must be exactly 1, got {trivial}")
        object.__setattr__(self, "entries", MappingProxyType(entries))

    def level_maxima(self) -> dict[int, float]:
        """Largest stored coefficient per level (every coefficient is positive)."""
        levels = map(len, self.entries) if self.group is Group.UNIT else self.entries
        out: dict[int, float] = {}
        for n, value in zip(levels, self.entries.values()):
            if value > out.get(n, 0.0):
                out[n] = value
        return out


def r_of(t, N, t0=DEFAULT_T0) -> float:
    """Circle damping factor (1 - q(t)^-2)/(1 - q(N)^-2) for t in [t0, N].

    Lies in (0, 1], equals 1 exactly at t = N, and is strictly increasing.
    """
    return _net(*_check_ratio_args(t, N, t0))[0]


def a_coeff_from_form(form: AlternatingForm, t, N, t0=DEFAULT_T0) -> float:
    """Unitary eigenvalue of the net at a word given its alternating form.

    The block ratios multiply in sorted order so that reversing the word
    (whose form has the reversed block sequence) reproduces bit-identical
    floats.  Raises :class:`~freeqg.errors.DomainError` for a block at a
    level where u_k(N) overflows a double, as :func:`coeff_ratio` does.
    """
    t, N = _check_ratio_args(t, N, t0)
    r, ratios = _net(t, N)
    value = r**form.eps_weight
    try:
        for k in sorted(form.blocks):
            value *= ratios[k]
    except IndexError:
        raise _overflow_error(k, N) from None
    return value


def a_coeff(w: str, t, N, t0=DEFAULT_T0) -> float:
    """Eigenvalue a_t(w) of the unitary central multiplier net at the word w.

    Satisfies 0 < a_t(w) <= decay_constant(t0) * (t/N)**len(w), is invariant
    under the word involution, and increases strictly in t with value 1 at
    t = N.
    """
    return a_coeff_from_form(alternating_form(w), t, N, t0)


def tail_sup(coef, ratio, from_level) -> float:
    """sup over n >= from_level of (n+1)^2 * coef * ratio**n, in O(1) steps.

    The real function (x+1)^2 * ratio**x is unimodal with its peak at
    n* = -2/ln(ratio) - 1, so the supremum is attained at from_level or at an
    integer next to n*.  After from_level, the scan jumps to
    max(from_level, floor(n*) - 3) and walks upward keeping the running
    maximum until (n+2)^2 * ratio < (n+1)^2, from which point the sequence
    decreases forever; that takes a few steps.  The skipped levels lie before
    the peak, where each term exceeds its predecessor by a relative
    7/(n*)^2 or more, far above rounding while n* is below about 1e7
    (ratio below 1 - 2e-7), so the result is bit-identical to a scan from
    from_level.  A few ulps below ratio = 1 rounding can keep the stop test
    failing for millions of levels, so the walk also ends once n > n* + 2.
    Returns inf when ratio >= 1 (and coef > 0).
    """
    from_level = as_nonneg_int(from_level, "from_level")
    coef = float(coef)
    ratio = float(ratio)
    if not (0.0 <= coef < math.inf and ratio >= 0.0):
        raise DomainError(f"tail_sup needs finite coef >= 0 and ratio >= 0, got {coef}, {ratio}")
    if coef == 0.0:
        return 0.0
    if ratio >= 1.0:
        return math.inf

    def term(n):
        try:
            return (n + 1) ** 2 * coef * ratio**n
        except OverflowError:
            raise DomainError(f"tail_sup term at level {n} overflows a double") from None

    return max(map(term, _tail_levels(ratio, from_level)))


def _tail_levels(ratio: float, from_level: int):
    """The levels at which tail_sup evaluates its terms, for 0 <= ratio < 1."""
    yield from_level
    if ratio == 0.0:
        return
    peak = -2.0 / math.log(ratio) - 1.0
    n = max(from_level, math.floor(peak) - 3)
    while True:
        yield n
        if (n + 2) ** 2 * ratio < (n + 1) ** 2 or n > peak + 2:
            return
        n += 1


def k_a(coeffs: MultiplierCoeffs, from_level=0) -> float:
    """Polynomially weighted supremum sup (n+1)^2 * max|coefficient at level n|.

    Stored levels contribute their actual maxima; for a non-truncated table
    the levels beyond the stored horizon contribute through the geometric
    envelope.  This is the quantity the rapid-decay inequality turns into an
    L2->Linf norm bound.
    """
    from_level = as_nonneg_int(from_level, "from_level")
    best = 0.0
    top = -1
    for n, value in coeffs.level_maxima().items():
        top = max(top, n)
        if n >= from_level:
            best = max(best, (n + 1) ** 2 * value)
    if not coeffs.truncated:
        c, ratio = decay_constant(coeffs.t0), coeffs.t / coeffs.N
        best = max(best, tail_sup(c, ratio, max(from_level, top + 1)))
    return best


def ultra_bound(ka, rd_constant) -> float:
    """L2->Linf norm certificate pi * rd_constant * ka / sqrt(6)."""
    ka = float(ka)
    rd_constant = float(rd_constant)
    if ka < 0.0:
        raise DomainError(f"ka must be >= 0, got {ka}")
    if rd_constant <= 0.0:
        raise DomainError(f"rd_constant must be > 0, got {rd_constant}")
    return math.pi * rd_constant * ka / math.sqrt(6.0)


@dataclass(frozen=True)
class BoundParams:
    """Rapid-decay constants and the decay anchor.

    D is the orthogonal rapid-decay constant, R the unitary one.  Neither has
    a default: they are quantum-group data the caller must supply.
    """

    D: float | None = None
    R: float | None = None
    t0: float = DEFAULT_T0

    def __post_init__(self):
        for name in ("D", "R"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not 0.0 < value < math.inf:
                    raise DomainError(f"{name} must be finite and > 0, got {value}")
                object.__setattr__(self, name, value)
        object.__setattr__(self, "t0", _check_t0(self.t0))

    def require(self, group: Group) -> float:
        name = "D" if group is Group.ORTH else "R"
        constant = getattr(self, name)
        if constant is None:
            raise DomainError(f"the {name} rapid-decay constant is required and has no default")
        return constant


@dataclass(frozen=True)
class TruncationCertificate:
    """A truncation order together with its certified operator-norm tail bound."""

    t: float
    m: int
    tail_bound: float
    target_eps: float

    @property
    def satisfied(self) -> bool:
        return self.tail_bound <= self.target_eps


def _check_tail_args(t, N, t0) -> tuple[float, int]:
    t, N = _check_ratio_args(t, N, t0)
    if t == N:
        raise DomainError(f"t must lie in [{float(t0)}, {N}) for a finite tail bound, got {t}")
    return t, N


def _tail_bound(group: Group, t, m, N, bounds: BoundParams) -> float:
    t, N = _check_tail_args(t, N, bounds.t0)
    m = as_nonneg_int(m, "m")
    return _checked_tail_bound(decay_constant(bounds.t0), t / N, m, bounds.require(group))


def _checked_tail_bound(coef: float, ratio: float, m: int, constant: float) -> float:
    # the tail bound at order m, for arguments that _tail_bound or
    # choose_truncation has checked: coef = C_t0, ratio = t/N in (0, 1)
    ka_tail = tail_sup(coef, ratio, m + 1)
    bound = ultra_bound(ka_tail, constant)
    if math.isnan(bound):
        # pi * constant overflowed to inf and met a tail that underflowed to 0
        raise DomainError(f"tail bound at m={m} is NaN: the rapid-decay constant is too large")
    if min(ratio ** (m + 1), math.pi * constant, bound) < sys.float_info.min and bound < math.inf:
        # the powers ratio**n of the tail are subnormal or 0 and have lost
        # their precision, while the bound itself need not be small; or a
        # product of the bound (pi * constant, or the bound itself) is
        # subnormal and was rounded in the subnormal range
        return _log_tail_bound(coef, ratio, m + 1, constant)
    return bound


def _log_tail_bound(coef: float, ratio: float, from_level: int, constant: float) -> float:
    """pi * constant / sqrt(6) * tail_sup(coef, ratio, from_level), in logarithms.

    For a tail whose powers ratio**n are subnormal or 0 in doubles (coef > 0,
    0 < ratio < 1) while pi * constant is finite: there the float tail has
    lost precision or reads 0, but the bound may lie far above the underflow
    threshold.  Also for a tiny constant, where pi * constant or the bound
    itself is subnormal and the float product loses bits there.  Each term is
    summed as logarithms at the levels tail_sup examines.  ``ratio`` is t/N
    rounded to a double, off by up to 2**-53 relative, which ratio**n
    multiplies by n, so log(ratio) is raised by 2**-52 per level; the rest
    of the rounding (below 1e-12 relative while the result is above the
    underflow threshold) is covered by BOUND_SLACK, and a final ulp covers
    the rounding of exp below it.  The result is at least the smallest
    positive double.
    """
    scale = math.log(math.pi) + math.log(constant) - 0.5 * math.log(6.0) + math.log(coef)
    log_ratio = math.log(ratio) + 2.0**-52
    log_bound = max(
        scale + 2.0 * math.log(n + 1) + n * log_ratio for n in _tail_levels(ratio, from_level)
    )
    try:
        bound = math.exp(log_bound)
    except OverflowError:
        # only for ratio within ulps of 1, where the allowance outweighs log(ratio)
        return math.inf
    return math.nextafter(bound * (1.0 + BOUND_SLACK), math.inf)


def tail_bound_orth(t, m, N, bounds: BoundParams) -> float:
    """Certified bound on the norm of the orthogonal net minus its order-m truncation.

    Equals pi*D/sqrt(6) * sup over n > m of (n+1)^2 * C_t0 * (t/N)**n; it is
    monotone non-increasing in m and converges to 0.
    """
    return _tail_bound(Group.ORTH, t, m, N, bounds)


def tail_bound_unitary(t, m, N, bounds: BoundParams) -> float:
    """Certified bound on the norm of the unitary net minus its order-m truncation."""
    return _tail_bound(Group.UNIT, t, m, N, bounds)


def choose_truncation(t, eps, N, group, bounds: BoundParams) -> TruncationCertificate:
    """Smallest truncation order whose tail bound is at most eps.

    The bound is non-increasing in m and falls to 0, so after the m = 0 check
    exponential search (m = 1, 2, 4, ...) brackets the smallest sufficient
    order and bisection of the last bracket finds it, in O(log m) bound
    evaluations.  The search returns the order a scan m = 0, 1, 2, ... would:
    in floats the bound can rise by an ulp at the one order where the
    envelope's stop test first passes, but every smaller order then shares
    the bound at m = 0, which is checked first.  The arguments are checked
    once, before the search.  The returned certificate carries the bound
    value actually achieved.
    """
    eps = float(eps)
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be finite and > 0, got {eps}")
    group = Group.coerce(group)
    t, N = _check_tail_args(t, N, bounds.t0)
    coef, ratio, constant = decay_constant(bounds.t0), t / N, bounds.require(group)
    bound = _checked_tail_bound(coef, ratio, 0, constant)
    if bound <= eps:
        return TruncationCertificate(t=t, m=0, tail_bound=bound, target_eps=eps)
    lo, hi = 0, 1
    while (bound := _checked_tail_bound(coef, ratio, hi, constant)) > eps:
        lo, hi = hi, 2 * hi
    # bound(lo) > eps >= bound(hi) == bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_bound = _checked_tail_bound(coef, ratio, mid, constant)
        if mid_bound <= eps:
            hi, bound = mid, mid_bound
        else:
            lo = mid
    return TruncationCertificate(t=t, m=hi, tail_bound=bound, target_eps=eps)


def truncated_coeffs(group, t, m, N, t0=DEFAULT_T0, entry_cap=DEFAULT_ENTRY_CAP) -> MultiplierCoeffs:
    """Coefficient table of the order-m truncation of the net.

    The orthogonal table has m+1 entries; the unitary one has an entry for
    every word of length <= m (2**(m+1) - 1 of them) and is refused with a
    :class:`~freeqg.errors.ResourceCapError` beyond ``entry_cap``.  Both take
    their ratios u_k(t)/u_k(N), k <= m, from one
    :func:`~freeqg.chebyshev.coeff_ratios` pass.

    A unitary coefficient depends on its word only through the key
    ``(eps_weight, sorted blocks)`` of the word's alternating form: the 16,383
    words of length <= 13 have 549 keys.  Which key each word has, in
    :func:`~freeqg.free_unitary.all_words` order, does not depend on (t, N).
    That shape is built by one walk of the word trie, where the form of
    ``w + letter`` follows from that of ``w`` in O(1), and only the deepest
    one built is kept: 2 bytes per word (an ``array('H')`` of key ids) and
    the keys, no word strings; a shallower m reads its prefix.  A request
    checks its arguments once, through one ``r_of`` and the ratio pass, and
    computes ``r**eps_weight`` times the ratios of the sorted blocks once per
    key, in the order :func:`a_coeff_from_form` multiplies them.  So every
    entry has the bits of ``a_coeff_from_form(alternating_form(w), t, N, t0)``,
    and a word and its involution, which share a key, have equal bits.
    """
    group = Group.coerce(group)
    m = as_nonneg_int(m, "m")
    entry_cap = as_nonneg_int(entry_cap, "entry_cap")
    if group is Group.ORTH:
        entries = dict(enumerate(coeff_ratios(m, t, N, t0)))
        return MultiplierCoeffs(group, entries, t=t, N=N, t0=t0)
    # 2**(m + 1) - 1 > entry_cap, without building a number of m bits
    if m + 1 >= (entry_cap + 1).bit_length():
        raise ResourceCapError(
            f"unitary table to level {m} needs 2**{m + 1} - 1 entries, above the cap {entry_cap}"
        )
    r = r_of(t, N, t0)
    ratios = coeff_ratios(m, t, N, t0)
    return MultiplierCoeffs(group, _unitary_entries(m, r, ratios), t=t, N=N, t0=t0)


def _unitary_entries(m: int, r: float, ratios: list) -> dict:
    """a_t at every word of length <= m, from r(t) and ratios[k] = u_k(t)/u_k(N)."""
    index, keys = _unitary_shape(m)
    values = [math.prod(map(ratios.__getitem__, b), start=r**e) for e, b in keys]
    return dict(zip(all_words(m), map(values.__getitem__, index)))


_shape = (-1, array("H"), [])  # (m, index, keys) of the deepest unitary table built


def _unitary_shape(m: int):
    """keys[index[i]] is the key (exponent of r, sorted blocks) of the i-th word of length <= m."""
    global _shape
    shape = _shape  # read once: a concurrent call may replace the memo
    if m > shape[0]:
        # A word's trie state: (leading sign + one per repeated letter, closed runs
        # sorted, open run, last letter); its children's states follow from it.  A
        # state's id is its place in `ids`; kids[i] holds those of its children.
        def children(state):
            weight, closed, run, last = state
            if last is None:  # the empty word
                return (1, (), 1, "a"), (0, (), 1, "b")
            repeat = (weight + 1, tuple(sorted(closed + (run,))), 1, last)
            grow = (weight, closed, run + 1, "b" if last == "a" else "a")
            return (repeat, grow) if last == "a" else (grow, repeat)

        ids = {(0, (), 0, None): 0}
        level, order, kids = [0], [0], []
        for _ in range(m):
            # the states first met on the last level are the ones without children yet
            kids += [tuple(ids.setdefault(child, len(ids)) for child in children(state))
                     for state in list(ids)[len(kids):]]
            level = list(chain.from_iterable(map(kids.__getitem__, level)))
            order += level
        keys = {}  # numbered by depth, as the states are: a shallower m reads prefixes
        key_ids = [keys.setdefault(
            (weight + (last == "b"), tuple(sorted(closed + (run,))) if run else ()), len(keys))
            for weight, closed, run, last in ids]
        index = array("H" if len(keys) <= 1 << 16 else "L", map(key_ids.__getitem__, order))
        shape = _shape = (m, index, list(keys))
    _, index, keys = shape
    return islice(index, 2 ** (m + 1) - 1), keys[: bisect_right(keys, m, key=lambda k: sum(k[1]))]


def approx_identity_weights(group, t, m, N, t0=DEFAULT_T0, entry_cap=DEFAULT_ENTRY_CAP):
    """Weights (label, coefficient at the conjugate label times dimension).

    These are the coefficients of the central approximate-identity vectors
    built from the net: the orthogonal labels are self-conjugate, the unitary
    ones conjugate by the word involution.
    """
    group = Group.coerce(group)
    t, N = _check_tail_args(t, N, t0)
    dim = dim_orth if group is Group.ORTH else dim_unitary
    # a_t(involution(w)) == a_t(w) bit for bit (same weight, same sorted blocks)
    coeffs = truncated_coeffs(group, t, m, N, t0, entry_cap).entries
    return [(label, a * _float_dim(dim(label, N), label)) for label, a in coeffs.items()]


def _float_dim(dim: int, label) -> float:
    try:
        return float(dim)
    except OverflowError:
        raise DomainError(f"the dimension at label {label!r} overflows a double") from None
