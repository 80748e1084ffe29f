"""Dilated Chebyshev polynomials of the second kind and derived quantities.

The family is fixed by the initial values ``u_0(x) = 1``, ``u_1(x) = x``
together with the three-term recursion ``x*u_n(x) = u_{n+1}(x) + u_{n-1}(x)``.
Values at an integer ``N >= 2`` are the quantum dimensions of the level-n
irreducible corepresentations of the free orthogonal quantum group, and the
ratios ``u_n(t)/u_n(N)`` for ``t`` in ``[t0, N]`` are the eigenvalues of the
central multiplier net attached to point-evaluation states on the character
algebra.

All evaluation goes through the recursion.  For ``t > 2`` the closed form

    u_n(t) = (q(t)**(n+1) - q(t)**-(n+1)) / (q(t) - 1/q(t)),
    q(t) = (t + sqrt(t*t - 4)) / 2

holds and the test suite uses it as a cross-check, but it degenerates at
``t = 2`` (where ``q = 1``), so it is never the evaluation path.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._util import as_int, as_nonneg_int
from .errors import DomainError

#: Default decay anchor: midpoint of the admissible interval (2, 3), chosen so
#: that q(t0) = 2 and the decay constant is exactly 4/3.
DEFAULT_T0 = 2.5


def _check_t0(t0: float) -> float:
    t0 = float(t0)
    if not 2.0 < t0 < 3.0:
        raise DomainError(f"t0 must lie in the open interval (2, 3), got {t0}")
    return t0


def cheby_u(n, x):
    """Evaluate u_n(x) by the three-term recursion.

    Integer ``x`` gives exact (arbitrary-precision) integer arithmetic, float
    ``x`` gives float arithmetic, and float ndarrays evaluate pointwise.
    """
    n = as_nonneg_int(n, "n")
    prev, cur = 0, x * 0 + 1  # u_{-1} = 0 and u_0 = 1, in the arithmetic of x
    for _ in range(n):
        prev, cur = cur, x * cur - prev
    return cur


def q_of(t) -> float:
    """The larger root q >= 1 of q + 1/q = t, i.e. (t + sqrt(t^2 - 4))/2."""
    t = float(t)
    if t < 2.0:
        raise DomainError(f"q(t) requires t >= 2, got {t}")
    return (t + math.sqrt(t * t - 4.0)) / 2.0


@lru_cache(maxsize=1024)
def _dim_orth(n: int, N: int) -> int:
    # u_n(2) = n + 1; else u_n(N) by doubling over the bits of n, in O(log n)
    # steps: (u, v) is (u_j, u_j+1), w = N*u - v is u_j-1, and
    # u_2j = u_j**2 - u_j-1**2, u_2j+1 = u_j*(u_j+1 - u_j-1), u_2j+2 = u_j+1**2 - u_j**2
    if N == 2:
        return n + 1
    u, v = 1, N  # j = 0
    for bit in bin(n)[2:]:
        w = N * u - v
        u, v = (u * (v - w), v * v - u * u) if bit == "1" else (u * u - w * w, u * (v - w))
    return u


def dim_orth(n, N) -> int:
    """Exact dimension u_n(N) of the level-n orthogonal irreducible.

    Computed by doubling over the bits of n; equals n+1 for N = 2.  Dimensions
    grow like q(N)**n, so the result is an arbitrary-precision integer.
    """
    n = as_nonneg_int(n, "n")
    return _dim_orth(n, as_int(N, "N", 2))


def _ratios(m: int, t: float, N: int) -> list[float]:
    # u_n(t)/u_n(N) for n = 0, 1, ..., m by the recursion of cheby_u, run for
    # t and N side by side; the list stops short of the first level where
    # u_n(N) overflows a double
    x = float(N)
    ratios = []
    num_prev, num, den_prev, den = 0.0, 1.0, 0.0, 1.0  # u_{-1} = 0, u_0 = 1
    for _ in range(m + 1):
        if not math.isfinite(den):
            break
        ratios.append(num / den)
        num_prev, num = num, t * num - num_prev
        den_prev, den = den, x * den - den_prev
    return ratios


def _overflow_error(n: int, N: int) -> DomainError:
    # |u_n(t)| <= u_n(N) for t <= N, so only the denominator can overflow;
    # the float ratio would read 0.0 and then NaN
    return DomainError(f"u_n(N) overflows a double at level n={n} for N={N}")


#: u_n(3) is the smallest u_n(N) for N >= 3 and stays finite up to n = 737.
_TOP_LEVEL = 737


@lru_cache(maxsize=32)
def _net(t: float, N: int) -> tuple[float, tuple[float, ...]]:
    # r(t) and every ratio u_n(t)/u_n(N) below the level where u_n(N)
    # overflows, for arguments that _check_ratio_args has already returned:
    # keyed on its float t and int N, never on what a caller passed
    r = (1.0 - q_of(t) ** -2) / (1.0 - q_of(N) ** -2)
    return r, tuple(_ratios(_TOP_LEVEL, t, N))


def coeff_ratio(n, t, N, t0=DEFAULT_T0) -> float:
    """Multiplier eigenvalue u_n(t)/u_n(N) for t in [t0, N].

    Lies in (0, 1] and equals 1 exactly when t = N or n = 0.  Raises
    :class:`~freeqg.errors.DomainError` at the levels where u_n(N)
    overflows a double (n >= 738 for N = 3).
    """
    n = as_nonneg_int(n, "n")
    t, N = _check_ratio_args(t, N, t0)
    ratios = _net(t, N)[1]
    if n >= len(ratios):
        raise _overflow_error(n, N)
    return ratios[n]


def coeff_ratios(m, t, N, t0=DEFAULT_T0) -> list[float]:
    """The eigenvalues [u_n(t)/u_n(N) for n <= m] in one pass.

    Runs the recursion behind :func:`coeff_ratio` once up to m, so a table
    costs O(m) steps where m + 1 calls of :func:`coeff_ratio` cost
    O(m**2); each value has the bits ``coeff_ratio(n, t, N, t0)`` gives.
    Raises the same :class:`~freeqg.errors.DomainError`, naming the first
    level where u_n(N) overflows a double.
    """
    m = as_nonneg_int(m, "m")
    t, N = _check_ratio_args(t, N, t0)
    ratios = _ratios(m, t, N)
    if len(ratios) <= m:
        raise _overflow_error(len(ratios), N)
    return ratios


def _check_ratio_args(t, N, t0) -> tuple[float, int]:
    """(float t, int N) of a net, after checking N >= 3, t0 in (2, 3), t in [t0, N].

    The one check of these arguments in the package.  N must also convert
    to a double, which every float evaluation of the net needs.
    """
    N = as_int(N, "N", 3)
    try:
        float(N)
    except OverflowError:
        bits = N.bit_length()
        raise DomainError(f"N must convert to a double, got an integer of {bits} bits") from None
    t0 = _check_t0(t0)
    t = float(t)
    if not t0 <= t <= N:
        raise DomainError(f"t must lie in [{t0}, {N}], got {t}")
    return t, N


def decay_constant(t0) -> float:
    """(1 - q(t0)^-2)^-1, the uniform constant of the geometric coefficient bound.

    Defined for 2 < t0 < 3; diverges as t0 -> 2 and is always > 1.
    """
    t0 = _check_t0(t0)
    q = q_of(t0)
    return 1.0 / (1.0 - q**-2)
