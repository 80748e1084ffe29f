"""The semicircle spectral measure of the fundamental orthogonal character.

Relative to the Haar state, the fundamental character of the free orthogonal
quantum group is a standard semicircular element: its spectral measure has
density sqrt(4 - x^2)/(2 pi) on [-2, 2], its even moments are the Catalan
numbers and its odd moments vanish.  In the full C*-algebra the spectrum of
the same character is the interval [-N, N].

numpy is imported inside the functions that use it, so that importing
:mod:`freeqg` (and its CLI) does not load it.
"""

from __future__ import annotations

import math

from ._util import as_int, as_nonneg_int
from .errors import DomainError


def semicircle_density(x):
    """Density sqrt(4 - x^2)/(2 pi) on [-2, 2], zero outside.

    Accepts scalars or arrays; scalars come back as floats.
    """
    import numpy as np

    arr = np.asarray(x, dtype=float)
    out = np.where(
        np.abs(arr) <= 2.0,
        np.sqrt(np.clip(4.0 - arr * arr, 0.0, None)) / (2.0 * math.pi),
        0.0,
    )
    return float(out) if out.ndim == 0 else out


def semicircle_cdf(x):
    """Distribution function of the semicircle law.

    1/2 + x*sqrt(4 - x^2)/(4 pi) + arcsin(x/2)/pi on the support, clamped to
    0 and 1 outside.
    """
    import numpy as np

    arr = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    out = 0.5 + arr * np.sqrt(4.0 - arr * arr) / (4.0 * math.pi) + np.arcsin(arr / 2.0) / math.pi
    return float(out) if out.ndim == 0 else out


def semicircle_moment(k, subdivisions: int = 10_000) -> float:
    """k-th moment of the semicircle law by composite Simpson quadrature.

    The substitution x = 2 sin(theta) removes the square-root endpoint
    singularity (the integrand becomes a trigonometric polynomial), after
    which Simpson reaches machine precision well below the default panel
    count.  ``subdivisions`` is the number of panels (rounded up to even;
    at least 64).
    """
    k = as_nonneg_int(k, "k")
    subdivisions = as_int(subdivisions, "subdivisions", 64)
    import numpy as np

    panels = subdivisions + (subdivisions % 2)
    thetas = np.linspace(-math.pi / 2.0, math.pi / 2.0, panels + 1)
    xs = 2.0 * np.sin(thetas)
    integrand = xs**k * (4.0 * np.cos(thetas) ** 2) / (2.0 * math.pi)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    h = math.pi / panels
    return float(h / 3.0 * np.dot(weights, integrand))


def semicircle_sample(seed, count) -> np.ndarray:
    """Draw i.i.d. semicircle samples by rejection against a uniform envelope.

    Proposals are uniform on [-2, 2] x [0, 1/pi]; the acceptance rate is
    pi/4.  The generator is numpy's PCG64 seeded with ``seed``, and the
    chunked accept/reject loop consumes the stream in a fixed order, so the
    output is bit-reproducible for a given seed, a non-negative integer.
    ``seed=None`` draws a fresh, unseeded stream.
    """
    if seed is not None:
        seed = as_nonneg_int(seed, "seed")
    count = as_int(count, "count", 1)
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(count)
    filled = 0
    while filled < count:
        chunk = max(1024, int((count - filled) * 1.6) + 16)
        xs = rng.uniform(-2.0, 2.0, chunk)
        ys = rng.uniform(0.0, 1.0 / math.pi, chunk)
        accepted = xs[ys <= semicircle_density(xs)]
        take = min(accepted.size, count - filled)
        out[filled : filled + take] = accepted[:take]
        filled += take
    return out


def spectrum_interval(algebra: str, N) -> tuple[float, float]:
    """Spectrum of the fundamental character as an interval.

    In the reduced algebra the spectrum is [-2, 2] for every N; in the full
    algebra it is [-N, N].  ``algebra`` is ``"reduced"`` or ``"full"``.
    """
    N = as_int(N, "N", 2)
    if algebra == "reduced":
        return (-2.0, 2.0)
    if algebra == "full":
        return (-float(N), float(N))
    raise DomainError(f"algebra must be 'reduced' or 'full', got {algebra!r}")
