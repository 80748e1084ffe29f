"""Fusion rings, quantum dimensions, and central multiplier bounds for the
free orthogonal and free unitary quantum groups.

The package is organized around five capability areas:

* :mod:`freeqg.chebyshev` -- dilated Chebyshev polynomials of the second
  kind, the q-parameter, quantum dimensions, and the decay constant.
* :mod:`freeqg.fusion_orth` -- the orthogonal fusion ring and the Catalan
  moments of the fundamental character.
* :mod:`freeqg.free_unitary` -- free-monoid word combinatorics, unitary
  fusion rules, and alternating character forms.
* :mod:`freeqg.multipliers` -- central multiplier coefficient nets, decay
  and ultracontractivity bounds, truncation certificates, and
  approximate-identity weights.
* :mod:`freeqg.spectral` -- the semicircle spectral measure of the
  fundamental orthogonal character.

A batch CLI (``freeqg``) exposes the operations with JSON-lines or CSV
output; see :mod:`freeqg.cli`.
"""

from .chebyshev import (
    DEFAULT_T0,
    cheby_u,
    coeff_ratio,
    coeff_ratios,
    decay_constant,
    dim_orth,
    q_of,
)
from .errors import DomainError, FormExpansionError, ResourceCapError, WordParseError
from .free_unitary import (
    AlternatingForm,
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
from .fusion_orth import (
    catalan,
    char_moment_orth,
    dim_check_fusion,
    fuse_orth,
    fuse_orth_many,
)
from .multipliers import (
    DEFAULT_ENTRY_CAP,
    BoundParams,
    Group,
    MultiplierCoeffs,
    TruncationCertificate,
    a_coeff,
    a_coeff_from_form,
    approx_identity_weights,
    choose_truncation,
    k_a,
    r_of,
    tail_bound_orth,
    tail_bound_unitary,
    tail_sup,
    truncated_coeffs,
    ultra_bound,
)
from .spectral import (
    semicircle_cdf,
    semicircle_density,
    semicircle_moment,
    semicircle_sample,
    spectrum_interval,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingForm",
    "BoundParams",
    "DEFAULT_ENTRY_CAP",
    "DEFAULT_T0",
    "DomainError",
    "FormExpansionError",
    "Group",
    "MultiplierCoeffs",
    "ResourceCapError",
    "TruncationCertificate",
    "WordParseError",
    "a_coeff",
    "a_coeff_from_form",
    "all_words",
    "alternating_form",
    "approx_identity_weights",
    "catalan",
    "char_expand_oracle",
    "char_moment_orth",
    "cheby_u",
    "choose_truncation",
    "coeff_ratio",
    "coeff_ratios",
    "decay_constant",
    "dim_check_fusion",
    "dim_check_fusion_unitary",
    "dim_orth",
    "dim_unitary",
    "dim_unitary_recursive",
    "fuse_orth",
    "fuse_orth_many",
    "fuse_unitary",
    "fuse_unitary_many",
    "involution",
    "k_a",
    "q_of",
    "r_of",
    "semicircle_cdf",
    "semicircle_density",
    "semicircle_moment",
    "semicircle_sample",
    "spectrum_interval",
    "tail_bound_orth",
    "tail_bound_unitary",
    "tail_sup",
    "truncated_coeffs",
    "ultra_bound",
    "word_parse",
]
