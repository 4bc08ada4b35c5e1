"""Prime-pair counting by sieve and by Fourier analysis on Z/nZ.

The package computes the pair counting function (primes p with p + 2k
also prime) three independent ways - linear sieve, circular sieve, and an
exact spectral identity - and instruments the subgroup decomposition that
extracts the Hardy-Littlewood constants, together with exact
singular-series arithmetic and Ramanujan sums.
"""

__version__ = "0.1.0"

from .errors import (
    CacheError,
    IdentityError,
    PrimePairsError,
    ResourceLimitError,
    UsageError,
)
from .factored import (
    FactoredInteger,
    coprime_pair_count_bruteforce,
    coprime_pair_count_formula,
    coprime_pair_count_inclusion_exclusion,
    euler_phi,
    factorize,
    is_prime_u64,
    mobius,
    nu,
    primorial,
    ramanujan_sum_direct,
    ramanujan_sum_formula,
)
from .sieve import (
    PrimeTable,
    build_table,
    load_table,
    pair_count_circular,
    pair_count_linear,
    pi_progression,
    residue_profile,
    save_table,
    twisted_progression_count,
    von_mangoldt_vector,
)
from .transform import (
    as_ring,
    forward,
    plancherel_residual,
)
from .constants import (
    TruncatedConstant,
    hl_constant,
    singular_series_from_pair_count,
    li2,
    mertens_ratio,
    singular_series_divisor_sum,
    singular_series_product,
)
from .spectral import (
    DecompositionReport,
    decompositions,
    half_spectrum_residual,
    main_term_convolution,
    pair_counts_via_spectrum,
    psi_pair_direct,
    psi_pair_via_spectrum,
)

__all__ = [
    "__version__",
    "CacheError",
    "IdentityError",
    "PrimePairsError",
    "ResourceLimitError",
    "UsageError",
    "FactoredInteger",
    "factorize",
    "is_prime_u64",
    "mobius",
    "euler_phi",
    "primorial",
    "nu",
    "ramanujan_sum_direct",
    "ramanujan_sum_formula",
    "coprime_pair_count_formula",
    "coprime_pair_count_bruteforce",
    "coprime_pair_count_inclusion_exclusion",
    "PrimeTable",
    "build_table",
    "save_table",
    "load_table",
    "pi_progression",
    "residue_profile",
    "twisted_progression_count",
    "pair_count_linear",
    "pair_count_circular",
    "von_mangoldt_vector",
    "forward",
    "plancherel_residual",
    "as_ring",
    "TruncatedConstant",
    "hl_constant",
    "singular_series_divisor_sum",
    "singular_series_product",
    "singular_series_from_pair_count",
    "mertens_ratio",
    "li2",
    "DecompositionReport",
    "pair_counts_via_spectrum",
    "main_term_convolution",
    "decompositions",
    "psi_pair_via_spectrum",
    "psi_pair_direct",
    "half_spectrum_residual",
]
