"""Exact truncated-series K-theory arithmetic and degree obstructions.

The package models the K-theory of CP^infinity as integer power series
truncated at a chosen order, realizes Adams operations by substitution into
the generator image, and uses that machinery to decide which genus points of
HP^infinity a map of given degree can possibly hit: at every odd prime p
coprime to the degree k, the point's sign invariant is forced to equal the
Legendre symbol (k/p).  The forcing is verified two independent ways, by
the closed-form congruence and by brute-force expansion of the naturality
square, and both are exposed programmatically and through the ``hpgenus``
command-line tool.
"""

from .adams import check_composition, check_frobenius, psi_apply, psi_generator
from .genus import (
    DegreeMapModel,
    RectorInvariant,
    Sign,
    psi_then_pullback,
    pullback_then_psi,
    random_degree_map,
)
from .obstruction import (
    ForcedGenusReport,
    Verdict,
    admissible,
    compatible,
    compatible_bruteforce,
    example_xp,
    forced_genus,
    legendre,
)
from .primes import is_prime, odd_primes_upto
from .series import TruncatedSeries

__version__ = "0.1.0"

__all__ = [
    "DegreeMapModel",
    "ForcedGenusReport",
    "RectorInvariant",
    "Sign",
    "TruncatedSeries",
    "Verdict",
    "admissible",
    "check_composition",
    "check_frobenius",
    "compatible",
    "compatible_bruteforce",
    "example_xp",
    "forced_genus",
    "is_prime",
    "legendre",
    "odd_primes_upto",
    "psi_apply",
    "psi_generator",
    "psi_then_pullback",
    "pullback_then_psi",
    "random_degree_map",
]
