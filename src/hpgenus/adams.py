"""Adams operations psi^r on the one-generator series model of K(CP^infinity).

psi^r is the ring endomorphism determined by where it sends the generator:
t maps to (1 + t)^r - 1.  Applying psi^r to an arbitrary reduced class is
substitution of that image for t, never a per-monomial coefficient formula,
so the endomorphism laws are structural rather than tabulated.

``psi_apply(r, f)`` returns a series in f's ring, by one path for every
ring: the sum of f's coefficients times the powers of the generator image,
read off a bounded cache of those powers in f's ring, where the image is
powered too: mod m, 1 + t is reduced before it is raised to the r-th power,
so no coefficient reaches m.  Reduction commutes with substitution, so
``psi_apply(r, f.reduce(m)) == psi_apply(r, f).reduce(m)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .primes import is_prime
from .series import TruncatedSeries


def _check_index(r: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"Adams index must be a positive integer, got {r!r}")


def psi_generator(r: int, order: int) -> TruncatedSeries:
    """The image of the generator under psi^r: (1 + t)^r - 1, truncated.

    Powered over the integers, so the binomial coefficients are exact; the
    constant term is always zero and the t^1 coefficient is r.
    """
    _check_index(r)
    return TruncatedSeries(order, (1, 1)[:order]) ** r - 1


@lru_cache(maxsize=64)
def _psi_rows(r: int, order: int, modulus: Optional[int]) -> tuple[TruncatedSeries, ...]:
    # The powers g, g^2, ... of the generator image g = (1 + t)^r - 1, in the
    # ring of the series they are applied to, up to the first one that is
    # zero: every higher power is zero too.  Mod p^2, g = p*t + ... + t^p and
    # g^3 is zero below t^(p+2), so that table has two rows of residues.
    one_plus_t = TruncatedSeries(order, (1, 1)[:order])
    g = (one_plus_t if modulus is None else one_plus_t.reduce(modulus)) ** r - 1
    rows = []
    power = g
    while not power.is_zero:
        rows.append(power)
        power = power * g
    return tuple(rows)


def psi_apply(r: int, f: TruncatedSeries) -> TruncatedSeries:
    """Apply psi^r to a series with zero constant term, in the series' own ring.

    The value equals ``f.compose(psi_generator(r, f.order))``, reduced mod
    f's modulus when it has one: the sum over j of f_j * g^j, with the
    powers g^j of the generator image built in f's ring and cached per
    (r, order, modulus): mod p^2 at order p+2 a table is two rows of
    residues.  Over the integers no power vanishes below t^order, so a table
    holds about order^2 / 2 exact coefficients (about 6 MB at r = 3 and
    order 400); the cache keeps at most 64 tables.
    """
    _check_index(r)
    if f.coefficient(0) != 0:
        raise ValueError("psi acts on reduced classes: the constant term must be zero")
    # the coefficients past the last row multiply zero powers
    rows = _psi_rows(r, f.order, f.modulus)
    return TruncatedSeries.combination(f.order, f.modulus, f.coeffs[1:], rows)


def check_composition(a: int, b: int, order: int) -> bool:
    """Whether psi^a after psi^b agrees with psi^(ab) at the given order.

    This is an identity of the operations, so the result is always True;
    it is exposed as a checkable oracle rather than assumed.
    """
    _check_index(a)
    _check_index(b)
    return psi_apply(a, psi_generator(b, order)) == psi_generator(a * b, order)


def check_frobenius(p: int, f: TruncatedSeries) -> bool:
    """Whether psi^p(f) is congruent to f^p modulo p.

    Holds for every prime p and every series f with zero constant term;
    exposed as a checkable oracle.
    """
    if not is_prime(p):
        raise ValueError(f"the Frobenius congruence needs a prime, got {p!r}")
    if f.coefficient(0) != 0:
        raise ValueError("the constant term must be zero")
    # reduction mod p commutes with psi^p and with powers
    residues = f.reduce(p)
    return psi_apply(p, residues) == residues**p
