"""Adams operations psi^r on the one-generator series model of K(CP^infinity).

psi^r is the ring endomorphism determined by where it sends the generator:
t maps to (1 + t)^r - 1.  Applying psi^r to an arbitrary reduced class is
substitution of that image for t, never a per-monomial coefficient formula,
so the endomorphism laws are structural rather than tabulated.

``psi_apply(r, f)`` returns a series in f's ring.  On an integer series it
is ``f.compose(psi_generator(r, f.order))``.  On a residue series mod m it
is that value reduced mod m, read off a cached table of the generator
image's powers mod m; reduction commutes with substitution, so
``psi_apply(r, f.reduce(m)) == psi_apply(r, f).reduce(m)``.  The table
cache is bounded.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .primes import is_prime
from .series import TruncatedSeries, _mul, _pack, _residue_slot, _slots


def _check_index(r: int) -> None:
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ValueError(f"Adams index must be a positive integer, got {r!r}")


def psi_generator(r: int, order: int) -> TruncatedSeries:
    """The image of the generator under psi^r: (1 + t)^r - 1, truncated.

    Binomial coefficients are exact; the constant term is always zero and
    the t^1 coefficient is r.
    """
    _check_index(r)
    coeffs = [0]
    c = 1
    for n in range(1, min(r, order - 1) + 1):
        c = c * (r - n + 1) // n  # C(r, n) from C(r, n - 1), exactly
        coeffs.append(c)
    return TruncatedSeries(order, coeffs)


@lru_cache(maxsize=64)
def _psi_rows(r: int, order: int, modulus: int) -> tuple[int, ...]:
    # Row j - 1 is g^j mod modulus for the generator image g, packed in the
    # kernel's residue slots, so applying psi^r is one sum of scalar
    # multiples of rows.  g^j vanishes below t^j, so each power is the
    # product of two shorter tails.  The rows stop at the first power that
    # is zero, since every higher one is too: mod p^2, g = (1 + t)^p - 1 is
    # p*t + ... + t^p, and g^3 is zero below t^(p+2).
    size, code = _residue_slot(order, modulus)
    g = [c % modulus for c in psi_generator(r, order).coeffs]
    rows = []
    power = g
    for j in range(1, order):
        if not any(power):
            break
        rows.append(_pack(power, size, code))
        power = [0] * j + _mul(power[j:], g[: order - j], order - j, modulus)
    return tuple(rows)


def psi_apply(r: int, f: TruncatedSeries) -> TruncatedSeries:
    """Apply psi^r to a series with zero constant term, in the series' own ring.

    The value equals ``f.compose(psi_generator(r, f.order))``, reduced mod
    f's modulus when it has one.
    """
    _check_index(r)
    if f.coefficient(0) != 0:
        raise ValueError("psi acts on reduced classes: the constant term must be zero")
    n, m = f.order, f.modulus
    if m is None:
        return f.compose(psi_generator(r, n))
    # every slot of the sum holds at most n - 1 products of residues; the
    # coefficients past the last row multiply zero powers
    total = sum(map(mul, f.coeffs[1:], _psi_rows(r, n, m)))
    size, code = _residue_slot(n, m)
    return TruncatedSeries._trusted(n, [c % m for c in _slots(total, size, code, n)], m)


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
