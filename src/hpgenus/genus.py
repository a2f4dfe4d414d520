"""Genus points of HP^infinity and the K-theory shadow of a map from CP^infinity.

A genus point is described by its per-prime sign invariants: a default sign
together with finitely many exceptional primes where the sign differs.  A
map from CP^infinity is described by its degree k plus the unknown higher
coefficients of the induced image of the generator; only k times t^2 is
pinned down, and everything above t^2 is quantified over.

The two series built here are the two routes around the naturality square
for psi^p:

* ``psi_then_pullback`` applies psi^p upstairs on the genus point's
  generator (degree-p power and the sign-weighted middle power) and pulls
  the result back along the map.
* ``pullback_then_psi`` pulls the generator back first and applies psi^p
  downstairs by substitution.

The comparison is of the t^(p+1) coefficients modulo p^2, so both routes
reduce the pullback S of the generator mod p^2 once and compute in
(Z/p^2)[t]/(t^(p+2)): they return residue series mod p^2, which are the
residues of the exact integer routes because reduction and truncation are
ring homomorphisms.  t^n has skeletal filtration 2n, so the filtration cut
at 2p+3 that the comparison needs is truncation at order p+2.  The unknown
terms of psi^p lie in filtration >= 2p+3, so they vanish at that order and
are not modelled.  The brute force checks its arguments once per call and
then calls unchecked cores that take S and compute only the t^(p+1)
coefficient.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul
from typing import Mapping

from .adams import _psi_rows, psi_apply
from .primes import is_prime
from .series import TruncatedSeries

#: Signs are plain ints restricted to {+1, -1}.
Sign = int


def check_sign(value: int) -> int:
    """Validate and return a sign, which must be exactly +1 or -1."""
    if value not in (1, -1) or isinstance(value, bool):
        raise ValueError(f"sign must be +1 or -1, got {value!r}")
    return value


def check_degree(k: int) -> int:
    """Validate and return a map degree, which must be a non-zero int."""
    if not isinstance(k, int) or isinstance(k, bool) or k == 0:
        raise ValueError(f"degree must be a non-zero integer, got {k!r}")
    return k


def check_odd_prime(p: int) -> int:
    """Validate and return an odd prime."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p!r}")
    return p


def check_degree_prime_to(k: int, p: int) -> int:
    """Validate and return a map degree that the odd prime p does not divide."""
    if check_degree(k) % p == 0:
        raise ValueError(f"{p} divides {k}: the symbol would be 0, outside the scope of this test")
    return k


def sign_to_str(value: int) -> str:
    return "+1" if check_sign(value) == 1 else "-1"


def sign_from_str(text: str) -> int:
    if text == "+1" or text == "1":
        return 1
    if text == "-1":
        return -1
    raise ValueError(f"sign must be '+1' or '-1', got {text!r}")


@dataclass(frozen=True)
class RectorInvariant:
    """Per-prime sign invariants of a genus point.

    ``exceptions`` may be given as a {prime: sign} mapping or as (prime,
    sign) pairs; non-prime keys and repeated primes are rejected.  It is
    stored canonically, holding only primes whose sign differs from the
    default as sorted (prime, sign) pairs, so structural equality is
    semantic equality.  ``lookup`` is total over the primes, including 2.
    A default of -1 with finitely many +1 exceptions is just as legal as
    the usual all-but-finitely +1 points.
    """

    default: Sign = 1
    exceptions: tuple[tuple[int, Sign], ...] = ()

    def __post_init__(self) -> None:
        check_sign(self.default)
        items = (
            self.exceptions.items()
            if isinstance(self.exceptions, Mapping)
            else tuple(self.exceptions)
        )
        canonical = []
        seen = set()
        for p, sign in items:
            if not is_prime(p):
                raise ValueError(f"exception keys must be prime, got {p!r}")
            if p in seen:
                raise ValueError(f"duplicate exception for prime {p}")
            seen.add(p)
            check_sign(sign)
            if sign != self.default:
                canonical.append((p, sign))
        object.__setattr__(self, "exceptions", tuple(sorted(canonical)))

    @classmethod
    def _trusted(cls, default: Sign, exceptions: tuple[tuple[int, Sign], ...]) -> "RectorInvariant":
        # canonical exceptions at primes already checked: nothing is validated again
        point = object.__new__(cls)
        object.__setattr__(point, "default", default)
        object.__setattr__(point, "exceptions", exceptions)
        return point

    def lookup(self, p: int) -> Sign:
        """The sign invariant at the prime p."""
        if not is_prime(p):
            raise ValueError(f"invariants are indexed by primes, got {p!r}")
        return self.exception_map().get(p, self.default)

    def exception_map(self) -> dict[int, Sign]:
        return dict(self.exceptions)

    def to_json_dict(self) -> dict:
        return {
            "default": sign_to_str(self.default),
            "exceptions": {str(p): sign_to_str(s) for p, s in self.exceptions},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RectorInvariant":
        try:
            default = sign_from_str(data["default"])
            exceptions = {int(p): sign_from_str(s) for p, s in data.get("exceptions", {}).items()}
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed genus document: {data!r}") from exc
        return cls(default, exceptions)


@dataclass(frozen=True)
class DegreeMapModel:
    """What a map of degree k pins down in K-theory: k at t^2, unknowns above.

    ``higher`` lists the coefficients of t^3, t^4, ... in the pullback of
    the generator.  Degree zero is rejected: a null map carries no
    obstruction content, and the degree framework concerns essential maps.
    """

    degree: int
    higher: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_degree(self.degree)
        higher = tuple(self.higher)
        for c in higher:
            if not isinstance(c, int):
                raise ValueError(f"higher coefficients must be integers, got {c!r}")
        object.__setattr__(self, "higher", higher)

    def as_series(self, order: int) -> TruncatedSeries:
        """degree * t^2 plus the higher terms, truncated to the given order."""
        return TruncatedSeries(order, ((0, 0, self.degree) + self.higher)[:order])


def _pullback(p: int, f: DegreeMapModel) -> TruncatedSeries:
    """S = f.as_series(p + 2).reduce(p^2), built once: f's ints are already checked."""
    n, m = p + 2, p * p
    coeffs = ((0, 0, f.degree) + f.higher)[:n]
    return TruncatedSeries._trusted(n, [c % m for c in coeffs] + [0] * (n - len(coeffs)), m)


def _lhs_factors(
    p: int, epsilon: Sign, s: TruncatedSeries
) -> tuple[TruncatedSeries, TruncatedSeries]:
    # S^p + 2*epsilon*p*S^((p+1)/2) = S^((p+1)/2) * (S^((p-1)/2) + 2*epsilon*p)
    lower = s ** ((p - 1) // 2)
    return lower * s, lower + 2 * epsilon * p


def _psi_then_pullback_top(p: int, epsilon: Sign, s: TruncatedSeries) -> int:
    """The t^(p+1) coefficient of psi_then_pullback, from S, unchecked: one dot product."""
    middle, rest = _lhs_factors(p, epsilon, s)
    return sum(map(mul, middle.coeffs, reversed(rest.coeffs))) % s.modulus


def _pullback_then_psi_top(p: int, s: TruncatedSeries) -> int:
    """The t^(p+1) coefficient of pullback_then_psi, from S, unchecked.

    psi^p is additive, so this is the sum of S_j times the t^(p+1)
    coefficient of g^j, one column of the cached table of powers of the
    generator image g.
    """
    rows = _psi_rows(p, p + 2, s.modulus)
    return sum([c * row.coeffs[p + 1] for c, row in zip(s.coeffs[1:], rows)]) % s.modulus


def psi_then_pullback(p: int, epsilon: Sign, f: DegreeMapModel) -> TruncatedSeries:
    """Apply psi^p upstairs, then pull back along f.  A residue series mod p^2.

    With S the pullback of the generator, this is
    S^p + 2*epsilon*p*S^((p+1)/2) in (Z/p^2)[t]/(t^(p+2)).
    """
    check_sign(epsilon)
    check_odd_prime(p)
    check_degree_prime_to(f.degree, p)
    middle, rest = _lhs_factors(p, epsilon, _pullback(p, f))
    return middle * rest


def pullback_then_psi(p: int, f: DegreeMapModel) -> TruncatedSeries:
    """Pull the generator back along f, then apply psi^p by substitution.

    A residue series mod p^2 in (Z/p^2)[t]/(t^(p+2)).
    """
    check_odd_prime(p)
    return psi_apply(p, _pullback(p, f))


# -- seeded random models ----------------------------------------------------
#
# The independence claims ("the t^(p+1) coefficient mod p^2 does not depend
# on the map's higher terms") are certified numerically by sweeping seeded
# random maps through the two routes.  Each slot holds the value
# ``rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1)`` would return, which is what
# ``rng.randint(-DRAW_BOUND, DRAW_BOUND)`` calls: randrange takes the top five
# bits of one 32-bit MT19937 word (M. Matsumoto and T. Nishimura, ACM TOMACS
# 8, 1998) and draws again while they are 19 or more.  CPython's
# ``getrandbits(32 * j)`` returns the next j words, the first in the lowest
# bits, so the values still missing are drawn as one int, each word read by
# its top byte, and the rejected words are made up by the next batch: the
# same values, and the same generator state afterwards.
DRAW_BOUND = 9
#: top byte b of a word -> its top five bits b >> 3; the rejected bytes are deleted
_TOP_BITS = bytes(b >> 3 for b in range(256))
_REJECTED = bytes(range((2 * DRAW_BOUND + 1) << 3, 256))


def random_degree_map(rng: random.Random, degree: int, order: int) -> DegreeMapModel:
    """A degree map with every higher slot t^3..t^(order-1) drawn from [-DRAW_BOUND, DRAW_BOUND].

    The slots are the values of ``rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1)``
    called order - 3 times, and rng is left in the same state, but the words
    are drawn in batches, one ``getrandbits`` call per batch.
    """
    higher: list[int] = []
    need = order - 3
    while need > 0:
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        higher += [v - DRAW_BOUND for v in words[3::4].translate(_TOP_BITS, _REJECTED)]
        need = order - 3 - len(higher)
    return DegreeMapModel(degree, tuple(higher))
