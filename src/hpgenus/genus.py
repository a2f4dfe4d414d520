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
are not modelled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping

from .adams import psi_apply
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

    Stored canonically: ``exceptions`` holds only primes whose sign differs
    from the default, as sorted (prime, sign) pairs, so structural equality
    is semantic equality.  ``lookup`` is total over the primes, including 2.
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
        return cls(default, tuple(exceptions.items()))


def make_genus(default: Sign, exceptions: Mapping[int, Sign]) -> RectorInvariant:
    """Build a genus point from a default sign and per-prime exceptions.

    Exceptions equal to the default are dropped (canonical form); non-prime
    keys are rejected.
    """
    return RectorInvariant(default, tuple(exceptions.items()))


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
        coeffs = [0] * order
        if order > 2:
            coeffs[2] = self.degree
        for i, c in enumerate(self.higher):
            n = 3 + i
            if n >= order:
                break
            coeffs[n] = c
        return TruncatedSeries(order, coeffs)


def psi_then_pullback(p: int, epsilon: Sign, f: DegreeMapModel) -> TruncatedSeries:
    """Apply psi^p upstairs, then pull back along f.  A residue series mod p^2.

    With S the pullback of the generator, this is
    S^p + 2*epsilon*p*S^((p+1)/2) in (Z/p^2)[t]/(t^(p+2)).
    """
    check_sign(epsilon)
    check_odd_prime(p)
    check_degree_prime_to(f.degree, p)
    s = f.as_series(p + 2).reduce(p * p)
    lower = s ** ((p - 1) // 2)
    middle = lower * s  # S^((p+1)/2)
    # S^p + 2*epsilon*p*S^((p+1)/2) = S^((p+1)/2) * (S^((p-1)/2) + 2*epsilon*p)
    return middle * (lower + 2 * epsilon * p)


def pullback_then_psi(p: int, f: DegreeMapModel) -> TruncatedSeries:
    """Pull the generator back along f, then apply psi^p by substitution.

    A residue series mod p^2 in (Z/p^2)[t]/(t^(p+2)).
    """
    check_odd_prime(p)
    return psi_apply(p, f.as_series(p + 2).reduce(p * p))


# -- seeded random models ----------------------------------------------------
#
# The independence claims ("the t^(p+1) coefficient mod p^2 does not depend
# on the map's higher terms") are certified numerically by sweeping seeded
# random maps through the two routes.  Each slot is drawn by
# ``rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1)``, which is what
# ``rng.randint(-DRAW_BOUND, DRAW_BOUND)`` calls, so the values are those of
# randint without its extra call.
DRAW_BOUND = 9


def random_degree_map(rng: random.Random, degree: int, order: int) -> DegreeMapModel:
    """A degree map with every higher slot t^3..t^(order-1) drawn from [-DRAW_BOUND, DRAW_BOUND]."""
    higher = tuple([rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1) for _ in range(order - 3)])
    return DegreeMapModel(degree, higher)
