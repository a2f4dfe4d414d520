"""Genus points of HP^infinity and the K-theory shadow of a map from CP^infinity.

A genus point is described by its per-prime sign invariants: a default sign
together with finitely many exceptional primes where the sign differs.  A
map from CP^infinity is described by its degree k plus the unknown higher
coefficients of the induced image of the generator; only k times t^2 is
pinned down, and everything above t^2 is quantified over.

The two series built here are the two routes around the naturality square
for psi^p:

* ``psi_then_pullback`` applies psi^p upstairs on the genus point's
  generator (degree-p power, the sign-weighted middle power, and the
  unknown multiples of p and p^2) and pulls the result back along the map.
* ``pullback_then_psi`` pulls the generator back first and applies psi^p
  downstairs by substitution.

Both are exact and unreduced; callers compare their t^(p+1) coefficients
modulo p^2.  t^n has skeletal filtration 2n, so the filtration cut at 2p+3
that the comparison needs is truncation at order p+2, the smallest working
order both routes accept.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
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


def sign_to_str(value: int) -> str:
    return "+1" if check_sign(value) == 1 else "-1"


def sign_from_str(text: str) -> int:
    if text == "+1" or text == "1":
        return 1
    if text == "-1":
        return -1
    raise ValueError(f"sign must be '+1' or '-1', got {text!r}")


def _check_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p!r}")


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

    def lookup(self, p: int) -> Sign:
        """The sign invariant at the prime p."""
        if not is_prime(p):
            raise ValueError(f"invariants are indexed by primes, got {p!r}")
        for q, sign in self.exceptions:
            if q == p:
                return sign
        return self.default

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


@dataclass(frozen=True)
class GenusPsiModel:
    """How psi^p acts on a genus point's generator, seen through a map.

    ``epsilon`` is the point's sign invariant at the odd prime p.  The
    unknown terms of the action are recorded by their pullback images:
    ``w_image`` may only be supported in filtration >= 2p+3 (so above
    t^(p+1)) and ``z_image`` in filtration >= 4 (so above t^1).  Those two
    constraints are exactly what makes the unknowns drop out of the t^(p+1)
    coefficient mod p^2.  Since t^n has filtration 2n, the cut at 2p+3 is
    truncation at order p+2, where w_image is necessarily zero.
    """

    p: int
    epsilon: Sign
    w_image: TruncatedSeries
    z_image: TruncatedSeries

    def __post_init__(self) -> None:
        _check_odd_prime(self.p)
        check_sign(self.epsilon)
        for n in range(min(self.w_image.order, self.p + 2)):
            if self.w_image.coeffs[n] != 0:
                raise ValueError(
                    f"w_image must vanish below t^{self.p + 2}, found t^{n} term"
                )
        for n in range(min(self.z_image.order, 2)):
            if self.z_image.coeffs[n] != 0:
                raise ValueError(f"z_image must vanish below t^2, found t^{n} term")

    @classmethod
    def with_zero_unknowns(cls, p: int, epsilon: Sign, order: int) -> "GenusPsiModel":
        zero = TruncatedSeries.zero(order)
        return cls(p, epsilon, zero, zero)


def psi_then_pullback(model: GenusPsiModel, f: DegreeMapModel, order: int) -> TruncatedSeries:
    """Apply psi^p upstairs, then pull back along f.  Exact and unreduced.

    With S the pullback of the generator, this is
    S^p + 2*epsilon*p*S^((p+1)/2) + p*w_image + p^2*z_image.
    """
    p = model.p
    if order < p + 2:
        raise ValueError(f"order must be at least p + 2 = {p + 2} to see the t^{p + 1} term")
    if gcd(f.degree, p) != 1:
        raise ValueError(f"degree {f.degree} shares a factor with the prime {p}")
    if model.w_image.order != order or model.z_image.order != order:
        raise ValueError("unknown-term images must be given at the working order")
    s = f.as_series(order)
    lower = s ** ((p - 1) // 2)
    middle = lower * s  # S^((p+1)/2)
    return (
        lower * middle
        + middle * (2 * model.epsilon * p)
        + model.w_image * p
        + model.z_image * (p * p)
    )


def pullback_then_psi(p: int, f: DegreeMapModel, order: int) -> TruncatedSeries:
    """Pull the generator back along f, then apply psi^p by substitution.

    Exact and unreduced.
    """
    _check_odd_prime(p)
    if order < p + 2:
        raise ValueError(f"order must be at least p + 2 = {p + 2} to see the t^{p + 1} term")
    return psi_apply(p, f.as_series(order))


# -- seeded random models ----------------------------------------------------
#
# The independence claims ("the t^(p+1) coefficient mod p^2 does not depend
# on the unknown terms") are certified numerically by sweeping seeded random
# choices through the two routes.  Draw order is fixed: the map model first,
# then w, then z.


def random_degree_map(
    rng: random.Random, degree: int, order: int, bound: int = 9
) -> DegreeMapModel:
    """A degree map with every higher slot t^3..t^(order-1) drawn from [-bound, bound]."""
    higher = tuple(rng.randint(-bound, bound) for _ in range(max(0, order - 3)))
    return DegreeMapModel(degree, higher)


def random_psi_model(
    rng: random.Random, p: int, epsilon: Sign, order: int, bound: int = 9
) -> GenusPsiModel:
    """Random unknown-term images obeying the filtration constraints."""
    w = [0] * order
    for n in range(p + 2, order):
        w[n] = rng.randint(-bound, bound)
    z = [0] * order
    for n in range(2, order):
        z[n] = rng.randint(-bound, bound)
    return GenusPsiModel(p, epsilon, TruncatedSeries(order, w), TruncatedSeries(order, z))
