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
draws many trials' maps at once; ``_trials_agree`` builds each trial's S
with ``_pullback`` and expands ``_lhs`` and ``psi_apply`` from it in full.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Mapping

from .adams import psi_apply
from .primes import is_prime
from .series import TruncatedSeries, check_int, check_iterable, check_type

#: Signs are plain ints restricted to {+1, -1}.
Sign = int


def check_sign(value: int) -> int:
    """Validate and return a sign, which must be exactly +1 or -1."""
    if check_int("sign", value) not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {value!r}")
    return value


def check_degree(k: int) -> int:
    """Validate and return a map degree, which must be a non-zero int."""
    if check_int("degree", k) == 0:
        raise ValueError(f"degree must be a non-zero integer, got {k!r}")
    return k


def check_prime(what: str, value: int, floor: int = 2) -> int:
    """Return value if it is a prime and at least floor, else ValueError; floor 3 means odd."""
    if not is_prime(value) or value < floor:
        bound = "" if floor == 2 else f" >= {floor}"
        raise ValueError(f"{what} must be a prime{bound}, got {value!r}")
    return value


def check_degree_prime_to(k: int, p: int) -> int:
    """Validate and return a map degree that the odd prime p does not divide."""
    if check_degree(k) % p == 0:
        raise ValueError(f"{p} divides {k}: the symbol would be 0, outside the scope of this test")
    return k


#: the text of each sign, for every writer: the two strings are shared, not built per pair
SIGN_TEXT = {1: "+1", -1: "-1"}


def sign_from_str(text: str) -> int:
    if text == "+1" or text == "1":
        return 1
    if text == "-1":
        return -1
    raise ValueError(f"sign must be '+1' or '-1', got {text!r}")


def _entry(prime_text, sign_text) -> tuple:
    # one (prime, sign) entry of either genus text form: a string of ASCII digits is read as
    # an int; any other key is kept as it is, so that the prime rule in RectorInvariant
    # accepts an int key that is not a bool and rejects the rest, naming the key as given
    if isinstance(prime_text, str) and prime_text.isascii() and prime_text.isdigit():
        try:
            prime_text = int(prime_text)
        except ValueError:  # more digits than int() converts
            pass
    return prime_text, sign_from_str(sign_text)


@dataclass(frozen=True)
class RectorInvariant:
    """Per-prime sign invariants of a genus point.

    ``exceptions`` may be given as a {prime: sign} mapping or as (prime,
    sign) pairs; non-prime keys and repeated primes are rejected.  It is
    stored canonically, holding only primes whose sign differs from the
    default as sorted (prime, sign) pairs, so structural equality is
    semantic equality.  ``lookup`` is total over the primes, including 2.
    A default of -1 with finitely many +1 exceptions is just as legal as
    the usual all-but-finitely +1 points.  The two text forms, a JSON
    document and the inline spec, are read through one entry converter.
    """

    default: Sign = 1
    exceptions: tuple[tuple[int, Sign], ...] = ()

    def __post_init__(self) -> None:
        check_sign(self.default)
        items = (
            self.exceptions.items()
            if isinstance(self.exceptions, Mapping)
            else check_iterable("exceptions", self.exceptions)
        )
        canonical = []
        seen = set()
        for item in items:
            pair = check_iterable("exception", item)
            if len(pair) != 2:
                raise ValueError(f"exception must be a (prime, sign) pair, got {item!r}")
            p, sign = pair
            if check_prime("exception key", p) in seen:
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
        """The sign invariant at the prime p, by a binary search of the sorted exceptions."""
        i = bisect.bisect_left(self.exceptions, (check_prime("p", p),))
        if i < len(self.exceptions) and self.exceptions[i][0] == p:
            return self.exceptions[i][1]
        return self.default

    def to_json_dict(self) -> dict:
        return {
            "default": SIGN_TEXT[self.default],
            "exceptions": {str(p): SIGN_TEXT[s] for p, s in self.exceptions},
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RectorInvariant":
        try:
            default = sign_from_str(data["default"])
            exceptions = [_entry(p, s) for p, s in data.get("exceptions", {}).items()]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"malformed genus document of type {type(data).__name__}: expected an object "
                "with a 'default' sign and an optional 'exceptions' object"
            ) from exc
        return cls(default, exceptions)

    def to_spec(self) -> str:
        """The inline form ``from_spec`` reads, e.g. ``"3:-1,7:-1;default=+1"``."""
        tail = f"default={SIGN_TEXT[self.default]}"
        body = ",".join(f"{p}:{SIGN_TEXT[s]}" for p, s in self.exceptions)
        return f"{body};{tail}" if body else tail

    @classmethod
    def from_spec(cls, spec: str) -> "RectorInvariant":
        """Read the inline form ``"p1:s1,p2:s2;default=s"``; whitespace around a part is ignored.

        The default part is required; the exception list may be empty, e.g.
        ``"default=+1"`` or ``"3:-1,7:+1;default=+1"``.
        """
        default = None
        exceptions = []
        for part in check_type("spec", spec, str).split(";"):
            part = part.strip()
            if part.startswith("default="):
                if default is not None:
                    raise ValueError(f"duplicate default in genus spec {spec!r}")
                default = sign_from_str(part[len("default=") :].strip())
                continue
            for entry in filter(None, (entry.strip() for entry in part.split(","))):
                prime_text, sep, sign_text = entry.partition(":")
                if not sep:
                    raise ValueError(f"bad genus entry {entry!r}, expected 'prime:sign'")
                exceptions.append(_entry(prime_text.strip(), sign_text.strip()))
        if default is None:
            raise ValueError(f"genus spec {spec!r} is missing 'default=+1' or 'default=-1'")
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
        higher = check_iterable("higher", self.higher)
        for c in higher:
            check_int("higher coefficient", c)
        object.__setattr__(self, "higher", higher)

    def as_series(self, order: int) -> TruncatedSeries:
        """degree * t^2 plus the higher terms, truncated to the given order."""
        coeffs = ((0, 0, self.degree) + self.higher)[: check_int("order", order, 1)]
        return TruncatedSeries._trusted(order, coeffs + (0,) * (order - len(coeffs)), None)


def _pullback(p: int, degree: int, higher: Iterable[int]) -> TruncatedSeries:
    """S mod p^2 at order p + 2: degree * t^2, then at most p - 1 residues mod p^2 from t^3."""
    m = p * p
    coeffs = (0, 0, degree % m, *higher)
    return TruncatedSeries._trusted(p + 2, coeffs + (0,) * (p + 2 - len(coeffs)), m)


def _model_pullback(p: int, f: DegreeMapModel) -> TruncatedSeries:
    # f.as_series(p + 2).reduce(p^2) for the public routes: f's checked slots may be any ints
    m = p * p
    return _pullback(p, f.degree, [c % m for c in f.higher[: p - 1]])


def _lhs(p: int, epsilon: Sign, s: TruncatedSeries) -> TruncatedSeries:
    """S^p + 2*epsilon*p*S^((p+1)/2), unchecked: S is the pullback mod p^2 at order p+2.

    S is divisible by t^2, so S^p vanishes at that order and S^((p+1)/2)
    is t^(p+1) times one ``pow`` of S's unit coefficient mod p^2.
    """
    return s**p + s ** ((p + 1) // 2) * (2 * epsilon * p)


def psi_then_pullback(p: int, epsilon: Sign, f: DegreeMapModel) -> TruncatedSeries:
    """Apply psi^p upstairs, then pull back along f.  A residue series mod p^2.

    With S the pullback of the generator, this is
    S^p + 2*epsilon*p*S^((p+1)/2) in (Z/p^2)[t]/(t^(p+2)).
    """
    check_sign(epsilon)
    check_prime("p", p, 3)
    check_degree_prime_to(check_type("f", f, DegreeMapModel).degree, p)
    return _lhs(p, epsilon, _model_pullback(p, f))


def pullback_then_psi(p: int, f: DegreeMapModel) -> TruncatedSeries:
    """Pull the generator back along f, then apply psi^p by substitution.

    A residue series mod p^2 in (Z/p^2)[t]/(t^(p+2)).
    """
    check_prime("p", p, 3)
    return psi_apply(p, _model_pullback(p, check_type("f", f, DegreeMapModel)))


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
# bits, so the values still missing are drawn as one int and each word is read
# by its top byte.  ``_SIGNED`` translates that byte straight to the slot's
# value as a signed byte, and the rejected bytes are deleted; the next batch
# makes up for them: the same values, and the same generator state afterwards.
DRAW_BOUND = 9
#: top byte b of a word -> the slot value (b >> 3) - DRAW_BOUND, as a two's-complement byte
_SIGNED = bytes((b >> 3) - DRAW_BOUND & 0xFF for b in range(256))
_REJECTED = bytes(range((2 * DRAW_BOUND + 1) << 3, 256))
#: the most values a verdict draws at once after its first trial; one trial at p = 99991
_CHUNK_VALUES = 1 << 12


def _draw(rng: random.Random, count: int) -> bytearray:
    """count values of ``rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1)`` as two's-complement
    bytes, leaving rng where count such calls leave it: one ``getrandbits`` call per batch."""
    values = bytearray()
    while len(values) < count:
        need = count - len(values)
        words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        values += words[3::4].translate(_SIGNED, _REJECTED)
    return values


def random_degree_map(rng: random.Random, degree: int, order: int) -> DegreeMapModel:
    """A degree map with every higher slot t^3..t^(order-1) drawn from [-DRAW_BOUND, DRAW_BOUND].

    The slots are the values of ``rng.randrange(-DRAW_BOUND, DRAW_BOUND + 1)``
    called order - 3 times, and rng is left in the same state.
    """
    check_type("rng", rng, random.Random)
    check_degree(degree)
    return DegreeMapModel(degree, array("b", _draw(rng, check_int("order", order, 1) - 3)))


def _trials_agree(p: int, epsilon: Sign, degree: int, trials: int, seed: int) -> bool:
    """Whether both routes agree at t^(p+1) mod p^2 on each of the verdict's seeded maps, unchecked.

    Trial i's map is ``random_degree_map(rng, degree, p + 2)``'s i-th draw.  The draw is exact,
    so the first trial drawn alone (where a failing verdict stops) and the rest in chunks get
    the same values; each slot's residue mod p^2 is read off a table.
    """
    rng = random.Random(f"{seed}:{p}:{degree}")
    m, width = p * p, p - 1
    table = {v & 0xFF: v % m for v in range(-DRAW_BOUND, DRAW_BOUND + 1)}
    chunk = 1
    while trials > 0:
        chunk = min(chunk, trials)
        raw = _draw(rng, chunk * width)
        for i in range(0, chunk * width, width):
            s = _pullback(p, degree, map(table.__getitem__, raw[i : i + width]))
            if _lhs(p, epsilon, s).coeffs[p + 1] != psi_apply(p, s).coeffs[p + 1]:
                return False
        trials -= chunk
        chunk = max(1, _CHUNK_VALUES // width)
    return True
