"""Dense truncated power series over the integers or the integers mod m.

An element of Z[[t]]/(t^N) is stored as a tuple of exactly N Python ints
(index n holds the coefficient of t^n), so binomial coefficients and large
powers never overflow or round.  ``reduce(m)`` maps it into the residue ring
(Z/m)[t]/(t^N): the result keeps its modulus, holds canonical residues in
[0, m), and every product, power, sum and composition with it stays in that
ring.  Reduction and truncation are ring homomorphisms, so reducing first
and computing mod m gives exactly the residues of the exact computation, on
coefficients that never grow past m.

The generator t is graded so that t^n sits in skeletal filtration degree 2n.
The ideal of filtration >= s is therefore spanned by the t^n with 2n >= s,
and cutting by it *is* truncation at order ceil(s/2): the truncation order
carries the filtration.  In particular the cut at 2p+3, which keeps the
t^(p+1) term (filtration 2p+2) that the psi^p square is read at, is
truncation at order p+2.

Series of different orders or different moduli never mix: combining them is
a hard error, not an implicit re-truncation or reduction, because a silent
change of ring is exactly the kind of bookkeeping slip the filtration
arithmetic must not absorb.

Every series product goes through one kernel, ``_mul``, by Kronecker
substitution: the coefficients are packed into fixed-width slots of one
Python int, the two ints are multiplied once, and the low N slots are read
back.  The slot is wide enough that no slot of the product overflows into
the next (D. Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symbolic Comput. 44, 2009).

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from operator import add
from typing import Iterable, Optional, Sequence

#: Coefficients are plain Python ints: signed, arbitrary precision.
Coefficient = int

# -- the multiplication kernel ------------------------------------------------
#
# A slot is a whole number of bytes, so packing and unpacking are single C
# calls: ``array`` for the slot sizes it has a typecode for, ``bytes`` joins
# and slices beyond them.  Packed ints are always little-endian (slot 0 in
# the lowest bits); arrays use the host's byte order and are swapped on a
# big-endian host.

_ARRAY_CODES = sorted((array(code).itemsize, code) for code in "BHIQ")
_SWAP = sys.byteorder == "big"


def _slot(bits: int) -> tuple[int, Optional[str]]:
    """Bytes per slot for values below 2^bits, and the array typecode of that size."""
    for size, code in _ARRAY_CODES:
        if 8 * size >= bits:
            return size, code
    return (bits + 7) // 8, None


@lru_cache(maxsize=256)
def _residue_slot(n: int, modulus: int) -> tuple[int, Optional[str]]:
    """The slot for sums of up to n products of residues mod modulus."""
    return _slot((n * (modulus - 1) ** 2).bit_length())


def _pack(coeffs: Sequence[int], size: int, code: Optional[str]) -> int:
    """The int whose slot i holds coeffs[i]; every value must fit its slot unsigned."""
    if code is None:
        return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")
    words = array(code, coeffs)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words, "little")


def _slots(x: int, size: int, code: Optional[str], n: int) -> Sequence[int]:
    """The low n slots of x as unsigned values (x < 0 reads as two's complement)."""
    data = x.to_bytes(max(size * n, x.bit_length() // 8 + 1), "little", signed=True)[: size * n]
    if code is None:
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, size * n, size)]
    words = array(code, data)
    if _SWAP:
        words.byteswap()
    return words


def _mul(a: Sequence[int], b: Sequence[int], n: int, modulus: Optional[int] = None) -> list[int]:
    """The product of two length-n coefficient sequences, truncated at t^n.

    With a modulus, a and b hold residues in [0, modulus) and so does the
    result.  Without one they are arbitrary ints: each value is stored with
    half a slot added, which makes it non-negative, and the packed int has
    that offset taken off again, so it is exactly sum(c_i 2^(w i)).  Reading
    the product back, the same offset is added before the slots are split:
    that one addition settles every borrow a negative coefficient makes in
    the slot above it.

    The low zero slots of each factor are shifted out before the multiply,
    so a product of series divisible by t^i and t^j costs a product of
    length n - i - j.  Passing the same sequence twice squares one int.
    """
    if modulus is None:
        # every product coefficient is a sum of at most n terms of size at
        # most top, so it fits in half a slot, and so does every input
        top = max(map(abs, a)) * max(map(abs, b))
        if not top:
            return [0] * n
        size, code = _slot((n * top).bit_length() + 1)
        half = 1 << (8 * size - 1)
        offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")
        x = _pack([c + half for c in a], size, code) - offset
        y = x if b is a else _pack([c + half for c in b], size, code) - offset
    else:
        size, code = _residue_slot(n, modulus)
        x = _pack(a, size, code)
        y = x if b is a else _pack(b, size, code)
    if not x or not y:
        return [0] * n
    bits = 8 * size
    shift_x = ((x & -x).bit_length() - 1) // bits
    shift_y = ((y & -y).bit_length() - 1) // bits
    low = shift_x + shift_y
    if low >= n:
        return [0] * n
    x >>= bits * shift_x
    product = x * x if b is a else x * (y >> (bits * shift_y))
    k = n - low
    if modulus is None:
        top_slots = _slots(product + (offset >> (bits * low)), size, code, k)
        return [0] * low + [c - half for c in top_slots]
    return [0] * low + [c % modulus for c in _slots(product, size, code, k)]


def _require_ring(order: int, modulus: Optional[int], other: "TruncatedSeries") -> None:
    if order != other.order:
        raise ValueError(f"order mismatch: {order} vs {other.order}")
    if modulus != other.modulus:
        raise ValueError(f"modulus mismatch: {modulus} vs {other.modulus}")


class TruncatedSeries:
    """An element of Z[[t]]/(t^N), or of (Z/m)[t]/(t^N), where N = self.order.

    The coefficient tuple always has length exactly ``order``.  ``modulus``
    is None for an integer series and m for a residue series, which only
    ``reduce(m)`` and the arithmetic on such series produce.  Equality is
    coefficient-wise within a fixed order (series of different orders are
    simply unequal); residues are canonical, so a residue series equals the
    integer series with the same coefficients.  Arithmetic accepts plain
    ints where a constant or a scalar makes sense.
    """

    __slots__ = ("order", "coeffs", "modulus")

    def __init__(self, order: int, coeffs: Iterable[int] = ()) -> None:
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError(f"order must be a positive integer, got {order!r}")
        coeffs = tuple(coeffs)
        if len(coeffs) > order:
            raise ValueError(
                f"{len(coeffs)} coefficients do not fit below t^{order}; "
                "re-truncation must be requested explicitly"
            )
        for c in coeffs:
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers, got {c!r}")
        if len(coeffs) < order:
            coeffs = coeffs + (0,) * (order - len(coeffs))
        self.order: int = order
        self.coeffs: tuple[int, ...] = coeffs
        self.modulus: Optional[int] = None

    @classmethod
    def _trusted(
        cls, order: int, coeffs: Iterable[int], modulus: Optional[int]
    ) -> "TruncatedSeries":
        # Results of the ring operations: exactly ``order`` ints, canonical
        # residues when there is a modulus, so nothing is validated again.
        series = object.__new__(cls)
        series.order = order
        series.coeffs = tuple(coeffs)
        series.modulus = modulus
        return series

    def _like(self, coeffs: Iterable[int]) -> "TruncatedSeries":
        """A series in this one's ring; coefficients are reduced if it has a modulus."""
        m = self.modulus
        if m is not None:
            coeffs = [c % m for c in coeffs]
        return TruncatedSeries._trusted(self.order, coeffs, m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls(order, (1,))

    @classmethod
    def monomial(cls, order: int, degree: int, coeff: int = 1) -> "TruncatedSeries":
        """coeff * t^degree; the degree must fit below the truncation order."""
        if not isinstance(degree, int) or degree < 0 or degree >= order:
            raise ValueError(f"monomial degree {degree!r} does not fit below t^{order}")
        return cls(order, (0,) * degree + (coeff,))

    # -- inspection --------------------------------------------------------

    def coefficient(self, n: int) -> int:
        """The coefficient of t^n; asking beyond the truncation order is an error."""
        if not isinstance(n, int) or n < 0 or n >= self.order:
            raise ValueError(f"no coefficient of t^{n!r} in a series truncated at t^{self.order}")
        return self.coeffs[n]

    def __getitem__(self, n: int) -> int:
        return self.coefficient(n)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return self._like((self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _require_ring(self.order, self.modulus, other)
        return self._like([x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return self._like([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            return self.__add__(-other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like([other * c for c in self.coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _require_ring(self.order, self.modulus, other)
        return TruncatedSeries._trusted(
            self.order, _mul(self.coeffs, other.coeffs, self.order, self.modulus), self.modulus
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        n, m = self.order, self.modulus
        if exponent == 0:
            return self._like((1,) + (0,) * (n - 1))
        # self = t^v * u, so self^e = t^(v e) * u^e, and u^e is only needed
        # below t^(n - v e): the binary powering runs at that order
        v = next((i for i, c in enumerate(self.coeffs) if c), n)
        low = v * exponent
        if low >= n:
            return TruncatedSeries._trusted(n, (0,) * n, m)
        k = n - low
        result = None
        base = self.coeffs[v : v + k]
        while exponent:
            if exponent & 1:
                result = base if result is None else _mul(result, base, k, m)
            exponent >>= 1
            if exponent:
                base = _mul(base, base, k, m)
        return TruncatedSeries._trusted(n, (0,) * low + tuple(result), m)

    @classmethod
    def combination(
        cls,
        order: int,
        modulus: Optional[int],
        scalars: Iterable[int],
        terms: Iterable["TruncatedSeries"],
    ) -> "TruncatedSeries":
        """sum(c * s for c, s in zip(scalars, terms)), a series of this order and modulus.

        Every term with a non-zero scalar must be in that ring; the others
        are skipped unread.  The scaled terms are summed in one pass each and
        reduced once, at the end.  With no term left the result is zero in
        that ring.
        """
        acc = None
        for c, term in zip(scalars, terms):
            if not isinstance(c, int):
                raise ValueError(f"scalars must be integers, got {c!r}")
            if c:
                _require_ring(order, modulus, term)
                scaled = map(c.__mul__, term.coeffs)
                acc = list(scaled) if acc is None else list(map(add, acc, scaled))
        if acc is None:
            zero = cls(order)
            return zero if modulus is None else zero.reduce(modulus)
        if modulus is not None:
            acc = [c % modulus for c in acc]
        return cls._trusted(order, acc, modulus)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner), by Horner evaluation in the truncated ring.

        The inner series must have zero constant term, otherwise the
        substitution is not well defined modulo t^N.
        """
        if not isinstance(inner, TruncatedSeries):
            raise ValueError(f"can only compose with a TruncatedSeries, got {inner!r}")
        _require_ring(self.order, self.modulus, inner)
        if inner.coeffs[0] != 0:
            raise ValueError("inner series of a composition must have zero constant term")
        n, m = self.order, self.modulus
        acc = [self.coeffs[-1]] + [0] * (n - 1)
        for c in self.coeffs[-2::-1]:
            # inner has no constant term, so neither has acc * inner
            acc = _mul(acc, inner.coeffs, n, m)
            acc[0] = c
        return TruncatedSeries._trusted(n, acc, m)

    def reduce(self, modulus: int) -> "TruncatedSeries":
        """This series in (Z/modulus)[t]/(t^N), with canonical residues in [0, modulus).

        Canonical residues mean equality after reduction is plain
        coefficient equality; no separate congruence predicate is needed.
        A residue series can only be reduced further by a divisor of its
        modulus.
        """
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {modulus!r}")
        if self.modulus is not None:
            if self.modulus % modulus:
                raise ValueError(f"cannot reduce a series mod {self.modulus} to mod {modulus}")
            if self.modulus == modulus:
                return self
        return TruncatedSeries._trusted(self.order, [c % modulus for c in self.coeffs], modulus)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        text = f"TruncatedSeries({self.order}, {list(self.coeffs)!r})"
        return text if self.modulus is None else f"{text}.reduce({self.modulus})"

    def __str__(self) -> str:
        terms = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                terms.append(str(c))
                continue
            var = "t" if n == 1 else f"t^{n}"
            if c == 1:
                terms.append(var)
            elif c == -1:
                terms.append(f"-{var}")
            else:
                terms.append(f"{c}*{var}")
        body = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        text = f"{body} + O(t^{self.order})"
        return text if self.modulus is None else f"{text} mod {self.modulus}"
