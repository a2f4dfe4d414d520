"""Dense truncated power series over the integers or the integers mod m.

An element of Z[[t]]/(t^N) is stored as a tuple of exactly N Python ints
(index n holds the coefficient of t^n), so binomial coefficients and large
powers never overflow or round.  ``reduce(m)`` maps it into the residue ring
(Z/m)[t]/(t^N): the result keeps its modulus, holds canonical residues in
[0, m), and every product, power, sum and composition with it stays in that
ring.  Reduction and truncation are ring homomorphisms, so reducing first
and computing mod m gives exactly the residues of the exact computation, on
coefficients that never grow past m.

Two kernels do the arithmetic.  Every product and power goes through
``_mul``, by Kronecker substitution: the coefficients are packed into
fixed-width slots of one Python int, the two ints are multiplied once, and
only the low N slots are masked off and read back; no slot of the product
overflows into the next (D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009).  Every
linear pass goes through ``_combination``, which adds scaled rows into one
accumulator and reduces mod m in the same pass: sums, negation, ``reduce``
and each term of a composition or of ``psi_apply``.  Scaling by an int
alone keeps a pass of its own, because each brute-force trial runs it once:
through ``_combination``, ``h * c`` at p = 31 took 2.9 us instead of 1.9 us
(Python 3.11, shared 2-vCPU Xeon).  Each pass starts at its row's first
non-zero coefficient, and a sum with a zero summand is the other summand:
the psi^p square's rows are mostly zero below t^(p+1).

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

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, count
from typing import Iterable, Optional, Sequence

# -- the multiplication kernel ------------------------------------------------
#
# A slot is one 64-bit word when the values fit in one, so packing and
# unpacking are single C calls through ``array("Q")``; a wider slot is a whole
# number of bytes, joined and sliced as ``bytes``.  Packed ints are always
# little-endian (slot 0 in the lowest bits); arrays use the host's byte order
# and are swapped on a big-endian host.

_WORD = array("Q").itemsize
_SWAP = sys.byteorder == "big"


def _slot(bits: int) -> int:
    """Bytes per slot for values below 2^bits: one word, or as many bytes as they need."""
    return max(_WORD, (bits + 7) // 8)


def _pack(coeffs: Sequence[int], size: int) -> int:
    """The int whose slot i holds coeffs[i]; every value must fit its slot unsigned."""
    if size > _WORD:
        return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in coeffs]), "little")
    words = array("Q", coeffs)
    if _SWAP:
        words.byteswap()
    return int.from_bytes(words, "little")


def _slots(x: int, size: int, n: int) -> Sequence[int]:
    """The low n slots of x, unsigned (x < 0 as two's complement); no higher byte is converted."""
    data = (x & ((1 << 8 * size * n) - 1)).to_bytes(size * n, "little")
    if size > _WORD:
        return [int.from_bytes(data[i : i + size], "little") for i in range(0, size * n, size)]
    words = array("Q", data)
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

    Either way it is one path: pack both factors, multiply once, read back
    the low n slots.  Passing the same sequence twice squares one int.
    """
    if modulus is None:
        # a product coefficient is a sum of at most n terms of size at most
        # top, and no input exceeds top either: all of them fit in half a slot
        top = max(1, *map(abs, a)) * max(1, *map(abs, b))
        size = _slot((n * top).bit_length() + 1)
        half = 1 << (8 * size - 1)
        offset = int.from_bytes(half.to_bytes(size, "little") * n, "little")
        x = _pack([c + half for c in a], size) - offset
        y = x if b is a else _pack([c + half for c in b], size) - offset
        return [c - half for c in _slots(x * y + offset, size, n)]
    # the slot for sums of up to n products of residues mod modulus
    size = _slot((n * (modulus - 1) ** 2).bit_length())
    x = _pack(a, size)
    y = x if b is a else _pack(b, size)
    return [c % modulus for c in _slots(x * y, size, n)]


def check_int(what: str, value: int, floor: Optional[int] = None) -> int:
    """Return value if it is an int, not a bool, and at least floor if given; else ValueError."""
    if not isinstance(value, int) or isinstance(value, bool) or floor is not None and value < floor:
        bound = "" if floor is None else f" >= {floor}"
        raise ValueError(f"{what} must be an integer{bound}, got {value!r}")
    return value


def check_iterable(what: str, value) -> tuple:
    """Return tuple(value), or raise ValueError if value is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{what} must be iterable, got {value!r}") from None
    return tuple(items)


def check_type(what: str, value, kind: type):
    """Return value if it is an instance of kind, or raise ValueError."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def check_series(what: str, value) -> "TruncatedSeries":
    """Return value if it is a TruncatedSeries with zero constant term, or raise ValueError."""
    if not isinstance(value, TruncatedSeries) or value.coeffs[0]:
        raise ValueError(f"{what} must be a TruncatedSeries with zero constant term, got {value!r}")
    return value


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
        check_int("order", order, 1)
        coeffs = check_iterable("coefficients", coeffs)
        if len(coeffs) > order:
            raise ValueError(
                f"{len(coeffs)} coefficients do not fit below t^{order}; "
                "re-truncation must be requested explicitly"
            )
        for c in coeffs:
            check_int("coefficient", c)
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, order: int, degree: int) -> "TruncatedSeries":
        """t^degree; the degree must fit below the truncation order."""
        if check_int("monomial degree", degree, 0) >= check_int("order", order, 1):
            raise ValueError(f"monomial degree {degree} does not fit below t^{order}")
        return cls(order, (0,) * degree + (1,))

    # -- inspection --------------------------------------------------------

    def coefficient(self, n: int) -> int:
        """The coefficient of t^n; asking beyond the truncation order is an error."""
        if check_int("coefficient index", n, 0) >= self.order:
            raise ValueError(f"no coefficient of t^{n} in a series truncated at t^{self.order}")
        return self.coeffs[n]

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        n, m = self.order, self.modulus
        if isinstance(other, int):
            c = self.coeffs[0] + other
            coeffs = (c if m is None else c % m,) + self.coeffs[1:]
        elif isinstance(other, TruncatedSeries):
            _require_ring(n, m, other)
            # a zero summand leaves the other one, which is immutable and in this ring
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            return TruncatedSeries._combination(n, m, (1, 1), (self, other))
        else:
            return NotImplemented
        return TruncatedSeries._trusted(n, coeffs, m)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._combination(self.order, self.modulus, (-1,), (self,))

    def __sub__(self, other):
        if not isinstance(other, (int, TruncatedSeries)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            n, m = self.order, self.modulus
            # the coefficients below the first non-zero one scale to zero unread
            v = next(compress(count(), self.coeffs), n)
            row = self.coeffs[v:]
            scaled = [other * c for c in row] if m is None else [other * c % m for c in row]
            return TruncatedSeries._trusted(n, (0,) * v + tuple(scaled), m)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        _require_ring(self.order, self.modulus, other)
        return TruncatedSeries._trusted(
            self.order, _mul(self.coeffs, other.coeffs, self.order, self.modulus), self.modulus
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        check_int("exponent", exponent, 0)
        n, m = self.order, self.modulus
        if exponent == 0:
            return TruncatedSeries._trusted(n, (1 if m is None else 1 % m,) + (0,) * (n - 1), m)
        # self = t^v * u, so self^e = t^(v e) * u^e, and u^e is only needed
        # below t^(n - v e): one pow of u_0 at order 1, else binary powering
        v = next(compress(count(), self.coeffs), n)
        low = v * exponent
        if low >= n:
            return TruncatedSeries._trusted(n, (0,) * n, m)
        k = n - low
        if k == 1:
            unit = pow(self.coeffs[v], exponent, m)  # u_0**e when m is None
            return TruncatedSeries._trusted(n, (0,) * low + (unit,), m)
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
    def _combination(
        cls,
        order: int,
        modulus: Optional[int],
        scalars: Iterable[int],
        terms: Iterable["TruncatedSeries"],
    ) -> "TruncatedSeries":
        """sum(c * s for c, s in zip(scalars, terms)), a series of this order and modulus.

        The one linear-pass kernel.  Unchecked: the scalars are ints and each
        term holds ``order`` ints, each pass reduced into the given ring, so
        a term may be an integer series or a residue series mod a multiple
        of the modulus.  A term with a zero scalar is skipped unread, the
        others are added to a zero accumulator in one pass each from the
        row's first non-zero coefficient.
        """
        m, acc = modulus, [0] * order
        for c, term in zip(scalars, terms):
            if not c:
                continue
            v = next(compress(count(), term.coeffs), order)
            row = term.coeffs[v:]
            if m is None:
                acc[v:] = [a + c * x for a, x in zip(acc[v:], row)]
            else:
                acc[v:] = [(a + c * x) % m for a, x in zip(acc[v:], row)]
        return cls._trusted(order, acc, m)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner): the sum of self's coefficients times the powers of inner.

        The inner series must have zero constant term, otherwise the
        substitution is not well defined modulo t^N.
        """
        _require_ring(self.order, self.modulus, check_series("inner", inner))
        # the coefficients past the last non-zero power multiply zero
        powers = inner._powers()
        return (
            TruncatedSeries._combination(self.order, self.modulus, self.coeffs[1:], powers)
            + self.coeffs[0]
        )

    def _powers(self) -> tuple["TruncatedSeries", ...]:
        # self, self^2, ... up to the first zero power, for a series with zero
        # constant term: self^j vanishes below t^j, so self^order is zero and at
        # most order - 1 powers are not; the bound ends the loop on a faulty product
        powers = []
        power = self
        while not power.is_zero and len(powers) < self.order:
            powers.append(power)
            power = power * self
        return tuple(powers)

    def reduce(self, modulus: int) -> "TruncatedSeries":
        """This series in (Z/modulus)[t]/(t^N), with canonical residues in [0, modulus).

        Canonical residues mean equality after reduction is plain
        coefficient equality; no separate congruence predicate is needed.
        A residue series can only be reduced further by a divisor of its
        modulus.
        """
        check_int("modulus", modulus, 1)
        if self.modulus is not None:
            if self.modulus % modulus:
                raise ValueError(f"cannot reduce a series mod {self.modulus} to mod {modulus}")
            if self.modulus == modulus:
                return self
        return TruncatedSeries._combination(self.order, modulus, (1,), (self,))

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
