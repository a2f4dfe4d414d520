"""Dense truncated power series over arbitrary-precision integers.

Everything here is exact.  An element of Z[[t]]/(t^N) is stored as a tuple
of exactly N Python ints (index n holds the coefficient of t^n), so binomial
coefficients and large powers never overflow or round.  The generator t is
graded so that t^n sits in skeletal filtration degree 2n.  The ideal of
filtration >= s is therefore spanned by the t^n with 2n >= s, and cutting by
it *is* truncation at order ceil(s/2): the truncation order carries the
filtration.  In particular the cut at 2p+3, which keeps the t^(p+1) term
(filtration 2p+2) that the psi^p square is read at, is truncation at order
p+2.

Series of different orders never mix: combining them is a hard error, not an
implicit re-truncation, because silent truncation is exactly the kind of
bookkeeping slip the filtration arithmetic must not absorb.

All values are immutable after construction and all operations are pure, so
instances can be shared freely across threads or processes.
"""

from __future__ import annotations

from operator import mul as _int_mul
from typing import Iterable

#: Coefficients are plain Python ints: signed, arbitrary precision.
Coefficient = int


class TruncatedSeries:
    """An element of Z[[t]]/(t^N), where N = self.order.

    The coefficient tuple always has length exactly ``order``; equality is
    coefficient-wise within a fixed order (series of different orders are
    simply unequal).  Arithmetic accepts plain ints where a constant or a
    scalar makes sense.
    """

    __slots__ = ("order", "coeffs")

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

    def _require_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} vs {other.order}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(self.order, (self.coeffs[0] + other,) + self.coeffs[1:])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        return TruncatedSeries(self.order, [x + y for x, y in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.order, tuple(-c for c in self.coeffs))

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
            return TruncatedSeries(self.order, tuple(other * c for c in self.coeffs))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other)
        n = self.order
        a = self.coeffs
        rev = other.coeffs[::-1]
        # Truncated Cauchy product: pair a[0..k] with b[k..0] via reversed slices
        # so the inner sum runs at C speed.
        return TruncatedSeries(
            n, [sum(map(_int_mul, a[: k + 1], rev[n - 1 - k :])) for k in range(n)]
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = TruncatedSeries.one(self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner), by Horner evaluation in the truncated ring.

        The inner series must have zero constant term, otherwise the
        substitution is not well defined modulo t^N.
        """
        if not isinstance(inner, TruncatedSeries):
            raise ValueError(f"can only compose with a TruncatedSeries, got {inner!r}")
        self._require_same_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("inner series of a composition must have zero constant term")
        acc = TruncatedSeries(self.order, (self.coeffs[-1],))
        for c in self.coeffs[-2::-1]:
            acc = acc * inner + c
        return acc

    def reduce(self, modulus: int) -> "TruncatedSeries":
        """Take every coefficient into the canonical residue range [0, modulus).

        Canonical residues mean equality after reduction is plain
        coefficient equality; no separate congruence predicate is needed.
        """
        if not isinstance(modulus, int) or modulus < 1:
            raise ValueError(f"modulus must be a positive integer, got {modulus!r}")
        return TruncatedSeries(self.order, [c % modulus for c in self.coeffs])

    # -- comparison and display --------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.order}, {list(self.coeffs)!r})"

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
        return f"{body} + O(t^{self.order})"
