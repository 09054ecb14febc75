"""Exact arithmetic on sums of square roots of rationals.

Memory allocations and rate expressions in this package involve terms like
``sqrt(N*U)``, which are irrational for most inputs.  A ``RootSum`` stores a
value of the form ``sum_k c_k * sqrt(n_k)`` with rational coefficients
``c_k`` and positive integer kernels ``n_k``, kept pairwise inequivalent
(no two kernels whose product is a perfect square).  In that form the value
is zero iff every coefficient is zero, which makes comparisons decidable:
an exact zero test first, then interval refinement that is guaranteed to
terminate for nonzero values.

The interval refinement starts at a configurable precision floor, read from
the ``CACHELAB_PRECISION_BITS`` environment variable (default 256 bits).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_DEFAULT_PRECISION_BITS = 256
_precision_floor = int(os.environ.get("CACHELAB_PRECISION_BITS", _DEFAULT_PRECISION_BITS))
_PRECISION_CEILING = 1 << 20

# Squares of small primes, used to shrink kernels opportunistically.
_SMALL_SQUARES = [p * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]


def precision_floor(bits: int | None = None) -> int:
    """Get or set the starting precision (in bits) for certified comparisons."""
    global _precision_floor
    if bits is not None:
        if bits < 8:
            raise ValueError("precision floor must be at least 8 bits")
        _precision_floor = bits
    return _precision_floor


def _shrink_kernel(n: int) -> tuple[int, int]:
    """Return (kernel, mult) with sqrt(n) = mult * sqrt(kernel), kernel square-reduced.

    Only guarantees removal of the full square part and small prime-square
    factors; full squarefree decomposition is not needed because kernels are
    additionally grouped by the pairwise perfect-square test on insertion.
    """
    r = math.isqrt(n)
    if r * r == n:
        return 1, r
    mult = 1
    for q in _SMALL_SQUARES:
        if q > n:
            break
        while n % q == 0:
            n //= q
            mult *= math.isqrt(q)
            r = math.isqrt(n)
            if r * r == n:
                return 1, mult * r
    return n, mult


class RootSum:
    """Exact value of the form ``q_0 + sum c_k*sqrt(n_k)``; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, value: Rational = 0):
        if isinstance(value, RootSum):
            self._terms = dict(value._terms)
            return
        value = Fraction(value)
        self._terms: dict[int, Fraction] = {1: value} if value else {}

    # -- construction ------------------------------------------------------

    @staticmethod
    def sqrt(value: Rational) -> "RootSum":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("square root of a negative rational")
        if value == 0:
            return RootSum(0)
        # sqrt(p/q) = sqrt(p*q)/q
        out = RootSum()
        out._insert(value.numerator * value.denominator, Fraction(1, value.denominator))
        return out

    @staticmethod
    def _from_terms(terms: dict[int, Fraction]) -> "RootSum":
        out = RootSum()
        for kernel, coeff in terms.items():
            if coeff:
                out._insert(kernel, coeff)
        return out

    def _insert(self, kernel: int, coeff: Fraction) -> None:
        if not coeff:
            return
        if kernel != 1:
            kernel, mult = _shrink_kernel(kernel)
            if mult != 1:
                coeff = coeff * mult
        if kernel == 1:
            self._terms[1] = self._terms.get(1, Fraction(0)) + coeff
            if not self._terms[1]:
                del self._terms[1]
            return
        # Merge with an equivalent kernel if one exists: sqrt(n) is a rational
        # multiple of sqrt(k) exactly when n*k is a perfect square.
        for k in self._terms:
            if k == 1:
                continue
            prod = k * kernel
            r = math.isqrt(prod)
            if r * r == prod:
                self._terms[k] += coeff * Fraction(r, k)
                if not self._terms[k]:
                    del self._terms[k]
                return
        self._terms[kernel] = coeff

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "RootSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = RootSum(self)
        for kernel, coeff in other._terms.items():
            out._insert(kernel, coeff)
        return out

    __radd__ = __add__

    def __neg__(self) -> "RootSum":
        out = RootSum()
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RootSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = RootSum()
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                if k1 == 1 or k2 == 1:
                    out._insert(k1 * k2, c1 * c2)
                else:
                    g = math.gcd(k1, k2)
                    out._insert((k1 // g) * (k2 // g), c1 * c2 * g)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RootSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "RootSum":
        """Exact multiplicative inverse.

        Rewrites the kernels over an independent generator set of the
        square-class group, multiplies all nontrivial sign conjugates, and
        divides by the resulting rational norm.
        """
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        kernels = [k for k in self._terms if k != 1]
        if not kernels:
            out = RootSum()
            out._terms = {1: 1 / self._terms[1]}
            return out
        gens: list[int] = []
        expo: dict[int, int] = {}
        for k in kernels:
            mask = self._class_mask(k, gens)
            if mask is None:
                gens.append(k)
                mask = 1 << (len(gens) - 1)
            expo[k] = mask
        product = RootSum(1)
        for sigma in range(1, 1 << len(gens)):
            conj = RootSum()
            conj._terms = {
                k: (-c if k != 1 and (expo[k] & sigma).bit_count() % 2 else c)
                for k, c in self._terms.items()
            }
            product = product * conj
        norm = product * self
        if set(norm._terms) - {1}:
            raise ArithmeticError("norm of a radical sum was not rational")
        return product * RootSum(1 / norm._terms[1])

    @staticmethod
    def _class_mask(kernel: int, gens: list[int]) -> int | None:
        """Mask of generators whose product is square-equivalent to kernel."""
        for mask in range(1 << len(gens)):
            prod = kernel
            for i, g in enumerate(gens):
                if mask & (1 << i):
                    prod *= g
            r = math.isqrt(prod)
            if r * r == prod:
                return mask
        return None

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Certified sign: -1, 0, or +1."""
        if not self._terms:
            return 0
        # Kernels are pairwise inequivalent, so the value is nonzero unless
        # every coefficient is zero (and zero coefficients are never stored).
        prec = _precision_floor
        while prec <= _PRECISION_CEILING:
            lo, hi = self.interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise RuntimeError("precision ceiling reached while comparing radicals")

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() == 0

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() >= 0

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- conversions -------------------------------------------------------

    def is_rational(self) -> bool:
        return not (set(self._terms) - {1})

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def interval(self, prec: int | None = None) -> tuple[Fraction, Fraction]:
        """Enclosing rational interval at roughly ``prec`` bits."""
        prec = prec or _precision_floor
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << (2 * prec)
        for kernel, coeff in self._terms.items():
            if kernel == 1:
                lo += coeff
                hi += coeff
                continue
            a = math.isqrt(kernel * scale)
            root_lo = Fraction(a, 1 << prec)
            root_hi = Fraction(a + 1, 1 << prec)
            if coeff > 0:
                lo += coeff * root_lo
                hi += coeff * root_hi
            else:
                lo += coeff * root_hi
                hi += coeff * root_lo
        return lo, hi

    def __float__(self) -> float:
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def floor(self) -> int:
        """Exact floor."""
        lo, hi = self.interval()
        prec = _precision_floor
        while math.floor(lo) != math.floor(hi):
            # The value may be an exact integer sitting on the boundary.
            n = math.floor(hi)
            if (self - n).sign() >= 0:
                return n
            prec *= 2
            if prec > _PRECISION_CEILING:
                raise RuntimeError("precision ceiling reached in floor")
            lo, hi = self.interval(prec)
        return math.floor(lo)

    def ceil(self) -> int:
        return -((-self).floor())

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for kernel in sorted(self._terms):
            coeff = self._terms[kernel]
            if kernel == 1:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(f"sqrt({kernel})")
            else:
                parts.append(f"{coeff}*sqrt({kernel})")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value) -> "RootSum":
    if isinstance(value, RootSum):
        return value
    if isinstance(value, (int, Fraction)):
        return RootSum(value)
    return NotImplemented


ExactValue = Union[Fraction, RootSum]


def exact_sign(value: ExactValue) -> int:
    if isinstance(value, RootSum):
        return value.sign()
    return (value > 0) - (value < 0)


def as_exact_str(value) -> str:
    """Canonical exact string for report/JSON output."""
    if isinstance(value, RootSum):
        if value.is_rational():
            return str(value.as_fraction())
        return repr(value)
    if value is None:
        return ""
    return str(Fraction(value))


def to_decimal(value, sig_digits: int = 12) -> str:
    """Fixed significant-digit decimal rendering, for CSV output."""
    if value is None:
        return ""
    return f"{float(value):.{sig_digits}g}"
