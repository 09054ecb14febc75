"""Exact arithmetic on sums of square roots of rationals.

Memory allocations and rate expressions in this package involve terms like
``sqrt(N*U)``, which are irrational for most inputs.  A ``RootSum`` stores a
value of the form ``sum_k c_k * sqrt(n_k)`` with rational coefficients
``c_k`` and positive integer kernels ``n_k``, kept pairwise inequivalent
(no two kernels whose product is a perfect square).  In that form the value
is zero iff every coefficient is zero, which makes comparisons decidable:
an exact zero test first, then interval refinement that is guaranteed to
terminate for nonzero values.

The interval refinement starts at 256 bits and doubles the precision until
the answer is certain; the starting precision only sets how soon that is.
Each round bounds every ``sqrt(n)`` by ``isqrt(n * 4^prec)`` and sums the
bounds as integers over one common denominator; ``interval`` hands the same
bounds out as ``Fraction``s.  An ``Enclosure`` keeps the 256-bit bounds of a
fixed value, so comparing it with many rationals costs integer products,
and ``sign`` only for a rational inside the bounds.

Division climbs a tower of quadratic extensions.  Over a generator basis
``g_1..g_m`` of the kernels' square classes, conjugating ``sqrt(g_m)``
(flipping the sign of every term whose class contains ``g_m``) gives a
``conj`` with ``x * conj`` free of ``g_m``; so ``1/x = conj / (x * conj)``
and the inner inverse needs one generator fewer.  That is ``m`` conjugations
and about ``4^m`` term products, where the product of all ``2^m - 1`` sign
conjugates costs about ``8^m``.  The value of an inverse is unique, and so is
its printed form when every kernel is squarefree after ``_shrink_kernel``.
A kernel that keeps the square of a prime above 47 (``53^2 * 2`` and ``2``
are one square class) prints as whichever member of its class a sum met
first, so the printed form of such a value depends on the order of the
products that built it; its value does not.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_PRECISION_FLOOR = 256
_PRECISION_CEILING = 1 << 20

# Squares of small primes, used to shrink kernels opportunistically.
_SMALL_SQUARES = [p * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)]


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

    def _insert(self, kernel: int, coeff: Fraction) -> None:
        if not coeff:
            return
        if kernel in self._terms:
            # Stored kernels are already shrunk and pairwise inequivalent, so
            # the merge scan below would land on this same key.
            self._terms[kernel] += coeff
            if not self._terms[kernel]:
                del self._terms[kernel]
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

    def _rational(self) -> Fraction | None:
        """The value if it is rational, else None."""
        terms = self._terms
        if not terms:
            return Fraction(0)
        if len(terms) == 1 and 1 in terms:
            return terms[1]
        return None

    def __add__(self, other) -> "RootSum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # A rational operand only touches kernel 1.  Both fast paths leave
        # the terms, and their order, as the _insert loop below would.
        q = other._rational()
        if q is not None:
            out = RootSum(self)
            if q:
                total = out._terms.get(1, Fraction(0)) + q
                if total:
                    out._terms[1] = total
                else:
                    del out._terms[1]
            return out
        q = self._rational()
        if q is not None:
            out = RootSum(q)
            for kernel, coeff in other._terms.items():
                if kernel != 1:
                    out._terms[kernel] = coeff
                elif q + coeff:
                    out._terms[1] = q + coeff
                else:
                    del out._terms[1]
            return out
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
        # A rational operand only scales the coefficients: the kernels are
        # already shrunk and pairwise inequivalent, so _insert would keep
        # them, in order.
        out = RootSum()
        q = other._rational()
        if q is not None:
            if q:
                out._terms = {k: c * q for k, c in self._terms.items()}
            return out
        q = self._rational()
        if q is not None:
            if q:
                out._terms = {k: q * c for k, c in other._terms.items()}
            return out
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
        """Exact multiplicative inverse, by a tower of quadratic conjugations."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        return self._tower_inverse(len(self._terms))

    def _tower_inverse(self, rank: int) -> "RootSum":
        # self = a + b*sqrt(g_m) and conj = a - b*sqrt(g_m) over a greedy
        # generator basis g_1..g_m; self * conj = a^2 - b^2*g_m needs only
        # g_1..g_{m-1}.  `rank` bounds m, so the recursion cannot loop.
        # Private, so a traced inverse() is entered once per division.
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
        if len(gens) > rank:
            raise ArithmeticError("a conjugation did not remove its generator")
        top = 1 << (len(gens) - 1)
        conj = RootSum()
        conj._terms = {k: (-c if k != 1 and expo[k] & top else c)
                       for k, c in self._terms.items()}
        return conj * (self * conj)._tower_inverse(len(gens) - 1)

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
        prec = _PRECISION_FLOOR
        while prec <= _PRECISION_CEILING:
            lo, hi, _ = self._scaled_interval(prec)
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
        return self._rational() is not None

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def interval(self, prec: int | None = None) -> tuple[Fraction, Fraction]:
        """Enclosing rational interval at roughly ``prec`` bits."""
        lo, hi, den = self._scaled_interval(prec or _PRECISION_FLOOR)
        return Fraction(lo, den), Fraction(hi, den)

    def _scaled_interval(self, prec: int) -> tuple[int, int, int]:
        """``(lo, hi, den)`` with ``lo/den <= self <= hi/den`` and ``den > 0``.

        Each ``sqrt(n)`` lies in ``[a, a + 1] / 2^prec`` with
        ``a = isqrt(n * 4^prec)``; the bounds are summed as integers over the
        common denominator ``lcm(coefficient denominators) * 2^prec``.
        """
        one = 1 << prec
        den = math.lcm(*(c.denominator for c in self._terms.values()))
        lo = hi = 0
        for kernel, coeff in self._terms.items():
            num = coeff.numerator * (den // coeff.denominator)
            if kernel == 1:
                lo += num * one
                hi += num * one
                continue
            a = math.isqrt(kernel << (2 * prec))
            if num > 0:
                lo += num * a
                hi += num * (a + 1)
            else:
                lo += num * (a + 1)
                hi += num * a
        return lo, hi, den * one

    def __float__(self) -> float:
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def floor(self) -> int:
        """Exact floor."""
        lo, hi = self.interval()
        prec = _PRECISION_FLOOR
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
                parts.append(_fraction_str(coeff))
            elif coeff == 1:
                parts.append(f"sqrt({_int_str(kernel)})")
            else:
                parts.append(f"{_fraction_str(coeff)}*sqrt({_int_str(kernel)})")
        return " + ".join(parts).replace("+ -", "- ")


# str() refuses integers above the interpreter's digit limit (4300 digits by
# default, never below 640); numbers of at most this many bits stay under any
# limit and are converted directly.
_STR_CHUNK_BITS = 2000


def _int_str(n: int) -> str:
    """Decimal digits of n, as ``str(n)`` but for integers of any size.

    Larger integers are split at a power of ten and converted half by half,
    without touching the interpreter's limit.
    """
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= _STR_CHUNK_BITS:
        return str(n)
    digits = n.bit_length() * 3 // 20  # about half the decimal digits of n
    high, low = divmod(n, 10 ** digits)
    return _int_str(high) + _int_str(low).zfill(digits)


def _fraction_str(q: Fraction) -> str:
    """``str(q)`` for a Fraction of any size."""
    if q.denominator == 1:
        return _int_str(q.numerator)
    return f"{_int_str(q.numerator)}/{_int_str(q.denominator)}"


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


class Enclosure:
    """A fixed exact value, kept with its enclosure for many rational comparisons.

    ``sign_minus(num, den)`` is the sign of ``value - num/den`` (``den > 0``).
    It takes two integer cross-multiplications with the bounds of
    ``_scaled_interval`` at the starting precision, and the certified
    ``sign`` of the difference only when num/den lies inside them.
    """

    __slots__ = ("value", "_lo", "_hi", "_den")

    def __init__(self, value: RootSum):
        self.value = value
        self._lo, self._hi, self._den = value._scaled_interval(_PRECISION_FLOOR)

    def sign_minus(self, num: int, den: int) -> int:
        scaled = num * self._den
        if scaled < self._lo * den:
            return 1
        if scaled > self._hi * den:
            return -1
        return (self.value - Fraction(num, den)).sign()


def as_exact_str(value) -> str:
    """Canonical exact string for report/JSON output."""
    if isinstance(value, RootSum):
        if value.is_rational():
            return _fraction_str(value.as_fraction())
        return repr(value)
    if value is None:
        return ""
    return _fraction_str(Fraction(value))


def to_decimal(value, sig_digits: int = 12) -> str:
    """Fixed significant-digit decimal rendering, for CSV output."""
    if value is None:
        return ""
    return f"{float(value):.{sig_digits}g}"
