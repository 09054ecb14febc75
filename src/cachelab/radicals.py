"""Exact arithmetic on sums of square roots of rationals.

Memory allocations and rate expressions in this package involve terms like
``sqrt(N*U)``, which are irrational for most inputs.  A ``RootSum`` stores a
value of the form ``sum_k n_k * sqrt(k) / den`` with integer numerators
``n_k``, one denominator ``den > 0`` and positive integer kernels ``k``
(kernel 1 holds the rational part), kept pairwise inequivalent (no two
kernels whose product is a perfect square).  In that form the value is zero
iff every numerator is zero, which makes comparisons decidable: an exact
zero test first, then interval refinement that is guaranteed to terminate
for nonzero values.  No numerator is zero, ``gcd(den, *nums)`` is 1, and
the terms keep the order in which a sum first met their kernels.

Every arithmetic result is canonical: a ``Fraction`` when its value is
rational, an irrational ``RootSum`` otherwise.  That holds for ``+``, ``-``,
``*``, ``/``, negation, ``inverse`` and ``RootSum.sqrt`` (so
``RootSum.sqrt(4)`` is ``Fraction(2)``), and callers mix both types freely
in arithmetic and comparisons, in either operand order.  They are the only
ways to make a ``RootSum``, so every ``RootSum`` is irrational, hence
nonzero, and a sum starts from ``Fraction(0)``.  ``math.floor`` and
``math.ceil`` are not exact on a ``RootSum``: they fall back to ``float``.

Arithmetic stays on integers.  Scaling by ``a/b`` multiplies the numerators
by ``a`` and the denominator by ``b``; a sum brings both operands over the
lcm of their denominators and inserts the addend's terms one by one, a
rational addend as the kernel-1 term; a product of two irrational sums
adds its term products as integer numerators over the product of the two
denominators.  Each result then divides out one content gcd.  The only
Fractions are the values that leave the class: a rational result, a
rational square root, and ``interval``.

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
import operator
from fractions import Fraction
from typing import Union

Rational = Union[int, Fraction]

_PRECISION_FLOOR = 256
_PRECISION_CEILING = 1 << 20
_DECIMAL_DIGITS = 12  # significant digits of `to_decimal`

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
    # n is not a square, so no n / mult^2 below is one: the loop only divides.
    mult = 1
    for q in _SMALL_SQUARES:
        if q > n:
            break
        while n % q == 0:
            n //= q
            mult *= math.isqrt(q)
    return n, mult


class RootSum:
    """Exact irrational value ``sum_k n_k*sqrt(k) / den``, with integer
    numerators ``n_k`` over one denominator (kernel 1 holds the rational
    part); immutable, and made only by `RootSum.sqrt` and arithmetic."""

    __slots__ = ("_den", "_nums")

    def __init__(self, *_):
        raise TypeError("a RootSum comes from RootSum.sqrt or arithmetic")

    # -- construction ------------------------------------------------------

    @staticmethod
    def sqrt(value: Rational) -> "ExactValue":
        """Exact square root of a nonnegative rational."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("square root of a negative rational")
        # sqrt(p/q) = sqrt(p*q)/q
        kernel, mult = _shrink_kernel(value.numerator * value.denominator)
        if kernel == 1:
            return Fraction(mult, value.denominator)
        g = math.gcd(mult, value.denominator)
        return _make(value.denominator // g, {kernel: mult // g})

    # -- ring operations ---------------------------------------------------

    def _rational(self) -> Fraction | None:
        """The value if it is rational (only a raw sum inside an operation
        can be), else None."""
        nums = self._nums
        if not nums:
            return Fraction(0)
        if len(nums) == 1 and 1 in nums:
            return Fraction(nums[1], self._den)
        return None

    def __add__(self, other) -> "ExactValue":
        # Both operands over the lcm of their denominators; the terms of
        # other are inserted one by one, a rational as the kernel-1 term.
        if isinstance(other, RootSum):
            den, terms = other._den, other._nums.items()
        elif isinstance(other, (int, Fraction)):
            den, terms = other.denominator, ((1, other.numerator),)
        else:
            return NotImplemented
        g = math.gcd(self._den, den)
        nums = _times(self._nums, den // g)
        scale = self._den // g
        for kernel, n in terms:
            _insert(nums, kernel, n * scale)
        return _canonical(_reduced(self._den // g * den, nums))

    __radd__ = __add__

    def __neg__(self) -> "RootSum":
        return _make(self._den, {k: -n for k, n in self._nums.items()})

    def __sub__(self, other):
        if not isinstance(other, (RootSum, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RootSum":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # A nonzero constant of other comes first, then the terms of -self.
        p, q = other.numerator, other.denominator
        g = math.gcd(self._den, q)
        scale = q // g
        nums = {1: p * (self._den // g)} if p else {}
        for kernel, n in self._nums.items():
            nums[kernel] = nums.get(kernel, 0) - n * scale
        if nums.get(1) == 0:
            del nums[1]
        return _reduced(self._den // g * q, nums)

    def __mul__(self, other) -> "ExactValue":
        if not isinstance(other, (RootSum, int, Fraction)):
            return NotImplemented
        return _canonical(self._product(other))

    __rmul__ = __mul__

    def _product(self, other: "RootSum | Rational") -> "RootSum":
        """``self * other`` as a raw RootSum, rational or not; `other` may be a
        raw rational RootSum from `_tower_inverse`."""
        q = other._rational() if isinstance(other, RootSum) else other
        # A rational operand only scales the numerators and the denominator:
        # the kernels are already shrunk and pairwise inequivalent, so
        # _insert would keep them, in order.
        if q is not None:
            if not q:
                return _make(1, {})
            return _reduced(self._den * q.denominator, _times(self._nums, q.numerator))
        # Term products are inserted as integer numerators over the product
        # of the two denominators, in the order and with the merges and
        # deletions of the term-by-term sum.
        nums: dict[int, int] = {}
        b = list(other._nums.items())
        for k1, n1 in self._nums.items():
            for k2, n2 in b:
                if k1 == 1 or k2 == 1:
                    kernel, n = k1 * k2, n1 * n2
                else:
                    g = math.gcd(k1, k2)
                    kernel, n = (k1 // g) * (k2 // g), n1 * n2 * g
                if kernel in nums:
                    n += nums[kernel]
                    if n:
                        nums[kernel] = n
                    else:
                        del nums[kernel]
                else:
                    _insert(nums, kernel, n)
        return _reduced(self._den * other._den, nums)

    def __truediv__(self, other) -> "ExactValue":
        if isinstance(other, RootSum):
            return self * other.inverse()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self * Fraction(1, other)

    def __rtruediv__(self, other) -> "ExactValue":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "ExactValue":
        """Exact multiplicative inverse, by a tower of quadratic conjugations."""
        return _canonical(self._tower_inverse(len(self._nums)))

    def _tower_inverse(self, rank: int) -> "RootSum":
        # self = a + b*sqrt(g_m) and conj = a - b*sqrt(g_m) over a greedy
        # generator basis g_1..g_m; self * conj = a^2 - b^2*g_m needs only
        # g_1..g_{m-1}.  `rank` bounds m, so the recursion cannot loop.
        # Private, so a traced inverse() is entered once per division.
        nums = self._nums
        kernels = [k for k in nums if k != 1]
        if not kernels:
            n = nums[1]
            return _make(abs(n), {1: self._den if n > 0 else -self._den})
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
        conj = _make(self._den, {k: (-n if k != 1 and expo[k] & top else n)
                                 for k, n in nums.items()})
        return conj._product(self._product(conj)._tower_inverse(len(gens) - 1))

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
        """Certified sign: -1 or +1."""
        # Kernels are pairwise inequivalent, so the value is nonzero unless
        # every numerator is zero (and zero numerators are never stored).
        prec = _PRECISION_FLOOR
        while prec <= _PRECISION_CEILING:
            lo, hi, _ = self._scaled_interval(prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
        raise RuntimeError("precision ceiling reached while comparing radicals")

    def _compare(op):
        def compare(self, other):
            if not isinstance(other, (RootSum, int, Fraction)):
                return NotImplemented
            return op(exact_sign(self - other), 0)
        return compare

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    del _compare

    __hash__ = None

    # -- conversions -------------------------------------------------------

    def interval(self, prec: int | None = None) -> tuple[Fraction, Fraction]:
        """Enclosing rational interval at roughly ``prec`` bits."""
        lo, hi, den = self._scaled_interval(prec or _PRECISION_FLOOR)
        return Fraction(lo, den), Fraction(hi, den)

    def _scaled_interval(self, prec: int) -> tuple[int, int, int]:
        """``(lo, hi, den)`` with ``lo/den <= self <= hi/den`` and ``den > 0``.

        Each ``sqrt(n)`` lies in ``[a, a + 1] / 2^prec`` with
        ``a = isqrt(n * 4^prec)``; the bounds are summed as integers over the
        common denominator ``self._den * 2^prec``.
        """
        one = 1 << prec
        lo = hi = 0
        for kernel, num in self._nums.items():
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
        return lo, hi, self._den * one

    def __float__(self) -> float:
        lo, hi = self.interval(64)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        parts = []
        for kernel in sorted(self._nums):
            n = self._nums[kernel]
            g = math.gcd(n, self._den)
            num, den = n // g, self._den // g
            if kernel == 1:
                parts.append(_ratio_str(num, den))
            elif den == 1 and (num == 1 or num == -1):
                parts.append(f"{'-' if num < 0 else ''}sqrt({_int_str(kernel)})")
            else:
                parts.append(f"{_ratio_str(num, den)}*sqrt({_int_str(kernel)})")
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


def _ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a reduced ratio of any size (``den > 0``)."""
    if den == 1:
        return _int_str(num)
    return f"{_int_str(num)}/{_int_str(den)}"


def _insert(nums: dict, kernel: int, coeff: int) -> None:
    """Add ``coeff * sqrt(kernel)`` to the numerators `nums`, keeping the
    kernels shrunk and pairwise inequivalent and no zero numerator.

    A merge into a kernel with a larger square part can leave a Fraction
    numerator; `_reduced` rescales it away.
    """
    if kernel in nums:
        # Stored kernels are already shrunk and pairwise inequivalent, so
        # the merge scan below would land on this same key.
        coeff += nums[kernel]
        if coeff:
            nums[kernel] = coeff
        else:
            del nums[kernel]
        return
    if kernel != 1:
        kernel, mult = _shrink_kernel(kernel)
        coeff *= mult
    if kernel != 1:
        # Merge with an equivalent kernel if one exists: sqrt(n) is a
        # rational multiple of sqrt(k), namely r/k, exactly when n*k = r^2.
        for k in nums:
            if k == 1:
                continue
            prod = k * kernel
            r = math.isqrt(prod)
            if r * r == prod:
                kernel = k
                coeff *= r
                coeff = coeff // k if coeff % k == 0 else Fraction(coeff, k)
                break
    coeff += nums.get(kernel, 0)
    if coeff:
        nums[kernel] = coeff
    else:
        nums.pop(kernel, None)  # a zero addend is a zero term nums may not hold


def _times(nums: dict[int, int], factor: int) -> dict[int, int]:
    """A copy of `nums` with every numerator multiplied by `factor`."""
    if factor == 1:
        return dict(nums)
    return {k: n * factor for k, n in nums.items()}


def _reduced(den: int, nums: dict) -> RootSum:
    """A raw RootSum over `nums` (which it takes over) and ``den > 0``, with
    the content gcd divided out."""
    try:
        g = math.gcd(den, *nums.values())
    except TypeError:
        # A merge left Fraction numerators: rescale once to integers.
        scale = math.lcm(*(n.denominator for n in nums.values()))
        nums = {k: (n * scale).numerator for k, n in nums.items()}
        den *= scale
        g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {k: n // g for k, n in nums.items()}
        den //= g
    return _make(den, nums)


def _make(den: int, nums: dict[int, int]) -> RootSum:
    """A RootSum worth ``sum n*sqrt(k) / den`` over `nums`, which it takes
    over; the only way to build one besides `RootSum.sqrt`."""
    out = object.__new__(RootSum)
    out._den = den
    out._nums = nums
    return out


def _canonical(value: RootSum) -> "ExactValue":
    """The value as a Fraction when it is rational, else the RootSum itself."""
    q = value._rational()
    return value if q is None else q


ExactValue = Union[Fraction, RootSum]


def exact_sign(value: ExactValue) -> int:
    if isinstance(value, RootSum):
        return value.sign()
    return (value > 0) - (value < 0)


class Enclosure:
    """A fixed exact value (Fraction or RootSum), kept with its enclosure for
    many rational comparisons.

    ``sign_minus(num, den)`` is the sign of ``value - num/den`` (``den > 0``).
    It takes two integer cross-multiplications with the bounds of
    ``_scaled_interval`` at the starting precision, and the certified
    ``sign`` of the difference only when num/den lies inside them.  A
    rational value is its own lower and upper bound.
    """

    __slots__ = ("value", "_lo", "_hi", "_den")

    def __init__(self, value: ExactValue):
        self.value = value
        if isinstance(value, RootSum):
            self._lo, self._hi, self._den = value._scaled_interval(_PRECISION_FLOOR)
        else:
            self._lo = self._hi = value.numerator
            self._den = value.denominator

    def sign_minus(self, num: int, den: int) -> int:
        scaled = num * self._den
        if scaled < self._lo * den:
            return 1
        if scaled > self._hi * den:
            return -1
        return exact_sign(self.value - Fraction(num, den))


def as_exact_str(value) -> str:
    """Canonical exact string for report/JSON output."""
    if isinstance(value, RootSum):
        return repr(value)
    if value is None:
        return ""
    value = Fraction(value)
    return _ratio_str(value.numerator, value.denominator)


def to_decimal(value) -> str:
    """Decimal rendering to 12 significant digits, for CSV output."""
    return f"{float(value):.{_DECIMAL_DIGITS}g}"
