"""Exact arithmetic on sums of square roots of rationals.

Memory allocations and rate expressions in this package involve terms like
``sqrt(N*U)``, which are irrational for most inputs.  A ``RootSum`` stores a
value of the form ``sum_k n_k * sqrt(k) / den`` with integer numerators
``n_k``, one denominator ``den > 0`` and positive integer kernels ``k``
(kernel 1 holds the rational part), each other kernel a product of
distinct atoms: pairwise coprime non-squares.  Two such products are never
a square apart (Besicovitch 1940), so the value is zero iff every numerator
is zero, which makes comparisons decidable: an exact zero test first, then
interval refinement that terminates for nonzero values.  No numerator is
zero and ``gcd(den, *nums)`` is 1.

Every arithmetic result is canonical: a ``Fraction`` when its value is
rational, an irrational ``RootSum`` otherwise.  That holds for ``+``, ``-``,
``*``, ``/``, negation, ``inverse`` and ``RootSum.sqrt`` (so
``RootSum.sqrt(4)`` is ``Fraction(2)``), and callers mix both types freely
in arithmetic and comparisons, in either operand order.  They are the only
ways to make a ``RootSum``, so every ``RootSum`` is irrational, hence
nonzero, and a sum starts from ``Fraction(0)``.  ``math.floor`` and
``math.ceil`` are not exact on a ``RootSum``: they fall back to ``float``.

Each value carries its base of atoms.  ``RootSum.sqrt`` seeds it with the
shrunk kernel; a sum or product of two irrational operands joins their bases
by gcd splitting (Bernstein 2005; no factoring), replaces a split-off square
by its root, and rewrites the operand whose atoms split.  The joined base
depends only on the square roots a value was built from, so it prints the
same whatever the order of its operations, as long as no intermediate result
is rational (a ``Fraction`` carries no base).  Equal values built from other
roots can print apart: a lone ``sqrt(5618)`` is ``53*sqrt(2)``.

Arithmetic stays on integers.  Scaling by ``a/b`` multiplies the numerators
by ``a`` and the denominator by ``b``; a sum brings both operands over the
lcm of their denominators and adds the addend's terms by kernel, a rational
addend as the kernel-1 term; a product of two irrational sums adds its term
products as integer numerators over the product of the two denominators.
Each result then divides out one content gcd.  The only Fractions are the
values that leave the class: a rational result, a rational square root, and
``interval``.

The interval refinement starts at 256 bits and doubles the precision until
the answer is certain; the starting precision only sets how soon that is.
Each round bounds every ``sqrt(n)`` by ``isqrt(n * 4^prec)`` and sums the
bounds as integers over one common denominator; ``interval`` hands the same
bounds out as ``Fraction``s.  An ``Enclosure`` keeps the 256-bit bounds of a
fixed value, so comparing it with many rationals costs integer products,
and ``sign`` only for a rational inside the bounds.

Division climbs a tower of quadratic extensions.  Conjugating an atom ``a``
that divides some kernel (flipping the sign of every term whose kernel ``a``
divides) gives a ``conj`` with ``x * conj`` free of ``a``; so
``1/x = conj / (x * conj)`` and the inner inverse has one atom fewer.  Over
``m`` atoms that is about ``4^m`` term products, where the product of all
``2^m - 1`` sign conjugates costs about ``8^m``.
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
_SMALL_SQUARES = tuple(p * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))


def _shrink_kernel(n: int) -> tuple[int, int]:
    """Return (kernel, mult) with sqrt(n) = mult * sqrt(kernel), kernel square-reduced.

    Only guarantees removal of the full square part and small prime-square
    factors, so ``sqrt(12)`` prints as ``2*sqrt(3)``; a larger square factor
    comes out when a base join splits it off.
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
    part) and every other kernel a product of distinct atoms of the
    ascending tuple ``_base``; immutable, and made only by `RootSum.sqrt`
    and arithmetic."""

    __slots__ = ("_den", "_nums", "_base")

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
        return _make(value.denominator // g, {kernel: mult // g}, (kernel,))

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
        # Both operands over one base and the lcm of their denominators;
        # other's terms add by kernel, a rational as the kernel-1 term.
        if isinstance(other, RootSum):
            base = _joined(self._base, other._base)
            mine = _over(self, base)
            den, terms = other._den, _over(other, base).items()
        elif isinstance(other, (int, Fraction)):
            base, mine = self._base, self._nums
            den, terms = other.denominator, ((1, other.numerator),)
        else:
            return NotImplemented
        g = math.gcd(self._den, den)
        nums = _times(mine, den // g)
        scale = self._den // g
        for kernel, n in terms:
            _insert(nums, kernel, n * scale)
        return _canonical(_reduced(self._den // g * den, nums, base))

    __radd__ = __add__

    def __neg__(self) -> "RootSum":
        return _make(self._den, {k: -n for k, n in self._nums.items()}, self._base)

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
        return _reduced(self._den // g * q, nums, self._base)

    def __mul__(self, other) -> "ExactValue":
        if not isinstance(other, (RootSum, int, Fraction)):
            return NotImplemented
        return _canonical(self._product(other))

    __rmul__ = __mul__

    def _product(self, other: "RootSum | Rational") -> "RootSum":
        """``self * other`` as a raw RootSum, rational or not; `other` may be a
        raw rational RootSum from `_tower_inverse`."""
        q = other._rational() if isinstance(other, RootSum) else other
        # A rational operand only scales the numerators and the denominator.
        if q is not None:
            if not q:
                return _make(1, {}, self._base)
            return _reduced(self._den * q.denominator, _times(self._nums, q.numerator),
                            self._base)
        # Over one base, sqrt(k1*k2) = g*sqrt((k1/g)*(k2/g)) with g = gcd;
        # the products add by kernel over the product of the denominators.
        base = _joined(self._base, other._base)
        nums: dict[int, int] = {}
        b = list(_over(other, base).items())
        for k1, n1 in _over(self, base).items():
            for k2, n2 in b:
                g = math.gcd(k1, k2)
                _insert(nums, (k1 // g) * (k2 // g), n1 * n2 * g)
        return _reduced(self._den * other._den, nums, base)

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
        return _canonical(self._tower_inverse(self._base))

    def _tower_inverse(self, atoms: tuple[int, ...] | list[int]) -> "RootSum":
        # self = a + b*sqrt(t) and conj = a - b*sqrt(t), with t the largest
        # of `atoms` that divides some kernel; self * conj = a^2 - b^2*t is
        # free of t, so the recursion takes at most len(atoms) steps.
        # Private, so a traced inverse() is entered once per division.
        nums = self._nums
        atoms = [t for t in atoms if any(k % t == 0 for k in nums)]
        if not atoms:
            if len(nums) != 1:
                raise ArithmeticError("a conjugation did not remove its atom")
            n = nums[1]
            return _make(abs(n), {1: self._den if n > 0 else -self._den}, self._base)
        top = atoms.pop()
        conj = _make(self._den, {k: (-n if k % top == 0 else n) for k, n in nums.items()},
                     self._base)
        return conj._product(self._product(conj)._tower_inverse(atoms))

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Certified sign: -1 or +1."""
        # Distinct kernels are distinct products of coprime non-square atoms,
        # so the value is nonzero unless every numerator is zero (and zero
        # numerators are never stored).
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


def _insert(nums: dict[int, int], kernel: int, coeff: int) -> None:
    """Add ``coeff * sqrt(kernel)`` to the numerators `nums`, keeping no zero
    numerator; both sides are over one base, so equal kernels merge by key."""
    coeff += nums.get(kernel, 0)
    if coeff:
        nums[kernel] = coeff
    else:
        nums.pop(kernel, None)  # a zero addend is a zero term nums may not hold


def _joined(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The coprime base of the atoms of `a` and `b`, ascending: atoms ``x``
    and ``y`` with ``g = gcd(x, y) > 1`` split into ``x/g``, ``g`` and ``y/g``
    until all are coprime, and then a square is replaced by its root."""
    if a == b:
        return a
    kept = list(a)
    pending = [x for x in b if x not in a]
    split = False
    while pending:
        x = pending.pop()
        for i, y in enumerate(kept):
            g = math.gcd(x, y)
            if g != 1:
                del kept[i]
                pending += [p for p in (x // g, g, y // g) if p != 1]
                split = True
                break
        else:
            kept.append(x)
    if split:
        for i, x in enumerate(kept):
            while (r := math.isqrt(x)) * r == x:
                x = r
            kept[i] = x
    return tuple(sorted(kept))


def _over(x: RootSum, base: tuple[int, ...]) -> dict[int, int]:
    """The numerators of `x` over `base`, a coprime refinement of its own.

    An atom ``o`` of x that split is a product of powers of atoms of `base`;
    with their squares divided out it leaves ``kernel``, and each kernel of
    x that ``o`` divides takes ``sqrt(o) = isqrt(o/kernel) * sqrt(kernel)``.
    """
    if x._base == base:
        return x._nums
    roots = []
    for o in x._base:
        if o not in base:
            kernel = o
            for t in base:
                while kernel % (t * t) == 0:
                    kernel //= t * t
            roots.append((o, math.isqrt(o // kernel), kernel))
    if not roots:
        return x._nums
    nums = {}
    for k, n in x._nums.items():
        for o, mult, kernel in roots:
            if k % o == 0:
                k = k // o * kernel
                n *= mult
        nums[k] = n
    return nums


def _times(nums: dict[int, int], factor: int) -> dict[int, int]:
    """A copy of `nums` with every numerator multiplied by `factor`."""
    if factor == 1:
        return dict(nums)
    return {k: n * factor for k, n in nums.items()}


def _reduced(den: int, nums: dict[int, int], base: tuple[int, ...]) -> RootSum:
    """A raw RootSum over `nums` (which it takes over), ``den > 0`` and
    `base`, with the content gcd divided out."""
    g = math.gcd(den, *nums.values())
    if g != 1:
        nums = {k: n // g for k, n in nums.items()}
        den //= g
    return _make(den, nums, base)


def _make(den: int, nums: dict[int, int], base: tuple[int, ...]) -> RootSum:
    """A RootSum worth ``sum n*sqrt(k) / den`` over `nums`, which it takes
    over, and `base`; the only way to build one besides `RootSum.sqrt`."""
    out = object.__new__(RootSum)
    out._den = den
    out._nums = nums
    out._base = base
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
