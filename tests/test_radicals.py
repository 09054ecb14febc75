import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachelab.radicals import (RootSum, _int_str, _shrink_kernel, as_exact_str, exact_sign,
                               to_decimal)
from oracles import conjugate_product_inverse, insert_route_add, insert_route_mul, raw


def _is_rational_route(value):
    """A value, or a raw sum from an oracle, is rational iff its only kernel is 1."""
    return set(raw(value).terms) <= {1}


def _same_value(got, value):
    """Exact equality by the insert route: ``got - value`` keeps no term."""
    return not insert_route_add(got, insert_route_mul(value, -1)).terms


def _assert_reduced(x):
    """The integer form of a RootSum: a positive denominator, no common
    factor with the numerators, and no zero numerator, over an ascending
    base of pairwise coprime non-square atoms, every kernel the product of
    the atoms that divide it, each taken once."""
    assert type(x._den) is int and x._den > 0, x._den
    assert all(type(n) is int and n for n in x._nums.values()), x._nums
    assert math.gcd(x._den, *x._nums.values()) == 1, (x._den, x._nums)
    base = x._base
    assert type(base) is tuple and list(base) == sorted(set(base)), base
    assert all(math.isqrt(a) ** 2 != a for a in base), base
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2)), base
    for kernel in x._nums:
        assert kernel == math.prod(a for a in base if kernel % a == 0), (kernel, base)


def _assert_canonical(got, value):
    """`got` is a Fraction exactly when the oracle's raw `value` is rational,
    an irrational RootSum otherwise, and equal to it."""
    assert type(got) is (Fraction if _is_rational_route(value) else RootSum), (got, value)
    assert _same_value(got, value), (got, value)


def _carries_a_large_square(value):
    """True when a kernel of `value` keeps the square of 53 or 59, which
    `_shrink_kernel` leaves in place (no test kernel has a larger prime)."""
    return any(k % (p * p) == 0 for k in raw(value).terms for p in (53, 59))


def assert_same_terms(got, want):
    """`got` is the canonical form of the raw sum `want`, and an irrational
    `got` keeps the terms of `want` in order, each equal in value; a kernel
    that keeps a large square may print as another member of its class."""
    _assert_canonical(got, want)
    if type(got) is RootSum:
        _assert_reduced(got)
        assert [(c * c * k, c > 0) for k, c in raw(got).terms.items()] \
            == [(c * c * k, c > 0) for k, c in want.terms.items()], (got, want)


def assert_canonical_route(got, want):
    """`got` is the canonical form of the raw sum `want`, and an irrational
    `got` keeps the terms of `want` (``Fraction(n, den)`` per kernel), in
    order, and prints as `want`."""
    _assert_canonical(got, want)
    if type(got) is RootSum:
        _assert_reduced(got)
        assert [(k, Fraction(n, got._den)) for k, n in got._nums.items()] \
            == list(want.terms.items())
        assert repr(got) == repr(want)


def test_sqrt_merges_equivalent_kernels():
    assert RootSum.sqrt(2) + RootSum.sqrt(8) == 3 * RootSum.sqrt(2)
    assert RootSum.sqrt(18) == 3 * RootSum.sqrt(2)
    zero = RootSum.sqrt(2) - RootSum.sqrt(2)
    assert type(zero) is Fraction and zero == 0


def test_sqrt_of_rational():
    x = RootSum.sqrt(Fraction(9, 4))
    assert type(x) is Fraction and x == Fraction(3, 2)
    assert type(RootSum.sqrt(4)) is Fraction and RootSum.sqrt(4) == 2
    y = RootSum.sqrt(Fraction(1, 2))
    assert y * y == Fraction(1, 2)


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        RootSum.sqrt(-1)


def test_constructor_takes_no_value():
    # RootSum.sqrt and arithmetic are the only ways to make a RootSum, so
    # every RootSum is irrational.
    for args in ((5,), (Fraction(1, 2),), (0,), ()):
        with pytest.raises(TypeError):
            RootSum(*args)


def test_exact_equality_on_boundaries():
    assert RootSum.sqrt(4) == 2
    assert RootSum.sqrt(2) * RootSum.sqrt(2) == 2
    assert not (RootSum.sqrt(2) + RootSum.sqrt(3) == RootSum.sqrt(5))


def test_tight_comparison_against_convergent():
    # 3363/2378 is a continued-fraction convergent of sqrt(2); the gap is
    # below 1e-7, far inside one interval-refinement round.
    assert RootSum.sqrt(2) < Fraction(3363, 2378)
    assert RootSum.sqrt(2) > Fraction(2378, 1682)


def test_sign_refines_past_the_floor_precision():
    # sqrt(4^300 + 1) - 2^300 is about 2^-301, inside the 256-bit enclosure
    # that sign() starts from, so it has to double its precision.
    x = RootSum.sqrt(2 ** 600 + 1) - 2 ** 300
    lo, hi = x.interval(256)
    assert lo <= 0 <= hi
    assert x.sign() == 1
    assert (-x).sign() == -1


def test_shrink_kernel_splits_off_a_square_factor():
    # n = mult^2 * kernel, with kernel 1 exactly for perfect squares: a
    # non-square n leaves no square quotient, so one test on entry suffices.
    for n in range(10 ** 5):
        kernel, mult = _shrink_kernel(n)
        assert mult * mult * kernel == n, n
        assert (kernel == 1) == (math.isqrt(n) ** 2 == n), n


def test_interval_encloses_value():
    # q + c*sqrt(k) lies in [lo, hi] iff ((lo - q)/c)^2 and ((hi - q)/c)^2
    # bracket k, in the order the sign of c sets.
    for q, c, k in ((0, Fraction(3, 7), 2), (5, Fraction(-3, 7), 2),
                    (Fraction(-1, 3), -2, 10 ** 12 + 39), (1, Fraction(5, 11), 10 ** 12 + 39)):
        x = q + c * RootSum.sqrt(k)
        for prec in (64, 256):
            lo, hi = x.interval(prec)
            below, above = ((lo - q) / c) ** 2, ((hi - q) / c) ** 2
            if c < 0:
                below, above = above, below
            assert lo < hi and below < k < above


def test_ordering_operators():
    a = RootSum.sqrt(2)
    assert a < 2 and a > 1 and a <= a and a >= a
    assert 1 + a > a


def test_inverse_known_values():
    x = 1 + RootSum.sqrt(2)
    assert x.inverse() == RootSum.sqrt(2) - 1
    y = RootSum.sqrt(2) + RootSum.sqrt(3)
    assert y * y.inverse() == 1
    assert y.inverse() == RootSum.sqrt(3) - RootSum.sqrt(2)
    with pytest.raises(ZeroDivisionError):
        1 / (RootSum.sqrt(2) - RootSum.sqrt(2))


def test_inverse_matches_conjugate_product_oracle():
    # Kernels are products of distinct primes <= 47, sometimes times 53^2,
    # a square that _shrink_kernel leaves in place; only then may the
    # kernel chosen for a square class, and so the repr, differ.
    rng = random.Random(5)
    primes = (2, 3, 5, 7, 11, 47)
    for _ in range(100):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        canonical = True
        for _ in range(rng.randint(1, 6)):
            kernel = math.prod(rng.sample(primes, rng.randint(1, 3)))
            if rng.random() < 0.2:
                kernel *= 53 * 53
                canonical = False
            x = x + Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) * RootSum.sqrt(kernel)
        if not x:
            continue
        got, expected = 1 / x, conjugate_product_inverse(x)
        assert got == expected
        if canonical:
            assert repr(got) == repr(expected)


def _random_root_sum(rng):
    # Kernels as in the conjugate-product test, 53^2 included.
    x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    for _ in range(rng.randint(0, 5)):
        kernel = math.prod(rng.sample((2, 3, 5, 7, 11, 47), rng.randint(1, 3)))
        if rng.random() < 0.3:
            kernel *= 53 * 53
        x = x + Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) * RootSum.sqrt(kernel)
    return x


def test_rational_fast_paths_match_insert_route():
    rng = random.Random(13)
    for _ in range(200):
        x = _random_root_sum(rng)
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        # The last one cancels the constant term of x.
        constant = x if isinstance(x, Fraction) else raw(x).terms.get(1, q)
        rationals = (q, rng.randint(-3, 3), 0, -constant)
        for r in rationals:
            # r + x and r * x run x.__radd__ and x.__rmul__, that is x + r
            # and x * r; r - x puts the constant of r first.
            for got, want in ((x + r, insert_route_add(x, r)),
                              (r + x, insert_route_add(x, r)),
                              (x - r, insert_route_add(x, -r)),
                              (r - x, insert_route_add(r, -x)),
                              (x * r, insert_route_mul(x, r)),
                              (r * x, insert_route_mul(x, r))):
                assert_canonical_route(got, want)


def test_irrational_products_match_insert_route():
    # The product of two irrational sums accumulates integer numerators; it
    # must keep the terms, their order and their merges and deletions of
    # inserting every term product as a Fraction.
    rng = random.Random(29)
    cases = []
    while len(cases) < 450:
        x, y = _random_root_sum(rng), _random_root_sum(rng)
        if all(isinstance(v, RootSum) and not _is_rational_route(v) for v in (x, y)):
            cases += [(x, y), (x, x), (x, -x)]
    r2, r3, r6 = RootSum.sqrt(2), RootSum.sqrt(3), RootSum.sqrt(6)
    big = 53 * 53
    cases += [
        # Conjugates: the cross terms cancel to zero and are deleted.
        (r2 + r3, r2 - r3),
        (1 + r2 + r3 + r6, 1 - r2 - r3 + r6),
        (Fraction(1, 3) * r2 - Fraction(5, 7) * r3, Fraction(1, 3) * r2 + Fraction(5, 7) * r3),
        # sqrt(3*53^2) and sqrt(2) split into the atoms 2, 3 and 53, so
        # sqrt(3*53^2) is 53*sqrt(3) and both orders print alike.
        (r2 + RootSum.sqrt(3 * big), r3 + r2),
        (RootSum.sqrt(3 * big) + r2, r2 + r3),
        (Fraction(2, 5) * RootSum.sqrt(3 * big) - r2, Fraction(3, 4) * r2 + r3),
    ]
    for x, y in cases:
        if _carries_a_large_square(x) or _carries_a_large_square(y):
            assert_same_terms(x * y, insert_route_mul(x, y))
        else:
            assert_canonical_route(x * y, insert_route_mul(x, y))
    products = [as_exact_str(x * y) for x, y in cases[-6:]]
    assert products == ["-1", "2", "-577/441", "161 + 54*sqrt(6)",
                        "161 + 54*sqrt(6)", "621/10 + 149/10*sqrt(6)"]


def _property_operands():
    rng = random.Random(41)
    r2, r3 = RootSum.sqrt(2), RootSum.sqrt(3)
    x = _random_root_sum(rng)
    while not isinstance(x, RootSum) or _is_rational_route(x):
        x = _random_root_sum(rng)
    # x - x, x * x^-1, a conjugate product and sqrt(9/4) are rational.
    special = [x - x, x * x.inverse(), (r2 + r3) * (r2 - r3), RootSum.sqrt(Fraction(9, 4))]
    assert special == [0, 1, -1, Fraction(3, 2)]
    assert all(type(v) is Fraction for v in special)
    return [
        0, 2, -3, Fraction(-7, 3), Fraction(9, 4),
        r2, -r2, 1 + r2, r2 + r3, r2 - r3, 3 * r2 - 4, x, *special,
    ] + [_random_root_sum(rng) for _ in range(14)]


def test_results_are_canonical_and_match_the_insert_route():
    # Every result of an operation on a RootSum is a Fraction exactly when
    # its value is rational; the oracles build the raw value term by term.
    operands = _property_operands()
    for a in operands:
        if isinstance(a, RootSum):
            assert_canonical_route(-a, insert_route_mul(a, -1))
            inverse = a.inverse()
            assert type(inverse) is RootSum
            assert _same_value(1, insert_route_mul(a, inverse))
            _assert_canonical(inverse, raw(conjugate_product_inverse(a)))
        for b in operands:
            if not (isinstance(a, RootSum) or isinstance(b, RootSum)):
                continue
            _assert_canonical(a + b, insert_route_add(a, b))
            _assert_canonical(a - b, insert_route_add(a, insert_route_mul(b, -1)))
            if _carries_a_large_square(a) or _carries_a_large_square(b):
                assert_same_terms(a * b, insert_route_mul(a, b))
            else:
                assert_canonical_route(a * b, insert_route_mul(a, b))
            if b:
                _assert_canonical(a / b, insert_route_mul(a, conjugate_product_inverse(b)))
            else:
                with pytest.raises(ZeroDivisionError):
                    a / b
    for q in (0, 1, 4, Fraction(9, 4), Fraction(1, 2), 12, Fraction(50, 8), 53 * 53 * 2):
        q = Fraction(q)
        root = RootSum.sqrt(q)
        square = all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))
        assert type(root) is (Fraction if square else RootSum)
        assert _same_value(q, insert_route_mul(root, root))


def test_comparisons_and_floors_agree_across_types():
    operands = _property_operands()
    for a in operands:
        # math.floor and math.ceil go through float on a RootSum; no operand
        # lies near enough to an integer for that to err.
        floor, ceil = math.floor(a), math.ceil(a)
        assert floor <= a < floor + 1 and ceil - 1 < a <= ceil
        for b in operands:
            sign = exact_sign(a - b)
            got = (a < b, a <= b, a == b, a != b, a > b, a >= b)
            assert got == (sign < 0, sign <= 0, sign == 0, sign != 0, sign > 0, sign >= 0)
            assert got == (b > a, b >= a, b == a, b != a, b < a, b <= a)


def test_int_str_is_str_beyond_the_digit_limit():
    rng = random.Random(17)
    for bits in (1, 64, 1999, 2000, 2001, 9000, 14000):
        n = rng.getrandbits(bits) | 1
        assert _int_str(n) == str(n) and _int_str(-n) == str(-n)
    big = 10 ** 4400 + 1
    assert _int_str(big) == "1" + "0" * 4399 + "1"
    assert _int_str(big * 10 ** 4400) == "1" + "0" * 4399 + "1" + "0" * 4400
    text = as_exact_str(Fraction(big, 3) + RootSum.sqrt(2))
    assert text == "1" + "0" * 4399 + "1/3 + sqrt(2)"
    assert as_exact_str(Fraction(-big, 7)) == "-1" + "0" * 4399 + "1/7"


def test_division_operator():
    assert RootSum.sqrt(8) / RootSum.sqrt(2) == 2
    assert 1 / RootSum.sqrt(4) == Fraction(1, 2)


def test_scaling_divides_out_the_common_factor():
    x = (RootSum.sqrt(2) / 6) * 3
    assert repr(x) == "1/2*sqrt(2)"
    assert (x._den, x._nums) == (2, {2: 1})
    y = (Fraction(4, 3) + 2 * RootSum.sqrt(2)) * Fraction(3, 4)
    assert repr(y) == "1 + 3/2*sqrt(2)"
    assert (y._den, y._nums) == (2, {1: 2, 2: 3})


def test_merge_into_a_larger_square_part_rescales():
    # sqrt(2*53^2) keeps its square until sqrt(2) splits its atom into 2
    # and 53^2, whose root 53 takes its place: sqrt(2*53^2) is 53*sqrt(2),
    # with an integer numerator, in either operand order.
    big = 53 * 53
    for a, b in ((RootSum.sqrt(2 * big), RootSum.sqrt(2)),
                 (RootSum.sqrt(2), RootSum.sqrt(2 * big))):
        got = a + b
        assert got == Fraction(54, 53) * RootSum.sqrt(2 * big)
        assert repr(got) == "54*sqrt(2)"
        assert (got._den, got._nums) == (1, {2: 54})
        assert got._base == (2, 53)
        assert_same_terms(got, insert_route_add(a, b))
    # In a product: sqrt(6) splits sqrt(2*53^2) and sqrt(3) joins the base.
    x, y = RootSum.sqrt(2 * big) + RootSum.sqrt(3), 1 + RootSum.sqrt(6)
    for got in (x * y, y * x):
        assert got == Fraction(56, 53) * RootSum.sqrt(2 * big) \
            + Fraction(107, 53) * RootSum.sqrt(3 * big)
        assert repr(got) == "56*sqrt(2) + 107*sqrt(3)"
        assert_same_terms(got, insert_route_mul(x, y))


def test_split_atoms_end_on_one_base_in_every_order():
    # A split-off square is replaced by its root, not dropped: sqrt(2*53^2),
    # sqrt(2) and sqrt(3*53^2) end on the atoms 2, 3 and 53 whichever comes
    # first, and so does the value they sum to.
    big = 53 * 53
    results = set()
    for order in itertools.permutations((2 * big, 2, 3 * big)):
        got = Fraction(0)
        for k in order:
            got = got + RootSum.sqrt(k)
        _assert_reduced(got)
        assert got._base == (2, 3, 53)
        results.add(repr(got))
    assert results == {"54*sqrt(2) + 53*sqrt(3)"}
    # sqrt(2*53^2) made before sqrt(2), and the reverse, in a product.
    for a, b in ((RootSum.sqrt(2 * big), 1 + RootSum.sqrt(2)),
                 (1 + RootSum.sqrt(2), RootSum.sqrt(2 * big))):
        got = a * b
        assert repr(got) == "106 + 53*sqrt(2)" and got._base == (2, 53)


_PRIMES_TO_47 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

positive_sums = st.lists(
    st.tuples(st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12),
              st.sets(st.sampled_from(_PRIMES_TO_47), min_size=1, max_size=3),
              st.sampled_from((1, 53 * 53, 59 * 59))),
    min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_sums, min_size=2, max_size=4), st.randoms(use_true_random=False))
def test_products_print_alike_in_every_order(factors, rng):
    # Each factor is 1 + sum c_i*sqrt(k_i) with c_i > 0, so no partial
    # product is rational and every value keeps its base.  Shuffled factor
    # and term orders meet the same square roots, so they end on one base
    # and print alike; only a rational intermediate, which carries no base,
    # could break that.
    def build(factors):
        product = Fraction(1)
        for terms in factors:
            factor = Fraction(1)
            for c, primes, square in terms:
                factor = factor + c * RootSum.sqrt(math.prod(primes) * square)
            product = product * factor
        return product

    def shuffled():
        return [rng.sample(terms, len(terms)) for terms in rng.sample(factors, len(factors))]

    first, second = build(shuffled()), build(shuffled())
    assert type(first) is RootSum and type(second) is RootSum
    _assert_reduced(first)
    _assert_reduced(second)
    assert first._base == second._base
    assert repr(first) == repr(second)
    assert first == second


radical_sums = st.lists(
    st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=12),
              st.integers(min_value=1, max_value=60), st.booleans()),
    min_size=1, max_size=4,
).map(lambda terms: sum((Fraction(c) * RootSum.sqrt(k * (53 * 53 if big else 1))
                         for c, k, big in terms), Fraction(0)))


@settings(max_examples=150, deadline=None)
@given(radical_sums, radical_sums, st.fractions(min_value=0, max_value=50, max_denominator=30))
def test_results_keep_integer_form(x, y, q):
    # Every irrational result of an operation is in reduced integer form.
    results = [x + y, x - y, x * y, -x, RootSum.sqrt(q)]
    if y:
        results.append(x / y)
    if x:
        results.append(1 / x)
    if isinstance(x, RootSum):
        results.append(x.inverse())
    for value in results:
        if isinstance(value, RootSum):
            _assert_reduced(value)
        else:
            assert type(value) is Fraction


def test_float_and_strings():
    x = Fraction(3, 2) + Fraction(5, 4) * RootSum.sqrt(6)
    assert math.isclose(float(x), 1.5 + 1.25 * math.sqrt(6))
    assert "sqrt(6)" in as_exact_str(x)
    # A coefficient of -1 prints as a bare sign, like +1 prints bare.
    r2, r3 = RootSum.sqrt(2), RootSum.sqrt(3)
    assert repr(-r2) == as_exact_str(-r2) == "-sqrt(2)"
    assert as_exact_str(r3 - r2) == "-sqrt(2) + sqrt(3)"
    assert as_exact_str(1 - r2 - 2 * r3) == "1 - sqrt(2) - 2*sqrt(3)"
    assert to_decimal(Fraction(1, 3)) == "0.333333333333"


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(small_fractions, st.integers(min_value=1, max_value=400)),
                min_size=1, max_size=4))
def test_sign_matches_float(terms):
    x = Fraction(0)
    approx = 0.0
    for coeff, kernel in terms:
        x = x + Fraction(coeff) * RootSum.sqrt(kernel)
        approx += float(coeff) * math.sqrt(kernel)
    if abs(approx) > 1e-6:
        assert exact_sign(x) == (1 if approx > 0 else -1)
    assert x - x == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_fractions, st.integers(min_value=1, max_value=60)),
                min_size=1, max_size=3))
def test_inverse_round_trips(terms):
    x = Fraction(0)
    for coeff, kernel in terms:
        x = x + Fraction(coeff) * RootSum.sqrt(kernel)
    if x == 0:
        return
    assert x * (1 / x) == 1


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=-50, max_value=50, max_denominator=20),
       st.integers(min_value=1, max_value=10 ** 12),
       st.fractions(min_value=-50, max_value=50, max_denominator=20),
       st.integers(min_value=1, max_value=10 ** 12))
def test_two_term_sign_matches_closed_form(c1, k1, c2, k2):
    # independent oracle: sign(c1*sqrt(k1) + c2*sqrt(k2)) is decided by
    # comparing c1^2*k1 with c2^2*k2 when the coefficients have mixed signs
    x = Fraction(c1) * RootSum.sqrt(k1) + Fraction(c2) * RootSum.sqrt(k2)
    a, b = Fraction(c1) ** 2 * k1, Fraction(c2) ** 2 * k2
    if c1 >= 0 and c2 >= 0:
        expect = 1 if (c1 or c2) else 0
    elif c1 <= 0 and c2 <= 0:
        expect = -1 if (c1 or c2) else 0
    else:
        positive_sq, negative_sq = (a, b) if c1 > 0 else (b, a)
        expect = 1 if positive_sq > negative_sq else (-1 if positive_sq < negative_sq else 0)
    assert exact_sign(x) == expect
