import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachelab.radicals import RootSum
from cachelab.single_level import (Transcript, deliver, place, rate_single_level,
                                   scheme_rate, span_contains, verify_decode,
                                   worst_case_demands)


def test_rate_examples():
    assert rate_single_level(8, 4, 8, 2) == 0
    assert rate_single_level(0, 4, 8, 2) == 8
    assert rate_single_level(2, 4, 8, 1) == 3
    with pytest.raises(ValueError):
        rate_single_level(9, 4, 8, 1)
    with pytest.raises(ValueError):
        rate_single_level(-1, 4, 8, 1)


def test_rate_accepts_exact_irrational_memory():
    m = RootSum.sqrt(2)  # K*M < N branch
    value = rate_single_level(m, 4, 8, 1)
    assert value == 4 * (1 - m * Fraction(1, 8))
    m = 4 + RootSum.sqrt(2)  # N/M < K branch
    assert rate_single_level(m, 4, 8, 1) == 8 * m.inverse() - 1
    with pytest.raises(ValueError):
        rate_single_level(8 + RootSum.sqrt(2), 4, 8, 1)


def test_scheme_rate_examples():
    assert scheme_rate(2, 4, 8) == Fraction(3, 2)
    assert scheme_rate(0, 4, 8) == 4
    assert scheme_rate(8, 4, 8) == 0
    # linear interpolation between integer points
    assert scheme_rate(1, 4, 8) == (4 + Fraction(3, 2)) / 2


def test_scheme_rate_interpolates_between_integer_subset_sizes():
    for K in range(1, 8):
        for N in range(1, 8):
            for q in range(4 * N + 1):
                M = Fraction(q, 4)
                t = Fraction(K) * M / N
                t0 = t.numerator // t.denominator
                if t0 >= K:
                    expected = Fraction(0)
                else:
                    lam = t0 + 1 - t
                    expected = (lam * Fraction(K - t0, t0 + 1)
                                + (1 - lam) * Fraction(K - t0 - 1, t0 + 2))
                assert scheme_rate(M, K, N) == expected


def test_place_examples():
    pl = place(2, 2, 1)
    assert [layer.t for layer in pl.layers] == [1]
    assert all(len(c) == 2 for c in pl.caches)
    assert pl.stored_size(0) == 1 and pl.stored_size(1) == 1
    assert not any(place(4, 8, 0).caches)
    full = place(4, 8, 8)
    assert all(len(c) == 8 for c in full.caches)
    with pytest.raises(ValueError):
        place(4, 8, 9)


@pytest.mark.parametrize("K,N", [(2, 3), (3, 4), (4, 5)])
def test_place_fractional_memory_loads_exact(K, N):
    for num in range(0, 4 * N + 1):
        M = Fraction(num, 4)
        if M > N:
            continue
        pl = place(K, N, M)
        for c in range(K):
            assert pl.stored_size(c) == M


def test_deliver_examples():
    pl = place(2, 2, 1)
    tr = deliver(pl, [(0, 0), (1, 1)])
    assert len(tr.messages) == 1 and tr.total_size == Fraction(1, 2)
    assert verify_decode(pl, tr, [(0, 0), (1, 1)])

    full = place(4, 8, 8)
    tr = deliver(full, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert tr.total_size == 0
    assert verify_decode(full, tr, [(0, 1), (1, 2), (2, 3), (3, 4)])

    empty = place(4, 8, 0)
    demands = [(c, c) for c in range(4)]
    tr = deliver(empty, demands)
    assert tr.total_size == 4
    assert verify_decode(empty, tr, demands)


def test_deliver_rejects_bad_demands():
    pl = place(2, 2, 1)
    with pytest.raises(ValueError):
        deliver(pl, [(2, 0)])
    with pytest.raises(ValueError):
        deliver(pl, [(0, 5)])


def test_verify_detects_missing_message():
    pl = place(2, 2, 1)
    demands = [(0, 0), (1, 1)]
    assert not verify_decode(pl, Transcript(()), demands)
    # Worst-case demands use every message, so dropping any one must fail.
    for M in (Fraction(1), Fraction(3, 2)):  # t = 1 and t = 3/2 at K = N = 4
        pl = place(4, 4, M)
        demands = worst_case_demands(4, 4)
        messages = deliver(pl, demands).messages
        assert verify_decode(pl, Transcript(messages), demands)
        for k in range(len(messages)):
            dropped = Transcript(messages[:k] + messages[k + 1:])
            assert not verify_decode(pl, dropped, demands)


def test_span_contains_needs_xor_of_rows():
    a, b, c = 1, 2, 4
    assert span_contains([a | b, b], 0, a)          # a = (a+b) + b
    assert not span_contains([a | b, b | c], 0, a)  # the span is {a+b, b+c, a+c}
    assert span_contains([a | b, b | c], c, a | b)  # knowing c turns b+c into b
    assert span_contains([], c, c)                  # known symbols need no rows


def test_worst_case_matches_scheme_rate_at_integer_points():
    for K, N in [(2, 2), (3, 3), (4, 6), (4, 8)]:
        for t in range(K + 1):
            M = Fraction(t * N, K)
            pl = place(K, N, M)
            demands = worst_case_demands(K, N)
            tr = deliver(pl, demands)
            assert tr.total_size == scheme_rate(M, K, N)
            assert verify_decode(pl, tr, demands)


def test_scheme_never_beats_envelope():
    for K in (1, 2, 3, 4, 6, 8):
        for N in (1, 2, 3, 5, 8, 12):
            for k in range(0, 13):
                M = Fraction(k * N, 12)
                for U in (1, 2):
                    assert scheme_rate(M, K, N) * U <= rate_single_level(M, K, N, U)


def test_exhaustive_decode_small_instances():
    for K in (1, 2, 3):
        for N in (1, 2, 3, 4, 5, 6):
            grid = {Fraction(t * N, K) for t in range(K + 1)}
            grid.update({Fraction((2 * t + 1) * N, 2 * K) for t in range(K)})
            for M in sorted(grid):
                pl = place(K, N, M)
                rows_bound = scheme_rate(M, K, N)
                for demand_vec in itertools.product(range(N), repeat=K):
                    demands = list(enumerate(demand_vec))
                    tr = deliver(pl, demands)
                    assert verify_decode(pl, tr, demands)
                    assert tr.total_size <= rows_bound


def test_worst_case_matches_scheme_rate_between_integer_points():
    # both sublayers of a memory-shared placement are worst-case at once,
    # so the equality extends to fractional memories
    for K, N in [(3, 4), (4, 8)]:
        for num in (1, 3, 5):
            M = Fraction(num * N, 2 * K)
            tr = deliver(place(K, N, M), worst_case_demands(K, N))
            assert tr.total_size == scheme_rate(M, K, N)


def test_multi_row_demands():
    # two users per cache: rows served independently
    pl = place(2, 4, 2)
    demands = [(0, 0), (0, 1), (1, 2), (1, 3)]
    tr = deliver(pl, demands)
    assert verify_decode(pl, tr, demands)
    assert tr.total_size <= 2 * scheme_rate(2, 2, 4)


def test_deliver_handles_repeated_demands():
    pl = place(4, 2, 1)
    demands = [(0, 0), (1, 0), (2, 1), (3, 1)]
    tr = deliver(pl, demands)
    assert verify_decode(pl, tr, demands)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 5), st.integers(0, 8))
def test_deliver_deterministic(K, N, num):
    M = Fraction(num * N, 8)
    pl = place(K, N, M)
    demands = worst_case_demands(K, N)
    assert deliver(pl, demands) == deliver(pl, demands)
