import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cachelab.radicals import RootSum
from cachelab.single_level import (Message, SubfileId, Transcript, deliver, place,
                                   rate_single_level, scheme_rate, span_contains,
                                   verify_decode, worst_case_demands)


def test_rate_examples():
    assert rate_single_level(8, 4, 8, 2) == 0
    assert rate_single_level(0, 4, 8, 2) == 8
    assert rate_single_level(2, 4, 8, 1) == 3
    with pytest.raises(ValueError):
        rate_single_level(9, 4, 8, 1)
    with pytest.raises(ValueError):
        rate_single_level(-1, 4, 8, 1)


def test_rate_matches_fraction_formula_oracle():
    # Random rational memories plus M = 0, K*M = N and M = N: the same value
    # as the Fraction formula, and a Fraction; above N and below 0, the same
    # message.
    rng = random.Random(131)
    for _ in range(300):
        K, N, U, q = rng.randint(1, 12), rng.randint(1, 40), rng.randint(1, 5), rng.randint(1, 30)
        for M in (0, Fraction(N, K), N, Fraction(rng.randint(0, N * q), q), str(Fraction(N, q))):
            value = rate_single_level(M, K, N, U)
            assert type(value) is Fraction, (M, K, N, U)
            assert value == oracles.fraction_rate_single_level(M, K, N, U), (M, K, N, U)
        for M in (Fraction(N * q + 1, q), Fraction(-1, q), N + 1, -1):
            with pytest.raises(ValueError) as got:
                rate_single_level(M, K, N, U)
            with pytest.raises(ValueError) as want:
                oracles.fraction_rate_single_level(M, K, N, U)
            assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("K,N", [(3, 0), (0, 3), (-1, 2), (2, -1)])
def test_place_and_scheme_rate_reject_no_caches_or_no_files(K, N):
    with pytest.raises(ValueError, match="at least one cache and one file"):
        place(K, N, 0 if N < 1 else 1)
    with pytest.raises(ValueError, match="at least one cache and one file"):
        scheme_rate(0, K, N)


def test_symbol_numbering_layout():
    # K = 3, N = 2, t = 3/2: layer 0 has the 3 singletons, layer 1 the 3 pairs
    pl = place(3, 2, 1)
    assert [sf.subset for sf in pl.symbols[::2]] == [
        frozenset(s) for s in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]]
    assert [sf.file for sf in pl.symbols] == [0, 1] * 6
    assert [sf.layer for sf in pl.symbols[::2]] == [0, 0, 0, 1, 1, 1]
    # a file's symbols: one stride-N pattern shifted by the file index
    assert pl.file_mask(1) == sum(1 << i for i in range(1, 12, 2))
    assert pl.subfiles_of(1) == [pl.symbols[i] for i in range(1, 12, 2)]
    # cache 1 stores subsets (1,), (0, 1) and (1, 2): symbols 2-3, 6-7 and 10-11
    assert pl.masks[1] == 0b110011001100
    assert pl.caches[1] == frozenset(pl.symbols[i] for i in (2, 3, 6, 7, 10, 11))


def _differential_cases(rng):
    for K in range(1, 9):
        N = rng.randint(1, 8)
        ts = [Fraction(rng.randint(0, K)) for _ in range(2)]
        ts += [Fraction(2 * rng.randrange(K) + 1, 2) for _ in range(2)]
        for t in ts:
            M = t * N / K
            yield K, N, M, worst_case_demands(K, N)
            yield K, N, M, [(c, rng.randrange(N)) for c in range(K)]
            yield K, N, M, [(rng.randrange(K), rng.randrange(N))
                            for _ in range(rng.randint(1, 2 * K))]


def test_place_deliver_verify_match_the_set_building_oracles():
    rng = random.Random(8)
    foreign = SubfileId(0, frozenset(), 7)  # in no placement's numbering
    for K, N, M, demands in _differential_cases(rng):
        pl = place(K, N, M)
        old_pl = oracles.place(K, N, M)
        assert pl == old_pl
        assert pl.caches == oracles.place_caches(K, N, M)[1]
        tr = deliver(pl, demands)
        assert tr == oracles.deliver(old_pl, demands)
        assert verify_decode(pl, tr, demands)
        assert oracles.verify_decode(old_pl, tr, demands)
        messages = tr.messages
        controls = [Transcript(messages[:k] + messages[k + 1:])
                    for k in rng.sample(range(len(messages)), min(3, len(messages)))]
        if messages:
            first = messages[0]
            controls.append(Transcript((Message(first.targets, first.parts | {foreign},
                                                first.size),) + messages[1:]))
            controls.append(Transcript(messages + (Message((), frozenset({foreign}),
                                                           first.size),)))
        for control in controls:
            assert (verify_decode(pl, control, demands)
                    == oracles.verify_decode(old_pl, control, demands))


def test_verify_reads_cache_content():
    pl = place(4, 4, 2)
    demands = worst_case_demands(4, 4)
    tr = deliver(pl, demands)
    assert verify_decode(pl, tr, demands)
    # cache 0 needs the other parts of a message it decodes from its own store
    msg = next(m for m in tr.messages if m.targets[0][0] == 0)
    relied_on = next(sf for sf in msg.parts if 0 in sf.subset)
    bit = pl.symbols.index(relied_on)
    assert pl.masks[0] >> bit & 1
    lacking = dataclasses.replace(pl, masks=(pl.masks[0] & ~(1 << bit),) + pl.masks[1:])
    assert relied_on not in lacking.caches[0]
    assert not verify_decode(lacking, tr, demands)
    assert verify_decode(lacking, tr, demands[1:])


def test_placement_masks_must_fit_the_numbering():
    pl = place(3, 2, 1)  # 6 subsets of 2 files: 12 symbols
    with pytest.raises(ValueError, match="3 cache masks over 12 symbols"):
        dataclasses.replace(pl, masks=pl.masks[:2])
    with pytest.raises(ValueError, match="3 cache masks over 12 symbols"):
        dataclasses.replace(pl, masks=(1 << 12,) + pl.masks[1:])


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


def _yma_bound(K, t, distinct):
    """Exact minimum rate under uncoded placement for a demand on `distinct`
    files (Yu, Maddah-Ali, Avestimehr, arXiv:1609.07817)."""
    return Fraction(math.comb(K, t + 1) - math.comb(K - distinct, t + 1), math.comb(K, t))


def _check_against_yma(K, N, t, demands):
    pl = place(K, N, Fraction(t * N, K))
    tr = deliver(pl, demands)
    messages, total = tr.messages, tr.total_size
    bound = _yma_bound(K, t, len({f for _, f in demands}))
    assert verify_decode(pl, tr, demands)
    assert total >= bound
    for k, msg in enumerate(messages):
        if total - msg.size < bound:
            # no decodable transcript may beat the converse
            assert not verify_decode(pl, Transcript(messages[:k] + messages[k + 1:]), demands)
    return total, bound


@pytest.mark.parametrize("K", range(2, 8))
def test_yma_bound_one_user_per_cache(K):
    rng = random.Random(K)
    for t in range(K + 1):
        total, bound = _check_against_yma(K, K, t, worst_case_demands(K, K))
        assert total == bound  # distinct demands meet the bound
        for _ in range(5):
            _check_against_yma(K, K, t, [(c, rng.randrange(K)) for c in range(K)])


def test_yma_bound_on_the_exhaustive_grid():
    for K in (1, 2, 3, 4):
        for N in (1, 2, 3, 4, 5):
            for t in range(K + 1):
                for demand_vec in itertools.product(range(N), repeat=K):
                    total, bound = _check_against_yma(K, N, t, list(enumerate(demand_vec)))
                    if len(set(demand_vec)) == K:
                        assert total == bound
