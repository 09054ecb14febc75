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
from cachelab.single_level import (Message, SubfileId, Transcript, _subset_table, deliver,
                                   place, rate_single_level, scheme_rate, span_contains,
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


def _forged_parts(pl):
    """Parts that are no subfile of `pl`, each near one that is."""
    K, N, L = pl.K, pl.N, len(pl.layers)
    t = pl.layers[0].t
    subset = frozenset(range(t))  # a subset of layer 0
    other = pl.layers[1].t if L == 2 else t + 1
    yield SubfileId(0, frozenset(), 7)               # in no placement's numbering
    yield SubfileId(0, subset, L)                    # a layer index past the last
    yield SubfileId(0, subset, -1)                   # a negative layer index
    yield SubfileId(N, subset, 0)                    # file N
    yield SubfileId(N - 1, frozenset(range(other)), 0)  # the other layer's subset size
    yield SubfileId(0, frozenset(range(t - 1)) | {K}, 0)  # a cache K, size t (1 at t = 0)


def test_place_deliver_verify_match_the_set_building_oracles():
    rng = random.Random(8)
    forged_kinds = 0
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
            forged = list(_forged_parts(pl))
            assert not set(forged) & set(pl.symbols)
            forged_kinds = max(forged_kinds, len(forged))
            for part in forged:
                # The part on its own bit: it spoils the first message, a
                # broadcast of the part alone is useless, and both together
                # cancel it.
                spoiled = Message(first.targets, first.parts | {part}, first.size)
                alone = Message((), frozenset({part}), first.size)
                controls.append(Transcript((spoiled,) + messages[1:]))
                controls.append(Transcript(messages + (alone,)))
                controls.append(Transcript((spoiled,) + messages[1:] + (alone,)))
                assert verify_decode(pl, controls[-1], demands)
        for control in controls:
            assert (verify_decode(pl, control, demands)
                    == oracles.verify_decode(old_pl, control, demands))
    assert forged_kinds == 6


def test_deliver_matches_the_symbol_table_reference():
    # The transcript, message for message, equals the delivery that takes
    # every part from the placement's table of all subfiles: on the
    # criterion-3 grid, then with several users per cache, repeated demands,
    # and M = 0 and M = N on more caches.
    cases = 0
    for K in (1, 2, 3, 4):
        for N in (1, 2, 3, 4, 5):
            grid = {Fraction(t * N, K) for t in range(K + 1)}
            grid.update(Fraction((2 * t + 1) * N, 2 * K) for t in range(K))
            for M in sorted(grid):
                pl = place(K, N, M)
                for demand_vec in itertools.product(range(N), repeat=K):
                    demands = list(enumerate(demand_vec))
                    assert (deliver(pl, demands).messages
                            == oracles.deliver_reference(pl, demands).messages)
                    cases += 1
    rng = random.Random(2020)
    for _ in range(300):
        K, N = rng.randint(1, 7), rng.randint(1, 7)
        M = rng.choice([Fraction(0), Fraction(N), Fraction(rng.randint(0, 4 * N), 4)])
        pl = place(K, N, M)
        users = rng.randint(1, 3 * K)
        demands = [(rng.randrange(K), rng.randrange(min(N, 2))) for _ in range(users)]
        tr = deliver(pl, demands)
        assert tr.messages == oracles.deliver_reference(pl, demands).messages
        assert verify_decode(pl, tr, demands)
        cases += 1
    assert cases > 10000


def _sole_demand_message(messages, demands):
    """Index of a message aimed at a user whose file nobody else demands.

    That user's part of the message is in no other message, so the
    transcript without it cannot decode."""
    counts = {}
    for _, f in demands:
        counts[f] = counts.get(f, 0) + 1
    return next(k for k, msg in enumerate(messages)
                if any(counts[f] == 1 for _, f in msg.targets))


def test_largest_decode_sim_stratum_matches_the_references():
    # decode-sim runs K = N = 9: worst-case demands, one random user per
    # cache, and a second row on three caches, which is not full and so
    # takes the filtered path of deliver.
    K = N = 9
    rng = random.Random(9)
    demand_vectors = [worst_case_demands(K, N), [(c, rng.randrange(N)) for c in range(K)],
                      [(c, rng.randrange(N)) for c in range(K)]
                      + [(c, rng.randrange(N)) for c in rng.sample(range(K), 3)]]
    for t in (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)):
        pl = place(K, N, t * N / K)
        for demands in demand_vectors:
            tr = deliver(pl, demands)
            assert tr.messages == oracles.deliver_reference(pl, demands).messages
            assert verify_decode(pl, tr, demands)
            assert oracles.verify_decode(pl, tr, demands)
            k = _sole_demand_message(tr.messages, demands)
            control = Transcript(tr.messages[:k] + tr.messages[k + 1:])
            assert not verify_decode(pl, control, demands)
            assert not oracles.verify_decode(pl, control, demands)


def test_message_is_a_named_tuple_of_its_fields():
    part = SubfileId(1, frozenset({0}), 0)
    msg = Message(((1, 1),), frozenset({part}), Fraction(1, 2))
    assert (msg.targets, msg.parts, msg.size) == (((1, 1),), frozenset({part}), Fraction(1, 2))
    targets, parts, size = msg
    assert msg == (targets, parts, size) and tuple(msg) == (targets, parts, size)
    twin = Message(((1, 1),), frozenset({SubfileId(1, frozenset({0}))}), Fraction(2, 4))
    assert twin == msg and hash(twin) == hash(msg) and len({msg, twin}) == 1
    assert msg._replace(size=Fraction(1)) != msg


def test_verdict_reads_only_the_parts():
    # Rewriting every message's targets and size changes no verdict: of the
    # delivered transcript, of drop-one controls, or of forged parts.
    rng = random.Random(31)
    verdicts = set()
    for K, N, M, demands in _differential_cases(rng):
        pl = place(K, N, M)
        messages = deliver(pl, demands).messages
        transcripts = [messages] + [messages[:k] + messages[k + 1:]
                                    for k in range(min(3, len(messages)))]
        if messages:
            transcripts += [(messages[0]._replace(parts=messages[0].parts | {part}),)
                            + messages[1:] for part in _forged_parts(pl)]
        for msgs in transcripts:
            verdict = verify_decode(pl, Transcript(msgs), demands)
            rewritten = tuple(m._replace(targets=((K, N), (-1, 0)), size=Fraction(-7))
                              for m in msgs)
            assert verify_decode(pl, Transcript(rewritten), demands) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def _peel_chain(rng, width):
    """Rows s0, s0+s1, s1+s2, ...: each reveals its last symbol only after
    the row before it is peeled.  Returns the rows, shuffled, and the chain."""
    chain = rng.sample(range(width), rng.randint(2, width))
    rows = [1 << chain[0]] + [1 << a | 1 << b for a, b in zip(chain, chain[1:])]
    rng.shuffle(rows)
    return rows, chain


def test_span_contains_matches_plain_elimination():
    rng = random.Random(19)
    verdicts = {True: 0, False: 0}
    for i in range(3000):
        width = rng.randint(2, 14)
        if i % 2:
            rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 12))]
            chain = []
        else:
            rows, chain = _peel_chain(rng, width)
            rows += [rng.getrandbits(width) for _ in range(rng.randint(0, 4))]
            if i % 4 == 2:
                del rows[rng.randrange(len(rows))]
        known = rng.getrandbits(width) & rng.getrandbits(width)
        wanted = rng.getrandbits(width)
        if chain and i % 3:
            wanted |= 1 << chain[-1]
        got = span_contains(iter(rows), known, wanted)
        assert got == oracles.span_contains_reference(rows, known, wanted), (rows, known, wanted)
        verdicts[got] += 1
    assert min(verdicts.values()) > 500
    # A whole chain reveals its last symbol; any row missing breaks it.
    rng = random.Random(20)
    for _ in range(200):
        rows, chain = _peel_chain(rng, 20)
        assert span_contains(rows, 0, 1 << chain[-1])
        k = rng.randrange(len(rows))
        assert not span_contains(rows[:k] + rows[k + 1:], 0, 1 << chain[-1])


def test_deliver_and_verify_build_no_table_of_every_subfile():
    # The subset tables are keyed by (K, t) alone: the same K and layers at
    # other library sizes and memories add no table, and the placement's
    # table of all N*sum C(K, t) subfiles is never built.
    _subset_table.cache_clear()
    for N in (2, 3, 5, 8):
        for t in (Fraction(1), Fraction(3, 2), Fraction(2)):
            pl = place(4, N, t * N / 4)
            demands = [(c, c % N) for c in range(4)] + [(1, 0)]
            assert verify_decode(pl, deliver(pl, demands), demands)
            assert "symbols" not in vars(pl) and "caches" not in vars(pl)
    assert _subset_table.cache_info().currsize == 2  # (4, 1) and (4, 2)


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
    assert not verify_decode(pl, deliver(pl, [(0, 0), (1, 1)]), [(0, 0), (2, 1)])


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
