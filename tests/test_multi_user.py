import json
import math
import random
from fractions import Fraction

import pytest

from cachelab import multi_user, radicals
from cachelab.bounds import gap_report, optimize_lower_bound_mu
from cachelab.experiments import audit, random_multi_user_config
from cachelab.model import (LevelSpec, Setup, SystemConfig, describe, mixed_classes,
                            validate_multi_user)
from cachelab.multi_user import (Partition, _SplitPlan, find_m_feasible_partition,
                                 level_rate_bounds, rate_memory_sharing)
from cachelab.radicals import exact_sign
from cachelab.single_level import rate_single_level
from oracles import (_split_conditions, allocation_alphas, enumerate_feasible_partitions,
                     fraction_allocation_amount, partition_key, refine_partition,
                     regime_level_rate_bounds, regime_memories, scan_partition,
                     scan_rate_memory_sharing)


def one_level():
    return SystemConfig.multi_user(4, [(8, 2)])


def test_partition_single_level_examples():
    p = find_m_feasible_partition(one_level(), 2)
    assert (set(p.H), set(p.I), set(p.J)) == (set(), {0}, set())
    assert p.M_tilde == 1

    p0 = find_m_feasible_partition(one_level(), 0)
    assert set(p0.I) == {0}
    assert p0.M_tilde == Fraction(1, 2)  # boundary equality goes to I

    p_full = find_m_feasible_partition(one_level(), 9)
    assert (set(p_full.H), set(p_full.I), set(p_full.J)) == (set(), set(), {0})
    assert p_full.M_tilde is None


def test_partition_matches_exhaustive_oracle():
    rng = random.Random(42)
    for _ in range(12):
        cfg = random_multi_user_config(rng, max_levels=3)
        total = cfg.total_files
        for M in (Fraction(0), Fraction(total, 7), Fraction(total, 2), Fraction(total)):
            oracle = enumerate_feasible_partitions(cfg, M)
            chosen = find_m_feasible_partition(cfg, M)
            assert partition_key(chosen) in oracle


def test_partition_covers_irregular_instances_too():
    # The feasibility windows of consecutive splits abut exactly at the
    # stored-prefix sizes, so the scan succeeds even off the regularity
    # conditions (popularity ratio here is only 2^12) and at close or
    # equal popularity levels.
    for cfg in (SystemConfig.multi_user(4, [(2 ** 10, 2 ** 8), (2 ** 16, 2 ** 4)]),
                SystemConfig.multi_user(2, [(4, 1), (8, 2)])):
        total = cfg.total_files
        for k in range(25):
            M = Fraction(total) * k / 24
            partition = find_m_feasible_partition(cfg, M)
            assert partition_key(partition) in enumerate_feasible_partitions(cfg, M)


def _totality_configs(rng, count):
    # Irregular configs, half of them with a level whose N/U ties another's;
    # K = 1 is forced every fourth config.
    for n in range(count):
        K = 1 if n % 4 == 0 else rng.randint(2, 8)
        levels = [(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        if n % 2:
            files, users = rng.choice(levels)
            scale = rng.randint(2, 3)
            levels.insert(rng.randint(0, len(levels)), (scale * files, scale * users))
        yield SystemConfig.multi_user(K, levels)


def test_memory_sharing_is_total_on_any_config():
    # The split is a water-filling, so a feasible one exists at every memory
    # in [0, sum N_i].  The boundary memories are every prefix sum T_J of
    # the sqrt(N/U) order and T_J + N_i/K and T_J + N_i for each level i.
    rng = random.Random(181)
    big = 10 ** 29 + 7  # a 30-digit denominator
    configs = tied = single_cache = 0
    for cfg in _totality_configs(rng, 120):
        K, total = cfg.caches, cfg.total_files
        plan = cfg.fact(_SplitPlan)
        mems = {Fraction(0), Fraction(total)}
        for T_J in plan.T:
            for lv in cfg.levels:
                mems |= {T_J, T_J + Fraction(lv.files, K), T_J + lv.files}
        mems |= {Fraction(rng.randint(0, total * big), big) for _ in range(8)}
        mems = sorted(M for M in mems if M <= total)
        assert len(mems) >= 10
        for M in mems:
            amounts = rate_memory_sharing(cfg, M).allocation.amounts
            used = Fraction(0)
            for amount, lv in zip(amounts, cfg.levels):
                assert 0 <= amount <= lv.files, (cfg, M)
                used = used + amount
            assert type(used) is Fraction and used == M, (cfg, M)
        configs += 1
        ratios = [Fraction(lv.files, lv.users) for lv in cfg.levels]
        tied += len(set(ratios)) < len(ratios)
        single_cache += K == 1
    assert configs == 120 and tied >= 60 and single_cache >= 30


def test_allocation_examples():
    cfg = one_level()
    a = rate_memory_sharing(cfg, 2).allocation
    assert a.amounts == (Fraction(2),)
    assert allocation_alphas(a) == (Fraction(1),)

    a8 = rate_memory_sharing(cfg, 8).allocation
    assert a8.amounts == (Fraction(8),)  # full storage endpoint

    a9 = rate_memory_sharing(cfg, 9).allocation
    assert a9.amounts == (Fraction(8),)  # J level stores its library


def test_allocation_invariants_randomized():
    rng = random.Random(7)
    for _ in range(10):
        cfg = random_multi_user_config(rng, max_levels=4)
        total = cfg.total_files
        for M in (Fraction(0), Fraction(total, 9), Fraction(total, 3),
                  Fraction(2 * total, 3), Fraction(total)):
            a = rate_memory_sharing(cfg, M).allocation
            acc = Fraction(0)
            for lv, amount in zip(cfg.levels, a.amounts):
                assert exact_sign(amount) >= 0
                assert exact_sign(amount - lv.files) <= 0
                acc = acc + amount
            assert exact_sign(acc - M) == 0  # sum of alphas is exactly 1


def test_refine_examples():
    cfg = one_level()
    r = refine_partition(cfg, 2)
    assert set(r.I1) == {0} and not r.I0 and not r.Iprime

    r2 = refine_partition(cfg, Fraction(3, 4))
    assert set(r2.I0) == {0}

    r3 = refine_partition(cfg, 9)
    assert set(r3.J) == {0} and not (r3.I0 | r3.Iprime | r3.I1)


def test_rate_examples():
    cfg = one_level()
    assert rate_memory_sharing(cfg, 2).achievable == 6
    assert rate_memory_sharing(cfg, 0).achievable == 8
    assert rate_memory_sharing(cfg, 8).achievable == 0


def test_single_level_instances_reduce_to_plain_rate():
    # with one level the whole cache goes to it, so memory sharing must
    # collapse to the single-level formula at every memory
    for K, N, U in [(4, 8, 2), (3, 12, 1), (8, 64, 4)]:
        cfg = SystemConfig.multi_user(K, [(N, U)])
        for k in range(13):
            M = Fraction(N) * k / 12
            assert rate_memory_sharing(cfg, M).achievable == \
                rate_single_level(M, K, N, U)


def test_rate_report_carries_witnesses():
    rep = rate_memory_sharing(one_level(), 2)
    assert rep.partition is not None and rep.allocation is not None
    assert rep.regular
    assert rep.extras["approx_rate"] == 6


def test_rate_nonincreasing_in_memory():
    rng = random.Random(3)
    for _ in range(5):
        cfg = random_multi_user_config(rng, max_levels=3)
        total = cfg.total_files
        values = []
        for k in range(9):
            M = Fraction(total) * k / 8
            values.append(rate_memory_sharing(cfg, M).achievable)
        for lo, hi in zip(values[1:], values[:-1]):
            assert exact_sign(hi - lo) >= 0


def test_level_bound_examples():
    cfg = one_level()
    assert level_rate_bounds(cfg, 2) == [120]
    # H levels are capped at K*U exactly, J levels at zero
    cfg2 = SystemConfig.multi_user(4, [(8, 2), (102400 * 4, 4)])
    bounds = level_rate_bounds(cfg2, Fraction(1, 2))
    refined = refine_partition(cfg2, Fraction(1, 2))
    for h in refined.H:
        assert bounds[h] == 4 * cfg2.levels[h].users
    bounds_full = level_rate_bounds(cfg2, cfg2.total_files + 1)
    assert bounds_full == [0, 0]


def test_per_level_rate_below_bound():
    rng = random.Random(11)
    for _ in range(8):
        cfg = random_multi_user_config(rng, max_levels=3)
        total = cfg.total_files
        for M in (Fraction(0), Fraction(total, 11), Fraction(total, 2),
                  Fraction(9 * total, 10)):
            amounts = rate_memory_sharing(cfg, M).allocation.amounts
            caps = level_rate_bounds(cfg, M)
            for lv, amount, cap in zip(cfg.levels, amounts, caps):
                achieved = rate_single_level(amount, cfg.caches, lv.files, lv.users)
                assert exact_sign(cap - achieved) >= 0


@pytest.mark.parametrize("cfg, M", [
    # Regular, but with K = 128 > 78 both levels are partial and high-memory.
    (SystemConfig.multi_user(128, [(1536, 4), (2457600, 1)]), Fraction(960)),
    # Irregular: all three levels are high-memory; level 0's cap was negative.
    (SystemConfig.multi_user(64, [(757, 4), (1851, 2), (2580, 2)]), Fraction(10376, 11)),
])
def test_level_bounds_refuse_several_high_memory_levels(cfg, M):
    refined = refine_partition(cfg, M)
    assert len(refined.I1) >= 2 and refined.I1 == refined.base.I
    with pytest.raises(ValueError, match="at most one high-memory level"):
        level_rate_bounds(cfg, M)


def test_refined_high_memory_set_is_small_for_regular_instances():
    rng = random.Random(19)
    for _ in range(10):
        cfg = random_multi_user_config(rng, max_levels=4)
        total = cfg.total_files
        for M in (Fraction(total, 5), Fraction(total, 2)):
            refined = refine_partition(cfg, M)
            assert len(refined.I1) <= 1


def _coincident_configs(rng, count):
    # Level h enters I at the water level x_h/K at which level j fills up,
    # (1 + 1/K)*x_j, when N_h/U_h = (K+1)^2 * N_j/U_j.  K = 1 every third
    # config; every other config adds a level tied in N/U with j or h, and
    # some a third, unrelated level.
    for n in range(count):
        K = 1 if n % 3 == 0 else rng.randint(2, 6)
        ratio = rng.randint(1, 12)
        u_j, u_h = rng.randint(1, 4), rng.randint(1, 4)
        levels = [(u_j * ratio, u_j), (u_h * (K + 1) ** 2 * ratio, u_h)]
        if n % 2:
            files, users = rng.choice(levels)
            scale = rng.randint(2, 3)
            levels.insert(rng.randint(0, len(levels)), (scale * files, scale * users))
        if n % 5 == 1:
            levels.append((rng.randint(1, 200), rng.randint(1, 4)))
        yield SystemConfig.multi_user(K, levels)


def test_coincident_thresholds_match_the_scan_oracle():
    # At every boundary memory (T_J, T_J + N_i/K and T_J + N_i), the scan
    # returns the oracle scan's split, which the 3^L enumeration finds feasible.
    rng = random.Random(199)
    checked = single_cache = tied = 0
    for cfg in _coincident_configs(rng, 60):
        K, total = cfg.caches, cfg.total_files
        mems = set()
        for T_J in cfg.fact(_SplitPlan).T:
            for lv in cfg.levels:
                mems |= {T_J, T_J + Fraction(lv.files, K), T_J + lv.files}
        for M in sorted(M for M in mems if M <= total):
            chosen = find_m_feasible_partition(cfg, M)
            assert partition_key(chosen) == partition_key(scan_partition(cfg, M)), (cfg, M)
            assert partition_key(chosen) in enumerate_feasible_partitions(cfg, M), (cfg, M)
            checked += 1
        ratios = [Fraction(lv.files, lv.users) for lv in cfg.levels]
        single_cache += K == 1
        tied += len(set(ratios)) < len(ratios)
    assert checked >= 700 and single_cache == 20 and tied >= 30


def _wide_config(rng, partial):
    # Level i has N_i*U_i = U_i^2 * p_i * s_i^2 for distinct primes p_i, so
    # the square roots of the levels are independent radicals.
    K = rng.choice((4, 6, 8))
    levels = []
    for p in rng.sample((2, 3, 5, 7, 11, 13, 17, 19, 23), partial):
        users = rng.randint(1, 4)
        s = max(1, round(rng.uniform(6, 12) / math.sqrt(p)))
        levels.append((users * p * s * s, users))
    return SystemConfig.multi_user(K, levels)


def _oracle_configs():
    rng = random.Random(71)
    for _ in range(6):
        yield random_multi_user_config(rng, max_levels=4)          # regular
    for _ in range(10):
        K = rng.choice((2, 3, 4, 6, 8))
        levels = [(rng.randint(1, 60), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))]
        yield SystemConfig.multi_user(K, levels)                    # irregular
    for partial in (2, 3, 4):
        yield _wide_config(rng, partial)                            # independent radicals
    # Tied N/U ratios: the split checks only the levels at the ends of H, I
    # and J, and tied levels share a cut constant.
    for K in (2, 4):
        yield SystemConfig.multi_user(K, [(4, 1), (8, 2), (12, 3)])
    yield SystemConfig.multi_user(3, [(2, 1), (6, 3), (5, 1), (15, 3), (10, 5)])


def _caps(caps, cfg, M):
    try:
        return [repr(cap) for cap in caps(cfg, M)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_level_bounds_match_the_regime_oracle():
    # The caps test high memory inline; the oracle first splits I into the
    # low, intermediate and high sets of `refine_partition`.
    configs = list(_oracle_configs())
    configs += [SystemConfig.multi_user(128, [(1536, 4), (2457600, 1)]),
                SystemConfig.multi_user(64, [(757, 4), (1851, 2), (2580, 2)])]
    refused = 0
    for cfg in configs:
        for M in regime_memories(cfg) + [Fraction(960), Fraction(10376, 11)]:
            want = _caps(regime_level_rate_bounds, cfg, M)
            assert _caps(level_rate_bounds, cfg, M) == want, (cfg, M)
            refused += isinstance(want, str)
    assert refused >= 2


def _report_json(rate, cfg, M):
    return json.dumps(rate(cfg, M).to_json_dict())


def _replicated_class():
    # The replicated class of a fresh mixed config, as `mixed_rate` queries it.
    mixed = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2), LevelSpec(900, 1), LevelSpec(30, 3)),
                         (LevelSpec(12, 3), LevelSpec(50, 1)))
    return mixed.fact(mixed_classes)[0]


def test_rate_matches_per_memory_scan_oracle():
    # Prefix sums of the library sizes in the scan order are exact rational
    # thresholds (M = T_J and M = T_J + N_i when I = {i}), where the cached
    # enclosures cannot decide and the certified fallback must.  Blocks fill
    # lazily in query order, and the order of RootSum operations decides how
    # a value prints, so each config is queried on fresh config objects in
    # ascending, descending and shuffled order, byte for byte as the oracle.
    rng, orders = random.Random(73), random.Random(79)
    makers = [lambda cfg=cfg: SystemConfig(cfg.setup, cfg.caches, cfg.levels)
              for cfg in _oracle_configs()]
    for make in makers + [_replicated_class]:
        cfg = make()
        total = cfg.total_files
        order = sorted(cfg.levels, key=lambda lv: Fraction(lv.files, lv.users))
        prefix = [sum(lv.files for lv in order[:k]) for k in range(len(order) + 1)]
        mems = {Fraction(m) for m in prefix}
        mems |= {Fraction(rng.randint(0, 8 * total), 8) for _ in range(8)}
        # 31-digit denominators, just past each exact threshold and inside a piece
        big = 10 ** 30 + 7
        mems |= {Fraction(m * big + 1, big) for m in prefix} | {Fraction(total * big // 3, big)}
        mems.add(Fraction(total + 1))
        ascending = sorted(mems)
        shuffled = ascending[:]
        orders.shuffle(shuffled)
        want = {M: _report_json(scan_rate_memory_sharing, cfg, M) for M in ascending}
        for queries in (ascending, ascending[::-1], shuffled):
            fresh = make()
            got = {M: _report_json(rate_memory_sharing, fresh, M) for M in queries}
            assert got == want, (cfg, queries)


def test_split_check_matches_every_level_oracle():
    # The scan's membership test compares only the thresholds at the ends of
    # H, I and J; the oracle compares every level's.  They must agree on
    # every contiguous split, at exact thresholds and between them.
    rng = random.Random(151)
    for cfg in _oracle_configs():
        plan = cfg.fact(_SplitPlan)
        L, K = len(cfg.levels), cfg.caches
        mems = {Fraction(0)} | {Fraction(m) for m in plan.T}
        mems |= {Fraction(lv.files, K) for lv in cfg.levels}
        mems |= {Fraction(rng.randint(0, 8 * cfg.total_files), rng.randint(1, 8))
                 for _ in range(6)}
        for M in sorted(mems):
            for j_end in range(L):
                for h_start in range(j_end + 1, L + 1):
                    got = plan.admits(plan.split_block(j_end, h_start), j_end, h_start, M)
                    want = _split_conditions(cfg, M, range(h_start, L),
                                             range(j_end, h_start), range(j_end))
                    assert (got is not None) == want, (cfg, M, j_end, h_start)


def test_allocation_matches_fraction_formula_oracle():
    # Random rational memories plus M = 0, K*M = N_i, M = N_i, the library size
    # and above it, on regular, irregular and wide configs: every partial
    # level's memory has the value and type of the Fraction formula, and is
    # a Fraction when it is the only partial level.
    rng = random.Random(139)
    rational = 0
    for cfg in _oracle_configs():
        total = cfg.total_files
        mems = {Fraction(0), Fraction(total), Fraction(total + 1)}
        for lv in cfg.levels:
            mems |= {Fraction(lv.files, cfg.caches), Fraction(lv.files)}
        mems |= {Fraction(rng.randint(0, 8 * total), rng.randint(1, 8)) for _ in range(6)}
        for M in sorted(mems):
            report = rate_memory_sharing(cfg, M)
            partition, amounts = report.partition, report.allocation.amounts
            for i in partition.I:
                expected = fraction_allocation_amount(partition, cfg, M, i)
                assert type(amounts[i]) is type(expected) and amounts[i] == expected, (cfg, M)
                if len(partition.I) == 1:
                    assert type(amounts[i]) is Fraction
                    rational += 1
    assert rational >= 50


@pytest.mark.parametrize("M", [0, 8])
def test_exact_threshold_takes_the_certified_fallback(monkeypatch, M):
    # With one level, K*W meets S_I*sqrt(N/U) = N at M = 0 and (K + 1)*N at
    # M = N exactly, so only the certified exact_sign can decide the split.
    signs = []
    sign = radicals.exact_sign
    monkeypatch.setattr(radicals, "exact_sign", lambda x: signs.append(x) or sign(x))
    report = rate_memory_sharing(one_level(), M)
    assert any(not x for x in signs)  # a difference that is exactly zero
    assert report.to_json_dict() == scan_rate_memory_sharing(one_level(), M).to_json_dict()


def test_partition_scan_rejects_a_single_user_config():
    with pytest.raises(ValueError, match="expected a multi-user config, got single-user"):
        find_m_feasible_partition(SystemConfig.single_user(4, [(8, 4)]), 1)


def test_rate_memory_sharing_validates_a_config_once(count_calls):
    # The split plan reads the report once, when the config builds the plan.
    cfg = SystemConfig.multi_user(4, [(8, 2), (25600, 1)])
    calls = count_calls(validate_multi_user)
    for M in range(8):
        rate_memory_sharing(cfg, M)
    assert len(calls) == 1 and calls[0] is cfg


def test_rate_memory_sharing_scans_the_partition_once(count_calls):
    # The allocation and approx_rate read the block of the split the scan
    # found, so each rate runs the scan once; above the library size too,
    # where every level is fully stored.
    cfg = SystemConfig.multi_user(4, [(8, 2), (25600, 1)])
    memories = [0, 1, 8, 100, cfg.total_files, cfg.total_files + 1]
    calls = count_calls(find_m_feasible_partition)
    for M in memories:
        rate_memory_sharing(cfg, M)
    assert calls == [cfg] * len(memories)


def _m_tilde_cases():
    # Criterion 7's grids (its seed, 100 configs of up to five levels, at
    # M = 0, total/3 and 9*total/10), then the oracle configs on fresh
    # objects at every prefix sum and seeded memories, in shuffled order.
    rng = random.Random(20260809)
    for _ in range(100):
        cfg = random_multi_user_config(rng, max_levels=5)
        total = cfg.total_files
        yield cfg, [Fraction(0), Fraction(total, 3), Fraction(9 * total, 10)]
    rng, orders = random.Random(163), random.Random(167)
    for cfg in _oracle_configs():
        mems = {Fraction(sum(lv.files for lv in cfg.levels[:k]))
                for k in range(len(cfg.levels) + 1)}
        mems |= {Fraction(rng.randint(0, 8 * cfg.total_files), rng.randint(1, 8))
                 for _ in range(6)}
        mems = sorted(mems)
        orders.shuffle(mems)
        yield cfg, mems


def test_m_tilde_on_first_read_matches_the_eager_oracle():
    # Every partition of a config is found before any M_tilde is read, and
    # they are read in reverse, so the blocks were filled by other queries
    # first; each value and its printed form are the oracle's.
    checked = 0
    for cfg, mems in _m_tilde_cases():
        found = [(M, find_m_feasible_partition(cfg, M)) for M in mems]
        for M, partition in reversed(found):
            want = scan_partition(cfg, M).M_tilde
            assert partition.M_tilde == want and repr(partition.M_tilde) == repr(want), (cfg, M)
            assert type(partition.M_tilde) is type(want)
            checked += want is not None
    assert checked >= 400


def test_positional_partition_equals_the_scan_partition():
    # A Partition built positionally with an eager M_tilde (as the oracles
    # build one) equals the scan's partition before its M_tilde was read,
    # and prints and hashes alike.  A partition hashes by H, I and J, so one
    # whose S_I or M_tilde is an (unhashable) RootSum hashes as well.
    irrational = 0
    for cfg, mems in _m_tilde_cases():
        for M in mems:
            want = scan_partition(cfg, M)
            eager = Partition(want.H, want.I, want.J, want.S_I, want.T_J, want.V_I,
                              want.M_tilde)
            lazy = find_m_feasible_partition(SystemConfig(cfg.setup, cfg.caches, cfg.levels), M)
            assert lazy == eager and eager == lazy, (cfg, M)
            assert repr(lazy) == repr(eager) and describe(lazy) == describe(eager)
            assert hash(lazy) == hash(eager) == hash((want.H, want.I, want.J))
            assert len({lazy, eager}) == 1
            irrational += radicals.RootSum in (type(eager.S_I), type(eager.M_tilde))
    assert irrational >= 300


def test_a_partition_hashes_without_reading_m_tilde():
    cfg = SystemConfig.multi_user(4, [(8, 2), (50, 1)])
    partition = find_m_feasible_partition(cfg, 10)
    assert type(partition.S_I) is radicals.RootSum
    fresh = find_m_feasible_partition(SystemConfig.multi_user(4, [(8, 2), (50, 1)]), 10)
    # Hashing reads only the sets; a dict lookup then compares with ==.
    assert hash(fresh) == hash(partition) == hash((fresh.H, fresh.I, fresh.J))
    assert type(fresh.__dict__["M_tilde"]) is multi_user._Pending
    assert {partition: 1}[fresh] == 1


def test_an_audit_point_never_computes_m_tilde(monkeypatch):
    # The rate, the bound and the gap of an audit point leave M_tilde
    # pending; the first read computes it, once, and a printed report reads it.
    computed = []
    value = multi_user._Pending.value

    def counted(pending):
        computed.append(pending)
        return value(pending)

    monkeypatch.setattr(multi_user._Pending, "value", counted)
    cfg = SystemConfig.multi_user(4, [(8, 2), (25600, 1)])
    reports = []
    for M in (Fraction(0), Fraction(1, 3), Fraction(8), Fraction(25608, 7)):
        report = rate_memory_sharing(cfg, M)
        lower, _ = optimize_lower_bound_mu(cfg, M)
        gap_report(Setup.MULTI_USER, report.achievable, lower, M, cfg)
        reports.append(report)
    assert audit(Setup.MULTI_USER, 3, seed=1, grid_points=5).ok
    assert computed == []
    partition = reports[1].partition
    first = partition.M_tilde
    assert partition.M_tilde is first and len(computed) == 1
    reports[1].to_json_dict()
    assert len(computed) == 1
    assert reports[2].to_json_dict()["partition"]["M_tilde"] == \
        describe(scan_partition(cfg, Fraction(8)).M_tilde)
    assert len(computed) == 2


def _window_configs(rng):
    # Regular configs at K = 96 and 128, whose levels are 6400 apart in N/U,
    # less than (K+1)^2, so each overlaps its neighbours; adjacent levels
    # exactly (K+1)^2 apart (and one off it either way); tied levels; and
    # wide-levels-like configs, whose levels all overlap.
    for K in (96, 128):
        for L in (2, 3, 4):
            for _ in range(3):
                levels, per_user = [], K * rng.randint(1, 4)
                for _ in range(L):
                    users = rng.randint(1, 4)
                    levels.append((users * per_user, users))
                    per_user *= 6400 + rng.randint(0, 3)
                yield SystemConfig.multi_user(K, levels)
    for _ in range(24):
        K = rng.choice((1, 2, 3, 5, 16, 96, 128))
        levels, per_user = [], rng.randint(1, 9)
        for _ in range(rng.randint(2, 4)):
            users = rng.randint(1, 4)
            levels.append((users * per_user, users))
            per_user *= (K + 1) ** 2 + rng.choice((-1, 0, 0, 1))
        if rng.random() < 0.5:
            files, users = rng.choice(levels)
            scale = rng.randint(2, 3)
            levels.insert(rng.randint(0, len(levels)), (scale * files, scale * users))
        yield SystemConfig.multi_user(K, levels)
    for partial in (2, 3, 4, 5):
        for _ in range(2):
            yield _wide_config(rng, partial)


def test_window_scan_matches_the_scan_oracle():
    # The scan tries only the splits that the integer threshold tests leave;
    # at every prefix sum, every T_J + N_i/K and T_J + N_i, the 20-point
    # audit grid and seeded memories it returns the full scan's split.
    rng = random.Random(211)
    checked = configs = 0
    for cfg in _window_configs(rng):
        K, total = cfg.caches, cfg.total_files
        plan = cfg.fact(_SplitPlan)
        mems = set(plan.T) | {Fraction(total) * k / 19 for k in range(20)}
        for T_J in plan.T:
            for lv in cfg.levels:
                mems |= {T_J + Fraction(lv.files, K), T_J + lv.files}
        mems |= {Fraction(rng.randint(0, 97 * total), 97) for _ in range(6)}
        for M in sorted(M for M in mems if M <= total):
            got = find_m_feasible_partition(cfg, M)
            assert partition_key(got) == partition_key(scan_partition(cfg, M)), (cfg, M)
            checked += 1
        configs += 1
    assert configs == 50 and checked >= 1500


def test_separated_levels_between_prefix_sums_take_one_admits_call(monkeypatch):
    # K = 16 and four regular levels: (K+1)^2 = 289 < 6400, so every
    # adjacent pair is separated, and between two prefix sums the integer
    # tests settle every level's side; the scan checks one split.
    cfg = SystemConfig.multi_user(16, [(32, 2), (307200, 3), (655360000, 1),
                                       (16777216000000, 4)])
    calls = []
    admits = _SplitPlan.admits

    def counted(plan, block, j_end, h_start, M):
        calls.append((j_end, h_start))
        return admits(plan, block, j_end, h_start, M)

    monkeypatch.setattr(_SplitPlan, "admits", counted)
    T = cfg.fact(_SplitPlan).T
    for k in range(len(cfg.levels)):
        for M in (T[k] + Fraction(1, 3), Fraction(T[k] + T[k + 1], 2),
                  T[k + 1] - Fraction(1, 7)):
            calls.clear()
            partition = find_m_feasible_partition(cfg, M)
            assert calls == [(k, k + 1)], (M, calls)
            assert partition_key(partition) == partition_key(scan_partition(cfg, M))
