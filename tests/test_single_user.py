import itertools
import random
from fractions import Fraction

import pytest

from cachelab.experiments import random_single_user_config
from cachelab.model import SystemConfig
from cachelab.single_user import (cluster_place_deliver,
                                  cluster_place_deliver_decentralized,
                                  partition_su, rate_clustering,
                                  rate_upper_bound_su, refine_partition_su)
from oracles import team_enumeration_decentralized


def two_levels():
    # canonical order puts (4,4) first (popularity 1), then (100,1)
    return SystemConfig.single_user(5, [(4, 4), (100, 1)])


def test_partition_examples():
    part = partition_su(two_levels(), 10)
    assert (set(part.Hprime), set(part.Iprime)) == ({1}, {0})
    part0 = partition_su(two_levels(), 0)
    assert set(part0.Hprime) == {0, 1}
    part_hi = partition_su(two_levels(), 100)
    assert set(part_hi.Iprime) == {0, 1}


def test_partition_boundary_goes_to_iprime():
    cfg = SystemConfig.single_user(2, [(4, 2)])
    part = partition_su(cfg, 2)  # M == N/K exactly
    assert set(part.Iprime) == {0}


def test_partition_covers_everything():
    rng = random.Random(5)
    for _ in range(10):
        cfg = random_single_user_config(rng)
        total = cfg.total_files
        for M in (Fraction(0), Fraction(total, 3), Fraction(total)):
            part = partition_su(cfg, M)
            assert part.Hprime | part.Iprime == frozenset(range(len(cfg.levels)))
            assert not (part.Hprime & part.Iprime)


def test_rate_examples():
    assert rate_clustering(two_levels(), 10).achievable == 1
    assert rate_clustering(two_levels(), 0).achievable == 5
    single = SystemConfig.single_user(3, [(6, 3)])
    assert rate_clustering(single, 6).achievable == 0


def test_refine_examples():
    r = refine_partition_su(two_levels(), 10)
    assert (set(r.G), set(r.J)) == ({1}, {0})
    assert not r.anomalies
    r_all_j = refine_partition_su(two_levels(), 101)
    assert set(r_all_j.J) == {0, 1}
    cfg = SystemConfig.single_user(6, [(60, 6)])
    assert set(refine_partition_su(cfg, 5).H) == {0}


def test_refine_surfaces_anomalies():
    # K <= 5 level with N/6 < M < N/K: classified J, actually served uncoded
    cfg = SystemConfig.single_user(1, [(100, 1)])
    r = refine_partition_su(cfg, 50)
    assert set(r.J) == {0}
    assert r.anomalies == (0,)


def test_upper_bound_examples():
    assert rate_upper_bound_su(two_levels(), 10) == 1
    # everything in the full-storage regime with memory beyond N_J: bound 0
    assert rate_upper_bound_su(two_levels(), 104) == 0
    # middle branch: 6*(1 - M/N_J)
    assert rate_upper_bound_su(two_levels(), 102) == 6 * (1 - Fraction(102, 104))
    cfg = SystemConfig.single_user(3, [(6, 3)])
    assert rate_upper_bound_su(cfg, 6) == 0
    # N_J/M branch needs several merged-class levels summing past 6M
    cfg2 = SystemConfig.single_user(4, [(2, 2), (2, 1), (1, 1)])
    refined = refine_partition_su(cfg2, Fraction(2, 5))
    assert refined.J == frozenset({0, 1, 2})
    assert rate_upper_bound_su(cfg2, Fraction(2, 5)) == Fraction(25, 2)


def test_upper_bound_dominates_rate_without_anomalies():
    rng = random.Random(9)
    checked = 0
    for _ in range(30):
        cfg = random_single_user_config(rng)
        total = cfg.total_files
        for k in range(1, 8):
            M = Fraction(total) * k / 7
            refined = refine_partition_su(cfg, M)
            if refined.anomalies:
                continue
            checked += 1
            assert rate_clustering(cfg, M).achievable <= rate_upper_bound_su(cfg, M)
    assert checked > 20


def test_cluster_run_examples():
    cfg = SystemConfig.single_user(2, [(4, 2)])
    run = cluster_place_deliver(cfg, 2, [0, 0], [0, 1])
    assert run.total_size <= 1  # max{4/2 - 1, 0}

    run0 = cluster_place_deliver(cfg, 0, [0, 0], [0, 1])
    assert run0.total_size == 2 and len(run0.uncoded) == 2

    run_full = cluster_place_deliver(cfg, 4, [0, 0], [3, 2])
    assert run_full.total_size == 0


def test_cluster_run_rejects_bad_input():
    cfg = SystemConfig.single_user(2, [(4, 2)])
    with pytest.raises(ValueError):
        cluster_place_deliver(cfg, 1, [0], [0, 0])
    with pytest.raises(ValueError):
        cluster_place_deliver(cfg, 1, [0, 1], [0, 0])
    with pytest.raises(ValueError):
        cluster_place_deliver(cfg, 1, [0, 0], [0, 9])


def _assignments(config):
    levels = []
    for idx, lv in enumerate(config.levels):
        levels.extend([idx] * lv.users)
    return sorted(set(itertools.permutations(levels)))


def test_cluster_exhaustive_small_instance():
    cfg = SystemConfig.single_user(3, [(2, 2), (3, 1)])
    total = cfg.total_files
    for M in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(total)):
        bound = rate_clustering(cfg, M).achievable
        for assignment in _assignments(cfg):
            file_ranges = [range(cfg.levels[lvl].files) for lvl in assignment]
            for demand_vec in itertools.product(*file_ranges):
                run = cluster_place_deliver(cfg, M, list(assignment), list(demand_vec))
                assert run.total_size <= bound


def test_cluster_size_is_assignment_relabeling_invariant():
    cfg = SystemConfig.single_user(4, [(3, 2), (4, 2)])
    M = Fraction(3, 2)
    sizes = set()
    for assignment in _assignments(cfg):
        demands = [0] * 4
        run = cluster_place_deliver(cfg, M, list(assignment), demands)
        sizes.add(run.total_size)
    assert len(sizes) == 1


def test_decentralized_run_decodes():
    cfg = SystemConfig.single_user(3, [(2, 2), (3, 1)])
    run = cluster_place_deliver_decentralized(cfg, 1, [0, 0, 1], [0, 1, 2],
                                              seed=11, segments=24)
    assert run.decodable
    run_same = cluster_place_deliver_decentralized(cfg, 1, [0, 0, 1], [0, 1, 2],
                                                   seed=11, segments=24)
    assert run.message_sizes == run_same.message_sizes  # seeded determinism


def test_decentralized_run_serves_sixteen_active_caches():
    # No cap on the active caches: the delivery costs O(K^2 * segments).
    cfg = SystemConfig.single_user(16, [(16, 16)])
    run = cluster_place_deliver_decentralized(cfg, 1, [0] * 16, list(range(16)), seed=0)
    assert run.decodable
    assert run.uncoded == () and run.message_sizes
    assert 0 < run.total_size <= 16


def _random_decentralized_instance(rng, K):
    L = rng.randint(1, min(3, K))
    cuts = sorted(rng.sample(range(1, K), L - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [K])]
    cfg = SystemConfig.single_user(K, [(k * rng.randint(1, 3), k) for k in parts])
    assignment = [lvl for lvl, lv in enumerate(cfg.levels) for _ in range(lv.users)]
    rng.shuffle(assignment)
    demands = [rng.randrange(cfg.levels[lvl].files) for lvl in assignment]
    return cfg, assignment, demands


def test_decentralized_run_matches_team_enumeration():
    rng = random.Random(20261018)
    kinds = set()
    for i in range(126):
        K = 2 + i % 7
        segments = (6, 13, 24, 60)[i % 4]
        cfg, assignment, demands = _random_decentralized_instance(rng, K)
        total = cfg.total_files
        M = (Fraction(0), Fraction(total), Fraction(rng.randint(1, 4 * total), 4))[min(i % 5, 2)]
        seed = rng.randrange(1 << 20)
        run = cluster_place_deliver_decentralized(cfg, M, assignment, demands, seed, segments)
        assert run == team_enumeration_decentralized(cfg, M, assignment, demands, seed,
                                                     segments)
        assert run.decodable
        kinds.add("coded" if run.message_sizes else "uncoded only")
    assert kinds == {"coded", "uncoded only"}
