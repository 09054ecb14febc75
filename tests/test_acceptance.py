"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are exact unless a criterion states a
percentage explicitly.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

from cachelab.bounds import gap_report, lower_bound_single_user
from cachelab.experiments import (audit, dichotomy_multi_user,
                                  dichotomy_single_user,
                                  random_multi_user_config)
from cachelab.model import Setup, SystemConfig
from cachelab.multi_user import (find_m_feasible_partition, level_rate_bounds,
                                 rate_memory_sharing)
from cachelab.radicals import exact_sign
from cachelab.single_level import (deliver, place, rate_single_level,
                                   scheme_rate, verify_decode)
from cachelab.single_user import cluster_place_deliver, rate_clustering
from oracles import enumerate_feasible_partitions, partition_key

SEED = 20260809
# sha256 of each audit summary's to_json_dict() as json.dumps prints it:
# the verdicts of the 4,000 and 4,400 audit points of criteria 1 and 2 and
# each constant's largest ratio with its config and memory.  A change that
# regenerates printed output on purpose updates these with it.
AUDIT_DIGESTS = {
    Setup.MULTI_USER: "39e6e91f8f180dbf24ae40ce5bb005e4095ec08f766e7a11e7d458f8a4159822",
    Setup.SINGLE_USER: "7317e43e9dfab2649d602fd26d4e22d032b098ebcf580d7de1b1c20c2812da62",
}


def _report(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS — {detail}")


def _digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary.to_json_dict()).encode()).hexdigest()


def test_criterion_1_multi_user_gap_constant():
    start = time.time()
    summary = audit(Setup.MULTI_USER, 200, seed=SEED, grid_points=20)
    assert not summary.inversions, summary.inversions[:1]
    assert not summary.gap_violations, summary.gap_violations[:1]
    assert _digest(summary) == AUDIT_DIGESTS[Setup.MULTI_USER]
    worst = max((v[0] for v in summary.max_ratio.values()), default=0.0)
    assert worst <= 192
    _report(1, f"200 instances x 20 memories: max gap {worst:.3f} <= 192, "
               f"0 inversions ({time.time() - start:.1f}s)")


def test_criterion_2_single_user_gap_constants():
    start = time.time()
    summary = audit(Setup.SINGLE_USER, 200, seed=SEED, grid_points=20)
    assert not summary.inversions, summary.inversions[:1]
    assert not summary.gap_violations, summary.gap_violations[:1]
    assert _digest(summary) == AUDIT_DIGESTS[Setup.SINGLE_USER]
    big = summary.max_ratio.get("72", (0.0,))[0]
    small = summary.max_ratio.get("6/5", (0.0,))[0]
    assert big <= 72 and small <= 1.2
    _report(2, f"200 instances: max gap {big:.3f} <= 72 (M >= 1/6), "
               f"{small:.4f} <= 6/5 (M < 1/6), 0 inversions "
               f"({time.time() - start:.1f}s)")


def _memory_grid(K: int, N: int) -> list[Fraction]:
    grid = {Fraction(t * N, K) for t in range(K + 1)}
    grid.update(Fraction((2 * t + 1) * N, 2 * K) for t in range(K))
    return sorted(grid)


def test_criterion_3_exhaustive_decodability():
    start = time.time()
    runs = 0
    for K in (1, 2, 3, 4):
        for N in (1, 2, 3, 4, 5):
            for M in _memory_grid(K, N):
                placement = place(K, N, M)
                cap = scheme_rate(M, K, N)
                for demand_vec in itertools.product(range(N), repeat=K):
                    demands = list(enumerate(demand_vec))
                    transcript = deliver(placement, demands)
                    assert verify_decode(placement, transcript, demands)
                    assert transcript.total_size <= cap
                    runs += 1
    su_runs = 0
    for spec in ([(2, 2), (3, 2)], [(3, 1), (4, 3)], [(2, 1), (2, 1), (5, 2)]):
        config = SystemConfig.single_user(sum(k for _, k in spec), spec)
        total = config.total_files
        grid = sorted({Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2),
                       Fraction(total, 2), Fraction(total)})
        base = []
        for idx, lv in enumerate(config.levels):
            base.extend([idx] * lv.users)
        assignments = sorted(set(itertools.permutations(base)))
        for M in grid:
            cap = rate_clustering(config, M).achievable
            for assignment in assignments:
                ranges = [range(config.levels[lvl].files) for lvl in assignment]
                for demand_vec in itertools.product(*ranges):
                    run = cluster_place_deliver(config, M, list(assignment),
                                                list(demand_vec))
                    assert run.total_size <= cap
                    su_runs += 1
    _report(3, f"{runs} single-level and {su_runs} clustered runs all decode, "
               f"sizes within analytic rates ({time.time() - start:.1f}s)")


def test_criterion_4_single_level_envelope():
    start = time.time()
    points = 0
    for K in range(1, 17):
        for N in range(1, 33):
            for k in range(33):
                M = Fraction(N) * k / 32
                lhs = scheme_rate(M, K, N)
                for U in (1, 3):
                    assert lhs * U <= rate_single_level(M, K, N, U)
                points += 1
    _report(4, f"scheme rate below the analytic envelope at {points} grid "
               f"points, exact comparison ({time.time() - start:.1f}s)")


def test_criterion_5_dichotomy_multi_user():
    start = time.time()
    ratios = {r: dichotomy_multi_user(r).ratio for r in range(2, 9)}
    for r in range(4, 8):
        quotient = float(ratios[r + 1]) / float(ratios[r])
        assert abs(quotient - 8) <= 0.05 * 8, (r, quotient)
    for r in (2, 3, 4):
        d = dichotomy_multi_user(r)
        assert float(d.exact_ratio) >= 2 ** (3 * r) / 8
    _report(5, "successive closed-form ratios within 5% of 8 (r=4..8); "
               f"engine ratio >= 8^r/8 at r=2,3,4 ({time.time() - start:.1f}s)")


def test_criterion_6_dichotomy_single_user():
    start = time.time()
    for L in range(2, 11):
        d = dichotomy_single_user(L)  # default memory L*files/4
        assert d.ratio == L
        assert 2 * d.exact_ratio >= L if not hasattr(d.exact_ratio, "sign") \
            else exact_sign(2 * d.exact_ratio - L) >= 0
    _report(6, "closed-form ratio exactly L for L=2..10; engine ratio >= L/2 "
               f"at M = L*N/4 ({time.time() - start:.1f}s)")


def test_criterion_7_partition_oracle_equivalence():
    start = time.time()
    rng = random.Random(SEED)
    instances = 0
    while instances < 100:
        config = random_multi_user_config(rng, max_levels=5)
        total = config.total_files
        instances += 1
        for M in (Fraction(0), Fraction(total, 3), Fraction(9 * total, 10)):
            chosen = find_m_feasible_partition(config, M)
            oracle = enumerate_feasible_partitions(config, M)
            assert partition_key(chosen) in oracle, (config, M)
            allocation = rate_memory_sharing(config, M).allocation
            acc = Fraction(0)
            for lv, amount in zip(config.levels, allocation.amounts):
                assert exact_sign(amount) >= 0
                assert exact_sign(amount - lv.files) <= 0
                acc = acc + amount
            assert exact_sign(acc - M) == 0
    _report(7, f"{instances} instances x 3 memories: scan output inside the "
               f"3^L oracle set; allocation sums exact ({time.time() - start:.1f}s)")


def test_criterion_8_per_level_rate_caps():
    start = time.time()
    rng = random.Random(SEED + 8)
    checked = 0
    for _ in range(40):
        config = random_multi_user_config(rng, max_levels=4)
        total = config.total_files
        for k in (0, 1, 3, 7, 9, 10):
            M = Fraction(total) * k / 10
            amounts = rate_memory_sharing(config, M).allocation.amounts
            caps = level_rate_bounds(config, M)
            for lv, amount, cap in zip(config.levels, amounts, caps):
                achieved = rate_single_level(amount, config.caches, lv.files, lv.users)
                assert exact_sign(cap - achieved) >= 0, (config, M)
                checked += 1
    _report(8, f"{checked} (level, memory) pairs: achieved rate within the "
               f"per-level cap, certified comparisons ({time.time() - start:.1f}s)")


def test_criterion_9_small_memory_single_user_value():
    start = time.time()
    config = SystemConfig.single_user(5, [(4, 4), (100, 1)])
    M = Fraction(1, 10)
    lower, params = lower_bound_single_user(config, M)
    assert lower == Fraction(9, 2)
    assert params.b == 1
    achievable = rate_clustering(config, M).achievable
    gap = gap_report(Setup.SINGLE_USER, achievable, lower, M, config)
    assert gap.ratio == Fraction(10, 9)
    assert gap.within and gap.constant == Fraction(6, 5)
    _report(9, "pinned instance at M=1/10: lower bound exactly 9/2, gap "
               f"exactly 10/9 <= 6/5 ({time.time() - start:.1f}s)")
