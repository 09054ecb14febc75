import json
import random
from fractions import Fraction

import pytest

from cachelab.experiments import (AuditSummary, audit, audit_grid, default_grid,
                                  dichotomy_multi_user, dichotomy_single_user,
                                  mixed_rate, random_multi_user_config,
                                  random_single_user_config, sweep,
                                  write_plot_data, write_sweep_csv,
                                  write_sweep_json)
from cachelab.model import (LevelSpec, Setup, SystemConfig, validate_multi_user,
                            validate_single_user)
from cachelab.multi_user import rate_memory_sharing
from cachelab.radicals import exact_sign
from cachelab.single_user import rate_clustering


def test_default_grid():
    cfg = SystemConfig.multi_user(4, [(8, 2)])
    grid = default_grid(cfg, 33)
    assert grid[0] == 0 and grid[-1] == 8 and len(grid) == 33
    assert grid == sorted(set(grid))


def test_dichotomy_multi_user_quotients_near_eight():
    ratios = [float(dichotomy_multi_user(r).ratio) for r in range(4, 9)]
    for lo, hi in zip(ratios[:-1], ratios[1:]):
        assert abs(hi / lo - 8) <= 0.05 * 8


def test_dichotomy_multi_user_exact_engines():
    for r in (2, 3, 4):
        d = dichotomy_multi_user(r)
        assert float(d.exact_ratio) >= 2 ** (3 * r) / 8
    d1 = dichotomy_multi_user(1)
    assert float(d1.ratio) > 1


def test_dichotomy_multi_user_ratio_formula():
    # closed-form ratio: (N1+N2)(U1+U2)/(sqrt(N1 U1)+sqrt(N2 U2))^2
    r = 3
    d = dichotomy_multi_user(r)
    n1, n2, u1, u2 = 2 ** (5 * r), 2 ** (8 * r), 2 ** (4 * r), 2 ** r
    expect = Fraction((n1 + n2) * (u1 + u2), 2 ** (9 * r + 2))
    assert d.ratio == expect


def test_dichotomy_single_user():
    for L in range(2, 11):
        d = dichotomy_single_user(L)
        assert d.ratio == L
        assert float(d.exact_ratio) >= L / 2
    with pytest.raises(ValueError):
        dichotomy_single_user(1)


def test_mixed_degenerate_cases():
    f_only = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),), ())
    rep = mixed_rate(f_only, 3, gamma=1)
    pure = rate_memory_sharing(SystemConfig.multi_user(4, [(8, 2)]), 3).achievable
    assert exact_sign(rep.achievable - pure) == 0

    g_only = SystemConfig(Setup.MIXED, 4, (), (LevelSpec(4, 2), LevelSpec(9, 2)))
    rep = mixed_rate(g_only, 3, gamma=0)
    pure = rate_clustering(SystemConfig.single_user(4, [(4, 2), (9, 2)]), 3).achievable
    assert exact_sign(rep.achievable - pure) == 0


def test_mixed_optimum_dominates_endpoints():
    cfg = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),), (LevelSpec(12, 3), LevelSpec(50, 1)))
    rep = mixed_rate(cfg, 6, gamma_grid=21)
    best = rep.extras["best_rate"]
    for endpoint in (Fraction(0), Fraction(1)):
        value = mixed_rate(cfg, 6, gamma=endpoint).achievable
        assert exact_sign(value - best) >= 0


def test_mixed_gamma_validation():
    cfg = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),), ())
    with pytest.raises(ValueError):
        mixed_rate(cfg, 1, gamma=2)
    with pytest.raises(ValueError):
        mixed_rate(SystemConfig.multi_user(4, [(8, 2)]), 1)


def test_sweep_golden_rows():
    cfg = SystemConfig.multi_user(4, [(8, 2)])
    rows = sweep(cfg, [0, 2, 8])
    assert [(r.M, r.achievable, r.lower) for r in rows] == [
        (0, 8, 4), (2, 6, 2), (8, 0, 0)]
    # achievable nonincreasing across rows
    for lo, hi in zip(rows[1:], rows[:-1]):
        assert exact_sign(hi.achievable - lo.achievable) >= 0


def test_sweep_single_user_partitions():
    cfg = SystemConfig.single_user(5, [(4, 4), (100, 1)])
    rows = sweep(cfg, [10])
    assert rows[0].partition_H == (1,) and rows[0].partition_I == (0,)
    assert rows[0].partition_J == ()


def test_sweep_csv_byte_stable(tmp_path):
    cfg = SystemConfig.multi_user(4, [(8, 2)])
    rows = sweep(cfg, [0, Fraction(1, 3), 2, 8])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, str(a))
    write_sweep_csv(sweep(cfg, [0, Fraction(1, 3), 2, 8]), str(b))
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "M,rate_achievable,rate_lower,gap_ratio,partition_H,partition_I,partition_J"

    j = tmp_path / "a.json"
    write_sweep_json(rows, str(j))
    data = json.loads(j.read_text())
    assert data[0]["rate_achievable"] == "8"
    p = tmp_path / "a.dat"
    write_plot_data(rows, str(p))
    assert p.read_text().startswith("# M rate_achievable rate_lower\n")


def test_generators_produce_valid_instances():
    rng = random.Random(2)
    for _ in range(25):
        cfg = random_multi_user_config(rng)
        assert validate_multi_user(cfg).ok
        cfg_su = random_single_user_config(rng)
        assert validate_single_user(cfg_su).ok


def test_audit_grid_single_user_has_small_points():
    cfg = SystemConfig.single_user(4, [(8, 4)])
    grid = audit_grid(cfg)
    assert Fraction(1, 12) in grid and Fraction(1, 7) in grid
    assert grid[0] == 0 and grid[-1] == 8


def test_audit_empty_and_small():
    empty = audit(Setup.MULTI_USER, 0, seed=1)
    assert empty.ok and empty.points == 0
    small = audit(Setup.SINGLE_USER, 5, seed=3, grid_points=8)
    assert small.ok
    assert small.points > 0
    assert all(v[0] <= 72 for v in small.max_ratio.values())
    data = small.to_json_dict()
    assert data["ok"] and data["setup"] == "single-user"


def test_audit_summary_keeps_the_exact_maximum():
    # 3/2 and 3/2 + 10^-30 round to the same float; the larger one must win.
    summary = AuditSummary(Setup.MULTI_USER, 1, seed=0)
    cfg = SystemConfig.multi_user(4, [(8, 2)])
    summary.record(Fraction(192), Fraction(3, 2), cfg, Fraction(1))
    summary.record(Fraction(192), Fraction(3, 2) + Fraction(1, 10**30), cfg, Fraction(2))
    summary.record(Fraction(192), Fraction(3, 2), cfg, Fraction(3))
    ratio, _, M = summary.max_ratio["192"][:3]
    assert (ratio, M) == (1.5, "2")
    assert summary.to_json_dict()["max_ratio"]["192"]["ratio"] == 1.5
