import gc
import json
import random
import weakref
from fractions import Fraction

import pytest

from cachelab import cli, experiments, multi_user, single_user
from cachelab.experiments import (GAMMA_GRID, AuditSummary, SweepRow, audit, audit_grid,
                                  dichotomy_multi_user, dichotomy_single_user, evaluate,
                                  linear_grid, mixed_rate, random_multi_user_config,
                                  random_single_user_config, sweep, write_plot_data,
                                  write_sweep_csv, write_sweep_json)
from cachelab.model import (LevelSpec, Setup, SystemConfig, config_from_dict, mixed_classes,
                            validate, validate_multi_user, validate_single_user)
from cachelab.multi_user import rate_memory_sharing
from cachelab.radicals import exact_sign
from cachelab.single_user import rate_clustering
from oracles import fraction_rate_clustering


def test_default_grid():
    cfg = SystemConfig.multi_user(4, [(8, 2)])
    grid = linear_grid(0, cfg.total_files, 33)
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
    rep = mixed_rate(cfg, 6)
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


def test_plot_data_renders_only_its_columns(tmp_path):
    # The ratio is past the float range; the plot file never renders it.
    row = SweepRow(Fraction(1), Fraction(1), Fraction(1, 10 ** 400), Fraction(10 ** 400),
                   (), (0,), ())
    p = tmp_path / "a.dat"
    write_plot_data([row], str(p))
    assert p.read_text() == "# M rate_achievable rate_lower\n1 1 0\n"


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


def _planted_audit(monkeypatch, plant):
    bound = experiments.optimize_lower_bound_mu
    monkeypatch.setattr(experiments, "optimize_lower_bound_mu",
                        lambda config, M: plant(*bound(config, M)))
    return audit(Setup.MULTI_USER, 2, seed=1, grid_points=5)


def test_audit_records_a_planted_inversion(monkeypatch):
    summary = _planted_audit(monkeypatch, lambda lower, params: (1000 * lower, params))
    assert summary.inversions and not summary.ok
    for record in summary.inversions:
        assert set(record) == {"config", "M", "achievable", "lower"}
        assert Fraction(record["lower"]) > Fraction(record["achievable"])


def test_audit_records_a_planted_gap_violation(monkeypatch):
    summary = _planted_audit(monkeypatch, lambda lower, params: (lower / 1000, params))
    assert summary.gap_violations and not summary.inversions and not summary.ok
    for record in summary.gap_violations:
        assert set(record) == {"config", "M", "ratio", "constant"}
        assert record["ratio"] > 192 and record["constant"] == "192"


def test_audit_tallies_a_planted_zero_bound(monkeypatch, capsys):
    # A zero bound under a positive rate says nothing about the ratio: it is
    # tallied, and an audit that checked no gap at all fails, as does the CLI.
    summary = _planted_audit(monkeypatch, lambda lower, params: (Fraction(0), None))
    assert 0 < summary.uninformative_points < summary.points
    assert not summary.inversions and not summary.gap_violations and not summary.ok
    assert not summary.max_ratio and summary.to_json_dict()["ok"] is False
    assert cli.main(["audit", "--setup", "mu", "--count", "2", "--seed", "1",
                     "--grid-points", "5"]) == 5
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_mixed_rate_validates_each_class_once(count_calls):
    # 101 gammas, each a memory-sharing and a clustering rate on the classes.
    cfg = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),), (LevelSpec(9, 3),))
    mu_calls = count_calls(validate_multi_user)
    su_calls = count_calls(validate_single_user)
    mixed_rate(cfg, 3)
    mu, su = cfg.fact(mixed_classes)
    assert len(mu_calls) == len(su_calls) == 1
    assert mu_calls[0] is mu and su_calls[0] is su


def test_mixed_rate_fills_one_mask_per_uncoded_set_and_few_blocks():
    # One 101-point scan fills a clustering mask per uncoded set it meets, at
    # most L+1 since the set only shrinks as M grows, and a block per split
    # it meets, at most L*(L+1)/2 of them (one per run of levels I).
    filled = []
    for M in (Fraction(7, 2), Fraction(30), Fraction(100), Fraction(1200)):
        cfg = SystemConfig(Setup.MIXED, 6, (LevelSpec(8, 2), LevelSpec(900, 1), LevelSpec(30, 3)),
                           (LevelSpec(12, 3), LevelSpec(50, 1), LevelSpec(7, 4), LevelSpec(90, 2)))
        mixed_rate(cfg, M)
        mu, su = cfg.fact(mixed_classes)
        masks = su.fact(single_user._Clusterings)._masks
        last = GAMMA_GRID - 1
        uncoded = {fraction_rate_clustering(su, M * Fraction(last - k, last))[0]
                   for k in range(GAMMA_GRID)}
        assert len(masks) == len(uncoded) <= len(su.levels) + 1
        assert {masks[c][0].Hprime for c in masks} == uncoded
        L = len(mu.levels)
        assert 1 <= len(mu.fact(multi_user._SplitPlan)._blocks) <= L * (L + 1) // 2
        filled.append(len(masks))
    assert max(filled) == len(su.levels) + 1 and min(filled) < max(filled)


def test_sweep_builds_each_class_fact_once(count_calls, monkeypatch):
    # The golden sweep_mixed_grid case: every grid point's gamma scan and
    # `validate` read one pair of class configs, each planned and validated once.
    cfg = config_from_dict({"setup": "mixed", "caches": 4,
                            "levels": [{"files": 8, "users": 2}],
                            "mixed_levels": [{"files": 6, "users": 2}]})
    mu_calls = count_calls(validate_multi_user)
    su_calls = count_calls(validate_single_user)
    plans = []
    build_plan = multi_user._SplitPlan.__init__

    def counted_plan(plan, config):
        plans.append(config)
        build_plan(plan, config)

    monkeypatch.setattr(multi_user._SplitPlan, "__init__", counted_plan)
    assert len(sweep(cfg, linear_grid(1, 3, 2))) == 2
    report = validate(cfg)
    mu, su = cfg.fact(mixed_classes)
    assert len(plans) == len(mu_calls) == len(su_calls) == 1
    assert plans[0] is mu and mu_calls[0] is mu and su_calls[0] is su
    assert report.violations == (mu.fact(validate_multi_user).violations
                                 + su.fact(validate_single_user).violations)


def test_warm_evaluate_never_hashes_the_config(monkeypatch):
    # Per-config facts are looked up on the config object, not by its value.
    cfg = SystemConfig.multi_user(4, [(8, 2), (25600, 1)])
    evaluate(cfg, 0)
    hashes = []
    config_hash = SystemConfig.__hash__

    def counted_hash(config):
        hashes.append(config)
        return config_hash(config)

    monkeypatch.setattr(SystemConfig, "__hash__", counted_hash)
    for M in range(1, 8):
        evaluate(cfg, M)
    assert hashes == []


def test_an_evaluated_config_is_freed_without_the_cycle_collector():
    # No fact refers to its config, so reference counting alone frees a
    # config and everything it keeps.  Each config here is built by no
    # other test.
    refs = []
    gc.disable()
    try:
        for cfg in (SystemConfig.multi_user(5, [(15, 1), (97000, 1)]),
                    SystemConfig.single_user(7, [(11, 3), (43, 4)]),
                    SystemConfig(Setup.MIXED, 5, (LevelSpec(15, 3),), (LevelSpec(13, 2),)),
                    SystemConfig(Setup.MIXED, 6, (LevelSpec(18, 1), LevelSpec(700, 2)),
                                 (LevelSpec(11, 2), LevelSpec(40, 1)))):
            evaluate(cfg, Fraction(7, 3))
            refs.append(weakref.ref(cfg))
        # The last config after a gamma scan: its class configs, which hold
        # its blocks and masks, are freed too.
        mixed_rate(cfg, 30, Fraction(1, 2))
        refs += [weakref.ref(part) for part in cfg.fact(mixed_classes)]
        del cfg
        assert [ref() for ref in refs] == [None] * 6
    finally:
        gc.enable()
