import gc
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import layer_times  # noqa: E402
from cachelab.model import LevelSpec, Setup, SystemConfig, validate_multi_user  # noqa: E402


def test_layer_times_reports_each_layer_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    best = layer_times.layer_times(2, Fraction(1), 2)
    assert list(best) == list(layer_times.COLUMNS)
    assert min(best.values()) >= 0
    assert best["sum"] >= max(best["place"], best["deliver"], best["verify_decode"])
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


def test_envelope_rows_time_a_fresh_build_and_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    shapes = [(K, len(levels)) for K, levels in layer_times.ENVELOPES.values()]
    assert shapes == [(128, 1), (128, 4), (8, 4)]
    for K, levels in list(layer_times.ENVELOPES.values())[:2]:
        assert validate_multi_user(SystemConfig.multi_user(K, levels)).ok
    built = []
    build = layer_times._bound_lines

    def recorded(config):
        built.append(config)
        return build(config)

    monkeypatch.setattr(layer_times, "_bound_lines", recorded)
    for K, levels in layer_times.ENVELOPES.values():
        built.clear()
        assert layer_times.envelope_time(K, levels, 3) >= 0
        # A fresh config per repetition, whose fact store the build never fills.
        assert len({id(config) for config in built}) == len(built) == 3
        assert not any(config._facts for config in built)
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


def test_envelope_rows_print_each_envelope_line_count(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    built = []
    build = layer_times._bound_lines

    def recorded(config):
        built.append(config)
        return build(config)

    monkeypatch.setattr(layer_times, "_bound_lines", recorded)
    counts = {}
    for name, (K, levels) in layer_times.ENVELOPES.items():
        built.clear()
        counts[name] = layer_times.envelope_lines(K, levels)
        # One build, on a fresh config, whose envelope has that many lines.
        assert len(built) == 1 and not built[0]._facts
        assert counts[name] == len(build(SystemConfig.multi_user(K, levels))[0]) > 0
    # main prints the count beside the build time, under a "lines" column;
    # the other sections are stubbed out.
    monkeypatch.setattr(layer_times, "layer_times",
                        lambda K, M, repeat: dict.fromkeys(layer_times.COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "envelope_time", lambda K, levels, repeat: 0.00125)
    monkeypatch.setattr(layer_times, "mixed_time", lambda gamma, repeat: 0.0)
    monkeypatch.setattr(layer_times, "audit_point_times",
                        lambda K, levels, repeat: dict.fromkeys(layer_times.AUDIT_COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "radical_rate_time", lambda repeat: 0.0)
    layer_times.main()
    out = capsys.readouterr().out.splitlines()
    head = out.index(f"bound envelope build, best of {layer_times.ENVELOPE_REPEAT}, times in ms")
    assert out[head + 1].split() == ["build", "lines"]
    assert out[head + 2:head + 2 + len(counts)] == \
        [f"{name:>20}{1.25:>15.3f}{count:>15}" for name, count in counts.items()]
    assert not list(tmp_path.iterdir())


def test_mixed_rows_time_a_fresh_demo_config_and_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert layer_times.MIXED_MEMORY == 6
    assert list(layer_times.MIXED_GAMMAS.values()) == [None, Fraction(1, 2)]
    calls = []
    scan = layer_times.mixed_rate

    def recorded(config, M, gamma):
        report = scan(config, M, gamma)
        calls.append((config, report))
        return report

    monkeypatch.setattr(layer_times, "mixed_rate", recorded)
    for gamma in layer_times.MIXED_GAMMAS.values():
        calls.clear()
        assert layer_times.mixed_time(gamma, 3) >= 0
        # A fresh copy of demo 06's config per repetition, each scanned once.
        configs = [config for config, _ in calls]
        assert len({id(config) for config in configs}) == len(configs) == 3
        assert all(config == SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),),
                                          (LevelSpec(12, 3), LevelSpec(50, 1)))
                   for config in configs)
        assert all(report.extras["gamma"] == (gamma if gamma is not None
                                              else report.extras["best_gamma"])
                   for _, report in calls)
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


def test_audit_point_rows_time_a_warm_config_and_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert [layer_times.ENVELOPES[name] for name in layer_times.AUDIT_CONFIGS] == \
        [(128, [(256, 2)]), (128, [(256, 2), (2457600, 3), (20971520000, 4),
                                   (134217728000000, 4)])]
    assert layer_times.AUDIT_COLUMNS == ("rate", "bound", "gap", "point")
    calls = []

    def recorded(name):
        fn = getattr(layer_times, name)

        def call(*args):
            calls.append((name, args))
            return fn(*args)
        monkeypatch.setattr(layer_times, name, call)

    for name in ("rate_memory_sharing", "optimize_lower_bound_mu", "gap_report"):
        recorded(name)
    for name in layer_times.AUDIT_CONFIGS:
        K, levels = layer_times.ENVELOPES[name]
        calls.clear()
        best = layer_times.audit_point_times(K, levels, 2)
        assert list(best) == list(layer_times.AUDIT_COLUMNS)
        assert min(best.values()) >= 0
        assert best["point"] >= max(best["rate"], best["bound"], best["gap"])
        # One config, regular, at its 20 audit memories: an untimed pass
        # that builds its facts, then two timed passes of rate, bound, gap.
        config = calls[0][1][0]
        assert validate_multi_user(config).ok and config.caches == K
        grid = layer_times.audit_grid(config)
        assert len(grid) == 20
        # (M, config) of each call; gap_report takes (setup, achievable, lower, M, config).
        points = [(name, args[3:] if name == "gap_report" else (args[1], args[0]))
                  for name, args in calls]
        assert [(name, M) for name, (M, _) in points] == \
            [(name, M) for M in grid for name in ("rate_memory_sharing",
                                                  "optimize_lower_bound_mu", "gap_report")] * 3
        assert all(cfg is config for _, (_, cfg) in points)
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


def test_radical_row_times_a_fresh_six_level_rate_and_writes_nothing(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    calls = []
    rate = layer_times.rate_memory_sharing

    def recorded(config, M):
        report = rate(config, M)
        calls.append((config, M, report))
        return report

    monkeypatch.setattr(layer_times, "rate_memory_sharing", recorded)
    assert layer_times.radical_rate_time(3) >= 0
    # A fresh config per repetition, each rated once at M = 196.
    assert len({id(config) for config, _, _ in calls}) == len(calls) == 3
    for config, M, report in calls:
        assert (config.caches, M) == (8, 196)
        assert [(lv.files, lv.users) for lv in config.levels] == layer_times.RADICAL_LEVELS
        # Every level is partial, and the three most popular get more than N/K.
        assert sorted(report.partition.I) == list(range(6))
        above = [a > Fraction(lv.files, 8)
                 for a, lv in zip(report.allocation.amounts, config.levels)]
        assert above == [True] * 3 + [False] * 3
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out
