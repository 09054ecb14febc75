import gc
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import layer_times  # noqa: E402
from cachelab.bounds import MAX_BOUND_CACHES  # noqa: E402
from cachelab.model import LevelSpec, Setup, SystemConfig, validate_multi_user  # noqa: E402


def test_layer_times_reports_each_layer_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for demands in layer_times.DEMANDS.values():
        best = layer_times.layer_times(2, Fraction(1), demands(2, 2), 2)
        assert list(best) == list(layer_times.COLUMNS)
        assert min(best.values()) >= 0
        assert best["sum"] >= max(best["place"], best["deliver"], best["verify_decode"])
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out


def test_decode_rows_time_worst_case_and_repeated_demands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert list(layer_times.DEMANDS) == ["worst-case", "repeated"]
    for K in layer_times.CACHES:
        worst = layer_times.DEMANDS["worst-case"](K, K)
        repeated = layer_times.DEMANDS["repeated"](K, K)
        # One user per cache; distinct files against a seeded vector with repeats.
        assert [c for c, _ in worst] == [c for c, _ in repeated] == list(range(K))
        assert len({f for _, f in worst}) == K
        assert 1 < len({f for _, f in repeated}) < K
        assert all(0 <= f < K for _, f in repeated)
        assert layer_times.repeated_demands(K, K) == repeated
    assert layer_times.repeated_demands(3, 1) == [(0, 0), (1, 0), (2, 0)]
    # main prints one row per K and demand vector, timed on that vector.
    timed = []

    def recorded(K, M, demands, repeat):
        timed.append((K, M, demands, repeat))
        return dict.fromkeys(layer_times.COLUMNS, 0.0005)

    monkeypatch.setattr(layer_times, "layer_times", recorded)
    monkeypatch.setattr(layer_times, "envelope_time", lambda K, levels, repeat: 0.0)
    monkeypatch.setattr(layer_times, "envelope_lines", lambda K, levels: 0)
    monkeypatch.setattr(layer_times, "first_query_time", lambda K, levels, repeat: 0.0)
    monkeypatch.setattr(layer_times, "mixed_time", lambda gamma, repeat: 0.0)
    monkeypatch.setattr(layer_times, "audit_point_times",
                        lambda K, levels, repeat: dict.fromkeys(layer_times.AUDIT_COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "radical_rate_time", lambda repeat: 0.0)
    layer_times.main()
    assert timed == [(K, layer_times.MEMORY, demands(K, K), layer_times.REPEAT)
                     for K in layer_times.CACHES for demands in layer_times.DEMANDS.values()]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"best of {layer_times.REPEAT}, M = 2, times in ms"
    assert out[1].split() == ["K", "=", "N", "demands", *layer_times.COLUMNS]
    assert out[2:2 + len(timed)] == [f"{K:>5}{kind:>12}" + f"{0.5:>15.3f}" * 4
                                     for K in layer_times.CACHES
                                     for kind in layer_times.DEMANDS]
    assert not list(tmp_path.iterdir())


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
                        lambda K, M, demands, repeat: dict.fromkeys(layer_times.COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "envelope_time", lambda K, levels, repeat: 0.00125)
    monkeypatch.setattr(layer_times, "first_query_time", lambda K, levels, repeat: 0.0)
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


def test_first_query_rows_time_a_fresh_config_and_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # The three configs that the MAX_BOUND_CACHES comment quotes.
    assert [(K, len(levels)) for K, levels in layer_times.FIRST_QUERY.values()] == \
        [(MAX_BOUND_CACHES, 1), (MAX_BOUND_CACHES, 4), (MAX_BOUND_CACHES, 4)]
    assert validate_multi_user(SystemConfig.multi_user(*layer_times.FIRST_QUERY[
        "K = 4096, regular"])).ok
    calls = []

    def recorded(config, M):
        calls.append((config, M))
        return Fraction(0), None

    # The query is stubbed: a real one builds a K = 4096 envelope.
    monkeypatch.setattr(layer_times, "optimize_lower_bound_mu", recorded)
    for K, levels in layer_times.FIRST_QUERY.values():
        calls.clear()
        assert layer_times.first_query_time(K, levels, 3) >= 0
        # A fresh config per repetition, queried once, whose fact store is empty.
        assert len({id(config) for config, _ in calls}) == len(calls) == 3
        assert all(config == SystemConfig.multi_user(K, levels) and not config._facts
                   and M == layer_times.FIRST_QUERY_MEMORY for config, M in calls)
    monkeypatch.setattr(layer_times, "layer_times",
                        lambda K, M, demands, repeat: dict.fromkeys(layer_times.COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "envelope_time", lambda K, levels, repeat: 0.0)
    monkeypatch.setattr(layer_times, "envelope_lines", lambda K, levels: 0)
    monkeypatch.setattr(layer_times, "first_query_time", lambda K, levels, repeat: 0.02575)
    monkeypatch.setattr(layer_times, "mixed_time", lambda gamma, repeat: 0.0)
    monkeypatch.setattr(layer_times, "audit_point_times",
                        lambda K, levels, repeat: dict.fromkeys(layer_times.AUDIT_COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "radical_rate_time", lambda repeat: 0.0)
    layer_times.main()
    out = capsys.readouterr().out.splitlines()
    head = out.index(f"first bound query at M = 1 on a fresh config, "
                     f"best of {layer_times.FIRST_QUERY_REPEAT}, times in ms")
    assert out[head + 1:head + 1 + len(layer_times.FIRST_QUERY)] == \
        [f"{name:>20}{25.75:>15.3f}" for name in layer_times.FIRST_QUERY]
    assert gc.isenabled()
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
    assert list(layer_times.AUDIT_CONFIGS.values()) == \
        [(128, [(256, 2)]), (128, [(256, 2), (2457600, 3), (20971520000, 4),
                                   (134217728000000, 4)]),
         (16, [(32, 2), (307200, 3), (655360000, 1), (16777216000000, 4)])]
    # The K = 128 rows are envelope rows, whose adjacent levels overlap; on
    # K = 16 every adjacent pair is separated, x_{l+1} >= (K+1)*x_l.
    for name in list(layer_times.AUDIT_CONFIGS)[:2]:
        assert layer_times.AUDIT_CONFIGS[name] == layer_times.ENVELOPES[name]
    for K, levels in list(layer_times.AUDIT_CONFIGS.values())[1:]:
        separated = [(K + 1) ** 2 * n * v <= m * u
                     for (n, u), (m, v) in zip(levels, levels[1:])]
        assert separated == [K == 16] * 3
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
    for K, levels in layer_times.AUDIT_CONFIGS.values():
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
    # main prints one row per audit config, timed on that config; the other
    # sections are stubbed out.
    timed = []

    def stub(K, levels, repeat):
        timed.append((K, levels, repeat))
        return dict.fromkeys(layer_times.AUDIT_COLUMNS, 0.0000125)

    monkeypatch.setattr(layer_times, "layer_times",
                        lambda K, M, demands, repeat: dict.fromkeys(layer_times.COLUMNS, 0.0))
    monkeypatch.setattr(layer_times, "envelope_time", lambda K, levels, repeat: 0.0)
    monkeypatch.setattr(layer_times, "envelope_lines", lambda K, levels: 0)
    monkeypatch.setattr(layer_times, "first_query_time", lambda K, levels, repeat: 0.0)
    monkeypatch.setattr(layer_times, "mixed_time", lambda gamma, repeat: 0.0)
    monkeypatch.setattr(layer_times, "audit_point_times", stub)
    monkeypatch.setattr(layer_times, "radical_rate_time", lambda repeat: 0.0)
    layer_times.main()
    assert timed == [(K, levels, layer_times.AUDIT_REPEAT)
                     for K, levels in layer_times.AUDIT_CONFIGS.values()]
    out = capsys.readouterr().out.splitlines()
    head = out.index(f"warm audit point, best of {layer_times.AUDIT_REPEAT} passes over the "
                     f"20 audit memories, times in us per memory")
    assert out[head + 1].split() == list(layer_times.AUDIT_COLUMNS)
    assert out[head + 2:head + 2 + len(timed)] == \
        [f"{name:>20}" + f"{12.5:>15.2f}" * 4 for name in layer_times.AUDIT_CONFIGS]
    assert not list(tmp_path.iterdir())


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
