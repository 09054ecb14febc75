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
