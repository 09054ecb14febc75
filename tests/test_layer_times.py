import gc
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))

import layer_times  # noqa: E402


def test_layer_times_reports_each_layer_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    best = layer_times.layer_times(2, Fraction(1), 2)
    assert list(best) == list(layer_times.COLUMNS)
    assert min(best.values()) >= 0
    assert best["sum"] >= max(best["place"], best["deliver"], best["verify_decode"])
    assert gc.isenabled()
    assert not list(tmp_path.iterdir()) and not capsys.readouterr().out
