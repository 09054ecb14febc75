import json
import random
from fractions import Fraction

import pytest

from cachelab.model import (ConfigSchemaError, LevelSpec, RegularityError, Setup,
                            SystemConfig, check_memory, config_from_dict,
                            config_to_dict, load_config, popularity, validate,
                            validate_multi_user, validate_single_user)


def mu(caches, levels):
    return SystemConfig.multi_user(caches, levels)


def su(caches, levels):
    return SystemConfig.single_user(caches, levels)


def test_level_spec_invariants():
    with pytest.raises(ValueError):
        LevelSpec(0, 1)
    with pytest.raises(ValueError):
        LevelSpec(1, 0)
    with pytest.raises(ValueError):
        SystemConfig(Setup.MULTI_USER, 0, (LevelSpec(1, 1),))
    with pytest.raises(ValueError):
        SystemConfig(Setup.MULTI_USER, 1, ())
    with pytest.raises(ValueError, match="mixed_levels requires the mixed setup"):
        SystemConfig(Setup.MULTI_USER, 2, (LevelSpec(4, 2),), mixed_levels=(LevelSpec(4, 1),))


def test_popularity():
    assert popularity(LevelSpec(8, 2)) == Fraction(1, 4)
    assert popularity(LevelSpec(25600, 1)) == Fraction(1, 25600)
    assert popularity(LevelSpec(4, 4)) == 1


def test_canonical_ordering():
    cfg = mu(2, [(25600, 1), (32, 16)])
    assert [lv.files for lv in cfg.levels] == [32, 25600]
    pops = [popularity(lv) for lv in cfg.levels]
    assert all(pops[i] >= pops[i + 1] for i in range(len(pops) - 1))


def test_canonical_order_sorts_n_over_u_and_keeps_ties_in_input_order():
    # The multi-user split scan indexes this order directly: N/U ascending,
    # levels with tied N/U in the order they were given.
    rng = random.Random(97)
    tied = 0
    for _ in range(200):
        levels = [(rng.randint(1, 30), rng.randint(1, 5)) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 2)):
            files, users = rng.choice(levels)
            scale = rng.randint(2, 4)
            levels.insert(rng.randint(0, len(levels)), (scale * files, scale * users))
        cfg = mu(rng.randint(1, 8), levels)
        want = sorted(levels, key=lambda lv: Fraction(*lv))  # a stable sort
        assert [(lv.files, lv.users) for lv in cfg.levels] == want
        ratios = [Fraction(*lv) for lv in levels]
        tied += len(set(ratios)) < len(ratios)
    assert tied >= 100


def test_validate_multi_user_examples():
    assert validate_multi_user(mu(4, [(8, 2)])).ok
    report = validate_multi_user(mu(4, [(7, 2)]))
    assert [v.rule for v in report.violations] == ["MU-FILES"]
    assert report.violations[0].levels == (0,)
    assert validate_multi_user(mu(2, [(32, 16), (25600, 1)])).ok


def test_validate_multi_user_popularity_pair():
    # ratio 2 sits strictly inside the forbidden band
    report = validate_multi_user(mu(1, [(4, 2), (4, 1)]))
    assert "MU-POP" in {v.rule for v in report.violations}
    # identical popularities cannot satisfy the separation either
    report = validate_multi_user(mu(1, [(4, 2), (8, 4)]))
    assert "MU-POP" in {v.rule for v in report.violations}


def test_validated_configs_have_separated_pairs():
    for cfg in (mu(2, [(32, 16), (25600, 1)]),
                mu(4, [(8, 2), (102400, 2), (655360000, 1)])):
        report = validate_multi_user(cfg)
        if not report.ok:
            continue
        sep = Fraction(6400)
        for i in range(len(cfg.levels)):
            for j in range(i + 1, len(cfg.levels)):
                pi, pj = popularity(cfg.levels[i]), popularity(cfg.levels[j])
                ratio = pi / pj
                assert ratio >= sep or ratio <= 1 / sep


def test_validate_single_user_examples():
    assert validate_single_user(su(4, [(4, 3), (100, 1)])).ok
    report = validate_single_user(su(4, [(2, 3), (100, 1)]))
    assert "SU-FILES" in {v.rule for v in report.violations}
    report = validate_single_user(su(5, [(4, 3), (100, 1)]))
    assert {v.rule for v in report.violations} == {"SU-COUNT"}


def test_validation_is_deterministic():
    cfg = mu(4, [(7, 2), (6, 3)])
    assert validate_multi_user(cfg) == validate_multi_user(cfg)


def test_wrong_setup_rejected():
    with pytest.raises(ValueError):
        validate_multi_user(su(2, [(4, 2)]))
    with pytest.raises(ValueError):
        validate_single_user(mu(2, [(4, 2)]))


def test_strict_mode_raises():
    report = validate_multi_user(mu(4, [(7, 2)]))
    with pytest.raises(RegularityError):
        report.raise_if_strict(True)
    assert report.raise_if_strict(False) is report


def test_check_memory():
    assert check_memory("3/2") == Fraction(3, 2)
    assert check_memory(0) == 0
    with pytest.raises(ValueError):
        check_memory(-1)


def test_config_json_roundtrip(tmp_path):
    cfg = SystemConfig(Setup.MIXED, 6, (LevelSpec(8, 2),), (LevelSpec(9, 3),))
    data = config_to_dict(cfg)
    assert config_from_dict(data) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert load_config(str(path)) == cfg


def test_config_schema_errors(tmp_path):
    with pytest.raises(ConfigSchemaError):
        config_from_dict({"setup": "nope", "caches": 1, "levels": []})
    with pytest.raises(ConfigSchemaError):
        config_from_dict({"setup": "multi-user", "caches": 1})
    with pytest.raises(ConfigSchemaError):
        config_from_dict({"setup": "multi-user", "caches": 1, "levels": [],
                          "mixed_levels": [{"files": 1, "users": 1}]})
    for not_an_object in (None, 5, [[1]], "setup"):
        with pytest.raises(ConfigSchemaError, match="must be a JSON object"):
            config_from_dict(not_an_object)
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigSchemaError):
        load_config(str(bad))


@pytest.mark.parametrize("change, message", [
    ({"levels": [{"files": 1.5, "users": 2}]}, "files must be an integer, got 1.5"),
    ({"caches": True}, "caches must be an integer, got True"),
    ({"levels": [{"files": "3", "users": 2}]}, "files must be an integer, got '3'"),
    ({"bogus": 1}, "unknown config key 'bogus'"),
    ({"levels": [{"files": 8, "users": 2, "user": 1}]}, "unknown level key 'user'"),
])
def test_config_rejects_non_integers_and_unknown_keys(change, message):
    data = {"setup": "multi-user", "caches": 4, "levels": [{"files": 8, "users": 2}]}
    with pytest.raises(ConfigSchemaError, match=message):
        config_from_dict({**data, **change})


def test_validate_dispatch_mixed():
    cfg = SystemConfig(Setup.MIXED, 4, (LevelSpec(8, 2),), (LevelSpec(9, 3),))
    assert validate(cfg).ok
    cfg_bad = SystemConfig(Setup.MIXED, 4, (LevelSpec(7, 2),), (LevelSpec(2, 3),))
    rules = {v.rule for v in validate(cfg_bad).violations}
    assert "MU-FILES" in rules and "SU-FILES" in rules
    # An empty class adds nothing; the row class is checked over its own users.
    no_replicated = SystemConfig(Setup.MIXED, 4, (), (LevelSpec(2, 3),))
    assert [(v.rule, v.levels, v.message) for v in validate(no_replicated).violations] == [
        ("SU-FILES", (0,), "level 0: files 2 < users 3")]
    no_row = SystemConfig(Setup.MIXED, 4, (LevelSpec(7, 2),), ())
    assert [(v.rule, v.levels, v.message) for v in validate(no_row).violations] == [
        ("MU-FILES", (0,), "level 0: files 7 < caches*users = 8")]
    # Five row users on three caches also break MX-ROW, listed last.
    both = SystemConfig(Setup.MIXED, 3, (LevelSpec(5, 2), LevelSpec(40, 1)),
                        (LevelSpec(2, 3), LevelSpec(1, 2)))
    assert [(v.rule, v.levels, v.message) for v in validate(both).violations] == [
        ("MU-FILES", (0,), "level 0: files 5 < caches*users = 6"),
        ("MU-POP", (0, 1), "levels 0,1: popularity ratio 16 < 6400 (pairwise check)"),
        ("SU-FILES", (0,), "level 0: files 1 < users 2"),
        ("SU-FILES", (1,), "level 1: files 2 < users 3"),
        ("MX-ROW", (), "single-row users 5 > caches 3")]


def test_validate_mixed_row_must_fit_on_the_caches():
    # MX-ROW: the single row holds at most one user per cache.  A row that
    # fills the caches exactly is regular, one more user is not, with or
    # without a replicated class.
    for levels in ((LevelSpec(8, 1),), ()):
        fits = SystemConfig(Setup.MIXED, 4, levels, (LevelSpec(10, 3), LevelSpec(7, 1)))
        assert validate(fits).ok
        over = SystemConfig(Setup.MIXED, 4, levels, (LevelSpec(10, 5),))
        assert [(v.rule, v.levels, v.message) for v in validate(over).violations] == [
            ("MX-ROW", (), "single-row users 5 > caches 4")]
