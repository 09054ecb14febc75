"""Fuzz the input boundary: arbitrary JSON configs and argument vectors.

Every input, however malformed, must end in one of the exit codes that the
`cachelab.cli` docstring documents, never in a traceback.  Numbers stay
small so that every example runs in milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachelab import cli
from cachelab.model import ConfigSchemaError, SystemConfig, config_from_dict

EXIT_CODES = {0, cli.EXIT_SCHEMA, cli.EXIT_REGULARITY, cli.EXIT_UNWRITABLE, cli.EXIT_AUDIT}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(-5, 50)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=10)

small_ints = st.integers(-1, 12)
levels = st.lists(st.fixed_dictionaries(
    {"files": small_ints | json_values, "users": st.integers(-1, 4) | json_values},
    optional={"popularity": json_values}), max_size=4)
configs = st.fixed_dictionaries(
    {"setup": st.sampled_from(["multi-user", "single-user", "mixed", "Mixed"]) | json_values,
     "caches": st.integers(-1, 6) | json_values,
     "levels": levels | json_values},
    optional={"mixed_levels": levels | json_values, "beta": json_values}) | json_values

memories = (st.fractions(-1, 30, max_denominator=6).map(str)
            | st.sampled_from(["", "x", "1/0", "1e400", "-0", "nan", "3/2"]))
numbers = st.integers(-2, 3).map(str) | st.sampled_from(["", "two", "1.5"])
grids = (st.tuples(memories, memories, st.integers(-1, 4).map(str)).map(":".join)
         | st.sampled_from(["", "1:2", "a:b:c", "0:1:x"]))


def argvs(config_path, out_dir):
    out = st.sampled_from([os.path.join(out_dir, "rows.csv"),
                           os.path.join(out_dir, "missing", "rows.csv")])
    rate = st.tuples(st.just("rate"), st.just(config_path), st.just("--mem"), memories,
                     st.sampled_from([(), ("--strict",)]))
    sweep = st.tuples(st.just("sweep"), st.just(config_path), st.just("--out"), out,
                      st.sampled_from(["--grid", "--mems", "--points"]),
                      grids | st.lists(memories, max_size=3).map(",".join) | numbers)
    mixed = st.tuples(st.just("mixed"), st.just(config_path), st.just("--mem"), memories,
                      st.sampled_from([(), ("--gamma", "1/2"), ("--gamma", "3"),
                                       ("--gamma", "-1/4")]))
    dichotomy = (st.tuples(st.just("dichotomy"), st.just("mu"), st.just("--r"),
                           st.integers(-1, 2).map(str), st.just("--mem"), memories)
                 | st.tuples(st.just("dichotomy"), st.just("su"), st.just("--levels"),
                             st.integers(-1, 4).map(str), st.just("--files"),
                             st.integers(-1, 8).map(str)))
    audit = st.tuples(st.just("audit"), st.just("--setup"),
                      st.sampled_from(["mu", "su", "xx"]), st.just("--count"),
                      st.integers(-1, 1).map(str), st.just("--grid-points"),
                      st.integers(-1, 2).map(str))
    junk = st.lists(st.text(max_size=8) | st.sampled_from(["rate", "--mem", config_path]),
                    max_size=5)

    def flatten(parts):
        out = []
        for part in parts:
            out.extend(part if isinstance(part, (tuple, list)) else [part])
        return out

    return (rate | sweep | mixed | dichotomy | audit).map(flatten) | junk


@pytest.fixture(scope="module")
def work_dir():
    with tempfile.TemporaryDirectory() as path:
        yield path


@settings(max_examples=100, deadline=None)
@given(configs)
def test_config_from_dict_accepts_or_rejects_cleanly(data):
    try:
        config = config_from_dict(data)
    except ConfigSchemaError:
        return
    assert isinstance(config, SystemConfig)


@settings(max_examples=150, deadline=None)
@given(st.data(), configs | st.sampled_from(["{", "[]", "\x00"]))
def test_main_ends_in_a_documented_exit_code(work_dir, data, config):
    config_path = os.path.join(work_dir, "config.json")
    with open(config_path, "w") as fh:
        fh.write(config if isinstance(config, str) else json.dumps(config))
    argv = data.draw(argvs(config_path, work_dir))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argument vector
            code = exc.code
    assert code in EXIT_CODES, (argv, stderr.getvalue())
    assert "Traceback" not in stderr.getvalue()
    assert stderr.getvalue().count("\n") <= 1, (argv, stderr.getvalue())
    if code:
        assert stderr.getvalue().strip(), argv
