#!/usr/bin/env python3
"""Best-of-N times of the simulator's layers and of the bound optimizer.

For K = 8 and 10 it places a library of N = K files on K caches at memory
M = 2, delivers a demand vector and checks the transcript, 300 times, with
the garbage collector off as ``timeit`` does, once on the worst-case
demands (distinct files) and once on one seeded demand vector with repeats.
It prints the best time of each of the three and the best total of one
repetition, in ms.
It then builds the multi-user bound's envelope of lines
(``bounds._bound_lines``) on three fixed configs, and prints each best
build time beside the envelope's line count.  It times the first bound
query, at M = 1, on a fresh config for the three K = 4096 configs that the
``MAX_BOUND_CACHES`` comment in ``bounds.py`` quotes, best of 3, which is
almost all envelope build.  It runs ``mixed_rate``'s
101-point gamma scan on demo 06's config at M = 6, without and with
gamma = 1/2, each time on a fresh config object so that nothing is cached
(as a ``cachelab mixed`` call loads one), and prints the best times.
Last it times a warm multi-user audit point, as ``cachelab audit`` and
perfbench's mu-audit run one: ``rate_memory_sharing``, the
``optimize_lower_bound_mu`` query and ``gap_report`` at each of the 20
audit memories of three regular configs, once the config's facts are
built, and prints each part's best time per memory.  The two K = 128
configs are envelope configs, whose adjacent levels overlap, so the
partition scan settles a level's side by a one-root test; on K = 16 the
levels are separated, and prefix sums settle it.
Last of all it times ``rate_memory_sharing`` on a fresh wide config with
six partial levels, three of them above N/K, whose rate is built from
``RootSum`` products and inverses, and prints the best time.
It uses the standard library only and writes nothing.  From the root of a
checkout:

    python3 tools/layer_times.py

Run two checkouts one after the other, more than once, to compare them.
"""

from __future__ import annotations

import gc
import os
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from cachelab.bounds import _bound_lines, gap_report, optimize_lower_bound_mu  # noqa: E402
from cachelab.experiments import audit_grid, mixed_rate  # noqa: E402
from cachelab.model import LevelSpec, Setup, SystemConfig  # noqa: E402
from cachelab.multi_user import rate_memory_sharing  # noqa: E402
from cachelab.single_level import deliver, place, verify_decode, worst_case_demands  # noqa: E402

CACHES = (8, 10)
MEMORY = Fraction(2)
REPEAT = 300
COLUMNS = ("place", "deliver", "verify_decode", "sum")
# (caches, levels as (files, users)) of the envelope rows: one regular level;
# four regular levels 6400 times apart in popularity, as perfbench's
# regular_levels draws them; and the first K = 8 draw of perfbench's
# wide_levels(random.Random(1), 4, 2).
ENVELOPES = {
    "K = 128, 1 level": (128, [(256, 2)]),
    "K = 128, 4 levels": (128, [(256, 2), (2457600, 3), (20971520000, 4),
                                (134217728000000, 4)]),
    "K = 8, wide": (8, [(396, 4), (393, 3), (239, 1), (879, 3)]),
}
ENVELOPE_REPEAT = 100
# The configs of the MAX_BOUND_CACHES comment: one level; four levels of
# 4096..16384 files; four regular levels 6400 times apart in popularity, as
# perfbench's regular_levels draws them.
FIRST_QUERY = {
    "K = 4096, 1 level": (4096, [(4096, 1)]),
    "K = 4096, 4 levels": (4096, [(4096, 1), (8192, 1), (12288, 1), (16384, 1)]),
    "K = 4096, regular": (4096, [(8192, 2), (78643200, 3), (671088640000, 4),
                                 (4294967296000000, 4)]),
}
FIRST_QUERY_MEMORY = Fraction(1)
FIRST_QUERY_REPEAT = 3
# Demo 06's mixed config: one level at every cache, two in one row of users.
MIXED_CACHES = 4
MIXED_LEVELS = (LevelSpec(8, 2),)
MIXED_ROW = (LevelSpec(12, 3), LevelSpec(50, 1))
MIXED_MEMORY = Fraction(6)
MIXED_GAMMAS = {"grid optimum": None, "gamma = 1/2": Fraction(1, 2)}
MIXED_REPEAT = 100
# The audit-point rows: the two regular envelope configs, and four regular
# levels 6400 times apart in popularity on K = 16, more than (K+1)^2 = 289,
# so every adjacent pair of levels is separated.
AUDIT_CONFIGS = {
    "K = 128, 1 level": ENVELOPES["K = 128, 1 level"],
    "K = 128, 4 levels": ENVELOPES["K = 128, 4 levels"],
    "K = 16, 4 levels": (16, [(32, 2), (307200, 3), (655360000, 1), (16777216000000, 4)]),
}
AUDIT_COLUMNS = ("rate", "bound", "gap", "point")
AUDIT_REPEAT = 50
# Six partial levels, three of them above N/K, at M = 196: each of those
# three inverts its memory, a sum of radicals over six atoms.
RADICAL_CACHES = 8
RADICAL_LEVELS = [(47, 1), (79, 1), (303, 3), (393, 3), (1076, 4), (1084, 4)]
RADICAL_MEMORY = Fraction(196)
RADICAL_REPEAT = 15


def repeated_demands(K: int, N: int) -> list[tuple[int, int]]:
    """One user per cache, each on a file drawn, seeded by (K, N), from the
    first half of the library (the first file when N = 1), so some file is
    demanded at two caches as soon as K > N // 2."""
    rng = random.Random(f"repeated:{K}:{N}")
    return [(c, rng.randrange(max(1, N // 2))) for c in range(K)]


# The demand vectors of the simulator rows, by name; each takes (K, N).
DEMANDS = {"worst-case": worst_case_demands, "repeated": repeated_demands}


def layer_times(K: int, M: Fraction, demands: list[tuple[int, int]],
                repeat: int) -> dict[str, float]:
    """Best seconds of each layer and of one whole repetition at K = N."""
    best = dict.fromkeys(COLUMNS, float("inf"))
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = clock()
            placement = place(K, K, M)
            t1 = clock()
            transcript = deliver(placement, demands)
            t2 = clock()
            if not verify_decode(placement, transcript, demands):
                raise RuntimeError(f"K = {K}: the transcript does not decode")
            t3 = clock()
            for name, seconds in zip(COLUMNS, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                best[name] = min(best[name], seconds)
    finally:
        if enabled:
            gc.enable()
    return best


def _best_fresh(make, run, repeat: int) -> float:
    """Best seconds of ``run(make())``, timing only `run`, on a fresh object
    from `make` each repetition."""
    best = float("inf")
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeat):
            fresh = make()
            t0 = clock()
            run(fresh)
            best = min(best, clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def envelope_time(K: int, levels: list[tuple[int, int]], repeat: int) -> float:
    """Best seconds of one envelope build on a fresh multi-user config."""
    return _best_fresh(lambda: SystemConfig.multi_user(K, levels), _bound_lines, repeat)


def envelope_lines(K: int, levels: list[tuple[int, int]]) -> int:
    """The number of lines on the envelope of a fresh multi-user config."""
    return len(_bound_lines(SystemConfig.multi_user(K, levels))[0])


def first_query_time(K: int, levels: list[tuple[int, int]], repeat: int) -> float:
    """Best seconds of the first multi-user bound query on a fresh config."""
    return _best_fresh(lambda: SystemConfig.multi_user(K, levels),
                       lambda config: optimize_lower_bound_mu(config, FIRST_QUERY_MEMORY), repeat)


def mixed_time(gamma, repeat: int) -> float:
    """Best seconds of one ``mixed_rate`` call at `gamma` (None for the grid
    optimum) on a fresh copy of demo 06's config."""
    return _best_fresh(lambda: SystemConfig(Setup.MIXED, MIXED_CACHES, MIXED_LEVELS, MIXED_ROW),
                       lambda config: mixed_rate(config, MIXED_MEMORY, gamma), repeat)


def audit_point_times(K: int, levels: list[tuple[int, int]], repeat: int) -> dict[str, float]:
    """Best seconds per memory of each part of a warm audit point, and of
    the whole point, over the config's audit memories.

    Each pass times the rate, the bound query and the gap at every memory.
    The first pass builds the config's facts and is not counted; of the
    `repeat` passes after it, the best of each part is kept.
    """
    config = SystemConfig.multi_user(K, levels)
    grid = audit_grid(config)
    best = dict.fromkeys(AUDIT_COLUMNS, float("inf"))
    clock = time.perf_counter
    enabled = gc.isenabled()
    gc.disable()
    try:
        for warm in range(repeat + 1):
            parts = [0.0] * len(AUDIT_COLUMNS)
            for M in grid:
                t0 = clock()
                report = rate_memory_sharing(config, M)
                t1 = clock()
                lower, _ = optimize_lower_bound_mu(config, M)
                t2 = clock()
                gap_report(Setup.MULTI_USER, report.achievable, lower, M, config)
                t3 = clock()
                for k, seconds in enumerate((t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                    parts[k] += seconds
            if warm:
                for name, seconds in zip(AUDIT_COLUMNS, parts):
                    best[name] = min(best[name], seconds / len(grid))
    finally:
        if enabled:
            gc.enable()
    return best


def radical_rate_time(repeat: int) -> float:
    """Best seconds of one ``rate_memory_sharing`` call on a fresh copy of
    the six-level radical config."""
    return _best_fresh(lambda: SystemConfig.multi_user(RADICAL_CACHES, RADICAL_LEVELS),
                       lambda config: rate_memory_sharing(config, RADICAL_MEMORY), repeat)


def main() -> None:
    print(f"best of {REPEAT}, M = {MEMORY}, times in ms")
    print(f"{'K = N':>5}{'demands':>12}" + "".join(f"{name:>15}" for name in COLUMNS))
    for K in CACHES:
        for kind, demands in DEMANDS.items():
            best = layer_times(K, MEMORY, demands(K, K), REPEAT)
            print(f"{K:>5}{kind:>12}" + "".join(f"{best[name] * 1e3:>15.3f}"
                                                for name in COLUMNS))
    print(f"\nbound envelope build, best of {ENVELOPE_REPEAT}, times in ms")
    print(f"{'':>20}{'build':>15}{'lines':>15}")
    for name, (K, levels) in ENVELOPES.items():
        print(f"{name:>20}{envelope_time(K, levels, ENVELOPE_REPEAT) * 1e3:>15.3f}"
              f"{envelope_lines(K, levels):>15}")
    print(f"\nfirst bound query at M = {FIRST_QUERY_MEMORY} on a fresh config, "
          f"best of {FIRST_QUERY_REPEAT}, times in ms")
    for name, (K, levels) in FIRST_QUERY.items():
        print(f"{name:>20}{first_query_time(K, levels, FIRST_QUERY_REPEAT) * 1e3:>15.3f}")
    print(f"\nmixed_rate, demo 06 at M = {MIXED_MEMORY}, best of {MIXED_REPEAT}, times in ms")
    for name, gamma in MIXED_GAMMAS.items():
        print(f"{name:>20}{mixed_time(gamma, MIXED_REPEAT) * 1e3:>15.3f}")
    print(f"\nwarm audit point, best of {AUDIT_REPEAT} passes over the 20 audit memories, "
          f"times in us per memory")
    print(f"{'':>20}" + "".join(f"{name:>15}" for name in AUDIT_COLUMNS))
    for name, (K, levels) in AUDIT_CONFIGS.items():
        best = audit_point_times(K, levels, AUDIT_REPEAT)
        print(f"{name:>20}" + "".join(f"{best[part] * 1e6:>15.2f}" for part in AUDIT_COLUMNS))
    print(f"\nrate_memory_sharing, 6 partial levels (3 above N/K) at M = {RADICAL_MEMORY}, "
          f"best of {RADICAL_REPEAT}, times in ms")
    print(f"{'K = 8, radicals':>20}{radical_rate_time(RADICAL_REPEAT) * 1e3:>15.3f}")


if __name__ == "__main__":
    main()
