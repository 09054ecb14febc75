"""Memory sweeps, strategy-dichotomy reproductions, the mixed setup, and
randomized gap audits.

Everything here is deterministic given its inputs (explicit seeds, fixed
grids, fixed iteration order), so CSV output is byte-stable across runs.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import (GapReport, gap_report, lower_bound_single_user,
                     optimize_lower_bound_mu)
from .model import (BETA, MemoryLike, RateReport, Setup, SystemConfig, check_memory,
                    config_to_dict, mixed_classes, validate)
from .multi_user import rate_memory_sharing
from .radicals import ExactValue, RootSum, as_exact_str, to_decimal
from .single_level import rate_single_level
from .single_user import rate_clustering


def _ratio(a: ExactValue, b: ExactValue) -> ExactValue:
    """larger/smaller of two positive exact values."""
    return a / b if a >= b else b / a


def _family_memory(M: Optional[MemoryLike], default: Fraction, total: int) -> Fraction:
    """A dichotomy family's memory; its rate ratios need ``0 < M < total``."""
    M = check_memory(M) if M is not None else default
    if not 0 < M < total:
        raise ValueError(f"memory {M} outside (0, {total}), where the family's rates vanish "
                         f"or its closed forms divide by zero")
    return M


def evaluate(config: SystemConfig, M: MemoryLike,
             strict: bool = False) -> tuple[RateReport, Optional[GapReport]]:
    """Achievable rate, lower bound and gap at one memory, for any setup.

    The report carries the lower bound, gap ratio and bound parameters, plus
    the `gap_constant` and `within_constant` extras.  The mixed setup has no
    lower bound: its report says so in a note and the gap report is None.
    With `strict`, a config that `validate` rejects raises RegularityError,
    after a bad memory's ValueError.
    """
    M = check_memory(M)
    validate(config).raise_if_strict(strict)
    if config.setup is Setup.MIXED:
        report = mixed_rate(config, M)
        report.notes = report.notes + ("no lower bound is emitted for the mixed setup",)
        return report, None
    if config.setup is Setup.MULTI_USER:
        report = rate_memory_sharing(config, M)
        lower, params = optimize_lower_bound_mu(config, M)
    else:
        report = rate_clustering(config, M)
        lower, params = lower_bound_single_user(config, M)
    gap = gap_report(config.setup, report.achievable, lower, M, config)
    report.lower, report.ratio, report.bound_params = lower, gap.ratio, params
    report.extras["gap_constant"] = gap.constant
    report.extras["within_constant"] = gap.within
    return report, gap


# -- memory sweeps -----------------------------------------------------------

def linear_grid(start: MemoryLike, stop: MemoryLike, points: int) -> list[Fraction]:
    """`points` evenly spaced memories from start to stop, inclusive; just
    ``[start]`` when fewer than two points are asked for."""
    start, stop = Fraction(start), Fraction(stop)
    if points < 2:
        return [start]
    return sorted({start + (stop - start) * k / (points - 1) for k in range(points)})


@dataclass(frozen=True)
class SweepRow:
    M: Fraction
    achievable: ExactValue
    lower: Optional[Fraction]
    ratio: Optional[ExactValue]
    partition_H: tuple[int, ...]
    partition_I: tuple[int, ...]
    partition_J: tuple[int, ...]


def sweep(config: SystemConfig, grid: Sequence[MemoryLike]) -> list[SweepRow]:
    """One row per memory point: achievable rate, lower bound, gap, partition."""
    grid = sorted({check_memory(M) for M in grid})
    rows = []
    for M in grid:
        report, _ = evaluate(config, M)
        part = report.partition
        if config.setup is Setup.MULTI_USER:
            sets = (part.H, part.I, part.J)
        elif config.setup is Setup.SINGLE_USER:
            sets = (part.Hprime, part.Iprime, ())
        else:
            sets = ((), (), ())
        rows.append(SweepRow(M, report.achievable, report.lower, report.ratio,
                             *(tuple(sorted(s)) for s in sets)))
    return rows


SWEEP_HEADER = ["M", "rate_achievable", "rate_lower", "gap_ratio",
                "partition_H", "partition_I", "partition_J"]


def _cells(row: SweepRow, number, missing, sets) -> list:
    """A row's cells in `SWEEP_HEADER` order: `number` renders each value,
    `missing` an absent one, and `sets` each partition set."""
    return [number(row.M), number(row.achievable),
            *(missing if value is None else number(value) for value in (row.lower, row.ratio)),
            *(sets(s) for s in (row.partition_H, row.partition_I, row.partition_J))]


def write_sweep_csv(rows: Sequence[SweepRow], path: str) -> None:
    """Decimal CSV of the rows; every row is rendered before the file is
    opened, so a value that cannot be rendered leaves no file."""
    cells = [_cells(row, to_decimal, "", lambda s: ";".join(map(str, s))) for row in rows]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(cells)


def write_sweep_json(rows: Sequence[SweepRow], path: str) -> None:
    """Companion file carrying the exact values alongside the decimal CSV,
    one object per row keyed by `SWEEP_HEADER`."""
    data = [dict(zip(SWEEP_HEADER, _cells(row, as_exact_str, None, list))) for row in rows]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def write_plot_data(rows: Sequence[SweepRow], path: str) -> None:
    """gnuplot-friendly whitespace-delimited columns: M, achievable, lower;
    rendered before the file is opened, like `write_sweep_csv`.  It renders
    no ratio, so one past the float range does not fail it."""
    lines = [f"{to_decimal(row.M)} {to_decimal(row.achievable)} "
             f"{to_decimal(row.lower) if row.lower is not None else 'nan'}\n" for row in rows]
    with open(path, "w") as fh:
        fh.write("# M rate_achievable rate_lower\n")
        fh.writelines(lines)


# -- strategy dichotomy ------------------------------------------------------

@dataclass(frozen=True)
class DichotomyResult:
    """Closed-form rates of the two strategies plus the exact engine rates.

    `ratio` compares the closed-form approximations (larger over smaller,
    so always >= 1); `exact_ratio` does the same for the engine rates.
    `in_regime` records whether the memory actually puts every level in
    the partial-storage regime, which the closed forms presume.
    """

    parameter: int
    memory: Fraction
    rate_memory_sharing: ExactValue
    rate_clustering: ExactValue
    ratio: ExactValue
    exact_memory_sharing: ExactValue
    exact_clustering: ExactValue
    exact_ratio: ExactValue
    in_regime: bool


def dichotomy_multi_user(r: int, M: Optional[MemoryLike] = None) -> DichotomyResult:
    """Two-level multi-user family where clustering loses by about 8**r.

    Level sizes (2^(5r), 2^(8r)) with (2^(4r), 2^r) users per cache and
    2^r caches.  The default memory is the popular level's library size,
    where the exact engines realize the full separation.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    n1, n2 = 2 ** (5 * r), 2 ** (8 * r)
    u1, u2 = 2 ** (4 * r), 2 ** r
    K = 2 ** r
    config = SystemConfig.multi_user(K, [(n1, u1), (n2, u2)])
    M = _family_memory(M, Fraction(n1), n1 + n2)
    s = RootSum.sqrt(n1 * u1) + RootSum.sqrt(n2 * u2)
    approx_ms = s * s / M
    approx_cl = Fraction((n1 + n2) * (u1 + u2)) / M
    report = rate_memory_sharing(config, M)
    exact_ms = report.achievable
    exact_cl = rate_single_level(M, K, n1 + n2, u1 + u2)
    in_regime = report.partition.I == frozenset(range(2))
    return DichotomyResult(r, M, approx_ms, approx_cl, _ratio(approx_cl, approx_ms),
                           exact_ms, exact_cl, _ratio(exact_cl, exact_ms), in_regime)


def dichotomy_single_user(L: int, files: int = 16,
                          M: Optional[MemoryLike] = None) -> DichotomyResult:
    """Equal-size single-user family where per-level splitting loses a factor L.

    L levels of `files` files, each requested by `files` users.  The
    memory-splitting strategy gives each level M/L and serves it alone;
    clustering merges everything.  Default memory L*files/4.
    """
    if L < 2:
        raise ValueError("need at least two levels")
    if files < 4:
        raise ValueError("need at least 4 files per level for the default regime")
    config = SystemConfig.single_user(L * files, [(files, files)] * L)
    M = _family_memory(M, Fraction(L * files, 4), L * files)
    s: ExactValue = Fraction(0)
    for _ in range(L):
        s = s + RootSum.sqrt(files)
    approx_ms = s * s / M
    approx_cl = Fraction(L * files) / M
    report = rate_clustering(config, M)
    exact_cl = report.achievable
    share = M / L
    lone_level = SystemConfig.single_user(files, [(files, files)])
    exact_ms = L * rate_clustering(lone_level, share).achievable
    in_regime = not report.partition.Hprime and share >= 1
    return DichotomyResult(L, M, approx_ms, approx_cl, _ratio(approx_ms, approx_cl),
                           exact_ms, exact_cl, _ratio(exact_ms, exact_cl), in_regime)


# -- mixed setup -------------------------------------------------------------

GAMMA_GRID = 101  # gammas 0, 1/100, ..., 1 scanned by `mixed_rate`


def mixed_rate(config: SystemConfig, M: MemoryLike,
               gamma: Optional[Fraction] = None) -> RateReport:
    """Superposition rate: memory-sharing on the replicated class with a
    gamma fraction of the memory, clustering on the single-row class with
    the rest.  Reports the rate at the requested gamma (default: the grid
    minimizer) plus the best gamma found on the `GAMMA_GRID`-point grid.  No
    lower bound is emitted for the mixed setup.  The report's `regular` flag
    is ``validate(config).ok``.

    The grid is scanned even when `gamma` is given, because the report
    carries ``best_gamma`` and ``best_rate`` in either case; a given gamma
    then costs one more evaluation.  Each grid memory ``g*M`` and
    ``(1 - g)*M`` is built as one Fraction from the integers of g and M.
    Where both class rates are rational, their sum is an integer pair and
    is compared with the best so far by cross-multiplication; an irrational
    sum (a replicated class with two partial levels of distinct kernels)
    falls back to the exact comparison.  ``best_rate`` is built once.
    """
    if config.setup is not Setup.MIXED:
        raise ValueError("mixed_rate needs a mixed-setup config")
    M = check_memory(M)
    f_cfg, g_cfg = config.fact(mixed_classes)

    p, q = M.numerator, M.denominator

    def rate_at(g: Fraction):
        """The sum of the two class rates at g: an unreduced integer pair
        (numerator, positive denominator) when both are rational, else the
        exact value."""
        a, b = g.numerator, g.denominator
        rates = []
        if f_cfg is not None:
            rates.append(rate_memory_sharing(f_cfg, Fraction(a * p, b * q)).achievable)
        if g_cfg is not None:
            rates.append(rate_clustering(g_cfg, Fraction((b - a) * p, b * q)).achievable)
        if all(type(rate) is Fraction for rate in rates):
            num, den = 0, 1
            for rate in rates:
                num, den = num * rate.denominator + rate.numerator * den, den * rate.denominator
            return num, den
        return sum(rates, Fraction(0))

    def exact(value) -> ExactValue:
        return Fraction(*value) if type(value) is tuple else value

    if gamma is not None:
        gamma = Fraction(gamma)
        if not (0 <= gamma <= 1):
            raise ValueError("gamma must lie in [0, 1]")
    best_g, best = Fraction(0), rate_at(Fraction(0))
    for k in range(1, GAMMA_GRID):
        g = Fraction(k, GAMMA_GRID - 1)
        value = rate_at(g)
        if type(value) is tuple and type(best) is tuple:
            below = value[0] * best[1] < best[0] * value[1]
        else:
            below = exact(value) < exact(best)
        if below:
            best_g, best = g, value
    best_rate = exact(best)
    chosen = gamma if gamma is not None else best_g
    achieved = exact(rate_at(chosen)) if gamma is not None else best_rate
    return RateReport(
        setup=Setup.MIXED,
        memory=M,
        achievable=achieved,
        regular=validate(config).ok,
        extras={"gamma": chosen, "best_gamma": best_g, "best_rate": best_rate},
    )


# -- randomized audits -------------------------------------------------------

CACHE_COUNTS = (4, 8, 16, 32, 96, 128)
POPULARITY_SEPARATION = int(1 / BETA**2)


def random_multi_user_config(rng: random.Random, max_levels: int = 4) -> SystemConfig:
    """Valid multi-user instance: files are a multiple of caches*users and
    consecutive popularities are separated by the regularity factor."""
    K = rng.choice(CACHE_COUNTS)
    L = rng.randint(1, max_levels)
    levels = []
    prev_npu = None  # files-per-user of the previous (more popular) level
    for _ in range(L):
        users = rng.randint(1, 4)
        base = K * rng.randint(1, 4)
        if prev_npu is None:
            npu = base
        else:
            npu = base * (-(-POPULARITY_SEPARATION * prev_npu // base))
        levels.append((users * npu, users))
        prev_npu = npu
    return SystemConfig.multi_user(K, levels)


def random_single_user_config(rng: random.Random, max_levels: int = 4) -> SystemConfig:
    """Valid single-user instance: level user counts compose the cache count."""
    K = rng.choice(CACHE_COUNTS)
    L = rng.randint(1, min(max_levels, K))
    cuts = sorted(rng.sample(range(1, K), L - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [K])]
    levels = [(k_i * rng.randint(1, 4), k_i) for k_i in parts]
    return SystemConfig.single_user(K, levels)


def audit_grid(config: SystemConfig, points: int = 20) -> list[Fraction]:
    total = config.total_files
    grid = set(linear_grid(0, total, points))
    if config.setup is Setup.SINGLE_USER:
        # Exercise the small-memory gap constant as well.
        grid.update({Fraction(1, 12), Fraction(1, 7)})
        grid = {g for g in grid if g <= total}
    return sorted(grid)


@dataclass
class AuditSummary:
    setup: Setup
    instances: int
    seed: int
    points: int = 0
    inversions: list = field(default_factory=list)
    gap_violations: list = field(default_factory=list)
    uninformative_points: int = 0
    # constant -> (float ratio, config, M, exact ratio)
    max_ratio: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        # An audit that checked no gap (every lower bound zero) shows nothing.
        return (not self.inversions and not self.gap_violations
                and (self.points == 0 or bool(self.max_ratio)))

    def record(self, constant: Fraction, ratio: ExactValue, config: SystemConfig,
               M: Fraction) -> None:
        key = str(constant)
        current = self.max_ratio.get(key)
        if current is None or ratio > current[3]:
            self.max_ratio[key] = (float(ratio), config_to_dict(config), as_exact_str(M), ratio)

    def to_json_dict(self) -> dict:
        return {
            "setup": self.setup.value,
            "instances": self.instances,
            "seed": self.seed,
            "points": self.points,
            "ok": self.ok,
            "inversions": self.inversions,
            "gap_violations": self.gap_violations,
            "uninformative_points": self.uninformative_points,
            "max_ratio": {k: {"ratio": v[0], "config": v[1], "M": v[2]}
                          for k, v in self.max_ratio.items()},
        }


def audit(setup: Setup, count: int, seed: int, grid_points: int = 20) -> AuditSummary:
    """Generate seeded valid instances and check every gap constant.

    Gap ratios are evaluated at points with a positive lower bound (a zero
    lower bound with a positive rate carries no information about the
    ratio and is tallied separately); inversions are checked everywhere.
    """
    rng = random.Random(seed)
    summary = AuditSummary(setup, count, seed)
    for _ in range(count):
        if setup is Setup.MULTI_USER:
            config = random_multi_user_config(rng)
        else:
            config = random_single_user_config(rng)
        for M in audit_grid(config, grid_points):
            _, gap = evaluate(config, M)
            summary.points += 1
            if gap.inversion:
                summary.inversions.append({
                    "config": config_to_dict(config), "M": as_exact_str(M),
                    "achievable": as_exact_str(gap.achievable),
                    "lower": as_exact_str(gap.lower)})
                continue
            if gap.lower == 0:
                if not gap.within:
                    summary.uninformative_points += 1
                continue
            if not gap.within:
                summary.gap_violations.append({
                    "config": config_to_dict(config), "M": as_exact_str(M),
                    "ratio": float(gap.ratio), "constant": str(gap.constant)})
            summary.record(gap.constant, gap.ratio, config, M)
    return summary
