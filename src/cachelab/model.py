"""Problem instances, regularity validation, and shared report types.

File size is normalized to 1 throughout: memories and rates are measured in
units of files, and all arithmetic on them is exact (``fractions.Fraction``
for rational quantities, :class:`cachelab.radicals.RootSum` where square
roots enter).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, TypeVar, Union

from .radicals import ExactValue, RootSum, as_exact_str

# Popularity-separation constant for the multi-user regularity condition:
# adjacent levels must differ in popularity by at least 1/BETA**2.
BETA = Fraction(1, 80)

MemoryLike = Union[int, str, Fraction]
Fact = TypeVar("Fact")


class Setup(enum.Enum):
    MULTI_USER = "multi-user"
    SINGLE_USER = "single-user"
    MIXED = "mixed"


@dataclass(frozen=True)
class LevelSpec:
    """One popularity level: `files` equally popular unit-size files.

    `users` counts users per cache in the multi-user setup and total users
    in the single-user setup.
    """

    files: int
    users: int

    def __post_init__(self):
        if self.files < 1:
            raise ValueError(f"files must be >= 1, got {self.files}")
        if self.users < 1:
            raise ValueError(f"users must be >= 1, got {self.users}")


def popularity(level: LevelSpec) -> Fraction:
    """Users per file of the level, exactly."""
    return Fraction(level.users, level.files)


def _canonical(levels: Iterable[LevelSpec]) -> tuple[LevelSpec, ...]:
    # Decreasing popularity; ties keep input order (sort is stable).
    return tuple(sorted(levels, key=lambda lv: -popularity(lv)))


@dataclass(frozen=True)
class SystemConfig:
    """A full problem instance.

    Levels are stored in canonical order (decreasing popularity, input order
    on ties); all level indices in reports refer to this order.  For the
    mixed setup, `levels` holds the per-cache-replicated class and
    `mixed_levels` the single-row class.
    """

    setup: Setup
    caches: int
    levels: tuple[LevelSpec, ...]
    mixed_levels: tuple[LevelSpec, ...] = ()

    def __post_init__(self):
        if self.caches < 1:
            raise ValueError(f"caches must be >= 1, got {self.caches}")
        if not self.levels and not (self.setup is Setup.MIXED and self.mixed_levels):
            raise ValueError("level list must not be empty")
        if self.mixed_levels and self.setup is not Setup.MIXED:
            raise ValueError("mixed_levels requires the mixed setup")
        object.__setattr__(self, "levels", _canonical(self.levels))
        object.__setattr__(self, "mixed_levels", _canonical(self.mixed_levels))
        object.__setattr__(self, "_facts", {})

    def fact(self, build: Callable[["SystemConfig"], Fact]) -> Fact:
        """``build(self)``, built once per config object and kept on it, for
        facts that do not depend on the memory.  The store is no dataclass
        field, so ``==``, ``hash`` and ``repr`` ignore it; no fact may refer
        to its config, so that reference counting alone frees both."""
        if build not in self._facts:
            self._facts[build] = build(self)
        return self._facts[build]

    @property
    def total_files(self) -> int:
        return sum(lv.files for lv in self.levels) + sum(lv.files for lv in self.mixed_levels)

    @staticmethod
    def multi_user(caches: int, levels: Sequence[tuple[int, int]]) -> "SystemConfig":
        """Levels given as (files, users-per-cache) pairs."""
        return SystemConfig(Setup.MULTI_USER, caches, tuple(LevelSpec(n, u) for n, u in levels))

    @staticmethod
    def single_user(caches: int, levels: Sequence[tuple[int, int]]) -> "SystemConfig":
        """Levels given as (files, total-users) pairs."""
        return SystemConfig(Setup.SINGLE_USER, caches, tuple(LevelSpec(n, k) for n, k in levels))


def check_memory(M: MemoryLike) -> Fraction:
    """Validate and normalize a cache memory value (in file units)."""
    if type(M) is not Fraction:
        M = Fraction(M)
    if M.numerator < 0:
        raise ValueError(f"memory must be nonnegative, got {M}")
    return M


@dataclass(frozen=True)
class Violation:
    rule: str
    levels: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_strict(self, strict: bool) -> "ValidationReport":
        if strict and not self.ok:
            raise RegularityError(self)
        return self


class RegularityError(ValueError):
    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(v.message for v in report.violations)
        super().__init__(f"instance violates regularity conditions: {lines}")


def validate_multi_user(config: SystemConfig) -> ValidationReport:
    """Check the multi-user regularity conditions.

    MU-FILES: every level needs at least as many files as it has users in
    total (files >= caches * users_per_cache).  MU-POP: popularities of any
    two levels must differ by a factor of at least 1/BETA**2.  In canonical
    order each pair's ratio is a product of adjacent ratios, so checking
    every pair accepts the same configs as checking adjacent ones; it only
    lists every offending pair.  Exact rational arithmetic throughout;
    callers read it through `SystemConfig.fact`.  A config of another setup
    raises ValueError.
    """
    if config.setup is not Setup.MULTI_USER:
        raise ValueError(f"expected a multi-user config, got {config.setup.value}")
    violations = []
    for i, lv in enumerate(config.levels):
        if lv.files < config.caches * lv.users:
            violations.append(Violation(
                "MU-FILES", (i,),
                f"level {i}: files {lv.files} < caches*users = {config.caches * lv.users}"))
    sep = 1 / BETA**2
    for i in range(len(config.levels)):
        for j in range(i + 1, len(config.levels)):
            pi, pj = popularity(config.levels[i]), popularity(config.levels[j])
            ratio = max(pi, pj) / min(pi, pj)
            if ratio < sep:
                violations.append(Violation(
                    "MU-POP", (i, j),
                    f"levels {i},{j}: popularity ratio {ratio} < {sep} (pairwise check)"))
    return ValidationReport(tuple(violations))


def validate_single_user(config: SystemConfig) -> ValidationReport:
    """Check the single-user regularity conditions.

    SU-FILES: files >= users per level.  SU-COUNT: level user counts must
    sum to the number of caches (one user per cache).  Callers read it
    through `SystemConfig.fact`; a config of another setup raises ValueError.
    """
    if config.setup is not Setup.SINGLE_USER:
        raise ValueError(f"expected a single-user config, got {config.setup.value}")
    violations = []
    for i, lv in enumerate(config.levels):
        if lv.files < lv.users:
            violations.append(Violation(
                "SU-FILES", (i,), f"level {i}: files {lv.files} < users {lv.users}"))
    total = sum(lv.users for lv in config.levels)
    if total != config.caches:
        violations.append(Violation(
            "SU-COUNT", (), f"total users {total} != caches {config.caches}"))
    return ValidationReport(tuple(violations))


def mixed_classes(config: SystemConfig) -> tuple[Optional[SystemConfig], Optional[SystemConfig]]:
    """A mixed config's replicated class as a multi-user config over all the
    caches and its single-row class as a single-user config over its own
    users, so it may occupy only part of the caches; None for an empty class.
    `validate` and `mixed_rate` share them through `SystemConfig.fact`."""
    mu = SystemConfig(Setup.MULTI_USER, config.caches, config.levels) if config.levels else None
    row = config.mixed_levels
    su = SystemConfig(Setup.SINGLE_USER, sum(lv.users for lv in row), row) if row else None
    return mu, su


def validate(config: SystemConfig) -> ValidationReport:
    """The config's regularity report.

    A mixed config's classes are each checked against their own setup's
    rules, the single-row class on as many caches as it has users, and
    MX-ROW then requires that row to fit on the caches: its users must not
    outnumber them.
    """
    if config.setup is Setup.MULTI_USER:
        return config.fact(validate_multi_user)
    if config.setup is Setup.SINGLE_USER:
        return config.fact(validate_single_user)
    mu, su = config.fact(mixed_classes)
    violations = ((mu.fact(validate_multi_user).violations if mu else ())
                  + (su.fact(validate_single_user).violations if su else ()))
    if su is not None and su.caches > config.caches:
        violations += (Violation(
            "MX-ROW", (), f"single-row users {su.caches} > caches {config.caches}"),)
    return ValidationReport(violations)


def _float_or_none(value: ExactValue) -> Optional[float]:
    """``float(value)``, or None when the value is past the float range."""
    try:
        return float(value)
    except OverflowError:
        return None


@dataclass
class RateReport:
    """Achievable rate with the witnesses that produced it.

    `achievable`, `lower` and `ratio` are exact values (Fraction or
    RootSum); `lower`/`ratio` stay None when no bound applies (e.g. the
    mixed setup).  `regular` records the validation outcome in permissive
    mode.
    """

    setup: Setup
    memory: Fraction
    achievable: ExactValue
    lower: Optional[ExactValue] = None
    ratio: Optional[ExactValue] = None
    regular: bool = True
    partition: Optional[object] = None
    allocation: Optional[object] = None
    bound_params: Optional[object] = None
    notes: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The report as JSON values; a ``*_float`` companion is None when
        its exact value is past the float range."""
        out = {
            "setup": self.setup.value,
            "memory": as_exact_str(self.memory),
            "achievable": as_exact_str(self.achievable),
            "achievable_float": _float_or_none(self.achievable),
            "regular": self.regular,
        }
        if self.lower is not None:
            out["lower"] = as_exact_str(self.lower)
            out["lower_float"] = _float_or_none(self.lower)
        if self.ratio is not None:
            out["gap_ratio"] = as_exact_str(self.ratio)
            out["gap_ratio_float"] = _float_or_none(self.ratio)
        if self.partition is not None:
            out["partition"] = describe(self.partition)
        if self.allocation is not None:
            out["allocation"] = describe(self.allocation)
        if self.bound_params is not None:
            out["bound_params"] = describe(self.bound_params)
        if self.notes:
            out["notes"] = list(self.notes)
        out.update({k: describe(v) for k, v in self.extras.items()})
        return out


def describe(obj):
    """JSON-friendly rendering of witnesses (partitions, allocations, params),
    report extras and dichotomy results; anything else reaching the last line
    is a dataclass."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (Fraction, RootSum)):
        return as_exact_str(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [describe(v) for v in items]
    return {name: describe(getattr(obj, name)) for name in obj.__dataclass_fields__}


# -- JSON config schema ------------------------------------------------------

_SETUP_NAMES = {s.value: s for s in Setup}


_CONFIG_KEYS = frozenset({"setup", "caches", "levels", "mixed_levels"})
_LEVEL_KEYS = frozenset({"files", "users"})


def _check_keys(data: dict, allowed: frozenset, what: str) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigSchemaError(f"unknown {what} key {key!r}")


def _integer(value, name: str) -> int:
    # JSON integers only: int() would truncate 1.5 and turn true into 1.
    if type(value) is not int:
        raise ConfigSchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _level(lv) -> LevelSpec:
    if not isinstance(lv, dict):
        raise ConfigSchemaError(f"a level must be an object, got {lv!r}")
    _check_keys(lv, _LEVEL_KEYS, "level")
    return LevelSpec(_integer(lv["files"], "files"), _integer(lv["users"], "users"))


def config_from_dict(data: dict) -> SystemConfig:
    if not isinstance(data, dict):
        raise ConfigSchemaError("config must be a JSON object")
    _check_keys(data, _CONFIG_KEYS, "config")
    try:
        setup = _SETUP_NAMES[data["setup"]]
        caches = _integer(data["caches"], "caches")
        levels = tuple(_level(lv) for lv in data["levels"])
        mixed = tuple(_level(lv) for lv in data.get("mixed_levels", ()))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigSchemaError(f"bad config field: {exc}") from exc
    if setup is not Setup.MIXED and data.get("mixed_levels"):
        raise ConfigSchemaError("mixed_levels is only valid with setup \"mixed\"")
    try:
        return SystemConfig(setup, caches, levels, mixed)
    except ValueError as exc:
        raise ConfigSchemaError(str(exc)) from exc


def config_to_dict(config: SystemConfig) -> dict:
    out = {
        "setup": config.setup.value,
        "caches": config.caches,
        "levels": [{"files": lv.files, "users": lv.users} for lv in config.levels],
    }
    if config.mixed_levels:
        out["mixed_levels"] = [{"files": lv.files, "users": lv.users}
                               for lv in config.mixed_levels]
    return out


def load_config(path: str) -> SystemConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # bad JSON, or an integer past the digit limit
            raise ConfigSchemaError(f"cannot parse JSON: {exc}") from exc
    return config_from_dict(data)


class ConfigSchemaError(ValueError):
    pass
