"""Clustering achievability for the single-user setup.

Levels whose per-user library share exceeds the cache memory are served by
plain file transmissions; the rest are merged into one super-level that
receives all of the memory and is delivered with the single-level engine
over exactly the caches whose users request super-level files.  All
threshold comparisons are exact: at M = p/q, level h is uncoded iff
``p*K_h < N_h*q``, and the clustering rate, with its clamp at zero, is one
integer numerator and denominator made into one Fraction.

That test runs in one place, `_Clusterings`, which each config object keeps
as ``config.fact(_Clusterings)``.  The canonical order sorts ``N_h/K_h``
ascending, so the uncoded set is a suffix of it that only shrinks as M
grows: there are at most L+1 of them.  Each one met so far, keyed by its
mask, owns its `ClusterPartition`, its uncoded users and its super-level
library; the fact also places each level in the merged library, and
`partition_su`, `rate_clustering` and the clustered runs read it all there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .model import (MemoryLike, RateReport, Setup, SystemConfig, check_memory,
                    validate_single_user)
from .single_level import (Transcript, deliver, place, span_contains, symbol_mask,
                           verify_decode)


@dataclass(frozen=True)
class ClusterPartition:
    """Uncoded set H' (memory below N_h/K_h) and its complement I'."""

    Hprime: frozenset[int]
    Iprime: frozenset[int]


class _Clusterings:
    """Memory-independent state of a config's clustering partitions.

    The uncoded set at M is a suffix of the canonical order (see the module
    docstring); its mask is the number of coded levels in front of it, read
    by one integer pass ``p*K_h < N_h*q`` at M = p/q, so there are at most
    L+1 masks.  `first` holds each level's first file in the merged
    library, as prefix sums; the coded levels are a prefix, so a mask's
    super-level library is ``first[coded]``.  Each mask met so far keeps
    its `ClusterPartition`, its uncoded users and that library.  Holds the
    levels' (files, users) pairs, not the config, which keeps this fact.
    """

    __slots__ = ("_pairs", "first", "_masks")

    def __init__(self, config: SystemConfig):
        self._pairs = tuple((lv.files, lv.users) for lv in config.levels)
        self.first = tuple(accumulate((files for files, _ in self._pairs), initial=0))
        self._masks: dict[int, tuple[ClusterPartition, int, int]] = {}

    def at(self, M: Fraction) -> tuple[ClusterPartition, int, int]:
        """The partition, uncoded users and super-level library at M."""
        p, q = M.numerator, M.denominator
        coded = 0
        for files, users in self._pairs:
            if p * users < files * q:
                break
            coded += 1
        entry = self._masks.get(coded)
        if entry is None:
            pairs = self._pairs
            entry = self._masks[coded] = (
                ClusterPartition(frozenset(range(coded, len(pairs))), frozenset(range(coded))),
                sum(users for _, users in pairs[coded:]), self.first[coded])
        return entry


def partition_su(config: SystemConfig, M: MemoryLike) -> ClusterPartition:
    """Exact threshold split: h is uncoded iff M < N_h/K_h, that is iff
    ``p*K_h < N_h*q`` for M = p/q."""
    return config.fact(_Clusterings).at(check_memory(M))[0]


def rate_clustering(config: SystemConfig, M: MemoryLike) -> RateReport:
    """Clustering rate: uncoded users plus ``max{(sum_I' N_i)/M - 1, 0}``.

    For M = p/q that is ``(u*p + max{n*q - p, 0})/p`` with u the uncoded
    users and n the super-level library, one Fraction (just u at M = 0);
    the partition, u and n are the mask's.
    """
    M = check_memory(M)
    part, users, n_super = config.fact(_Clusterings).at(M)
    p = M.numerator
    if n_super and p:
        rate = Fraction(users * p + max(n_super * M.denominator - p, 0), p)
    else:
        rate = Fraction(users)
    return RateReport(
        setup=Setup.SINGLE_USER,
        memory=M,
        achievable=rate,
        regular=config.fact(validate_single_user).ok,
        partition=part,
    )


@dataclass(frozen=True)
class ClusterRun:
    """A concrete clustered placement/delivery round.

    `uncoded` lists full-file transmissions (cache, level, file-in-level);
    `coded` is the super-level engine transcript over the active caches
    (`active` maps engine cache slots back to system caches).
    """

    uncoded: tuple[tuple[int, int, int], ...]
    coded: Transcript
    active: tuple[int, ...]
    partition: ClusterPartition

    @property
    def total_size(self) -> Fraction:
        return len(self.uncoded) + self.coded.total_size


def _check_assignment(config: SystemConfig, assignment: Sequence[int]) -> None:
    if len(assignment) != config.caches:
        raise ValueError(f"assignment must map all {config.caches} caches")
    counts = [0] * len(config.levels)
    for lvl in assignment:
        if not (0 <= lvl < len(config.levels)):
            raise ValueError(f"assignment references level {lvl}")
        counts[lvl] += 1
    expected = [lv.users for lv in config.levels]
    if counts != expected:
        raise ValueError(f"assignment level counts {counts} != user counts {expected}")


def _super_level(config: SystemConfig, M: Fraction, assignment: Sequence[int],
                 demands: Sequence[int]
                 ) -> tuple[ClusterPartition, tuple, tuple[int, ...], int, list[int]]:
    """Split the caches by the clustering partition at memory M.

    Returns the partition, the uncoded transmissions (cache, level, file),
    the active caches whose users request super-level files, the size of
    the merged super-level library, and each active cache's demand within
    that library (indexed like `active`), all read off `_Clusterings`.
    """
    _check_assignment(config, assignment)
    if len(demands) != config.caches:
        raise ValueError(f"need one demand per cache, got {len(demands)}")
    for c, (lvl, f) in enumerate(zip(assignment, demands)):
        if not (0 <= f < config.levels[lvl].files):
            raise ValueError(f"cache {c}: file {f} outside level {lvl}")
    clusterings = config.fact(_Clusterings)
    part, _, n_super = clusterings.at(M)
    uncoded = tuple((c, assignment[c], demands[c])
                    for c in range(config.caches) if assignment[c] in part.Hprime)
    active = tuple(c for c in range(config.caches) if assignment[c] in part.Iprime)
    wants = [clusterings.first[assignment[c]] + demands[c] for c in active]
    return part, uncoded, active, n_super, wants


def cluster_place_deliver(config: SystemConfig, M: MemoryLike,
                          assignment: Sequence[int],
                          demands: Sequence[int]) -> ClusterRun:
    """Run the clustered scheme for one user arrangement and demand vector.

    `assignment[c]` is the level of the user at cache c and `demands[c]`
    its file index within that level.  Uncoded-set users get one full file
    each; the super-level users are served by the subset-placement engine
    over their caches, with the union of the super-level libraries as one
    library.  Decodability of the engine transcript is verified by the
    independent span check before returning.
    """
    M = check_memory(M)
    part, uncoded, active, n_super, wants = _super_level(config, M, assignment, demands)
    if not active:
        return ClusterRun(uncoded, Transcript(()), (), part)
    placement = place(len(active), n_super, min(M, Fraction(n_super)))
    engine_demands = list(enumerate(wants))
    transcript = deliver(placement, engine_demands)
    if not verify_decode(placement, transcript, engine_demands):
        raise RuntimeError("super-level transcript failed the decodability check")
    return ClusterRun(uncoded, transcript, active, part)


# -- decentralized placement variant ----------------------------------------

@dataclass(frozen=True)
class DecentralizedRun:
    """Randomized-placement variant of the super-level delivery.

    Files are cut into `segments` unit fractions; each active cache stores
    a seeded random subset of every file's segments.  Messages XOR, for
    each subset T of demanding caches, the segment lists known exactly by
    the other members of T.
    """

    uncoded: tuple[tuple[int, int, int], ...]
    message_sizes: tuple[Fraction, ...]
    decodable: bool

    @property
    def total_size(self) -> Fraction:
        return len(self.uncoded) + sum(self.message_sizes, Fraction(0))


def cluster_place_deliver_decentralized(config: SystemConfig, M: MemoryLike,
                                        assignment: Sequence[int],
                                        demands: Sequence[int],
                                        seed: int, segments: int = 60) -> DecentralizedRun:
    """Run the decentralized variant; O(K^2 * segments) for K active caches.

    A segment that a slot lacks belongs to exactly one team: that slot plus
    every other slot storing the segment.  So one pass over the missing
    segments groups them by team, and the teams are sent largest first,
    ties in lexicographic order.
    """
    M = check_memory(M)
    _, uncoded, active, n_super, wants = _super_level(config, M, assignment, demands)
    if not active:
        return DecentralizedRun(uncoded, (), True)
    rng = random.Random(seed)
    per_file = min(segments, int(Fraction(M, n_super) * segments)) if M < n_super else segments
    slots = range(len(active))
    stored = {slot: {f: frozenset(rng.sample(range(segments), per_file))
                     for f in range(n_super)}
              for slot in slots}

    # team -> slot -> the segments of its demand that it lacks, ascending
    teams: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for slot, f in enumerate(wants):
        for s in range(segments):
            if s not in stored[slot][f]:
                team = tuple(o for o in slots if o == slot or s in stored[o][f])
                teams.setdefault(team, {}).setdefault(slot, []).append(s)

    sizes = []
    rows = []  # GF(2) rows: one per segment position of each message
    index: dict[tuple[int, int], int] = {}
    for team in sorted(teams, key=lambda team: (-len(team), team)):
        lists = [(wants[slot], segs) for slot, segs in teams[team].items()]
        width = max(len(segs) for _, segs in lists)
        sizes.append(Fraction(width, segments))
        for k in range(width):
            rows.append(symbol_mask(index, ((f, segs[k]) for f, segs in lists
                                            if k < len(segs))))

    ok = all(span_contains(rows,
                           symbol_mask(index, ((f, s) for f, segs in stored[slot].items()
                                               for s in segs)),
                           symbol_mask(index, ((file, s) for s in range(segments))))
             for slot, file in enumerate(wants))
    return DecentralizedRun(uncoded, tuple(sizes), ok)
