"""Clustering achievability for the single-user setup.

Levels whose per-user library share exceeds the cache memory are served by
plain file transmissions; the rest are merged into one super-level that
receives all of the memory and is delivered with the single-level engine
over exactly the caches whose users request super-level files.  All
threshold comparisons are exact rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass(frozen=True)
class RefinedClusterPartition:
    """Four-regime split of the levels for the bound recipes.

    `anomalies` lists levels that the predicates assign to J although the
    achievability still serves them uncoded (few users, memory between a
    sixth of the level and its per-user share); they are surfaced rather
    than reclassified.
    """

    G: frozenset[int]
    H: frozenset[int]
    I: frozenset[int]
    J: frozenset[int]
    anomalies: tuple[int, ...] = ()


def partition_su(config: SystemConfig, M: MemoryLike) -> ClusterPartition:
    """Exact threshold split: h is uncoded iff M < N_h/K_h."""
    M = check_memory(M)
    hp = frozenset(i for i, lv in enumerate(config.levels)
                   if M < Fraction(lv.files, lv.users))
    ip = frozenset(range(len(config.levels))) - hp
    return ClusterPartition(hp, ip)


def rate_clustering(config: SystemConfig, M: MemoryLike, strict: bool = False) -> RateReport:
    """Clustering rate: uncoded users plus ``max{(sum_I' N_i)/M - 1, 0}``."""
    M = check_memory(M)
    validation = validate_single_user(config).raise_if_strict(strict)
    part = partition_su(config, M)
    rate = sum((Fraction(config.levels[h].users) for h in part.Hprime), Fraction(0))
    n_super = sum(config.levels[i].files for i in part.Iprime)
    if n_super and M > 0:
        rate += max(Fraction(n_super) / M - 1, Fraction(0))
    return RateReport(
        setup=Setup.SINGLE_USER,
        memory=M,
        achievable=rate,
        regular=validation.ok,
        partition=part,
    )


def refine_partition_su(config: SystemConfig, M: MemoryLike) -> RefinedClusterPartition:
    """Membership exactly per the four regime predicates.

    Raises if some level matches no predicate (cannot happen for the
    predicates as stated, but the coverage is audited rather than assumed).
    """
    M = check_memory(M)
    G, H, I, J = set(), set(), set(), set()
    anomalies = []
    for idx, lv in enumerate(config.levels):
        n, k = Fraction(lv.files), lv.users
        uncoded = M < n / k
        if uncoded and k <= 5 and M <= n / 6:
            G.add(idx)
        elif uncoded and k >= 6:
            H.add(idx)
        elif n / k <= M <= n / 6:
            I.add(idx)
        elif M > n / 6:
            J.add(idx)
            if uncoded:
                anomalies.append(idx)
        else:
            raise RuntimeError(
                f"level {idx} (files={lv.files}, users={k}) matches no regime at M={M}")
    return RefinedClusterPartition(frozenset(G), frozenset(H), frozenset(I), frozenset(J),
                                   tuple(anomalies))


def rate_upper_bound_su(config: SystemConfig, M: MemoryLike) -> Fraction:
    """Regime-wise closed-form cap on the clustering rate.

    ``sum_G K_g + sum_H K_h + (sum_I N_i)/M`` plus a branch on the total
    full-storage-regime library N_J: ``N_J/M`` below ``N_J/6``,
    ``6(1 - M/N_J)`` up to ``N_J``, and 0 beyond.
    """
    M = check_memory(M)
    if M == 0:
        raise ValueError("the closed-form cap requires M > 0")
    refined = refine_partition_su(config, M)
    levels = config.levels
    out = sum((Fraction(levels[g].users) for g in refined.G), Fraction(0))
    out += sum(levels[h].users for h in refined.H)
    out += sum(Fraction(levels[i].files) for i in refined.I) / M
    n_j = sum(levels[j].files for j in refined.J)
    if n_j:
        if M < Fraction(n_j, 6):
            out += Fraction(n_j) / M
        elif M < n_j:
            out += 6 * (1 - M / n_j)
    return out


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
    that library (indexed like `active`).
    """
    _check_assignment(config, assignment)
    if len(demands) != config.caches:
        raise ValueError(f"need one demand per cache, got {len(demands)}")
    for c, (lvl, f) in enumerate(zip(assignment, demands)):
        if not (0 <= f < config.levels[lvl].files):
            raise ValueError(f"cache {c}: file {f} outside level {lvl}")
    part = partition_su(config, M)
    uncoded = tuple((c, assignment[c], demands[c])
                    for c in range(config.caches) if assignment[c] in part.Hprime)
    active = tuple(c for c in range(config.caches) if assignment[c] in part.Iprime)
    offsets = {}
    n_super = 0
    for i in sorted(part.Iprime):
        offsets[i] = n_super
        n_super += config.levels[i].files
    wants = [offsets[assignment[c]] + demands[c] for c in active]
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
