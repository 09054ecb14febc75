"""Memory-sharing achievability for the multi-user setup.

The cache memory is split across popularity levels according to a
three-way partition (no memory / partial memory / full storage) whose
membership conditions compare the normalized memory
``(M - T_J + V_I) / S_I`` against per-level thresholds involving
``sqrt(N_i/U_i)``.  Those thresholds are irrational, so every membership
decision goes through the certified exact comparisons of
:mod:`cachelab.radicals`; boundary equalities assign a level to the
partial-memory set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import (LevelSpec, MemoryLike, RateReport, Setup, SystemConfig,
                    check_memory, validate_multi_user)
from .radicals import ExactValue, RootSum
from .single_level import rate_single_level


def _sqrt_nu(level: LevelSpec) -> RootSum:
    return RootSum.sqrt(level.files * level.users)


def _sqrt_n_over_u(level: LevelSpec) -> RootSum:
    return RootSum.sqrt(Fraction(level.files, level.users))


def simplify(value: ExactValue) -> ExactValue:
    if isinstance(value, RootSum) and value.is_rational():
        return value.as_fraction()
    return value


class PartitionInfeasibleError(RuntimeError):
    """No contiguous split satisfies the partition conditions.

    Not expected for instances passing the regularity validation; irregular
    instances can land in memory ranges with no feasible split.
    """

    def __init__(self, config: SystemConfig, M: Fraction):
        self.config = config
        self.M = M
        super().__init__(f"no feasible level partition at M={M}")


@dataclass(frozen=True)
class Partition:
    """(H, I, J) split with its derived quantities.

    ``S_I = sum sqrt(N_i*U_i)`` over I, ``T_J = sum N_j`` over J,
    ``V_I = sum N_i/K`` over I, and ``M_tilde = (M - T_J + V_I)/S_I``
    (None encodes +infinity for the everything-cacheable case I = {}).
    """

    H: frozenset[int]
    I: frozenset[int]
    J: frozenset[int]
    S_I: RootSum
    T_J: Fraction
    V_I: Fraction
    M_tilde: Optional[RootSum]

    def key(self) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
        return (self.H, self.I, self.J)


@dataclass(frozen=True)
class RefinedPartition:
    """I subdivided into low/intermediate/high memory regimes."""

    H: frozenset[int]
    I0: frozenset[int]
    Iprime: frozenset[int]
    I1: frozenset[int]
    J: frozenset[int]
    base: Partition


@dataclass(frozen=True)
class MemoryAllocation:
    """Per-level memory amounts (exact, possibly irrational) and fractions."""

    amounts: tuple[ExactValue, ...]
    M: Fraction

    @property
    def alphas(self) -> Optional[tuple[ExactValue, ...]]:
        if self.M == 0:
            return None
        return tuple(simplify(a * Fraction(1, self.M)) for a in self.amounts)


def _sums(config: SystemConfig, I: Iterable[int],
          J: Iterable[int]) -> tuple[RootSum, Fraction, Fraction]:
    """``S_I``, ``T_J`` and ``V_I`` of a split, as defined on `Partition`.

    I is summed in the caller's order, which fixes how equivalent kernels
    of ``S_I`` are represented.
    """
    levels = config.levels
    S_I = RootSum(0)
    for i in I:
        S_I = S_I + _sqrt_nu(levels[i])
    T_J = sum((Fraction(levels[j].files) for j in J), Fraction(0))
    V_I = sum((Fraction(levels[i].files, config.caches) for i in I), Fraction(0))
    return S_I, T_J, V_I


def _split_conditions(config: SystemConfig, M: Fraction,
                      H: Sequence[int], I: Sequence[int], J: Sequence[int]) -> bool:
    """Exact check of the three membership conditions for a candidate split."""
    K = config.caches
    levels = config.levels
    if not I:
        return False
    S_I, T_J, V_I = _sums(config, I, J)
    KW = K * (M - T_J + V_I)
    # h in H:  M_tilde < (1/K)sqrt(N_h/U_h)    <=>  K*W < S_I*sqrt(N_h/U_h)
    for h in H:
        if not (S_I * _sqrt_n_over_u(levels[h]) - KW).sign() > 0:
            return False
    # i in I:  (1/K)x_i <= M_tilde <= (1+1/K)x_i
    for i in I:
        bound = S_I * _sqrt_n_over_u(levels[i])
        if (KW - bound).sign() < 0:
            return False
        if (KW - (K + 1) * bound).sign() > 0:
            return False
    # j in J:  (1+1/K)x_j < M_tilde
    for j in J:
        bound = (K + 1) * (S_I * _sqrt_n_over_u(levels[j]))
        if not (KW - bound).sign() > 0:
            return False
    return True


def _build_partition(config: SystemConfig, M: Fraction,
                     H: frozenset[int], I: frozenset[int], J: frozenset[int]) -> Partition:
    S_I, T_J, V_I = _sums(config, I, J)
    M_tilde = None
    if I:
        M_tilde = (M - T_J + V_I) * S_I.inverse()
    return Partition(H, I, J, S_I, T_J, V_I, M_tilde)


def find_m_feasible_partition(config: SystemConfig, M: MemoryLike) -> Partition:
    """Find a partition satisfying the membership conditions at memory M.

    Levels are scanned in ascending ``sqrt(N_i/U_i)`` order; the
    full-storage set must be a prefix and the no-memory set a suffix of
    that order, which the threshold structure makes exhaustive.  Among
    feasible splits the one with the smallest full-storage set, then the
    smallest no-memory set, is returned.  If the memory exceeds the total
    library size, everything is fully stored.
    """
    M = check_memory(M)
    levels = config.levels
    L = len(levels)
    total = sum(lv.files for lv in levels)
    if M > total:
        return _build_partition(config, M, frozenset(), frozenset(), frozenset(range(L)))
    order = sorted(range(L), key=lambda i: (Fraction(levels[i].files, levels[i].users), i))
    feasible = []
    for j_end in range(L):
        for h_start in range(j_end + 1, L + 1):
            J = order[:j_end]
            I = order[j_end:h_start]
            H = order[h_start:]
            if _split_conditions(config, M, H, I, J):
                feasible.append((len(J), len(H), frozenset(H), frozenset(I), frozenset(J)))
    if not feasible:
        raise PartitionInfeasibleError(config, M)
    feasible.sort(key=lambda item: (item[0], item[1]))
    _, _, H, I, J = feasible[0]
    return _build_partition(config, M, H, I, J)


def enumerate_feasible_partitions(config: SystemConfig, M: MemoryLike) -> set:
    """Brute-force oracle: all feasible (H, I, J) label assignments.

    Enumerates all 3^L assignments and keeps the ones passing the exact
    membership conditions (plus the everything-cacheable convention when M
    exceeds the library).  Exponential; for tests only.
    """
    M = check_memory(M)
    L = len(config.levels)
    total = sum(lv.files for lv in config.levels)
    out = set()
    if M > total:
        out.add((frozenset(), frozenset(), frozenset(range(L))))
    for labels in itertools.product("HIJ", repeat=L):
        H = [i for i, c in enumerate(labels) if c == "H"]
        I = [i for i, c in enumerate(labels) if c == "I"]
        J = [i for i, c in enumerate(labels) if c == "J"]
        if _split_conditions(config, M, H, I, J):
            out.add((frozenset(H), frozenset(I), frozenset(J)))
    return out


def allocate_memory(partition: Partition, config: SystemConfig, M: MemoryLike) -> MemoryAllocation:
    """Per-level memory: none for H, everything for J, threshold-matched for I."""
    M = check_memory(M)
    levels = config.levels
    K = config.caches
    amounts: list[ExactValue] = []
    for idx, lv in enumerate(levels):
        if idx in partition.J:
            amounts.append(Fraction(lv.files))
        elif idx in partition.I:
            assert partition.M_tilde is not None
            amounts.append(simplify(_sqrt_nu(lv) * partition.M_tilde - Fraction(lv.files, K)))
        else:
            amounts.append(Fraction(0))
    return MemoryAllocation(tuple(amounts), M)


def refine_partition(config: SystemConfig, M: MemoryLike,
                     partition: Optional[Partition] = None) -> RefinedPartition:
    """Split I by memory regime: low (I0), intermediate (I'), high (I1)."""
    M = check_memory(M)
    if partition is None:
        partition = find_m_feasible_partition(config, M)
    K = config.caches
    levels = config.levels
    I0, I1, Iprime = set(), set(), set()
    for i in partition.I:
        x = _sqrt_n_over_u(levels[i])
        if (M - Fraction(2, K) * x).sign() < 0:
            I0.add(i)
        elif (M - (config.beta + Fraction(1, K)) * x).sign() > 0:
            I1.add(i)
        else:
            Iprime.add(i)
    refined = RefinedPartition(partition.H, frozenset(I0), frozenset(Iprime),
                               frozenset(I1), partition.J, partition)
    if len(I1) > 1 and validate_multi_user(config).ok:
        raise RuntimeError(f"regular instance produced {len(I1)} high-memory levels; "
                           "expected at most one")
    return refined


def rate_memory_sharing(config: SystemConfig, M: MemoryLike, strict: bool = False) -> RateReport:
    """Total memory-sharing rate: sum of per-level single-level rates.

    The exact rate sums ``rate_single_level`` over the allocation.  The
    closed-form display expression
    ``sum_H K*U_h + S_I^2/(M - T_J) - sum_I U_i`` is attached to the report
    as ``approx_rate``; it is a known approximation and is never used in
    gap checks.
    """
    M = check_memory(M)
    validation = validate_multi_user(config).raise_if_strict(strict)
    partition = find_m_feasible_partition(config, M)
    allocation = allocate_memory(partition, config, M)
    K = config.caches
    rate: ExactValue = Fraction(0)
    for lv, amount in zip(config.levels, allocation.amounts):
        rate = rate + rate_single_level(amount, K, lv.files, lv.users)
    approx = None
    if partition.I and M != partition.T_J:
        approx = simplify(
            sum(K * config.levels[h].users for h in partition.H)
            + (partition.S_I * partition.S_I) * (1 / Fraction(M - partition.T_J))
            - sum(config.levels[i].users for i in partition.I))
    return RateReport(
        setup=Setup.MULTI_USER,
        memory=M,
        achievable=simplify(rate),
        regular=validation.ok,
        partition=partition,
        allocation=allocation,
        extras={"approx_rate": approx},
    )


def level_rate_bounds(config: SystemConfig, M: MemoryLike) -> list[ExactValue]:
    """Per-level caps on the memory-sharing rates, by refined regime.

    No-memory levels are capped at ``K*U_h`` exactly; partial-memory levels
    at ``2*S_I*sqrt(N_i*U_i)/(M - T_J + V_I)``; high-memory levels at
    ``(1/beta)*U_i*(1 - (M-T_J)/N_i) + (1/beta)*U_i*(S_I0+S_I')/sqrt(N_i*U_i)``
    with the config's separation constant beta; fully stored levels at 0.
    """
    M = check_memory(M)
    refined = refine_partition(config, M)
    part = refined.base
    K = config.caches
    levels = config.levels
    inv_beta = 1 / config.beta
    W = M - part.T_J + part.V_I
    S_low = RootSum(0)
    for i in refined.I0 | refined.Iprime:
        S_low = S_low + _sqrt_nu(levels[i])
    bounds: list[ExactValue] = []
    for idx, lv in enumerate(levels):
        if idx in refined.H:
            bounds.append(Fraction(K * lv.users))
        elif idx in refined.I0 or idx in refined.Iprime:
            bounds.append(simplify(2 * part.S_I * _sqrt_nu(lv) * (1 / Fraction(W))))
        elif idx in refined.I1:
            nu = lv.files * lv.users
            term1 = inv_beta * lv.users * (1 - Fraction(M - part.T_J, lv.files))
            term2 = inv_beta * lv.users * (S_low * _sqrt_nu(lv)) * Fraction(1, nu)
            bounds.append(simplify(term1 + term2))
        else:
            bounds.append(Fraction(0))
    return bounds
