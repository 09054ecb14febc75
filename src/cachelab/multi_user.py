"""Memory-sharing achievability for the multi-user setup.

The cache memory is split across popularity levels according to a
three-way partition (no memory / partial memory / full storage) whose
membership conditions compare the normalized memory
``(M - T_J + V_I) / S_I`` against per-level thresholds involving
``sqrt(N_i/U_i)``.  Those thresholds are irrational, so every membership
decision goes through the certified exact comparisons of
:mod:`cachelab.radicals`; boundary equalities assign a level to the
partial-memory set.

Everything that does not depend on M (the level order, the sums over each
candidate I, the threshold constants with their enclosures, ``S_I^-1``)
lives in a per-config `_SplitPlan`, cached for the last 16 configs and
filled only as far as the queries reach; a memory then costs rational
comparisons plus the M-dependent rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from .model import (BETA, LevelSpec, MemoryLike, RateReport, Setup, SystemConfig,
                    check_memory, validate_multi_user)
from .radicals import Enclosure, ExactValue, RootSum
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


class _Block:
    """Memory-independent state of one partial-memory set I, filled lazily.

    The membership conditions compare ``K*W = K*(M - T_J + V_I)`` with the
    cut constants ``S_I*sqrt(N_l/U_l)`` (`cut`), and the allocation scales
    ``sqrt(N_i*U_i)*S_I^-1`` (`share`) by W.  S_I is summed in the order of
    the frozenset I, as `Partition.S_I` is; only the value of a cut
    constant matters, but its inverse, square and shares are printed.
    """

    __slots__ = ("I", "S_I", "V_I", "_levels", "_x", "_cuts", "_inverse",
                 "_square", "_shares")

    def __init__(self, config: SystemConfig, x: tuple[RootSum, ...], I: frozenset[int]):
        self.I = I
        self.S_I, _, self.V_I = _sums(config, I, ())
        self._levels, self._x = config.levels, x
        self._cuts: dict[int, Enclosure] = {}
        self._inverse: Optional[RootSum] = None
        self._square: Optional[RootSum] = None
        self._shares: dict[int, RootSum] = {}

    def cut(self, level: int) -> Enclosure:
        cut = self._cuts.get(level)
        if cut is None:
            cut = self._cuts[level] = Enclosure(self.S_I * self._x[level])
        return cut

    def inverse(self) -> RootSum:
        if self._inverse is None:
            self._inverse = self.S_I.inverse()
        return self._inverse

    def square(self) -> RootSum:
        if self._square is None:
            self._square = self.S_I * self.S_I
        return self._square

    def share(self, i: int) -> RootSum:
        share = self._shares.get(i)
        if share is None:
            share = self._shares[i] = _sqrt_nu(self._levels[i]) * self.inverse()
        return share


class _SplitPlan:
    """Memory-independent state of a multi-user config's partition scan.

    Holds the level order, ``sqrt(N_i/U_i)``, the sums ``T_J`` of the
    prefixes of the order, the validation report, and one `_Block` per
    partial-memory set met so far (at most ``L*(L+1)/2`` from the scan).
    """

    def __init__(self, config: SystemConfig):
        levels = config.levels
        self.config = config
        self.order = tuple(sorted(range(len(levels)),
                                  key=lambda i: (Fraction(levels[i].files, levels[i].users), i)))
        self.total = sum(lv.files for lv in levels)
        self.x = tuple(_sqrt_n_over_u(lv) for lv in levels)
        self.T = [Fraction(0)]
        for i in self.order:
            self.T.append(self.T[-1] + levels[i].files)
        self._blocks: dict[frozenset[int], _Block] = {}
        self._validation = None

    def validation(self):
        if self._validation is None:
            self._validation = validate_multi_user(self.config)
        return self._validation

    def block(self, I: frozenset[int]) -> _Block:
        block = self._blocks.get(I)
        if block is None:
            block = self._blocks[I] = _Block(self.config, self.x, I)
        return block

    def admits(self, block: _Block, j_end: int, h_start: int, M: Fraction) -> bool:
        """Exact check of the three membership conditions for the split
        ``J = order[:j_end]``, ``I = order[j_end:h_start]`` (`block`),
        ``H = order[h_start:]``."""
        K = self.config.caches
        KW = K * (M - self.T[j_end] + block.V_I)
        num, den = KW.numerator, KW.denominator
        # h in H:  M_tilde < (1/K)x_h        <=>  S_I*x_h > K*W
        for h in self.order[h_start:]:
            if block.cut(h).sign_minus(num, den) <= 0:
                return False
        # i in I:  (1/K)x_i <= M_tilde <= (1+1/K)x_i
        for i in self.order[j_end:h_start]:
            cut = block.cut(i)
            if cut.sign_minus(num, den) > 0 or cut.sign_minus(num, den * (K + 1)) < 0:
                return False
        # j in J:  (1+1/K)x_j < M_tilde     <=>  S_I*x_j < K*W/(K+1)
        for j in self.order[:j_end]:
            if block.cut(j).sign_minus(num, den * (K + 1)) >= 0:
                return False
        return True


@lru_cache(maxsize=16)
def _split_plan(config: SystemConfig) -> _SplitPlan:
    return _SplitPlan(config)


def find_m_feasible_partition(config: SystemConfig, M: MemoryLike) -> Partition:
    """Find a partition satisfying the membership conditions at memory M.

    Levels are scanned in ascending ``sqrt(N_i/U_i)`` order; the
    full-storage set must be a prefix and the no-memory set a suffix of
    that order, which the threshold structure makes exhaustive.  Among
    feasible splits the one with the smallest full-storage set, then the
    smallest no-memory set, is returned, so the scan stops at the first
    feasible split in that order.  If the memory exceeds the total library
    size, everything is fully stored.  Everything but the comparisons with
    the memory comes from the config's cached `_SplitPlan`.
    """
    M = check_memory(M)
    plan = _split_plan(config)
    L = len(plan.order)
    if M > plan.total:
        return Partition(frozenset(), frozenset(), frozenset(range(L)), RootSum(0),
                         plan.T[L], Fraction(0), None)
    for j_end in range(L):
        for h_start in range(L, j_end, -1):
            block = plan.block(frozenset(plan.order[j_end:h_start]))
            if plan.admits(block, j_end, h_start, M):
                T_J = plan.T[j_end]
                W = M - T_J + block.V_I
                return Partition(frozenset(plan.order[h_start:]), block.I,
                                 frozenset(plan.order[:j_end]), block.S_I, T_J, block.V_I,
                                 W * block.inverse())
    raise PartitionInfeasibleError(config, M)


def allocate_memory(partition: Partition, config: SystemConfig, M: MemoryLike) -> MemoryAllocation:
    """Per-level memory: none for H, everything for J, threshold-matched for I.

    A level i in I gets ``W*(sqrt(N_i*U_i)*S_I^-1) - N_i/K`` with
    ``W = M - T_J + V_I``, so M is the memory the partition was found for.
    """
    M = check_memory(M)
    levels = config.levels
    K = config.caches
    if partition.I:
        block = _split_plan(config).block(partition.I)
        W = M - partition.T_J + partition.V_I
    amounts: list[ExactValue] = []
    for idx, lv in enumerate(levels):
        if idx in partition.J:
            amounts.append(Fraction(lv.files))
        elif idx in partition.I:
            amounts.append(simplify(W * block.share(idx) - Fraction(lv.files, K)))
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
    plan = _split_plan(config)
    I0, I1, Iprime = set(), set(), set()
    for i in partition.I:
        x = plan.x[i]
        if (M - Fraction(2, K) * x).sign() < 0:
            I0.add(i)
        elif (M - (BETA + Fraction(1, K)) * x).sign() > 0:
            I1.add(i)
        else:
            Iprime.add(i)
    refined = RefinedPartition(partition.H, frozenset(I0), frozenset(Iprime),
                               frozenset(I1), partition.J, partition)
    if len(I1) > 1 and plan.validation().ok:
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
    plan = _split_plan(config)
    validation = plan.validation().raise_if_strict(strict)
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
            + plan.block(partition.I).square() * (1 / Fraction(M - partition.T_J))
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
    with the separation constant beta = ``BETA``; fully stored levels at 0.
    """
    M = check_memory(M)
    refined = refine_partition(config, M)
    part = refined.base
    K = config.caches
    levels = config.levels
    inv_beta = 1 / BETA
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
