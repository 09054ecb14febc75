"""Memory-sharing achievability for the multi-user setup.

The cache memory is split across popularity levels according to a
three-way partition (no memory / partial memory / full storage) whose
membership conditions compare the normalized memory
``(M - T_J + V_I) / S_I`` against per-level thresholds involving
``sqrt(N_i/U_i)``.  Those thresholds are irrational, so every membership
decision goes through the certified exact comparisons of
:mod:`cachelab.radicals`; boundary equalities assign a level to the
partial-memory set.

Levels are scanned in the canonical order of `SystemConfig` (``N_i/U_i``
ascending, input order on ties), and a split is the index pair
``(j_end, h_start)``: J = ``range(j_end)``, I = ``range(j_end, h_start)``
and H = ``range(h_start, L)``.  Everything that does not depend on M (the
prefix sums ``T_J``, each level's threshold rules, the sums over each
candidate I, the threshold constants with their enclosures, ``S_I^-1``)
lives in a `_SplitPlan` that each config object keeps as
``config.fact(_SplitPlan)``, one block per split, filled only as far as the
queries reach.  Before the scan, integer comparisons of M with the prefix
sums and with each level's water-filling thresholds settle which side of
H and of J a level lies on wherever they can, so the scan tries only the
splits left; on separated levels that is one split.  A block also owns the
memory-independent parts of its split's report: the sets H and J with
``T_J``, the fixed amounts and rate of the H and J levels, and
``approx_rate``'s user constant; the plan owns the all-J partition of every
memory above the library size.  So a report at one memory computes only W,
the amounts and rates of the levels in I and ``approx_rate``; ``M_tilde``
waits for its first read.  A membership test forms
``K*W = K*(M - T_J + V_I)`` as an unreduced integer numerator and
denominator, from M's and from ``V_I - T_J``, which the block keeps as an
integer pair, and compares it by integer cross-multiplication with the
enclosures of the thresholds that bind, at the ends of H, I and J; no
Fraction is built unless M falls inside an enclosure.

The rest of the rate path is fraction-free where its values are rational.
A feasible split hands its W back as that integer pair.  The partition
keeps it with the split's block and builds ``M_tilde = S_I^-1 * W`` when
the field is first read: a printed report reads it, while the rate, the
bound and the gap never do.  `rate_memory_sharing` allocates from the
block of the split the scan found, with W as the same pair from
`_Block.weight`, so a level with a rational share (every split with one
partial level) gets its memory as one Fraction; a rational split adds its
per-level rates and its fixed rate as one integer pair, and forms a
rational ``approx_rate`` as one, so it builds one Fraction per reported
value.  The partition and the allocation are filled without the frozen
dataclass's per-field setattr calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .model import (BETA, LevelSpec, MemoryLike, RateReport, Setup, SystemConfig,
                    check_memory, validate_multi_user)
from .radicals import Enclosure, ExactValue, RootSum
from .single_level import rate_single_level


def _sqrt_nu(level: LevelSpec) -> ExactValue:
    return RootSum.sqrt(level.files * level.users)


def _sqrt_n_over_u(level: LevelSpec) -> ExactValue:
    return RootSum.sqrt(Fraction(level.files, level.users))


class _Pending:
    """``M_tilde = S_I^-1 * W`` of a feasible split, not yet computed: the
    split's block and W as `_Block.weight`'s integer pair."""

    __slots__ = ("block", "weight")

    def __init__(self, block: _Block, weight: tuple[int, int]):
        self.block, self.weight = block, weight

    def value(self) -> ExactValue:
        return self.block.inverse() * Fraction(*self.weight)


class _OnFirstRead:
    """Data descriptor of `Partition.M_tilde`, which the constructor may
    pass as a `_Pending`: the field's first read computes it and keeps the
    value, so every read, ``==`` and `repr` see the value.  Read on
    the class, it raises AttributeError, so the field has no default."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        value = obj.__dict__[self.name]
        if type(value) is _Pending:
            value = obj.__dict__[self.name] = value.value()
        return value

    def __set__(self, obj, value) -> None:
        obj.__dict__[self.name] = value


@dataclass(frozen=True)
class Partition:
    """(H, I, J) split with its derived quantities.

    ``S_I = sum sqrt(N_i*U_i)`` over I, ``T_J = sum N_j`` over J,
    ``V_I = sum N_i/K`` over I, and ``M_tilde = (M - T_J + V_I)/S_I``
    (None encodes +infinity for the everything-cacheable case I = {}).
    A value given to the constructor is kept as given; the scan gives
    ``M_tilde`` as a `_Pending`, which its first read computes, since the
    rate, the bound and the gap never read it and a printed report does.
    ``==`` and `repr` read it as well, so they see the value.  A partition
    hashes by its sets H, I and J, which equal partitions share, so one
    with an irrational (unhashable) ``S_I`` or ``M_tilde`` hashes too.
    """

    H: frozenset[int]
    I: frozenset[int]
    J: frozenset[int]
    S_I: ExactValue
    T_J: Fraction
    V_I: Fraction
    M_tilde: Optional[ExactValue] = _OnFirstRead()

    def __hash__(self) -> int:
        return hash((self.H, self.I, self.J))


@dataclass(frozen=True)
class MemoryAllocation:
    """Per-level memory amounts (exact, possibly irrational) and fractions."""

    amounts: tuple[ExactValue, ...]
    M: Fraction


def _sums(levels: tuple[LevelSpec, ...], K: int,
          I: Iterable[int]) -> tuple[ExactValue, Fraction]:
    """``S_I`` and ``V_I`` of a partial-memory set, as defined on `Partition`."""
    S_I: ExactValue = Fraction(0)
    for i in I:
        S_I = S_I + _sqrt_nu(levels[i])
    V_I = sum((Fraction(levels[i].files, K) for i in I), Fraction(0))
    return S_I, V_I


def _frozen(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields`, filled
    without the generated ``__init__``'s one ``object.__setattr__`` per
    field; ``==``, `hash`, `repr` and every read see what ``cls(**fields)``
    would hold (a `_Pending` ``M_tilde`` is computed on its first read)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _threshold_rules(levels: tuple[LevelSpec, ...], K: int,
                     T: list[int]) -> tuple[tuple, tuple]:
    """The `_side` rules of the thresholds ``g(x_l/K)`` (H) and
    ``g((1+1/K)*x_j)`` (J) of each level, for `find_m_feasible_partition`.

    Adjacent levels l, l+1 are *separated* when ``x_{l+1} >= (K+1)*x_l``,
    that is ``(K+1)^2*N_l*U_{l+1} <= N_{l+1}*U_l``; the ends of the order
    count as separated from the levels beyond them.  With ``T_l`` the
    prefix sums, ``g(x_l/K)`` is ``T_l`` if l-1, l are separated, else
    ``T_{l-1} + (sqrt(N_{l-1}*U_{l-1}*N_l/U_l) - N_{l-1})/K`` if l-2, l-1
    are: each level below l-1 is then full and l-1 is partial.  Likewise
    ``g((1+1/K)*x_j)`` is ``T_{j+1}`` if j, j+1 are separated, else
    ``T_{j+1} + ((K+1)*sqrt(N_j*N_{j+1}*U_{j+1}/U_j) - N_{j+1})/K`` if
    j+1, j+2 are.  A rule is ``(T, 0, 0, 0)`` for the threshold T,
    ``(T, n, u, c)`` for ``T + (r - n)/K`` with ``r = sqrt(c/u)``, or None
    when the threshold takes more than one root; the scan then knows only
    the bounds ``g(x_l/K) <= T_l`` and ``g((1+1/K)*x_j) >= T_{j+1}``.
    """
    L = len(levels)
    N, U = [lv.files for lv in levels], [lv.users for lv in levels]
    # separated[l] is the pair (l-1, l).
    separated = [True] + [(K + 1) ** 2 * N[l] * U[l + 1] <= N[l + 1] * U[l]
                          for l in range(L - 1)] + [True]
    h_rules, j_rules = [], []
    for l in range(L):
        if separated[l]:
            h_rules.append((T[l], 0, 0, 0))
        elif separated[l - 1]:
            h_rules.append((T[l - 1], N[l - 1], U[l], N[l] * N[l - 1] * U[l - 1]))
        else:
            h_rules.append(None)
        if separated[l + 1]:
            j_rules.append((T[l + 1], 0, 0, 0))
        elif separated[l + 2]:
            j_rules.append((T[l + 1], N[l + 1], U[l], (K + 1) ** 2 * N[l] * N[l + 1] * U[l + 1]))
        else:
            j_rules.append(None)
    return tuple(h_rules), tuple(j_rules)


def _side(rule: tuple, K: int, p: int, q: int) -> int:
    """The sign of ``M - g`` at ``M = p/q`` for the threshold g of a
    `_threshold_rules` rule.

    For one root, ``M - g`` has the sign of ``D - q*r`` with
    ``D = K*(p - T*q) + n*q``: negative if ``D <= 0``, else that of
    ``D^2*u - c*q^2``.
    """
    T, n, u, c = rule
    s = p - T * q
    if n:
        D = K * s + n * q
        if D <= 0:
            return -1
        s = D * D * u - c * q * q
    return (s > 0) - (s < 0)


class _Block:
    """Memory-independent state of the split ``(j_end, h_start)``, filled lazily.

    The membership conditions compare ``K*W = K*(M - T_J + V_I)`` with the
    cut constants ``S_I*sqrt(N_l/U_l)`` (`cut`), and the allocation scales
    ``sqrt(N_i*U_i)*S_I^-1`` (`share`) by W; `offset` is ``V_I - T_J`` as an
    integer numerator and positive denominator.

    The block also owns the parts of its split's report that do not depend
    on M: the sets H and J with ``T_J``, the fixed amounts (each J level's
    whole library, nothing for H), the fixed levels' rate ``K*sum U_H`` (a
    fully stored level sends nothing, a level with no memory ``K*U_h``), and
    ``approx_rate``'s user constant ``K*sum U_H - sum U_I``
    (`approx_users`).
    """

    __slots__ = ("H", "I", "J", "T_J", "S_I", "V_I", "offset", "J_amounts", "H_amounts",
                 "fixed_rate", "approx_users", "_levels", "_x", "_cuts", "_inverse",
                 "_square", "_shares")

    def __init__(self, plan: _SplitPlan, j_end: int, h_start: int):
        levels, K = plan.levels, plan.caches
        L = len(levels)
        self.H = frozenset(range(h_start, L))
        self.I = frozenset(range(j_end, h_start))
        self.J = frozenset(range(j_end))
        self.T_J = Fraction(plan.T[j_end])
        self.S_I, self.V_I = _sums(levels, K, self.I)
        offset = self.V_I - self.T_J
        self.offset = (offset.numerator, offset.denominator)
        self.J_amounts = plan.library[:j_end]
        self.H_amounts = (Fraction(0),) * (L - h_start)
        self.fixed_rate = K * sum(lv.users for lv in levels[h_start:])
        self.approx_users = self.fixed_rate - sum(lv.users for lv in levels[j_end:h_start])
        self._levels, self._x = levels, plan.x
        self._cuts: dict[int, Enclosure] = {}
        self._inverse: Optional[ExactValue] = None
        self._square: Optional[ExactValue] = None
        self._shares: Optional[tuple[ExactValue, ...]] = None

    def weight(self, M: Fraction) -> tuple[int, int]:
        """``W = M - T_J + V_I`` as an unreduced integer numerator and
        positive denominator."""
        c_num, c_den = self.offset
        m_den = M.denominator
        return M.numerator * c_den + c_num * m_den, m_den * c_den

    def cut(self, level: int) -> Enclosure:
        cut = self._cuts.get(level)
        if cut is None:
            cut = self._cuts[level] = Enclosure(self.S_I * self._x[level])
        return cut

    def inverse(self) -> ExactValue:
        if self._inverse is None:
            self._inverse = 1 / self.S_I
        return self._inverse

    def square(self) -> ExactValue:
        if self._square is None:
            self._square = self.S_I * self.S_I
        return self._square

    def shares(self) -> tuple[ExactValue, ...]:
        """``sqrt(N_i*U_i)*S_I^-1`` of each level of I, in level order."""
        if self._shares is None:
            inverse = self.inverse()
            self._shares = tuple(_sqrt_nu(self._levels[i]) * inverse for i in sorted(self.I))
        return self._shares


class _SplitPlan:
    """Memory-independent state of a multi-user config's partition scan.

    Holds the levels and cache count (not the config, which keeps the plan),
    ``sqrt(N_i/U_i)``, the integer prefix sums ``T[j] = sum_{l<j} N_l``,
    each level's library as a Fraction, the all-J `Partition` of every
    memory above the library size, each level's `_threshold_rules`, and one
    `_Block` per split met so far, keyed by its index pair
    ``(j_end, h_start)``.  A nonempty I fixes its split, so a
    partition's block is the one at ``(len(J), L - len(H))``.  A config
    that is not multi-user is refused with `validate_multi_user`'s
    ValueError.
    """

    def __init__(self, config: SystemConfig):
        config.fact(validate_multi_user)  # refuses a config of another setup
        self.levels = levels = config.levels
        self.caches = K = config.caches
        self.x = tuple(_sqrt_n_over_u(lv) for lv in levels)
        self.T = T = [0]
        for lv in levels:
            T.append(T[-1] + lv.files)
        self.library = tuple(Fraction(lv.files) for lv in levels)
        L = len(levels)
        self.full = _frozen(Partition, H=frozenset(), I=frozenset(), J=frozenset(range(L)),
                            S_I=Fraction(0), T_J=Fraction(T[L]), V_I=Fraction(0), M_tilde=None)
        self._blocks: dict[tuple[int, int], _Block] = {}
        self.h_rules, self.j_rules = _threshold_rules(levels, K, T)

    def split_block(self, j_end: int, h_start: int) -> _Block:
        """The block of ``I = range(j_end, h_start)``."""
        block = self._blocks.get((j_end, h_start))
        if block is None:
            block = self._blocks[j_end, h_start] = _Block(self, j_end, h_start)
        return block

    def admits(self, block: _Block, j_end: int, h_start: int,
               M: Fraction) -> Optional[tuple[int, int]]:
        """Exact check of the three membership conditions for the split
        ``(j_end, h_start)`` of `block`.

        The order sorts ``x = sqrt(N/U)`` ascending and ``S_I > 0``, so the
        cut constants ``S_I*x`` ascend along it too, and each condition binds
        at one end of its set: H's first level, I's last and first levels,
        and J's last level.  Only those four cuts are compared; levels with
        tied ``N/U`` share a cut value, so any of them decides alike.

        Returns ``W = M - T_J + V_I`` as `_Block.weight` gives it if the
        split is feasible, else None.
        """
        K = self.caches
        w_num, den = block.weight(M)
        num = K * w_num  # K*W over den
        # h in H:  M_tilde < (1/K)x_h        <=>  S_I*x_h > K*W
        if h_start < len(self.levels) and block.cut(h_start).sign_minus(num, den) <= 0:
            return None
        # i in I:  (1/K)x_i <= M_tilde <= (1+1/K)x_i
        if (block.cut(h_start - 1).sign_minus(num, den) > 0
                or block.cut(j_end).sign_minus(num, den * (K + 1)) < 0):
            return None
        # j in J:  (1+1/K)x_j < M_tilde     <=>  S_I*x_j < K*W/(K+1)
        if j_end and block.cut(j_end - 1).sign_minus(num, den * (K + 1)) >= 0:
            return None
        return w_num, den


def find_m_feasible_partition(config: SystemConfig, M: MemoryLike) -> Partition:
    """Find a partition satisfying the membership conditions at memory M.

    Levels are scanned in the canonical level order; the full-storage set
    must be a prefix and the no-memory set a suffix of that order, which the
    threshold structure makes exhaustive.  Among feasible splits the one with
    the smallest full-storage set, then the smallest no-memory set, is
    returned, so the scan stops at the first feasible split in that order.
    If the memory exceeds the total library size, everything is fully
    stored.  Everything but the comparisons with the memory comes from the
    config's `_SplitPlan`; a config that is not multi-user raises
    `validate_multi_user`'s ValueError.

    A feasible split exists at every memory ``0 <= M <= sum N_i``, on any
    config, regular or not; the split is a water-filling.  Write
    ``a_i = sqrt(N_i*U_i)``, ``x_i = sqrt(N_i/U_i)`` (so ``a_i*x_i = N_i``)
    and ``g(λ) = sum_i min(max(λ*a_i - N_i/K, 0), N_i)``.  g is continuous
    and nondecreasing, ``g(0) = 0``, and ``g = sum N_i`` for large λ.  For
    M > 0 take the smallest λ with ``g(λ) = M``; for M = 0 take
    ``λ = min x_i / K``.  At that λ put ``H = {h: λ < x_h/K}`` and
    ``J = {j: λ > (1+1/K)x_j}`` (both strict), and I the rest, where
    ``0 <= λ*a_i - N_i/K <= N_i``.  I is nonempty: at M = 0 it holds the
    levels of least x; for M > 0, with I empty every term of g would be
    constant near λ > 0, so a smaller λ would give M too.  H is a suffix and
    J a prefix of the order (levels with tied N/U fall alike), so I is a
    run of it.  Summing the terms, ``sum_I (λ*a_i - N_i/K) = M - T_J``, so
    ``λ = (M - T_J + V_I)/S_I = M_tilde`` and the split meets every
    membership condition.  `_SplitPlan.admits` decides those conditions
    exactly (the tests check it against every level's).

    Conversely, every feasible split s is the one of its own
    ``λ_s = M_tilde``: its conditions put each term of g at ``λ_s`` at 0 on
    H, at ``N_j`` on J and at ``λ_s*a_i - N_i/K`` on I, so ``g(λ_s) = M``,
    and they give ``H = {h: λ_s < x_h/K}`` and ``J = {j: λ_s > (1+1/K)x_j}``.
    As g is nondecreasing, ``M < g(x_l/K)`` puts level l in H of every
    feasible split and ``M > g(x_l/K)`` puts it outside; ``M > g((1+1/K)x_j)``
    puts j in J of every feasible split and ``M < g((1+1/K)x_j)`` puts it
    outside.  `_threshold_rules` gives those thresholds, exactly or as a
    bound, from integers (`_side` decides each sign, or leaves it open), so
    before its scan the plan settles the range of ``j_end`` and of
    ``h_start`` that every feasible split lies in.  The scan tries only the
    splits in that window, in the same order, so it returns the same split
    as a scan of every contiguous split with a nonempty I; the window holds
    the split built above, so the final raise is an internal check.  On
    separated levels the window is one split whenever M lies strictly
    between two prefix sums.
    """
    M = check_memory(M)
    plan = config.fact(_SplitPlan)
    L, K, T = len(plan.levels), plan.caches, plan.T
    p, q = M.numerator, M.denominator
    if p > T[L] * q:
        return plan.full
    # T_k <= M < T_{k+1}, or k = L at M = T_L.  As g(x_l/K) <= T_l, every
    # level below k is outside H, and so is k unless M = T_k; as
    # g((1+1/K)*x_j) >= T_{j+1}, every level from k on is outside J.
    k = 0
    while k < L and T[k + 1] * q <= p:
        k += 1
    h_lo = k + 1 if T[k] * q < p else max(k, 1)
    h_hi, j_lo, j_hi = L, 0, min(k, L - 1)
    # A threshold ascends with its level: the first level found in H puts
    # every later one there, and the last found in J every earlier one.
    for l in range(h_lo, L):
        rule = plan.h_rules[l]
        if rule is not None:
            side = _side(rule, K, p, q)
            if side < 0:
                h_hi = l
                break
            if side > 0:
                h_lo = l + 1
    for j in range(j_hi - 1, -1, -1):
        rule = plan.j_rules[j]
        if rule is not None:
            side = _side(rule, K, p, q)
            if side > 0:
                j_lo = j + 1
                break
            if side < 0:
                j_hi = j
    for j_end in range(j_lo, j_hi + 1):
        for h_start in range(h_hi, max(h_lo, j_end + 1) - 1, -1):
            block = plan.split_block(j_end, h_start)
            W = plan.admits(block, j_end, h_start, M)
            if W is not None:
                return _frozen(Partition, H=block.H, I=block.I, J=block.J, S_I=block.S_I,
                               T_J=block.T_J, V_I=block.V_I, M_tilde=_Pending(block, W))
    raise AssertionError(f"no feasible level partition at M={M}")


def rate_memory_sharing(config: SystemConfig, M: MemoryLike) -> RateReport:
    """Total memory-sharing rate: sum of per-level single-level rates.

    The allocation gives each level none of the memory in H, its whole
    library in J, and in I ``W*(sqrt(N_i*U_i)*S_I^-1) - N_i/K`` with
    ``W = M - T_J + V_I``, read from the block of the split the scan found.
    W is the integer pair w/d of `_Block.weight`; with a rational share a/b
    (every split with one partial level) the amount is the one Fraction
    ``(K*a*w - b*N_i*d) / (K*b*d)``.  The amounts of H and J, and their
    rates, are the block's: only the partial levels depend on M.

    The exact rate is the sum of the partial levels' single-level rates,
    in level order, and the block's whole-number rate ``K*sum U_H`` of the
    other levels.  On a rational split each level's rate is taken from its
    amount p/q by ``rate_single_level``'s two branches and the sum is kept
    as one integer pair, so the rate is one Fraction; an irrational split
    calls ``rate_single_level`` and adds the values in level order.  The closed-form display expression
    ``sum_H K*U_h + S_I^2/(M - T_J) - sum_I U_i`` is attached to the report
    as ``approx_rate``; it is a known approximation and is never used in
    gap checks.  A rational ``S_I^2 = s/r`` (one partial level) makes it the
    one Fraction ``(c*r*m + s*e) / (r*m)``, with ``M - T_J = m/e`` and c the
    block's user constant.  ``approx_rate`` is built at every memory; the
    partition's ``M_tilde`` only when it is first read.
    """
    M = check_memory(M)
    partition = find_m_feasible_partition(config, M)
    plan = config.fact(_SplitPlan)
    if not partition.I:
        amounts, rate, approx = plan.library, Fraction(0), None
    else:
        K, levels = plan.caches, plan.levels
        j_end, h_start = len(partition.J), len(levels) - len(partition.H)
        block = plan.split_block(j_end, h_start)
        w, d = block.weight(M)
        shares = block.shares()
        partial: list[ExactValue] = []
        if all(type(share) is Fraction for share in shares):
            # rate_single_level's two branches on each amount p/q, added
            # with the fixed rate as one integer pair num/den
            num, den = block.fixed_rate, 1
            for share, lv in zip(shares, levels[j_end:h_start]):
                a, b, N = share.numerator, share.denominator, lv.files
                amount = Fraction(K * a * w - b * N * d, K * b * d)
                partial.append(amount)
                p, q = amount.numerator, amount.denominator
                Nq = N * q
                if Nq >= K * p:
                    r_num, r_den = lv.users * K * (Nq - p), Nq
                else:
                    r_num, r_den = lv.users * (Nq - p), p
                num, den = num * r_den + r_num * den, den * r_den
            rate = Fraction(num, den)
        else:
            W = Fraction(w, d)
            rate = None
            for share, lv in zip(shares, levels[j_end:h_start]):
                amount = share * W - Fraction(lv.files, K)
                partial.append(amount)
                level_rate = rate_single_level(amount, K, lv.files, lv.users)
                rate = level_rate if rate is None else rate + level_rate
            if block.fixed_rate:
                rate = rate + block.fixed_rate
        amounts = block.J_amounts + tuple(partial) + block.H_amounts
        # T_J is a whole number, so M - T_J = (p - T_J*q)/q = m/e at M = p/q
        m, e = M.numerator - block.T_J.numerator * M.denominator, M.denominator
        approx = None
        if m:
            square = block.square()
            if type(square) is Fraction:
                s, r = square.numerator, square.denominator
                approx = Fraction(block.approx_users * r * m + s * e, r * m)
            else:
                approx = block.approx_users + square / Fraction(m, e)
    return RateReport(
        setup=Setup.MULTI_USER,
        memory=M,
        achievable=rate,
        regular=config.fact(validate_multi_user).ok,
        partition=partition,
        allocation=_frozen(MemoryAllocation, amounts=amounts, M=M),
        extras={"approx_rate": approx},
    )


def level_rate_bounds(config: SystemConfig, M: MemoryLike) -> list[ExactValue]:
    """Per-level caps on the memory-sharing rates, by memory regime.

    No-memory levels are capped at ``K*U_h`` exactly; partial-memory levels
    at ``2*S_I*sqrt(N_i*U_i)/(M - T_J + V_I)``; fully stored levels at 0.
    A partial level is in high memory when ``M >= (2/K)*x_i`` and
    ``M > (beta + 1/K)*x_i``, with ``x_i = sqrt(N_i/U_i)`` and the
    separation constant beta = ``BETA``, and is capped instead at
    ``(1/beta)*U_i*(1 - (M-T_J)/N_i) + (1/beta)*U_i*S_low/sqrt(N_i*U_i)``,
    S_low the sum of ``sqrt(N_l*U_l)`` over the other partial levels.

    They presume at most one high-memory level; more raise ValueError.  Two
    partial levels i < j need ``x_j <= (K+1)*x_i`` and regularity gives
    ``x_j >= 80*x_i``, so a regular config with K <= 78 always meets it.
    """
    M = check_memory(M)
    part = find_m_feasible_partition(config, M)
    K = config.caches
    x = config.fact(_SplitPlan).x
    high = frozenset(i for i in part.I
                     if not M < Fraction(2, K) * x[i] and M > (BETA + Fraction(1, K)) * x[i])
    if len(high) > 1:
        raise ValueError(f"the per-level caps presume at most one high-memory level, "
                         f"got {len(high)} at M={M}")
    levels = config.levels
    inv_beta = 1 / BETA
    W = M - part.T_J + part.V_I
    S_low, _ = _sums(levels, K, part.I - high)
    bounds: list[ExactValue] = []
    for idx, lv in enumerate(levels):
        if idx in part.H:
            bounds.append(Fraction(K * lv.users))
        elif idx in high:
            nu = lv.files * lv.users
            term1 = inv_beta * lv.users * (1 - Fraction(M - part.T_J, lv.files))
            term2 = inv_beta * lv.users * (S_low * _sqrt_nu(lv)) * Fraction(1, nu)
            bounds.append(term1 + term2)
        elif idx in part.I:
            bounds.append(2 * part.S_I * _sqrt_nu(lv) / W)
        else:
            bounds.append(Fraction(0))
    return bounds
