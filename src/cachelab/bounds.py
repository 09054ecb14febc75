"""Information-theoretic lower bounds and gap-ratio verification.

The multi-user bound sums per-level cut terms ``min{s_i*t*U_i, N_i/(s_i*b)}``
minus ``(t/b)*M`` over a choice of caches-per-window ``t``, broadcast count
``b``, and per-level window counts ``s_i``.  Any parameter choice yields a
valid bound, so the optimizer maximizes over a sound candidate grid rather
than the full (astronomically large) ``b`` range; the grid always contains
the closed-form witness parameters used by the gap analysis, so the audited
ratios stay within the published constants.  For each parameter choice the
bound is a line in M, and the grid does not depend on M, so the optimizer
builds the upper envelope of these lines once per config and finds each
memory's maximum on it by bisection, exactly; no float takes part.

The envelope is built in one integer pass.  The ``b`` ladder that every
window size shares is built once per config, and each ``t`` adds only its
crossing points.  A candidate ``(t, b)`` whose reduced pair
``(t/g, b/g)``, ``g = gcd(t, b) > 1``, is itself a candidate is skipped: the
reduced pair has the same slope and a cut sum at least as large, so the
skipped line could never be kept.  Window counts are recomputed only for
the lines left on the envelope.

The single-user bound is a cut-set recipe keyed on the four-regime level
partition, with one small-memory branch below M = 1/6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .model import MemoryLike, Setup, SystemConfig, check_memory
from .radicals import ExactValue
from .single_user import refine_partition_su

MULTI_USER_GAP = 192
SINGLE_USER_GAP = 72
SMALL_MEMORY_GAP = Fraction(6, 5)
SMALL_MEMORY_THRESHOLD = Fraction(1, 6)
# The envelope holds lines for every window size t up to K/2.  At this many
# caches the first bound query takes 0.23-0.25 s on one level (N = 4096),
# 0.33-0.35 s on four levels of 4096..16384 files and 1.5-1.6 s on four
# regular levels 6400 times apart in popularity (2 vCPU, CPython 3.11.7);
# above it the multi-user bound is refused.
MAX_BOUND_CACHES = 4096


@dataclass(frozen=True)
class MultiUserBoundParams:
    """Window parameters: t caches and b broadcasts per window, s_i windows."""

    t: int
    b: int
    s: tuple[int, ...]

    def validate(self, K: int, L: int) -> None:
        smax = _window_limit(K, self.t, self.b)
        if len(self.s) != L:
            raise ValueError(f"need {L} window counts, got {len(self.s)}")
        for i, si in enumerate(self.s):
            if not (1 <= si <= smax):
                raise ValueError(f"s[{i}]={si} outside 1..{smax}")


def _window_limit(K: int, t: int, b: int) -> int:
    """The largest window count ``K // (2t)``; raises ValueError when t or b
    is out of range or no window count is left."""
    if t < 1 or t > K:
        raise ValueError(f"t={t} outside 1..{K}")
    if b < 1:
        raise ValueError(f"b={b} must be positive")
    smax = K // (2 * t)
    if smax < 1:
        raise ValueError(f"t={t} leaves no valid window count for K={K}")
    return smax


def _cut_sum(config: SystemConfig, t: int, b: int, s: tuple[int, ...]) -> tuple[int, int]:
    """Sum of the cut terms ``min{s_i*t*U_i, N_i/(s_i*b)}``: the bound at M = 0.

    Each term's side is chosen by integer cross-multiplication, and the
    fractional terms are summed as one integer numerator and denominator,
    returned unreduced as ``(numerator, denominator)``.
    """
    whole, num, den = 0, 0, 1
    for lv, si in zip(config.levels, s):
        if si * si * t * b * lv.users <= lv.files:
            whole += si * t * lv.users
        else:  # N_i/(s_i*b); the common factor 1/b is applied at the end
            num, den = num * si + lv.files * den, den * si
    return whole * den * b + num, den * b


def lower_bound_multi_user(config: SystemConfig, M: MemoryLike,
                           params: MultiUserBoundParams) -> Fraction:
    """Exact bound value for one parameter choice; may be negative."""
    M = check_memory(M)
    params.validate(config.caches, len(config.levels))
    return (Fraction(*_cut_sum(config, params.t, params.b, params.s))
            - Fraction(params.t, params.b) * M)


def best_cut_sizes(config: SystemConfig, t: int, b: int) -> tuple[int, ...]:
    """Separable per-level choice of the window counts for fixed (t, b).

    Each per-level term ``min{s*t*U, N/(s*b)}`` is ``s*t*U``, increasing, up
    to ``sqrt(N/(t*b*U))`` and ``N/(s*b)``, decreasing, beyond it, so the
    integer argmax is the floor of that root or the next count.  Ties
    resolve to the smaller count.  Raises ValueError, with the messages of
    `MultiUserBoundParams.validate`, when t or b leaves no valid window.
    """
    smax = _window_limit(config.caches, t, b)
    out = []
    for lv in config.levels:
        denom = t * b * lv.users
        base = math.isqrt(lv.files * denom) // denom  # floor(sqrt(N/(t*b*U)))
        if base < 1:
            out.append(1)
        elif base >= smax:
            out.append(smax)
        else:  # N/((base+1)*b) > base*t*U, cross-multiplied
            out.append(base + 1 if lv.files > base * (base + 1) * denom else base)
    return tuple(out)


def _candidate_b_values(config: SystemConfig, t: int) -> tuple[int, ...]:
    """Broadcast-count candidates for one window size t.

    Depends only on (config, t), never on M, so the maximized bound is a
    max over a fixed family of lines in M (see `_bound_lines`).  The grid
    combines the shared ladder of `_b_ladder` with the per-level crossing
    points ``N_i/(t*U_i*s^2)`` where the cut terms switch sides.
    """
    b_max = _b_search_limit(config)
    levels = [(lv.files, lv.users) for lv in config.levels]
    return tuple(sorted(_b_ladder(b_max) | _b_crossings(levels, t, config.caches, b_max)))


def _b_search_limit(config: SystemConfig) -> int:
    """Upper end of the broadcast-count grid, from the closed-form scale
    ``64*(sum N_i)^2 / (sum sqrt(N_i*U_i))^2`` (over-approximated with the
    rational lower bound on the denominator)."""
    total_files = sum(lv.files for lv in config.levels)
    s_sq_int = sum(lv.files * lv.users for lv in config.levels)
    return max(1, -(-64 * total_files ** 2 // s_sq_int))


def _b_ladder(b_max: int) -> set[int]:
    """The part of every t's grid that does not depend on t: the values
    1..16, a geometric ladder of 2^k and 3*2^(k-1) (the per-level window
    counts adapt to b, so ladder resolution costs at most a constant
    factor), and `b_max`, all within 1..b_max."""
    cands = set(range(1, min(16, b_max) + 1))
    b = 1
    while b <= b_max:
        cands.add(b)
        if 3 * b // 2 <= b_max:
            cands.add(3 * b // 2)
        b *= 2
    cands.add(b_max)
    return cands


def _b_crossings(levels: list[tuple[int, int]], t: int, K: int, b_max: int) -> set[int]:
    """The part of t's grid that depends on t: the floors and ceilings of the
    crossing points ``N_i/(t*U_i*s^2)`` for s in 1..4 and ``K // (2t)``,
    within 1..b_max."""
    cands = set()
    for files, users in levels:
        for s in {1, 2, 3, 4, K // (2 * t)}:
            q, r = divmod(files, t * users * s * s)
            cands.add(q)
            cands.add(q + 1)
            if r:
                cands.add(q + 2)
    return {c for c in cands if 1 <= c <= b_max}


@lru_cache(maxsize=16)
def _bound_lines(config: SystemConfig) -> tuple[tuple[Fraction, Fraction, tuple], ...]:
    """Upper envelope of the bound lines ``A - (t/b)*M``.

    There is one line per grid candidate (t, b) with its best window counts
    s, and A is the cut sum at M = 0.  Entries are ``(A, t/b, (t, b, s))``,
    steepest line first.  Of lines with equal slope only the one with the
    largest A, then the smallest key, is kept.  A line is dropped only when
    its neighbours beat it strictly at every M, so every line that attains
    the maximum somewhere, exact ties included, stays.

    A candidate (t, b) with g = gcd(t, b) > 1 is skipped when (t/g, b/g) is
    in the grid of t/g: the window counts g*s are valid for (t/g, b/g)
    whenever s is valid for (t, b), and give every cut term the same value,
    so A(t, b) <= A(t/g, b/g), and the line of equal slope met first is
    never replaced by one that is not strictly higher.  A and its window
    counts are computed inline as in `best_cut_sizes` and `_cut_sum`; only
    the lines left on the envelope get their s from `best_cut_sizes`.
    """
    K = config.caches
    levels = [(lv.files, lv.users) for lv in config.levels]
    b_max = _b_search_limit(config)
    ladder = _b_ladder(b_max)
    crossings: list[set[int]] = [set()]  # t -> its grid values outside the ladder
    by_slope: dict[tuple[int, int], tuple] = {}  # reduced (t, b) -> line
    for t in range(1, K // 2 + 1):
        smax = K // (2 * t)
        extra = _b_crossings(levels, t, K, b_max) - ladder
        crossings.append(extra)
        for grid in (ladder, extra):
            for b in grid:
                g = math.gcd(t, b)
                if g > 1 and (b // g in ladder or b // g in crossings[t // g]):
                    continue
                whole, num, den = 0, 0, 1
                for files, users in levels:
                    denom = t * b * users
                    base = math.isqrt(files // denom)  # floor(sqrt(N/(t*b*U)))
                    if base < 1:  # s = 1, term N/b
                        num += files * den
                    elif base >= smax:  # s = smax, term s*t*U
                        whole += smax * t * users
                    elif files > base * (base + 1) * denom:  # s = base + 1, N/(s*b)
                        num, den = num * (base + 1) + files * den, den * (base + 1)
                    else:  # s = base, term s*t*U
                        whole += base * t * users
                a, d = whole * den * b + num, den * b
                slope = (t // g, b // g)
                kept = by_slope.get(slope)
                # Keys of one slope arrive in increasing t, so equal A keeps the first.
                if kept is None or a * kept[1] > kept[0] * d:
                    by_slope[slope] = (a, d, t, b)
    # Distinct reduced slopes differ by at least 1/P, so floor(t*P/b) orders
    # them strictly, in integers.
    P = max((b for _, b in by_slope), default=1) ** 2
    hull: list[tuple] = []
    for slope in sorted(by_slope, key=lambda tb: tb[0] * P // tb[1], reverse=True):
        line = a3, d3, t3, b3 = by_slope[slope]
        # The last line is below the higher of its neighbours at every M iff
        # it meets the one before it strictly right of where it meets this
        # one: (A1-A2)/(m1-m2) > (A2-A3)/(m2-m3), cross-multiplied.
        while len(hull) >= 2:
            (a1, d1, t1, b1), (a2, d2, t2, b2) = hull[-2], hull[-1]
            if ((a1 * d2 - a2 * d1) * (t2 * b3 - t3 * b2) * d3 * b1
                    <= (a2 * d3 - a3 * d2) * (t1 * b2 - t2 * b1) * d1 * b3):
                break
            hull.pop()
        hull.append(line)
    return tuple((Fraction(a, d), Fraction(t, b), (t, b, best_cut_sizes(config, t, b)))
                 for a, d, t, b in hull)


def optimize_lower_bound_mu(config: SystemConfig, M: MemoryLike
                            ) -> tuple[Fraction, Optional[MultiUserBoundParams]]:
    """Best bound over the candidate parameter grid, clamped at zero.

    Every parameter choice in range yields a valid bound, so maximizing
    over the candidate grid is sound by construction.  The maximum is read
    off the config's cached envelope of lines (`_bound_lines`), exactly;
    ties keep the lexicographically smallest (t, b, s).  Raises ValueError
    for more than ``MAX_BOUND_CACHES`` caches.
    """
    M = check_memory(M)
    if config.caches < 2:
        return Fraction(0), None
    if config.caches > MAX_BOUND_CACHES:
        raise ValueError(f"the multi-user lower bound is limited to {MAX_BOUND_CACHES} caches, "
                         f"got {config.caches}")
    lines = _bound_lines(config)

    def value(k: int) -> Fraction:
        A, slope, _ = lines[k]
        return A - slope * M

    # Line k is not below line k + 1 exactly when M is at most their
    # breakpoint, and the breakpoints of an envelope do not decrease, so
    # the first such line (the maximum) is found by bisection.
    lo, hi = 0, len(lines) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if value(mid) >= value(mid + 1):
            hi = mid
        else:
            lo = mid + 1
    best_val, best_key = value(lo), lines[lo][2]
    for k in range(lo + 1, len(lines)):  # lines tied with the maximum follow it
        if value(k) < best_val:
            break
        best_key = min(best_key, lines[k][2])
    return max(best_val, Fraction(0)), MultiUserBoundParams(*best_key)


@dataclass(frozen=True)
class SingleUserBoundParams:
    """Cut choice: b broadcasts, per-level cut sizes, and the collective cut."""

    b: int
    s: tuple[int, ...]   # per level; 0 for levels inside the collective cut
    s_J: int
    n_J: int


def lower_bound_single_user(config: SystemConfig, M: MemoryLike
                            ) -> tuple[Fraction, SingleUserBoundParams]:
    """Cut-set bound for the single-user setup, clamped at zero.

    Below M = 1/6 a single broadcast with every cache cut gives
    ``sum K_i*(min{1, N_i/K_i} - M)``.  Otherwise ``b = ceil(6M)`` and the
    cut sizes follow the four-regime recipe, the full-storage-regime levels
    being decoded collectively.  The total cut budget ``sum s_i + s_J <= K``
    is audited and repaired greedily (largest cut first) if violated; a
    bound over fewer caches is still a bound.
    """
    M = check_memory(M)
    levels = config.levels
    K = config.caches
    if M < SMALL_MEMORY_THRESHOLD:
        value = Fraction(0)
        s = []
        for lv in levels:
            s.append(lv.users)
            value += lv.users * (min(Fraction(1), Fraction(lv.files, lv.users)) - M)
        params = SingleUserBoundParams(1, tuple(s), 0, 0)
        return max(value, Fraction(0)), params

    b = math.ceil(6 * M)
    refined = refine_partition_su(config, M)
    s = [0] * len(levels)
    for g in refined.G:
        s[g] = min(1, levels[g].users)
    for h in refined.H:
        s[h] = min(-(-levels[h].users // 6), levels[h].users)
    for i in refined.I:
        s[i] = min(math.ceil(Fraction(levels[i].files) / (6 * M)), levels[i].users)
    n_total_j = sum(levels[j].files for j in refined.J)
    k_total_j = sum(levels[j].users for j in refined.J)
    if refined.J and M < n_total_j:
        s_j = min(math.ceil(Fraction(n_total_j) / (6 * M)), k_total_j)
    else:
        s_j = 0

    # Cut budget repair: the recipes respect per-level budgets, but clamp
    # and shrink defensively so the cut never exceeds the cache count.
    while sum(s) + s_j > K:
        if s_j >= max(s):
            s_j -= 1
        else:
            s[s.index(max(s))] -= 1

    value = Fraction(0)
    for idx, lv in enumerate(levels):
        if idx in refined.J or s[idx] == 0:
            continue
        value += s[idx] * (min(Fraction(1), Fraction(lv.files, s[idx] * b)) - Fraction(M, b))
    n_j = 0
    if s_j > 0:
        per_broadcast = sum(min(b, levels[j].files) for j in refined.J)
        n_j = min(n_total_j, s_j * b, per_broadcast)
        value += Fraction(n_j - s_j * M, b)
    params = SingleUserBoundParams(b, tuple(s), s_j, n_j)
    return max(value, Fraction(0)), params


@dataclass(frozen=True)
class GapReport:
    """Achievable-to-lower-bound ratio against the applicable constant.

    `within` is ``achievable <= constant * lower`` for positive lower
    bounds, and requires a zero achievable rate when the lower bound is
    zero.  `inversion` flags lower > achievable, which would indicate a
    correctness bug (the scheme rate always dominates the optimum).
    """

    achievable: ExactValue
    lower: Fraction
    ratio: Optional[ExactValue]
    constant: Fraction
    within: bool
    inversion: bool


def gap_report(setup: Setup, achievable: ExactValue, lower: Fraction,
               M: MemoryLike, config: SystemConfig) -> GapReport:
    M = check_memory(M)
    if setup is Setup.MULTI_USER:
        constant = Fraction(MULTI_USER_GAP)
    elif M < SMALL_MEMORY_THRESHOLD:
        constant = SMALL_MEMORY_GAP
    else:
        constant = Fraction(SINGLE_USER_GAP)
    inversion = achievable < lower
    if lower > 0:
        ratio = achievable / lower
        within = achievable <= constant * lower
    else:
        zero = achievable == 0
        ratio = Fraction(0) if zero else None
        within = zero
    return GapReport(achievable, lower, ratio, constant, within, inversion)
