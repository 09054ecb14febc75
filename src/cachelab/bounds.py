"""Information-theoretic lower bounds and gap-ratio verification.

The multi-user bound sums per-level cut terms ``min{s_i*t*U_i, N_i/(s_i*b)}``
minus ``(t/b)*M`` over a choice of caches-per-window ``t``, broadcast count
``b``, and per-level window counts ``s_i``.  Any parameter choice yields a
valid bound, so the optimizer maximizes over a sound candidate grid rather
than the full (astronomically large) ``b`` range; the grid always contains
the closed-form witness parameters used by the gap analysis, so the audited
ratios stay within the published constants.  For each parameter choice the
bound is a line in M, and the grid does not depend on M, so the optimizer
builds the upper envelope of these lines once per config, together with
its breakpoints, the memories where consecutive lines meet, all as
integers.  The breakpoints do not decrease, so the maximum at M is the
first line whose breakpoint is at least M (`_locate`, a bisection by
integer cross-multiplication), and the lines tied with it are the ones
that follow while the breakpoint equals M; the smallest (t, b) among them
wins.  A query builds one Fraction, the line's value at M, and computes
the window counts of that one line; no float takes part.

The envelope is built in one integer pass.  The ``b`` ladder that every
window size shares is built once per config, and each ``t`` adds only its
crossing points.  For each t a level's window count depends on b through
``floor(sqrt(hi/b))`` with ``hi = N//(t*U)``: it is 1 for ``b > hi`` and
the largest count ``smax`` for ``b <= lo = N//(smax^2*t*U)``, so only the b
in between take a square root.  Each line is keyed by the integer
``floor(t*P/b)`` with ``P = b_max^2``: no grid b exceeds b_max, so two
distinct slopes differ by at least 1/P, and their keys differ and keep
their order.  Of the lines of one slope the largest A is kept, the first
met on ties, and the keys in decreasing order hand the lines to one hull
pass, steepest first.

Along each t's grid, every level keeps its window count and its side of the
min over runs of consecutive b, which end at per-level integer
thresholds.  Inside a run the cut sum is ``alpha + beta/b`` (alpha the s*t*U
terms, beta the sum of the other levels' N_i/s_i), so all of the run's lines
pass through the pivot ``(beta/t, alpha)``, and at any other M each line
strictly inside the run is strictly below the run's first or last line.  At
the pivot it ties with the first line, which has the same t and a smaller b,
so no query returns it, and only the two end lines of each run are built.
Every line a query can return stays on the envelope; `_bound_lines` gives
the proof.

The single-user bound is one cut-set recipe in one pass over the levels:
the levels with ``6M > N_j`` share a collective cut, the levels that the
clustering partition leaves uncoded cut a sixth of their users, and the
rest cut ``ceil(N_i/(6M))``; below M = 1/6 every user is cut in one
broadcast.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .model import MemoryLike, Setup, SystemConfig, check_memory
from .radicals import ExactValue
from .single_user import partition_su

MULTI_USER_GAP = 192
SINGLE_USER_GAP = 72
SMALL_MEMORY_GAP = Fraction(6, 5)
SMALL_MEMORY_THRESHOLD = Fraction(1, 6)
_MULTI_USER_CONSTANT = Fraction(MULTI_USER_GAP)
_SINGLE_USER_CONSTANT = Fraction(SINGLE_USER_GAP)
_ZERO = Fraction(0)
# The envelope holds lines for every window size t up to K/2.  At this many
# caches the first bound query takes 0.023-0.024 s on one level (N = 4096,
# U = 1), 0.065-0.069 s on four levels of 4096, 8192, 12288 and 16384 files
# (U = 1) and 0.174-0.177 s on four regular levels 6400 times apart in
# popularity (8192, 78643200, 671088640000 and 4294967296000000 files, 2, 3,
# 4 and 4 users per cache; best of 3 by `tools/layer_times.py`, three runs,
# 2 vCPU, CPython 3.11.7); above it the multi-user bound is refused.
MAX_BOUND_CACHES = 4096


@dataclass(frozen=True)
class MultiUserBoundParams:
    """Window parameters: t caches and b broadcasts per window, s_i windows."""

    t: int
    b: int
    s: tuple[int, ...]


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


def best_cut_sizes(config: SystemConfig, t: int, b: int) -> tuple[int, ...]:
    """Separable per-level choice of the window counts for fixed (t, b).

    Each per-level term ``min{s*t*U, N/(s*b)}`` is ``s*t*U``, increasing, up
    to ``sqrt(N/(t*b*U))`` and ``N/(s*b)``, decreasing, beyond it, so the
    integer argmax is the floor of that root or the next count.  Ties
    resolve to the smaller count.  Raises ValueError when t or b leaves no
    valid window.
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
        for s in (1, 2, 3, 4, K // (2 * t)):
            q, r = divmod(files, t * users * s * s)
            cands.add(q)
            cands.add(q + 1)
            if r:
                cands.add(q + 2)
    return {c for c in cands if 1 <= c <= b_max}


def _envelope(lines: list[tuple]) -> tuple[tuple[tuple, ...], tuple[tuple[int, int], ...]]:
    """Upper envelope of lines ``(a, d, t, b)``, meaning ``a/d - (t/b)*M``,
    given steepest first with distinct slopes, and its breakpoints.

    A line is dropped only when its neighbours beat it strictly at every M,
    so every line a query can return stays, even one that reaches the
    maximum only in a tie at one M.  Breakpoint k, where lines k and k + 1
    meet, is ``(A_k - A_(k+1))/(m_k - m_(k+1))`` as an unreduced integer
    pair ``(num, den)`` with den > 0; the breakpoints do not decrease.
    """
    hull: list[tuple] = []
    breaks: list[tuple[int, int]] = []
    for line in lines:
        a2, d2, t2, b2 = line
        while hull:
            a1, d1, t1, b1 = hull[-1]
            x_n, x_d = (a1 * d2 - a2 * d1) * b1 * b2, d1 * d2 * (t1 * b2 - t2 * b1)
            # The last line is below the higher of its neighbours at every M
            # iff it meets the one before it strictly right of where it
            # meets this one.
            if not breaks or breaks[-1][0] * x_d <= x_n * breaks[-1][1]:
                breaks.append((x_n, x_d))
                break
            hull.pop()
            breaks.pop()
        hull.append(line)
    return tuple(hull), tuple(breaks)


def _locate(breaks: tuple[tuple[int, int], ...], num: int, den: int) -> int:
    """The first k with ``num/den <= breaks[k]``, den > 0, or len(breaks):
    the first envelope line that is largest at M = num/den."""
    lo, hi = 0, len(breaks)
    while lo < hi:
        mid = (lo + hi) // 2
        x_n, x_d = breaks[mid]
        if num * x_d <= x_n * den:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _cut_run(zones: list[tuple], smax: int, b: int, last: int) -> tuple[int, int, int, int]:
    """The cut sum at b as ``whole + num/(den*b)``, and the last b it keeps that form for.

    ``zones`` holds ``(N, t*U, hi, lo)`` per level, with ``hi = N // (t*U)``
    and ``lo = N // (smax^2*t*U)``.  A level takes s = 1 and the term N/b
    for b > hi and s = smax and the term s*t*U for b <= lo.  In between,
    ``base = isqrt(hi // b)`` is ``floor(sqrt(N/(t*b*U)))``, and the level
    takes s = base + 1 and the term N/(s*b) while ``N > base*(base+1)*t*U*b``,
    else s = base and the term s*t*U, as in `best_cut_sizes`.  Returns
    ``(whole, num, den, end)``: whole sums the s*t*U terms and num/den the
    N/s of the others.  Every level keeps its s and its side for all b'
    from b to end, the least of `last` and the levels' last b in their
    state: lo in the smax zone, ``hi // base^2`` (the last b with the same
    base) on the s*t*U side and ``(N - 1) // (base*(base+1)*t*U)`` on the N
    side, which is below it; a level with b > hi never changes again.
    """
    whole, num, den, end = 0, 0, 1, last
    for files, tu, hi, lo in zones:
        if b > hi:  # s = 1, term N/b, and so for every larger b
            num += files * den
            continue
        if b <= lo:  # s = smax, term s*t*U
            whole += smax * tu
            stop = lo
        else:
            base = math.isqrt(hi // b)
            if files > base * (base + 1) * tu * b:  # s = base + 1, N/(s*b)
                num, den = num * (base + 1) + files * den, den * (base + 1)
                stop = (files - 1) // (base * (base + 1) * tu)
            else:  # s = base, term s*t*U
                whole += base * tu
                stop = hi // (base * base)
        if stop < end:
            end = stop
    return whole, num, den, end


def _bound_lines(config: SystemConfig) -> tuple[tuple[tuple, ...], tuple[tuple[int, int], ...]]:
    """Upper envelope of the bound lines ``A - (t/b)*M``, with its breakpoints.

    A line stands for a grid candidate (t, b) with its best window counts,
    and A is the cut sum at M = 0.  Lines are integer tuples ``(a, d, t, b)``
    with ``A = a/d``, steepest first, and breakpoints are integer pairs, as
    `_envelope` returns them.  A query at M returns the smallest (t, b)
    among the grid candidates whose line attains the maximum at M, and every
    line a query can return stays: each candidate that is not on the
    envelope is, at every M, strictly below some candidate's line or tied
    with the line of a smaller (t, b), so the one a query returns is on it.
    Two rules drop lines before the hull, which drops only a line that its
    neighbours beat strictly at every M.

    Each t's sorted grid splits into runs of consecutive b over which every
    level keeps its window count and its side of the min; `_cut_run` gives a
    run's last b from per-level integer thresholds, and one bisection of the
    grid finds the run.  Inside a run the cut sum is ``alpha + beta/b``,
    alpha the s*t*U terms and beta the sum of the other levels' N_i/s_i, so
    the run's line at b is ``alpha + (beta - t*M)/b``.  All of them pass
    through the pivot ``(M*, alpha)`` with ``M* = beta/t``, and at any other
    M their value is strictly monotone in b: a line strictly inside the run
    is strictly below the run's first line left of M* and below its last
    line right of it.  At M* it ties with the first line, which has the same
    t and a smaller b.  So only the two end lines of each run are built,
    their cut sums read off alpha and beta.

    Every line goes into ``by_slope`` under the integer key
    ``floor(t*P/b)``, ``P = b_max^2``.  Every grid b is at most b_max, so
    two distinct slopes differ by at least ``1/(b1*b2) >= 1/P``: their keys
    differ and keep the slopes' order, and equal slopes share a key.  Of the
    lines of one slope only the one with the largest A is kept, and on equal
    A the first met, which has the smaller t: the lines arrive in increasing
    t, and one t meets a slope at one b.  A line replaced there is strictly
    below the line kept at every M, or equal to it with a larger t.  The
    keys in decreasing order hand the kept lines, steepest first, to one
    `_envelope` pass.

    The window counts are computed inline as in `best_cut_sizes`, and no
    line keeps them.
    """
    K = config.caches
    b_max = _b_search_limit(config)
    P = b_max * b_max
    levels = [(lv.files, lv.users) for lv in config.levels]
    ladder = _b_ladder(b_max)
    ladder_sorted = sorted(ladder)
    by_slope: dict[int, tuple] = {}  # floor(t*P/b) -> line
    for t in range(1, K // 2 + 1):
        smax = K // (2 * t)
        zones = [(files, t * users, files // (t * users), files // (smax * smax * t * users))
                 for files, users in levels]
        grid = sorted(ladder_sorted + sorted(_b_crossings(levels, t, K, b_max) - ladder))
        i = 0
        while i < len(grid):
            whole, num, den, end = _cut_run(zones, smax, grid[i], b_max)
            j = bisect.bisect_right(grid, end, i) - 1  # the run is grid[i..j]
            run = (grid[i], grid[j]) if j > i else (grid[i],)
            i = j + 1
            for b in run:
                a, d = whole * den * b + num, den * b
                slope = t * P // b
                kept = by_slope.get(slope)
                # Lines of one slope arrive in increasing t, so equal A keeps the first.
                if kept is None or a * kept[1] > kept[0] * d:
                    by_slope[slope] = (a, d, t, b)
    return _envelope([by_slope[slope] for slope in sorted(by_slope, reverse=True)])


def optimize_lower_bound_mu(config: SystemConfig, M: MemoryLike
                            ) -> tuple[Fraction, Optional[MultiUserBoundParams]]:
    """Best bound over the candidate parameter grid, clamped at zero.

    Every parameter choice in range yields a valid bound, so maximizing
    over the candidate grid is sound by construction.  The maximum is read
    off the config's envelope of lines, ``config.fact(_bound_lines)``,
    exactly; ties keep the smallest (t, b), and its window counts come
    from `best_cut_sizes`.  Raises ValueError for more than
    ``MAX_BOUND_CACHES`` caches.
    """
    M = check_memory(M)
    if config.caches < 2:
        return Fraction(0), None
    if config.caches > MAX_BOUND_CACHES:
        raise ValueError(f"the multi-user lower bound is limited to {MAX_BOUND_CACHES} caches, "
                         f"got {config.caches}")
    lines, breaks = config.fact(_bound_lines)
    p, q = M.numerator, M.denominator
    # Line k is at least line k + 1 exactly when M is at most their
    # breakpoint, so the maximum is the first line whose breakpoint is at
    # least M, and the lines tied with it follow while the breakpoint is M.
    k = _locate(breaks, p, q)
    a, d, t, b = lines[k]
    key = (t, b)
    while k < len(breaks) and breaks[k][0] * q == p * breaks[k][1]:
        k += 1
        key = min(key, lines[k][2:])
    n = a * b * q - t * p * d  # a/d - (t/b)*(p/q), times d*b*q
    value = Fraction(n, d * b * q) if n > 0 else Fraction(0)
    return value, MultiUserBoundParams(*key, best_cut_sizes(config, *key))


@dataclass(frozen=True)
class SingleUserBoundParams:
    """Cut choice: b broadcasts, per-level cut sizes, and the collective cut."""

    b: int
    s: tuple[int, ...]   # per level; 0 for levels inside the collective cut
    s_J: int
    n_J: int


def _fit_cut_budget(s: list[int], s_j: int, K: int) -> tuple[list[int], int]:
    """Shrink the cuts, one unit off a largest cut at a time, until
    ``sum s + s_j <= K``.

    Each cut then spans at most K caches; a bound over fewer caches is still
    a bound.  Ties go to `s_j`, then to the first level.  In closed form,
    with E the excess: every unit above the least height h with at most E
    units above it goes (h by bisection), and the rest of E one unit each
    from the first cuts at h in tie order.
    """
    excess = sum(s) + s_j - K
    if excess <= 0:
        return s, s_j
    cuts = [s_j, *s]
    lo, hi = 0, max(cuts)
    while lo < hi:
        mid = (lo + hi) // 2
        if sum(c - mid for c in cuts if c > mid) <= excess:
            hi = mid
        else:
            lo = mid + 1
    rest = excess - sum(c - lo for c in cuts if c > lo)
    cuts = [min(c, lo) for c in cuts]
    for k in [k for k, c in enumerate(cuts) if c == lo][:rest]:
        cuts[k] -= 1
    return cuts[1:], cuts[0]


def lower_bound_single_user(config: SystemConfig, M: MemoryLike
                            ) -> tuple[Fraction, SingleUserBoundParams]:
    """Cut-set bound for the single-user setup, clamped at zero.

    Each level gets a cut of s_i users over b broadcasts, worth
    ``s_i*(min{1, N_i/(s_i*b)} - M/b)``, and the levels J with ``6M > N_j``
    are decoded collectively.  Below M = 1/6 one broadcast cuts every user
    and J is empty.  Otherwise ``b = ceil(6M)``: a level the clustering
    leaves uncoded (`partition_su`) cuts ``ceil(K_h/6)`` users, 1 when it
    has at most five, and every other level ``ceil(N_i/(6M))``.  The total
    cut budget ``sum s_i + s_J <= K`` is repaired greedily (largest cut
    first, by `_fit_cut_budget`'s closed form) if violated; a bound over
    fewer caches is still a bound.
    """
    M = check_memory(M)
    levels = config.levels
    if M < SMALL_MEMORY_THRESHOLD:
        b, s, J = 1, [lv.users for lv in levels], ()
    else:
        # Each cut is within its levels' users: ceil(K_h/6) <= K_h; for the
        # other levels outside J, N_i/K_i <= M gives ceil(N_i/(6M)) <=
        # ceil(K_i/6) <= K_i; for J, every N_j < 6M gives ceil(N_J/(6M)) <=
        # |J| <= K_J.  So the repair runs only when the level user counts
        # sum to more than K.
        b = math.ceil(6 * M)
        uncoded = partition_su(config, M).Hprime
        J = tuple(j for j, lv in enumerate(levels) if 6 * M > lv.files)
        s = [0 if idx in J else -(-lv.users // 6) if idx in uncoded
             else math.ceil(lv.files / (6 * M)) for idx, lv in enumerate(levels)]
    n_total_j = sum(levels[j].files for j in J)
    s_j = math.ceil(n_total_j / (6 * M)) if J and M < n_total_j else 0
    s, s_j = _fit_cut_budget(s, s_j, config.caches)

    value = Fraction(0)
    for s_i, lv in zip(s, levels):
        if s_i:
            value += s_i * (min(Fraction(1), Fraction(lv.files, s_i * b)) - Fraction(M, b))
    n_j = 0
    if s_j > 0:
        n_j = min(n_total_j, s_j * b, sum(min(b, levels[j].files) for j in J))
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
    """The gap of `achievable` over `lower` at memory M, against the constant
    of the setup and memory.

    A rational rate a/b, with lower = c/d and the constant k/n, is decided
    by integer cross-multiplication: inversion is ``a*d < c*b`` and, for
    c > 0, within is ``a*d*n <= k*c*b`` and the ratio the one Fraction
    ``(a*d)/(b*c)``.  An irrational rate compares and divides as a RootSum.
    """
    M = check_memory(M)
    if setup is Setup.MULTI_USER:
        constant = _MULTI_USER_CONSTANT
    elif M < SMALL_MEMORY_THRESHOLD:
        constant = SMALL_MEMORY_GAP
    else:
        constant = _SINGLE_USER_CONSTANT
    if type(achievable) is Fraction:
        a, b = achievable.numerator, achievable.denominator
        c, d = lower.numerator, lower.denominator
        ad = a * d
        inversion = ad < c * b
        if c > 0:
            ratio = Fraction(ad, b * c)
            within = ad * constant.denominator <= constant.numerator * c * b
        else:
            within = a == 0
            ratio = _ZERO if within else None
        return GapReport(achievable, lower, ratio, constant, within, inversion)
    inversion = achievable < lower
    if lower > 0:
        ratio = achievable / lower
        within = achievable <= constant * lower
    else:
        within = achievable == 0
        ratio = _ZERO if within else None
    return GapReport(achievable, lower, ratio, constant, within, inversion)
