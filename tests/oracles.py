"""Brute-force oracles for the tests.

Each oracle is exponential or exhaustive and lives here, outside the
package, so the package only carries the fast paths it checks.
"""

import itertools
import math
import random
from fractions import Fraction

from dataclasses import dataclass

from cachelab.bounds import (MULTI_USER_GAP, SINGLE_USER_GAP, SMALL_MEMORY_GAP,
                             SMALL_MEMORY_THRESHOLD, GapReport, MultiUserBoundParams,
                             SingleUserBoundParams, _b_crossings, _b_ladder, _b_search_limit,
                             _bound_lines, _window_limit, best_cut_sizes)
from cachelab.experiments import GAMMA_GRID, audit_grid
from cachelab.model import (BETA, RateReport, Setup, check_memory, mixed_classes,
                            validate_multi_user)
from cachelab.multi_user import (MemoryAllocation, Partition, _sqrt_n_over_u, _sqrt_nu,
                                 _sums, rate_memory_sharing)
from cachelab.radicals import RootSum
from cachelab.single_level import (Layer, Message, PlacementState, SubfileId, Transcript,
                                   _layers, _rows, symbol_mask)
from cachelab.single_user import DecentralizedRun, _super_level, rate_clustering


def _split_conditions(config, M, H, I, J):
    """Exact check of the three membership conditions for a candidate split."""
    K = config.caches
    levels = config.levels
    if not I:
        return False
    S_I, V_I = _sums(levels, K, I)
    T_J = sum((Fraction(levels[j].files) for j in J), Fraction(0))
    KW = K * (M - T_J + V_I)
    # h in H:  M_tilde < (1/K)sqrt(N_h/U_h)    <=>  K*W < S_I*sqrt(N_h/U_h)
    for h in H:
        if not S_I * _sqrt_n_over_u(levels[h]) > KW:
            return False
    # i in I:  (1/K)x_i <= M_tilde <= (1+1/K)x_i
    for i in I:
        bound = S_I * _sqrt_n_over_u(levels[i])
        if KW < bound or KW > (K + 1) * bound:
            return False
    # j in J:  (1+1/K)x_j < M_tilde
    for j in J:
        bound = (K + 1) * (S_I * _sqrt_n_over_u(levels[j]))
        if not KW > bound:
            return False
    return True


def _build_partition(config, M, H, I, J):
    S_I, V_I = _sums(config.levels, config.caches, I)
    T_J = sum((Fraction(config.levels[j].files) for j in J), Fraction(0))
    M_tilde = None
    if I:
        M_tilde = (M - T_J + V_I) / S_I
    return Partition(H, I, J, S_I, T_J, V_I, M_tilde)


def partition_key(partition):
    """The split ``(H, I, J)`` of a `Partition`, as the enumeration reports it."""
    return (partition.H, partition.I, partition.J)


def scan_partition(config, M):
    """The feasible split by a fresh scan of every split at memory M.

    Rebuilds every sum, threshold and inverse at M; among the feasible
    splits it keeps the smallest full-storage set, then the smallest
    no-memory set.
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
        raise AssertionError(f"no feasible level partition at M={M}")
    feasible.sort(key=lambda item: (item[0], item[1]))
    _, _, H, I, J = feasible[0]
    return _build_partition(config, M, H, I, J)


def scan_rate_memory_sharing(config, M):
    """`rate_memory_sharing` from `scan_partition`, with nothing cached."""
    M = check_memory(M)
    validation = validate_multi_user(config)
    partition = scan_partition(config, M)
    K = config.caches
    amounts = []
    for idx, lv in enumerate(config.levels):
        if idx in partition.J:
            amounts.append(Fraction(lv.files))
        elif idx in partition.I:
            amounts.append(_sqrt_nu(lv) * partition.M_tilde - Fraction(lv.files, K))
        else:
            amounts.append(Fraction(0))
    rate = Fraction(0)
    for lv, amount in zip(config.levels, amounts):
        rate = rate + fraction_rate_single_level(amount, K, lv.files, lv.users)
    approx = None
    if partition.I and M != partition.T_J:
        approx = (sum(K * config.levels[h].users for h in partition.H)
                  + (partition.S_I * partition.S_I) / (M - partition.T_J)
                  - sum(config.levels[i].users for i in partition.I))
    return RateReport(setup=Setup.MULTI_USER, memory=M, achievable=rate,
                      regular=validation.ok, partition=partition,
                      allocation=MemoryAllocation(tuple(amounts), M),
                      extras={"approx_rate": approx})


def fraction_rate_single_level(M, K, N, U):
    """``U * min{N/M, K} * (1 - M/N)`` by arithmetic on M itself, Fraction
    or RootSum, with the messages of `rate_single_level`."""
    if isinstance(M, RootSum):
        if M < 0 or M > N:
            raise ValueError(f"memory {M} outside [0, {N}]")
    else:
        M = check_memory(M)
        if M > N:
            raise ValueError(f"memory {M} exceeds library size {N}")
    if N >= K * M:
        return U * K * (1 - M / N)
    return U * (N / M - 1)


def fraction_rate_clustering(config, M):
    """The uncoded set and the rate of `rate_clustering`, by Fraction
    comparisons and sums: uncoded users plus ``max{N_super/M - 1, 0}``."""
    M = check_memory(M)
    levels = config.levels
    uncoded = frozenset(i for i, lv in enumerate(levels) if M < Fraction(lv.files, lv.users))
    rate = sum((Fraction(levels[h].users) for h in uncoded), Fraction(0))
    n_super = sum(lv.files for i, lv in enumerate(levels) if i not in uncoded)
    if n_super and M > 0:
        rate += max(Fraction(n_super) / M - 1, Fraction(0))
    return uncoded, rate


def regime_memories(config):
    """The memories where a regime test can flip, 0, 1/12, 1/6 and every
    ``N_i/6`` and ``N_i/K_i``, with the config's audit grid."""
    mems = {Fraction(0), Fraction(1, 12), Fraction(1, 6)}
    for lv in config.levels:
        mems |= {Fraction(lv.files, 6), Fraction(lv.files, lv.users)}
    return sorted(mems | set(audit_grid(config)))


@dataclass(frozen=True)
class RefinedClusterPartition:
    """Four-regime split of the single-user levels for the bound recipes."""

    G: frozenset[int]
    H: frozenset[int]
    I: frozenset[int]
    J: frozenset[int]


def refine_partition_su(config, M):
    """Membership exactly per the four regime predicates.

    The first three cover every level with ``M <= N_i/6`` (uncoded with at
    most five users, uncoded with six or more, or not uncoded), so J takes
    the rest, ``M > N_i/6``.
    """
    M = check_memory(M)
    G, H, I, J = set(), set(), set(), set()
    for idx, lv in enumerate(config.levels):
        n, k = Fraction(lv.files), lv.users
        uncoded = M < n / k
        if uncoded and k <= 5 and M <= n / 6:
            G.add(idx)
        elif uncoded and k >= 6:
            H.add(idx)
        elif n / k <= M <= n / 6:
            I.add(idx)
        else:
            J.add(idx)
    return RefinedClusterPartition(frozenset(G), frozenset(H), frozenset(I), frozenset(J))


def fit_cut_budget(s, s_j, K):
    """The single-user cut budget repair as a loop: one unit off a largest
    cut per pass (ties to `s_j`, then to the first level) until
    ``sum s + s_j <= K``; its time grows with the excess."""
    s = list(s)
    while sum(s) + s_j > K:
        if s_j >= max(s):
            s_j -= 1
        else:
            s[s.index(max(s))] -= 1
    return s, s_j


def regime_lower_bound_su(config, M):
    """The single-user cut-set bound with one branch per regime of
    `refine_partition_su`: below M = 1/6 every user in one broadcast;
    otherwise ``b = ceil(6M)``, 1 user for G, ``ceil(K_h/6)`` for H,
    ``ceil(N_i/(6M))`` for I and a collective cut over J."""
    M = check_memory(M)
    levels = config.levels
    K = config.caches
    if M < SMALL_MEMORY_THRESHOLD:
        s, _ = fit_cut_budget([lv.users for lv in levels], 0, K)
        value = Fraction(0)
        for s_i, lv in zip(s, levels):
            if s_i:
                value += s_i * (min(Fraction(1), Fraction(lv.files, s_i)) - M)
        params = SingleUserBoundParams(1, tuple(s), 0, 0)
        return max(value, Fraction(0)), params

    b = math.ceil(6 * M)
    refined = refine_partition_su(config, M)
    s = [0] * len(levels)
    for g in refined.G:
        s[g] = 1
    for h in refined.H:
        s[h] = -(-levels[h].users // 6)
    for i in refined.I:
        s[i] = math.ceil(Fraction(levels[i].files) / (6 * M))
    n_total_j = sum(levels[j].files for j in refined.J)
    s_j = math.ceil(Fraction(n_total_j) / (6 * M)) if refined.J and M < n_total_j else 0
    s, s_j = fit_cut_budget(s, s_j, K)

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


def su_anomalies(config, M):
    """Levels that `refine_partition_su` puts in J although the clustering
    still serves them uncoded: ``M < N/K``, at most five users and
    ``M > N/6``."""
    M = check_memory(M)
    return tuple(idx for idx, lv in enumerate(config.levels)
                 if M < Fraction(lv.files, lv.users) and lv.users <= 5
                 and M > Fraction(lv.files, 6))


def rate_upper_bound_su(config, M):
    """Regime-wise closed-form cap on the clustering rate.

    ``sum_G K_g + sum_H K_h + (sum_I N_i)/M`` plus a branch on the total
    full-storage-regime library N_J: ``N_J/M`` below ``N_J/6``,
    ``6(1 - M/N_J)`` up to ``N_J``, and 0 beyond.  The paper uses it to
    prove the gap constant; nothing prints it.
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


def fraction_allocation_amount(partition, config, M, i):
    """The memory of partial level i, ``W*sqrt(N_i*U_i)*S_I^-1 - N_i/K`` with
    ``W = M - T_J + V_I``, from the partition's exact values."""
    lv = config.levels[i]
    W = check_memory(M) - partition.T_J + partition.V_I
    return W * (_sqrt_nu(lv) * (1 / partition.S_I)) - Fraction(lv.files, config.caches)


def fraction_gap_report(setup, achievable, lower, M, config):
    """`gap_report` by comparisons and division of the exact values
    themselves, Fraction or RootSum alike."""
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


def allocation_alphas(allocation):
    """Each level's share of the memory, ``amount / M``; None at M = 0."""
    if allocation.M == 0:
        return None
    return tuple(a / allocation.M for a in allocation.amounts)


def enumerate_feasible_partitions(config, M):
    """All feasible (H, I, J) label assignments.

    Enumerates all 3^L assignments and keeps the ones passing the exact
    membership conditions (plus the everything-cacheable convention when M
    exceeds the library).
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


def candidate_b_values(config, t):
    """Broadcast-count candidates for one window size t, as a sorted tuple.

    Depends only on (config, t), never on M, so the maximized bound is a
    max over a fixed family of lines in M (see `_bound_lines`, which builds
    the same grid inline).  The grid combines the shared ladder of
    `_b_ladder` with the per-level crossing points ``N_i/(t*U_i*s^2)``
    where the cut terms switch sides.
    """
    b_max = _b_search_limit(config)
    levels = [(lv.files, lv.users) for lv in config.levels]
    return tuple(sorted(_b_ladder(b_max) | _b_crossings(levels, t, config.caches, b_max)))


def validate_bound_params(params, K, L):
    """Raise ValueError unless `params` has L window counts in 1..K // (2t),
    with t and b in range."""
    smax = _window_limit(K, params.t, params.b)
    if len(params.s) != L:
        raise ValueError(f"need {L} window counts, got {len(params.s)}")
    for i, si in enumerate(params.s):
        if not (1 <= si <= smax):
            raise ValueError(f"s[{i}]={si} outside 1..{smax}")


def cut_sum(config, t, b, s):
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


def lower_bound_multi_user(config, M, params):
    """Exact bound value for one parameter choice; may be negative."""
    M = check_memory(M)
    validate_bound_params(params, config.caches, len(config.levels))
    return (Fraction(*cut_sum(config, params.t, params.b, params.s))
            - Fraction(params.t, params.b) * M)


def grid_bound_mu(config, M):
    """The multi-user bound as a plain maximum over the whole candidate grid.

    Evaluates every (t, b) in the grid with its best window counts, using
    one Fraction per cut term; ties keep the smallest (t, b, s), and the
    maximum is clamped at zero.
    """
    M = check_memory(M)
    K = config.caches
    if K < 2:
        return Fraction(0), None
    best = None
    for t in range(1, K // 2 + 1):
        for b in candidate_b_values(config, t):
            s = best_cut_sizes(config, t, b)
            value = sum((min(Fraction(si * t * lv.users), Fraction(lv.files, si * b))
                         for lv, si in zip(config.levels, s)), Fraction(0))
            value -= Fraction(t, b) * M
            if best is None or value > best[0] or (value == best[0] and (t, b, s) < best[1]):
                best = (value, (t, b, s))
    return max(best[0], Fraction(0)), MultiUserBoundParams(*best[1])


def reference_bound_lines(config):
    """The envelope of `_bound_lines` and its breakpoints, built from a line
    for every grid candidate.

    Each candidate (t, b) gets its window counts from `best_cut_sizes` and
    its A from `cut_sum`; one line per reduced slope is kept (the largest
    A, the first met on ties), and the upper envelope keeps a line unless
    its neighbours beat it strictly at every M.  Breakpoints are where
    consecutive lines meet, as Fractions.
    """
    def strictly_below(left, mid, right):
        (a1, d1, t1, b1, _), (a2, d2, t2, b2, _), (a3, d3, t3, b3, _) = left, mid, right
        return ((a1 * d2 - a2 * d1) * (t2 * b3 - t3 * b2) * d3 * b1
                > (a2 * d3 - a3 * d2) * (t1 * b2 - t2 * b1) * d1 * b3)

    by_slope = {}
    for t in range(1, config.caches // 2 + 1):
        for b in candidate_b_values(config, t):
            s = best_cut_sizes(config, t, b)
            a, d = cut_sum(config, t, b, s)
            g = math.gcd(t, b)
            slope = (t // g, b // g)
            kept = by_slope.get(slope)
            if kept is None or a * kept[1] > kept[0] * d:
                by_slope[slope] = (a, d, t, b, s)
    P = max((b for _, b in by_slope), default=1) ** 2
    hull = []
    for slope in sorted(by_slope, key=lambda tb: tb[0] * P // tb[1], reverse=True):
        line = by_slope[slope]
        while len(hull) >= 2 and strictly_below(hull[-2], hull[-1], line):
            hull.pop()
        hull.append(line)
    lines = tuple((Fraction(a, d), Fraction(t, b), (t, b, s)) for a, d, t, b, s in hull)
    return lines, tuple((A1 - A2) / (m1 - m2)
                        for (A1, m1, _), (A2, m2, _) in zip(lines, lines[1:]))


def class_mask(kernel, gens):
    """Mask of generators whose product is square-equivalent to kernel, or
    None when no product of them is."""
    for mask in range(1 << len(gens)):
        prod = kernel
        for i, g in enumerate(gens):
            if mask & (1 << i):
                prod *= g
        r = math.isqrt(prod)
        if r * r == prod:
            return mask
    return None


def conjugate_product_inverse(x):
    """1/x as the product of all 2^g - 1 nontrivial sign conjugates over the norm.

    Rewrites the kernels over a greedy generator basis of the square-class
    group (g generators), multiplies every conjugate that flips the sign of
    an odd number of them in a term's class, and divides by the rational
    norm, the product of all 2^g conjugates.  The conjugates are built from
    `RootSum.sqrt` and multiplied by the package's public arithmetic.
    """
    x = raw(x)
    kernels = [k for k in x.terms if k != 1]
    if not kernels:
        return 1 / x.terms[1]
    gens: list[int] = []
    expo: dict[int, int] = {}
    for k in kernels:
        mask = class_mask(k, gens)
        if mask is None:
            gens.append(k)
            mask = 1 << (len(gens) - 1)
        expo[k] = mask
    product = Fraction(1)
    for sigma in range(1, 1 << len(gens)):
        product = product * _value(
            (k, -c if k != 1 and (expo[k] & sigma).bit_count() % 2 else c)
            for k, c in x.terms.items())
    norm = product * _value(x.terms.items())
    if not isinstance(norm, Fraction):
        raise ArithmeticError("norm of a radical sum was not rational")
    return product / norm


def fraction_lines(config):
    """`_bound_lines` in the form of `reference_bound_lines`: lines
    ``(A, t/b, (t, b, s))`` with s from `best_cut_sizes`, and the
    breakpoints as Fractions."""
    lines, breaks = _bound_lines(config)
    return (tuple((Fraction(a, d), Fraction(t, b), (t, b, best_cut_sizes(config, t, b)))
                  for a, d, t, b in lines),
            tuple(Fraction(n, d) for n, d in breaks))


def linear_envelope_scan(config, M):
    """The multi-user bound by a scan of the cached envelope from its first line.

    Along the envelope the values at M rise, then fall; the scan stops at
    the first fall and keeps the smallest (t, b, s) among equal values.
    """
    M = check_memory(M)
    if config.caches < 2:
        return Fraction(0), None
    best_val = best_key = None
    for A, slope, key in fraction_lines(config)[0]:
        value = A - slope * M
        if best_val is not None and value < best_val:
            break
        if best_val is None or value > best_val or (value == best_val and key < best_key):
            best_val, best_key = value, key
    return max(best_val, Fraction(0)), MultiUserBoundParams(*best_key)


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _shrink(n):
    """``(kernel, mult)`` with ``sqrt(n) = mult * sqrt(kernel)``: the squares
    of the primes up to 47 come out, and a square remainder leaves kernel 1."""
    mult = 1
    for p in _SMALL_PRIMES:
        while n % (p * p) == 0:
            n //= p * p
            mult *= p
    r = math.isqrt(n)
    return (1, mult * r) if r * r == n else (n, mult)


class RawSum:
    """``sum c_k * sqrt(k)`` with Fraction coefficients, built term by term.

    The reference for the value and the term order of a `RootSum`, and for
    its printed form when no kernel keeps the square of a prime above 47
    (a RootSum prints such a class over its joined base, a raw sum as the
    member first met): `insert` keeps the kernels shrunk and pairwise
    inequivalent and no zero coefficient, and a kernel first met keeps its
    place.  Unlike a RootSum, a raw sum may be rational or zero.
    """

    def __init__(self, terms=()):
        self.terms = dict(terms)

    def insert(self, kernel, coeff):
        """Add ``coeff * sqrt(kernel)``; an equivalent kernel already stored
        (their product a perfect square) takes the term."""
        if not coeff:
            return
        kernel, mult = _shrink(kernel)
        coeff = Fraction(coeff) * mult
        if kernel != 1:
            for k in self.terms:
                r = math.isqrt(k * kernel)
                if k != 1 and r * r == k * kernel:
                    kernel, coeff = k, coeff * Fraction(r, k)
                    break
        total = self.terms.get(kernel, Fraction(0)) + coeff
        if total:
            self.terms[kernel] = total
        else:
            self.terms.pop(kernel, None)

    def __repr__(self):
        parts = []
        for kernel in sorted(self.terms):
            coeff = self.terms[kernel]
            if kernel == 1:
                parts.append(str(coeff))
            elif coeff == 1 or coeff == -1:
                parts.append(f"{'-' if coeff < 0 else ''}sqrt({kernel})")
            else:
                parts.append(f"{coeff}*sqrt({kernel})")
        return " + ".join(parts).replace("+ -", "- ")


def raw(x):
    """The insert route's operand for x: a copy of a raw sum, a RootSum's
    terms as Fractions, or a rational with only kernel 1 (none for zero)."""
    if isinstance(x, RawSum):
        return RawSum(x.terms)
    if isinstance(x, RootSum):
        return RawSum((k, Fraction(n, x._den)) for k, n in x._nums.items())
    x = Fraction(x)
    return RawSum({1: x} if x else {})


def _value(terms):
    """The package value of ``sum c * sqrt(k)`` over the pairs ``(k, c)``,
    from `RootSum.sqrt` and public arithmetic."""
    return sum((c * RootSum.sqrt(k) for k, c in terms), Fraction(0))


def insert_route_add(x, y):
    """x + y with every term of y inserted one by one.

    Operands may be rational (see `raw`); the result is a `RawSum`, even
    when its value is rational.
    """
    out = raw(x)
    for kernel, coeff in raw(y).terms.items():
        out.insert(kernel, coeff)
    return out


def insert_route_mul(x, y):
    """x * y with every product of two terms inserted one by one.

    Operands and result as in `insert_route_add`.
    """
    out = RawSum()
    for k1, c1 in raw(x).terms.items():
        for k2, c2 in raw(y).terms.items():
            if k1 == 1 or k2 == 1:
                out.insert(k1 * k2, c1 * c2)
            else:
                g = math.gcd(k1, k2)
                out.insert((k1 // g) * (k2 // g), c1 * c2 * g)
    return out


@dataclass(frozen=True)
class RefinedPartition:
    """The partial-memory set I of a multi-user partition subdivided into
    low (I0), intermediate (I') and high (I1) memory regimes."""

    H: frozenset[int]
    I0: frozenset[int]
    Iprime: frozenset[int]
    I1: frozenset[int]
    J: frozenset[int]
    base: Partition


def refine_partition(config, M):
    """Split the I of `scan_partition` by memory regime, with
    ``x_i = sqrt(N_i/U_i)``: low when ``M < (2/K)*x_i``, else high when
    ``M > (beta + 1/K)*x_i``, else intermediate.  I1 may hold several levels."""
    M = check_memory(M)
    partition = scan_partition(config, M)
    K = config.caches
    I0, I1, Iprime = set(), set(), set()
    for i in partition.I:
        x = _sqrt_n_over_u(config.levels[i])
        if M < Fraction(2, K) * x:
            I0.add(i)
        elif M > (BETA + Fraction(1, K)) * x:
            I1.add(i)
        else:
            Iprime.add(i)
    return RefinedPartition(partition.H, frozenset(I0), frozenset(Iprime),
                            frozenset(I1), partition.J, partition)


def regime_level_rate_bounds(config, M):
    """The per-level caps of `level_rate_bounds`, one branch per regime of
    `refine_partition`; more than one high-memory level raises ValueError."""
    M = check_memory(M)
    refined = refine_partition(config, M)
    if len(refined.I1) > 1:
        raise ValueError(f"the per-level caps presume at most one high-memory level, "
                         f"got {len(refined.I1)} at M={M}")
    part = refined.base
    K = config.caches
    levels = config.levels
    inv_beta = 1 / BETA
    W = M - part.T_J + part.V_I
    S_low = Fraction(0)
    for i in refined.I0 | refined.Iprime:
        S_low = S_low + _sqrt_nu(levels[i])
    bounds = []
    for idx, lv in enumerate(levels):
        if idx in refined.H:
            bounds.append(Fraction(K * lv.users))
        elif idx in refined.I0 or idx in refined.Iprime:
            bounds.append(2 * part.S_I * _sqrt_nu(lv) / W)
        elif idx in refined.I1:
            nu = lv.files * lv.users
            term1 = inv_beta * lv.users * (1 - Fraction(M - part.T_J, lv.files))
            term2 = inv_beta * lv.users * (S_low * _sqrt_nu(lv)) * Fraction(1, nu)
            bounds.append(term1 + term2)
        else:
            bounds.append(Fraction(0))
    return bounds


class CaseNotApplicable(RuntimeError):
    """The closed-form parameter recipe's preconditions do not hold."""


def matched_bound_params(config, M):
    """Closed-form bound parameters for the large-system regime.

    Applies when K >= 96, no level sits in the high-memory regime, and the
    full-storage set is nonempty; the window counts are floors of
    threshold-matched expressions and the broadcast count is
    ``floor(64*(M-T_J+V_I)^2/S_I^2)``.  A witness for the optimizer, whose
    candidate grid contains these parameters.
    """
    M = check_memory(M)
    K = config.caches
    if K < 96:
        raise CaseNotApplicable(f"needs K >= 96, got {K}")
    refined = refine_partition(config, M)
    if refined.I1:
        raise CaseNotApplicable("a level sits in the high-memory regime")
    if not refined.J:
        raise CaseNotApplicable("the full-storage set is empty")
    part = refined.base
    W = M - part.T_J + part.V_I
    s = []
    for idx, lv in enumerate(config.levels):
        if idx in refined.H:
            s.append(K // 8)
        elif idx in refined.I0:
            s.append(math.floor(Fraction(1, 16) * part.S_I * _sqrt_n_over_u(lv) / W))
        elif idx in refined.Iprime:
            s.append(math.floor(Fraction(1, 8) * part.S_I * _sqrt_n_over_u(lv) / W))
        else:
            s.append(1)
    b = math.floor(64 * W * W / (part.S_I * part.S_I))
    return MultiUserBoundParams(1, b, tuple(s))


def team_enumeration_decentralized(config, M, assignment, demands, seed, segments=60):
    """The decentralized run with every team of active caches enumerated.

    For each of the 2^K teams, largest first, every member contributes the
    segments of its demand stored at exactly the other members; a team with
    no such segment sends nothing.
    """
    M = check_memory(M)
    _, uncoded, active, n_super, wants = _super_level(config, M, assignment, demands)
    if not active:
        return DecentralizedRun(uncoded, (), True)
    rng = random.Random(seed)
    per_file = min(segments, int(Fraction(M, n_super) * segments)) if M < n_super else segments
    stored = {slot: {f: frozenset(rng.sample(range(segments), per_file))
                     for f in range(n_super)}
              for slot in range(len(active))}
    sizes, rows, index = [], [], {}
    slots = list(range(len(active)))
    for size in range(len(slots), 0, -1):
        for team in itertools.combinations(slots, size):
            team_set = set(team)
            lists = []
            for slot in team:
                f = wants[slot]
                segs = sorted(s for s in range(segments)
                              if s not in stored[slot][f]
                              and all((s in stored[o][f]) == (o in team_set - {slot})
                                      for o in slots if o != slot))
                lists.append((f, segs))
            width = max((len(segs) for _, segs in lists), default=0)
            if width == 0:
                continue
            sizes.append(Fraction(width, segments))
            for k in range(width):
                rows.append(symbol_mask(index, ((f, segs[k]) for f, segs in lists
                                                if k < len(segs))))
    ok = all(span_contains_reference(
                 rows,
                 symbol_mask(index, ((f, s) for f, segs in stored[slot].items() for s in segs)),
                 symbol_mask(index, ((file, s) for s in range(segments))))
             for slot, file in enumerate(wants))
    return DecentralizedRun(uncoded, tuple(sizes), ok)


def fraction_layers(K, N, M):
    """The memory split of `_layers` computed from Fractions: t = K*M/N, its
    floor t0 and the lower sublayer's weight t0 + 1 - t."""
    if K < 1 or N < 1:
        raise ValueError(f"need at least one cache and one file, got K={K}, N={N}")
    if M > N:
        raise ValueError(f"memory {M} exceeds library size {N}")
    t_exact = Fraction(K) * M / N
    t0 = math.floor(t_exact)
    if t0 >= K:
        return (Layer(K, Fraction(1), Fraction(1)),)
    lam = t0 + 1 - t_exact  # weight of the lower sublayer
    layers = []
    if lam > 0:
        layers.append(Layer(t0, lam, lam / math.comb(K, t0)))
    if lam < 1:
        layers.append(Layer(t0 + 1, 1 - lam, (1 - lam) / math.comb(K, t0 + 1)))
    return tuple(layers)


def place_caches(K, N, M):
    """Subset placement as sets: every cache gets a fresh SubfileId for each
    subfile on a subset that contains it.  Returns the layers and the caches."""
    M = check_memory(M)
    layers = _layers(K, N, M)
    caches = [set() for _ in range(K)]
    for li, layer in enumerate(layers):
        for subset in itertools.combinations(range(K), layer.t):
            for f in range(N):
                sf = SubfileId(f, frozenset(subset), li)
                for c in subset:
                    caches[c].add(sf)
    return layers, tuple(frozenset(c) for c in caches)


def place(K, N, M):
    """`place_caches`, with each cache turned into a mask over the symbol table."""
    M = check_memory(M)
    layers, caches = place_caches(K, N, M)
    symbols = PlacementState((0,) * K, layers, K, N, M).symbols
    bit = {sf: i for i, sf in enumerate(symbols)}
    return PlacementState(tuple(sum(1 << bit[sf] for sf in c) for c in caches),
                          layers, K, N, M)


def deliver(placement, demands):
    """XOR delivery that builds a fresh SubfileId for every message part."""
    K, N = placement.K, placement.N
    messages = []
    for row in _rows(demands, K, N):
        for li, layer in enumerate(placement.layers):
            if layer.t >= K:
                continue
            for subset in itertools.combinations(range(K), layer.t + 1):
                hit = [c for c in subset if c in row]
                if not hit:
                    continue
                parts = set()
                targets = []
                for c in hit:
                    sf = SubfileId(row[c], frozenset(subset) - {c}, li)
                    parts ^= {sf}
                    targets.append((c, row[c]))
                messages.append(Message(tuple(targets), frozenset(parts), layer.subfile_size))
    return Transcript(tuple(messages))


def deliver_reference(placement, demands):
    """XOR delivery that takes every part from the placement's table of all
    N*sum C(K, t) subfiles, at its sorted subset's number times N plus the
    file."""
    K, N = placement.K, placement.N
    symbols = placement.symbols
    subsets = {}
    for layer in placement.layers:
        for subset in itertools.combinations(range(K), layer.t):
            subsets[subset] = len(subsets)
    messages = []
    for row in _rows(demands, K, N):
        for layer in placement.layers:
            if layer.t >= K:
                continue
            for subset in itertools.combinations(range(K), layer.t + 1):
                hit = [i for i, c in enumerate(subset) if c in row]
                if not hit:
                    continue
                parts = frozenset(symbols[subsets[subset[:i] + subset[i + 1:]] * N
                                          + row[subset[i]]] for i in hit)
                targets = tuple((subset[i], row[subset[i]]) for i in hit)
                messages.append(Message(targets, parts, layer.subfile_size))
    return Transcript(tuple(messages))


def span_contains_reference(rows, known, wanted):
    """The span check by plain elimination: every row, cleared of the known
    symbols, goes into an echelon basis; each unknown wanted symbol must
    reduce to zero against it."""
    basis = {}
    for mask in rows:
        mask &= ~known
        while mask:
            pivot = mask.bit_length() - 1
            if pivot not in basis:
                basis[pivot] = mask
                break
            mask ^= basis[pivot]
    wanted &= ~known
    while wanted:
        vec = wanted & -wanted
        wanted ^= vec
        while vec:
            pivot = vec.bit_length() - 1
            if pivot not in basis:
                return False
            vec ^= basis[pivot]
    return True


def verify_decode(placement, transcript, demands):
    """Span check that numbers every symbol on sight, from the cache sets and
    a fresh list of each demanded file's subfiles, for every user."""
    def subfiles_of(file):
        return [SubfileId(file, frozenset(subset), li)
                for li, layer in enumerate(placement.layers)
                for subset in itertools.combinations(range(placement.K), layer.t)]

    index = {}
    messages = [symbol_mask(index, msg.parts) for msg in transcript.messages]
    try:
        rows = _rows(demands, placement.K, placement.N)
    except ValueError:
        return False
    return all(span_contains_reference(messages, symbol_mask(index, placement.caches[cache]),
                                       symbol_mask(index, subfiles_of(file)))
               for row in rows for cache, file in row.items())


def fraction_mixed_rate(config, M, gamma=None):
    """``(achievable, gamma, best_gamma, best_rate)`` of `mixed_rate`, each
    grid rate the Fraction or RootSum sum of the two class rates, compared
    with the best so far as exact values."""
    M = check_memory(M)
    f_cfg, g_cfg = config.fact(mixed_classes)

    def rate_at(g):
        total = Fraction(0) if f_cfg is None else rate_memory_sharing(f_cfg, g * M).achievable
        if g_cfg is not None:
            total = total + rate_clustering(g_cfg, (1 - g) * M).achievable
        return total

    best_g, best_rate = None, None
    for k in range(GAMMA_GRID):
        g = Fraction(k, GAMMA_GRID - 1)
        value = rate_at(g)
        if best_rate is None or value < best_rate:
            best_g, best_rate = g, value
    if gamma is None:
        return best_rate, best_g, best_g, best_rate
    gamma = Fraction(gamma)
    return rate_at(gamma), gamma, best_g, best_rate
