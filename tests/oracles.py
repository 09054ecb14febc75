"""Brute-force oracles for the tests.

Each oracle is exponential or exhaustive and lives here, outside the
package, so the package only carries the fast paths it checks.
"""

import itertools
import math
import random
from fractions import Fraction

from cachelab.bounds import (MultiUserBoundParams, _bound_lines, _candidate_b_values,
                             best_cut_sizes)
from cachelab.model import RateReport, Setup, check_memory, validate_multi_user
from cachelab.multi_user import (MemoryAllocation, Partition, PartitionInfeasibleError,
                                 _sqrt_n_over_u, _sqrt_nu, _sums, simplify)
from cachelab.radicals import RootSum
from cachelab.single_level import rate_single_level, span_contains, symbol_mask
from cachelab.single_user import DecentralizedRun, _super_level


def _split_conditions(config, M, H, I, J):
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


def _build_partition(config, M, H, I, J):
    S_I, T_J, V_I = _sums(config, I, J)
    M_tilde = None
    if I:
        M_tilde = (M - T_J + V_I) * S_I.inverse()
    return Partition(H, I, J, S_I, T_J, V_I, M_tilde)


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
        raise PartitionInfeasibleError(config, M)
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
            amounts.append(simplify(_sqrt_nu(lv) * partition.M_tilde - Fraction(lv.files, K)))
        else:
            amounts.append(Fraction(0))
    rate = Fraction(0)
    for lv, amount in zip(config.levels, amounts):
        rate = rate + rate_single_level(amount, K, lv.files, lv.users)
    approx = None
    if partition.I and M != partition.T_J:
        approx = simplify(
            sum(K * config.levels[h].users for h in partition.H)
            + (partition.S_I * partition.S_I) * (1 / Fraction(M - partition.T_J))
            - sum(config.levels[i].users for i in partition.I))
    return RateReport(setup=Setup.MULTI_USER, memory=M, achievable=simplify(rate),
                      regular=validation.ok, partition=partition,
                      allocation=MemoryAllocation(tuple(amounts), M),
                      extras={"approx_rate": approx})


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
        for b in _candidate_b_values(config, t):
            s = best_cut_sizes(config, t, b)
            value = sum((min(Fraction(si * t * lv.users), Fraction(lv.files, si * b))
                         for lv, si in zip(config.levels, s)), Fraction(0))
            value -= Fraction(t, b) * M
            if best is None or value > best[0] or (value == best[0] and (t, b, s) < best[1]):
                best = (value, (t, b, s))
    return max(best[0], Fraction(0)), MultiUserBoundParams(*best[1])


def conjugate_product_inverse(x):
    """1/x as the product of all 2^g - 1 nontrivial sign conjugates over the norm.

    Rewrites the kernels over a greedy generator basis of the square-class
    group (g generators), multiplies every conjugate that flips the sign of
    an odd number of them in a term's class, and divides by the rational
    norm, the product of all 2^g conjugates.
    """
    kernels = [k for k in x._terms if k != 1]
    if not kernels:
        return RootSum(1 / x._terms[1])
    gens: list[int] = []
    expo: dict[int, int] = {}
    for k in kernels:
        mask = RootSum._class_mask(k, gens)
        if mask is None:
            gens.append(k)
            mask = 1 << (len(gens) - 1)
        expo[k] = mask
    product = RootSum(1)
    for sigma in range(1, 1 << len(gens)):
        conj = RootSum()
        conj._terms = {
            k: (-c if k != 1 and (expo[k] & sigma).bit_count() % 2 else c)
            for k, c in x._terms.items()
        }
        product = product * conj
    norm = product * x
    if set(norm._terms) - {1}:
        raise ArithmeticError("norm of a radical sum was not rational")
    return product * RootSum(1 / norm._terms[1])


def linear_envelope_scan(config, M):
    """The multi-user bound by a scan of the cached envelope from its first line.

    Along the envelope the values at M rise, then fall; the scan stops at
    the first fall and keeps the smallest (t, b, s) among equal values.
    """
    M = check_memory(M)
    if config.caches < 2:
        return Fraction(0), None
    best_val = best_key = None
    for A, slope, key in _bound_lines(config):
        value = A - slope * M
        if best_val is not None and value < best_val:
            break
        if best_val is None or value > best_val or (value == best_val and key < best_key):
            best_val, best_key = value, key
    return max(best_val, Fraction(0)), MultiUserBoundParams(*best_key)


def insert_route_add(x, y):
    """x + y with every term of y inserted one by one through `_insert`."""
    out = RootSum(x)
    for kernel, coeff in y._terms.items():
        out._insert(kernel, coeff)
    return out


def insert_route_mul(x, y):
    """x * y with every product of two terms inserted through `_insert`."""
    out = RootSum()
    for k1, c1 in x._terms.items():
        for k2, c2 in y._terms.items():
            if k1 == 1 or k2 == 1:
                out._insert(k1 * k2, c1 * c2)
            else:
                g = math.gcd(k1, k2)
                out._insert((k1 // g) * (k2 // g), c1 * c2 * g)
    return out


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
    ok = all(span_contains(rows,
                           symbol_mask(index, ((f, s) for f, segs in stored[slot].items()
                                               for s in segs)),
                           symbol_mask(index, ((file, s) for s in range(segments))))
             for slot, file in enumerate(wants))
    return DecentralizedRun(uncoded, tuple(sizes), ok)
