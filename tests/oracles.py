"""Brute-force oracles for the tests.

Each oracle is exponential or exhaustive and lives here, outside the
package, so the package only carries the fast paths it checks.
"""

import itertools
from fractions import Fraction

from cachelab.bounds import MultiUserBoundParams, _candidate_b_values, best_cut_sizes
from cachelab.model import check_memory
from cachelab.multi_user import _split_conditions
from cachelab.radicals import RootSum


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
