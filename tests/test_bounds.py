import bisect
import itertools
import math
import random
from fractions import Fraction

import pytest

from cachelab import bounds
from cachelab.bounds import (MAX_BOUND_CACHES, MultiUserBoundParams, SingleUserBoundParams,
                             _b_search_limit, _bound_lines, _cut_run, _fit_cut_budget, _locate,
                             best_cut_sizes, gap_report, lower_bound_single_user,
                             optimize_lower_bound_mu)
from cachelab.experiments import (audit_grid, random_multi_user_config,
                                  random_single_user_config)
from cachelab.model import Setup, SystemConfig
from cachelab.multi_user import rate_memory_sharing
from cachelab.radicals import RootSum, exact_sign
from cachelab.single_user import rate_clustering
from oracles import (CaseNotApplicable, candidate_b_values, cut_sum, fit_cut_budget,
                     fraction_gap_report, fraction_lines, grid_bound_mu, linear_envelope_scan, lower_bound_multi_user,
                     matched_bound_params, reference_bound_lines, refine_partition,
                     refine_partition_su, regime_lower_bound_su, regime_memories,
                     validate_bound_params)


def one_level():
    return SystemConfig.multi_user(4, [(8, 2)])


def test_lemma_bound_examples():
    cfg = one_level()
    assert lower_bound_multi_user(cfg, 2, MultiUserBoundParams(1, 1, (2,))) == 2
    assert lower_bound_multi_user(cfg, 2, MultiUserBoundParams(1, 1, (1,))) == 0
    # M = 0, t=1, b=1, s_i = K//2
    assert lower_bound_multi_user(cfg, 0, MultiUserBoundParams(1, 1, (2,))) == 4


def test_bound_params_validation():
    cfg = one_level()
    with pytest.raises(ValueError):
        lower_bound_multi_user(cfg, 2, MultiUserBoundParams(0, 1, (1,)))
    with pytest.raises(ValueError):
        lower_bound_multi_user(cfg, 2, MultiUserBoundParams(1, 0, (1,)))
    with pytest.raises(ValueError):
        lower_bound_multi_user(cfg, 2, MultiUserBoundParams(1, 1, (3,)))  # > K/2t
    with pytest.raises(ValueError):
        lower_bound_multi_user(cfg, 2, MultiUserBoundParams(3, 1, (1,)))  # K/2t < 1
    with pytest.raises(ValueError):
        lower_bound_multi_user(cfg, 2, MultiUserBoundParams(1, 1, (1, 1)))


def test_optimizer_examples():
    cfg = one_level()
    value, params = optimize_lower_bound_mu(cfg, 2)
    assert value == 2
    assert params == MultiUserBoundParams(1, 1, (2,))
    assert optimize_lower_bound_mu(cfg, 8)[0] == 0
    v0, _ = optimize_lower_bound_mu(cfg, 0)
    assert v0 >= min(2 * 2, 8)  # at least max_i min{(K//2)U_i, N_i}


def test_optimizer_never_negative_and_monotone():
    rng = random.Random(23)
    for _ in range(6):
        cfg = random_multi_user_config(rng, max_levels=3)
        total = cfg.total_files
        values = []
        for k in range(8):
            M = Fraction(total) * k / 7
            value, params = optimize_lower_bound_mu(cfg, M)
            assert value >= 0
            if params is not None:
                validate_bound_params(params, cfg.caches, len(cfg.levels))
            values.append(value)
        for lo, hi in zip(values[1:], values[:-1]):
            assert hi >= lo


def test_separable_choice_matches_exhaustive():
    rng = random.Random(31)
    for _ in range(40):
        K = rng.choice((4, 6, 8))
        L = rng.randint(1, 2)
        levels = [(rng.randint(1, 12) * K, rng.randint(1, 3)) for _ in range(L)]
        cfg = SystemConfig.multi_user(K, levels)
        for t in range(1, K // 2 + 1):
            smax = K // (2 * t)
            for b in range(1, 9):
                chosen = best_cut_sizes(cfg, t, b)
                best = best_vec = None
                for svec in itertools.product(range(1, smax + 1), repeat=len(cfg.levels)):
                    val = lower_bound_multi_user(cfg, 0, MultiUserBoundParams(t, b, svec))
                    if best is None or val > best:
                        best, best_vec = val, svec
                got = lower_bound_multi_user(cfg, 0, MultiUserBoundParams(t, b, chosen))
                assert got == best
                assert chosen == best_vec  # ties resolve to the smallest counts


def _oracle_configs():
    rng = random.Random(59)
    for K in (2, 3, 4, 8, 16):
        for _ in range(4):
            levels = [(rng.randint(1, 80), rng.randint(1, 6)) for _ in range(rng.randint(1, 3))]
            yield SystemConfig.multi_user(K, levels)


def _breakpoints(cfg):
    """Non-negative memories where consecutive envelope lines meet."""
    return sorted({M for M in fraction_lines(cfg)[1] if M >= 0})


def _level_states(cfg, t, b):
    """The window counts at (t, b), and per level whether its term is s*t*U."""
    s = best_cut_sizes(cfg, t, b)
    return s, tuple(si * si * t * b * lv.users <= lv.files for si, lv in zip(s, cfg.levels))


def _runs(cfg):
    """Each t with each of its runs, found apart from `_cut_run`: the longest
    blocks of consecutive grid b with equal window counts and sides.  A b
    strictly inside a run has both grid neighbours in its state."""
    for t in range(1, cfg.caches // 2 + 1):
        runs, last = [], None
        for b in candidate_b_values(cfg, t):
            state = _level_states(cfg, t, b)
            if state == last:
                runs[-1].append(b)
            else:
                runs.append([b])
            last = state
        for run in runs:
            yield t, run


def _pivots(cfg):
    """``(t, run, alpha, M*)`` of each run with an inner candidate: the cut
    sum along the run is ``alpha + beta/b``, so every line of the run reads
    alpha at ``M* = beta/t``."""
    out = []
    for t, run in _runs(cfg):
        if len(run) > 2:
            s, sides = _level_states(cfg, t, run[0])
            terms = list(zip(s, sides, cfg.levels))
            alpha = sum(si * t * lv.users for si, side, lv in terms if side)
            beta = sum((Fraction(lv.files, si) for si, side, lv in terms if not side),
                       Fraction(0))
            out.append((t, run, alpha, beta / t))
    return out


def test_optimizer_matches_grid_oracle():
    # At a run's pivot its inner lines, which the envelope never holds, tie
    # with the run's first line; those are the only memories where a line
    # left out of the build meets the maximum.
    rng = random.Random(61)
    pivots = 0
    for cfg in _oracle_configs():
        total = cfg.total_files
        mems = [Fraction(0)] + [Fraction(rng.randint(0, 8 * total), 7) for _ in range(6)]
        at_pivots = [pivot for *_, pivot in _pivots(cfg)]
        pivots += len(at_pivots)
        for M in mems + _breakpoints(cfg) + at_pivots:
            assert optimize_lower_bound_mu(cfg, M) == grid_bound_mu(cfg, M), (cfg, M)
    assert pivots > 100


def test_bisection_matches_linear_envelope_scan():
    # Every breakpoint ties two lines, so the tie rule is exercised there.
    for cfg in _oracle_configs():
        slopes = [m for _, m, _ in fraction_lines(cfg)[0]]
        assert all(m1 > m2 for m1, m2 in zip(slopes, slopes[1:]))  # steepest first
        points = [Fraction(0)] + _breakpoints(cfg)
        mids = [(a + b) / 2 for a, b in zip(points, points[1:])]
        for M in points + mids + [points[-1] + 1, 10 * cfg.total_files]:
            assert optimize_lower_bound_mu(cfg, M) == linear_envelope_scan(cfg, M), (cfg, M)
    # The audit-generator configs (K up to 128) on the audit grid: at
    # M = total the t = 1 lines with every s_i = 1 meet at 0.  The envelope
    # holds the two end lines of their run and the line just before it, one
    # of whose cut terms has its two sides equal: 3 tied lines.  Large
    # numerators and denominators take the same path.
    big = 10 ** 30 + 7
    for cfg in _envelope_configs()[:40]:
        total = cfg.total_files
        for M in audit_grid(cfg) + [Fraction(total + 1), Fraction(total * big - 1, big),
                                    Fraction(total * big // 3, big)]:
            assert optimize_lower_bound_mu(cfg, M) == linear_envelope_scan(cfg, M), (cfg, M)


def test_optimizer_nonincreasing_across_breakpoints():
    for cfg in _oracle_configs():
        values = [optimize_lower_bound_mu(cfg, M)[0] for M in _breakpoints(cfg)]
        assert values == sorted(values, reverse=True), cfg


def test_optimizer_single_cache_has_no_bound():
    assert optimize_lower_bound_mu(SystemConfig.multi_user(1, [(8, 2)]), 1) == (0, None)


def test_optimizer_refuses_more_caches_than_the_limit():
    K = MAX_BOUND_CACHES + 1
    with pytest.raises(ValueError, match="limited to 4096 caches"):
        optimize_lower_bound_mu(SystemConfig.multi_user(K, [(K, 1)]), 1)


@pytest.mark.parametrize("t, b, message", [
    (5, 3, "t=5 leaves no valid window count for K=8"),
    (0, 3, "t=0 outside 1..8"),
    (1, 0, "b=0 must be positive"),
])
def test_best_cut_sizes_rejects_windows_out_of_range(t, b, message):
    cfg = SystemConfig.multi_user(8, [(16, 2), (64, 1)])
    with pytest.raises(ValueError, match=message):
        best_cut_sizes(cfg, t, b)
    with pytest.raises(ValueError, match=message):
        validate_bound_params(MultiUserBoundParams(t, b, (1, 1)), cfg.caches, len(cfg.levels))


_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _wide_levels_config(rng):
    # Like perfbench's wide_levels: levels U*p*s^2 over distinct primes p.
    K = rng.choice((4, 6, 8))
    levels = []
    for p in rng.sample(_PRIMES, rng.randint(2, 10)):
        users = rng.randint(1, 4)
        s = max(1, round(rng.uniform(6.0, 12.0) * rng.uniform(1.0, 1.4) / math.sqrt(p)))
        levels.append((users * p * s * s, users))
    return SystemConfig.multi_user(K, levels)


def _grid_configs():
    """Audit-generator, irregular and wide-levels configs."""
    rng = random.Random(67)
    audit = [random_multi_user_config(rng) for _ in range(40)]
    assert {96, 128} <= {cfg.caches for cfg in audit}
    irregular = [SystemConfig.multi_user(rng.randint(2, 70),
                                         [(rng.randint(1, 5000), rng.randint(1, 6))
                                          for _ in range(rng.randint(1, 5))])
                 for _ in range(100)]
    wide = [_wide_levels_config(rng) for _ in range(20)]
    return audit + irregular + wide


def _envelope_configs():
    return _grid_configs() + [
        SystemConfig.multi_user(MAX_BOUND_CACHES, [(MAX_BOUND_CACHES, 1)]),
        # The t = 1 lines (1, 1) and (1, 2) meet at M = 4, and the line of
        # (4, 5), 36/5 - (4/5)*M, touches them there and nowhere else: it
        # stays on the envelope, so the t = 1 hull filter may drop only
        # lines strictly below.
        SystemConfig.multi_user(10, [(36, 2)])]


def _reference_queries(ref_lines, points):
    """The bound at each memory of `points` as a scan over the reference
    lines: the largest value, clamped at zero, with the smallest (t, b, s)
    among the lines that reach it.  The values at M = p/q are compared in
    integers, times L*q for a common denominator L of every A and slope."""
    L = math.lcm(*(x.denominator for A, m, _ in ref_lines for x in (A, m)))
    ints = [(int(A * L), int(m * L), key) for A, m, key in ref_lines]
    out = []
    for M in points:
        p, q = M.numerator, M.denominator
        best = max(a * q - c * p for a, c, _ in ints)
        key = min(key for a, c, key in ints if a * q - c * p == best)
        out.append((max(Fraction(best, L * q), Fraction(0)), MultiUserBoundParams(*key)))
    return out


def test_envelope_matches_reference_construction(monkeypatch):
    # The reference builds a line for every grid candidate; the package
    # builds only the end lines of each run.  Its envelope keeps the
    # reference's lines in order, less some strictly inside a run, and each
    # query reads the same value and (t, b, s) as a scan of the reference.
    handed = []
    envelope = bounds._envelope

    def recorded(lines):
        handed.append(lines)
        return envelope(lines)

    monkeypatch.setattr(bounds, "_envelope", recorded)
    left_out = 0
    for cfg in _envelope_configs():
        handed.clear()
        lines, _ = fraction_lines(cfg)
        ref_lines, ref_breaks = reference_bound_lines(cfg)
        inner = {(t, b) for t, run in _runs(cfg) for b in run[1:-1]}
        rest = iter(ref_lines)
        assert all(line in rest for line in lines), cfg  # a subsequence
        gone = {key[:2] for _, _, key in ref_lines} - {key[:2] for _, _, key in lines}
        assert gone <= inner, cfg
        left_out += len(gone)
        # H1's build and the final one are handed run end lines only.
        assert len(handed) == 2, cfg
        assert not any(line[2:] in inner for lines_in in handed for line in lines_in), cfg
        points = [Fraction(0)] + sorted({M for M in ref_breaks if M >= 0})
        mids = [(x + y) / 2 for x, y in zip(points, points[1:])]
        points += mids + [points[-1] + 1]
        for M, want in zip(points, _reference_queries(ref_lines, points)):
            assert optimize_lower_bound_mu(cfg, M) == want, (cfg, M)
    assert left_out > 1000


def test_cached_envelope_holds_only_integers():
    configs = _envelope_configs()
    for cfg in configs[:40] + configs[-2:]:
        optimize_lower_bound_mu(cfg, 1)
        lines, breaks = cfg.fact(_bound_lines)
        assert lines and len(breaks) == len(lines) - 1
        assert all(type(x) is int for entry in lines + breaks for x in entry), cfg
        assert all(len(line) == 4 for line in lines) and all(len(x) == 2 for x in breaks)


def test_locate_matches_bisect_left_over_fraction_breakpoints():
    # At 0, at every breakpoint (runs of equal breakpoints included), between
    # consecutive breakpoints and past the last one.
    ties = 0
    for cfg in _envelope_configs():
        breaks = _bound_lines(cfg)[1]
        points = [Fraction(n, d) for n, d in breaks]
        ties += sum(x == y for x, y in zip(points, points[1:]))
        mids = [(x + y) / 2 for x, y in zip(points, points[1:])]
        past = [points[-1] + 1] if points else [Fraction(1)]
        for M in [Fraction(0)] + points + mids + past:
            assert _locate(breaks, M.numerator, M.denominator) == bisect.bisect_left(points, M)
    assert ties > 100


def test_only_the_query_computes_window_counts(count_calls):
    # The envelope build computes no window counts; a query computes those
    # of its one line.
    cfg = SystemConfig.multi_user(16, [(40, 2), (3000, 1), (10 ** 6, 3)])
    calls = count_calls(best_cut_sizes)
    _bound_lines(cfg)
    assert calls == []
    for count, M in enumerate([Fraction(0), Fraction(1, 3), Fraction(7), Fraction(10 ** 7)], 1):
        optimize_lower_bound_mu(cfg, M)
        assert len(calls) == count


def test_cut_runs_keep_every_level_state():
    # Every grid b of a run has the run's window counts and sides, and so
    # its cut sum; the first grid b past the run's end has another state.
    runs = longest = 0
    for cfg in _grid_configs():
        b_max = _b_search_limit(cfg)
        for t in range(2, cfg.caches // 2 + 1):
            smax = cfg.caches // (2 * t)
            zones = [(lv.files, t * lv.users, lv.files // (t * lv.users),
                      lv.files // (smax * smax * t * lv.users)) for lv in cfg.levels]
            grid = candidate_b_values(cfg, t)
            i = 0
            while i < len(grid):
                whole, num, den, end = _cut_run(zones, smax, grid[i], b_max)
                state = _level_states(cfg, t, grid[i])
                j = i
                while j < len(grid) and grid[j] <= end:
                    b = grid[j]
                    assert _level_states(cfg, t, b) == state, (cfg, t, grid[i], b)
                    assert (whole * den * b + num, den * b) == cut_sum(cfg, t, b, state[0])
                    j += 1
                assert j > i
                if j < len(grid):
                    assert _level_states(cfg, t, grid[j]) != state, (cfg, t, grid[i], end)
                runs += 1
                longest = max(longest, j - i)
                i = j
    assert runs > 10000 and longest > 20


@pytest.mark.parametrize("caches, levels, sign", [
    (8, [(17, 1)], 1),  # H1 strictly above alpha at a pivot
    (32, [(128, 1)], -1),  # H1 strictly below alpha at a pivot
    (5, [(22, 1)], 0),  # H1 touches alpha at the pivot
])
def test_query_at_a_run_pivot_returns_no_inner_line(caches, levels, sign):
    # At a run's pivot M* every line of the run reads alpha, and an inner
    # line ties with the run's first line, of the same t and a smaller b.
    # So the query returns that line or a smaller (t, b) when the maximum
    # is alpha, and a line above alpha otherwise: never an inner line, which
    # the envelope does not hold.  H1, the maximum of every t = 1 line in
    # Fractions, is above, below or at alpha at the pivots of larger t.
    cfg = SystemConfig.multi_user(caches, levels)
    ones = [(Fraction(*cut_sum(cfg, 1, b, best_cut_sizes(cfg, 1, b))), Fraction(1, b))
            for b in candidate_b_values(cfg, 1)]
    signs = set()
    for t, run, alpha, pivot in _pivots(cfg):
        value, params = optimize_lower_bound_mu(cfg, pivot)
        assert (value, params) == grid_bound_mu(cfg, pivot), (t, run)
        assert value > alpha or (value == alpha and (params.t, params.b) <= (t, run[0])), (t, run)
        assert not (params.t == t and run[0] < params.b < run[-1]), (t, run)
        if t > 1:
            h1 = max(A - m * pivot for A, m in ones)
            signs.add((h1 > alpha) - (h1 < alpha))
    assert sign in signs


def test_reduced_slope_dominates_its_multiples():
    # The envelope skips (t, b) when (t/g, b/g) is a candidate; that is exact
    # because the reduced pair's best cut sum is never smaller.
    rng = random.Random(71)
    configs = [random_multi_user_config(rng, max_levels=3) for _ in range(6)]
    configs += [SystemConfig.multi_user(rng.randint(4, 40),
                                        [(rng.randint(1, 3000), rng.randint(1, 5))
                                         for _ in range(rng.randint(1, 4))])
                for _ in range(20)]
    checked = 0
    for cfg in configs:
        for t in range(1, min(cfg.caches // 2, 24) + 1):
            for b in candidate_b_values(cfg, t):
                g = math.gcd(t, b)
                if g == 1:
                    continue
                cut = lower_bound_multi_user(
                    cfg, 0, MultiUserBoundParams(t, b, best_cut_sizes(cfg, t, b)))
                reduced = lower_bound_multi_user(
                    cfg, 0, MultiUserBoundParams(t // g, b // g,
                                                 best_cut_sizes(cfg, t // g, b // g)))
                assert cut <= reduced, (cfg, t, b)
                checked += 1
    assert checked > 1000


def test_envelope_keeps_a_line_whose_reduced_pair_is_off_grid():
    # (1, 31) is no candidate of t = 1, so the line at (5, 155) has to be
    # built, and the query returns it between its breakpoints 13373/95 and
    # 60411/350.  Found by a search over random.Random(1) configs.
    cfg = SystemConfig.multi_user(12, [(1549, 2)])
    assert 31 not in candidate_b_values(cfg, 1)
    assert 155 in candidate_b_values(cfg, 5)
    M = Fraction(150)
    assert optimize_lower_bound_mu(cfg, M) == grid_bound_mu(cfg, M)
    assert optimize_lower_bound_mu(cfg, M)[1] == MultiUserBoundParams(5, 155, (1,))


def _matched_case_config():
    # One popular level fully stored, one unpopular level left in the
    # intermediate regime at M = 120, with K = 96.
    return SystemConfig.multi_user(96, [(96, 1), (96 * 6400 * 50, 1)])


def test_optimizer_dominates_small_brute_force():
    rng = random.Random(47)
    for _ in range(8):
        K = rng.choice((4, 6, 8))
        levels = [(rng.randint(1, 10) * K, rng.randint(1, 2))
                  for _ in range(rng.randint(1, 2))]
        cfg = SystemConfig.multi_user(K, levels)
        total = cfg.total_files
        for M in (Fraction(0), Fraction(total, 4), Fraction(total, 2)):
            brute = Fraction(0)
            for t in range(1, K // 2 + 1):
                smax = K // (2 * t)
                for b in range(1, 9):
                    for svec in itertools.product(range(1, smax + 1),
                                                  repeat=len(cfg.levels)):
                        value = lower_bound_multi_user(
                            cfg, M, MultiUserBoundParams(t, b, svec))
                        brute = max(brute, value)
            assert optimize_lower_bound_mu(cfg, M)[0] >= brute


def test_matched_params_examples():
    cfg = _matched_case_config()
    M = Fraction(120)
    params = matched_bound_params(cfg, M)
    assert params.t == 1
    assert params.b >= 1  # guaranteed while the full-storage set is nonempty
    validate_bound_params(params, cfg.caches, len(cfg.levels))
    # the cut bound at the matched parameters is sound
    value = lower_bound_multi_user(cfg, M, params)
    achievable = rate_memory_sharing(cfg, M).achievable
    assert exact_sign(achievable - value) >= 0
    # the optimizer's grid holds these parameters, so it does no worse
    assert optimize_lower_bound_mu(cfg, M)[0] >= value

    with pytest.raises(CaseNotApplicable):
        matched_bound_params(one_level(), 2)  # K < 96
    with pytest.raises(CaseNotApplicable):
        matched_bound_params(cfg, 0)  # empty full-storage set


def test_matched_params_h_cut_size():
    # A no-memory level under the matched recipe gets floor(K/8) windows.
    K = 96
    cfg = SystemConfig.multi_user(
        K, [(K, 1), (K * 6400 * 50, 1), (K * 6400 * 50 * 6400, 1)])
    M = Fraction(120)
    params = matched_bound_params(cfg, M)
    refined = refine_partition(cfg, M)
    assert refined.H and refined.J and refined.Iprime
    for h in refined.H:
        assert params.s[h] == K // 8 == 12
    for j in refined.J:
        assert params.s[j] == 1
    validate_bound_params(params, cfg.caches, len(cfg.levels))
    assert optimize_lower_bound_mu(cfg, M)[0] >= lower_bound_multi_user(cfg, M, params)


def test_single_user_bound_examples():
    cfg = SystemConfig.single_user(5, [(4, 4), (100, 1)])
    value, params = lower_bound_single_user(cfg, Fraction(1, 10))
    assert value == Fraction(9, 2)
    assert params.b == 1 and set(params.s) == {4, 1}

    value10, params10 = lower_bound_single_user(cfg, 10)
    assert value10 == Fraction(5, 6)
    assert params10.s_J == 0  # M >= N_J = 4

    assert lower_bound_single_user(cfg, 104)[0] == 0


def test_single_user_bound_collective_cut():
    # Everything in the full-storage regime but memory below its library.
    cfg = SystemConfig.single_user(4, [(4, 2), (8, 2)])
    M = Fraction(3)
    value, params = lower_bound_single_user(cfg, M)
    assert params.s_J >= 1
    assert params.n_J == 12  # all files decodable: b >= every N_j
    assert value == Fraction(12 - params.s_J * 3, params.b)


def test_single_user_bound_repairs_an_over_budget_cut():
    # An irregular config with two users on one cache: the recipe asks for a
    # collective cut of s_J = ceil(120/66) = 2 > K, and the repair cuts it to 1.
    cfg = SystemConfig.single_user(1, [(60, 1), (60, 1)])
    value, params = lower_bound_single_user(cfg, 11)
    assert params == SingleUserBoundParams(b=66, s=(0, 0), s_J=1, n_J=66)
    assert value == Fraction(5, 6)
    assert value <= rate_clustering(cfg, 11).achievable == 2
    # Below M = 1/6 every user would be cut, two over one cache; the repair
    # cuts the first level away.
    M = Fraction(1, 12)
    value, params = lower_bound_single_user(cfg, M)
    assert params == SingleUserBoundParams(b=1, s=(0, 1), s_J=0, n_J=0)
    assert value == Fraction(11, 12)
    assert value <= rate_clustering(cfg, M).achievable == 2


def _irregular_single_user_configs(rng, count):
    # Files below users and user counts off the cache count, either way.
    for _ in range(count):
        levels = [(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
        yield SystemConfig.single_user(rng.randint(1, 10), levels)


def test_cut_budget_closed_form_matches_the_loop():
    # Small cuts make ties common; s_J is drawn at the maximum cut, below it
    # and above it, and K from 1 to past the total.
    rng = random.Random(41)
    for _ in range(12000):
        top = rng.choice((3, 8, 60))
        s = [rng.randint(0, top) for _ in range(rng.randint(1, 6))]
        s_j = rng.choice((0, max(s), rng.randint(0, top), max(s) + rng.randint(1, 3)))
        K = rng.randint(1, sum(s) + s_j + 2)
        expected = fit_cut_budget(s, s_j, K)
        assert _fit_cut_budget(list(s), s_j, K) == expected, (s, s_j, K)


def test_single_user_bound_budget():
    # Every cut stays within its levels' users, s_J within K_J, and the cut
    # budget holds, on any config and at any memory: both branches repair it.
    rng = random.Random(13)
    configs = [random_single_user_config(rng) for _ in range(25)]
    configs += _irregular_single_user_configs(rng, 40)
    over = 0
    for cfg in configs:
        total, K = cfg.total_files, cfg.caches
        users = sum(lv.users for lv in cfg.levels)
        mems = {Fraction(total) * k / 5 for k in range(6)} | {Fraction(1, 12), Fraction(1, 6)}
        mems |= {Fraction(lv.files, d) for lv in cfg.levels for d in (lv.users, 6)}
        for M in sorted(mems):
            _, params = lower_bound_single_user(cfg, M)
            J = refine_partition_su(cfg, M).J
            assert 0 <= params.s_J <= sum(cfg.levels[j].users for j in J)
            for s_i, lv in zip(params.s, cfg.levels):
                assert 0 <= s_i <= lv.users
            assert sum(params.s) + params.s_J <= K, (cfg, M)
        over += users > K
    assert over >= 10


def test_single_user_bound_matches_the_regime_oracle():
    # One pass over the clustering partition gives the value and the cuts of
    # the recipe with one branch per regime G, H, I and J.
    rng = random.Random(29)
    configs = [random_single_user_config(rng) for _ in range(30)]
    configs += _irregular_single_user_configs(rng, 60)
    for _ in range(20):  # wide: up to 40 caches and 8 levels
        levels = [(rng.randint(1, 400), rng.randint(1, 12)) for _ in range(rng.randint(4, 8))]
        configs.append(SystemConfig.single_user(rng.randint(1, 40), levels))
    for cfg in configs:
        for M in regime_memories(cfg):
            assert lower_bound_single_user(cfg, M) == regime_lower_bound_su(cfg, M), (cfg, M)


def test_bounds_sound_on_random_instances():
    rng = random.Random(37)
    for _ in range(6):
        cfg = random_multi_user_config(rng, max_levels=3)
        total = cfg.total_files
        for k in range(6):
            M = Fraction(total) * k / 5
            lower, _ = optimize_lower_bound_mu(cfg, M)
            achievable = rate_memory_sharing(cfg, M).achievable
            assert exact_sign(achievable - lower) >= 0
    for _ in range(10):
        cfg = random_single_user_config(rng)
        total = cfg.total_files
        for k in range(6):
            M = Fraction(total) * k / 5
            lower, _ = lower_bound_single_user(cfg, M)
            assert rate_clustering(cfg, M).achievable >= lower


def test_single_user_bound_monotone():
    rng = random.Random(41)
    for _ in range(10):
        cfg = random_single_user_config(rng)
        total = cfg.total_files
        values = []
        for k in range(10):
            M = Fraction(total) * k / 9
            values.append(lower_bound_single_user(cfg, M)[0])
        for lo, hi in zip(values[1:], values[:-1]):
            assert hi >= lo


def test_gap_report_examples():
    cfg = one_level()
    g = gap_report(Setup.MULTI_USER, Fraction(6), Fraction(2), 2, cfg)
    assert g.ratio == 3 and g.within and g.constant == 192 and not g.inversion

    cfg_su = SystemConfig.single_user(5, [(4, 4), (100, 1)])
    g2 = gap_report(Setup.SINGLE_USER, Fraction(5), Fraction(9, 2), Fraction(1, 10), cfg_su)
    assert g2.ratio == Fraction(10, 9) and g2.within and g2.constant == Fraction(6, 5)

    g3 = gap_report(Setup.SINGLE_USER, Fraction(0), Fraction(0), 7, cfg_su)
    assert g3.ratio == 0 and g3.within

    g4 = gap_report(Setup.MULTI_USER, Fraction(1), Fraction(2), 2, cfg)
    assert g4.inversion

    g5 = gap_report(Setup.MULTI_USER, Fraction(1), Fraction(0), 2, cfg)
    assert g5.ratio is None and not g5.within and not g5.inversion

    # boundary memory M = 1/6 uses the general single-user constant
    g6 = gap_report(Setup.SINGLE_USER, Fraction(1), Fraction(1), Fraction(1, 6), cfg_su)
    assert g6.constant == 72


def test_gap_report_matches_the_fraction_oracle():
    # A rational rate takes the integer path and an irrational one the
    # RootSum path; both must give the oracle's report, field for field and
    # type for type.  The constants are 192, 72 and the non-integer 6/5
    # below M = 1/6; a rate of exactly constant*lower is within it.
    rng = random.Random(173)
    cfg_mu = SystemConfig.multi_user(4, [(8, 2)])
    cfg_su = SystemConfig.single_user(5, [(4, 4), (100, 1)])
    points = [(Setup.MULTI_USER, Fraction(2), 192), (Setup.SINGLE_USER, Fraction(1, 12),
              Fraction(6, 5)), (Setup.SINGLE_USER, Fraction(1, 6), 72),
              (Setup.SINGLE_USER, Fraction(7, 3), 72)]

    def fraction():
        return Fraction(rng.randint(0, 10 ** rng.randint(1, 30)), rng.randint(1, 10 ** 6))

    def root_sum():
        return fraction() + rng.randint(1, 50) * RootSum.sqrt(rng.choice((2, 3, 6, 10, 15)))

    kinds = {"within": 0, "outside": 0, "at the constant": 0, "inversion": 0,
             "zero lower": 0, "RootSum": 0}
    for setup, M, constant in points:
        cfg = cfg_mu if setup is Setup.MULTI_USER else cfg_su
        cases = [(Fraction(0), Fraction(0)), (Fraction(3, 7), Fraction(0)),
                 (fraction() + 1, Fraction(0)), (Fraction(1, 3), Fraction(1, 2)),
                 (Fraction(5, 11), Fraction(5, 11)),
                 (constant * Fraction(5, 11), Fraction(5, 11)),
                 (constant * Fraction(5, 11) + Fraction(1, 10 ** 40), Fraction(5, 11))]
        for _ in range(300):
            lower = fraction()
            cases.append((lower * Fraction(rng.randint(0, 400), rng.randint(1, 200)), lower))
            cases.append((constant * lower, lower))
            cases.append((root_sum(), lower))
            cases.append((root_sum(), Fraction(0)))
        for achievable, lower in cases:
            got = gap_report(setup, achievable, lower, M, cfg)
            want = fraction_gap_report(setup, achievable, lower, M, cfg)
            assert got == want and repr(got) == repr(want), (setup, M, achievable, lower)
            assert type(got.ratio) is type(want.ratio)
            if type(achievable) is RootSum:
                kinds["RootSum"] += 1
            elif lower == 0:
                kinds["zero lower"] += 1
            elif achievable < lower:
                kinds["inversion"] += 1
            elif achievable == constant * lower:
                kinds["at the constant"] += 1
            else:
                kinds["within" if got.within else "outside"] += 1
    assert min(kinds.values()) >= 4, kinds
