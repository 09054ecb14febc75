"""Seeded inputs, operations and output checks of the benchmark's workloads.

Each workload is an endless sequence of *rounds*. A round is a fixed mix of
operation strata (cache counts, level counts, partial-level counts, subset
sizes) whose concrete instances, memories, demands and order come from the
seed, so two seeds cost about the same while exercising different inputs.
The timed loop runs whole rounds, which keeps the op mix of every run equal.

Inputs are generated here, not by cachelab's own generators; the package
receives only configs (objects or JSON files), memories and demands. Every
call into cachelab goes through a module attribute (``bounds.gap_report``,
not a name imported from it), so the tracer's wrappers see the call.

An op's ``run`` is the timed call into cachelab. Its ``check`` is untimed:
it returns the canonical text of the outputs (hashed into the run digest)
and a list of problems, empty when every invariant holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
from fractions import Fraction

from cachelab import bounds, cli, multi_user, single_level, single_user
from cachelab.model import Setup, SystemConfig
from cachelab.radicals import as_exact_str


def _sets(*groups) -> str:
    return "|".join(",".join(str(i) for i in sorted(g)) for g in groups)


# -- mu-audit ----------------------------------------------------------------

CACHE_COUNTS = (4, 8, 16, 32, 96, 128)
POPULARITY_SEPARATION = 6400   # the regularity factor 1/beta**2


def regular_levels(rng: random.Random, K: int, L: int) -> list[tuple[int, int]]:
    """(files, users-per-cache) of a regular multi-user instance.

    Files are a multiple of caches*users, and consecutive levels are at
    least POPULARITY_SEPARATION apart in popularity.
    """
    levels, prev = [], None
    for _ in range(L):
        users = rng.randint(1, 4)
        base = K * rng.randint(1, 4)
        per_user = base if prev is None else base * -(-POPULARITY_SEPARATION * prev // base)
        levels.append((users * per_user, users))
        prev = per_user
    return levels


def audit_grid(total: int, points: int = 20) -> list[Fraction]:
    return sorted({Fraction(total) * k / (points - 1) for k in range(points)})


class MuAuditOp:
    """One audit memory point: memory-sharing rate, optimized bound, gap."""

    __slots__ = ("config", "M")

    def __init__(self, config: SystemConfig, M: Fraction):
        self.config, self.M = config, M

    def run(self):
        report = multi_user.rate_memory_sharing(self.config, self.M)
        lower, _ = bounds.optimize_lower_bound_mu(self.config, self.M)
        gap = bounds.gap_report(Setup.MULTI_USER, report.achievable, lower, self.M, self.config)
        return report, lower, gap

    def check(self, out):
        report, lower, gap = out
        part = report.partition
        text = "|".join((as_exact_str(report.achievable), as_exact_str(lower),
                         as_exact_str(gap.ratio), _sets(part.H, part.I, part.J)))
        problems = []
        if gap.inversion:
            problems.append("lower bound exceeds the achievable rate")
        if not gap.within and lower != 0:
            problems.append(f"gap ratio {gap.ratio} above {gap.constant}")
        return text, problems


class MuAudit:
    """Regular multi-user instances, each on the 20-point audit grid."""

    name = "mu-audit"
    why = ("Regular multi-user audit points (rate, bound, gap): bounds takes about 90% of "
           "self time, ~137 best_cut_sizes calls per bound; one partial level, so "
           "radicals.inverse stays idle")
    # One instance per (cache count, level count) stratum.
    strata = [(K, L) for K in CACHE_COUNTS for L in (1, 2, 3, 4)]
    round_ops = 20 * len(strata)
    probe = "fraction"    # see calibrate.py
    round_seconds = 3.6   # calibrated
    deadline_s = 5.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    @staticmethod
    def _instance_ops(rng, K, L):
        config = SystemConfig.multi_user(K, regular_levels(rng, K, L))
        return [MuAuditOp(config, M) for M in audit_grid(config.total_files)]

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        strata = list(self.strata)
        rng.shuffle(strata)
        return [op for K, L in strata for op in self._instance_ops(rng, K, L)]

    def warmup(self) -> list:
        rng = random.Random(f"{self.name}:warmup")
        # 12 caches is no timed stratum, so warm-up fills no timed config's caches.
        return self._instance_ops(rng, 12, 2)[::5]


# -- wide-levels -------------------------------------------------------------

_PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def wide_levels(rng: random.Random, partial: int, high: int):
    """Irregular multi-user instance whose partition puts every level in I.

    Level i has N_i*U_i = U_i**2 * p_i * s_i**2 for distinct primes p_i, so
    the kernels of sqrt(N_i*U_i) are pairwise independent. With
    x_i = sqrt(N_i/U_i), every level is partial when the normalized memory
    m lies in [max x_i / K, (1 + 1/K) min x_i], and level i gets memory
    M_i > N_i/K, the branch of the single-level rate that inverts M_i (a sum
    of 2**(partial-1) radical terms), when m > 2 x_i / K. The memory puts m
    midway in the window where exactly the `high` levels of smallest x_i are
    in that branch; draws repeat until the window is at least 2% wide.
    (Floats only place the memory; the check of each op confirms the
    partition and the branch of every level from the reported allocation.)
    """
    while True:
        K = rng.choice((4, 6, 8))
        target = rng.uniform(6.0, 12.0)
        levels = []
        for p in rng.sample(_PRIMES, partial):
            users = rng.randint(1, 4)
            s = max(1, round(target * rng.uniform(1.0, 1.4) / math.sqrt(p)))
            levels.append((users * p * s * s, users))
        x = sorted(math.sqrt(n / u) for n, u in levels)
        lo = max(x[-1] / K, 2 * x[high - 1] / K if high else 0.0)
        hi = min((1 + 1 / K) * x[0], 2 * x[high] / K if high < partial else math.inf)
        if hi > 1.02 * lo:
            break
    m_tilde = (lo + hi) / 2
    M = m_tilde * sum(math.sqrt(n * u) for n, u in levels) - sum(n / K for n, _ in levels)
    # In cachelab's order of the levels (decreasing popularity U/N), which
    # the reported allocation follows.
    levels.sort(key=lambda level: Fraction(level[1], level[0]), reverse=True)
    return K, levels, Fraction(round(M * 8), 8)


def mixed_population(rng: random.Random):
    """A replicated class of one level and a single-row class of two levels."""
    K = rng.choice((4, 6, 8))
    users = rng.randint(1, 2)
    replicated = [(K * users * rng.randint(1, 3), users)]
    row = []
    for _ in range(2):
        k = rng.randint(1, 3)
        row.append((k * rng.randint(2, 12), k))
    total = sum(n for n, _ in replicated + row)
    return K, replicated, row, Fraction(rng.randint(total // 4, total // 2))


def _run_cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _approx(text: str) -> float:
    """Float value of an exact value printed as ``a + b*sqrt(k) - c*sqrt(l) ...``."""
    parts = re.split(r" ([+-]) ", text)
    total = 0.0
    for sign, term in zip(["+"] + parts[1::2], parts[::2]):
        coeff, _, root = term.partition("sqrt(")
        value = float(Fraction(coeff.rstrip("*") or 1))
        if root:
            value *= math.sqrt(int(root.rstrip(")")))
        total += value if sign == "+" else -value
    return total


def _cli_json(code: int, text: str):
    if code != 0:
        return None, [f"exit code {code}"]
    start = text.find("{")
    if start < 0:
        return None, ["no JSON report in the output"]
    try:
        return json.loads(text[start:]), []
    except json.JSONDecodeError as exc:
        return None, [f"unreadable JSON report: {exc}"]


class RateCliOp:
    """``cachelab rate CONFIG --mem M`` on an all-partial wide instance."""

    __slots__ = ("path", "M", "K", "files", "high")

    def __init__(self, path: str, M: Fraction, K: int, files: list[int], high: int):
        self.path, self.M, self.K, self.files, self.high = path, M, K, files, high

    def run(self):
        return _run_cli(["rate", self.path, "--mem", str(self.M)])

    def check(self, out):
        data, problems = _cli_json(*out)
        if data is None:
            return "", problems
        part = data["partition"]
        text = "|".join((data["achievable"], data.get("lower", ""), data.get("gap_ratio", ""),
                         _sets(part["H"], part["I"], part["J"])))
        if len(part["I"]) != len(self.files):
            problems.append(f"{len(part['I'])} partial levels, expected {len(self.files)}")
        amounts = [_approx(a) for a in data["allocation"]["amounts"]]
        high = sum(a > n / self.K for a, n in zip(amounts, self.files))
        if high != self.high:
            problems.append(f"{high} levels get more than N/K memory, expected {self.high}")
        if "lower" not in data or "gap_ratio" not in data:
            problems.append("no lower bound or gap ratio in the report")
        elif data["gap_ratio_float"] < 1 - 1e-9:
            problems.append(f"gap ratio {data['gap_ratio']} below 1")
        return text, problems


class MixedCliOp:
    """``cachelab mixed CONFIG --mem M [--gamma G]``."""

    __slots__ = ("path", "M", "gamma")

    def __init__(self, path: str, M: Fraction, gamma):
        self.path, self.M, self.gamma = path, M, gamma

    def run(self):
        argv = ["mixed", self.path, "--mem", str(self.M)]
        if self.gamma is not None:
            argv += ["--gamma", str(self.gamma)]
        return _run_cli(argv)

    def check(self, out):
        data, problems = _cli_json(*out)
        if data is None:
            return "", problems
        text = "|".join(str(data.get(key)) for key in
                        ("achievable", "gamma", "best_gamma", "best_rate"))
        if self.gamma is not None and data.get("gamma") != str(self.gamma):
            problems.append(f"gamma {data.get('gamma')} reported, {self.gamma} requested")
        if self.gamma is None and data.get("achievable") != data.get("best_rate"):
            problems.append("the optimized rate differs from the best grid rate")
        return text, problems


class WideLevels:
    """CLI rate and mixed queries; 2 to 6 pairwise independent radicals."""

    name = "wide-levels"
    why = ("cachelab rate/mixed through cli.main on irregular configs with 2-6 independent "
           "radicals; levels with M_i > N_i/K invert 2^(g-1)-term sums, the radicals.inverse "
           "cliff; mixed runs the gamma scan")
    # (partial levels, how many of them get more than N/K memory) of the
    # rate ops, then the mixed ops' gamma flags.
    rate_strata = ((2, 0), (2, 0), (3, 0), (3, 0), (3, 3),
                   (4, 0), (4, 2), (4, 4), (5, 0), (5, 1), (6, 0))
    mixed_gamma = (False, False, True, True)
    round_ops = len(rate_strata) + len(mixed_gamma)
    probe = "fraction"    # see calibrate.py
    round_seconds = 0.48  # calibrated
    deadline_s = 10.0

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def _write(self, tag: str, data: dict) -> str:
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _ops(self, rng, tag, rate_strata, mixed_gamma) -> list:
        ops = []
        for i, (partial, high) in enumerate(rate_strata):
            K, levels, M = wide_levels(rng, partial, high)
            path = self._write(f"{tag}-rate{i}", {
                "setup": "multi-user", "caches": K,
                "levels": [{"files": n, "users": u} for n, u in levels]})
            ops.append(RateCliOp(path, M, K, [n for n, _ in levels], high))
        for i, with_gamma in enumerate(mixed_gamma):
            K, replicated, row, M = mixed_population(rng)
            path = self._write(f"{tag}-mixed{i}", {
                "setup": "mixed", "caches": K,
                "levels": [{"files": n, "users": u} for n, u in replicated],
                "mixed_levels": [{"files": n, "users": u} for n, u in row]})
            gamma = rng.choice((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))) \
                if with_gamma else None
            ops.append(MixedCliOp(path, M, gamma))
        rng.shuffle(ops)
        return ops

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        return self._ops(rng, f"r{r}", self.rate_strata, self.mixed_gamma)

    def warmup(self) -> list:
        rng = random.Random(f"{self.name}:warmup")
        return self._ops(rng, "warmup", ((2, 1),), (False,))


# -- decode-sim --------------------------------------------------------------

def _canonical_transcript(transcript) -> str:
    return ";".join(
        ",".join(f"{c}:{f}" for c, f in msg.targets) + "="
        + "+".join(f"{sf.file}/{sf.layer}/" + ".".join(str(i) for i in sorted(sf.subset))
                   for sf in sorted(msg.parts, key=lambda sf: (sf.file, sf.layer,
                                                               sorted(sf.subset))))
        + f"@{msg.size}"
        for msg in transcript.messages)


class DecodeOp:
    """Subset placement, XOR delivery and the GF(2) decodability check."""

    __slots__ = ("K", "N", "M", "demands", "control")

    def __init__(self, K: int, N: int, M: Fraction, demands, control: int | None):
        self.K, self.N, self.M, self.demands = K, N, M, demands
        # Index of the message to drop for the negative control, or None.
        self.control = control

    def run(self):
        placement = single_level.place(self.K, self.N, self.M)
        transcript = single_level.deliver(placement, self.demands)
        return placement, transcript, single_level.verify_decode(
            placement, transcript, self.demands)

    def check(self, out):
        placement, transcript, decodable = out
        problems = []
        if not decodable:
            problems.append("verify_decode rejected the delivered transcript")
        rows = max(sum(1 for c, _ in self.demands if c == cache) for cache in range(self.K))
        bound = single_level.scheme_rate(self.M, self.K, self.N) * rows
        if transcript.total_size > bound:
            problems.append(f"transcript size {transcript.total_size} above {bound}")
        if self.control is not None and transcript.messages:
            messages = list(transcript.messages)
            del messages[self.control % len(messages)]
            corrupted = single_level.Transcript(tuple(messages))
            if single_level.verify_decode(placement, corrupted, self.demands):
                problems.append("verify_decode accepted a transcript missing a message")
        text = f"{decodable}|{transcript.total_size}|{_canonical_transcript(transcript)}"
        return text, problems


class ClusterOp:
    """Clustered placement and delivery for one seeded user arrangement."""

    __slots__ = ("config", "M", "assignment", "demands")

    def __init__(self, config, M, assignment, demands):
        self.config, self.M, self.assignment, self.demands = config, M, assignment, demands

    def run(self):
        return single_user.cluster_place_deliver(self.config, self.M, self.assignment,
                                                 self.demands)

    def check(self, run):
        problems = []
        rate = single_user.rate_clustering(self.config, self.M).achievable
        if run.total_size > rate:
            problems.append(f"cluster run size {run.total_size} above rate {rate}")
        text = (f"{run.total_size}|{run.uncoded}|{run.active}|"
                f"{_canonical_transcript(run.coded)}")
        return text, problems


def cluster_instance(rng: random.Random, K: int) -> ClusterOp:
    """A single-user config of 2-3 levels on K caches, a user arrangement, demands."""
    L = rng.randint(2, 3)
    cuts = sorted(rng.sample(range(1, K), L - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [K])]
    config = SystemConfig.single_user(K, [(k * rng.randint(1, 3), k) for k in parts])
    assignment = [i for i, lv in enumerate(config.levels) for _ in range(lv.users)]
    rng.shuffle(assignment)
    demands = [rng.randrange(config.levels[lvl].files) for lvl in assignment]
    return ClusterOp(config, Fraction(rng.randint(1, 8), 2), assignment, demands)


class DecodeSim:
    """place/deliver/verify_decode at K = N = 5..9, plus clustered runs."""

    name = "decode-sim"
    why = ("place + deliver + verify_decode at K=N=5..9 plus clustered runs: single_level "
           "as a simulator; verify_decode dominates, and radicals and bounds are never "
           "called")
    cache_counts = (5, 6, 7, 8, 9)
    # A round has 25 ops, and the clustered runs on 4 or 5 caches stay below
    # the median, so the median and the 90th percentile fall inside the
    # latency bands of (K = N = 7, t = 2) and (K = N = 8, t = 5/2) rather
    # than at an edge between two strata.
    subset_sizes = (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
    cluster_caches = (4, 4, 5, 5, 5)
    round_ops = len(cache_counts) * len(subset_sizes) + len(cluster_caches)
    probe = "bitmask"     # see calibrate.py
    round_seconds = 0.25  # calibrated
    deadline_s = 5.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def _ops(self, rng, r: int, grid) -> list:
        ops = []
        for j, (K, t) in enumerate(grid):
            N = K
            # Worst-case demands on alternating strata; distinct files make
            # every message necessary, so those ops also carry the negative
            # control of dropping one message.
            if (j + r) % 2 == 0:
                demands = single_level.worst_case_demands(K, N)
                control = rng.randrange(1 << 30)
            else:
                demands = [(c, rng.randrange(N)) for c in range(K)]
                control = None
            ops.append(DecodeOp(K, N, t * N / K, demands, control))
        return ops

    def round(self, r: int) -> list:
        rng = random.Random(f"{self.name}:{self.seed}:{r}")
        grid = [(K, t) for K in self.cache_counts for t in self.subset_sizes]
        ops = self._ops(rng, r, grid)
        ops += [cluster_instance(rng, K) for K in self.cluster_caches]
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        rng = random.Random(f"{self.name}:warmup")
        ops = self._ops(rng, 0, [(5, Fraction(2)), (5, Fraction(3, 2))])
        return ops + [cluster_instance(rng, 5)]


WORKLOADS = {w.name: w for w in (MuAudit, WideLevels, DecodeSim)}
