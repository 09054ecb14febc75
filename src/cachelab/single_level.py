"""Single-level building block: analytic rates and a concrete scheme.

Two rate functions live here.  ``rate_single_level`` is the analytic
envelope ``U * min{N/M, K} * (1 - M/N)``; ``scheme_rate`` is the exact rate
of the concrete subset-placement scheme implemented by ``place``/``deliver``
(``K(1-M/N)/(1+KM/N)`` at integer subset sizes, linearly interpolated in
between).  The scheme never exceeds the envelope, which the test suite
checks pointwise with exact rationals.

``deliver`` produces an explicit broadcast transcript of XOR messages and
``verify_decode`` confirms decodability by an independent linear-span check
over GF(2), so correctness of a run never relies on the delivery code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import MemoryLike, check_memory
from .radicals import ExactValue, RootSum, exact_sign


class SubfileId(NamedTuple):
    """One subfile: file index plus the set of caches that store it.

    `layer` distinguishes the two sublayers of a memory-shared placement
    (0 for the floor subset size, 1 for the next one up).
    """

    file: int
    subset: frozenset[int]
    layer: int = 0


@dataclass(frozen=True)
class Layer:
    t: int                    # subset size: each subfile is stored at t caches
    part: Fraction            # fraction of every file carried by this layer
    subfile_size: Fraction    # part / C(K, t)


@dataclass(frozen=True)
class PlacementState:
    caches: tuple[frozenset[SubfileId], ...]
    layers: tuple[Layer, ...]
    K: int
    N: int
    M: Fraction

    def stored_size(self, cache: int) -> Fraction:
        sizes = {i: layer.subfile_size for i, layer in enumerate(self.layers)}
        return sum((sizes[sf.layer] for sf in self.caches[cache]), Fraction(0))

    def subfiles_of(self, file: int) -> list[SubfileId]:
        out = []
        for li, layer in enumerate(self.layers):
            for subset in itertools.combinations(range(self.K), layer.t):
                out.append(SubfileId(file, frozenset(subset), li))
        return out


@dataclass(frozen=True)
class Message:
    """One broadcast: XOR of `parts`, useful to the users in `targets`."""

    targets: tuple[tuple[int, int], ...]   # (cache, file) pairs at distinct caches
    parts: frozenset[SubfileId]
    size: Fraction


@dataclass(frozen=True)
class Transcript:
    messages: tuple[Message, ...]

    @property
    def total_size(self) -> Fraction:
        return sum((m.size for m in self.messages), Fraction(0))


def rate_single_level(M: MemoryLike, K: int, N: int, U: int) -> ExactValue:
    """Analytic achievable rate ``U * min{N/M, K} * (1 - M/N)``.

    Accepts an exact irrational memory (RootSum) as produced by the
    memory-sharing allocation; the result is then exact as well.
    """
    if isinstance(M, RootSum):
        if M.is_rational():
            return rate_single_level(M.as_fraction(), K, N, U)
        if M.sign() < 0 or (M - N).sign() > 0:
            raise ValueError(f"memory {M} outside [0, {N}]")
        # min{N/M, K} = K  iff  N >= K*M
        if exact_sign(N - K * M) >= 0:
            return U * K * (1 - M * Fraction(1, N))
        return U * (N * M.inverse() - 1)
    M = check_memory(M)
    if M > N:
        raise ValueError(f"memory {M} exceeds library size {N}")
    if M == 0:
        return Fraction(U * K)
    if N >= K * M:
        return U * K * (1 - Fraction(M, N))
    return U * (Fraction(N, 1) / M - 1)


def _layers(K: int, N: int, M: Fraction) -> tuple[Layer, ...]:
    """Memory split at non-integer ``t = KM/N``: the sublayers at the floor
    and the ceiling of t, weighted so that each cache stores exactly M."""
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


def scheme_rate(M: MemoryLike, K: int, N: int) -> Fraction:
    """Exact per-row rate of the subset-placement scheme.

    Equals ``(K-t)/(t+1)`` at integer ``t = KM/N`` and interpolates
    linearly between adjacent integer points (matching the two-sublayer
    memory split used by ``place``).
    """
    return sum((layer.part * Fraction(K - layer.t, layer.t + 1)
                for layer in _layers(K, N, check_memory(M))), Fraction(0))


def place(K: int, N: int, M: MemoryLike) -> PlacementState:
    """Subset placement at memory M, memory-sharing on non-integer ``KM/N``.

    Each file part assigned to sublayer ``t`` is split into C(K, t) equal
    subfiles, one per t-subset of caches, stored at exactly those caches.
    The two sublayer part sizes are chosen so each cache stores exactly M.
    """
    M = check_memory(M)
    layers = _layers(K, N, M)
    caches: list[set[SubfileId]] = [set() for _ in range(K)]
    for li, layer in enumerate(layers):
        for subset in itertools.combinations(range(K), layer.t):
            for f in range(N):
                sf = SubfileId(f, frozenset(subset), li)
                for c in subset:
                    caches[c].add(sf)
    return PlacementState(tuple(frozenset(c) for c in caches), layers, K, N, M)


def _rows(demands: Sequence[tuple[int, int]], K: int, N: int) -> list[dict[int, int]]:
    """Split demands into rows with at most one user per cache."""
    per_cache: dict[int, list[int]] = {}
    for cache, file in demands:
        if not (0 <= cache < K):
            raise ValueError(f"demand references cache {cache} outside 0..{K - 1}")
        if not (0 <= file < N):
            raise ValueError(f"demand references file {file} outside 0..{N - 1}")
        per_cache.setdefault(cache, []).append(file)
    depth = max((len(v) for v in per_cache.values()), default=0)
    return [{c: files[r] for c, files in per_cache.items() if r < len(files)}
            for r in range(depth)]


def deliver(placement: PlacementState, demands: Sequence[tuple[int, int]]) -> Transcript:
    """XOR delivery for the given demands; one independent pass per row.

    For every sublayer with subset size t and every (t+1)-subset S of caches
    containing at least one demanding cache, broadcast the XOR over the
    demanding caches c in S of subfile (demand_c, S minus c).  Users sharing
    a cache sit in different rows, so no message ever targets two users with
    identical side information.
    """
    K, N = placement.K, placement.N
    messages = []
    for row in _rows(demands, K, N):
        for li, layer in enumerate(placement.layers):
            if layer.t >= K:
                continue  # fully stored sublayer
            for subset in itertools.combinations(range(K), layer.t + 1):
                hit = [c for c in subset if c in row]
                if not hit:
                    continue
                parts: set[SubfileId] = set()
                targets = []
                for c in hit:
                    sf = SubfileId(row[c], frozenset(subset) - {c}, li)
                    parts ^= {sf}
                    targets.append((c, row[c]))
                messages.append(Message(tuple(targets), frozenset(parts), layer.subfile_size))
    return Transcript(tuple(messages))


def worst_case_demands(K: int, N: int) -> list[tuple[int, int]]:
    """Demand vector maximizing the scheme's transcript size: one user per
    cache, on distinct files whenever the library allows it and round-robin
    otherwise."""
    return [(c, c % N) for c in range(K)]


def symbol_mask(index: dict, symbols: Iterable) -> int:
    """GF(2) bit mask of `symbols`; `index` numbers each new symbol on sight."""
    out = 0
    for key in symbols:
        out ^= 1 << index.setdefault(key, len(index))
    return out


def span_contains(rows: Iterable[int], known: int, wanted: int) -> bool:
    """Is every symbol of `wanted` in the GF(2) span of `rows` and `known`?

    Rows and symbol sets are bit masks, one bit per symbol.  The `known`
    symbols are unit vectors, so they are cleared from every row before the
    rows are eliminated into an echelon basis; each wanted symbol that is
    not known must then reduce to zero against that basis.
    """
    basis: dict[int, int] = {}  # pivot bit -> row mask
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


def verify_decode(placement: PlacementState,
                  transcript: Transcript,
                  demands: Sequence[tuple[int, int]]) -> bool:
    """Span check: can every user reconstruct its demanded file?

    Subfiles are treated as symbols of a GF(2) vector space; a user knows
    its cache's symbols plus every broadcast message (each message being the
    sum of its parts).  The demanded file is decodable iff each of its
    subfile symbols lies in the span, which is decided by Gaussian
    elimination, independently of how `deliver` built the transcript.
    """
    index: dict[SubfileId, int] = {}
    messages = [symbol_mask(index, msg.parts) for msg in transcript.messages]
    try:
        rows = _rows(demands, placement.K, placement.N)
    except ValueError:
        return False
    return all(span_contains(messages, symbol_mask(index, placement.caches[cache]),
                             symbol_mask(index, placement.subfiles_of(file)))
               for row in rows for cache, file in row.items())
