"""Single-level building block: analytic rates and a concrete scheme.

Two rate functions live here.  ``rate_single_level`` is the analytic
envelope ``U * min{N/M, K} * (1 - M/N)``; ``scheme_rate`` is the exact rate
of the concrete subset-placement scheme implemented by ``place``/``deliver``
(``K(1-M/N)/(1+KM/N)`` at integer subset sizes, linearly interpolated in
between).  The scheme never exceeds the envelope, which the test suite
checks pointwise with exact rationals.  At a rational memory M = p/q the
envelope picks its branch by comparing ``N*q`` with ``K*p`` and builds one
Fraction from integers; an irrational memory (a RootSum, from the
memory-sharing allocation) goes through RootSum arithmetic.

``deliver`` produces an explicit broadcast transcript of XOR messages and
``verify_decode`` confirms decodability by an independent linear-span check
over GF(2), so correctness of a run never relies on the delivery code path.

Symbol numbering.  A placement numbers its subfiles, the GF(2) symbols,
layer by layer, then by subset in ``itertools.combinations`` order, then by
file: the s-th subset over all layers holds symbols ``s*N .. s*N + N - 1``.
That numbering is the placement's data format.  Each cache is one integer
bit mask over it, and a file's symbols are one stride-N pattern shifted by
the file index, so ``verify_decode`` reads both masks straight from the
placement.  The subsets themselves come from one table per (K, t), kept
in a bounded memo keyed by (K, t) alone: the t-subsets with their numbers,
and each (t+1)-subset's drop-one pairs ``(c, S - c)``.  ``deliver`` walks
the pairs, takes a pair list as it is when every cache demands in the row,
and builds a ``SubfileId`` for each message part only.  A ``Message`` is a
NamedTuple, so it unpacks and equals the plain tuple of its fields.
``deliver`` builds both as ``tuple.__new__(cls, fields)``: that is the call
a NamedTuple's generated ``__new__`` makes, without its Python-level frame,
so the object has the same type, fields, ``==`` and ``hash`` as one built
by ``SubfileId(file, subset, layer)`` or ``Message(targets, parts, size)``.
``verify_decode`` reads only a message's parts and turns a part into its bit
``(layer offset + subset number)*N + file`` through the numbers alone, so
its check never reads how the transcript was built.  No table of all
N*sum C(K, t) subfiles is built on that path.  Its span check peels rows
left with one unknown symbol, a test of ``mask.bit_count() > 1`` on a
nonnegative row, which counts bits without building ``mask - 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .model import MemoryLike, check_memory
from .radicals import Enclosure, ExactValue, RootSum


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


class _SubsetTable(NamedTuple):
    """The subsets of one (K, t); shared by every caller, so never mutated."""

    number: dict[frozenset[int], int]    # t-subset -> its number, in combinations order
    drops: tuple[tuple[tuple[int, frozenset[int]], ...], ...]
    # one entry per (t+1)-subset S, in combinations order: (c, S - c) for c in S


@functools.lru_cache(maxsize=64)
def _subset_table(K: int, t: int) -> _SubsetTable:
    """The t-subsets of K caches and the drop-one pairs of each (t+1)-subset,
    keyed by (K, t) only; every S - c is the very frozenset of `number`."""
    subsets = {s: frozenset(s) for s in itertools.combinations(range(K), t)}
    drops = tuple(tuple((c, subsets[S[:i] + S[i + 1:]]) for i, c in enumerate(S))
                  for S in itertools.combinations(range(K), t + 1))
    return _SubsetTable({members: n for n, members in enumerate(subsets.values())}, drops)


@dataclass(frozen=True)
class PlacementState:
    """Cache contents as bit masks over the placement's symbol numbering.

    Bit ``s*N + f`` of ``masks[c]`` is set iff cache c stores file f's
    subfile on the s-th subset (see the module docstring).  ``caches`` and
    ``symbols`` are views derived from the masks and layers, so they can
    never disagree with them.
    """

    masks: tuple[int, ...]
    layers: tuple[Layer, ...]
    K: int
    N: int
    M: Fraction

    def __post_init__(self):
        width = self._width
        if len(self.masks) != self.K or any(m < 0 or m >> width for m in self.masks):
            raise ValueError(f"need {self.K} cache masks over {width} symbols")

    @cached_property
    def _width(self) -> int:
        """The number of symbols."""
        return sum(math.comb(self.K, layer.t) for layer in self.layers) * self.N

    @cached_property
    def symbols(self) -> tuple[SubfileId, ...]:
        """Every subfile of the placement, indexed by its symbol number."""
        return tuple(SubfileId(f, members, li) for li, layer in enumerate(self.layers)
                     for members in _subset_table(self.K, layer.t).number
                     for f in range(self.N))

    @cached_property
    def caches(self) -> tuple[frozenset[SubfileId], ...]:
        """The subfiles each cache stores."""
        return tuple(frozenset(sf for i, sf in enumerate(self.symbols) if mask >> i & 1)
                     for mask in self.masks)

    def stored_size(self, cache: int) -> Fraction:
        out, lo = Fraction(0), 0
        for layer in self.layers:
            hi = lo + math.comb(self.K, layer.t) * self.N
            count = (self.masks[cache] >> lo & ((1 << (hi - lo)) - 1)).bit_count()
            out += count * layer.subfile_size
            lo = hi
        return out

    def subfiles_of(self, file: int) -> list[SubfileId]:
        """The subfiles of `file`, one per subset."""
        return list(self.symbols[file::self.N])

    def file_mask(self, file: int) -> int:
        """Bit mask of the symbols of `file`: bits f, f + N, f + 2N, ..."""
        # 1 + 2^N + 2^2N + ...: a repunit in base 2^N, one 1 per subset
        return ((1 << self._width) - 1) // ((1 << self.N) - 1) << file


class Message(NamedTuple):
    """One broadcast: XOR of `parts`, useful to the users in `targets`.

    A NamedTuple, so it unpacks and compares equal to the plain tuple
    ``(targets, parts, size)``.  ``verify_decode`` reads only `parts`.
    """

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
        # One enclosure of M for its three comparisons with rationals.
        bounds = Enclosure(M)
        if bounds.sign_minus(0, 1) < 0 or bounds.sign_minus(N, 1) > 0:
            raise ValueError(f"memory {M} outside [0, {N}]")
        # min{N/M, K} = K  iff  M <= N/K
        if bounds.sign_minus(N, K) <= 0:
            return U * K * (1 - M / N)
        return U * (N / M - 1)
    M = check_memory(M)
    p, q = M.numerator, M.denominator
    Nq = N * q
    if p > Nq:
        raise ValueError(f"memory {M} exceeds library size {N}")
    # M = p/q: min{N/M, K} = K  iff  N*q >= K*p, which includes M = 0
    if Nq >= K * p:
        return Fraction(U * K * (Nq - p), Nq)
    return Fraction(U * (Nq - p), p)


def _layers(K: int, N: int, M: Fraction) -> tuple[Layer, ...]:
    """Memory split at non-integer ``t = KM/N``: the sublayers at the floor
    and the ceiling of t, weighted so that each cache stores exactly M."""
    if K < 1 or N < 1:
        raise ValueError(f"need at least one cache and one file, got K={K}, N={N}")
    if M > N:
        raise ValueError(f"memory {M} exceeds library size {N}")
    # t = K*M/N = num/den, so t0 = floor(t) and the lower sublayer's weight
    # t0 + 1 - t is lam_n/den, all in integers; a Fraction is built only for
    # each layer's part and subfile size.
    num, den = K * M.numerator, N * M.denominator
    t0 = num // den
    if t0 >= K:
        return (Layer(K, Fraction(1), Fraction(1)),)
    lam_n = (t0 + 1) * den - num  # 0 < lam_n <= den
    lower = Layer(t0, Fraction(lam_n, den), Fraction(lam_n, den * math.comb(K, t0)))
    if lam_n == den:  # integer t: one sublayer
        return (lower,)
    up = den - lam_n
    return (lower, Layer(t0 + 1, Fraction(up, den), Fraction(up, den * math.comb(K, t0 + 1))))


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
    # First bit of each subset's block of N symbols, per cache; multiplying
    # by N ones fills each block (the blocks are N bits apart, so no carries).
    starts = [0] * K
    s = 0
    for layer in layers:
        for subset in _subset_table(K, layer.t).number:
            for c in subset:
                starts[c] |= 1 << s
            s += N
    block = (1 << N) - 1
    return PlacementState(tuple(start * block for start in starts), layers, K, N, M)


def _rows(demands: Sequence[tuple[int, int]], K: int, N: int) -> list[dict[int, int]]:
    """Split demands into rows with at most one user per cache."""
    per_cache: dict[int, list[int]] = {}
    for cache, file in demands:
        if type(cache) is not int or type(file) is not int:
            raise ValueError(f"demand ({cache!r}, {file!r}) needs an integer cache and file")
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
    new = tuple.__new__  # the NamedTuples' own construction, minus their __new__ frame
    messages = []
    for row in _rows(demands, K, N):
        full = len(row) == K  # every cache demands: every pair is hit
        target = {c: (c, f) for c, f in row.items()}
        for li, layer in enumerate(placement.layers):
            if layer.t >= K:
                continue  # fully stored sublayer
            size = layer.subfile_size
            for hit in _subset_table(K, layer.t).drops:
                if not full:
                    hit = [(c, rest) for c, rest in hit if c in row]
                    if not hit:
                        continue
                # The parts sit on distinct subsets S minus c, so they are
                # pairwise distinct and their XOR keeps every one of them.
                parts, targets = [], []
                for c, rest in hit:
                    pair = target[c]
                    targets.append(pair)
                    parts.append(new(SubfileId, (pair[1], rest, li)))
                messages.append(new(Message, (tuple(targets), frozenset(parts), size)))
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

    Rows and symbol sets are nonnegative bit masks, one bit per symbol (as
    ``verify_decode`` and ``symbol_mask`` build them), so a row that keeps
    more than one unknown symbol is one with ``bit_count() > 1``.  The `known`
    symbols are unit vectors, so they are cleared from every row first.  A
    row left with exactly one unknown symbol reveals it, which joins
    `known`; this peeling repeats until no row reveals a new symbol, and
    stops with True once every wanted symbol is known.  Peeling is
    elimination that takes the one-symbol rows first, so the verdict is that
    of eliminating every row.  The rows left over are eliminated into an
    echelon basis, and each wanted symbol that is not known must then
    reduce to zero against it.
    """
    if not wanted & ~known:
        return True
    while True:
        revealed, rest, unknown = 0, [], ~known
        for mask in rows:
            mask &= unknown
            if mask.bit_count() > 1:
                rest.append(mask)
            else:
                revealed |= mask  # one unknown symbol, or none
        if not revealed:
            break
        known |= revealed
        if not wanted & ~known:
            return True
        rows = rest
    basis: dict[int, int] = {}  # pivot bit -> row mask
    for mask in rest:
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
    elimination, independently of how `deliver` built the transcript: a part
    gets its bit from the subset numbers alone (see the module docstring).
    """
    K, N = placement.K, placement.N
    try:
        rows = _rows(demands, K, N)
    except ValueError:
        return False
    # A part is the subfile it equals, as in a dict lookup, so no value of a
    # field can raise; a part that is no subfile gets a fresh bit.
    files = {f: f for f in range(N)}
    layers = {}  # layer index -> (its first subset number, subset -> number)
    first = 0
    for li, layer in enumerate(placement.layers):
        number = _subset_table(K, layer.t).number
        layers[li] = (first, number)
        first += len(number)
    width, fresh = first * N, {}
    messages = []
    for msg in transcript.messages:
        mask = 0
        for part in msg.parts:
            file, subset, li = part
            entry = layers.get(li)
            s = None if entry is None else entry[1].get(subset)
            f = files.get(file)
            if s is None or f is None:
                mask ^= 1 << fresh.setdefault(part, width + len(fresh))
            else:
                mask ^= 1 << ((entry[0] + s) * N + f)
        messages.append(mask)
    ones = placement.file_mask(0)
    return all(span_contains(messages, placement.masks[cache], ones << file)
               for row in rows for cache, file in row.items())
