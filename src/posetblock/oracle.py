"""Ground-truth engine: brute force over Z_q^N, independent of all closed forms.

Vectors are indexed in odometer order (last coordinate fastest) and
processed in chunks of at most 2^18 indices.  The weight histogram sweeps
every index in [0, q^N).  Block weights are ranked on one scale, the
distinct symbol weights, by brute enumeration of each block's q^k_i
values, and every vector is keyed by its block-weight profile; each
profile's weight is computed by the definitional closure/maximals rule.
One kernel does this keying and weighing for every sweep.  A vector's
profile key is a sum of per-block terms, and the trailing blocks run
fastest, so the terms of the longest suffix of blocks that fits a chunk
are summed once into an outer-sum array, built from the last block
backwards, and a range's keys add that array to the key of each leading
index it meets; a space of one range has no leading index, and its keys
are the outer sum itself.  The kernel weighs every profile once, into a
table of 8 bytes per profile.  The histogram adds up the number of
vectors per profile key over the ranges and folds those counts into
weights at the end, or, past a chunk of profiles, counts each range's
weights.  A table of at most 256 profiles keys its vectors in one byte
each and counts them two at a time, as uint16 pairs; every other sweep
keys them in int64.  Nothing here touches the ideal counting machinery
or the code module, so agreement with the closed forms checks the theorems.

Perfectness verdicts count per coset instead of per codeword, using only
the linearity of the code: r-balls and I-balls are both translates of a
ball around 0, so a vector's number of balls is the number of ball
vectors in its coset.  The ball around 0 is enumerated when it holds at
most half the space: the I-ball is one box, a product of block codes, and
the r-ball is a union of boxes, one per block-weight profile of weight
<= r in the kernel's profile table.  Otherwise it is marked in one sweep
of the space.  Either way its vectors are keyed by coset representative,
read off the code's stored echelon form.

This is the one module of the package that imports numpy.  The others
import it only where a brute-force path runs (the package serves its names
on first use), and the space cap every sweep checks is `space`'s, so the
closed forms and the verdicts past the cap run without numpy loaded.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import DistributionTable
from .errors import BoundsError, integer
from .poset import Poset
from .space import LabelMap, _check_cap, check_shape
from .weights import WeightModel

_CHUNK = 1 << 18
_BYTE_KEYS = 256  # profile tables up to this size key their vectors in uint8
_WITNESSES = 20


@dataclass(frozen=True)
class OracleResult:
    histogram: dict
    total: int
    fingerprint: str
    q: int
    N: int
    max_weight: int

    def to_table(self) -> DistributionTable:
        counts = tuple(self.histogram.get(r, 0) for r in range(self.max_weight + 1))
        return DistributionTable(q=self.q, N=self.N, counts=counts, method="oracle")


@dataclass(frozen=True)
class PerfectnessResult:
    disjoint: bool
    covering: bool
    max_multiplicity: int
    min_multiplicity: int


@dataclass(frozen=True)
class MetricViolation:
    kind: str  # "identity" | "symmetry" | "triangle"
    x: tuple
    y: tuple
    z: tuple | None


@dataclass(frozen=True)
class MetricAxiomReport:
    samples: int
    violation_count: int
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def _fingerprint(P: Poset, pi: LabelMap, W: WeightModel) -> str:
    blob = repr((W.q, P.down, pi.k, W.table)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _rank_tables(pi: LabelMap, W: WeightModel) -> tuple[np.ndarray, list[np.ndarray]]:
    """(levels, ranks): the distinct symbol weights in ascending order, and
    for each block the rank in levels of the weight of each of its q^k_i
    values, by literal enumeration: the largest rank among the block code's
    base-q digits.  A code of k symbols is a code of k - 1 symbols and one
    more, so the ranks of length k are the outer maximum of those of length
    k - 1 and the symbol ranks, in odometer order; each length is built
    once.  A block of k >= 1 symbols attains every symbol weight, so levels
    is the one scale of every block.
    """
    levels = np.unique(W.table)
    symbol_rank = np.searchsorted(levels, W.table)
    by_length = [np.zeros(1, dtype=np.int64)]
    for _ in range(max(pi.k)):
        by_length.append(np.maximum.outer(by_length[-1], symbol_rank).ravel())
    return levels, [by_length[k] for k in pi.k]


def _order_matrices(P: Poset) -> tuple[np.ndarray, np.ndarray]:
    """leq[i, j] = i <= j and strict[i, j] = i < j as uint8 matrices (0-indexed)."""
    leq = np.array([[d >> i & 1 for d in P.down] for i in range(P.n)], dtype=np.uint8)
    strict = leq.copy()
    np.fill_diagonal(strict, 0)
    return leq, strict


def _weights_from_block_weights(
    leq: np.ndarray, strict: np.ndarray, M_w: int, wmat: np.ndarray
) -> np.ndarray:
    """Definitional weight of each row of an (S, n) block-weight matrix,
    which it overwrites to spare an (S, n) int64 temporary."""
    support = (wmat > 0).astype(np.uint8)
    closure = (support @ leq.T) > 0
    dominated = (closure.astype(np.uint8) @ strict.T) > 0
    maximal = closure & ~dominated
    non_max = closure & ~maximal
    wmat *= maximal
    return wmat.sum(axis=1) + M_w * non_max.sum(axis=1)


def _index_places(pi: LabelMap, q: int) -> tuple[list[int], list[int]]:
    """Per-block radix q^k_i and positional factor in the odometer index."""
    sizes = [q**k for k in pi.k]
    return sizes, [q ** (pi.N - o - k) for o, k in zip(pi.offsets, pi.k)]


def _ranges(total: int) -> list[tuple[int, int]]:
    """Index ranges [lo, hi) that cover [0, total), each of at most a chunk."""
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _codeword_rows(code, start: int) -> Iterator[np.ndarray]:
    """The codewords of a linear code from coefficient index start on, in
    lexicographic coefficient order (index 0 is the zero codeword), as the
    rows of int64 matrices of at most a chunk of symbols (at least one
    row), each made from its own range of coefficient indices."""
    q, k, size = code.q, code.k, code.size
    G = np.array(code.generator, dtype=np.int64).reshape(k, code.n_cols)
    places = q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    step = max(1, _CHUNK // max(1, code.n_cols))
    for lo in range(start, size, step):
        index = np.arange(lo, min(lo + step, size), dtype=np.int64)
        yield (index[:, None] // places % q) @ G % q


class _Kernel(NamedTuple):
    """The one weight kernel, built by _weigher.

    weigh(lo, hi) gives the weights of the vectors with index in [lo, hi).
    count(lo, hi) gives an int64 array of vector counts for [lo, hi); the
    counts of several ranges add elementwise, and fold(counts) turns their
    sum into the weight histogram, an int64 array indexed by weight 0 ..
    n * M_w.  A vector's profile is its tuple of block weights, keyed as
    the number whose base-radix digits are the blocks' ranks[i][code_i],
    block 0 most significant; radix is the number of distinct symbol
    weights, and table holds the weight of every profile key.  count
    tallies the keys of at most a chunk of profiles, in uint8 pairs
    (_count_byte_keys) for at most 256, else in int64; past a chunk it
    gives each range's weight histogram.  The keys of a range are sums of
    a leading part and a trailing part (see _weigher), or the trailing
    part alone when the space is one range; they are built per key dtype
    on the first weigh or count call that needs them, so a kernel read
    only for its table costs no sweep set-up.
    """

    weigh: Callable[[int, int], np.ndarray]
    count: Callable[[int, int], np.ndarray]
    fold: Callable[[np.ndarray], np.ndarray]
    ranks: list
    radix: int
    table: np.ndarray


def _suffix_start(sizes: list[int]) -> int:
    """The first block of the longest suffix of blocks whose q^k_i multiply
    to at most a chunk; len(sizes) when the last block alone exceeds one."""
    start, span = len(sizes), 1
    while start > 0 and span * sizes[start - 1] <= _CHUNK:
        start -= 1
        span *= sizes[start]
    return start


def _count_byte_keys(keys: np.ndarray, n: int) -> np.ndarray:
    """np.bincount(keys, minlength=n) for uint8 keys below n <= 256, two
    keys at a time: the even-length prefix, read as uint16, holds pairs
    a + 256 b (or b + 256 a), one bincount of n * 256 bins counts them, and
    the bins, read as an (n, 256) matrix, give each pair's high key by row
    and its low key by column.  The fold is symmetric in the two bytes, so
    byte order does not matter; an odd last key is counted on its own."""
    even = len(keys) & ~1
    pairs = np.bincount(keys[:even].view(np.uint16), minlength=n * 256).reshape(n, 256)
    counts = pairs.sum(axis=1) + pairs.sum(axis=0)[:n]
    if even < len(keys):
        counts[keys[-1]] += 1
    return counts


def _weigher(P: Poset, pi: LabelMap, W: WeightModel) -> _Kernel:
    """Build the one weight kernel.

    Vectors are keyed by their block-weight profile, and table holds the
    definitional weight of every profile, computed once, a chunk of keys at
    a time (one chunk is the table itself, with no copy).  It costs 8 bytes
    per profile and has at most q^N entries (radix <= q, n <= N), the bound
    of every oracle array; every caller has checked q^N against the space
    cap.  With at most a chunk of profiles, count gives the number of
    vectors per profile key, and fold adds each key's count to its weight
    once, after the sweep; past a chunk, count gives a range's weight
    histogram, so no count outgrows its range, and fold keeps the
    sum.  Counts stay int64: a float bincount(weights=) is not exact past
    2^53, and a space may hold up to 2^63 - 1 vectors.  With at most 256
    profiles every key fits a byte, so count builds its key tables, tail
    and head_key in uint8 (a sum of key terms is a key, so none overflows),
    cutting the bytes the outer sums write eightfold, and tallies the keys
    in pairs with one bincount over uint16 views.  Every other key is int64,
    as table[keys] gathers fastest with intp indices.

    In odometer order the trailing blocks run fastest, so index
    h * span + t, with span the size of the longest suffix of blocks that
    fits a chunk, has key head[h] + tail[t]: tail is the outer sum of the
    suffix blocks' key terms, built once from the last block backwards
    (each step puts the next block's terms on the outer axis, so the long
    axis is the inner one), and head[h] sums the leading blocks' terms of
    the leading index h.  The keys of [lo, hi) are the rows of
    head[:, None] + tail for the leading indices it meets, sliced to the
    range, so only those (hi - lo) / span indices are divided.  When the
    suffix is every block, the space is one range, and its keys are
    tail[lo:hi] with no head added.
    """
    levels, ranks = _rank_tables(pi, W)
    sizes, places = _index_places(pi, W.q)
    radix = len(levels)
    n_profiles = radix**pi.n
    key_places = [radix ** (pi.n - 1 - i) for i in range(pi.n)]
    leq, strict = _order_matrices(P)

    built: dict = {}  # key dtype -> (suffix start, key tables, tail), on first use

    def profiles(lo: int, hi: int, dtype=np.int64) -> np.ndarray:
        if dtype not in built:
            # key_tables[i] maps a block code straight to its term of the key
            key_tables = [(rank * kp).astype(dtype, copy=False)
                          for rank, kp in zip(ranks, key_places)]
            start = _suffix_start(sizes)
            tail = np.zeros(1, dtype=dtype)
            for i in reversed(range(start, pi.n)):
                tail = (key_tables[i][:, None] + tail).ravel()
            built[dtype] = (start, key_tables, tail)
        start, key_tables, tail = built[dtype]
        if start == 0:  # the whole space is one range, keyed by tail alone
            return tail[lo:hi]
        span = len(tail)
        h0, h1 = lo // span, -(-hi // span)
        head = np.arange(h0, h1, dtype=np.int64)
        head_key = np.zeros(h1 - h0, dtype=dtype)
        for i in range(start):
            head_key += key_tables[i][(head // (places[i] // span)) % sizes[i]]
        key = (head_key[:, None] + tail).ravel()
        return key[lo - h0 * span : hi - h0 * span]

    def profile_weights(lo: int, hi: int) -> np.ndarray:
        keys = np.arange(lo, hi, dtype=np.int64)
        wmat = np.empty((hi - lo, pi.n), dtype=np.int64)
        for i in range(pi.n):
            wmat[:, i] = levels[keys // key_places[i] % radix]
        return _weights_from_block_weights(leq, strict, W.M_w, wmat)

    slices = _ranges(n_profiles)
    keyed = len(slices) == 1  # count profile keys, else each range's weights
    if keyed:
        table = profile_weights(0, n_profiles)
    else:
        table = np.empty(n_profiles, dtype=np.int64)
        for lo, hi in slices:
            table[lo:hi] = profile_weights(lo, hi)
    n_weights = pi.n * W.M_w + 1

    def weigh(lo: int, hi: int) -> np.ndarray:
        return table[profiles(lo, hi)]

    def count(lo: int, hi: int) -> np.ndarray:
        if not keyed:
            return np.bincount(weigh(lo, hi), minlength=n_weights)
        if n_profiles <= _BYTE_KEYS:
            return _count_byte_keys(profiles(lo, hi, np.uint8), n_profiles)
        return np.bincount(profiles(lo, hi), minlength=n_profiles)

    def fold(counts: np.ndarray) -> np.ndarray:
        if not keyed:
            return counts
        hist = np.zeros(n_weights, dtype=np.int64)
        np.add.at(hist, table, counts)
        return hist

    return _Kernel(weigh, count, fold, ranks, radix, table)


def oracle_distribution(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int | None = None,
    threads: int = 1,
) -> OracleResult:
    """Exact weight histogram of the whole space by exhaustive sweep.

    Every vector is keyed by its own block-weight profile.  The kernel
    counts the keys of each index range, the ranges' counts are summed in
    int64, and the sum is folded into the histogram once.  The first range
    is counted on the calling thread, which builds the kernel's outer sum;
    with threads > 1 the other ranges are then counted in a thread pool.
    """
    check_shape(pi, P.n)
    threads = integer(threads, "thread count")
    if threads < 1:
        raise BoundsError(f"thread count {threads} < 1")
    q = W.q
    total = _check_cap(q, pi.N, cap)
    kernel = _weigher(P, pi, W)
    first, *rest = _ranges(total)
    counts = kernel.count(*first)  # builds the kernel's outer sum before a worker reads it
    if threads > 1 and len(rest) > 1:  # a pool for one range only costs
        with ThreadPoolExecutor(max_workers=threads) as pool:
            counts += sum(pool.map(kernel.count, *zip(*rest)))
    else:
        counts += sum(kernel.count(lo, hi) for lo, hi in rest)
    hist = kernel.fold(counts)
    histogram = {r: int(c) for r, c in enumerate(hist)}
    return OracleResult(
        histogram=histogram,
        total=total,
        fingerprint=_fingerprint(P, pi, W),
        q=q,
        N=pi.N,
        max_weight=len(hist) - 1,
    )


def _box_chunks(keys, sizes, key_places, groups, places) -> Iterator[np.ndarray]:
    """The vector indices of a union of boxes, at most a chunk at a time.

    Box key b picks, in block i, group (b // key_places[i]) % (len(starts) - 1)
    of groups[i] = (codes, starts): block i's codes ordered by group, with
    group g at codes[starts[g]:starts[g + 1]].  The box is the product of
    the picked groups, sizes[j] vectors for keys[j].  The boxes are laid end
    to end; each position in a chunk takes its box's groups by np.repeat
    and its offset in the box, read in mixed radix, picks one code per block.
    """
    ends = np.cumsum(sizes)
    begins = ends - sizes
    for lo, hi in _ranges(int(ends[-1])):
        # the boxes that meet [lo, hi), and how many of their positions do
        b0 = int(np.searchsorted(ends, lo, side="right"))
        b1 = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        reps = np.minimum(ends[b0:b1], hi) - np.maximum(begins[b0:b1], lo)
        rest = np.arange(lo, hi, dtype=np.int64) - np.repeat(begins[b0:b1], reps)
        key = keys[b0:b1]
        idx = np.zeros(hi - lo, dtype=np.int64)
        for (codes, starts), kp, place in zip(groups, key_places, places):
            group = key // kp % (len(starts) - 1)
            first = starts[group]
            rest, digit = np.divmod(rest, np.repeat(starts[group + 1] - first, reps))
            idx += codes[digit + np.repeat(first, reps)] * place
        yield idx


def _ball(
    P: Poset, pi: LabelMap, W: WeightModel, *, ideal=None, radius=None
) -> tuple[int, Iterator[np.ndarray]]:
    """(|B(0)|, the indices of B(0)'s vectors in chunks), for the r-ball
    B_r(0) = {u : w(u) <= r} or the I-ball B_I(0) = {u : supp_pi(u) inside
    I}.

    A ball of at most half the space is enumerated: the I-ball is one box,
    any code in a block of I and 0 elsewhere; the r-ball is the union, over
    the kernel's profiles of weight <= r, of the boxes whose block i holds
    the codes with that profile's weight.  The I-ball of every block is the
    whole space, taken in index ranges, and a larger r-ball is marked in a
    sweep of the whole space.
    """
    q = W.q
    total = q**pi.N
    sizes, places = _index_places(pi, q)
    if ideal is not None:
        inside = [i for i in range(pi.n) if (ideal.members_mask >> i) & 1]
        size = q ** sum(pi.k[i] for i in inside)
        if size == total:  # any smaller I-ball is at most a q-th of the space
            ranges = _ranges(total)
            return size, (np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges)
        groups = [(np.arange(sizes[i]), np.array([0, sizes[i]])) for i in inside]
        chunks = _box_chunks(
            np.zeros(1, dtype=np.int64),
            np.array([size], dtype=np.int64),
            [1] * len(inside),
            groups,
            [places[i] for i in inside],
        )
        return size, chunks
    kernel = _weigher(P, pi, W)
    keys = np.flatnonzero(kernel.table <= radius)
    radix = kernel.radix
    key_places = [radix ** (pi.n - 1 - i) for i in range(pi.n)]
    grouped = {}  # block length -> (codes ordered by rank, group starts)
    for k, rank in zip(pi.k, kernel.ranks):
        if k not in grouped:
            starts = np.zeros(radix + 1, dtype=np.int64)
            np.cumsum(np.bincount(rank, minlength=radix), out=starts[1:])
            grouped[k] = (np.argsort(rank, kind="stable"), starts)
    groups = [grouped[k] for k in pi.k]
    per_key = np.ones(1, dtype=np.int64)  # box sizes: outer product of group sizes
    for _, starts in reversed(groups):
        per_key = (np.diff(starts)[:, None] * per_key).ravel()
    box_sizes = per_key[keys]
    size = int(box_sizes.sum())
    if 2 * size <= total:
        return size, _box_chunks(keys, box_sizes, key_places, groups, places)
    return size, (
        lo + np.flatnonzero(kernel.weigh(lo, hi) <= radius) for lo, hi in _ranges(total)
    )


def _r_ball_perfectness(
    code, P: Poset, pi: LabelMap, W: WeightModel, radius: int, *, cap: int | None = None
) -> tuple[int, PerfectnessResult | None]:
    """(|B_r(0)| counted by brute force, the per-coset result), where the
    result is None when |C| * |B_r(0)| > q^N: the balls then overlap by
    pigeonhole, and no coset is counted.

    |B_r(0)| is the sum of the box sizes over the profile table, or, when
    the cosets are counted, the number of ball vectors the count sees.
    """
    _check_cap(W.q, pi.N, cap)
    size, chunks = _ball(P, pi, W, radius=radius)
    if code.size * size > W.q**pi.N:
        return size, None
    max_mult, min_mult, size = _coset_ball_counts(code, chunks, W.q, pi.N)
    return size, _perfectness_result(max_mult, min_mult)


def _coset_ball_counts(code, chunks, q: int, N: int) -> tuple[int, int, int]:
    """(max, min) over the cosets of C of the number of ball vectors, and
    the number of ball vectors, where chunks yields the index of every ball
    vector exactly once.

    A ball vector u is keyed by the representative of u + C that is zero on
    the pivot columns of the code's stored reduced generator G:
    u - u[pivots] G, read as a base-q number over the free columns.  Each
    chunk takes each pivot digit it needs once, and each free column's
    symbol is reduced mod q once.
    """
    G, pivots = code.generator, code.pivots
    place = [q ** (N - 1 - c) for c in range(N)]
    if not pivots:
        # the zero code: each coset is one vector, 0 among the ball vectors
        inside = sum(len(idx) for idx in chunks)
        return 1, int(inside == q**N), inside
    free = [c for c in range(N) if c not in pivots]
    # the pivot rows that some free column reads, with their coefficients
    terms = {f: [(j, row[f]) for j, row in enumerate(G) if row[f]] for f in free}
    read = sorted({j for pairs in terms.values() for j, _ in pairs})
    counts = np.zeros(q ** len(free), dtype=np.int64)
    for idx in chunks:
        # idx // place[c] is column c's digit plus a multiple of q, which
        # the one reduction per free column drops.  No sum leaves int64: a
        # pivot left of f has place[p] >= q * place[f], so f's pivot terms
        # total at most q^N / place[f]
        digit = {j: idx // place[pivots[j]] for j in read}
        key = np.zeros(len(idx), dtype=np.int64)
        for f in free:
            sym = idx // place[f]
            for j, coef in terms[f]:
                sym -= coef * digit[j]
            sym -= sym // q * q  # sym mod q: numpy's int64 // beats its %
            key *= q
            key += sym
        counts += np.bincount(key, minlength=len(counts))
    return int(counts.max()), int(counts.min()), int(counts.sum())


def _perfectness_result(max_mult: int, min_mult: int) -> PerfectnessResult:
    return PerfectnessResult(
        disjoint=max_mult <= 1,
        covering=min_mult >= 1,
        max_multiplicity=max_mult,
        min_multiplicity=min_mult,
    )


def oracle_perfectness(
    code,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    ideal=None,
    radius: int | None = None,
    cap: int | None = None,
) -> PerfectnessResult:
    """Exact disjointness/covering verdict for I-balls or r-balls, counted per coset.

    Exactly one of ideal / radius must be given.  A vector's multiplicity is
    the number of balls around codewords that contain it; the result gives
    its largest and smallest value over the space.

    Both balls are translates of one ball around 0: B_r(0) = {u : w(u) <= r}
    and B_I(0) = {u : supp_pi(u) inside I}.  v lies in B(c) iff v - c lies
    in B(0), and v - C = v + C, so v's multiplicity is the number of ball
    vectors in its coset v + C.  The ball vectors around 0 are enumerated
    when the ball is at most half the space (O(|B(0)|) time), else marked
    in one sweep of the space (O(q^N)), and counted per coset in
    O(chunk + q^(N-k)) memory; no codeword is enumerated.  The ideal mode
    reads only W.q from the weight, and P not at all.
    """
    if (ideal is None) == (radius is None):
        raise BoundsError("give exactly one of ideal= or radius=")
    check_shape(pi, P.n, code)
    check_shape(pi, None if ideal is None else ideal.n)
    if radius is not None and integer(radius, "radius") < 0:
        raise BoundsError(f"radius {radius} < 0")
    _check_cap(W.q, pi.N, cap)
    _, chunks = _ball(P, pi, W, ideal=ideal, radius=radius)
    max_mult, min_mult, _ = _coset_ball_counts(code, chunks, W.q, pi.N)
    return _perfectness_result(max_mult, min_mult)


def _row_weigher(P: Poset, pi: LabelMap, W: WeightModel) -> Callable[[np.ndarray], np.ndarray]:
    """The weights of an (S, N) matrix of symbol rows, by a function that
    reads the order matrices and the weight table built here, once."""
    wtab = np.array(W.table, dtype=np.int64)
    leq, strict = _order_matrices(P)

    def weigh(diff: np.ndarray) -> np.ndarray:
        wsym = wtab[diff]
        wmat = np.empty((diff.shape[0], pi.n), dtype=np.int64)
        for i in range(pi.n):
            sl = pi.block_slice(i + 1)
            wmat[:, i] = wsym[:, sl.start : sl.stop].max(axis=1)
        return _weights_from_block_weights(leq, strict, W.M_w, wmat)

    return weigh


def oracle_metric_axioms(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    samples: int,
    seed: int,
) -> MetricAxiomReport:
    """Seeded sampling of triples; reports identity/symmetry/triangle
    violations, with the first _WITNESSES of them as witnesses."""
    check_shape(pi, P.n)
    samples, seed = integer(samples, "sample count"), integer(seed, "seed")
    if samples < 0 or seed < 0:
        raise BoundsError(f"sample count {samples} or seed {seed} < 0")
    if samples == 0:
        return MetricAxiomReport(samples=0, violation_count=0, witnesses=())
    rng = np.random.default_rng(seed)
    q, weigh = W.q, _row_weigher(P, pi, W)
    violation_count = 0
    witnesses: list[MetricViolation] = []
    done = 0
    while done < samples:
        batch = min(samples - done, 1 << 16)
        xs = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        ys = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        zs = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        d_xy = weigh((xs - ys) % q)
        d_yx = weigh((ys - xs) % q)
        d_yz = weigh((ys - zs) % q)
        d_xz = weigh((xs - zs) % q)
        ident_bad = (d_xy == 0) != (xs == ys).all(axis=1)
        sym_bad = d_xy != d_yx
        tri_bad = d_xz > d_xy + d_yz
        for kind, bad, with_z in (
            ("identity", ident_bad, False),
            ("symmetry", sym_bad, False),
            ("triangle", tri_bad, True),
        ):
            hits = np.flatnonzero(bad)
            violation_count += len(hits)
            for h in hits[: max(0, _WITNESSES - len(witnesses))]:
                witnesses.append(
                    MetricViolation(
                        kind=kind,
                        x=tuple(int(v) for v in xs[h]),
                        y=tuple(int(v) for v in ys[h]),
                        z=tuple(int(v) for v in zs[h]) if with_z else None,
                    )
                )
        done += batch
    return MetricAxiomReport(
        samples=samples,
        violation_count=int(violation_count),
        witnesses=tuple(witnesses),
    )
