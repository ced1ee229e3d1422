"""Ground-truth engine: exhaustive sweeps of Z_q^N, independent of all closed forms.

Every vector index in [0, q^N) is processed in odometer order (last
coordinate fastest), in contiguous chunks.  Per-block weight lookup tables
are built by brute enumeration of each block's q^k_i values; a vector's
weight is then computed from its block-weight profile by the definitional
closure/maximals rule.  One kernel does this weighing for every sweep.
Nothing here touches the ideal/partition counting machinery, so agreement
with the closed forms is a real theorem check.

Perfectness verdicts count per coset instead of per codeword, using only
the linearity of the code: r-balls and I-balls are both translates of a
ball around 0, so a vector's number of balls is the number of ball
vectors in its coset, counted in one sweep keyed by coset representative.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import DistributionTable
from .errors import BoundsError, ExplosionError
from .poset import Poset
from .space import LabelMap
from .weights import WeightModel

SPACE_CAP_DEFAULT = 10**7
SPACE_CAP_ENV = "POSETBLOCK_CAP_SPACE"
_CHUNK = 1 << 18
_INDEX_MAX = 2**63 - 1


def space_cap(override: int | None = None) -> int:
    """The configured space cap, clamped to 2^63 - 1: sweeps index vectors in int64."""
    if override is not None:
        limit = override
    else:
        env = os.environ.get(SPACE_CAP_ENV)
        limit = int(env) if env else SPACE_CAP_DEFAULT
    return min(limit, _INDEX_MAX)


@dataclass(frozen=True)
class OracleResult:
    histogram: dict
    total: int
    elapsed: float
    fingerprint: str
    q: int
    N: int
    n: int
    max_weight: int

    def to_table(self) -> DistributionTable:
        counts = tuple(self.histogram.get(r, 0) for r in range(self.max_weight + 1))
        return DistributionTable(
            q=self.q,
            N=self.N,
            n=self.n,
            max_weight=self.max_weight,
            counts=counts,
            method="oracle",
        )


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


def _block_weight_tables(pi: LabelMap, W: WeightModel) -> list[np.ndarray]:
    """For each block, the weight of every one of its q^k_i values.

    Built by literal enumeration: split the block code into base-q digits
    and take the max symbol weight.
    """
    wtab = np.array(W.table, dtype=np.int64)
    out = []
    for k in pi.k:
        codes = np.arange(W.q**k, dtype=np.int64)
        bw = np.zeros(W.q**k, dtype=np.int64)
        for t in range(k):
            digit = (codes // (W.q ** (k - 1 - t))) % W.q
            np.maximum(bw, wtab[digit], out=bw)
        out.append(bw)
    return out


def _order_matrices(P: Poset) -> tuple[np.ndarray, np.ndarray]:
    """leq[i, j] = i <= j and strict[i, j] = i < j as uint8 matrices (0-indexed)."""
    n = P.n
    leq = np.zeros((n, n), dtype=np.uint8)
    for j in range(n):
        for i in range(n):
            leq[i, j] = (P.down[j] >> i) & 1
    strict = leq.copy()
    np.fill_diagonal(strict, 0)
    return leq, strict


def _weights_from_block_weights(
    leq: np.ndarray, strict: np.ndarray, M_w: int, wmat: np.ndarray
) -> np.ndarray:
    """Definitional weight of each row of an (S, n) block-weight matrix."""
    support = (wmat > 0).astype(np.uint8)
    closure = (support @ leq.T) > 0
    dominated = (closure.astype(np.uint8) @ strict.T) > 0
    maximal = closure & ~dominated
    non_max = closure & ~maximal
    return (wmat * maximal).sum(axis=1) + M_w * non_max.sum(axis=1)


def _index_places(pi: LabelMap, q: int) -> tuple[list[int], list[int]]:
    """Per-block radix q^k_i and positional factor in the odometer index."""
    sizes = [q**k for k in pi.k]
    places = [1] * pi.n
    for i in range(pi.n - 2, -1, -1):
        places[i] = places[i + 1] * sizes[i + 1]
    return sizes, places


def _ranges(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _check_cap(q: int, N: int, cap: int | None) -> int:
    total = q**N
    limit = space_cap(cap)
    if total > limit:
        why = " (the largest int64 vector index)" if limit == _INDEX_MAX else ""
        raise ExplosionError(f"q^N = {total} exceeds space cap {limit}{why}")
    return total


def _weigher(P: Poset, pi: LabelMap, W: WeightModel):
    """The one weight kernel: weigh(lo, hi) gives the weights of the vectors
    with index in [lo, hi).

    Vectors are keyed by their block-weight profile, and the definitional
    weight is computed once per profile: for all profiles up front when
    there are at most a chunk of them, else once per distinct profile in
    each range.
    """
    bw_tables = _block_weight_tables(pi, W)
    sizes, places = _index_places(pi, W.q)
    # rank-compress block weights so profile keys fit comfortably in int64;
    # key_tables[i] maps a block code straight to its term of the key
    attained = [np.unique(bw) for bw in bw_tables]
    radices = [len(att) for att in attained]
    key_places = [1] * pi.n
    for i in range(pi.n - 2, -1, -1):
        key_places[i] = key_places[i + 1] * radices[i + 1]
    key_tables = [
        np.searchsorted(att, bw).astype(np.int64) * kp
        for att, bw, kp in zip(attained, bw_tables, key_places)
    ]
    leq, strict = _order_matrices(P)

    def profiles(lo: int, hi: int) -> np.ndarray:
        idx = np.arange(lo, hi, dtype=np.int64)
        key = np.zeros(hi - lo, dtype=np.int64)
        for i in range(pi.n):
            key += key_tables[i][(idx // places[i]) % sizes[i]]
        return key

    def profile_weights(keys: np.ndarray) -> np.ndarray:
        wmat = np.empty((len(keys), pi.n), dtype=np.int64)
        for i in range(pi.n):
            wmat[:, i] = attained[i][(keys // key_places[i]) % radices[i]]
        return _weights_from_block_weights(leq, strict, W.M_w, wmat)

    n_profiles = key_places[0] * radices[0]
    if n_profiles <= _CHUNK:
        table = profile_weights(np.arange(n_profiles, dtype=np.int64))
        return lambda lo, hi: table[profiles(lo, hi)]

    def weigh(lo: int, hi: int) -> np.ndarray:
        ukeys, inverse = np.unique(profiles(lo, hi), return_inverse=True)
        return profile_weights(ukeys)[inverse]

    return weigh


def oracle_distribution(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int | None = None,
    threads: int = 1,
) -> OracleResult:
    """Exact weight histogram of the whole space by exhaustive sweep."""
    if P.n != pi.n:
        raise BoundsError(f"poset has {P.n} elements, label map {pi.n}")
    q = W.q
    total = _check_cap(q, pi.N, cap)
    start = time.monotonic()
    weigh = _weigher(P, pi, W)
    max_weight = pi.n * W.M_w

    def sweep(lo: int, hi: int) -> np.ndarray:
        return np.bincount(weigh(lo, hi), minlength=max_weight + 1)

    ranges = _ranges(total)
    hist = np.zeros(max_weight + 1, dtype=np.int64)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(lambda rg: sweep(*rg), ranges):
                hist += part
    else:
        for lo, hi in ranges:
            hist += sweep(lo, hi)
    histogram = {r: int(c) for r, c in enumerate(hist)}
    return OracleResult(
        histogram=histogram,
        total=total,
        elapsed=time.monotonic() - start,
        fingerprint=_fingerprint(P, pi, W),
        q=q,
        N=pi.N,
        n=pi.n,
        max_weight=max_weight,
    )


def _coset_ball_counts(code, member, q: int, N: int):
    """(max, min) over the cosets of C of the number of ball vectors, where
    member(lo, hi) marks the ball vectors among the indices in [lo, hi).

    A ball vector u is keyed by the representative of u + C that is zero on
    the pivot columns of the reduced generator G: u - u[pivots] G, read as a
    base-q number over the free columns.
    """
    from .codes import _rref

    G, pivots = _rref([list(r) for r in code.generator], q, N)
    total = q**N
    place = [q ** (N - 1 - c) for c in range(N)]
    if not pivots:
        # the zero code: each coset is one vector, 0 among the ball vectors
        inside = sum(int(member(lo, hi).sum()) for lo, hi in _ranges(total))
        return 1, int(inside == total)
    free = [c for c in range(N) if c not in pivots]
    counts = np.zeros(q ** len(free), dtype=np.int64)
    for lo, hi in _ranges(total):
        idx = lo + np.flatnonzero(member(lo, hi))
        key = np.zeros(len(idx), dtype=np.int64)
        for f in free:
            sym = (idx // place[f]) % q
            for row, p in zip(G, pivots):
                if row[f]:
                    sym -= row[f] * ((idx // place[p]) % q)
            key = key * q + sym % q
        counts += np.bincount(key, minlength=len(counts))
    return int(counts.max()), int(counts.min())


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
    vectors in its coset v + C.  One pass marks every vector of the space
    (by weight, or by its blocks outside I being zero) and counts the ball
    vectors per coset (O(q^N) time, O(chunk + q^(N-k)) memory); no codeword
    is enumerated.
    """
    if (ideal is None) == (radius is None):
        raise BoundsError("give exactly one of ideal= or radius=")
    if code.n_cols != pi.N:
        raise BoundsError("code length differs from label map N")
    q = W.q
    _check_cap(q, pi.N, cap)
    if ideal is not None:
        sizes, places = _index_places(pi, q)
        outside = [i for i in range(pi.n) if not (ideal.members_mask >> i) & 1]

        def member(lo: int, hi: int) -> np.ndarray:
            idx = np.arange(lo, hi, dtype=np.int64)
            inside = np.ones(hi - lo, dtype=bool)
            for i in outside:  # block i's value, idx // places[i] % sizes[i], is 0
                inside &= idx % (places[i] * sizes[i]) < places[i]
            return inside

    else:
        if radius < 0:
            raise BoundsError(f"radius {radius} < 0")
        weigh = _weigher(P, pi, W)

        def member(lo: int, hi: int) -> np.ndarray:
            return weigh(lo, hi) <= radius

    max_mult, min_mult = _coset_ball_counts(code, member, q, pi.N)
    return PerfectnessResult(
        disjoint=max_mult <= 1,
        covering=min_mult >= 1,
        max_multiplicity=max_mult,
        min_multiplicity=min_mult,
    )


def _pairwise_weights(
    P: Poset, pi: LabelMap, W: WeightModel, diff: np.ndarray
) -> np.ndarray:
    """Weights of an (S, N) matrix of symbol rows."""
    wtab = np.array(W.table, dtype=np.int64)
    wsym = wtab[diff]
    wmat = np.empty((diff.shape[0], pi.n), dtype=np.int64)
    for i in range(pi.n):
        sl = pi.block_slice(i + 1)
        wmat[:, i] = wsym[:, sl.start : sl.stop].max(axis=1)
    leq, strict = _order_matrices(P)
    return _weights_from_block_weights(leq, strict, W.M_w, wmat)


def oracle_metric_axioms(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    samples: int,
    seed: int,
    *,
    witness_limit: int = 20,
) -> MetricAxiomReport:
    """Seeded sampling of triples; reports identity/symmetry/triangle violations."""
    if samples == 0:
        return MetricAxiomReport(samples=0, violation_count=0, witnesses=())
    rng = np.random.default_rng(seed)
    q = W.q
    violation_count = 0
    witnesses: list[MetricViolation] = []
    done = 0
    while done < samples:
        batch = min(samples - done, 1 << 16)
        xs = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        ys = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        zs = rng.integers(0, q, size=(batch, pi.N), dtype=np.int64)
        d_xy = _pairwise_weights(P, pi, W, (xs - ys) % q)
        d_yx = _pairwise_weights(P, pi, W, (ys - xs) % q)
        d_yz = _pairwise_weights(P, pi, W, (ys - zs) % q)
        d_xz = _pairwise_weights(P, pi, W, (xs - zs) % q)
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
            for h in hits[: max(0, witness_limit - len(witnesses))]:
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
