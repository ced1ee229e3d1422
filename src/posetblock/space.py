"""Z_q^N addressed as n labeled blocks, its size cap, and the (P,w,pi)-weight.

A vector is a flat sequence of N integer symbols, checked where it enters,
and held to [0, q) wherever q is known; block i is the slice
[offsets[i-1], offsets[i-1] + k_i).  The weight of a vector sums the block
weights (max symbol weight within the block) over the maximal elements of
the ideal generated by its block support, plus M_w for every non-maximal
element of that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import BoundsError, DimensionError, ExplosionError, integer
from .poset import Poset
from .weights import WeightModel, _alphabet

SPACE_CAP_DEFAULT = 10**7
_INDEX_MAX = 2**63 - 1


@dataclass(frozen=True)
class LabelMap:
    """Block lengths (k_1, ..., k_n) with prefix offsets for flat addressing."""

    k: tuple[int, ...]
    N: int
    offsets: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.k)

    def block_slice(self, i: int) -> slice:
        """Slice of block i (1-indexed) in a flat vector."""
        if not 1 <= i <= self.n:
            raise BoundsError(f"block index {i} outside [1, {self.n}]")
        return slice(self.offsets[i - 1], self.offsets[i - 1] + self.k[i - 1])


def label_map(ks: Sequence[int]) -> LabelMap:
    ks = tuple([integer(v, "block length") for v in ks])
    if not ks or any(v < 1 for v in ks):
        raise BoundsError(f"block lengths must be positive: {ks}")
    offsets = []
    total = 0
    for v in ks:
        offsets.append(total)
        total += v
    return LabelMap(k=ks, N=total, offsets=tuple(offsets))


def check_shape(pi: LabelMap, n: int | None = None, code=None) -> None:
    """The one shape check: a poset or ideal on n elements must have one
    element per block of pi, and a code one column per coordinate;
    DimensionError otherwise."""
    if n is not None and n != pi.n:
        raise DimensionError(f"poset has {n} elements but pi lists {pi.n} blocks")
    if code is not None and code.n_cols != pi.N:
        raise DimensionError(f"code length {code.n_cols} != N = {pi.N}")


def space_cap(cap: int | None = None) -> int:
    """cap, or SPACE_CAP_DEFAULT for None, clamped to 2^63 - 1: sweeps index
    vectors in int64."""
    return min(SPACE_CAP_DEFAULT if cap is None else cap, _INDEX_MAX)


def _check_cap(q: int, N: int, cap: int | None) -> int:
    """q^N, once it is within the space cap; ExplosionError otherwise."""
    total = q**N
    limit = space_cap(cap)
    if total > limit:
        why = " (the largest int64 vector index)" if limit == _INDEX_MAX else ""
        raise ExplosionError(f"q^N = {total} exceeds space cap {limit}{why}")
    return total


def _symbols(x: Sequence[int], q: int | None = None) -> tuple[int, ...]:
    """The one symbol check: x as ints; BoundsError for a bool, float or
    string, and, when q is given, for a symbol outside [0, q)."""
    x = tuple([integer(v, "vector entry") for v in x])
    if q is not None:
        for v in x:
            if not 0 <= v < q:
                raise BoundsError(f"vector entry {v} outside [0, {q})")
    return x


def _entries(pi: LabelMap, x: Sequence[int], q: int | None = None) -> tuple[int, ...]:
    x = _symbols(x, q)
    if len(x) != pi.N:
        raise DimensionError(f"vector length {len(x)} != N = {pi.N}")
    return x


def pi_support(pi: LabelMap, x) -> tuple[int, ...]:
    """Labels of the nonzero blocks of x, ascending.  pi carries no q, so
    the raw symbols are read: any nonzero integer marks its block."""
    e = _entries(pi, x)
    return tuple(
        i
        for i in range(1, pi.n + 1)
        if any(v != 0 for v in e[pi.block_slice(i)])
    )


def block_weight(W: WeightModel, block: Sequence[int]) -> int:
    """Max of the componentwise symbol weights; 0 iff the block is zero."""
    block = _symbols(block, W.q)
    if not block:
        raise BoundsError("empty block")
    return max(W.weight(v) for v in block)


def pwpi_weight(P: Poset, pi: LabelMap, W: WeightModel, x) -> int:
    """Weight of x: block weights on the maximals of <supp_pi(x)>, M_w elsewhere."""
    check_shape(pi, P.n)
    e = _entries(pi, x, W.q)
    supp_mask = 0
    bw = {}
    for i in range(1, pi.n + 1):
        w = max(W.weight(v) for v in e[pi.block_slice(i)])
        if w:
            supp_mask |= 1 << (i - 1)
            bw[i - 1] = w
    ideal = P.closure_mask(supp_mask)
    maxm = P.maximals_mask(ideal)
    total = W.M_w * (ideal & ~maxm).bit_count()
    m = maxm
    while m:
        low = m & -m
        total += bw[low.bit_length() - 1]
        m ^= low
    return total


def vector_sub(q: int, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    """Componentwise x - y mod q, for an integer q >= 2."""
    q = _alphabet(q)
    x, y = _symbols(x, q), _symbols(y, q)
    if len(x) != len(y):
        raise DimensionError(f"vector lengths differ: {len(x)} vs {len(y)}")
    return tuple((a - b) % q for a, b in zip(x, y))


def pwpi_distance(P: Poset, pi: LabelMap, W: WeightModel, x, y) -> int:
    """Distance d(x, y) = weight of the componentwise difference mod q."""
    return pwpi_weight(P, pi, W, vector_sub(W.q, x, y))
