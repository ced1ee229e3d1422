"""Finite posets on {1,...,n}: ideals, the ideal-lattice fold, classifiers, duals.

Elements are 1-indexed at the API boundary (matching the usual convention
for coordinate labels) and 0-indexed internally.  Every subset of the
ground set is stored as a bitmask over the internal indices, so closure,
maximal-element and comparability queries are single integer operations.

fold_ideals is the one walk over P: a piece is a disjoint union, an ordinal
sum, or splits on a maximal element, and cap bounds the split pieces.  Each
question about every ideal is an algebra on it, ideals_with_sum the listing
one; enumerate_ideals walks the whole lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    BoundsError,
    CycleError,
    DimensionError,
    ExplosionError,
    PreconditionError,
    integer,
)

N_CAP_DEFAULT = 64
IDEAL_CAP_DEFAULT = 1 << 22


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Poset:
    """Partial order on {1..n} stored as per-element down-set bitmasks.

    down[j] is the bitmask of {i : i <= j} (0-indexed, includes j itself);
    up[i] is the bitmask of {j : i <= j}.  Both are redundant but keep the
    hot closure/maximal queries branch-free.
    """

    n: int
    down: tuple[int, ...]
    up: tuple[int, ...]

    def leq(self, a: int, b: int) -> bool:
        """Whether a <= b in the order (1-indexed)."""
        self._check_element(a)
        self._check_element(b)
        return bool((self.down[b - 1] >> (a - 1)) & 1)

    def _check_element(self, a: int) -> None:
        if not 1 <= a <= self.n:
            raise BoundsError(f"element {a} outside [1, {self.n}]")

    def closure_mask(self, mask: int) -> int:
        """Bitmask of the ideal generated by the elements of mask."""
        out = 0
        for i in _bits(mask):
            out |= self.down[i]
        return out

    def maximals_mask(self, mask: int) -> int:
        """Bitmask of the maximal elements of the subset mask."""
        out = 0
        for i in _bits(mask):
            if self.up[i] & mask == 1 << i:
                out |= 1 << i
        return out

    def cover_relations(self) -> list[tuple[int, int]]:
        """Transitive reduction as 1-indexed (a, b) pairs with a covered by b."""
        covers = []
        for j in range(self.n):
            below = self.down[j] & ~(1 << j)
            for i in _bits(below):
                between = self.down[j] & self.up[i] & ~(1 << i) & ~(1 << j)
                if between == 0:
                    covers.append((i + 1, j + 1))
        return covers

    def to_json_dict(self) -> dict:
        return {"n": self.n, "relations": [[a, b] for a, b in self.cover_relations()]}


@dataclass(frozen=True)
class Ideal:
    """An order ideal (down-set) together with its maximal elements."""

    n: int
    members_mask: int
    max_mask: int

    @property
    def card(self) -> int:
        return self.members_mask.bit_count()

    @property
    def max_count(self) -> int:
        return self.max_mask.bit_count()

    @property
    def members(self) -> tuple[int, ...]:
        """Members as ascending 1-indexed labels."""
        return tuple(i + 1 for i in _bits(self.members_mask))

    @property
    def maximals(self) -> tuple[int, ...]:
        """Maximal elements as ascending 1-indexed labels."""
        return tuple(i + 1 for i in _bits(self.max_mask))

    @property
    def non_maximals(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in _bits(self.members_mask & ~self.max_mask))

    def contains(self, a: int) -> bool:
        return bool((self.members_mask >> (a - 1)) & 1)


@dataclass(frozen=True)
class IdealFamily:
    """All ideals of a poset, ordered by ascending members bitmask.

    The empty ideal comes first; of_card(i) lists the ideals of
    cardinality i.
    """

    poset: Poset
    ideals: tuple[Ideal, ...]

    def of_card(self, card: int) -> tuple[Ideal, ...]:
        return tuple(i for i in self.ideals if i.card == card)

    def __len__(self) -> int:
        return len(self.ideals)


@dataclass(frozen=True)
class LevelDecomposition:
    """Height function and level partition of a poset."""

    heights: tuple[int, ...]  # heights[i-1] = h(i), 1-indexed elements
    levels: tuple[tuple[int, ...], ...]  # levels[j-1] = elements of height j
    level_sizes: tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class PosetClass:
    is_chain: bool
    is_antichain: bool
    is_hierarchical: bool
    levels: LevelDecomposition


def build_poset(n: int, relations: Iterable[tuple[int, int]] = ()) -> Poset:
    """Build the poset whose order is the reflexive-transitive closure of relations.

    relations contains 1-indexed (a, b) pairs meaning a <= b.  Raises
    CycleError if the closure is not antisymmetric, BoundsError for a
    relation that is not a pair, for a non-integer, and for indices outside
    [1, n] or n outside [1, N_CAP_DEFAULT].
    """
    n = integer(n, "ground set size")
    if not 1 <= n <= N_CAP_DEFAULT:
        raise BoundsError(f"ground set size {n} outside [1, {N_CAP_DEFAULT}]")
    up = [1 << i for i in range(n)]
    for pair in relations:
        try:
            a, b = pair
        except (TypeError, ValueError):
            raise BoundsError(f"malformed relation pair: {pair!r}") from None
        a, b = integer(a, "relation endpoint"), integer(b, "relation endpoint")
        if not (1 <= a <= n and 1 <= b <= n):
            raise BoundsError(f"relation ({a}, {b}) outside [1, {n}]")
        up[a - 1] |= 1 << (b - 1)
    # transitive closure over bitmask rows
    for k in range(n):
        for i in range(n):
            if (up[i] >> k) & 1:
                up[i] |= up[k]
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    # antisymmetry: i is the only element both above and below i
    for i in range(n):
        if up[i] & down[i] != 1 << i:
            j = next(j for j in _bits(up[i] & down[i]) if j != i)
            raise CycleError(f"elements {i + 1} and {j + 1} are mutually comparable")
    return Poset(n=n, down=tuple(down), up=tuple(up))


def poset_from_json(obj: dict) -> Poset:
    """Parse the {"n": ..., "relations": [[a, b], ...]} wire shape."""
    return build_poset(obj["n"], obj.get("relations", ()))


def ideal_closure(P: Poset, S: Iterable[int]) -> Ideal:
    """Smallest ideal containing S (1-indexed labels), with maximals computed."""
    mask = 0
    for a in S:
        a = integer(a, "ideal element")
        if not 1 <= a <= P.n:
            raise BoundsError(f"ideal element {a} outside [1, {P.n}]")
        mask |= 1 << (a - 1)
    members = P.closure_mask(mask)
    return Ideal(n=P.n, members_mask=members, max_mask=P.maximals_mask(members))


def enumerate_ideals(P: Poset, *, cap: int = IDEAL_CAP_DEFAULT) -> IdealFamily:
    """Every ideal of P with its maximal elements, in ascending mask order.

    BFS over the down-set lattice: an ideal grows by any element whose
    strict down-set it already contains.  Raises ExplosionError when the
    ideal count exceeds cap (an antichain has 2^n ideals).
    """
    strict_down = [P.down[i] & ~(1 << i) for i in range(P.n)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for i in _bits(((1 << P.n) - 1) & ~mask):
                if strict_down[i] & ~mask == 0:
                    grown = mask | (1 << i)
                    if grown not in seen:
                        seen.add(grown)
                        if len(seen) > cap:
                            raise ExplosionError(f"ideal count exceeds cap {cap}")
                        nxt.append(grown)
        frontier = nxt
    ideals = tuple(Ideal(P.n, m, P.maximals_mask(m)) for m in sorted(seen))
    return IdealFamily(poset=P, ideals=ideals)


def _components(piece: int, adjacent) -> list[int]:
    """Connected components of the graph on piece with i ~ j iff bit j of adjacent[i]."""
    parts = []
    while piece:
        part = grown = piece & -piece
        while grown:
            reach = 0
            while grown:  # _bits, inlined: this loop is the fold's hot spot
                low = grown & -grown
                reach |= adjacent[low.bit_length() - 1]
                grown ^= low
            grown = reach & piece & ~part
            part |= grown
        parts.append(part)
        piece &= ~part
    return parts


def fold_ideals(
    P: Poset, empty, leaf, join, stack, split, *, cap: int = IDEAL_CAP_DEFAULT
):
    """Answer a question about P's ideal lattice by folding its pieces,
    memoised on their masks (Stanley, Enumerative Combinatorics 1, ch. 3).
    No piece gives empty and element i (0-indexed) leaf(i); a disjoint union
    joins its two halves, join(a, b), each a union of whole connected parts;
    an ordinal sum stacks each summand onto the value low of the summands
    in the mask below, stack(low, below, high).  Any other piece has as
    ideals those of piece - x and down | J for J those of piece - down, for
    x maximal with the largest down-set down, so it gives split(x, down,
    fold(piece - x), fold(piece - down)).  Past cap split pieces it raises
    ExplosionError; leaves and series-parallel posets split none."""
    comparable = [P.down[i] | P.up[i] for i in range(P.n)]
    incomparable = [~c for c in comparable]
    memo = {0: empty}
    splits = 0

    def fold(piece: int):
        nonlocal splits
        if piece in memo:
            return memo[piece]
        if piece & (piece - 1) == 0:
            return leaf(piece.bit_length() - 1)
        parts = _components(piece, comparable)
        summands = _components(piece, incomparable) if len(parts) == 1 else []
        if len(parts) > 1:
            # halves, so joins pair values of like size; disjoint, so sum is OR
            low = sum(parts[: len(parts) // 2])
            value = join(fold(low), fold(piece & ~low))
        elif len(summands) > 1:
            # bottom first: every element of a lower summand lies below every
            # element of a higher one, so it has fewer elements below it
            summands.sort(key=lambda part: (P.down[part.bit_length() - 1] & piece).bit_count())
            value, below = fold(summands[0]), summands[0]
            for part in summands[1:]:
                value = stack(value, below, fold(part))
                below |= part
        else:
            splits += 1
            if splits > cap:
                raise ExplosionError(f"pieces split on a maximal element exceed cap {cap}")
            x = max(_bits(P.maximals_mask(piece)), key=lambda i: (P.down[i] & piece).bit_count())
            down = P.down[x] & piece
            value = split(x, down, fold(piece & ~(1 << x)), fold(piece & ~down))
        memo[piece] = value
        return value

    try:
        return fold((1 << P.n) - 1)
    finally:
        # fold's closure holds fold, a cycle: free memo's values now, not at a gc
        memo.clear()


_Listing = NamedTuple("_Listing", [("mask", int), ("weight", int), ("ideals", Callable)])


def ideals_with_sum(
    P: Poset, k, total: int, *, cap: int = IDEAL_CAP_DEFAULT
) -> list[int]:
    """Masks of the ideals J of P with sum(k[i], i in J) == total, ascending.

    The positive integers k are indexed by 0-indexed element.  This is the
    listing algebra of fold_ideals: a piece's value is its mask, its k-sum
    and ideals(t), its ideals of k-sum t, listed once and only if the total
    leaves t to the piece.  cap bounds the split pieces, as in the fold, and
    each piece's ideals of one sum; past it, ExplosionError."""

    def listing(mask: int, weight: int, make) -> _Listing:
        # k > 0: only the empty ideal has sum 0, only mask sum weight; make lists the rest
        lists = {0: [0], weight: [mask]}

        def ideals(t: int) -> list[int]:
            if t not in lists:
                if not 0 < t < weight:
                    return []
                lists[t] = make(t)
                if len(lists[t]) > cap:
                    raise ExplosionError(f"ideal count exceeds cap {cap}")
            return lists[t]

        return _Listing(mask, weight, ideals)

    def leaf(i: int) -> _Listing:
        return listing(1 << i, k[i], lambda t: [])

    def join(a: _Listing, b: _Listing) -> _Listing:
        def make(t: int) -> list[int]:
            return [x | y for s in range(t + 1) for x in a.ideals(s) for y in b.ideals(t - s)]

        return listing(a.mask | b.mask, a.weight + b.weight, make)

    def stack(low: _Listing, below: int, high: _Listing) -> _Listing:
        def make(t: int) -> list[int]:
            # the ideals below, then all of below under a nonempty ideal of high
            return low.ideals(t) + [below | y for y in high.ideals(t - low.weight) if y]

        return listing(below | high.mask, low.weight + high.weight, make)

    def split(x: int, down: int, without: _Listing, rest: _Listing) -> _Listing:
        weight = without.weight + k[x]
        down_weight = weight - rest.weight

        def make(t: int) -> list[int]:
            # the ideals without x, then down under an ideal of piece - down
            return without.ideals(t) + [down | y for y in rest.ideals(t - down_weight)]

        return listing(without.mask | 1 << x, weight, make)

    whole = fold_ideals(P, listing(0, 0, None), leaf, join, stack, split, cap=cap)
    return sorted(whole.ideals(total))


def dual_poset(P: Poset) -> Poset:
    """Order-reversed poset; its ideals are the complements of P's ideals."""
    return Poset(n=P.n, down=P.up, up=P.down)


def level_decomposition(P: Poset) -> LevelDecomposition:
    """Heights h(i) = size of the largest chain with i on top, and the levels."""
    order = sorted(range(P.n), key=lambda i: P.down[i].bit_count())
    heights = [1] * P.n
    for i in order:
        below = P.down[i] & ~(1 << i)
        for j in _bits(below):
            heights[i] = max(heights[i], heights[j] + 1)
    h = max(heights)
    levels = tuple(
        tuple(i + 1 for i in range(P.n) if heights[i] == lvl)
        for lvl in range(1, h + 1)
    )
    return LevelDecomposition(
        heights=tuple(heights),
        levels=levels,
        level_sizes=tuple(len(lvl) for lvl in levels),
    )


def _sole_ideal(P: Poset, t: int) -> int | None:
    """Mask of P's only ideal of cardinality t, or None if it has several.

    The first t elements of a linear extension form an ideal.  If an element
    outside is not above all of it, some maximal a inside and minimal b
    outside are incomparable, and swapping a for b gives another."""
    order = sorted(range(P.n), key=lambda i: P.down[i].bit_count())
    ideal = sum(1 << i for i in order[:t])
    return ideal if all(P.down[j] & ideal == ideal for j in order[t:]) else None


def classify(P: Poset) -> PosetClass:
    """Chain / antichain / hierarchical classification with the level data.

    Hierarchical: the levels up to each boundary are P's only ideal of their
    size (see _sole_ideal), so every higher element lies above all of them."""
    levels = level_decomposition(P)
    boundaries = accumulate(levels.level_sizes[:-1])
    return PosetClass(
        is_chain=is_chain(P),
        is_antichain=levels.height == 1,
        is_hierarchical=all(_sole_ideal(P, t) is not None for t in boundaries),
        levels=levels,
    )


def is_chain(P: Poset) -> bool:
    """Whether every element is comparable to every other: one mask test each."""
    full = (1 << P.n) - 1
    return all(d | u == full for d, u in zip(P.down, P.up))


def chain_order(P: Poset) -> tuple[int, ...]:
    """Elements of a chain poset from bottom to top (1-indexed)."""
    if not is_chain(P):
        raise PreconditionError("poset is not a chain")
    return tuple(sorted(range(1, P.n + 1), key=lambda a: P.down[a - 1].bit_count()))


def is_finer(P: Poset, P2: Poset) -> bool:
    """Whether P2 refines P: every relation a <= b of P also holds in P2."""
    if P.n != P2.n:
        raise DimensionError(f"ground sets differ: {P.n} vs {P2.n}")
    return all(P.up[i] & ~P2.up[i] == 0 for i in range(P.n))
