"""Finite posets on {1,...,n}: ideals, the series-parallel fold, classifiers, duals.

Elements are 1-indexed at the API boundary (matching the usual convention
for coordinate labels) and 0-indexed internally.  Every subset of the
ground set is stored as a bitmask over the internal indices, so closure,
maximal-element and comparability queries are single integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import (
    BoundsError,
    CycleError,
    DimensionError,
    ExplosionError,
    PreconditionError,
)

N_CAP_DEFAULT = 24
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


def build_poset(
    n: int,
    relations: Iterable[tuple[int, int]] = (),
    *,
    n_cap: int = N_CAP_DEFAULT,
) -> Poset:
    """Build the poset whose order is the reflexive-transitive closure of relations.

    relations contains 1-indexed (a, b) pairs meaning a <= b.  Raises
    CycleError if the closure is not antisymmetric, BoundsError for indices
    outside [1, n] or n outside [1, n_cap].
    """
    if not 1 <= n <= n_cap:
        raise BoundsError(f"ground set size {n} outside [1, {n_cap}]")
    up = [1 << i for i in range(n)]
    for a, b in relations:
        if not (1 <= a <= n and 1 <= b <= n):
            raise BoundsError(f"relation ({a}, {b}) outside [1, {n}]")
        up[a - 1] |= 1 << (b - 1)
    # transitive closure over bitmask rows
    for k in range(n):
        for i in range(n):
            if (up[i] >> k) & 1:
                up[i] |= up[k]
    for i in range(n):
        for j in _bits(up[i] & ~(1 << i)):
            if (up[j] >> i) & 1:
                raise CycleError(
                    f"elements {i + 1} and {j + 1} are mutually comparable"
                )
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    return Poset(n=n, down=tuple(down), up=tuple(up))


def poset_from_json(obj: dict, *, n_cap: int = N_CAP_DEFAULT) -> Poset:
    """Parse the {"n": ..., "relations": [[a, b], ...]} wire shape."""
    pairs = [(int(a), int(b)) for a, b in obj.get("relations", [])]
    return build_poset(int(obj["n"]), pairs, n_cap=n_cap)


def ideal_closure(P: Poset, S: Iterable[int]) -> Ideal:
    """Smallest ideal containing S (1-indexed labels), with maximals computed."""
    mask = 0
    for a in S:
        P._check_element(a)
        mask |= 1 << (a - 1)
    members = P.closure_mask(mask)
    return Ideal(n=P.n, members_mask=members, max_mask=P.maximals_mask(members))


def ideal_masks(P: Poset, within: int, *, cap: int = IDEAL_CAP_DEFAULT) -> set[int]:
    """Bitmasks of every ideal of the subposet P induces on the set within.

    BFS over the down-set lattice: an ideal grows by any element of within
    whose strict down-set inside within it already contains.  Raises
    ExplosionError when the ideal count exceeds cap (an antichain has 2^n
    ideals).
    """
    strict_down = [P.down[i] & within & ~(1 << i) for i in range(P.n)]
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            for i in _bits(within & ~mask):
                if strict_down[i] & ~mask == 0:
                    grown = mask | (1 << i)
                    if grown not in seen:
                        seen.add(grown)
                        if len(seen) > cap:
                            raise ExplosionError(
                                f"ideal count exceeds cap {cap}"
                            )
                        nxt.append(grown)
        frontier = nxt
    return seen


def enumerate_ideals(P: Poset, *, cap: int = IDEAL_CAP_DEFAULT) -> IdealFamily:
    """Every ideal of P with its maximal elements, in ascending mask order."""
    masks = sorted(ideal_masks(P, (1 << P.n) - 1, cap=cap))
    ideals = tuple(
        Ideal(n=P.n, members_mask=m, max_mask=P.maximals_mask(m)) for m in masks
    )
    return IdealFamily(poset=P, ideals=ideals)


def _components(piece: int, adjacent) -> list[int]:
    """Connected components of the graph on piece with i ~ j iff bit j of adjacent[i]."""
    parts = []
    left = piece
    while left:
        part = grown = left & -left
        while grown:
            reach = 0
            for i in _bits(grown):
                reach |= adjacent[i]
            grown = reach & left & ~part
            part |= grown
        parts.append(part)
        left &= ~part
    return parts


def fold_ideals(P: Poset, leaf, flat, join, stack):
    """Answer a question about P's ideal lattice by folding its series-parallel
    decomposition (Stanley, Enumerative Combinatorics 1, ch. 3): element i
    (0-indexed) gives leaf(i), a disjoint union joins its parts' values,
    join(a, b), and an ordinal sum stacks each summand onto the value low of
    the summands in the mask below it, stack(low, below, high).  Only a piece
    that is neither gives flat(piece), which walks its ideal_masks."""
    comparable = [P.down[i] | P.up[i] for i in range(P.n)]
    incomparable = [~c for c in comparable]

    def fold(piece: int):
        if piece & (piece - 1) == 0:
            return leaf(piece.bit_length() - 1)
        parts = _components(piece, comparable)
        if len(parts) > 1:
            return reduce(join, map(fold, parts))
        parts = _components(piece, incomparable)
        if len(parts) == 1:
            return flat(piece)
        # bottom first: every element of a lower summand lies below every
        # element of a higher one, so it has fewer elements below it
        parts.sort(key=lambda part: (P.down[part.bit_length() - 1] & piece).bit_count())
        value, below = fold(parts[0]), parts[0]
        for part in parts[1:]:
            value = stack(value, below, fold(part))
            below |= part
        return value

    return fold((1 << P.n) - 1)


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
    full = (1 << P.n) - 1
    lowest = accumulate(sum(1 << (a - 1) for a in lvl) for lvl in levels.levels[:-1])
    hier = all(P.down[j] & below == below for below in lowest for j in _bits(full & ~below))
    is_chain = hier and all(s == 1 for s in levels.level_sizes)
    is_antichain = levels.height == 1
    return PosetClass(
        is_chain=is_chain,
        is_antichain=is_antichain,
        is_hierarchical=hier,
        levels=levels,
    )


def chain_order(P: Poset) -> tuple[int, ...]:
    """Elements of a chain poset from bottom to top (1-indexed)."""
    cls = classify(P)
    if not cls.is_chain:
        raise PreconditionError("poset is not a chain")
    return tuple(lvl[0] for lvl in cls.levels.levels)


def is_finer(P: Poset, P2: Poset) -> bool:
    """Whether P2 refines P: every relation a <= b of P also holds in P2."""
    if P.n != P2.n:
        raise DimensionError(f"ground sets differ: {P.n} vs {P2.n}")
    return all(P.up[i] & ~P2.up[i] == 0 for i in range(P.n))
