"""Seeded job batches for the `tables`, `oracle` and `codes` workloads.

A batch is a list of Job records made only from the seed; the package sees
nothing but the generated instance configs.  The benchmark compares medians
over seeds, so a batch whose cost swung with the seed would hide real
changes.  Each job therefore comes from a fixed slot (command, size class,
weight family) and its cost is held inside a band by rejection sampling on
a work model of the seed's code paths: the seed varies the posets,
labelings, block lengths, weights, codes and radii, not the amount of work.
The work models miss fixed costs, so the jobs where the median and the 90th
percentile fall are drawn from fixed streams instead and the seed relabels
them: isomorphic copies do the same work.  Poset structure is computed here
with the benchmark's own code, independent of `posetblock`, for the cost
models and the manifest.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

WORKLOADS = ("tables", "oracle", "codes")
# every workload runs at one thread; oracle-compare is given it explicitly
# (README.md says why not two)
THREADS = 1

# q values the tables workload draws from, per the issue
TABLE_QS = (5, 7, 11, 13, 17, 31)
IDEAL_LIMIT = 2500  # candidate posets with more ideals are resampled


@dataclass
class Job:
    """One closed-loop job: a CLI command or a library verdict on one instance."""

    id: str
    command: str  # CLI subcommand, or a library verdict (see run.Bench.call)
    config: dict  # instance config in the CLI's JSON shape
    args: list = field(default_factory=list)  # extra CLI flags, or [radius]
    kind: str = "other"  # chain | antichain | hierarchical | decomposable | other
    dist_kind: str = "general"  # the counting layer's kind: chain | antichain | hierarchical | general
    series_parallel: bool = False
    work: float = 0.0  # cost model value, used only to pick warm-up jobs
    expect: dict = field(default_factory=dict)  # anchor facts checked on the output

    @property
    def cli(self) -> bool:
        return self.command in ("distribution", "ball", "oracle-compare", "check-code")


# --------------------------------------------------------------------------
# posets: closure, ideals, structure


class Shape:
    """A poset on {1..n} given by relations, with closed down/up bitmasks."""

    def __init__(self, n: int, relations):
        self.n = n
        self.relations = [[int(a), int(b)] for a, b in relations]
        up = [1 << i for i in range(n)]
        for a, b in self.relations:
            up[a - 1] |= 1 << (b - 1)
        for k in range(n):
            for i in range(n):
                if (up[i] >> k) & 1:
                    up[i] |= up[k]
        down = [0] * n
        for i in range(n):
            for j in range(n):
                if (up[i] >> j) & 1:
                    down[j] |= 1 << i
        self.up, self.down = up, down
        self._groups = None

    def leq(self, i: int, j: int) -> bool:  # 0-indexed
        return bool((self.down[j] >> i) & 1)

    def ideal_groups(self):
        """Counter {(card, #maximals): count} over nonempty ideals, None past IDEAL_LIMIT."""
        if self._groups is None:
            n, up = self.n, self.up
            strict = [self.down[i] & ~(1 << i) for i in range(n)]
            seen, frontier = {0}, [0]
            while frontier:
                nxt = []
                for mask in frontier:
                    for i in range(n):
                        if not (mask >> i) & 1 and strict[i] & ~mask == 0:
                            grown = mask | (1 << i)
                            if grown not in seen:
                                seen.add(grown)
                                nxt.append(grown)
                if len(seen) > IDEAL_LIMIT:
                    self._groups = False
                    return None
                frontier = nxt
            groups = Counter()
            for mask in seen:
                maximal, rest = 0, mask
                while rest:
                    low = rest & -rest
                    if up[low.bit_length() - 1] & mask == low:
                        maximal += 1
                    rest ^= low
                if mask:
                    groups[(bin(mask).count("1"), maximal)] += 1
            self._groups = groups
        return self._groups or None

    def levels(self) -> list:
        heights = [1] * self.n
        for i in sorted(range(self.n), key=lambda e: bin(self.down[e]).count("1")):
            for j in range(self.n):
                if j != i and self.leq(j, i):
                    heights[i] = max(heights[i], heights[j] + 1)
        return [
            [i for i in range(self.n) if heights[i] == h] for h in range(1, max(heights) + 1)
        ]

    def is_hierarchical(self) -> bool:
        lv = self.levels()
        return all(
            self.leq(a, b)
            for lo in range(len(lv))
            for hi in range(lo + 1, len(lv))
            for a in lv[lo]
            for b in lv[hi]
        )

    def _split(self, elems: list):
        """Pieces of elems as a disjoint union or an ordinal sum, else None."""
        comp, todo = [], set(elems)
        while todo:
            stack, part = [todo.pop()], set()
            while stack:
                e = stack.pop()
                part.add(e)
                for f in list(todo):
                    if self.leq(e, f) or self.leq(f, e):
                        todo.discard(f)
                        stack.append(f)
            comp.append(sorted(part))
        if len(comp) > 1:
            return comp
        order = sorted(elems, key=lambda e: bin(self.down[e]).count("1"))
        for m in range(1, len(order)):
            if all(self.leq(a, b) for a in order[:m] for b in order[m:]):
                return [order[:m], order[m:]]
        return None

    def series_parallel(self, elems=None) -> bool:
        elems = list(range(self.n)) if elems is None else elems
        if len(elems) == 1:
            return True
        pieces = self._split(elems)
        return pieces is not None and all(self.series_parallel(p) for p in pieces)

    def kind(self) -> str:
        lv = self.levels()
        hier = self.is_hierarchical()
        if hier and all(len(level) == 1 for level in lv):
            return "chain"
        if len(lv) == 1:
            return "antichain"
        if hier:
            return "hierarchical"
        if self._split(list(range(self.n))) is not None:
            return "decomposable"
        return "other"


def dist_kind(kind: str) -> str:
    return kind if kind in ("chain", "antichain", "hierarchical") else "general"


def random_shape(rng: random.Random, n: int, density: float) -> Shape:
    """Random order: relations along a random labeling, kept with probability density."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rel = [
        (perm[a], perm[b])
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < density
    ]
    return Shape(n, rel)


def chain_shape(rng: random.Random, n: int) -> Shape:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Shape(n, [(perm[i], perm[i + 1]) for i in range(n - 1)])


def level_shape(rng: random.Random, sizes) -> Shape:
    """Hierarchical poset: every element of a level lies below every higher one."""
    n = sum(sizes)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    levels, at = [], 0
    for s in sizes:
        levels.append(perm[at : at + s])
        at += s
    rel = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return Shape(n, rel)


def relabel(rng: random.Random, shape: Shape, ks, rows=None) -> tuple:
    """An isomorphic copy under a random relabeling, with the block lengths
    and the generator's column blocks carried along: the same ideals and
    the same code, so the same work.  Returns (shape, ks[, rows])."""
    perm = list(range(1, shape.n + 1))
    rng.shuffle(perm)
    old = sorted(range(shape.n), key=lambda i: perm[i])  # old element at each new label
    copy = Shape(shape.n, [(perm[a - 1], perm[b - 1]) for a, b in shape.relations])
    moved = [ks[i] for i in old]
    if rows is None:
        return copy, moved
    starts = [sum(ks[:i]) for i in range(shape.n)]
    cols = [starts[i] + t for i in old for t in range(ks[i])]
    return copy, moved, [[row[c] for c in cols] for row in rows]


def union_shape(rng: random.Random, parts) -> Shape:
    """Disjoint union of the given shapes under a random relabeling."""
    n = sum(p.n for p in parts)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    rel, off = [], 0
    for p in parts:
        rel += [(perm[off + a - 1], perm[off + b - 1]) for a, b in p.relations]
        off += p.n
    return Shape(n, rel)


# --------------------------------------------------------------------------
# weights and block lengths


def weight_spec(rng: random.Random, q: int, family: str, top: int = 3):
    """("lee" | "hamming" | {"table": ...}, M_w).

    Custom tables are symmetric with every nonzero weight in [ceil(M/2), M],
    which makes them subadditive, so they never raise a WeightWarning.
    """
    if family == "lee":
        return "lee", q // 2
    if family == "hamming":
        return "hamming", 1
    lo = (top + 1) // 2
    half = [rng.randint(lo, top) for _ in range(q // 2)]
    half[rng.randrange(len(half))] = top
    table = [0] * q
    for a, w in enumerate(half, start=1):
        table[a] = table[q - a] = w
    return {"table": table}, top


def weight_bounds(cfg: dict) -> tuple:
    """(m_w, M_w) of a config's weight: its smallest nonzero and largest value."""
    w = cfg["weight"]
    if w == "lee":
        return 1, cfg["q"] // 2
    if w == "hamming":
        return 1, 1
    return min(w["table"][1:]), max(w["table"])


def mixed_ks(rng: random.Random, n: int, hi: int = 3) -> list:
    while True:
        ks = [rng.randint(1, hi) for _ in range(n)]
        if len(set(ks)) > 1:
            return ks


# --------------------------------------------------------------------------
# cost models of the counting sums (about 1.2 us per unit on a 2.1 GHz x86 core)


def general_work(shape: Shape, M: int):
    """Ideal/partition/arrangement sum: sum over ideals of j * M^j."""
    groups = shape.ideal_groups()
    if groups is None:
        return None
    return sum(c * j * M**j for (_, j), c in groups.items())


def equal_work(shape: Shape, M: int):
    """Grouped sum: per (card, j) group, j times the multisets of j parts in [1, M]."""
    groups = shape.ideal_groups()
    if groups is None:
        return None
    return sum(j * math.comb(M + j - 1, j) for (_, j) in groups) + sum(groups.values())


def hierarchical_work(shape: Shape, M: int):
    return sum(
        math.comb(len(level), l) * l * M**l
        for level in shape.levels()
        for l in range(1, len(level) + 1)
    )


def sample(rng: random.Random, make, lo: float, hi: float, tries: int = 400):
    """First candidate whose work lies in [lo, hi]; else the closest one seen."""
    best, best_gap = None, math.inf
    for _ in range(tries):
        cand = make()
        work = cand[-1]
        if work is None:
            continue
        if lo <= work <= hi:
            return cand
        gap = abs(math.log(work / math.sqrt(lo * hi)))
        if gap < best_gap:
            best, best_gap = cand, gap
    return best


def geometric(lo: float, hi: float, count: int) -> list:
    """count targets from lo to hi, spaced geometrically."""
    return [lo * (hi / lo) ** (i / (count - 1)) for i in range(count)]


def config(q: int, shape: Shape, ks, weight) -> dict:
    return {
        "q": q,
        "poset": {"n": shape.n, "relations": shape.relations},
        "pi": list(ks),
        "weight": weight,
    }


def make_job(jid, command, cfg, shape: Shape, work, args=(), expect=None) -> Job:
    kind = shape.kind()
    return Job(
        id=jid,
        command=command,
        config=cfg,
        args=list(args),
        kind=kind,
        dist_kind=dist_kind(kind),
        series_parallel=shape.series_parallel(),
        work=float(work or 0),
        expect=expect or {},
    )


# --------------------------------------------------------------------------
# the anchors from the paper


EX45 = Shape(5, [(1, 2)]), [2, 3, 4, 2, 2]
EX69 = Shape(5, [(1, 4), (2, 4), (3, 5)]), [3, 2, 1, 1, 1], [[0, 0, 0, 0, 0, 0, 1, 1]]
EX73 = (
    Shape(5, [(i, top) for i in (1, 2, 3) for top in (4, 5)]),
    [2] * 5,
    [[0, 0, 0, 0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 0, 0, 0, 1, 0, 1]],
)


# --------------------------------------------------------------------------
# Batches are laid out in cost tiers.  The median and the 90th percentile
# of job latency each fall inside a plateau of jobs that cost the same, so
# a quantile does not jump between jobs of different cost when the seed
# changes.


# tables: CLI distribution / ball (all radii), method auto


def tables_batch(rng: random.Random) -> list:
    specs = []  # (shape, q, ks, weight, work)
    # (q, weight family, top weight) for the general and level-subset sums
    GENERAL = [(5, "lee", 2), (7, "lee", 3), (7, "custom", 3), (11, "custom", 3)]

    def random_poset(n_range, density_range, need, work_of, src=rng):
        # need: the kind the poset must have ("other" or "decomposable"), or None
        def make():
            shape = random_shape(src, src.randint(*n_range), src.uniform(*density_range))
            kind = shape.kind()
            if kind in ("chain", "antichain", "hierarchical") or (need and kind != need):
                return shape, None
            return shape, work_of(shape)

        return make

    def general(i, target, band=1.1):
        # every other slot takes only posets that do not decompose
        q, family, top = GENERAL[i % len(GENERAL)]
        weight, M = weight_spec(rng, q, family, top)
        make = random_poset((6, 12), (0.1, 0.45), "other" if i % 2 == 0 else None,
                            lambda shape: general_work(shape, M))
        shape, work = sample(rng, make, target / band, target * band)
        specs.append((shape, q, mixed_ks(rng, shape.n), weight, work))

    def plateau(name, count, q, family, top, target, need):
        # one instance drawn from a fixed stream, then `count` seeded
        # relabelings of it: isomorphic copies do the same work, so the
        # quantile that falls in the plateau does not move with the seed
        fixed = random.Random(f"tables:{name}")
        weight, M = weight_spec(fixed, q, family, top)
        make = random_poset((6, 12), (0.1, 0.45), need,
                            lambda shape: general_work(shape, M), src=fixed)
        shape, work = sample(fixed, make, target / 1.1, target * 1.1)
        ks = mixed_ks(fixed, shape.n)
        for _ in range(count):
            copy, copy_ks = relabel(rng, shape, ks)
            specs.append((copy, q, copy_ks, weight, work))

    def equal(i, target, band=1.3):
        q = TABLE_QS[i % len(TABLE_QS)]
        weight, M = weight_spec(rng, q, ("lee", "hamming", "custom")[i % 3], 4)
        make = random_poset((5, 12), (0.1, 0.5), "other" if i % 2 == 0 else None,
                            lambda shape: equal_work(shape, M))
        shape, work = sample(rng, make, target / band, target * band, tries=150)
        specs.append((shape, q, [rng.randint(1, 3)] * shape.n, weight, work))

    def levels(i, target, band=1.15):
        q, family, top = GENERAL[i % len(GENERAL)]
        weight, M = weight_spec(rng, q, family, top)

        def make():
            if i % 2 == 0:
                shape = Shape(rng.randint(3, 9), [])
            else:
                sizes = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
                if max(sizes) == 1:
                    sizes[0] = 2
                shape = level_shape(rng, sizes)
            return shape, hierarchical_work(shape, M)

        shape, work = sample(rng, make, target / band, target * band)
        specs.append((shape, q, mixed_ks(rng, shape.n), weight, work))

    def union(i, target, band=1.15):
        q, family, top = GENERAL[i % len(GENERAL)]
        weight, M = weight_spec(rng, q, family, top)

        def make():
            parts = []
            for _ in range(rng.randint(2, 3)):
                m = rng.randint(2, 5)
                parts.append(
                    chain_shape(rng, m) if rng.random() < 0.3
                    else random_shape(rng, m, rng.uniform(0.2, 0.7))
                )
            shape = union_shape(rng, parts)
            if shape.kind() != "decomposable":
                return shape, None
            return shape, general_work(shape, M)

        shape, work = sample(rng, make, target / band, target * band)
        specs.append((shape, q, mixed_ks(rng, shape.n), weight, work))

    def many_ideals(i, target, band=1.15):
        # target ideals; the Hamming weight keeps each ideal's sum cheap
        q = (13, 17, 31)[i % 3]
        make = random_poset((11, 14), (0.05, 0.3), None,
                            lambda shape: shape.ideal_groups() and sum(shape.ideal_groups().values()))
        shape, ideals = sample(rng, make, target / band, target * band)
        specs.append((shape, q, mixed_ks(rng, shape.n), "hamming", ideals * 18))

    # cheap tier (38 jobs + the two q = 7 anchors): chains, M_w = 1, small grouped sums
    for i in range(14):
        q = TABLE_QS[i % len(TABLE_QS)]
        weight, M = weight_spec(rng, q, ("lee", "hamming", "custom")[i % 3], 4)
        shape = chain_shape(rng, rng.randint(4, 20))
        specs.append((shape, q, mixed_ks(rng, shape.n), weight, shape.n * M))
    for i in range(12):
        q = (13, 17, 31)[i % 3]
        make = random_poset((8, 13), (0.1, 0.4), "other" if i % 2 == 0 else None,
                            lambda shape: general_work(shape, 1))
        shape, work = sample(rng, make, 100, 600)
        specs.append((shape, q, mixed_ks(rng, shape.n), "hamming", work))
    for i in range(12):
        equal(i, 3e2 * (1 + i % 3))
    # median plateau (30 jobs): a poset that does not decompose, general
    # sum at 1.5*10^3 units
    first = len(specs)
    plateau("p50", 30, 7, "custom", 3, 1.5e3, "other")
    plateaus = set(range(first, len(specs)))
    # middle tier (24 jobs): the general, level-subset and disjoint-union
    # sums from 3.5*10^3 to 10^4 units, and random posets with seven
    # hundred to two thousand ideals
    for i, target in enumerate(geometric(3.5e3, 1e4, 18)):
        [general, levels, union][i % 3](i // 3, target)
    for i, ideals in enumerate(geometric(700, 2000, 6)):
        many_ideals(i, ideals)
    # 90th-percentile plateau (25 jobs, the quantile near its middle): a
    # poset that decomposes, general sum at 1.5*10^4 units
    first = len(specs)
    plateau("p90", 25, 7, "lee", 3, 1.5e4, "decomposable")
    plateaus |= set(range(first, len(specs)))

    # ball costs more than distribution on the same instance, so each
    # plateau holds one command only, and its jobs cost alike
    jobs = []
    for idx, (shape, q, ks, weight, work) in enumerate(specs):
        command = "distribution" if idx in plateaus else ("distribution", "ball")[idx % 2]
        jobs.append(make_job(f"t{idx:03d}", command, config(q, shape, ks, weight), shape, work))
    rng.shuffle(jobs)
    shape, ks = EX45
    ex45 = {"A": {"3": 35384, "14": 22829377536}}
    jobs.append(make_job("ex45-q7-dist", "distribution", config(7, shape, ks, "lee"),
                         shape, general_work(shape, 3), expect=ex45))
    jobs.append(make_job("ex45-q7-ball", "ball", config(7, shape, ks, "lee"),
                         shape, general_work(shape, 3)))
    jobs.append(make_job("ex45-q31-dist", "distribution", config(31, shape, ks, "lee"),
                         shape, general_work(shape, 15)))
    return jobs


# --------------------------------------------------------------------------
# oracle: CLI oracle-compare on spaces of 10^5 .. 10^7 vectors


ORACLE_QS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)
SPACE_CAP = 10**7  # the oracle's default cap
CHUNK = 2**18  # the oracle sweeps the space in chunks of this many vectors


def space_shapes(target: float, band: float):
    """(q, N, n) whose sweep costs within band of target (else the closest).

    The sweep costs about q^N * (n + 4) / 8 of the steps it takes per vector
    on four blocks, so targets read as "vectors on four blocks".  Targets
    below one chunk get spaces that fit in one chunk, which one thread sweeps.
    """
    top = CHUNK if target < CHUNK else SPACE_CAP
    shapes = [
        (q, N, n)
        for q in ORACLE_QS
        for n in range(3, 7)
        for N in range(n, 4 * n + 1)
        if 10**5 <= q**N <= top
    ]

    def cost(s):
        return s[0] ** s[1] * (s[2] + 4) / 8

    fit = [s for s in shapes if target / band <= cost(s) <= target * band]
    return fit or [min(shapes, key=lambda s: abs(math.log(cost(s) / target)))]


def split_blocks(rng: random.Random, N: int, n_range=(3, 6), k_max=4) -> list:
    lo = max(n_range[0], -(-N // k_max))
    n = rng.randint(lo, max(lo, min(n_range[1], N)))
    ks = [1] * n
    for _ in range(N - n):
        i = rng.choice([i for i in range(n) if ks[i] < k_max])
        ks[i] += 1
    return ks


def oracle_instance(rng: random.Random, target: float, slot: int) -> tuple:
    """(q, shape, ks, weight) of one oracle-compare job near target."""
    q, N, n = rng.choice(space_shapes(target, 1.08))
    ks = split_blocks(rng, N, (n, n))
    family = "lee" if q <= 9 and slot % 3 != 1 else ("hamming", "custom")[slot % 2]
    weight, M = weight_spec(rng, q, family, 3)
    # oracle-compare always runs the general sum; keep it a small share
    limit = max(200.0, q**N / 2000)

    def make():
        shape = random_shape(rng, len(ks), rng.uniform(0.0, 0.6))
        return shape, general_work(shape, M)

    shape, _ = sample(rng, make, 1, limit)
    return q, shape, ks, weight


def oracle_batch(rng: random.Random) -> list:
    # A sweep's cost hinges on q^N, the block split and the weight table,
    # which the work model only roughly captures, and on the labeling too:
    # the block order sets how sorted the sweep's profile keys come out,
    # and relabelings of one instance differ by up to 30 % in sweep time.
    # So every instance comes from a fixed stream, and the seed relabels
    # only the small spaces, which all lie below the median.  The median
    # and 90th-percentile plateaus are one instance each, repeated.
    tiers = [  # (count, target, name of a plateau)
        (40, (1e5, 1.3e5), None),  # small spaces, relabeled by the seed
        (30, 1.5e5, "p50"),  # median plateau, one 2^18-vector chunk
        (15, (1.7e5, 2.1e5), None),
        (12, 2.3e5, "p90"),  # 90th-percentile plateau
        (3, (1e6, 1e7), None),  # up to the default cap
    ]
    instances = []
    for tier, (count, target, name) in enumerate(tiers):
        if name:
            fixed = oracle_instance(random.Random(f"oracle:{name}"), target, len(instances))
            instances += [fixed] * count
            continue
        for t in geometric(*target, count):
            slot = len(instances)
            q, shape, ks, weight = oracle_instance(random.Random(f"oracle:{slot}"), t, slot)
            if tier == 0:
                shape, ks = relabel(rng, shape, ks)
            instances.append((q, shape, ks, weight))
    jobs = []
    for idx, (q, shape, ks, weight) in enumerate(instances):
        jobs.append(make_job(
            f"o{idx:03d}", "oracle-compare", config(q, shape, ks, weight), shape,
            q ** sum(ks), args=["--threads", str(THREADS)],
        ))
    random.Random("oracle:order").shuffle(jobs)
    return jobs


# --------------------------------------------------------------------------
# codes: check-code, r-perfect / r-error-correcting sweeps, duality, transversal


CODE_QS = (2, 3, 5, 7, 11, 13)


def rank_mod(rows, q: int) -> int:
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % q), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = pow(rows[rank][col], -1, q)
            rows[rank] = [v * inv % q for v in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][col] % q:
                    f = rows[r][col]
                    rows[r] = [(a - f * b) % q for a, b in zip(rows[r], rows[rank])]
            rank += 1
        col += 1
    return rank


def random_generator(rng: random.Random, q: int, k: int, N: int) -> list:
    while True:
        rows = [[rng.randrange(q) for _ in range(N)] for _ in range(k)]
        if rank_mod(rows, q) == k:
            return rows


def code_shapes(target: float, band: float):
    """(q, N, k) whose radius sweep costs within band of target.

    A sweep on four blocks first weighs all q^N vectors, then visits them
    once per codeword, so its cost is close to q^N * (|C| + 1) steps.
    """
    out = [
        (q, N, k)
        for q in CODE_QS
        for k in (1, 2, 3)
        for N in range(4, 17)
        if q**k <= 50 and 3e4 <= q**N <= 1.2e6
        and target / band <= q**N * (q**k + 1) <= target * band
    ]
    if not out:
        raise ValueError(f"no code shape within {band} of {target} visits")
    return out


def codes_batch(rng: random.Random) -> list:
    jobs = []
    # small codes on four blocks: one check-code and four radius sweeps
    # each; the sweeps of the first eight codes form the median plateau,
    # those of the other eight the 90th-percentile one.  Each code, with
    # its radii, comes from a fixed stream and the seed relabels it, as in
    # the tables workload, so the plateaus cost the same for every seed.
    for c in range(16):
        fixed = random.Random(f"codes:{c}")
        q, N, k = fixed.choice(code_shapes(5.9e5 if c < 8 else 9.4e5, 1.05))
        ks = split_blocks(fixed, N, (4, 4), 4)
        weight, M = weight_spec(fixed, q, "lee" if q > 3 else "custom", 2)
        shape = random_shape(fixed, len(ks), fixed.uniform(0.1, 0.6))
        rows = random_generator(fixed, q, k, N)
        top = len(ks) * M
        radii = [
            fixed.randint(1, max(1, top // 2)) if r_i % 2 == 0 else fixed.randint(1, top)
            for r_i in range(4)
        ]
        shape, ks, rows = relabel(rng, shape, ks, rows)
        cfg = config(q, shape, ks, weight)
        cfg["code"] = {"generator": rows}
        jobs.append(make_job(f"c{c:02d}-check", "check-code", cfg, shape, 0))
        for r_i, command in enumerate(
            ("is_r_perfect", "is_r_perfect", "is_r_error_correcting", "is_r_error_correcting")
        ):
            radius = radii[r_i]
            jobs.append(make_job(f"c{c:02d}-{command}-{r_i}", command, cfg, shape,
                                 q**N * (q**k + 1), args=[radius]))
    # chain-MDS codes: the four-way duality check must hold
    for d in range(10):
        while True:
            q = rng.choice((2, 3, 5, 7))
            n, s = rng.randint(2, 6), rng.choice((1, 2))
            dim = s * rng.randint(1, n - 1)
            if 20 <= q**dim + q ** (n * s - dim) <= 300:
                break
        shape = chain_shape(rng, n)
        # the code spans the unit vectors of the top dim/s blocks of the chain
        order = sorted(range(n), key=lambda e: bin(shape.down[e]).count("1"))
        rows = [
            [1 if col == pos else 0 for col in range(n * s)]
            for b in sorted(order[n - dim // s :])
            for pos in range(b * s, (b + 1) * s)
        ]
        weight, _ = weight_spec(rng, q, ("lee", "hamming")[d % 2], 2)
        cfg = config(q, shape, [s] * n, weight)
        cfg["code"] = {"generator": rows}
        jobs.append(make_job(f"d{d:02d}-duality", "verify_duality", cfg, shape,
                             q**dim + q ** (n * s - dim), expect={"verdict": True}))
    # transversal construction: the code it builds must be I-perfect
    for t in range(10):
        while True:
            q = rng.choice(CODE_QS)
            shape = random_shape(rng, rng.randint(3, 7), rng.uniform(0.1, 0.6))
            ks = [rng.randint(1, 3) for _ in range(shape.n)]
            mask = 0
            for e in rng.sample(range(shape.n), rng.randint(1, shape.n - 1)):
                mask |= shape.down[e]
            members = [i + 1 for i in range(shape.n) if (mask >> i) & 1]
            size = q ** sum(ks[i] for i in range(shape.n) if not (mask >> i) & 1)
            if len(members) < shape.n and 10 <= size <= 500:
                break
        cfg = config(q, shape, ks, "lee")
        cfg["ideal"] = members
        jobs.append(make_job(f"x{t:02d}-transversal", "transversal", cfg, shape, size,
                             expect={"verdict": True}))
    rng.shuffle(jobs)
    # anchors: Examples 6.9 and 7.3 of the paper
    for name, (shape, ks, gen) in (("ex69", EX69), ("ex73", EX73)):
        cfg = config(7, shape, ks, "lee")
        cfg["code"] = {"generator": gen}
        jobs.append(make_job(f"{name}-check", "check-code", cfg, shape, 0,
                             expect={"d_pwpi": 11, "d_ppi": 5}))
    shape, ks, gen = EX69
    cfg = config(7, shape, ks, "lee")
    cfg["code"] = {"generator": gen}
    jobs.append(make_job("ex69-r12-perfect", "is_r_perfect", cfg, shape, 7**8 * 7,
                         args=[12], expect={"verdict": False}))
    shape, ks, gen = EX73
    cfg = config(7, shape, ks, "lee")
    cfg["code"] = {"generator": gen}
    jobs.append(make_job("ex73-r5-perfect", "is_r_perfect", cfg, shape, 0, args=[5]))
    jobs.append(make_job("ex73-r5-correcting", "is_r_error_correcting", cfg, shape, 0,
                         args=[5]))
    return jobs


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tables":
        return tables_batch(rng)
    if workload == "oracle":
        return oracle_batch(rng)
    if workload == "codes":
        return codes_batch(rng)
    raise ValueError(f"unknown workload {workload!r}")


def manifest(workload: str, seed: int, jobs: list) -> dict:
    """What the batch holds: the properties later optimisations rely on."""
    count = len(jobs)

    def share(pred) -> float:
        return round(sum(1 for j in jobs if pred(j)) / count, 4)

    def span(values) -> list:
        values = list(values)
        return [min(values), max(values)] if values else []

    coded = [j for j in jobs if "code" in j.config]
    return {
        "workload": workload,
        "seed": seed,
        "jobs": count,
        "threads": THREADS,
        "commands": dict(sorted(Counter(j.command for j in jobs).items())),
        "poset_kind_share": {
            k: share(lambda j, k=k: j.kind == k)
            for k in ("chain", "antichain", "hierarchical", "decomposable", "other")
        },
        "series_parallel_share": share(lambda j: j.series_parallel),
        "mixed_k_share": share(lambda j: len(set(j.config["pi"])) > 1),
        "equal_k_share": share(lambda j: len(set(j.config["pi"])) == 1),
        "q_values": sorted({j.config["q"] for j in jobs}),
        "M_w_range": span(weight_bounds(j.config)[1] for j in jobs),
        "qN_range": span(j.config["q"] ** sum(j.config["pi"]) for j in jobs),
        "code_size_range": span(
            j.config["q"] ** len(j.config["code"]["generator"]) for j in coded
        ),
    }
