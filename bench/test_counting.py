"""Counting rungs of the bench ladder, timed with pytest-benchmark.

Each rung is one distribution call (method auto, which is general on
these posets).  The fences and the bipartite poset are no disjoint union
and no ordinal sum, so the series-parallel fold has to split its pieces on
a maximal element; they run at q = 7, and the fence16 again at q = 101.
The wide tables at q = 101 (Lee, M_w = 50) are ex45 and the 64-antichain,
whose fold is one union of 64 parts, joined in halves.  The one-element
Lee table at q = 20,011 (M_w = 10,005) times the block class sizes alone:
one per weight class, read from the weight model's prefix sums.  The
listing rungs time one poset.ideals_with_sum call each, the check-code
listing of the ideals of one sum of k: the 20-antichain at sum 10 lists
C(20, 10) = 184,756 ideals, the 24-antichain at sum 23 only 24 of its 2^24.
Run them from the repository root:

    python -m pytest bench/test_counting.py --benchmark-json=out.json

Like bench/test_perfectness.py, every rung calls only the public API, so
-o pythonpath=TREE/src times another tree, and bench/compare.py runs each
rung in its own process on two trees.  Each rung stores the process's peak
RSS (MiB) in its extra_info.
"""

from __future__ import annotations

import random
import resource

import pytest

import posetblock as pb

ROUNDS = 3
LISTING_ROUNDS = 7


def _fence(n: int):
    """The zigzag 1 < 2 > 3 < 4 > ... on n elements: Fibonacci(n) ideals."""
    return pb.build_poset(n, [(i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)])


def _bipartite(n: int, density: float, seed: int):
    """Each of the n/2 bottom elements lies below each top one with the
    given probability, drawn from the seed."""
    rng = random.Random(seed)
    half = n // 2
    pairs = [
        (a, b)
        for a in range(1, half + 1)
        for b in range(half + 1, n + 1)
        if rng.random() < density
    ]
    return pb.build_poset(n, pairs)


# rung: (poset, block lengths or None for k_i = 1 + i mod 3, q), Lee weight
RUNGS = {
    "fence16": (lambda: _fence(16), None, 7),
    "fence20": (lambda: _fence(20), None, 7),
    "fence24": (lambda: _fence(24), None, 7),
    # 317,184 ideals
    "bipartite24": (lambda: _bipartite(24, 0.15, 1), None, 7),
    "ex45_q101": (lambda: pb.build_poset(5, [(1, 2)]), [2, 3, 4, 2, 2], 101),
    "fence16_q101": (lambda: _fence(16), None, 101),
    "antichain64_q101": (lambda: pb.build_poset(64), None, 101),
    "lee_q20011_one_element": (lambda: pb.build_poset(1), [1], 20011),
}


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung(benchmark, rung):
    poset, ks, q = RUNGS[rung]
    P = poset()
    pi = pb.label_map(ks or [1 + i % 3 for i in range(P.n)])
    W = pb.lee_weight(q)
    table = benchmark.pedantic(
        lambda: pb.distribution(P, pi, W),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert table.check_normalization()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)


# listing rung: (poset, k, total), one ideals_with_sum(P, k, total) call
LISTINGS = {
    "antichain20_sum10": (lambda: pb.build_poset(20), [1] * 20, 10),
    "antichain24_sum23": (lambda: pb.build_poset(24), [1] * 24, 23),
    "antichain20_mixed_k_sum20": (lambda: pb.build_poset(20), [1 + i % 3 for i in range(20)], 20),
    "fence16_sum8": (lambda: _fence(16), [1] * 16, 8),
}


@pytest.mark.parametrize("rung", list(LISTINGS))
def test_listing(benchmark, rung):
    poset, k, total = LISTINGS[rung]
    P = poset()
    masks = benchmark.pedantic(
        lambda: pb.poset.ideals_with_sum(P, k, total),
        rounds=LISTING_ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert masks == sorted(set(masks))
    benchmark.extra_info["ideals"] = len(masks)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)
