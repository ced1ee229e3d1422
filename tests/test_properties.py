"""Differential property test: every counting method against the brute oracle.

Hypothesis draws q, a poset (a random one with n <= 5 or a hierarchical one
with several levels, relabeled), block lengths k_i <= 3 with q^N <= 10^5,
and a Lee, Hamming or custom weight, asymmetric tables included.  Every
applicable method, and auto, must reproduce the oracle's table exactly.
"""

from __future__ import annotations

import warnings
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

import posetblock as pb

MAX_SPACE = 10**5


def _relabel(n, pairs, perm):
    return pb.build_poset(n, [(perm[a - 1], perm[b - 1]) for a, b in pairs])


@st.composite
def random_posets(draw, n_max):
    n = draw(st.integers(2, min(5, n_max)))
    pairs = [p for p in combinations(range(1, n + 1), 2) if draw(st.booleans())]
    return _relabel(n, pairs, draw(st.permutations(range(1, n + 1))))


@st.composite
def hierarchical_posets(draw, n_max):
    levels, start = [], 1
    for _ in range(draw(st.integers(2, 4))):
        room = min(3, n_max - start + 1)
        if room < 1:
            break
        size = draw(st.integers(1, room))
        levels.append(range(start, start + size))
        start += size
    n = start - 1
    pairs = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return _relabel(n, pairs, draw(st.permutations(range(1, n + 1))))


@st.composite
def instances(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n_max = min(8, max(n for n in range(1, 18) if q**n <= MAX_SPACE))
    P = draw(st.one_of(random_posets(n_max), hierarchical_posets(n_max)))
    ks, N = [], 0
    for left in range(P.n - 1, -1, -1):
        # leave at least one symbol for each block still to come
        k_max = max(k for k in (1, 2, 3) if k == 1 or q ** (N + k + left) <= MAX_SPACE)
        ks.append(draw(st.integers(1, k_max)))
        N += ks[-1]
    kind = draw(st.sampled_from(["lee", "hamming", "custom"]))
    if kind == "lee":
        W = pb.lee_weight(q)
    elif kind == "hamming":
        W = pb.hamming_weight(q)
    else:
        table = [0] + draw(st.lists(st.integers(1, 4), min_size=q - 1, max_size=q - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pb.WeightWarning)
            W = pb.custom_weight(q, table)
    return P, pb.label_map(ks), W


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(instances())
def test_every_method_equals_oracle(instance):
    P, pi, W = instance
    assert W.q**pi.N <= MAX_SPACE
    oracle = pb.oracle_distribution(P, pi, W).to_table().counts
    assert sum(oracle) == W.q**pi.N
    for method in pb.applicable_methods(P, pi) + ["auto"]:
        table = pb.distribution(P, pi, W, method=method)
        assert table.counts == oracle, method
        assert table.check_normalization()
