"""Differential property tests: every counting method against the brute
oracle, and the oracle's perfectness verdicts against a pure-Python sweep.

Hypothesis draws q, a poset (a random one with n <= 5 or a hierarchical one
with several levels, relabeled), block lengths k_i <= 3 with q^N <= 10^5,
and a Lee, Hamming or custom weight, asymmetric tables included.  Every
applicable method, and auto, must reproduce the oracle's table exactly.

For the series-parallel decomposition it draws nested disjoint unions and
ordinal sums of pieces, one of them an N or a fence, which do not
decompose, so the union, the sum and the ideal-enumeration branches all
run.  General must equal the oracle where q^N <= 10^5, and on larger
instances (n <= 12, q <= 31) the ideal sum over the whole ground set.

For perfectness it draws a small space (q^N <= 3^6), a linear code of
dimension 1 up to N, and a weight as above; for that code and for the zero
code, both branches of oracle_perfectness, at every radius and for every
ideal, must equal the multiplicities found by testing every vector against
every codeword, is_I_perfect must match the I-ball verdict, disjoint
r-balls with M_w | r must leave every B_{I u J}(0) with |I| = |J| = r/M_w
free of nonzero codewords, and min_distance, under the weight and under
Hamming, must equal the least pwpi_weight over the nonzero codewords.
"""

from __future__ import annotations

import warnings
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetblock as pb
from conftest import N_POSET, disjoint_union, fence, ordinal_sum
from posetblock.distribution import _ideal_sum

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
def composite_posets(draw, n_max):
    """Nested disjoint unions and ordinal sums of 2-4 pieces, relabeled.

    The first piece is an N or a fence with 4-6 elements; the others are
    single elements, chains, antichains or random posets.
    """
    first = draw(st.integers(4, min(6, n_max - 1)))
    parts = [N_POSET if first == 4 and draw(st.booleans()) else fence(first)]
    left = n_max - first
    for _ in range(draw(st.integers(1, 3))):
        if left == 0:
            break
        m = draw(st.integers(1, min(4, left)))
        shape = draw(st.sampled_from(["chain", "antichain", "random"]))
        if shape == "chain":
            rel = [(i, i + 1) for i in range(1, m)]
        elif shape == "antichain":
            rel = []
        else:
            rel = [p for p in combinations(range(1, m + 1), 2) if draw(st.booleans())]
        parts.append((m, rel))
        left -= m
    parts = draw(st.permutations(parts))
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        join = draw(st.sampled_from([disjoint_union, ordinal_sum]))
        parts[i : i + 2] = [join(parts[i], parts[i + 1])]
    n, pairs = parts[0]
    return _relabel(n, pairs, draw(st.permutations(range(1, n + 1))))


def _block_lengths(draw, n, q, space):
    ks, N = [], 0
    for left in range(n - 1, -1, -1):
        # leave at least one symbol for each block still to come
        k_max = max(k for k in (1, 2, 3) if k == 1 or q ** (N + k + left) <= space)
        ks.append(draw(st.integers(1, k_max)))
        N += ks[-1]
    return pb.label_map(ks)


def _weight(draw, q):
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
    return W


@st.composite
def instances(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n_max = min(8, max(n for n in range(1, 18) if q**n <= MAX_SPACE))
    P = draw(st.one_of(random_posets(n_max), hierarchical_posets(n_max)))
    return P, _block_lengths(draw, P.n, q, MAX_SPACE), _weight(draw, q)


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


@st.composite
def small_composites(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n_max = max(n for n in range(1, 18) if q**n <= MAX_SPACE)
    P = draw(composite_posets(n_max))
    return P, _block_lengths(draw, P.n, q, MAX_SPACE), _weight(draw, q)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(small_composites())
def test_decomposition_equals_oracle(instance):
    P, pi, W = instance
    oracle = pb.oracle_distribution(P, pi, W).to_table().counts
    assert pb.distribution_general(P, pi, W).counts == oracle


@st.composite
def large_composites(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 31]))
    P = draw(composite_posets(draw(st.integers(5, 12))))
    pi = pb.label_map(draw(st.lists(st.integers(1, 3), min_size=P.n, max_size=P.n)))
    return P, pi, _weight(draw, q)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(large_composites())
def test_decomposition_equals_flat_ideal_sum(instance):
    P, pi, W = instance
    flat = _ideal_sum(P, pi, W, (1 << P.n) - 1, pb.poset.IDEAL_CAP_DEFAULT)
    table = pb.distribution_general(P, pi, W)
    assert table.counts == tuple(flat)
    assert table.check_normalization()
    best = [0] * (P.n + 1)
    for I in pb.enumerate_ideals(P).ideals:
        best[I.card] = max(best[I.card], sum(pi.k[i - 1] for i in I.members))
    assert pb.codes._max_ideal_k_sums(P, pi) == best


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(random_posets(5))
def test_verify_duality_needs_a_unique_ideal(P):
    # unit blocks: the transversal code on an ideal of size t has k = n - t,
    # so verify_duality asks for the ideal of cardinality t
    pi = pb.label_map([1] * P.n)
    family = pb.enumerate_ideals(P)
    for t in range(P.n + 1):
        C = pb.construct_I_perfect(P, pi, family.of_card(t)[0], 2)
        if len(family.of_card(t)) == 1:
            assert pb.verify_duality(C, P, pi, pb.hamming_weight(2))
        else:
            with pytest.raises(pb.HypothesisError):
                pb.verify_duality(C, P, pi, pb.hamming_weight(2))


PERFECTNESS_PAIRS = 3**7  # vectors x codewords the brute force visits


@st.composite
def code_instances(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    # leave room for a code of dimension >= 1: q^(N+1) <= pairs
    space = min(3**6, PERFECTNESS_PAIRS // q)
    n = draw(st.sampled_from([n for n in (4, 3, 2, 1) if q**n <= space]))
    pairs = [p for p in combinations(range(1, n + 1), 2) if draw(st.booleans())]
    P = _relabel(n, pairs, draw(st.permutations(range(1, n + 1))))
    ks, N = [], 0
    for left in range(n - 1, -1, -1):
        k_max = max(k for k in (1, 2, 3) if k == 1 or q ** (N + k + left) <= space)
        ks.append(draw(st.integers(1, k_max)))
        N += ks[-1]
    k_max = max(k for k in range(N + 1) if q ** (N + k) <= PERFECTNESS_PAIRS)
    k = draw(st.integers(1, k_max))
    # row r has a 1 in pivot column pivots[r] and 0 in the other pivot columns,
    # so the rows are independent and C has dimension k
    pivots = sorted(draw(st.permutations(range(N)))[:k])
    rows = [
        [int(c == p) if c in pivots else draw(st.integers(0, q - 1)) for c in range(N)]
        for p in pivots
    ]
    C = pb.linear_code(q, rows, n_cols=N)
    # custom tables need not be symmetric: w(a) != w(-a) is allowed
    table = [0] + draw(st.lists(st.integers(1, 4), min_size=q - 1, max_size=q - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        W = draw(st.sampled_from([pb.lee_weight(q), pb.hamming_weight(q), pb.custom_weight(q, table)]))
    return P, pb.label_map(ks), W, C


def _verdict(counts):
    return pb.PerfectnessResult(
        disjoint=max(counts) <= 1,
        covering=min(counts) >= 1,
        max_multiplicity=max(counts),
        min_multiplicity=min(counts),
    )


def _check_perfectness(P, pi, W, C):
    q = W.q
    vectors = list(product(range(q), repeat=pi.N))
    words = pb.codewords(C)
    assert len(vectors) * len(words) <= PERFECTNESS_PAIRS
    # v lies in B_r(c) iff d(v, c) <= r: one distance per vector and codeword
    dist = [[pb.pwpi_distance(P, pi, W, v, c) for c in words] for v in vectors]
    family = pb.enumerate_ideals(P)
    for r in range(pi.n * W.M_w + 1):
        expected = _verdict([sum(d <= r for d in row) for row in dist])
        assert pb.oracle_perfectness(C, P, pi, W, radius=r) == expected, (C.k, r)
        if expected.disjoint and r % W.M_w == 0:
            # u in B_I(0), v in B_J(0) weigh at most r, so a nonzero codeword
            # u - v would put u in two balls: none lies in B_{I u J}(0)
            tier = family.of_card(r // W.M_w)
            for I, J in product(tier, repeat=2):
                assert pb.codes._packs(C, pi, I.members_mask | J.members_mask), r
    for I in family.ideals:
        expected = _verdict(
            [sum(pb.i_ball_contains(pi, q, I, c, v) for c in words) for v in vectors]
        )
        assert pb.oracle_perfectness(C, P, pi, W, ideal=I) == expected, (C.k, I.members)
        assert pb.is_I_perfect(C, I, pi) == (expected.disjoint and expected.covering)


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(code_instances())
def test_perfectness_equals_brute_force(instance):
    P, pi, W, C = instance
    _check_perfectness(P, pi, W, C)
    _check_perfectness(P, pi, W, pb.linear_code(W.q, [], n_cols=pi.N))
    # min_distance weighs codeword rows with the oracle's kernel; the
    # reference is pwpi_weight, one nonzero codeword at a time
    nonzero = [c for c in pb.codewords(C) if any(c)]
    for weight in (W, pb.hamming_weight(W.q)):
        expected = min(pb.pwpi_weight(P, pi, weight, c) for c in nonzero)
        assert pb.min_distance(C, P, pi, weight) == expected
