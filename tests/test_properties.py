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
instances (n <= 12, q <= 101, blocks of up to 8 symbols, so N reaches 40
and more and the packed fold's digits pass 64 bits) the ideal sum over
the whole ground set.

For perfectness it draws a small space (q^N <= 3^6), a linear code of
dimension 1 up to N, and a weight as above; for that code and for the zero
code, both branches of oracle_perfectness, at every radius and for every
ideal, must equal the multiplicities found by testing every vector against
every codeword.  The coset counter must receive each ball vector exactly
once, in chunks no longer than the oracle's; the oracle's |B_r| must equal
ball_volume and settle oversized balls by pigeonhole alone.  is_I_perfect
must match the I-ball verdict, disjoint r-balls with M_w | r must leave
every B_{I u J}(0) with |I| = |J| = r/M_w free of nonzero codewords, and
min_distance, under the weight and under Hamming, must equal the least
pwpi_weight over the nonzero codewords.

For the equal-block MDS hypothesis it draws a chain or a random poset,
blocks of s symbols and a random or transversal code.  Where the hypothesis
holds, verify_duality must agree and sweep the codewords once per MDS leg,
and its MDS leg must equal singleton_report's; each input that breaks one
part of it (the chain, equal blocks, s | k, the unique ideal, MDS) must
raise the same error type from every entry point that reads it.

The sweep kernel must weigh every index range like pwpi_weight, and
oracle_distribution, with a chunk that splits the space into several
ranges whose boundaries fall inside a leading index, must give the
histogram of pwpi_weight over every vector, on one thread and on two,
with the profile table and without it.  So must it with an odd q and an
odd chunk, whose ranges start at odd offsets into their keys, with at most
256 profiles (byte keys, counted in pairs) and with more.

table_to_json must write the bytes of json.dumps(..., indent=2) for every
drawn table, with its counts and with its running sums as ball volumes.
"""

from __future__ import annotations

import json
import warnings
from itertools import accumulate, combinations, product
from math import prod
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import posetblock as pb
from conftest import N_POSET, disjoint_union, fence, ordinal_sum
from posetblock.poset import ideals_with_sum

MAX_SPACE = 10**5
KERNEL_SPACE = 3**7
ODD_SPACE = 5**5
KERNEL_RANGE = 150  # the most vectors a kernel range test weighs one by one


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
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 31, 101]))
    P = draw(composite_posets(draw(st.integers(5, 12))))
    pi = pb.label_map(draw(st.lists(st.integers(1, 8), min_size=P.n, max_size=P.n)))
    return P, pi, _weight(draw, q)


def _ideal_sums(P, pi, W):
    """The paper's sum over every ideal of enumerate_ideals: F(P) as a
    coefficient list, and best[c], the largest sum of k over the ideals of
    cardinality c.  The product of the D_{k_i} over Max I is a coefficient
    list, formed once per multiset of block lengths."""
    D = {k: [pb.block_class_size(W, b, k) for b in range(W.M_w + 1)] for k in set(pi.k)}
    products = {(): [1]}

    def product_of(ks):
        if ks not in products:
            rest, d = product_of(ks[1:]), D[ks[0]]
            out = [0] * (len(rest) + W.M_w)
            for e, coeff in enumerate(rest):
                for b in range(1, W.M_w + 1):
                    out[e + b] += coeff * d[b]
            products[ks] = out
        return products[ks]

    F = [0] * (P.n * W.M_w + 1)
    best = [0] * (P.n + 1)
    for I in pb.enumerate_ideals(P).ideals:
        below = [pi.k[i] for i in range(P.n) if (I.members_mask & ~I.max_mask) >> i & 1]
        top = tuple(sorted(pi.k[i] for i in range(P.n) if I.max_mask >> i & 1))
        scale = W.q ** sum(below)
        for e, coeff in enumerate(product_of(top), len(below) * W.M_w):
            F[e] += scale * coeff
        weight = sum(pi.k[i] for i in range(P.n) if I.members_mask >> i & 1)
        best[I.card] = max(best[I.card], weight)
    return F, best


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(large_composites())
def test_decomposition_equals_flat_ideal_sum(instance):
    P, pi, W = instance
    F, best = _ideal_sums(P, pi, W)
    table = pb.distribution_general(P, pi, W)
    assert table.counts == tuple(F)
    assert table.check_normalization()
    assert pb.codes._max_ideal_k_sums(P, pi) == best


@st.composite
def sparse_posets(draw):
    """Random posets with n <= 12 from n - 1 to 2n drawn relations: fences,
    crowns and bipartite shapes that split on a maximal element."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 12))
    pairs = list(combinations(range(1, n + 1), 2))
    pairs = draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=2 * n)) if pairs else []
    P = _relabel(n, pairs, draw(st.permutations(range(1, n + 1))))
    if q**n <= MAX_SPACE:
        pi = _block_lengths(draw, n, q, MAX_SPACE)
    else:
        pi = pb.label_map(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    return P, pi, _weight(draw, q)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sparse_posets())
def test_split_equals_the_ideal_sum_and_the_oracle(instance):
    P, pi, W = instance
    F, best = _ideal_sums(P, pi, W)
    table = pb.distribution_general(P, pi, W)
    assert table.counts == tuple(F)
    if W.q**pi.N <= MAX_SPACE:
        assert pb.oracle_distribution(P, pi, W).to_table().counts == table.counts
    assert pb.codes._max_ideal_k_sums(P, pi) == best
    # the check-code listing: the ideals of each sum of k, ascending
    want = [[] for _ in range(pi.N + 1)]
    for I in pb.enumerate_ideals(P).ideals:
        want[sum(pi.k[i - 1] for i in I.members)].append(I.members_mask)
    assert [ideals_with_sum(P, pi.k, total) for total in range(pi.N + 1)] == want


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


@st.composite
def equal_block_codes(draw):
    """A chain or a random poset, blocks of s symbols (q^N <= 3^8), a Lee,
    Hamming or custom weight, and a code: random rows, or the transversal
    code on a random ideal."""
    q, s = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]))
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        P = pb.build_poset(n, [(i, i + 1) for i in range(1, n)])
    else:
        P = draw(random_posets(n))
    pi = pb.label_map([s] * P.n)
    if draw(st.booleans()):
        ideals = pb.enumerate_ideals(P).ideals
        C = pb.construct_I_perfect(P, pi, draw(st.sampled_from(ideals)), q)
    else:
        rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=pi.N, max_size=pi.N),
                             max_size=pi.N))
        C = pb.linear_code(q, rows, n_cols=pi.N)
    return P, pi, _weight(draw, q), C


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(equal_block_codes())
def test_equal_block_hypothesis_has_one_owner(instance):
    # verify_duality and the MDS-chain forms read one hypothesis: equal
    # blocks, s | k, one ideal of n - k/s elements; the chain entry points
    # test the chain first.  Each input that breaks one part raises the
    # same error type everywhere, and the duality check sweeps the codewords
    # once per MDS leg.
    P, pi, W, C = instance
    q, s, n = C.q, pi.k[0], P.n
    is_chain = pb.classify(P).is_chain
    divides = C.k % s == 0
    unique = divides and len(pb.enumerate_ideals(P).of_card(n - C.k // s)) == 1
    if unique:
        sweeps = pb.codes._codeword_matrix
        with mock.patch.object(pb.codes, "_codeword_matrix", wraps=sweeps) as spy:
            assert pb.verify_duality(C, P, pi, W)
        assert spy.call_count == (C.k > 0) + (C.k < pi.N)
        if C.k:
            mds = pb.singleton_report(C, P, pi, W).is_mds_pwpi
            assert pb.codes._mds_pwpi(C, P, pi, W) == mds
    else:
        text = "unique ideal" if divides else "does not divide"
        with pytest.raises(pb.HypothesisError, match=text):
            pb.verify_duality(C, P, pi, W)
    chain_forms = (pb.mds_chain_distribution, pb.mds_chain_ball_counts)
    if not is_chain:
        fault = (pb.PreconditionError, "not a chain")
    elif not divides:
        fault = (pb.HypothesisError, "does not divide")
    elif C.k and not pb.singleton_report(C, P, pi, W).is_mds_pwpi:
        fault = (pb.PreconditionError, "not MDS")
    else:
        fault = None
        table = pb.mds_chain_distribution(C, P, pi, W)
        assert sum(table) == C.size
        assert pb.mds_chain_ball_counts(C, P, pi, W) == tuple(accumulate(table))
    for form in chain_forms if fault else ():
        with pytest.raises(fault[0], match=fault[1]):
            form(C, P, pi, W)
    if not is_chain:
        with pytest.raises(pb.PreconditionError, match="not a chain"):
            pb.chain_mds_code(P, pi, q, C.k)
    elif not divides:
        with pytest.raises(pb.HypothesisError, match="does not divide"):
            pb.chain_mds_code(P, pi, q, C.k)
    else:
        assert pb.chain_mds_code(P, pi, q, C.k).k == C.k
    # unequal blocks: one more symbol in the last block, a zero column in C;
    # a non-chain is reported first by all three chain entry points
    bad = pb.label_map([s] * (n - 1) + [s + 1])
    Cb = pb.linear_code(q, [list(row) + [0] for row in C.generator], n_cols=pi.N + 1)
    with pytest.raises(pb.HypothesisError, match="not all equal"):
        pb.verify_duality(Cb, P, bad, W)
    if is_chain:
        error, text = pb.HypothesisError, "not all equal"
    else:
        error, text = pb.PreconditionError, "not a chain"
    for form in chain_forms:
        with pytest.raises(error, match=text):
            form(Cb, P, bad, W)
    with pytest.raises(error, match=text):
        pb.chain_mds_code(P, bad, q, C.k)


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


def _coset_counter_input(C, P, pi, W, **ball):
    """The vector indices oracle_perfectness hands its coset counter, sorted,
    checking that no chunk exceeds the oracle's chunk size."""
    received = []
    count = pb.oracle._coset_ball_counts

    def spy(code, chunks, q, N):
        chunks = list(chunks)
        assert all(len(idx) <= pb.oracle._CHUNK for idx in chunks)
        received.extend(i for idx in chunks for i in idx.tolist())
        return count(code, chunks, q, N)

    with mock.patch.object(pb.oracle, "_coset_ball_counts", spy):
        result = pb.oracle_perfectness(C, P, pi, W, **ball)
    return result, sorted(received)


def _check_perfectness(P, pi, W, C):
    q = W.q
    vectors = list(product(range(q), repeat=pi.N))
    words = pb.codewords(C)
    assert len(vectors) * len(words) <= PERFECTNESS_PAIRS
    # v lies in B_r(c) iff d(v, c) <= r: one distance per vector and codeword;
    # words[0] = 0, so row[0] is the weight of v
    dist = [[pb.pwpi_distance(P, pi, W, v, c) for c in words] for v in vectors]
    family = pb.enumerate_ideals(P)
    table = pb.distribution(P, pi, W)
    for r in range(pi.n * W.M_w + 1):
        expected = _verdict([sum(d <= r for d in row) for row in dist])
        ball = [v for v, row in enumerate(dist) if row[0] <= r]
        size, result = pb.oracle._r_ball_perfectness(C, P, pi, W, r)
        assert size == pb.ball_volume(table, r) == len(ball)
        assert result == (None if C.size * size > q**pi.N else expected)
        assert pb.is_r_perfect(C, r, P, pi, W) == (expected.disjoint and expected.covering)
        assert pb.is_r_error_correcting(C, r, P, pi, W) == expected.disjoint
        # the counter sees each ball vector once, whichever way it was found
        assert _coset_counter_input(C, P, pi, W, radius=r) == (expected, ball), (C.k, r)
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
        zero = words[0]
        ball = [v for v, x in enumerate(vectors) if pb.i_ball_contains(pi, q, I, zero, x)]
        assert _coset_counter_input(C, P, pi, W, ideal=I) == (expected, ball), (
            C.k,
            I.members,
        )
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


def _vector(index, q, N):
    """The vector at an index in odometer order (last coordinate fastest)."""
    return [index // q ** (N - 1 - c) % q for c in range(N)]


def _pwpi_histogram(P, pi, W):
    """The weight histogram of the whole space, one pwpi_weight per vector."""
    hist = dict.fromkeys(range(pi.n * W.M_w + 1), 0)
    for v in range(W.q**pi.N):
        hist[pb.pwpi_weight(P, pi, W, _vector(v, W.q, pi.N))] += 1
    return hist


@st.composite
def kernel_cases(draw):
    """(P, pi, W, start, chunk, ranges): a space of at most 3^7 vectors, a
    chunk that holds exactly the blocks from start on, and index ranges,
    the first straddling a leading-index boundary where there is one."""
    q = draw(st.sampled_from([2, 3, 5]))
    P = draw(st.one_of(random_posets(5), hierarchical_posets(5)))
    pi = _block_lengths(draw, P.n, q, KERNEL_SPACE)
    W = _weight(draw, q)
    start = draw(st.integers(0, P.n))
    span = prod(q**k for k in pi.k[start:])
    total = q**pi.N
    ranges = []
    if span < total:
        boundary = span * draw(st.integers(1, total // span - 1))
        reach = min(span, KERNEL_RANGE // 2)
        ranges.append(
            (boundary - draw(st.integers(1, reach)), boundary + draw(st.integers(1, reach)))
        )
    for _ in range(2):
        lo = draw(st.integers(0, total - 1))
        ranges.append((lo, draw(st.integers(lo + 1, min(total, lo + KERNEL_RANGE)))))
    return P, pi, W, start, span, ranges


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(kernel_cases())
def test_kernel_weighs_every_range_like_pwpi_weight(case):
    # start 0: the suffix is the whole space; start n: a chunk of 1 leaves
    # every block over it, so the suffix is empty and span is 1
    P, pi, W, start, chunk, ranges = case
    sizes = [W.q**k for k in pi.k]
    with mock.patch.object(pb.oracle, "_CHUNK", chunk):
        assert pb.oracle._suffix_start(sizes) == start
        weigh = pb.oracle._weigher(P, pi, W).weigh
        for lo, hi in ranges:
            want = [pb.pwpi_weight(P, pi, W, _vector(v, W.q, pi.N)) for v in range(lo, hi)]
            assert weigh(lo, hi).tolist() == want, (lo, hi)


@st.composite
def sweep_cases(draw):
    """(P, pi, W, chunk, key_counts): a space of at most 3^7 vectors and a
    chunk that splits it into several ranges, with the suffix of the blocks
    from some start >= 1 on filling part of it, so that a range boundary
    falls inside a leading index; key_counts says whether the chunk holds
    every profile, so that count tallies profile keys, or not, so that it
    gives each range's weight histogram."""
    q = draw(st.sampled_from([2, 3, 5]))
    P = draw(st.one_of(random_posets(5), hierarchical_posets(5)))
    pi = _block_lengths(draw, P.n, q, KERNEL_SPACE)
    W = _weight(draw, q)
    key_counts = draw(st.booleans())
    profiles = len(set(W.table)) ** P.n
    sizes = [q**k for k in pi.k]
    chunks = []
    for start in range(1, P.n):
        span = prod(sizes[start:])
        chunks += [
            c
            for c in range(span + 1, span * sizes[start - 1])
            if c % span and (c >= profiles) == key_counts
        ]
    assume(chunks)
    return P, pi, W, draw(st.sampled_from(chunks)), key_counts


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(sweep_cases())
def test_sweep_counts_like_pwpi_weight(case):
    # oracle_distribution counts every range's profile keys, or past a chunk
    # of profiles its weights, and weighs each profile once; the reference
    # weighs every vector with pwpi_weight
    P, pi, W, chunk, key_counts = case
    total = W.q**pi.N
    want = _pwpi_histogram(P, pi, W)
    with mock.patch.object(pb.oracle, "_CHUNK", chunk):
        kernel = pb.oracle._weigher(P, pi, W)
        bins = len(kernel.table) if key_counts else pi.n * W.M_w + 1
        assert len(kernel.count(0, chunk)) == bins
        assert len(pb.oracle._ranges(total)) > 1
        for threads in (1, 2):
            res = pb.oracle_distribution(P, pi, W, threads=threads)
            assert res.histogram == want, threads
            assert res.total == total


@st.composite
def odd_chunk_cases(draw):
    """(P, pi, W, chunk, byte_keys): an odd q, so every span of blocks is
    odd, a space of at most 5^5 vectors, and an odd chunk between the
    profile count and the space, so the kernel keeps a profile table, the
    space splits into several ranges, and ranges start at odd offsets into
    the keys of their leading indices.  byte_keys says whether there are at
    most 256 profiles (uint8 keys) or more (int64 keys): the wide side
    takes a 5-symbol weight with 5 distinct values on 4 elements, 625
    profiles."""
    byte_keys = draw(st.booleans())
    if byte_keys:
        q = draw(st.sampled_from([3, 5]))
        P = draw(st.one_of(random_posets(5), hierarchical_posets(5)))
        W = _weight(draw, q)
    else:
        q = 5
        pairs = [p for p in combinations(range(1, 5), 2) if draw(st.booleans())]
        P = _relabel(4, pairs, draw(st.permutations(range(1, 5))))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", pb.WeightWarning)
            W = pb.custom_weight(q, [0, *draw(st.permutations([1, 2, 3, 4]))])
    pi = _block_lengths(draw, P.n, q, ODD_SPACE)
    profiles = len(set(W.table)) ** P.n
    assume((profiles <= 256) == byte_keys and profiles + 1 < q**pi.N)
    chunk = draw(st.integers(profiles // 2, (q**pi.N - 2) // 2)) * 2 + 1
    return P, pi, W, chunk, byte_keys


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(odd_chunk_cases())
def test_odd_chunk_sweep_counts_like_pwpi_weight(case):
    # uint8 keys are counted in pairs through a uint16 view, which an odd
    # range start leaves unaligned; int64 keys by one bincount
    P, pi, W, chunk, byte_keys = case
    total = W.q**pi.N
    want = _pwpi_histogram(P, pi, W)
    paired = mock.Mock(wraps=pb.oracle._count_byte_keys)
    with mock.patch.object(pb.oracle, "_CHUNK", chunk), \
            mock.patch.object(pb.oracle, "_count_byte_keys", paired):
        assert len(pb.oracle._weigher(P, pi, W).table) <= chunk
        assert len(pb.oracle._ranges(total)) > 1
        for threads in (1, 2):
            res = pb.oracle_distribution(P, pi, W, threads=threads)
            assert res.histogram == want, threads
    assert paired.called == byte_keys


@st.composite
def one_range_cases(draw):
    """(P, pi, W): a space of at most 3^7 vectors, one sweep range, with its
    block lengths in ascending or in descending order."""
    q = draw(st.sampled_from([2, 3, 5]))
    P = draw(st.one_of(random_posets(5), hierarchical_posets(5)))
    ks = sorted(_block_lengths(draw, P.n, q, KERNEL_SPACE).k, reverse=draw(st.booleans()))
    return P, pb.label_map(ks), _weight(draw, q)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(one_range_cases())
def test_one_range_sweep_counts_like_pwpi_weight(case):
    # a space of one range is keyed by the kernel's outer sum alone.  It
    # holds every profile (radix^n <= q^N), so oracle_distribution counts
    # profile keys; a kernel built under a chunk smaller than the profiles
    # counts weights, and it builds its outer sum on first use, here under
    # the full chunk, so it still sums the whole space
    P, pi, W = case
    total = W.q**pi.N
    want = _pwpi_histogram(P, pi, W)
    assert pb.oracle._ranges(total) == [(0, total)]
    assert pb.oracle._suffix_start([W.q**k for k in pi.k]) == 0
    for threads in (1, 2):
        res = pb.oracle_distribution(P, pi, W, threads=threads)
        assert res.histogram == want, threads
    with mock.patch.object(pb.oracle, "_CHUNK", len(set(W.table)) ** pi.n - 1):
        kernel = pb.oracle._weigher(P, pi, W)
    hist = kernel.count(0, total)
    assert kernel.fold(hist) is hist
    assert dict(enumerate(hist.tolist())) == want


@st.composite
def table_cases(draw):
    """(P, pi, W, chunk): a space of at most 3^7 vectors and a chunk of at
    most its profile count, so the kernel weighs its table in slices."""
    q = draw(st.sampled_from([2, 3, 5]))
    P = draw(st.one_of(random_posets(5), hierarchical_posets(5)))
    pi = _block_lengths(draw, P.n, q, KERNEL_SPACE)
    W = _weight(draw, q)
    return P, pi, W, draw(st.integers(1, len(set(W.table)) ** P.n))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(table_cases())
def test_profile_table_is_within_the_space_and_weighed_by_the_chunk(case):
    # radix <= q symbol weights and n <= N blocks, so the table of radix^n
    # profiles has no more entries than the space has vectors; each entry is
    # the weight of a vector with that profile, weighed a chunk at a time
    P, pi, W, chunk = case
    q, levels = W.q, sorted(set(W.table))
    radix = len(levels)
    rows = []
    weigh = pb.oracle._weights_from_block_weights

    def spy(leq, strict, M_w, wmat):
        rows.append(len(wmat))
        return weigh(leq, strict, M_w, wmat)

    with mock.patch.object(pb.oracle, "_CHUNK", chunk), \
            mock.patch.object(pb.oracle, "_weights_from_block_weights", spy):
        table = pb.oracle._weigher(P, pi, W).table
    assert len(table) == radix**pi.n <= q**pi.N
    assert max(rows) <= chunk and sum(rows) == len(table)
    # a code of each block length for each rank of block weight
    code_of = {}
    for k in set(pi.k):
        for code in range(q**k):
            digits = [code // q**t % q for t in reversed(range(k))]
            code_of.setdefault((k, levels.index(max(W.table[d] for d in digits))), digits)
    for key, weight in enumerate(table.tolist()):
        ranks = [key // radix ** (pi.n - 1 - i) % radix for i in range(pi.n)]
        vector = [s for k, r in zip(pi.k, ranks) for s in code_of[k, r]]
        assert weight == pb.pwpi_weight(P, pi, W, vector), key


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.lists(st.integers(0, 10**40), min_size=1, max_size=200),
    st.sampled_from(("general", "chain", "oracle")),
    st.integers(2, 101),
    st.integers(1, 101),
)
def test_table_to_json_writes_the_indented_encoder_bytes(counts, method, q, N):
    table = pb.DistributionTable(q=q, N=N, counts=tuple(counts), method=method)
    assert pb.table_to_json(table) == json.dumps(pb.table_to_json_dict(table), indent=2)
    volumes = [{"r": r, "volume": str(v)} for r, v in enumerate(accumulate(counts))]
    want = {"q": q, "N": N, "method": method, "volumes": volumes}
    assert pb.table_to_json(table, "volume", accumulate(counts)) == json.dumps(want, indent=2)
