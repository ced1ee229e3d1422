"""Linear codes: distances, perfectness, Singleton/MDS, duals, chain theorems."""

from __future__ import annotations

import random
import time

import pytest

import posetblock as pb
from conftest import antichain, chain


def lee(q):
    return pb.lee_weight(q)


def test_linear_code_construction():
    C = pb.linear_code(5, [[1, 2, 0], [2, 4, 1], [0, 0, 3]])
    assert C.k == 2  # second row is dependent mod 5 up to the tail
    assert len(pb.codewords(C)) == 25
    with pytest.raises(pb.NonPrimeError):
        pb.linear_code(4, [[1, 0]])
    with pytest.raises(pb.DimensionError):
        pb.linear_code(5, [[1, 0], [1, 0, 0]])
    with pytest.raises(pb.DimensionError):
        pb.linear_code(5, [])


def test_codewords_closed_under_addition():
    C = pb.linear_code(3, [[1, 0, 2], [0, 1, 1]])
    words = set(pb.codewords(C))
    rng = random.Random(2)
    sample = list(words)
    for _ in range(50):
        a, b = rng.choice(sample), rng.choice(sample)
        assert tuple((x + y) % 3 for x, y in zip(a, b)) in words
        s = rng.randrange(3)
        assert tuple((s * x) % 3 for x in a) in words


def test_codewords_cap():
    C = pb.linear_code(2, [[1 if i == j else 0 for i in range(10)] for j in range(10)])
    with pytest.raises(pb.ExplosionError):
        pb.codewords(C, cap=100)


def test_min_distance_examples(ex69, ex73):
    P, pi, W, C = ex69
    assert pb.min_distance(C, P, pi, W) == 11
    assert pb.min_distance(C, P, pi, pb.hamming_weight(7)) == 5
    P2, pi2, W2, C2 = ex73
    assert pb.min_distance(C2, P2, pi2, W2) == 11
    assert pb.min_distance(C2, P2, pi2, pb.hamming_weight(7)) == 5


def test_codewords_has_no_cache():
    # a cache could pin 64 tables of up to 10^6 codeword tuples each
    assert not hasattr(pb.codewords, "cache_info")


def test_min_distance_minimum_in_a_later_chunk(monkeypatch):
    P = pb.build_poset(3, [(1, 2)])
    pi = pb.label_map([1, 2, 1])
    C = pb.linear_code(7, [[1, 3, 0, 2], [0, 1, 5, 6]])
    nonzero = [c for c in pb.codewords(C) if any(c)]
    weights = [pb.pwpi_weight(P, pi, lee(7), c) for c in nonzero]
    chunk = 4
    # the least weight lies beyond the first chunk of rows
    assert min(weights[:chunk]) > min(weights)
    monkeypatch.setattr(pb.oracle, "_CHUNK", chunk)
    assert pb.min_distance(C, P, pi, lee(7)) == min(weights)


def test_min_distance_full_space_and_zero():
    P = chain(3)
    pi = pb.label_map([1, 2, 1])
    full = pb.linear_code(5, [[1 if i == j else 0 for i in range(4)] for j in range(4)])
    assert pb.min_distance(full, P, pi, lee(5)) == lee(5).m_w
    zero = pb.linear_code(5, [], n_cols=4)
    with pytest.raises(pb.TrivialCodeError):
        pb.min_distance(zero, P, pi, lee(5))


def test_i_ball_contains(ex69):
    P, pi, W, C = ex69
    fam = pb.enumerate_ideals(P)
    I1 = pb.ideal_closure(P, {1, 2, 3, 4})
    center = (0, 0, 0, 0, 0, 0, 2, 2)
    assert pb.i_ball_contains(pi, 7, I1, center, center)
    # B_{I1}(0,...,0,a,a) fixes only the last coordinate
    assert pb.i_ball_contains(pi, 7, I1, center, (1, 2, 3, 4, 5, 6, 0, 2))
    assert not pb.i_ball_contains(pi, 7, I1, center, (1, 2, 3, 4, 5, 6, 2, 3))
    # |B_I(u)| = q^{sum k_i} by direct counting on a small instance
    P3 = chain(3)
    pi3 = pb.label_map([1, 1, 1])
    I = pb.ideal_closure(P3, {2})
    count = sum(
        pb.i_ball_contains(pi3, 3, I, (0, 0, 0), (a, b, c))
        for a in range(3) for b in range(3) for c in range(3)
    )
    assert count == 3 ** sum(pi3.k[i - 1] for i in I.members)


def test_is_I_perfect_example(ex69):
    P, pi, W, C = ex69
    fam = pb.enumerate_ideals(P)
    for t, perfect in [(4, True), (3, False)]:
        for I in fam.of_card(t):
            assert pb.is_I_perfect(C, I, pi) == perfect
            # the oracle's per-coset count of the I-balls agrees, under either weight
            for weight in (W, pb.hamming_weight(7)):
                res = pb.oracle_perfectness(C, P, pi, weight, ideal=I)
                assert (res.disjoint and res.covering) == perfect


def test_is_I_perfect_trivial_and_counterexample():
    P = chain(3)
    pi = pb.label_map([1, 1, 1])
    full = pb.linear_code(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    empty = pb.ideal_closure(P, ())
    assert pb.is_I_perfect(full, empty, pi)
    # a non-complementary dimension fails the covering condition
    C = pb.linear_code(3, [[0, 0, 1]])
    I1 = pb.ideal_closure(P, {1})
    assert not pb.is_I_perfect(C, I1, pi)
    # right dimension but two codewords inside the ball fails packing
    C2 = pb.linear_code(3, [[1, 0, 0]])
    I2 = pb.ideal_closure(P, {2})
    assert sum(pi.k[i - 1] for i in I2.members) == pi.N - C2.k
    assert not pb.is_I_perfect(C2, I2, pi)


def test_is_I_perfect_metric_free(ex69):
    # swapping Lee for Hamming cannot change an I-perfect verdict
    P, pi, W, C = ex69
    fam = pb.enumerate_ideals(P)
    for I in fam.ideals:
        verdict = pb.is_I_perfect(C, I, pi)
        for weight in (W, pb.hamming_weight(7)):
            res = pb.oracle_perfectness(C, P, pi, weight, ideal=I)
            assert (res.disjoint and res.covering) == verdict, (I.members, weight.name)


def test_r_perfect_trivial():
    P = chain(2)
    pi = pb.label_map([1, 1])
    full = pb.linear_code(3, [[1, 0], [0, 1]])
    assert pb.is_r_perfect(full, 0, P, pi, lee(3))
    assert pb.is_r_error_correcting(full, 0, P, pi, lee(3))


def test_example69_twelve_perfect_fails(ex69):
    P, pi, W, C = ex69
    assert not pb.is_r_perfect(C, 12, P, pi, W)


def test_example69_twelve_perfect_under_a_second_and_a_half(ex69):
    # one coset-counting pass over the 7^8 space, not one sweep per codeword
    P, pi, W, C = ex69
    start = time.perf_counter()
    assert not pb.is_r_perfect(C, 12, P, pi, W)
    assert time.perf_counter() - start < 1.5


def test_chain_mds_code_with_2401_codewords():
    # |C| = 7^4 on 7^8 under Lee weight: the 6-balls tile the space exactly
    P = chain(4)
    pi = pb.label_map([2, 2, 2, 2])
    W = lee(7)
    C = pb.chain_mds_code(P, pi, 7, 4)
    assert C.size == 2401
    start = time.perf_counter()
    r3 = pb.oracle_perfectness(C, P, pi, W, radius=3)
    assert r3.disjoint and not r3.covering
    assert pb.is_r_error_correcting(C, 3, P, pi, W)
    assert not pb.is_r_perfect(C, 3, P, pi, W)
    assert pb.is_r_perfect(C, 6, P, pi, W)
    r7 = pb.oracle_perfectness(C, P, pi, W, radius=7)
    assert r7.covering and not r7.disjoint
    assert not pb.is_r_error_correcting(C, 7, P, pi, W)
    assert time.perf_counter() - start < 10


def test_example69_r10_balls_intersect(ex69):
    # the 7^8 disjointness sweep: e_7 sits in B_10(0) and B_10((0..0,1,1))
    P, pi, W, C = ex69
    v = (0, 0, 0, 0, 0, 0, 1, 0)
    c = (0, 0, 0, 0, 0, 0, 1, 1)
    assert pb.pwpi_weight(P, pi, W, v) == 7
    assert pb.pwpi_distance(P, pi, W, v, c) == 4
    assert not pb.is_r_error_correcting(C, 10, P, pi, W)


def test_unique_ideal_r_perfect_equivalence():
    # chains have a unique ideal per cardinality: I-perfect <=> t*M_w-perfect
    for q, n, ks, dim in [(3, 3, [1, 1, 1], 1), (5, 3, [1, 1, 1], 2), (3, 2, [2, 2], 2)]:
        P = chain(n)
        pi = pb.label_map(ks)
        W = lee(q)
        fam = pb.enumerate_ideals(P)
        for t in range(n + 1):
            I = fam.of_card(t)[0]
            C = pb.construct_I_perfect(P, pi, I, q)
            if C.k == 0:
                continue
            assert pb.is_I_perfect(C, I, pi) == pb.is_r_perfect(C, t * W.M_w, P, pi, W)
            assert pb.is_r_error_correcting(C, t * W.M_w, P, pi, W)
            # disjoint t*M_w-balls: no nonzero codeword lies in B_{I2 u J2}(0)
            tier = fam.of_card(t)
            for I2 in tier:
                for J2 in tier:
                    assert pb.codes._packs(C, pi, I2.members_mask | J2.members_mask)


def test_two_ideal_counterexample_not_r_perfect(ex69):
    # |I^4| = 2: I-perfect for both, yet (N-k)M_w-perfect must fail
    P, pi, W, C = ex69
    fam = pb.enumerate_ideals(P)
    tier = fam.of_card(4)
    assert len(tier) == 2
    assert all(pb.is_I_perfect(C, I, pi) for I in tier)
    assert not pb.is_r_perfect(C, 4 * W.M_w, P, pi, W)


def test_nk_mw_perfect_characterization_on_chains():
    # unit blocks: C is (N-k)M_w-perfect iff |I^{N-k}| = 1 and C is I-perfect
    for q, n, dim in [(3, 3, 1), (3, 3, 2), (5, 4, 2)]:
        P = chain(n)
        pi = pb.label_map([1] * n)
        W = lee(q)
        fam = pb.enumerate_ideals(P)
        I = fam.of_card(n - dim)[0]
        C = pb.construct_I_perfect(P, pi, I, q)
        assert C.k == dim
        assert pb.is_I_perfect(C, I, pi)
        assert pb.is_r_perfect(C, (pi.N - C.k) * W.M_w, P, pi, W)


def test_singleton_report_examples(ex69, ex73):
    P, pi, W, C = ex69
    rep = pb.singleton_report(C, P, pi, W)
    assert rep.r_wtilde == 3
    assert rep.singleton_lhs == 6
    assert rep.singleton_rhs == 7
    assert rep.singleton_lhs <= rep.singleton_rhs
    assert not rep.is_mds_pwpi
    assert rep.ppi_lhs == 7
    assert rep.is_mds_ppi

    P2, pi2, W2, C2 = ex73
    rep2 = pb.singleton_report(C2, P2, pi2, W2)
    assert rep2.d_ppi == 5 and rep2.d_pwpi == 11
    assert rep2.r_wtilde == 3
    assert rep2.r_wtilde < pi2.n - C2.k // pi2.k[0]
    assert not rep2.is_mds_pwpi and rep2.is_mds_ppi


def test_singleton_report_enumerates_no_ideal(ex69, monkeypatch):
    # ex69 is a disjoint union of ordinal sums of single elements, so the
    # fold reaches no piece whose ideals it must walk
    P, pi, W, C = ex69
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    for module, name in [
        (pb.poset, "enumerate_ideals"),
        (pb.poset, "ideal_masks"),
        (pb.codes, "ideal_masks"),
    ]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    rep = pb.singleton_report(C, P, pi, W)
    assert calls == []
    assert (rep.singleton_lhs, rep.ppi_lhs) == (6, 7)


@pytest.mark.parametrize("n, expected", [(20, (6, 19)), (24, (7, 23))])
def test_singleton_report_on_large_antichains(n, expected):
    # 2^24 ideals exceed the ideal cap; the max-plus fold never lists them
    P = antichain(n)
    pi = pb.label_map([1] * n)
    C = pb.linear_code(7, [[1] * n])
    start = time.perf_counter()
    rep = pb.singleton_report(C, P, pi, lee(7))
    assert time.perf_counter() - start < 0.05
    assert (rep.singleton_lhs, rep.ppi_lhs) == expected


def test_singleton_full_space_is_mds():
    P = pb.build_poset(3, [(1, 2)])
    pi = pb.label_map([1, 2, 1])
    full = pb.linear_code(5, [[1 if i == j else 0 for i in range(4)] for j in range(4)])
    rep = pb.singleton_report(full, P, pi, lee(5))
    assert rep.r_wtilde == 0
    assert rep.singleton_lhs == 0 == rep.singleton_rhs
    assert rep.is_mds_pwpi


def test_dual_code():
    C = pb.linear_code(7, [[0, 0, 0, 0, 0, 0, 1, 1]])
    D = pb.dual_code(C)
    assert D.k == 7
    for g in C.generator:
        for h in D.generator:
            assert sum(a * b for a, b in zip(g, h)) % 7 == 0
    assert pb.dual_code(D) == C
    zero = pb.linear_code(3, [], n_cols=4)
    assert pb.dual_code(zero).k == 4
    assert pb.dual_code(pb.dual_code(zero)) == zero


def test_construct_I_perfect(ex69):
    P, pi, W, C = ex69
    I = pb.ideal_closure(P, {1, 2, 3, 4})
    built = pb.construct_I_perfect(P, pi, I, 7)
    assert built.k == 1
    assert built.generator == ((0, 0, 0, 0, 0, 0, 0, 1),)
    assert pb.is_I_perfect(built, I, pi)
    # extremes
    everything = pb.ideal_closure(P, range(1, 6))
    assert pb.construct_I_perfect(P, pi, everything, 7).k == 0
    nothing = pb.ideal_closure(P, ())
    assert pb.construct_I_perfect(P, pi, nothing, 7).k == pi.N
    with pytest.raises(pb.PreconditionError):
        bad = pb.Ideal(n=5, members_mask=0b01000, max_mask=0b01000)  # {4} alone
        pb.construct_I_perfect(P, pi, bad, 7)


def test_construct_I_perfect_randomized():
    rng = random.Random(53)
    from test_poset import random_poset

    for _ in range(10):
        P = random_poset(4, rng)
        pi = pb.label_map([rng.randint(1, 2) for _ in range(4)])
        fam = pb.enumerate_ideals(P)
        I = rng.choice(fam.ideals)
        C = pb.construct_I_perfect(P, pi, I, 3)
        assert C.k == pi.N - sum(pi.k[i - 1] for i in I.members)
        assert pb.is_I_perfect(C, I, pi)


def test_is_I_perfect_is_a_rank_test():
    # 7^8 codewords exceed the codeword cap; the verdict enumerates none
    P = antichain(16)
    pi = pb.label_map([1] * 16)
    I = pb.ideal_closure(P, range(1, 9))
    C = pb.construct_I_perfect(P, pi, I, 7)
    assert C.k == 8 and C.size > pb.codes.CODEWORD_CAP_DEFAULT
    start = time.perf_counter()
    assert pb.is_I_perfect(C, I, pi)
    assert time.perf_counter() - start < 0.05
    # C is zero on block 1, so the 7 columns outside {2, ..., 9} have rank 7 < k
    assert not pb.is_I_perfect(C, pb.ideal_closure(P, range(2, 10)), pi)


def test_verify_duality_on_chains():
    rng = random.Random(59)
    cases = 0
    while cases < 10:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        s = rng.choice([1, 2])
        dims = [d for d in range(s, n * s, s)]
        dim = rng.choice(dims)
        P = chain(n)
        pi = pb.label_map([s] * n)
        W = rng.choice([lee(q), pb.hamming_weight(q)])
        C = pb.chain_mds_code(P, pi, q, dim)
        assert pb.verify_duality(C, P, pi, W)
        cases += 1


def test_verify_duality_enumerates_no_ideal(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_duality walked an ideal lattice")

    monkeypatch.setattr(pb.poset, "enumerate_ideals", refuse)
    monkeypatch.setattr(pb.codes, "ideal_masks", refuse)
    P = chain(4)
    pi = pb.label_map([2] * 4)
    assert pb.verify_duality(pb.chain_mds_code(P, pi, 5, 4), P, pi, lee(5))


def test_verify_duality_whole_space_on_chain():
    P = chain(3)
    pi = pb.label_map([1, 1, 1])
    full = pb.linear_code(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert pb.verify_duality(full, P, pi, lee(3))


def test_verify_duality_hypothesis_errors(ex69):
    P, pi, W, C = ex69
    with pytest.raises(pb.HypothesisError):
        pb.verify_duality(C, P, pi, W)  # unequal blocks
    A = antichain(3)
    piA = pb.label_map([1, 1, 1])
    CA = pb.linear_code(3, [[1, 0, 0]])
    with pytest.raises(pb.HypothesisError):
        pb.verify_duality(CA, A, piA, lee(3))  # |I^2| = 3


def test_mds_implies_I_perfect_equal_blocks():
    rng = random.Random(61)
    from test_poset import random_poset

    checked = 0
    mds_hits = 0
    posets = [chain(3), chain(4)]  # chain codes are always MDS: no vacuity
    while checked < 8:
        q = rng.choice([3, 5])
        P = posets.pop() if posets else random_poset(rng.randint(2, 4), rng)
        n = P.n
        s = rng.choice([1, 2])
        pi = pb.label_map([s] * n)
        W = lee(q)
        fam = pb.enumerate_ideals(P)
        t = rng.randint(0, n - 1)
        I = rng.choice(fam.of_card(t))
        C = pb.construct_I_perfect(P, pi, I, q)
        if C.k == 0 or C.k % s:
            continue
        rep = pb.singleton_report(C, P, pi, W)
        if rep.is_mds_pwpi:
            mds_hits += 1
            for J in fam.of_card(pi.n - C.k // s):
                assert pb.is_I_perfect(C, J, pi)
        checked += 1
    assert mds_hits >= 2


def test_hamming_mds_iff_I_perfect():
    # under Hamming weight MDS <=> I-perfect for every ideal of the tier
    rng = random.Random(67)
    from test_poset import random_poset

    for _ in range(8):
        q = 3
        n = rng.randint(2, 4)
        P = random_poset(n, rng)
        pi = pb.label_map([1] * n)
        W = pb.hamming_weight(q)
        fam = pb.enumerate_ideals(P)
        t = rng.randint(0, n - 1)
        I = rng.choice(fam.of_card(t))
        C = pb.construct_I_perfect(P, pi, I, q)
        if C.k == 0:
            continue
        tier = fam.of_card(pi.n - C.k)
        all_perfect = all(pb.is_I_perfect(C, J, pi) for J in tier)
        assert pb.singleton_report(C, P, pi, W).is_mds_pwpi == all_perfect


def test_finer_poset_preserves_mds():
    # refine an MDS instance's poset: MDS must survive
    rng = random.Random(71)
    from test_poset import random_poset

    mds_hits = 0
    for trial in range(10):
        q = rng.choice([3, 5])
        n = rng.randint(2, 4)
        P = random_poset(n, rng) if trial else pb.build_poset(3, [(1, 3), (2, 3)])
        n = P.n
        pi = pb.label_map([1] * n)
        W = lee(q)
        fam = pb.enumerate_ideals(P)
        I = rng.choice(fam.ideals)
        if trial == 0:
            I = pb.ideal_closure(P, {1, 2})  # guaranteed-MDS transversal case
        C = pb.construct_I_perfect(P, pi, I, q)
        if C.k == 0:
            continue
        if not pb.singleton_report(C, P, pi, W).is_mds_pwpi:
            continue
        mds_hits += 1
        extra = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a < b]
        finer_pairs = [(a, b) for a, b in P.cover_relations()] + [
            p for p in extra if rng.random() < 0.3
        ]
        try:
            P2 = pb.build_poset(n, finer_pairs)
        except pb.CycleError:
            continue
        assert pb.is_finer(P, P2)
        assert pb.singleton_report(C, P2, pi, W).is_mds_pwpi
    assert mds_hits >= 2


def test_perfect_implies_mds_small_mw():
    # m_w = 1 (Lee) and scaled Hamming: (n - k/s)M_w-perfect => MDS
    for W_maker, q in [(lambda q: lee(q), 5), (lambda q: pb.custom_weight(q, [0] + [2] * (q - 1)), 3)]:
        W = W_maker(q)
        for n, s, dim in [(3, 1, 1), (3, 1, 2), (2, 2, 2)]:
            P = chain(n)
            pi = pb.label_map([s] * n)
            C = pb.chain_mds_code(P, pi, q, dim)
            t = pi.n - C.k // s
            if pb.is_r_perfect(C, t * W.M_w, P, pi, W):
                assert pb.singleton_report(C, P, pi, W).is_mds_pwpi


def test_mds_chain_distribution_closed_form():
    rng = random.Random(73)
    cases = 0
    while cases < 10:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        s = rng.choice([1, 2])
        dim = rng.choice(range(s, n * s + 1, s))
        P = chain(n)
        pi = pb.label_map([s] * n)
        W = rng.choice([lee(q), pb.hamming_weight(q)])
        C = pb.chain_mds_code(P, pi, q, dim)
        closed = pb.mds_chain_distribution(C, P, pi, W)
        direct = [0] * (n * W.M_w + 1)
        for c in pb.codewords(C):
            direct[pb.pwpi_weight(P, pi, W, c)] += 1
        assert closed == tuple(direct)
        assert sum(closed) == C.size
        balls = pb.mds_chain_ball_counts(C, P, pi, W)
        assert balls == tuple(
            sum(direct[: r + 1]) for r in range(n * W.M_w + 1)
        )
        # below the packing radius every ball holds just the center
        t0 = pi.n - C.k // s
        for r in range(0, t0 * W.M_w + 1):
            assert balls[r] == 1
        cases += 1


def test_mds_chain_distribution_preconditions(ex69):
    P, pi, W, C = ex69
    with pytest.raises(pb.PreconditionError):
        pb.mds_chain_distribution(C, P, pi, W)  # not a chain
    Pc = chain(3)
    pic = pb.label_map([1, 1, 1])
    non_mds = pb.linear_code(5, [[1, 0, 0]])  # supported on the bottom element
    with pytest.raises(pb.PreconditionError):
        pb.mds_chain_distribution(non_mds, Pc, pic, lee(5))
