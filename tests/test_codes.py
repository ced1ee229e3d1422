"""Linear codes: distances, perfectness, Singleton/MDS, duals, chain theorems."""

from __future__ import annotations

import dataclasses
import random
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import posetblock as pb
from conftest import antichain, chain, disjoint_union, fence, ordinal_sum


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
    # a cache could pin 64 tables of up to 10^6 codeword tuples each, and
    # one keyed on a WeightModel hashes its q-entry table on every lookup;
    # with none in the package, a caller has nothing to clear between jobs
    import posetblock.cli
    import posetblock.oracle

    cached = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "posetblock" or name.startswith("posetblock.")
        for attr, obj in vars(module).items()
        if hasattr(obj, "cache_clear")
    ]
    assert cached == []


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


def test_order_matrices_are_built_once_per_call(monkeypatch):
    # min_distance over several chunks of codewords, and a metric-axiom
    # batch that weighs four matrices of rows, each build them once
    built, weighed = [], []
    real_order, real_weights = pb.oracle._order_matrices, pb.oracle._weights_from_block_weights
    monkeypatch.setattr(pb.oracle, "_order_matrices", lambda P: built.append(P) or real_order(P))
    monkeypatch.setattr(
        pb.oracle, "_weights_from_block_weights",
        lambda *args: weighed.append(args) or real_weights(*args),
    )
    monkeypatch.setattr(pb.oracle, "_CHUNK", 8)
    P, pi = pb.build_poset(3, [(1, 2)]), pb.label_map([1, 2, 1])
    C = pb.linear_code(7, [[1, 3, 0, 2], [0, 1, 5, 6]])
    assert pb.min_distance(C, P, pi, lee(7)) == min(
        pb.pwpi_weight(P, pi, lee(7), c) for c in pb.codewords(C) if any(c)
    )
    assert len(built) == 1 and len(weighed) == 24  # 48 nonzero codewords, 2 a chunk
    built.clear()
    assert pb.oracle_metric_axioms(P, pi, lee(7), samples=50, seed=1).ok
    assert len(built) == 1


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


def test_example69_twelve_balls_overlap_by_pigeonhole(ex69, monkeypatch):
    # 7 * |B_12(0)| > 7^8: both verdicts answer without a coset count
    def refuse(*args):
        raise AssertionError("the verdict counted cosets")

    P, pi, W, C = ex69
    monkeypatch.setattr(pb.oracle, "_coset_ball_counts", refuse)
    size, result = pb.oracle._r_ball_perfectness(C, P, pi, W, 12)
    assert C.size * size > 7**8 and result is None
    assert not pb.is_r_perfect(C, 12, P, pi, W)
    assert not pb.is_r_error_correcting(C, 12, P, pi, W)


def test_r_perfect_checks_the_oracle_ball_size(ex69, monkeypatch):
    def size_off_by_one(*args, **kwargs):
        size, result = count(*args, **kwargs)
        return size + 1, result

    P, pi, W, C = ex69
    count = pb.oracle._r_ball_perfectness
    monkeypatch.setattr(pb.codes, "_r_ball_perfectness", size_off_by_one)
    with pytest.raises(pb.ConsistencyError):
        pb.is_r_perfect(C, 3, P, pi, W)


def test_r_ball_verdicts_check_the_code_length(ex69):
    P, pi, W, _ = ex69
    short = pb.linear_code(7, [[1] * (pi.N - 1)])
    for r in (1, 12):  # a ball that packs, and one that overlaps by pigeonhole
        with pytest.raises(pb.DimensionError):
            pb.is_r_perfect(short, r, P, pi, W)
        with pytest.raises(pb.DimensionError):
            pb.is_r_error_correcting(short, r, P, pi, W)


def test_distance_certifies_disjointness_only_for_a_metric_weight():
    # symmetric with w(2) = 3 > 2 w(1), so not subadditive: the code's
    # minimum distance 3 exceeds 2r at r = 1, yet u = (1, 1) lies within 1
    # of both 0 and (1, 2)
    with pytest.warns(pb.WeightWarning):
        W = pb.custom_weight(5, [0, 1, 3, 3, 1])
    assert "not subadditive" in pb.weights.metric_fault(W)
    P, pi = chain(1), pb.label_map([2])
    C = pb.linear_code(5, [[1, 2]])
    assert pb.min_distance(C, P, pi, W) == 3
    assert pb.pwpi_weight(P, pi, W, [1, 1]) == pb.pwpi_distance(P, pi, W, [1, 1], [1, 2]) == 1
    assert not pb.is_r_error_correcting(C, 1, P, pi, W)
    with pytest.raises(pb.ExplosionError, match="disjointness"):
        pb.is_r_error_correcting(C, 1, P, pi, W, cap=10)
    # the 0-balls of the whole space partition it, which only the sweep sees
    full = pb.linear_code(5, [[1, 0], [0, 1]])
    assert pb.is_r_perfect(full, 0, P, pi, W)
    with pytest.raises(pb.ExplosionError, match="perfectness"):
        pb.is_r_perfect(full, 0, P, pi, W, cap=10)
    # within the cap the same certificate must raise no ConsistencyError:
    # w(3 + 3) = 4 > 2 w(3), the volumes fill and d = 5 > 2r, yet the
    # 2-balls overlap
    with pytest.warns(pb.WeightWarning):
        W = pb.custom_weight(7, [0, 4, 3, 1, 1, 3, 4])
    P, pi = antichain(3), pb.label_map([1, 2, 1])
    C = pb.linear_code(7, [[1, 0, 5, 5], [0, 1, 5, 1]])
    assert pb.min_distance(C, P, pi, W) == 5
    assert C.size * pb.ball_volume(pb.distribution(P, pi, W), 2) == 7**4
    assert not pb.oracle_perfectness(C, P, pi, W, radius=2).disjoint
    assert not pb.is_r_perfect(C, 2, P, pi, W)


def test_past_the_space_cap_verdicts_agree_with_the_sweep():
    # Hamming distance on F_2^3, with a cap of 4 < 2^3 forcing every
    # past-cap branch; the verdict within the cap must agree wherever both
    # answer
    P, pi, W = antichain(3), pb.label_map([1, 1, 1]), pb.hamming_weight(2)
    rep = pb.linear_code(2, [[1, 1, 1]])
    pair = pb.linear_code(2, [[1, 1, 0]])
    zero = pb.linear_code(2, [], n_cols=3)
    cases = [  # (code, r, is_r_perfect and is_r_error_correcting past the cap)
        (rep, 0, False, True),  # the volumes do not fill; d = 3 > 0
        (rep, 1, True, True),  # certified: the volumes fill and d = 3 > 2
        (pair, 1, None, None),  # the volumes fill, but d = 2 = 2r certifies nothing
        (zero, 3, True, True),  # k = 0: the one ball is the whole space
        (zero, 1, False, True),
    ]
    for C, r, perfect, correcting in cases:
        for verdict, want in ((pb.is_r_perfect, perfect), (pb.is_r_error_correcting, correcting)):
            inside = verdict(C, r, P, pi, W)
            if want is None:
                assert not inside
                with pytest.raises(pb.ExplosionError):
                    verdict(C, r, P, pi, W, cap=4)
            else:
                assert verdict(C, r, P, pi, W, cap=4) == inside == want, (C, r, verdict)


def test_r_perfect_seeks_no_certificate_it_cannot_use():
    # within the space cap the volumes fill (2 * 4 = 2^3) but d = 2 = 2r:
    # the sweep says the 1-balls overlap, and the distance cross-check,
    # which would enumerate more codewords than the cap, is not run
    P, pi, W = antichain(3), pb.label_map([1, 1, 1]), pb.hamming_weight(2)
    C = pb.linear_code(2, [[1, 1, 0]])
    for codeword_cap in (1, pb.codes.CODEWORD_CAP_DEFAULT):
        assert not pb.is_r_perfect(C, 1, P, pi, W, codeword_cap=codeword_cap)
        assert not pb.is_r_error_correcting(C, 1, P, pi, W, codeword_cap=codeword_cap)
    # past the space cap the 2-balls do not fill (2 * 7 > 2^3), so
    # is_r_perfect answers before d = 2 fails to certify them; the
    # disjointness verdict has no fill to test and raises
    assert not pb.is_r_perfect(C, 2, P, pi, W, cap=4)
    with pytest.raises(pb.ExplosionError, match="disjointness"):
        pb.is_r_error_correcting(C, 2, P, pi, W, cap=4)


def test_r_perfect_cross_checks_the_sweep(monkeypatch):
    # the repetition code on F_2^3, Hamming: its 1-balls tile the space
    # (fill, d = 3 > 2) and its 0-balls are disjoint but do not fill; a
    # sweep doctored to contradict either raises, and only is_r_perfect,
    # which has the volume, can tell
    def doctored(**change):
        def answer(*args, **kwargs):
            size, result = count(*args, **kwargs)
            return size, dataclasses.replace(result, **change)

        return answer

    P, pi, W = antichain(3), pb.label_map([1, 1, 1]), pb.hamming_weight(2)
    C = pb.linear_code(2, [[1, 1, 1]])
    count = pb.oracle._r_ball_perfectness
    cases = [  # (r, doctored fields, the message)
        (1, {"covering": False}, "cover exactly when the volumes fill"),
        (0, {"covering": True}, "cover exactly when the volumes fill"),
        (1, {"disjoint": False}, "distance certify"),
    ]
    for r, change, message in cases:
        monkeypatch.setattr(pb.codes, "_r_ball_perfectness", doctored(**change))
        with pytest.raises(pb.ConsistencyError, match=message):
            pb.is_r_perfect(C, r, P, pi, W)
        assert pb.is_r_error_correcting(C, r, P, pi, W) == change.get("disjoint", True)
    # past the codeword cap no certificate is sought, and the last sweep stands
    assert not pb.is_r_perfect(C, 1, P, pi, W, codeword_cap=1)


def test_the_zero_code_corrects_errors_without_a_sweep(monkeypatch):
    # the zero code has one ball, so no radius can make two overlap
    def no_sweep(*args, **kwargs):
        raise AssertionError("the oracle was asked")

    monkeypatch.setattr(pb.codes, "_r_ball_perfectness", no_sweep)
    P, pi, W = antichain(3), pb.label_map([1, 1, 1]), pb.hamming_weight(2)
    C = pb.linear_code(2, [], n_cols=3)
    assert all(pb.is_r_error_correcting(C, r, P, pi, W) for r in range(5))


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
    # fold reaches no piece that it must split
    P, pi, W, C = ex69
    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pb.poset, "enumerate_ideals", counted(pb.poset.enumerate_ideals))
    rep = pb.singleton_report(C, P, pi, W)
    assert calls == []
    assert (rep.singleton_lhs, rep.ppi_lhs) == (6, 7)
    # and it splits no piece on a maximal element
    assert pb.singleton_report(C, P, pi, W, ideal_cap=0) == rep


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


def _fence_codes():
    # a 12-fence splits 8 pieces on a maximal element, alone and inside a
    # disjoint union and an ordinal sum
    for n, pairs in (fence(12), ordinal_sum(disjoint_union(fence(12), (1, [])), (2, []))):
        pi = pb.label_map([1 + i % 2 for i in range(n)])
        yield pb.linear_code(5, [[1] * pi.N]), pb.build_poset(n, pairs), pi, lee(5)


def test_singleton_report_honours_the_ideal_cap():
    for C, P, pi, W in _fence_codes():
        with pytest.raises(pb.ExplosionError, match="cap 7"):
            pb.singleton_report(C, P, pi, W, ideal_cap=7)
        assert pb.singleton_report(C, P, pi, W, ideal_cap=8) == pb.singleton_report(C, P, pi, W)


def test_singleton_report_default_ideal_cap_is_unchanged(monkeypatch):
    caps = []
    real = pb.codes.fold_ideals

    def spy(*args, cap):
        caps.append(cap)
        return real(*args, cap=cap)

    monkeypatch.setattr(pb.codes, "fold_ideals", spy)
    for C, P, pi, W in _fence_codes():
        rep = pb.singleton_report(C, P, pi, W)
        # the per-cardinality maxima over the whole ideal lattice
        best = {}
        for ideal in pb.enumerate_ideals(P).ideals:
            c = len(ideal.members)
            best[c] = max(best.get(c, 0), sum(pi.k[i - 1] for i in ideal.members))
        assert rep.singleton_lhs == best[rep.r_wtilde]
        assert rep.ppi_lhs == best[rep.d_ppi - 1]
    assert caps == [pb.poset.IDEAL_CAP_DEFAULT] * 2


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


def test_dual_code_over_a_non_prime_alphabet():
    # dual_code checks q before it reads the pivots or reduces mod q: a code
    # of some free columns, of none and of all of them, a zero row, which
    # has no pivot, and q = 0
    rows = [
        (4, ((1, 2, 3),), 3),
        (4, ((1, 0), (0, 1)), 2),
        (4, (), 2),
        (4, ((0, 0),), 2),
        (0, ((1, 0),), 2),
    ]
    for q, generator, n in rows:
        with pytest.raises(pb.NonPrimeError, match=f"alphabet size {q} is not prime"):
            pb.dual_code(pb.LinearCode(q=q, n_cols=n, generator=generator))


def test_pivots_are_the_stored_echelon_pivots():
    # the third row is the sum of the first two
    C = pb.linear_code(5, [[0, 2, 4, 1, 0], [0, 1, 2, 3, 1], [0, 3, 1, 4, 1]])
    assert C.generator == ((0, 1, 2, 3, 0), (0, 0, 0, 0, 1))
    assert C.pivots == (1, 4)
    assert pb.linear_code(3, [], n_cols=4).pivots == ()
    # the dual reads them: its generator spans the null space
    D = pb.dual_code(C)
    assert D.k == 3 and D.pivots == (0, 1, 2)
    for g in C.generator:
        for h in D.generator:
            assert sum(a * b for a, b in zip(g, h)) % 5 == 0


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


def _random_weight(rng, q):
    """Lee, Hamming, or a random table, which may warn that it is no metric."""
    kind = rng.choice(("lee", "hamming", "custom"))
    if kind != "custom":
        return pb.weight_from_json(q, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        return pb.custom_weight(q, [0] + [rng.randint(1, 4) for _ in range(q - 1)])


def test_mds_chain_rank_test_matches_the_singleton_report():
    # on a chain with blocks of s | k, MDS is I-perfectness for the bottom
    # n - k/s elements: the closed forms answer exactly when the report says MDS
    rng = random.Random(826)
    verdicts = set()
    for _ in range(150):
        q = rng.choice([2, 3, 5, 7])
        n, s = rng.randint(1, 4), rng.choice([1, 2])
        dims = [d for d in range(s, n * s + 1, s) if q**d <= 2401]
        if not dims:
            continue
        dim = rng.choice(dims)
        P, pi, W = chain(n), pb.label_map([s] * n), _random_weight(rng, q)
        rows = [[rng.randrange(q) for _ in range(n * s)] for _ in range(dim)]
        C = pb.linear_code(q, rows)
        if C.k % s or C.k == 0:
            continue
        mds = pb.singleton_report(C, P, pi, W).is_mds_pwpi
        verdicts.add(mds)
        if mds:
            table = pb.mds_chain_distribution(C, P, pi, W)
            direct = [0] * (n * W.M_w + 1)
            for c in pb.codewords(C):
                direct[pb.pwpi_weight(P, pi, W, c)] += 1
            assert table == tuple(direct)
        else:
            with pytest.raises(pb.PreconditionError, match="not MDS"):
                pb.mds_chain_distribution(C, P, pi, W)
            with pytest.raises(pb.PreconditionError, match="not MDS"):
                pb.mds_chain_ball_counts(C, P, pi, W)
    assert verdicts == {True, False}


def test_mds_chain_closed_forms_past_the_codeword_cap():
    # 7^8 = 5,764,801 codewords on the 8-chain with blocks of 2: no codeword
    # is listed, so nothing meets the codeword cap
    P, pi, W = chain(8), pb.label_map([2] * 8), lee(7)
    C = pb.chain_mds_code(P, pi, 7, 8)
    assert C.size > pb.codes.CODEWORD_CAP_DEFAULT
    start = time.perf_counter()
    table = pb.mds_chain_distribution(C, P, pi, W)
    balls = pb.mds_chain_ball_counts(C, P, pi, W)
    assert time.perf_counter() - start < 0.5
    assert sum(table) == C.size == balls[-1]
    assert balls == tuple(sum(table[: r + 1]) for r in range(len(table)))


def test_mds_chain_closed_forms_of_the_zero_code():
    P, pi, W = chain(3), pb.label_map([2] * 3), lee(5)
    zero = pb.linear_code(5, [], n_cols=6)
    assert pb.mds_chain_distribution(zero, P, pi, W) == (1,) + (0,) * (3 * W.M_w)
    assert pb.mds_chain_ball_counts(zero, P, pi, W) == (1,) * (3 * W.M_w + 1)


def test_min_distance_builds_one_chunk_of_codewords_at_a_time(monkeypatch):
    # 2^16 codewords of length 128 fill a 64 MiB int64 matrix
    rng = random.Random(16)
    P, pi, W = antichain(16), pb.label_map([8] * 16), pb.hamming_weight(2)
    C = pb.linear_code(2, [[rng.randrange(2) for _ in range(128)] for _ in range(16)])
    assert C.k == 16
    tracemalloc.start()
    try:
        d = pb.min_distance(C, P, pi, W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < C.size * C.n_cols * 8 / 4
    # the Hamming weight on an antichain counts the nonzero blocks
    coefs = (np.arange(C.size)[:, None] >> np.arange(15, -1, -1)) & 1
    words = coefs.astype(np.uint8) @ np.array(C.generator, dtype=np.uint8) % 2
    assert d == words.reshape(-1, 16, 8).any(axis=2).sum(axis=1)[1:].min()
    # chunks of a few symbols list the same codewords in the same order
    small = pb.linear_code(3, [[1, 2, 0], [0, 1, 1]])
    whole = pb.codewords(small)
    monkeypatch.setattr(pb.oracle, "_CHUNK", 5)
    assert pb.codewords(small) == whole == tuple(
        tuple((a * x + b * y) % 3 for x, y in zip(*small.generator))
        for a in range(3)
        for b in range(3)
    )
