"""The brute-force sweep engine itself."""

from __future__ import annotations

import random

import pytest

import posetblock as pb
from conftest import antichain, chain


def test_tiny_hand_counts():
    res = pb.oracle_distribution(antichain(2), pb.label_map([1, 1]), pb.hamming_weight(2))
    assert res.histogram == {0: 1, 1: 2, 2: 1}
    assert res.total == 4


def test_lee_chain_27():
    P = chain(3)
    pi = pb.label_map([1, 1, 1])
    W = pb.lee_weight(3)  # M_w = 1 here
    res = pb.oracle_distribution(P, pi, W)
    assert res.to_table().counts == pb.distribution_chain(P, pi, W).counts


def test_histogram_against_pure_python_sweep():
    # the vectorized sweep must match a literal per-vector evaluation
    rng = random.Random(79)
    from itertools import product
    from test_poset import random_poset

    for _ in range(5):
        q = rng.choice([2, 3])
        n = rng.randint(2, 4)
        P = random_poset(n, rng)
        pi = pb.label_map([rng.randint(1, 2) for _ in range(n)])
        while q**pi.N > 3**7:
            pi = pb.label_map([1] * n)
        W = rng.choice([pb.lee_weight(q), pb.hamming_weight(q)])
        res = pb.oracle_distribution(P, pi, W)
        direct = {}
        for vec in product(range(q), repeat=pi.N):
            w = pb.pwpi_weight(P, pi, W, vec)
            direct[w] = direct.get(w, 0) + 1
        assert {r: c for r, c in res.histogram.items() if c} == direct


def test_truncated_example45_sweep():
    # the 7^6 truncation of the big worked example agrees with the general sum
    P = pb.build_poset(3, [(1, 2)])
    pi = pb.label_map([2, 2, 2])
    W = pb.lee_weight(7)
    res = pb.oracle_distribution(P, pi, W)
    assert res.to_table().counts == pb.distribution_general(P, pi, W).counts


def test_threads_deterministic(ex45):
    P, _, W = ex45
    pi = pb.label_map([1, 1, 1, 1, 1])
    single = pb.oracle_distribution(P, pi, W, threads=1)
    multi = pb.oracle_distribution(P, pi, W, threads=4)
    assert single.histogram == multi.histogram
    assert single.fingerprint == multi.fingerprint


def test_small_chunks_give_the_same_answers(monkeypatch):
    # 64-vector chunks: many ranges, and more profiles than a chunk, so the
    # kernel weighs each range's distinct profiles instead of a whole table
    P = pb.build_poset(4, [(1, 3), (2, 3)])
    pi = pb.label_map([2, 1, 2, 1])
    W = pb.lee_weight(5)
    C = pb.linear_code(5, [[1, 2, 0, 3, 4, 1], [0, 0, 1, 1, 0, 2]])
    I = pb.ideal_closure(P, {3})
    want = (
        pb.oracle_distribution(P, pi, W).histogram,
        [pb.oracle_perfectness(C, P, pi, W, radius=r) for r in range(pi.n * W.M_w + 1)],
        pb.oracle_perfectness(C, P, pi, W, ideal=I),
    )
    monkeypatch.setattr(pb.oracle, "_CHUNK", 64)
    assert len(pb.oracle._ranges(W.q**pi.N)) > 200
    got = (
        pb.oracle_distribution(P, pi, W, threads=2).histogram,
        [pb.oracle_perfectness(C, P, pi, W, radius=r) for r in range(pi.n * W.M_w + 1)],
        pb.oracle_perfectness(C, P, pi, W, ideal=I),
    )
    assert got == want


def test_space_cap():
    P = chain(4)
    pi = pb.label_map([2, 2, 2, 2])
    with pytest.raises(pb.ExplosionError):
        pb.oracle_distribution(P, pi, pb.lee_weight(7), cap=10**6)


def test_space_cap_env(monkeypatch):
    monkeypatch.setenv("POSETBLOCK_CAP_SPACE", "10")
    P = chain(2)
    pi = pb.label_map([1, 1])
    with pytest.raises(pb.ExplosionError):
        pb.oracle_distribution(P, pi, pb.lee_weight(5))
    monkeypatch.setenv("POSETBLOCK_CAP_SPACE", "100")
    assert pb.oracle_distribution(P, pi, pb.lee_weight(5)).total == 25


def test_space_cap_never_exceeds_int64(monkeypatch):
    # q^N = 2^64 does not fit an int64 vector index, whatever cap is set
    def unreachable(*args):
        raise AssertionError("a sweep started past the int64 index limit")

    monkeypatch.setattr(pb.oracle, "_weigher", unreachable)
    monkeypatch.setattr(pb.oracle, "_ranges", unreachable)
    monkeypatch.setenv("POSETBLOCK_CAP_SPACE", str(2**70))
    P = antichain(2)
    pi = pb.label_map([32, 32])
    W = pb.hamming_weight(2)
    C = pb.linear_code(2, [[1] * 64])
    everything = pb.ideal_closure(P, {1, 2})
    for cap in (None, 2**70):
        with pytest.raises(pb.ExplosionError):
            pb.oracle_distribution(P, pi, W, cap=cap)
        with pytest.raises(pb.ExplosionError):
            pb.oracle_perfectness(C, P, pi, W, radius=1, cap=cap)
        with pytest.raises(pb.ExplosionError):
            pb.oracle_perfectness(C, P, pi, W, ideal=everything, cap=cap)
        # verdicts fall back to the distance criterion instead of sweeping
        assert pb.is_r_error_correcting(C, 0, P, pi, W, cap=cap)


def test_perfectness_radius_mode_enumerates_no_codeword():
    # |C| = 3^4 is over a codeword cap of 10, q^N = 3^6 within the space cap
    P = chain(3)
    pi = pb.label_map([2, 2, 2])
    W = pb.lee_weight(3)
    C = pb.construct_I_perfect(P, pi, pb.ideal_closure(P, {1}), 3)
    assert C.size == 81
    with pytest.raises(pb.ExplosionError):
        pb.codewords(C, cap=10)
    for r in range(pi.n * W.M_w + 1):
        res = pb.oracle_perfectness(C, P, pi, W, radius=r)
        assert res.disjoint == (r < 2)  # B_r(0) holds a nonzero codeword from r = 2
        assert pb.is_r_error_correcting(C, r, P, pi, W, codeword_cap=10) == res.disjoint
    assert pb.oracle_perfectness(C, P, pi, W, radius=1).covering


def test_perfectness_enumerates_no_codeword(monkeypatch):
    # both ball kinds are counted per coset: no mode builds the codewords
    def refuse(*args, **kwargs):
        raise AssertionError("oracle_perfectness enumerated the codewords")

    monkeypatch.setattr(pb.codes, "_codeword_matrix", refuse)
    P = chain(3)
    pi = pb.label_map([2, 2, 2])
    W = pb.lee_weight(3)
    # C = the vectors that vanish on block 1: |B_I(0) & C| = 3^(2(|I| - 1)), |I| >= 1
    C = pb.construct_I_perfect(P, pi, pb.ideal_closure(P, {1}), 3)
    for t, mult in [(0, (1, 0)), (1, (1, 1)), (2, (9, 9)), (3, (81, 81))]:
        I = pb.ideal_closure(P, range(1, t + 1))
        res = pb.oracle_perfectness(C, P, pi, W, ideal=I)
        assert (res.max_multiplicity, res.min_multiplicity) == mult, t
    assert pb.oracle_perfectness(C, P, pi, W, radius=1) == pb.PerfectnessResult(
        disjoint=True, covering=True, max_multiplicity=1, min_multiplicity=1
    )


def test_perfectness_ideal_mode(ex69):
    P, pi, W, C = ex69
    fam = pb.enumerate_ideals(P)
    for I in fam.of_card(4):
        res = pb.oracle_perfectness(C, P, pi, W, ideal=I)
        assert res.disjoint and res.covering
    small = fam.of_card(2)[0]
    res = pb.oracle_perfectness(C, P, pi, W, ideal=small)
    assert not (res.disjoint and res.covering)


def test_perfectness_radius_mode():
    # the binary length-3 repetition code is 1-perfect under Hamming weight
    P = antichain(3)
    pi = pb.label_map([1, 1, 1])
    W = pb.hamming_weight(2)
    C = pb.linear_code(2, [[1, 1, 1]])
    res = pb.oracle_perfectness(C, P, pi, W, radius=1)
    assert res.disjoint and res.covering
    res2 = pb.oracle_perfectness(C, P, pi, W, radius=2)
    assert res2.covering and not res2.disjoint
    # its ternary cousin packs but does not cover (3 * 7 < 27)
    C3 = pb.linear_code(3, [[1, 1, 1]])
    res3 = pb.oracle_perfectness(C3, P, pi, pb.hamming_weight(3), radius=1)
    assert res3.disjoint and not res3.covering


def test_perfectness_mode_arguments(ex69):
    P, pi, W, C = ex69
    with pytest.raises(pb.BoundsError):
        pb.oracle_perfectness(C, P, pi, W)
    with pytest.raises(pb.BoundsError):
        pb.oracle_perfectness(
            C, P, pi, W, radius=1, ideal=pb.ideal_closure(P, {1})
        )


def test_metric_axioms_builtin_weights():
    rng = random.Random(83)
    from test_poset import random_poset

    for _ in range(4):
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        P = random_poset(n, rng)
        pi = pb.label_map([rng.randint(1, 3) for _ in range(n)])
        for W in (pb.lee_weight(q), pb.hamming_weight(q)):
            report = pb.oracle_metric_axioms(P, pi, W, samples=2000, seed=11)
            assert report.ok, report.witnesses[:3]


def test_metric_axioms_adversarial_weight():
    # w(2) > 2 w(1) on Z_5 breaks the triangle inequality on a chain
    import warnings

    P = chain(2)
    pi = pb.label_map([1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        W = pb.custom_weight(5, [0, 1, 9, 9, 1])
    report = pb.oracle_metric_axioms(P, pi, W, samples=5000, seed=3)
    assert not report.ok
    assert any(v.kind == "triangle" for v in report.witnesses)
    # witnesses are genuine
    for v in report.witnesses:
        if v.kind == "triangle":
            dxz = pb.pwpi_distance(P, pi, W, v.x, v.z)
            dxy = pb.pwpi_distance(P, pi, W, v.x, v.y)
            dyz = pb.pwpi_distance(P, pi, W, v.y, v.z)
            assert dxz > dxy + dyz


def test_metric_axioms_zero_samples(ex45):
    P, pi, W = ex45
    report = pb.oracle_metric_axioms(P, pi, W, samples=0, seed=0)
    assert report.samples == 0 and report.ok


def test_metric_axioms_seed_determinism(ex45):
    P, pi, W = ex45
    a = pb.oracle_metric_axioms(P, pi, W, samples=500, seed=42)
    b = pb.oracle_metric_axioms(P, pi, W, samples=500, seed=42)
    assert a == b
