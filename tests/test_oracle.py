"""The brute-force sweep engine itself."""

from __future__ import annotations

import random
import time
from unittest import mock

import numpy as np
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
    # 7^7 vectors in four chunks; the suffix is the last four blocks
    # (span 7^6), so every chunk boundary falls inside a leading index
    P, _, W = ex45
    pi = pb.label_map([1, 1, 1, 2, 2])
    sizes = [W.q**k for k in pi.k]
    assert pb.oracle._suffix_start(sizes) == 1
    ranges = pb.oracle._ranges(W.q**pi.N)
    assert len(ranges) == 4 and all(lo % 7**6 for lo, _ in ranges[1:])
    single = pb.oracle_distribution(P, pi, W, threads=1)
    multi = pb.oracle_distribution(P, pi, W, threads=4)
    assert single.histogram == multi.histogram
    assert single.fingerprint == multi.fingerprint
    assert single.to_table().counts == pb.distribution_general(P, pi, W).counts


def test_pool_builds_the_outer_sum_once(monkeypatch):
    # the calling thread counts the first range, and so builds the kernel's
    # outer sum, before the pool's workers read it; the slowed suffix
    # search would let two workers that both found it unbuilt build it twice
    P = pb.build_poset(4, [(1, 3), (2, 3)])
    pi = pb.label_map([2, 1, 2, 1])
    W = pb.lee_weight(5)
    want = pb.oracle_distribution(P, pi, W).histogram
    suffix_start = pb.oracle._suffix_start

    def slow_suffix_start(sizes):
        time.sleep(0.05)
        return suffix_start(sizes)

    spy = mock.Mock(side_effect=slow_suffix_start)
    monkeypatch.setattr(pb.oracle, "_CHUNK", 1000)
    monkeypatch.setattr(pb.oracle, "_suffix_start", spy)
    assert len(pb.oracle._ranges(W.q**pi.N)) == 16
    assert pb.oracle_distribution(P, pi, W, threads=2).histogram == want
    spy.assert_called_once_with([25, 5, 25, 5])


def test_thread_counts_are_at_least_one(ex45):
    # the check comes before the cap and the sweep: 7^13 vectors are over
    # the cap, so a bad count costs no vector (tests/test_inputs.py checks
    # that the count is an integer)
    P, pi, W = ex45
    for threads in (0, -1):
        with pytest.raises(pb.BoundsError, match=f"thread count {threads} < 1"):
            pb.oracle_distribution(P, pi, W, threads=threads)


def test_kernel_with_a_block_over_a_chunk():
    # q = 2 and k = 19: the last block alone exceeds a chunk, so no suffix
    # fits one and every vector's key sums both blocks' terms
    P = chain(2)
    pi = pb.label_map([1, 19])
    W = pb.hamming_weight(2)
    assert pb.oracle._suffix_start([2, 2**19]) == 2
    weigh = pb.oracle._weigher(P, pi, W).weigh
    for lo, hi in [(0, 5), (2**19 - 3, 2**19 + 4), (2**20 - 7, 2**20)]:
        want = [
            pb.pwpi_weight(P, pi, W, [v >> (19 - c) & 1 for c in range(20)])
            for v in range(lo, hi)
        ]
        assert weigh(lo, hi).tolist() == want
    res = pb.oracle_distribution(P, pi, W)
    assert res.to_table().counts == pb.distribution_chain(P, pi, W).counts


def test_kernel_ranks_every_block_on_one_scale():
    # every block of k >= 1 symbols attains every symbol weight, so one
    # radix, the number of distinct symbol weights, serves every block
    P = pb.build_poset(3, [(1, 3)])
    pi = pb.label_map([1, 3, 2])
    for W in (pb.lee_weight(7), pb.custom_weight(5, [0, 3, 3, 3, 3])):
        kernel = pb.oracle._weigher(P, pi, W)
        levels = sorted(set(W.table))
        assert kernel.radix == len(levels)
        assert len(kernel.table) == kernel.radix**pi.n
        for k, rank in zip(pi.k, kernel.ranks):
            want = [
                max(W.table[code // W.q**t % W.q] for t in range(k))
                for code in range(W.q**k)
            ]
            assert [levels[r] for r in rank.tolist()] == want


def test_small_chunks_give_the_same_answers(monkeypatch):
    # 64-vector chunks: many ranges, more profiles than a chunk, so the
    # kernel weighs its table in two slices and counts each range's weights,
    # and a suffix of only the last block, so most ranges cross its span
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
    assert pb.oracle._suffix_start([25, 5, 25, 5]) == 3
    got = (
        pb.oracle_distribution(P, pi, W, threads=2).histogram,
        [pb.oracle_perfectness(C, P, pi, W, radius=r) for r in range(pi.n * W.M_w + 1)],
        pb.oracle_perfectness(C, P, pi, W, ideal=I),
    )
    assert got == want


def test_profile_box_spans_several_chunks(monkeypatch):
    # 8-vector chunks: the balls are enumerated box by box, and block 1's
    # 26 codes of weight 1 span four chunks
    from test_properties import _check_perfectness

    P = antichain(2)
    pi = pb.label_map([3, 2])
    W = pb.lee_weight(3)
    monkeypatch.setattr(pb.oracle, "_CHUNK", 8)
    assert len(pb.oracle._weigher(P, pi, W).table) == 4
    size, chunks = pb.oracle._ball(P, pi, W, radius=1)
    assert size == 1 + 26 + 8 and len(list(chunks)) == 5
    for rows in ([[1, 2, 0, 1, 1]], [[1, 0, 0, 2, 1], [0, 0, 1, 1, 1]]):
        _check_perfectness(P, pi, W, pb.linear_code(3, rows))


def test_coset_keys_near_the_int64_limit():
    # 7^22 is within a factor of 3 of 2^63, and the vectors u + c for
    # codewords c, u near the top of the index range, form one coset: the
    # unreduced digits must key them all alike
    q, N = 7, 22
    rows = [[int(c == j) for c in range(N - 2)] + [6, 6] for j in range(N - 2)]
    C = pb.linear_code(q, rows)
    words = [[0] * N] + rows + [[(a + b) % q for a, b in zip(rows[0], r)] for r in rows[1:]]
    u = [q - 1] * (N - 1) + [q - 2]
    idx = [int("".join(str((a + b) % q) for a, b in zip(u, w)), q) for w in words]
    assert max(idx) >= q**N - q**3
    chunk = np.array(idx, dtype=np.int64)
    assert pb.oracle._coset_ball_counts(C, [chunk], q, N) == (len(words), 0, len(words))


def test_space_cap():
    P = chain(4)
    pi = pb.label_map([2, 2, 2, 2])
    with pytest.raises(pb.ExplosionError):
        pb.oracle_distribution(P, pi, pb.lee_weight(7), cap=10**6)


def test_space_cap_never_exceeds_int64(monkeypatch):
    # q^N = 2^64 does not fit an int64 vector index, whatever cap is set
    def unreachable(*args):
        raise AssertionError("a sweep started past the int64 index limit")

    monkeypatch.setattr(pb.oracle, "_weigher", unreachable)
    monkeypatch.setattr(pb.oracle, "_ranges", unreachable)
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


@pytest.mark.parametrize("n", [1, 2, 7, 255, 256])
def test_byte_keys_count_like_bincount(n):
    # pairs of uint8 keys counted as uint16: even and odd lengths, slices
    # that start at an odd byte (an unaligned uint16 view), the keys 0 and
    # n - 1 at both ends, and n = 256, 65,536 pair bins
    rng = np.random.default_rng(n)
    keys = rng.integers(0, n, size=1001, dtype=np.uint8)
    keys[:2], keys[-2:] = 0, n - 1
    count = pb.oracle._count_byte_keys
    for lo, hi in [(0, 0), (0, 1), (0, 2), (0, 1000), (0, 1001), (1, 1000), (1, 1001), (3, 8)]:
        got = count(keys[lo:hi], n)
        assert got.dtype == np.int64
        assert got.tolist() == np.bincount(keys[lo:hi], minlength=n).tolist(), (lo, hi)
    assert count(np.full(5, n - 1, dtype=np.uint8), n).tolist() == [0] * (n - 1) + [5]


def test_byte_keys_only_for_a_table_of_at_most_256_profiles(monkeypatch):
    # Lee at q = 7 has 4 symbol weights: 4^4 = 256 profiles key in uint8,
    # 4^5 = 1,024 profiles in int64, and 256 profiles past a 255-vector
    # chunk count each range's weights, not keys
    W = pb.lee_weight(7)
    paired = mock.Mock(wraps=pb.oracle._count_byte_keys)
    monkeypatch.setattr(pb.oracle, "_count_byte_keys", paired)
    for n, chunk, byte_keys in [(4, 1 << 18, True), (5, 1 << 18, False), (4, 255, False)]:
        P, pi = chain(n), pb.label_map([1] * n)
        monkeypatch.setattr(pb.oracle, "_CHUNK", chunk)
        paired.reset_mock()
        res = pb.oracle_distribution(P, pi, W)
        assert res.to_table().counts == pb.distribution_chain(P, pi, W).counts
        assert paired.called == byte_keys, n
