"""Block addressing, the (P,w,pi)-weight, and its induced distance."""

from __future__ import annotations

import random

import pytest

import posetblock as pb
from conftest import antichain, chain


def test_label_map():
    pi = pb.label_map([2, 3, 4, 2, 2])
    assert pi.N == 13
    assert pi.offsets == (0, 2, 5, 9, 11)
    assert pi.block_slice(3) == slice(5, 9)
    with pytest.raises(pb.BoundsError):
        pb.label_map([2, 0])


def test_pi_support(ex45):
    _, pi, _ = ex45
    assert pb.pi_support(pi, [0] * 13) == ()
    x = [1, 0, 0, 0, 3, 0, 0, 0, 0, 2, 0, 0, 0]
    assert pb.pi_support(pi, x) == (1, 2, 4)
    y = [0] * 13
    y[5] = 4  # inside block 3
    assert pb.pi_support(pi, y) == (3,)


def test_block_weight():
    W = pb.lee_weight(7)
    assert pb.block_weight(W, (1, 6, 2)) == 2
    assert pb.block_weight(W, (0, 0, 0)) == 0
    assert pb.block_weight(W, (3, 4)) == 3
    with pytest.raises(pb.BoundsError):
        pb.block_weight(W, ())


def test_pwpi_weight_example(ex45):
    P, pi, W = ex45
    assert pb.pwpi_weight(P, pi, W, [0] * 13) == 0
    # supp = {1,2,4}: ideal {1,2,4}, maximals {2,4}, non-maximal {1}
    x = [0] * 13
    x[0] = 1            # block 1: any nonzero, counts as M_w (non-maximal)
    x[2:5] = [3, 0, 0]  # block 2 with weight 3
    x[9:11] = [2, 0]    # block 4 with weight 2
    assert pb.pwpi_weight(P, pi, W, x) == 3 + 2 + W.M_w


def test_pwpi_weight_chain_formula():
    # on a chain: weight = top block weight + (ideal size - 1) * M_w
    rng = random.Random(5)
    P = chain(4)
    pi = pb.label_map([2, 1, 2, 1])
    W = pb.lee_weight(7)
    for _ in range(200):
        x = [rng.randrange(7) for _ in range(pi.N)]
        supp = pb.pi_support(pi, x)
        if not supp:
            continue
        top = max(supp)
        expected = pb.block_weight(W, x[pi.block_slice(top)]) + (top - 1) * W.M_w
        assert pb.pwpi_weight(P, pi, W, x) == expected


def test_pwpi_weight_range(ex45):
    P, pi, W = ex45
    rng = random.Random(9)
    for _ in range(300):
        x = [rng.randrange(7) for _ in range(pi.N)]
        w = pb.pwpi_weight(P, pi, W, x)
        assert 0 <= w <= pi.n * W.M_w
        assert (w == 0) == all(v == 0 for v in x)
    top = [3] * pi.N  # every block at the max Lee weight, full support
    assert pb.pwpi_weight(P, pi, W, top) == pi.n * W.M_w


def test_specialization_collapse():
    # k_i = 1 + Hamming = ideal size;  Hamming + antichain = support size
    rng = random.Random(17)
    P = pb.build_poset(5, [(1, 2), (1, 3), (4, 5)])
    pi = pb.label_map([1] * 5)
    H = pb.hamming_weight(5)
    for _ in range(200):
        x = [rng.randrange(5) for _ in range(5)]
        supp = pb.pi_support(pi, x)
        assert pb.pwpi_weight(P, pi, H, x) == pb.ideal_closure(P, supp).card
    A = antichain(4)
    pi2 = pb.label_map([2, 1, 2, 1])
    H3 = pb.hamming_weight(3)
    for _ in range(200):
        x = [rng.randrange(3) for _ in range(pi2.N)]
        assert pb.pwpi_weight(A, pi2, H3, x) == len(pb.pi_support(pi2, x))


def test_distance_axioms_sampled(ex45):
    P, pi, W = ex45
    rng = random.Random(23)
    for _ in range(200):
        x = [rng.randrange(7) for _ in range(pi.N)]
        y = [rng.randrange(7) for _ in range(pi.N)]
        z = [rng.randrange(7) for _ in range(pi.N)]
        c = [rng.randrange(7) for _ in range(pi.N)]
        dxy = pb.pwpi_distance(P, pi, W, x, y)
        assert dxy == pb.pwpi_distance(P, pi, W, y, x)
        assert (dxy == 0) == (x == y)
        assert pb.pwpi_distance(P, pi, W, x, z) <= dxy + pb.pwpi_distance(P, pi, W, y, z)
        xc = [(a + b) % 7 for a, b in zip(x, c)]
        yc = [(a + b) % 7 for a, b in zip(y, c)]
        assert pb.pwpi_distance(P, pi, W, xc, yc) == dxy


def test_distance_example_code(ex69):
    P, pi, W, C = ex69
    words = pb.codewords(C)
    dmin = min(
        pb.pwpi_distance(P, pi, W, a, b)
        for a in words
        for b in words
        if a != b
    )
    assert dmin == 11


def test_dimension_errors(ex45):
    P, pi, W = ex45
    with pytest.raises(pb.DimensionError):
        pb.pwpi_weight(P, pi, W, [0] * 12)
    with pytest.raises(pb.DimensionError):
        pb.pwpi_distance(P, pi, W, [0] * 13, [0] * 12)
    with pytest.raises(pb.DimensionError):
        pb.pwpi_weight(pb.build_poset(3, []), pi, W, [0] * 13)
