"""Weight models and the block weight-class sizes |D_r^k|."""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetblock as pb


def test_lee_weight_q7():
    W = pb.lee_weight(7)
    assert W.M_w == 3 and W.m_w == 1
    assert W.class_sizes == (1, 2, 2, 2)
    assert W.prefix == (0, 1, 3, 5, 7)


def test_lee_weight_small():
    assert pb.lee_weight(2).table == (0, 1)
    W4 = pb.lee_weight(4)
    assert W4.table == (0, 1, 2, 1)
    assert W4.class_sizes == (1, 2, 1)
    with pytest.raises(pb.BoundsError):
        pb.lee_weight(1)


def test_hamming_weight():
    W = pb.hamming_weight(7)
    assert W.m_w == W.M_w == 1
    assert W.class_sizes == (1, 6)
    W3 = pb.hamming_weight(3)
    assert W3.class_sizes == (1, 2) and W3.prefix == (0, 1, 3)
    assert pb.hamming_weight(2).table == pb.lee_weight(2).table


def test_custom_weight_validation():
    with pytest.raises(pb.InvalidWeightError):
        pb.custom_weight(3, [1, 1, 1])
    with pytest.raises(pb.InvalidWeightError):
        pb.custom_weight(3, [0, 0, 1])
    with pytest.raises(pb.InvalidWeightError):
        pb.custom_weight(3, [0, 1])


def test_custom_weight_scaled_hamming():
    W = pb.custom_weight(7, [0] + [3] * 6)
    assert W.m_w == W.M_w == 3
    assert pb.custom_weight(3, [0, 1, 1]).class_sizes == pb.hamming_weight(3).class_sizes
    assert pb.custom_weight(5, [0, 1, 2, 2, 1]).table == pb.lee_weight(5).table


def test_custom_weight_warnings():
    with pytest.warns(pb.WeightWarning):
        pb.custom_weight(5, [0, 1, 2, 2, 3])  # w(1) != w(4)
    with pytest.warns(pb.WeightWarning):
        pb.custom_weight(5, [0, 1, 5, 5, 1])  # w(1+1) > 2 w(1)


def test_metric_fault():
    fault = pb.weights.metric_fault
    assert fault(pb.lee_weight(7)) is None
    assert fault(pb.hamming_weight(5)) is None
    assert fault(pb.custom_weight(7, [0] + [3] * 6)) is None
    with pytest.warns(pb.WeightWarning):
        assert "not symmetric" in fault(pb.custom_weight(5, [0, 1, 2, 2, 3]))
    with pytest.warns(pb.WeightWarning):
        assert "not subadditive" in fault(pb.custom_weight(5, [0, 1, 5, 5, 1]))


def test_metric_fault_matches_the_definition():
    # metric_fault against the axioms read pair by pair, on seeded tables
    # drawn symmetric two times in three, so that every verdict occurs
    def by_definition(W):
        q, w = W.q, W.table
        if any(w[a] != w[q - a] for a in range(1, q)):
            return "not symmetric"
        if any(w[(a + b) % q] > w[a] + w[b] for a in range(q) for b in range(q)):
            return "not subadditive"
        return None

    rng = random.Random(14)
    seen = set()
    for _ in range(600):
        q = rng.choice((2, 3, 4, 5, 7, 11, 31))
        half = [rng.randint(1, 4) for _ in range(q // 2)]
        if rng.random() < 2 / 3:
            table = [0] + half + half[: (q - 1) // 2][::-1]
        else:
            table = [0] + [rng.randint(1, 4) for _ in range(q - 1)]
        W = pb.weights._derive(q, table, "custom")  # no warning
        fault, want = pb.weights.metric_fault(W), by_definition(W)
        assert (fault is None) == (want is None), table
        assert want is None or want in fault, table
        seen.add(want)
    assert seen == {None, "not symmetric", "not subadditive"}


@pytest.mark.parametrize("skips", [True, False])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_metric_fault_equals_the_pair_loop(skips, data):
    # symmetric tables on both sides of 2 m_w >= M_w, the side on which
    # metric_fault skips the pair loop: the verdict is the loop's
    q = data.draw(st.integers(4, 31))
    m = data.draw(st.integers(1, 4))
    top = 2 * m if skips else data.draw(st.integers(2 * m + 1, 5 * m))
    half = data.draw(st.lists(st.integers(m, top), min_size=q // 2, max_size=q // 2))
    half[0], half[-1] = m, top
    W = pb.weights._derive(q, [0] + half + half[: (q - 1) // 2][::-1], "custom")
    assert (W.m_w, W.M_w) == (m, top)
    w = W.table
    subadditive = all(w[(a + b) % q] <= w[a] + w[b] for a in range(q) for b in range(q))
    assert (pb.weights.metric_fault(W) is None) == subadditive


def test_block_class_sizes_q7_lee_reference():
    W = pb.lee_weight(7)
    expected = {
        (1, 2): 8, (2, 2): 16, (3, 2): 24,
        (2, 3): 98, (3, 3): 218,
        (1, 4): 80, (2, 4): 544, (3, 4): 1776,
    }
    for (r, k), value in expected.items():
        assert pb.block_class_size(W, r, k) == value
    # top class: q^k - (q - |D_{M_w}|)^k
    assert pb.block_class_size(W, 3, 2) == 7**2 - 5**2


def test_block_class_size_edges():
    W = pb.lee_weight(7)
    for k in range(1, 6):
        assert pb.block_class_size(W, 0, k) == 1
    for r in range(W.M_w + 1):
        assert pb.block_class_size(W, r, 1) == W.class_sizes[r]
    for r in (-1, 4):
        with pytest.raises(pb.BoundsError):
            pb.block_class_size(W, r, 2)
    with pytest.raises(pb.BoundsError):
        pb.block_class_size(W, 1, 0)


def test_block_classes_partition_space():
    for W in (pb.lee_weight(5), pb.hamming_weight(4), pb.lee_weight(7)):
        for k in range(1, 9):
            assert sum(
                pb.block_class_size(W, r, k) for r in range(W.M_w + 1)
            ) == W.q**k


def test_block_class_size_against_brute_force():
    for q in (2, 3, 5, 7):
        for W in (pb.lee_weight(q), pb.hamming_weight(q)):
            for k in (1, 2, 3):
                bins = [0] * (W.M_w + 1)
                for tup in product(range(q), repeat=k):
                    bins[max(W.table[v] for v in tup)] += 1
                for r in range(W.M_w + 1):
                    assert bins[r] == pb.block_class_size(W, r, k)


def test_weight_from_json():
    assert pb.weight_from_json(7, "lee").name == "lee"
    assert pb.weight_from_json(5, "hamming").name == "hamming"
    W = pb.weight_from_json(3, {"table": [0, 1, 1]})
    assert W.table == (0, 1, 1)
    with pytest.raises(pb.InvalidWeightError):
        pb.weight_from_json(3, "euclid")
