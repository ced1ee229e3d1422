"""Distribution tables: reference values, method agreement, oracle agreement."""

from __future__ import annotations

import json
import random
import time
from math import comb

import pytest

import posetblock as pb
from conftest import antichain, chain, disjoint_union, fence, ordinal_sum
from test_poset import random_poset


def test_example45_values(ex45):
    P, pi, W = ex45
    table = pb.distribution_general(P, pi, W)
    assert table.counts[0] == 1
    # hand sums over the ideal family: minimal blocks give |D_1^k| singles,
    # pairs of minimal blocks give |D_1 x D_1| products
    assert table.counts[1] == 8 + 80 + 8 + 8
    assert table.counts[2] == (16 + 544 + 16 + 16) + (640 + 64 + 64 + 640 + 640 + 64)
    assert table.counts[3] == 35384
    assert table.counts[14] == 22829377536
    assert table.check_normalization()


def test_small_chain_oracle_frozen():
    # 27-vector sweep, q=3 chain with Hamming weight: 1, 2, 6, 18
    P = chain(3)
    pi = pb.label_map([1, 1, 1])
    W = pb.hamming_weight(3)
    table = pb.distribution_general(P, pi, W)
    assert table.counts == (1, 2, 6, 18)
    assert pb.oracle_distribution(P, pi, W).to_table().counts == table.counts


def test_equal_blocks_matches_general():
    # equal blocks need no method of their own, and "equal" names none
    W = pb.lee_weight(5)
    P = pb.build_poset(4, [(1, 3), (2, 3)])
    pi = pb.label_map([2, 2, 2, 2])
    general = pb.distribution_general(P, pi, W)
    assert pb.distribution(P, pi, W).counts == general.counts
    assert general.counts == pb.oracle_distribution(P, pi, W).to_table().counts
    with pytest.raises(pb.PreconditionError):
        pb.distribution(P, pi, W, method="equal")


def test_equal_blocks_top_count():
    # |A_{n M_w}| = (q^k - (q - |D_{M_w}|)^k)^t * q^{k(n-t)}
    W = pb.lee_weight(5)
    P = pb.build_poset(4, [(1, 3), (2, 3)])  # maximal elements: 3, 4
    pi = pb.label_map([2, 2, 2, 2])
    table = pb.distribution(P, pi, W)
    t = 2
    assert table.counts[-1] == (5**2 - (5 - 2) ** 2) ** t * 5 ** (2 * (4 - t))


def test_antichain_hamming_binomials():
    q, n, k = 3, 4, 2
    args = antichain(n), pb.label_map([k] * n), pb.hamming_weight(q)
    for method in pb.applicable_methods(*args[:2]) + ["auto"]:
        table = pb.distribution(*args, method=method)
        for r in range(n + 1):
            assert table.counts[r] == comb(n, r) * (q**k - 1) ** r


def _level_form(P, pi, W):
    """The hierarchical theorem's level form, written out independently.

    A nonempty ideal is every lower level plus a nonempty subset S of one
    level, with S its maximal elements, so a level L above t elements of
    total block length K contributes
    q^K * x^(t*M_w) * (prod_{i in L} (1 + D_{k_i}(x)) - 1).
    """
    assert pb.classify(P).is_hierarchical
    q, M_w = W.q, W.M_w
    counts = [1] + [0] * (pi.n * M_w)
    below_exp = t = 0
    for level in pb.classify(P).levels.levels:
        poly = [1]
        for i in level:
            D = [1] + [pb.block_class_size(W, b, pi.k[i - 1]) for b in range(1, M_w + 1)]
            poly = [
                sum(poly[j] * D[e - j] for j in range(len(poly)) if 0 <= e - j < len(D))
                for e in range(len(poly) + M_w)
            ]
        for b in range(1, len(poly)):
            counts[t * M_w + b] += poly[b] * q**below_exp
        below_exp += sum(pi.k[i - 1] for i in level)
        t += len(level)
    return tuple(counts)


def test_hierarchical_matches_general():
    W = pb.lee_weight(3)
    P = pb.build_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)])  # levels 2, 2
    pi = pb.label_map([1, 1, 1, 1])
    assert _level_form(P, pi, W) == pb.distribution_general(P, pi, W).counts
    pi2 = pb.label_map([2, 1, 1, 2])
    assert _level_form(P, pi2, W) == pb.distribution_general(P, pi2, W).counts
    assert _level_form(P, pi2, W) == pb.oracle_distribution(P, pi2, W).to_table().counts


def test_hierarchical_hamming_closed_form():
    # |A_{t+a}| = C(n_j, a) (q^k - 1)^a q^{k(t+a-a)} with t the lower-level mass
    q, k = 3, 2
    P = pb.build_poset(5, [(i, top) for i in (1, 2) for top in (3, 4, 5)])
    pi = pb.label_map([k] * 5)
    table = pb.distribution_general(P, pi, pb.hamming_weight(q))
    sizes = (2, 3)
    t = 0
    for n_j in sizes:
        for a in range(1, n_j + 1):
            r = t + a
            assert table.counts[r] == comb(n_j, a) * (q**k - 1) ** a * q ** (k * (r - a))
        t += n_j


def test_chain_closed_form_vs_oracle():
    P = chain(3)
    pi = pb.label_map([2, 1, 2])
    W = pb.lee_weight(7)
    table = pb.distribution_chain(P, pi, W)
    oracle = pb.oracle_distribution(P, pi, W).to_table()
    assert table.counts == oracle.counts
    # shape: counts[t*M_w + a] = q^{k_1+...+k_t} |D_a^{k_{t+1}}|
    assert table.counts[1] == pb.block_class_size(W, 1, 2)
    assert table.counts[4] == 7**2 * pb.block_class_size(W, 1, 1)
    assert table.counts[7] == 7**3 * pb.block_class_size(W, 1, 2)
    with pytest.raises(pb.PreconditionError):
        pb.distribution_chain(antichain(3), pi, W)


def test_chain_structural_gaps_match_oracle():
    # m_w = 2 empties D_1, so every t*M_w + 1 slot is a forced zero; the
    # zeros are confirmed by the oracle, not assumed
    import warnings

    P = chain(3)
    pi = pb.label_map([1, 2, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        W = pb.custom_weight(5, [0, 2, 3, 3, 2])
    table = pb.distribution_chain(P, pi, W)
    oracle = pb.oracle_distribution(P, pi, W).to_table()
    assert table.counts == oracle.counts
    for t in range(3):
        assert table.counts[t * W.M_w + 1] == 0


def test_chain_unit_blocks_formula():
    # k_i = 1: counts[t*M_w + a] = q^t |D_a|
    q = 7
    W = pb.lee_weight(q)
    table = pb.distribution_chain(chain(4), pb.label_map([1] * 4), W)
    for t in range(4):
        for a in range(1, W.M_w + 1):
            assert table.counts[t * W.M_w + a] == q**t * W.class_sizes[a]


def test_specialized_pw_equals_general():
    # pw-space: unit blocks under a non-Hamming weight, checked by the oracle
    rng = random.Random(31)
    W = pb.custom_weight(5, [0, 1, 2, 2, 1])
    for _ in range(5):
        P = random_poset(5, rng)
        pi = pb.label_map([1] * 5)
        oracle = pb.oracle_distribution(P, pi, W).to_table().counts
        assert pb.distribution_general(P, pi, W).counts == oracle
        assert pb.distribution(P, pi, W).counts == oracle


def test_specialized_ppi_equals_general():
    # ppi-space (Hamming weight): |A_r| = sum over ideals I with |I| = r of
    # prod_{i in Max I} (q^{k_i} - 1) * q^(sum of k_l over I \ Max I)
    rng = random.Random(37)
    q = 3
    W = pb.hamming_weight(q)
    for _ in range(5):
        P = random_poset(4, rng)
        pi = pb.label_map([rng.randint(1, 3) for _ in range(4)])
        expected = [0] * 5
        for ideal in pb.enumerate_ideals(P).ideals:
            term = q ** sum(pi.k[l - 1] for l in ideal.non_maximals)
            for i in ideal.maximals:
                term *= q ** pi.k[i - 1] - 1
            expected[ideal.card] += term
        assert pb.distribution_general(P, pi, W).counts == tuple(expected)
        assert pb.distribution(P, pi, W).counts == tuple(expected)


def test_specialized_pi_space():
    # pi-space (antichain, Hamming weight): |A_r| = C(n, r) (q^k - 1)^r
    q, n, k = 2, 3, 2
    args = antichain(n), pb.label_map([k] * n), pb.hamming_weight(q)
    expected = tuple(comb(n, r) * 3**r for r in range(n + 1))
    for method in pb.applicable_methods(*args[:2]) + ["auto"]:
        assert pb.distribution(*args, method=method).counts == expected
    assert pb.oracle_distribution(*args).to_table().counts == expected


def test_specialized_p_space():
    # p-space (chain, unit blocks, Hamming weight): |A_r| = q^(r-1) (q - 1)
    q, n = 3, 4
    args = chain(n), pb.label_map([1] * n), pb.hamming_weight(q)
    expected = (1,) + tuple(q ** (r - 1) * (q - 1) for r in range(1, n + 1))
    for method in pb.applicable_methods(*args[:2]):
        assert pb.distribution(*args, method=method).counts == expected
    assert pb.oracle_distribution(*args).to_table().counts == expected


def test_ball_volume(ex45):
    P, pi, W = ex45
    table = pb.distribution_general(P, pi, W)
    assert pb.ball_volume(table, 0) == 1
    assert pb.ball_volume(table, table.max_weight) == 7**13
    assert pb.ball_volume(table, 5) == sum(table.counts[:6])
    with pytest.raises(pb.BoundsError):
        pb.ball_volume(table, table.max_weight + 1)


def test_chain_ball_volumes():
    # |B_{t M_w}| = q^{k_1 + ... + k_t}
    P = chain(3)
    pi = pb.label_map([2, 1, 2])
    W = pb.lee_weight(5)
    table = pb.distribution_chain(P, pi, W)
    prefix = 0
    for t in range(4):
        assert pb.ball_volume(table, t * W.M_w) == 5**prefix
        if t < 3:
            prefix += pi.k[t]


def test_method_dispatch(ex45):
    P, pi, W = ex45
    assert pb.distribution(P, pi, W).method == "general"
    assert pb.distribution(chain(3), pb.label_map([1, 2, 1]), W).method == "chain"
    assert pb.distribution(antichain(3), pb.label_map([1, 2, 1]), W).method == "general"
    P4 = pb.build_poset(4, [(1, 3), (2, 3)])
    assert pb.distribution(P4, pb.label_map([2] * 4), pb.lee_weight(3)).method == "general"
    forced = pb.distribution(chain(3), pb.label_map([1, 2, 1]), W, method="general")
    assert forced.method == "general"
    assert forced.counts == pb.distribution_chain(chain(3), pb.label_map([1, 2, 1]), W).counts


def test_randomized_method_and_oracle_agreement():
    rng = random.Random(41)
    for _ in range(6):
        q = rng.choice([2, 3, 5])
        n = rng.randint(2, 4)
        P = random_poset(n, rng)
        pi = pb.label_map([rng.randint(1, 2) for _ in range(n)])
        if q**pi.N > 10**6:
            pi = pb.label_map([1] * n)
        W = rng.choice([pb.lee_weight(q), pb.hamming_weight(q)])
        tables = {
            m: pb.distribution(P, pi, W, method=m).counts
            for m in pb.applicable_methods(P, pi)
        }
        oracle = pb.oracle_distribution(P, pi, W).to_table().counts
        for m, counts in tables.items():
            assert counts == oracle, f"method {m} disagrees with oracle"
        assert sum(oracle) == q**pi.N


def test_asymmetric_weight_distribution_matches_oracle():
    # the counting formulas need neither symmetry nor subadditivity
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        W = pb.custom_weight(5, [0, 3, 1, 2, 2])
    rng = random.Random(101)
    for _ in range(4):
        P = random_poset(4, rng)
        pi = pb.label_map([rng.randint(1, 2) for _ in range(4)])
        general = pb.distribution_general(P, pi, W)
        oracle = pb.oracle_distribution(P, pi, W).to_table()
        assert general.counts == oracle.counts


def test_three_level_hierarchical_vs_general_and_oracle():
    relations = [(a, b) for a in (1,) for b in (2, 3, 4)]
    relations += [(a, b) for a in (2, 3, 4) for b in (5, 6)]
    relations += [(1, 5), (1, 6)]
    P = pb.build_poset(6, relations)
    assert pb.classify(P).levels.level_sizes == (1, 3, 2)
    pi = pb.label_map([1, 2, 1, 1, 1, 2])
    W = pb.lee_weight(2)
    g = pb.distribution_general(P, pi, W)
    o = pb.oracle_distribution(P, pi, W).to_table()
    assert _level_form(P, pi, W) == g.counts == o.counts


def test_arrangement_cap_propagates():
    # the ideal cap bounds the pieces split on a maximal element: a 12-fence
    # splits 8 of them, through both entry points, also inside a disjoint
    # union and an ordinal sum
    W = pb.lee_weight(7)
    for n, pairs in (fence(12), ordinal_sum(disjoint_union(fence(12), (1, [])), (2, []))):
        P, pi = pb.build_poset(n, pairs), pb.label_map([1] * n)
        with pytest.raises(pb.ExplosionError, match="cap 7"):
            pb.distribution_general(P, pi, W, ideal_cap=7)
        with pytest.raises(pb.ExplosionError, match="cap 7"):
            pb.distribution(P, pi, W, method="general", ideal_cap=7)
        assert pb.distribution(P, pi, W, ideal_cap=8).check_normalization()
    # an antichain decomposes into single elements and splits no piece
    table = pb.distribution(antichain(8), pb.label_map([1] * 8), W, ideal_cap=0)
    assert table.check_normalization()


def _timed(fn):
    start = time.perf_counter()
    table = fn()
    return table, time.perf_counter() - start


def test_ex45_q101_general_under_a_second(ex45):
    # M_w = 50: about 110 s through the former partition and arrangement sum
    P, pi, _ = ex45
    table, seconds = _timed(
        lambda: pb.distribution(P, pi, pb.lee_weight(101), method="general"))
    assert table.check_normalization()
    assert seconds < 1.0


def test_mixed_block_antichain_n20_auto_under_a_second():
    # 2^20 ideals; a disjoint union of single elements enumerates none
    pi = pb.label_map([1 + i % 3 for i in range(20)])
    table, seconds = _timed(
        lambda: pb.distribution(antichain(20), pi, pb.lee_weight(7)))
    assert table.method == "general" and table.check_normalization()
    assert seconds < 1.0


def test_mixed_block_antichain_n24_general_under_a_second():
    # 2^24 ideals, over the default ideal cap of 2^22
    pi = pb.label_map([1 + i % 3 for i in range(24)])
    table, seconds = _timed(
        lambda: pb.distribution(antichain(24), pi, pb.lee_weight(7), method="general"))
    assert table.check_normalization()
    assert seconds < 1.0


def test_long_fences_split_on_a_maximal_element():
    # a fence has Fibonacci(n) ideals; walking the 24-fence's took about 2 s
    W = pb.lee_weight(7)
    for n, bound in ((24, 0.2), (48, 2.0)):
        P = pb.build_poset(*fence(n))
        pi = pb.label_map([1 + i % 3 for i in range(n)])
        table, seconds = _timed(lambda: pb.distribution(P, pi, W))
        assert table.method == "general" and table.check_normalization()
        assert seconds < bound
        best = pb.codes._max_ideal_k_sums(P, pi)
        assert len(best) == n + 1 and best[n] == pi.N


def test_series_parallel_n24_general_under_a_second():
    # unions and ordinal sums of antichains and chains, nested three deep
    def chain_of(m):
        return m, [(i, i + 1) for i in range(1, m)]

    n, pairs = ordinal_sum(
        disjoint_union(ordinal_sum((3, []), (4, [])), chain_of(3), (2, [])),
        (5, []),
        disjoint_union(chain_of(2), ordinal_sum((2, []), chain_of(3))),
    )
    assert n == 24
    P = pb.build_poset(n, pairs)
    pi = pb.label_map([1 + i % 3 for i in range(n)])
    table, seconds = _timed(
        lambda: pb.distribution(P, pi, pb.lee_weight(7), method="general"))
    assert table.check_normalization()
    assert seconds < 1.0


def test_json_and_csv_serialization(ex45):
    P, pi, W = ex45
    table = pb.distribution_general(P, pi, W)
    payload = json.loads(pb.table_to_json(table))
    assert payload["q"] == 7 and payload["N"] == 13
    assert payload["counts"][14]["count"] == "22829377536"
    round_trip = pb.table_from_json_dict(payload)
    assert round_trip.counts == table.counts
    csv_text = pb.table_to_csv(table)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "r,count"
    assert lines[15] == "14,22829377536"
