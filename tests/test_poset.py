"""Poset construction, ideal enumeration, duals, classification."""

from __future__ import annotations

import gc
import random
import re
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import posetblock as pb
from conftest import antichain, chain, fence


def random_poset(n: int, rng: random.Random) -> pb.Poset:
    pairs = []
    for a, b in combinations(range(1, n + 1), 2):
        if rng.random() < 0.4:
            pairs.append((a, b))  # a < b keeps the relation acyclic
    return pb.build_poset(n, pairs)


def test_build_poset_closure():
    P = pb.build_poset(4, [(1, 2), (2, 3), (3, 4)])
    assert P.leq(1, 4) and P.leq(2, 4) and P.leq(1, 1)
    assert not P.leq(4, 1)


def test_build_poset_single_relation():
    P = pb.build_poset(5, [(1, 2)])
    assert P.leq(1, 2)
    incomparable = [(a, b) for a in range(1, 6) for b in range(1, 6)
                    if a != b and (a, b) != (1, 2)]
    assert all(not P.leq(a, b) for a, b in incomparable)


def test_build_poset_errors():
    with pytest.raises(pb.CycleError):
        pb.build_poset(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(pb.BoundsError):
        pb.build_poset(3, [(0, 2)])
    with pytest.raises(pb.BoundsError):
        pb.build_poset(3, [(1, 4)])
    with pytest.raises(pb.BoundsError):
        pb.build_poset(65, [])
    assert pb.build_poset(64, []).n == 64


def _comparable_pair(err):
    found = re.fullmatch(r"elements (\d+) and (\d+) are mutually comparable", str(err))
    return tuple(map(int, found.groups()))


def test_cycle_error_names_a_mutually_comparable_pair():
    # a 2-cycle, and a 3-cycle that only the transitive closure shows, each
    # beside an element outside it
    with pytest.raises(pb.CycleError) as exc:
        pb.build_poset(3, [(1, 3), (3, 2), (2, 3)])
    assert _comparable_pair(exc.value) == (2, 3)
    with pytest.raises(pb.CycleError) as exc:
        pb.build_poset(4, [(4, 1), (2, 3), (3, 4), (4, 2)])
    a, b = _comparable_pair(exc.value)
    assert a != b and {a, b} <= {2, 3, 4}


def test_ideal_closure_example(ex45):
    P, _, _ = ex45
    ideal = pb.ideal_closure(P, {2, 4})
    assert ideal.members == (1, 2, 4)
    assert ideal.maximals == (2, 4)


def test_ideal_closure_trivial():
    P = chain(4)
    assert pb.ideal_closure(P, ()).members == ()
    ideal = pb.ideal_closure(P, {3})
    assert ideal.members == (1, 2, 3)
    assert ideal.maximals == (3,)


def test_enumerate_ideals_example45_family(ex45):
    P, _, _ = ex45
    fam = pb.enumerate_ideals(P)
    expected = {
        (0, 0): 1,
        (1, 1): 4,
        (2, 1): 1,
        (2, 2): 6,
        (3, 2): 3,
        (3, 3): 4,
        (4, 3): 3,
        (4, 4): 1,
        (5, 4): 1,
    }
    assert Counter((i.card, i.max_count) for i in fam.ideals) == expected
    # ideals carry the right maximal counts and are in ascending mask order
    masks = [ideal.members_mask for ideal in fam.ideals]
    assert masks == sorted(masks)
    for ideal in fam.ideals:
        assert ideal.max_count == len(ideal.maximals)
        # downward closure
        for b in ideal.members:
            for a in range(1, P.n + 1):
                if P.leq(a, b):
                    assert ideal.contains(a)


def test_enumerate_ideals_antichain_counts():
    for n in (3, 5, 8):
        totals = Counter(i.card for i in pb.enumerate_ideals(antichain(n)).ideals)
        for r in range(n + 1):
            assert totals[r] == comb(n, r)


def test_enumerate_ideals_chain_counts():
    fam = pb.enumerate_ideals(chain(6))
    assert len(fam) == 7
    totals = Counter(i.card for i in fam.ideals)
    assert all(totals[t] == 1 for t in range(7))


def test_enumerate_ideals_cap():
    with pytest.raises(pb.ExplosionError):
        pb.enumerate_ideals(antichain(10), cap=100)


def test_family_partition_identity():
    rng = random.Random(7)
    for _ in range(10):
        fam = pb.enumerate_ideals(random_poset(6, rng))
        groups = Counter((i.card, i.max_count) for i in fam.ideals)
        totals = Counter(i.card for i in fam.ideals)
        for i, total in totals.items():
            assert sum(n for (card, _j), n in groups.items() if card == i) == total


def test_dual_poset_involution_and_complement_bijection(ex45):
    P, _, _ = ex45
    assert pb.dual_poset(pb.dual_poset(P)) == P
    Pd = pb.dual_poset(P)
    full = (1 << P.n) - 1
    masks = {i.members_mask for i in pb.enumerate_ideals(P).ideals}
    dual_masks = {i.members_mask for i in pb.enumerate_ideals(Pd).ideals}
    assert dual_masks == {full & ~m for m in masks}
    # the worked example: {1,2,4} complements to {3,5}
    ideal = pb.ideal_closure(P, {2, 4})
    comp = full & ~ideal.members_mask
    assert comp in dual_masks
    assert tuple(i + 1 for i in range(5) if (comp >> i) & 1) == (3, 5)


def test_dual_chain_and_antichain():
    P = chain(3)
    Pd = pb.dual_poset(P)
    assert Pd.leq(3, 2) and Pd.leq(2, 1) and not Pd.leq(1, 2)
    A = antichain(4)
    assert pb.dual_poset(A) == A


def test_classify():
    c = pb.classify(chain(4))
    assert c.is_chain and c.is_hierarchical and not c.is_antichain
    assert c.levels.level_sizes == (1, 1, 1, 1)

    a = pb.classify(antichain(4))
    assert a.is_antichain and a.is_hierarchical and not a.is_chain
    assert a.levels.height == 1

    nh = pb.classify(pb.build_poset(5, [(1, 2)]))
    assert not nh.is_hierarchical  # element 1 is not below 3, 4, 5

    h = pb.classify(pb.build_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)]))
    assert h.is_hierarchical and h.levels.level_sizes == (2, 2)


def test_chain_order_follows_relation():
    P = pb.build_poset(3, [(3, 1), (1, 2)])  # chain 3 <= 1 <= 2
    assert pb.chain_order(P) == (3, 1, 2)
    with pytest.raises(pb.PreconditionError):
        pb.chain_order(antichain(3))


def test_is_finer():
    P = pb.build_poset(4, [(1, 2)])
    Q = pb.build_poset(4, [(1, 2), (2, 3)])
    assert pb.is_finer(P, Q)
    assert not pb.is_finer(Q, P)
    assert pb.is_finer(P, P)
    assert pb.is_finer(antichain(4), Q)
    assert not pb.is_finer(chain(4), antichain(4))
    with pytest.raises(pb.DimensionError):
        pb.is_finer(chain(3), chain(4))


def test_prop_containment_between_tiers():
    # every ideal of size t contains one of each smaller size from the family
    # and is contained in one of each larger size
    rng = random.Random(11)
    for _ in range(8):
        P = random_poset(6, rng)
        fam = pb.enumerate_ideals(P)
        by_card = {i: fam.of_card(i) for i in range(P.n + 1)}
        for ideal in fam.ideals:
            for s in range(ideal.card):
                assert any(
                    j.members_mask & ~ideal.members_mask == 0 for j in by_card[s]
                )
            for t in range(ideal.card + 1, P.n + 1):
                assert any(
                    ideal.members_mask & ~j.members_mask == 0 for j in by_card[t]
                )


def test_unique_ideal_tier_structure():
    # posets with a unique ideal of size t <= n-1: that ideal sits inside
    # I \ Max(I) for every bigger ideal, and below everything outside it
    posets = [chain(5), pb.build_poset(4, [(1, 3), (1, 4), (2, 3), (2, 4)])]
    for P in posets:
        fam = pb.enumerate_ideals(P)
        for t in range(1, P.n):
            tier = fam.of_card(t)
            if len(tier) != 1:
                continue
            J = tier[0]
            for ideal in fam.ideals:
                if ideal.card > t:
                    assert J.members_mask & ~ideal.members_mask == 0
                    assert J.members_mask & ideal.max_mask == 0
                if ideal.members_mask & ~J.members_mask:
                    assert J.members_mask & ~ideal.members_mask == 0
                    assert J.members_mask != ideal.members_mask
                    assert J.members_mask & ideal.max_mask == 0
            for a in J.members:
                for b in range(1, P.n + 1):
                    if not J.contains(b):
                        assert P.leq(a, b)


def test_poset_json_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        P = random_poset(6, rng)
        assert pb.poset_from_json(P.to_json_dict()) == P


def test_ideals_with_sum_honours_the_cap():
    # C(6, 3) = 20 ideals of sum 3 on a 6-antichain, which splits no piece
    P, k = antichain(6), [1] * 6
    with pytest.raises(pb.ExplosionError, match="ideal count exceeds cap 19"):
        pb.poset.ideals_with_sum(P, k, 3, cap=19)
    assert len(pb.poset.ideals_with_sum(P, k, 3, cap=20)) == 20
    # the 3 x 4 grid has 2 ideals of size 2; the fold splits the 6 pieces, and
    # the listing, an algebra on it, spends the cap on them too
    def at(i, j):
        return 4 * i + j + 1

    pairs = [(at(i, j), at(i + 1, j)) for i in range(2) for j in range(4)]
    pairs += [(at(i, j), at(i, j + 1)) for i in range(3) for j in range(3)]
    P = pb.build_poset(12, pairs)
    with pytest.raises(pb.ExplosionError, match="maximal element exceed cap 5"):
        pb.poset.ideals_with_sum(P, [1] * 12, 2, cap=5)
    assert pb.poset.ideals_with_sum(P, [1] * 12, 2, cap=6) == [0b11, 0b10001]


def test_fold_ideals_frees_its_values_when_it_returns():
    # fold refers to itself through its closure, so with the collector off
    # only the memo's clearing frees the values it holds
    class Value:
        pass

    refs = []

    def value(*args):
        v = Value()
        refs.append(weakref.ref(v))
        return v

    P = pb.build_poset(*fence(6))
    enabled = gc.isenabled()
    gc.disable()
    try:
        pb.poset.fold_ideals(P, value(), value, value, value, value)
        alive = sum(ref() is not None for ref in refs)
    finally:
        if enabled:
            gc.enable()
    assert len(refs) > 6 and alive == 0
