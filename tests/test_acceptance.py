"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

from __future__ import annotations

import random
import time
import warnings
from collections import Counter

import pytest

import posetblock as pb
from conftest import chain
from test_poset import random_poset


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _custom(q: int) -> pb.WeightModel:
    # symmetric tables so only subadditivity may warn; counting needs neither
    tables = {
        2: [0, 2],
        3: [0, 2, 2],
        5: [0, 1, 3, 3, 1],
        7: [0, 1, 3, 2, 2, 3, 1],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        return pb.custom_weight(q, tables[q])


def sample_instances(count: int, seed: int, max_space: int = 10**6):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        P = random_poset(n, rng)
        pi = pb.label_map([rng.randint(1, 3) for _ in range(n)])
        if q**pi.N > max_space:
            continue
        W = rng.choice(
            [pb.lee_weight(q), pb.hamming_weight(q), _custom(q)]
        )
        out.append((P, pi, W))
    return out


@pytest.fixture(scope="module")
def sweep_instances():
    """The criterion-3 corpus plus its computed tables, shared with 4 and 11."""
    instances = sample_instances(25, seed=20240901)
    computed = []
    for P, pi, W in instances:
        oracle = pb.oracle_distribution(P, pi, W).to_table()
        tables = {
            m: pb.distribution(P, pi, W, method=m)
            for m in pb.applicable_methods(P, pi)
        }
        computed.append((P, pi, W, oracle, tables))
    return computed


def test_criterion_1_example45_reproduction(ex45):
    P, pi, W = ex45
    start = time.monotonic()
    table = pb.distribution_general(P, pi, W)
    elapsed = time.monotonic() - start
    ok = (
        table.counts[3] == 35384
        and table.counts[14] == 22829377536
        and elapsed < 1.0
    )
    verdict(1, ok, f"A_3={table.counts[3]}, A_14={table.counts[14]}, {elapsed:.3f}s")


def test_criterion_2_block_class_table():
    W = pb.lee_weight(7)
    expected = {
        (1, 2): 8, (2, 2): 16, (3, 2): 24,
        (2, 3): 98, (3, 3): 218,
        (1, 4): 80, (2, 4): 544, (3, 4): 1776,
    }
    got = {key: pb.block_class_size(W, *key) for key in expected}
    verdict(2, got == expected, f"|D_r^k| table: {got}")


def test_criterion_3_oracle_equivalence_sweep(sweep_instances):
    start = time.monotonic()
    mismatches = []
    for P, pi, W, oracle, tables in sweep_instances:
        for method, table in tables.items():
            if table.counts != oracle.counts:
                mismatches.append((W.q, pi.k, method))
    elapsed = time.monotonic() - start
    ok = not mismatches and len(sweep_instances) >= 25
    verdict(
        3,
        ok,
        f"{len(sweep_instances)} instances, all methods equal oracle "
        f"(+{elapsed:.1f}s after shared setup); mismatches={mismatches}",
    )


def test_criterion_4_normalization(sweep_instances):
    bad = [
        (W.q, pi.k)
        for _, pi, W, oracle, tables in sweep_instances
        if oracle.total() != W.q**pi.N
        or any(t.total() != W.q**pi.N for t in tables.values())
    ]
    verdict(4, not bad, f"sum(counts) == q^N on all instances; bad={bad}")


def test_criterion_5_example69(ex69):
    start = time.monotonic()
    P, pi, W, C = ex69
    rep = pb.singleton_report(C, P, pi, W)
    tier = pb.enumerate_ideals(P).of_card(4)
    i_perfect = [
        pb.oracle_perfectness(C, P, pi, W, ideal=I) for I in tier
    ]
    twelve = pb.is_r_perfect(C, 12, P, pi, W)
    elapsed = time.monotonic() - start
    checks = {
        "d_ppi=5": rep.d_ppi == 5,
        "d_pwpi=11": rep.d_pwpi == 11,
        "r_wtilde=3": rep.r_wtilde == 3,
        "lhs=6<7": rep.singleton_lhs == 6 and rep.singleton_rhs == 7,
        "not MDS pwpi": not rep.is_mds_pwpi,
        "MDS ppi": rep.is_mds_ppi,
        "I-perfect both": len(tier) == 2
        and all(r.disjoint and r.covering for r in i_perfect),
        "not 12-perfect": not twelve,
        "runtime<120s": elapsed < 120,
    }
    verdict(5, all(checks.values()), f"{checks} ({elapsed:.1f}s)")


def test_criterion_6_example73(ex73):
    P, pi, W, C = ex73
    rep = pb.singleton_report(C, P, pi, W)
    s = pi.k[0]
    checks = {
        "s=2": s == 2,
        "d_ppi=5": rep.d_ppi == 5,
        "MDS ppi": rep.is_mds_ppi,
        "d_pwpi=11": rep.d_pwpi == 11,
        "r_wtilde=3<4": rep.r_wtilde == 3 and rep.r_wtilde < pi.n - C.k // s,
        "not MDS pwpi": not rep.is_mds_pwpi,
    }
    verdict(6, all(checks.values()), str(checks))


def test_criterion_7_chain_closed_forms():
    rng = random.Random(77)
    failures = []
    cases = 0
    while cases < 12:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        ks = [rng.randint(1, 3) for _ in range(n)]
        pi = pb.label_map(ks)
        if q**pi.N > 10**6:
            continue
        P = chain(n)
        W = rng.choice([pb.lee_weight(q), pb.hamming_weight(q)])
        table = pb.distribution_chain(P, pi, W)
        oracle = pb.oracle_distribution(P, pi, W).to_table()
        if table.counts != oracle.counts:
            failures.append((q, ks, "table"))
        for r in range(table.max_weight + 1):
            if pb.ball_volume(table, r) != sum(oracle.counts[: r + 1]):
                failures.append((q, ks, f"ball r={r}"))
        prefix = 0
        for t in range(n + 1):
            if pb.ball_volume(table, t * W.M_w) != q**prefix:
                failures.append((q, ks, f"ball t={t}"))
            if t < n:
                prefix += ks[t]
        cases += 1
    verdict(7, not failures, f"{cases} random chains vs oracle; failures={failures}")


def test_criterion_8_duality_on_chains():
    rng = random.Random(88)
    results = []
    while len(results) < 10:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        s = rng.choice([1, 2])
        dim = rng.choice(range(s, n * s, s))
        P = chain(n)
        pi = pb.label_map([s] * n)
        W = rng.choice([pb.lee_weight(q), pb.hamming_weight(q)])
        C = pb.chain_mds_code(P, pi, q, dim)
        results.append(pb.verify_duality(C, P, pi, W))
    verdict(8, all(results), f"{len(results)} chain codes, verify_duality={results}")


def test_criterion_9_mds_chain_distribution():
    rng = random.Random(99)
    failures = []
    cases = 0
    while cases < 10:
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 4)
        s = rng.choice([1, 2])
        dim = rng.choice(range(s, n * s + 1, s))
        P = chain(n)
        pi = pb.label_map([s] * n)
        W = rng.choice([pb.lee_weight(q), pb.hamming_weight(q)])
        C = pb.chain_mds_code(P, pi, q, dim)
        closed = pb.mds_chain_distribution(C, P, pi, W)
        direct = [0] * (n * W.M_w + 1)
        for c in pb.codewords(C):
            direct[pb.pwpi_weight(P, pi, W, c)] += 1
        if closed != tuple(direct):
            failures.append((q, n, s, dim, "distribution"))
        balls = pb.mds_chain_ball_counts(C, P, pi, W)
        exhaustive = tuple(sum(direct[: r + 1]) for r in range(n * W.M_w + 1))
        if balls != exhaustive:
            failures.append((q, n, s, dim, "ball counts"))
        cases += 1
    verdict(9, not failures, f"{cases} MDS chain codes; failures={failures}")


def test_criterion_10_metric_axioms():
    rng = random.Random(1010)
    total = 0
    violations = 0
    for _ in range(10):
        q = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, 5)
        P = random_poset(n, rng)
        pi = pb.label_map([rng.randint(1, 3) for _ in range(n)])
        for W in (pb.lee_weight(q), pb.hamming_weight(q)):
            report = pb.oracle_metric_axioms(P, pi, W, samples=10**5, seed=rng.randrange(2**31))
            total += report.samples
            violations += report.violation_count
    verdict(10, violations == 0, f"{total} triples checked, {violations} violations")


def test_criterion_11_structural_invariants(sweep_instances):
    failures = []
    for P, pi, W, _oracle, _tables in sweep_instances:
        fam = pb.enumerate_ideals(P)
        # partition identity: sum_j |I_j^i| = |I^i|
        groups = Counter((i.card, i.max_count) for i in fam.ideals)
        totals = Counter(i.card for i in fam.ideals)
        for i, total in totals.items():
            if sum(g for (c, _), g in groups.items() if c == i) != total:
                failures.append((pi.k, f"partition identity i={i}"))
        # dual complement bijection
        full = (1 << P.n) - 1
        masks = {i.members_mask for i in fam.ideals}
        dual_masks = {i.members_mask for i in pb.enumerate_ideals(pb.dual_poset(P)).ideals}
        if dual_masks != {full & ~m for m in masks}:
            failures.append((pi.k, "dual complement bijection"))
        # containments between tiers
        by_card = {i: fam.of_card(i) for i in range(P.n + 1)}
        for ideal in fam.ideals:
            if not all(
                any(j.members_mask & ~ideal.members_mask == 0 for j in by_card[s])
                for s in range(ideal.card)
            ):
                failures.append((pi.k, "containment down"))
            if not all(
                any(ideal.members_mask & ~j.members_mask == 0 for j in by_card[t])
                for t in range(ideal.card + 1, P.n + 1)
            ):
                failures.append((pi.k, "containment up"))
        # unique-ideal tier structure
        for t in range(1, P.n):
            tier = by_card[t]
            if len(tier) != 1:
                continue
            J = tier[0]
            for ideal in fam.ideals:
                if ideal.card > t and (
                    J.members_mask & ~ideal.members_mask
                    or J.members_mask & ideal.max_mask
                ):
                    failures.append((pi.k, f"unique ideal t={t}"))
            if not all(
                P.leq(a, b)
                for a in J.members
                for b in range(1, P.n + 1)
                if not J.contains(b)
            ):
                failures.append((pi.k, f"unique ideal order t={t}"))
    verdict(11, not failures, f"invariants on all instances; failures={failures}")
