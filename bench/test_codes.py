"""Code rungs of the bench ladder, timed with pytest-benchmark.

Tier-1 collects only tests/, so these run only when named, from the
repository root:

    python -m pytest bench/test_codes.py --benchmark-json=out.json

Every rung calls only the public API, so the module can time another
tree too (pass -o pythonpath=TREE/src).  Each rung stores the process's
peak RSS (MiB) in its extra_info; run one rung per process to read that
peak as the rung's own, as bench/compare.py does.
"""

from __future__ import annotations

import random
import resource

import pytest

import posetblock as pb

ROUNDS = 3


def _mds_chain_dim6():
    """Both MDS-chain closed forms on the 8-chain with blocks of 2, Lee on
    Z_7, for the transversal code of dimension 6: 7^6 = 117,649 codewords."""
    P = pb.build_poset(8, [(i, i + 1) for i in range(1, 8)])
    pi = pb.label_map([2] * 8)
    W = pb.lee_weight(7)
    C = pb.chain_mds_code(P, pi, 7, 6)
    return lambda: (pb.mds_chain_distribution(C, P, pi, W), pb.mds_chain_ball_counts(C, P, pi, W))


def _verify_duality_chain6_q5():
    """verify_duality on the 6-chain with blocks of 2, Lee on Z_5, for the
    transversal code of dimension 6: 5^6 = 15,625 codewords in the code and
    as many in its dual."""
    P = pb.build_poset(6, [(i, i + 1) for i in range(1, 6)])
    pi = pb.label_map([2] * 6)
    W = pb.lee_weight(5)
    C = pb.chain_mds_code(P, pi, 5, 6)
    return lambda: pb.verify_duality(C, P, pi, W)


def _min_distance_wide():
    """min_distance of a seeded binary [128, 16] code on a 16-antichain with
    blocks of 8, Hamming: 2^16 codewords of 128 symbols."""
    rng = random.Random(16)
    P = pb.build_poset(16, [])
    pi = pb.label_map([8] * 16)
    C = pb.linear_code(2, [[rng.randrange(2) for _ in range(128)] for _ in range(16)])
    return lambda: pb.min_distance(C, P, pi, pb.hamming_weight(2))


RUNGS = {
    "mds_chain_dim6": _mds_chain_dim6,
    "verify_duality_chain6_q5": _verify_duality_chain6_q5,
    "min_distance_wide": _min_distance_wide,
}


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung(benchmark, rung):
    call = RUNGS[rung]()
    benchmark.pedantic(call, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)
