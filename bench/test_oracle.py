"""Oracle sweep rungs of the bench ladder, timed with pytest-benchmark.

Each rung is one oracle_distribution call, a weight histogram by sweeping
every vector of the space.  Run them from the repository root:

    python -m pytest bench/test_oracle.py --benchmark-json=out.json

Like bench/test_perfectness.py, every rung calls only the public API, so
-o pythonpath=TREE/src times another tree, and bench/compare.py runs each
rung in its own process on two trees.  Each rung stores the process's peak
RSS (MiB) and the sweep rate, vectors per second at the median round, in
its extra_info.
"""

from __future__ import annotations

import resource

import pytest

import posetblock as pb

ROUNDS = 3


def _chain_7e8():
    """Z_7^8 on a 4-chain with blocks of 2, Lee weight."""
    P = pb.build_poset(4, [(1, 2), (2, 3), (3, 4)])
    return P, pb.label_map([2, 2, 2, 2]), pb.lee_weight(7)


def _four_blocks_5e10():
    """Z_5^10 on the N poset (1 < 3 > 2 < 4), blocks of 3, 3, 2, 2, Lee weight."""
    P = pb.build_poset(4, [(1, 3), (2, 3), (2, 4)])
    return P, pb.label_map([3, 3, 2, 2]), pb.lee_weight(5)


RUNGS = {
    "sweep_chain_7e8": _chain_7e8,
    "sweep_four_blocks_5e10": _four_blocks_5e10,
}


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung(benchmark, rung):
    P, pi, W = RUNGS[rung]()
    result = benchmark.pedantic(
        lambda: pb.oracle_distribution(P, pi, W),
        rounds=ROUNDS,
        iterations=1,
        warmup_rounds=1,
    )
    assert result.total == W.q**pi.N
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)
    benchmark.extra_info["vectors_per_s"] = round(result.total / benchmark.stats.stats.median)
