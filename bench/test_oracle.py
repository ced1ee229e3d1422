"""Oracle sweep rungs of the bench ladder, timed with pytest-benchmark.

Each rung is one oracle_distribution call, a weight histogram by sweeping
every vector of the space.  Run them from the repository root:

    python -m pytest bench/test_oracle.py --benchmark-json=out.json

Like bench/test_perfectness.py, every rung calls only the public API, so
-o pythonpath=TREE/src times another tree, and bench/compare.py runs each
rung in its own process on two trees.  Each rung stores the process's peak
RSS (MiB), the sweep rate (vectors per second at the median round), the
number of block-weight profiles (radix^n, radix the number of distinct
symbol weights), the size of the kernel's profile table in MiB, to 0.1
(0 on a tree that keeps no table past a chunk of profiles) and the bytes per
profile key (1 for uint8 keys, a table of at most 256 profiles on a tree
that narrows them, else 8 for int64), in its extra_info, so the JSON says
which path each rung timed.  Every figure is a number, as
bench/compare.py takes their median.
"""

from __future__ import annotations

import resource
import warnings

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


def _one_chunk_8e6():
    """Z_8^6 on 3 elements with 1 < 2, blocks of 3, 2, 1, Lee weight: 2^18
    vectors, one chunk, so the keys are the kernel's outer sum alone."""
    P = pb.build_poset(3, [(1, 2)])
    return P, pb.label_map([3, 2, 1]), pb.lee_weight(8)


def _lee_chain_11e6():
    """Z_11^6 on a 6-chain with blocks of 1, Lee weight: 6 symbol weights,
    so 6^6 = 46,656 profiles, a table too wide for byte keys."""
    P = pb.build_poset(6, [(i, i + 1) for i in range(1, 6)])
    return P, pb.label_map([1] * 6), pb.lee_weight(11)


def _no_table_11e6():
    """Z_11^6 on a 6-chain with blocks of 1, custom weight w(a) = a: 11 symbol
    weights, so 11^6 profiles, more than a chunk holds: every vector is its
    own profile, the table takes 13.5 MiB, and each range counts weights."""
    P = pb.build_poset(6, [(i, i + 1) for i in range(1, 6)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)  # w(a) != w(-a)
        W = pb.custom_weight(11, list(range(11)))
    return P, pb.label_map([1] * 6), W


RUNGS = {
    "sweep_chain_7e8": _chain_7e8,
    "sweep_four_blocks_5e10": _four_blocks_5e10,
    "sweep_one_chunk_8e6": _one_chunk_8e6,
    "sweep_no_table_11e6": _no_table_11e6,
    "sweep_lee_chain_11e6": _lee_chain_11e6,
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
    profiles = len(set(W.table)) ** pi.n
    benchmark.extra_info["profiles"] = profiles
    table = pb.oracle._weigher(P, pi, W).table
    benchmark.extra_info["table_mib"] = 0 if table is None else round(table.nbytes / 2**20, 1)
    byte_keys = profiles <= min(getattr(pb.oracle, "_BYTE_KEYS", 0), pb.oracle._CHUNK)
    benchmark.extra_info["key_bytes"] = 1 if byte_keys else 8
