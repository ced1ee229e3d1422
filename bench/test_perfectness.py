"""Perfectness rungs of the bench ladder, timed with pytest-benchmark.

Tier-1 collects only tests/, so these run only when named, from the
repository root:

    python -m pytest bench/test_perfectness.py --benchmark-json=out.json

Every rung calls only the public API, so the module can time another
tree too: pytest's pythonpath setting puts ./src first on the import path,
so pass -o pythonpath=TREE/src.  Each rung stores the process's peak RSS
(MiB) in its extra_info; run one rung per process to read that peak as
the rung's own.  bench/compare.py does so for two trees, alternating them,
and writes one JSON of both.
"""

from __future__ import annotations

import resource

import pytest

import posetblock as pb

ROUNDS = 3


def _chain():
    """The 2401-word chain-MDS code on Z_7^8 (4-chain, blocks of 2, Lee)."""
    P = pb.build_poset(4, [(1, 2), (2, 3), (3, 4)])
    pi = pb.label_map([2, 2, 2, 2])
    return pb.chain_mds_code(P, pi, 7, 4), P, pi, pb.lee_weight(7)


def _chain_ball(radius: int):
    C, P, pi, W = _chain()
    return lambda: pb.oracle_perfectness(C, P, pi, W, radius=radius)


def _ex69():
    P = pb.build_poset(5, [(1, 4), (2, 4), (3, 5)])
    pi = pb.label_map([3, 2, 1, 1, 1])
    C = pb.linear_code(7, [[0, 0, 0, 0, 0, 0, 1, 1]])
    return C, P, pi, pb.lee_weight(7)


def _verdict(code, verdict: str, radius: int):
    """A public r-ball verdict: at r = 12 on ex69 both answer by pigeonhole;
    the chain code's 3-balls are disjoint and its 6-balls tile Z_7^8."""
    C, P, pi, W = code()
    return lambda: getattr(pb, verdict)(C, radius, P, pi, W)


def _ex69_whole_poset_ball():
    C, P, pi, W = _ex69()
    everything = pb.ideal_closure(P, range(1, P.n + 1))
    return lambda: pb.oracle_perfectness(C, P, pi, W, ideal=everything)


def _antichain20_ball(radius: int):
    """The binary repetition code on a 20-antichain of unit blocks, Hamming:
    2^20 vectors and as many block-weight profiles."""
    P = pb.build_poset(20, [])
    pi = pb.label_map([1] * 20)
    C = pb.linear_code(2, [[1] * 20])
    W = pb.hamming_weight(2)
    return lambda: pb.oracle_perfectness(C, P, pi, W, radius=radius)


RUNGS = {
    "chain_r3": lambda: _chain_ball(3),
    "chain_r12": lambda: _chain_ball(12),
    "ex69_is_r_perfect_r3": lambda: _verdict(_ex69, "is_r_perfect", 3),
    "ex69_is_r_error_correcting_r3": lambda: _verdict(_ex69, "is_r_error_correcting", 3),
    "ex69_is_r_perfect_r12": lambda: _verdict(_ex69, "is_r_perfect", 12),
    "ex69_is_r_error_correcting_r12": lambda: _verdict(_ex69, "is_r_error_correcting", 12),
    "chain_is_r_perfect_r3": lambda: _verdict(_chain, "is_r_perfect", 3),
    "chain_is_r_error_correcting_r3": lambda: _verdict(_chain, "is_r_error_correcting", 3),
    "chain_is_r_perfect_r6": lambda: _verdict(_chain, "is_r_perfect", 6),
    "chain_is_r_error_correcting_r6": lambda: _verdict(_chain, "is_r_error_correcting", 6),
    "ex69_whole_poset_i_ball": _ex69_whole_poset_ball,
    "antichain20_r3": lambda: _antichain20_ball(3),
    "antichain20_r20": lambda: _antichain20_ball(20),
}


@pytest.mark.parametrize("rung", list(RUNGS))
def test_rung(benchmark, rung):
    call = RUNGS[rung]()
    benchmark.pedantic(call, rounds=ROUNDS, iterations=1, warmup_rounds=1)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    benchmark.extra_info["peak_rss_mib"] = round(peak, 1)
