"""Input checks: one shape check for every entry point, one integer check
for every builder and every vector symbol, called through the library."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import posetblock as pb
from conftest import chain

W = pb.lee_weight(5)


# every public entry point that takes a poset or an ideal with pi, or a
# code with pi: name -> (call(P, pi, C, I), takes a code, takes an ideal)
ENTRY_POINTS = {
    "distribution": (lambda P, pi, C, I: pb.distribution(P, pi, W), False, False),
    "distribution_general": (lambda P, pi, C, I: pb.distribution_general(P, pi, W), False, False),
    "distribution_chain": (lambda P, pi, C, I: pb.distribution_chain(P, pi, W), False, False),
    "oracle_distribution": (lambda P, pi, C, I: pb.oracle_distribution(P, pi, W), False, False),
    "oracle_perfectness_radius": (
        lambda P, pi, C, I: pb.oracle_perfectness(C, P, pi, W, radius=1), True, False
    ),
    "oracle_perfectness_ideal": (
        lambda P, pi, C, I: pb.oracle_perfectness(C, P, pi, W, ideal=I), True, True
    ),
    "oracle_metric_axioms": (
        lambda P, pi, C, I: pb.oracle_metric_axioms(P, pi, W, 10, 0), False, False
    ),
    "pwpi_weight": (lambda P, pi, C, I: pb.pwpi_weight(P, pi, W, [0] * pi.N), False, False),
    "i_ball_contains": (
        lambda P, pi, C, I: pb.i_ball_contains(pi, 5, I, [0] * pi.N, [0] * pi.N), False, True
    ),
    "min_distance": (lambda P, pi, C, I: pb.min_distance(C, P, pi, W), True, False),
    "singleton_report": (lambda P, pi, C, I: pb.singleton_report(C, P, pi, W), True, False),
    "is_I_perfect": (lambda P, pi, C, I: pb.is_I_perfect(C, I, pi), True, True),
    "is_r_perfect": (lambda P, pi, C, I: pb.is_r_perfect(C, 1, P, pi, W), True, False),
    "is_r_error_correcting": (
        lambda P, pi, C, I: pb.is_r_error_correcting(C, 1, P, pi, W), True, False
    ),
    "verify_duality": (lambda P, pi, C, I: pb.verify_duality(C, P, pi, W), True, False),
    "construct_I_perfect": (
        lambda P, pi, C, I: pb.construct_I_perfect(P, pi, I, 5), False, True
    ),
    "mds_chain_distribution": (
        lambda P, pi, C, I: pb.mds_chain_distribution(C, P, pi, W), True, False
    ),
    "mds_chain_ball_counts": (
        lambda P, pi, C, I: pb.mds_chain_ball_counts(C, P, pi, W), True, False
    ),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_every_entry_point_checks_its_shapes(name):
    call, takes_code, takes_ideal = ENTRY_POINTS[name]
    P, pi = chain(3), pb.label_map([1, 1, 1])
    C = pb.chain_mds_code(P, pi, 5, 1)
    I = pb.ideal_closure(P, {1})
    call(P, pi, C, I)  # the right shapes pass
    # a poset of 4 elements, and an ideal on it that holds an element past
    # pi's 3 blocks
    P4 = chain(4)
    with pytest.raises(pb.DimensionError, match="4 elements"):
        call(P4, pi, C, pb.ideal_closure(P4, {4}))
    if takes_ideal:
        with pytest.raises(pb.DimensionError, match="4 elements"):
            call(P, pi, C, pb.ideal_closure(P4, {4}))
    if takes_code:
        # a code of length 4, and the zero code of length 4
        for wrong in (pb.linear_code(5, [[1, 1, 1, 1]]), pb.linear_code(5, [], n_cols=4)):
            with pytest.raises(pb.DimensionError, match="code length 4"):
                call(P, pi, wrong, I)


def _table(q=2, N=2, r=1, count="2"):
    """A table artifact of the space Z_2^2 (counts 1, 2, 1) with one value set."""
    return {"q": q, "N": N, "counts": [{"r": 0, "count": "1"}, {"r": r, "count": count},
                                       {"r": 2, "count": 1}]}


def test_a_table_count_is_a_decimal_string_or_an_integer():
    for count in ("2", 2, np.int64(2), "0002"):
        table = pb.table_from_json_dict(_table(count=count))
        assert table.counts == (1, 2, 1) and table.check_normalization()
    # int() would truncate a float and parse a signed or padded string
    for count in (2.0, 2.5, "2.0", "2e0", "-2", " 2", "", True, None):
        with pytest.raises(pb.BoundsError, match="count must be an integer"):
            pb.table_from_json_dict(_table(count=count))
    # a missing or repeated r would shift every count after it
    for r in (0, 3):
        with pytest.raises(pb.BoundsError, match="none missing"):
            pb.table_from_json_dict(_table(r=r))


# a 3-chain of unit blocks at q = 5 and a one-dimensional code on it
SPACE = (chain(3), pb.label_map([1, 1, 1]))
CODE = pb.chain_mds_code(*SPACE, 5, 1)
IDEAL = pb.ideal_closure(SPACE[0], {1})

# each builder and each function of vectors, with the one integer it is
# handed and a valid value for it
BUILDERS = {
    "label_map": (lambda v: pb.label_map([v, 2]).k, 2),
    "pi_support": (lambda v: pb.pi_support(SPACE[1], [0, v, 0]), 2),
    "pwpi_weight": (lambda v: pb.pwpi_weight(*SPACE, W, [0, v, 0]), 2),
    "pwpi_distance": (lambda v: pb.pwpi_distance(*SPACE, W, [0, 0, 0], [0, v, 0]), 2),
    "vector_sub": (lambda v: pb.vector_sub(5, [v, 0], [0, 1]), 2),
    "block_weight": (lambda v: pb.block_weight(W, [0, v]), 2),
    "i_ball_contains": (lambda v: pb.i_ball_contains(SPACE[1], 5, IDEAL, [v, 0, 0], [0] * 3), 2),
    "build_poset n": (lambda v: pb.build_poset(v, [(1, 2)]).down, 3),
    "build_poset relation": (lambda v: pb.build_poset(3, [(1, v)]).down, 2),
    "poset_from_json": (lambda v: pb.poset_from_json({"n": 3, "relations": [[v, 3]]}).down, 2),
    "lee_weight": (lambda v: pb.lee_weight(v).table, 5),
    "hamming_weight": (lambda v: pb.hamming_weight(v).table, 5),
    "custom_weight q": (lambda v: pb.custom_weight(v, [0, 1, 1, 1, 1]).table, 5),
    "custom_weight entry": (lambda v: pb.custom_weight(5, [0, v, 1, 1, v]).table, 2),
    "linear_code q": (lambda v: pb.linear_code(v, [[1, 2]]).generator, 5),
    "linear_code entry": (lambda v: pb.linear_code(5, [[1, v]]).generator, 2),
    "ideal_closure": (lambda v: pb.ideal_closure(chain(3), [v]).members_mask, 2),
    "table_from_json_dict q": (lambda v: pb.table_from_json_dict(_table(q=v)).q, 2),
    "table_from_json_dict N": (lambda v: pb.table_from_json_dict(_table(N=v)).N, 2),
    "table_from_json_dict r": (lambda v: pb.table_from_json_dict(_table(r=v)).counts, 1),
    "chain_mds_code dim": (
        lambda v: pb.chain_mds_code(chain(3), pb.label_map([1] * 3), 5, v).generator, 2
    ),
    "oracle_distribution threads": (
        lambda v: pb.oracle_distribution(chain(2), pb.label_map([1, 1]), W, threads=v).histogram, 2
    ),
    "ball_volume radius": (lambda v: pb.ball_volume(pb.distribution(*SPACE, W), v), 1),
    "is_r_perfect radius": (lambda v: pb.is_r_perfect(CODE, v, *SPACE, W), 1),
    "is_r_error_correcting radius": (lambda v: pb.is_r_error_correcting(CODE, v, *SPACE, W), 1),
    "oracle_perfectness radius": (lambda v: pb.oracle_perfectness(CODE, *SPACE, W, radius=v), 1),
    "oracle_metric_axioms samples": (lambda v: pb.oracle_metric_axioms(*SPACE, W, v, 0), 10),
    "oracle_metric_axioms seed": (lambda v: pb.oracle_metric_axioms(*SPACE, W, 10, v), 3),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_take_integers_only(name):
    build, value = BUILDERS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", pb.WeightWarning)
        want = build(value)
        for v in (np.int64(value), np.int32(value), np.uint8(value)):
            assert build(v) == want
        # nothing is rounded, parsed or read as a number of another kind
        for v in (float(value), value + 0.5, True, str(value), np.float64(value), np.bool_(True)):
            with pytest.raises(pb.BoundsError, match="must be an integer"):
                build(v)


def test_a_relation_must_be_a_pair():
    for pair in ((1, 2, 3), (1,), 3):
        with pytest.raises(pb.BoundsError, match="malformed relation pair"):
            pb.build_poset(3, [pair])


# each count that must not be negative: a radius, a sample count and a seed
NEGATIVES = {
    "ball_volume radius": lambda: pb.ball_volume(pb.distribution(*SPACE, W), -1),
    "is_r_perfect radius": lambda: pb.is_r_perfect(CODE, -1, *SPACE, W),
    "is_r_error_correcting radius": lambda: pb.is_r_error_correcting(CODE, -1, *SPACE, W),
    "oracle_perfectness radius": lambda: pb.oracle_perfectness(CODE, *SPACE, W, radius=-1),
    "oracle_metric_axioms samples": lambda: pb.oracle_metric_axioms(*SPACE, W, -5, 0),
    "oracle_metric_axioms seed": lambda: pb.oracle_metric_axioms(*SPACE, W, 10, -1),
}


@pytest.mark.parametrize("name", list(NEGATIVES))
def test_counts_are_not_negative(name):
    with pytest.raises(pb.BoundsError, match="-1|-5"):
        NEGATIVES[name]()
