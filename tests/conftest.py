"""Shared fixtures: the worked reference instances every test module leans on."""

from __future__ import annotations

import pytest

import posetblock as pb


@pytest.fixture
def ex45():
    """Z_7^13 with 1 <= 2 on [5], k = (2,3,4,2,2), Lee weight."""
    P = pb.build_poset(5, [(1, 2)])
    return P, pb.label_map([2, 3, 4, 2, 2]), pb.lee_weight(7)


@pytest.fixture
def ex69():
    """Z_7^8 with 1,2 <= 4 and 3 <= 5, k = (3,2,1,1,1), Lee weight, dim-1 code."""
    P = pb.build_poset(5, [(1, 4), (2, 4), (3, 5)])
    pi = pb.label_map([3, 2, 1, 1, 1])
    C = pb.linear_code(7, [[0, 0, 0, 0, 0, 0, 1, 1]])
    return P, pi, pb.lee_weight(7), C


@pytest.fixture
def ex73():
    """Z_7^10 with 1,2,3 below both 4 and 5, k_i = 2, Lee weight, dim-2 code."""
    P = pb.build_poset(5, [(i, top) for i in (1, 2, 3) for top in (4, 5)])
    pi = pb.label_map([2] * 5)
    C = pb.linear_code(
        7,
        [
            [0, 0, 0, 0, 0, 0, 1, 0, 1, 0],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 1],
        ],
    )
    return P, pi, pb.lee_weight(7), C


def chain(n: int) -> "pb.Poset":
    return pb.build_poset(n, [(i, i + 1) for i in range(1, n)])


def antichain(n: int) -> "pb.Poset":
    return pb.build_poset(n, [])


# posets as (n, relations) pairs, so composites can be built before the order
N_POSET = (4, [(1, 3), (2, 3), (2, 4)])  # the smallest poset that does not decompose


def fence(n: int) -> tuple:
    """The zigzag 1 < 2 > 3 < 4 > ...; with n >= 4 it does not decompose."""
    return n, [(i, i + 1) if i % 2 else (i + 1, i) for i in range(1, n)]


def disjoint_union(*parts) -> tuple:
    n, pairs = 0, []
    for m, rel in parts:
        pairs += [(a + n, b + n) for a, b in rel]
        n += m
    return n, pairs


def ordinal_sum(*parts) -> tuple:
    """Parts bottom first: every element of a part lies below the next part."""
    n, pairs = disjoint_union(*parts)
    offset = 0
    for (m, _), (m2, _) in zip(parts, parts[1:]):
        pairs += [(offset + a, offset + m + b) for a in range(1, m + 1) for b in range(1, m2 + 1)]
        offset += m
    return n, pairs
