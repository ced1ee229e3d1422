"""Symbol weights on Z_q and the induced block weight-class sizes.

A weight assigns a non-negative integer to every symbol, with w(0)=0 and
w(a)>0 otherwise.  D_r collects the symbols of weight exactly r; the
counting formulas downstream only ever need the class sizes |D_r| and the
block-level class sizes |D_r^k| (tuples of length k whose max component
weight is exactly r).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .errors import BoundsError, InvalidWeightError, WeightWarning, integer


@dataclass(frozen=True)
class WeightModel:
    q: int
    table: tuple[int, ...]  # table[a] = w(a), table[0] = 0
    name: str
    m_w: int  # min nonzero weight
    M_w: int  # max weight
    class_sizes: tuple[int, ...]  # class_sizes[r] = |D_r|, 0 <= r <= M_w
    prefix: tuple[int, ...]  # prefix[r + 1] = |D_0| + ... + |D_r|, prefix[0] = 0

    def weight(self, a: int) -> int:
        return self.table[a % self.q]


def _alphabet(q: int) -> int:
    """q, once it is an integer of at least 2."""
    q = integer(q, "alphabet size")
    if q < 2:
        raise BoundsError(f"alphabet size q = {q} must be at least 2")
    return q


def _derive(q: int, table: Sequence[int], name: str) -> WeightModel:
    table = tuple([integer(v, "weight table entry") for v in table])
    if len(table) != q:
        raise InvalidWeightError(f"table has {len(table)} entries, expected {q}")
    if table[0] != 0:
        raise InvalidWeightError("w(0) must be 0")
    if any(v <= 0 for v in table[1:]):
        raise InvalidWeightError("w(a) must be positive for a != 0")
    M_w = max(table)
    m_w = min(table[1:]) if q > 1 else 0
    sizes = [0] * (M_w + 1)
    for v in table:
        sizes[v] += 1
    return WeightModel(
        q=q, table=table, name=name, m_w=m_w, M_w=M_w, class_sizes=tuple(sizes),
        prefix=(0, *accumulate(sizes)),
    )


def lee_weight(q: int) -> WeightModel:
    """Lee weight on Z_q: w(a) = min(a, q - a)."""
    q = _alphabet(q)
    return _derive(q, [min(a, q - a) for a in range(q)], "lee")


def hamming_weight(q: int) -> WeightModel:
    """Hamming weight on Z_q: w(a) = 1 for a != 0."""
    q = _alphabet(q)
    return _derive(q, [0] + [1] * (q - 1), "hamming")


def metric_fault(W: WeightModel) -> str | None:
    """Why the distance W induces may not be a metric, or None when w is
    symmetric and subadditive, so that it is one."""
    q, w = W.q, W.table
    if w[1:] != w[:0:-1]:
        return (
            "weight table is not symmetric (w(a) != w(q-a)); the induced "
            "distance may not be symmetric"
        )
    # if 2 m_w >= M_w, then w(a + b) <= M_w <= 2 m_w <= w(a) + w(b) for a, b != 0
    if 2 * W.m_w < W.M_w and any(w[(a + b) % q] > w[a] + w[b] for a in range(q) for b in range(q)):
        return "weight table is not subadditive; the triangle inequality may fail"
    return None


def custom_weight(q: int, table: Sequence[int]) -> WeightModel:
    """Weight from an explicit table; warns if symmetry or subadditivity fail."""
    W = _derive(_alphabet(q), table, "custom")
    fault = metric_fault(W)
    if fault is not None:
        warnings.warn(fault, WeightWarning, stacklevel=2)
    return W


def weight_from_json(q: int, spec) -> WeightModel:
    """Parse the "lee" | "hamming" | {"table": [...]} wire shape."""
    if spec == "lee":
        return lee_weight(q)
    if spec == "hamming":
        return hamming_weight(q)
    if isinstance(spec, dict) and "table" in spec:
        return custom_weight(q, spec["table"])
    raise InvalidWeightError(f"unrecognized weight spec: {spec!r}")


def block_class_size(W: WeightModel, r: int, k: int) -> int:
    """|D_r^k|: number of k-tuples over Z_q whose max symbol weight is exactly r.

    Equals (sum_{i<=r} |D_i|)^k - (sum_{i<=r-1} |D_i|)^k; in particular 1
    for r = 0 and q^k - (q - |D_{M_w}|)^k for r = M_w.
    """
    if not 0 <= r <= W.M_w:
        raise BoundsError(f"class index {r} outside [0, {W.M_w}]")
    if k < 1:
        raise BoundsError(f"block length {k} < 1")
    return W.prefix[r + 1] ** k - W.prefix[r] ** k
