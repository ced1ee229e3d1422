"""Complete weight distributions |A_r| and ball volumes of a (P,w,pi)-space.

Every counting route works with the block class polynomials
D_k(x) = sum_{b=1}^{M_w} |D_b^k| x^b.  A nonempty ideal I with c
non-maximal elements contributes x^(c*M_w) * q^(sum of k_l over the
non-maximals) * prod_{i in Max I} D_{k_i}(x) to sum_r |A_r| x^r; the
paper's sum over the partitions of r - c*M_w into |Max I| parts in
[1, M_w], each part placed on every maximal element in every distinct
order, is exactly the coefficient extraction of this product.

With F(P) = sum_r |A_r| x^r (the empty ideal gives |A_0| = 1), the general
method runs poset.fold_ideals with this arithmetic: a single element gives
1 + D_k(x), a disjoint union multiplies, and an ordinal sum with P1 below
P2 gives F(P1) + x^(M_w|P1|) q^(k(P1)) (F(P2) - 1).  A piece that is
neither splits on a maximal element x: the ideals that hold x are the
down-set of x joined to an ideal J of P - down x, with x maximal, the rest
of down x below it and J's elements keeping their status, so
F(P) = F(P - x) + D_{k_x}(x) x^(M_w(|down x| - 1)) q^(k(down x - x)) F(P - down x).
The fold evaluates these identities at x = 2^B, wide enough that each
value is one exact int whose B-bit digits are the coefficients (Kronecker
substitution): products are int products, and the counts are read off
the digits once, at the end.  No ideal is listed.  The hierarchical
theorem's level form is the special case of an ordinal sum of antichains.
The chain method is the paper's chain closed form.  Both methods must
agree exactly with each other and with the brute oracle.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from operator import mul

from .errors import BoundsError, PreconditionError, integer
from .poset import (
    IDEAL_CAP_DEFAULT,
    Poset,
    _bits,
    chain_order,
    fold_ideals,
    is_chain,
)
from .space import LabelMap, check_shape
from .weights import WeightModel, block_class_size


@dataclass(frozen=True)
class DistributionTable:
    """counts[r] = number of vectors of weight exactly r, 0 <= r <= n*M_w."""

    q: int
    N: int
    counts: tuple[int, ...]
    method: str

    @property
    def max_weight(self) -> int:
        return len(self.counts) - 1

    def total(self) -> int:
        return sum(self.counts)

    def check_normalization(self) -> bool:
        """Whole-space identity: the counts must sum to q^N."""
        return self.counts[0] == 1 and self.total() == self.q**self.N


def ball_volume(table: DistributionTable, r: int) -> int:
    """|B_r| = 1 + |A_1| + ... + |A_r|."""
    if not 0 <= r <= table.max_weight:
        raise BoundsError(f"radius {r} outside [0, {table.max_weight}]")
    return sum(table.counts[: r + 1])


def _table(pi, W, counts, method) -> DistributionTable:
    return DistributionTable(q=W.q, N=pi.N, counts=tuple(counts), method=method)


def distribution_general(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    ideal_cap: int = IDEAL_CAP_DEFAULT,
) -> DistributionTable:
    """F(P) by poset.fold_ideals with the identities of the module
    docstring, at x = 2^B; works for every instance.  ideal_cap bounds the
    pieces split; no ideal is listed.

    B is bitlen(q^N) + 1 rounded up to a whole byte, so the counts are the
    B/8-byte digits of one to_bytes.  Every value the fold builds, and every
    product or sum it forms, is a sub-sum of the weight enumerator of a
    subspace: its coefficients are non-negative and at most q^N < 2^B, so
    no digit carries and the int arithmetic is the polynomial arithmetic.
    The stack subtracts F(P2)'s constant term, 1, so no digit borrows.
    """
    check_shape(pi, P.n)
    q, M_w = W.q, W.M_w
    B = ((q**pi.N).bit_length() + 8) // 8 * 8
    # D_k(2^B), per block length
    D = {k: sum(block_class_size(W, b, k) << B * b for b in range(1, M_w + 1))
         for k in set(pi.k)}

    def k_sum(mask: int) -> int:
        return sum(pi.k[i] for i in _bits(mask))

    def stack(low: int, below: int, high: int) -> int:
        # low has degree M_w |below|, so the shifted F(P2) - 1 starts just past it
        return low + (q ** k_sum(below) * (high - 1) << B * M_w * below.bit_count())

    def split(x: int, down: int, without: int, rest: int) -> int:
        # in down | J, x is maximal and the rest of down lies below it, while
        # each element of J keeps its status
        scale = q ** k_sum(down & ~(1 << x))
        return without + (scale * D[pi.k[x]] * rest << B * M_w * (down.bit_count() - 1))

    def leaf(i: int) -> int:
        return 1 + D[pi.k[i]]

    F = fold_ideals(P, 1, leaf, mul, stack, split, cap=ideal_cap)
    width = B // 8
    digits = F.to_bytes((pi.n * M_w + 1) * width, "little")
    counts = [int.from_bytes(digits[r : r + width], "little")
              for r in range(0, len(digits), width)]
    return _table(pi, W, counts, "general")


def distribution_chain(P: Poset, pi: LabelMap, W: WeightModel) -> DistributionTable:
    """Chain closed form: |A_{t*M_w + a}| = q^(k_1+...+k_t) * |D_a^{k_{t+1}}|."""
    check_shape(pi, P.n)
    order = chain_order(P)  # raises PreconditionError on non-chains
    q, M_w, n = W.q, W.M_w, pi.n
    counts = [0] * (n * M_w + 1)
    counts[0] = 1
    prefix_exp = 0
    for t in range(n):
        k_next = pi.k[order[t] - 1]
        for a in range(1, M_w + 1):
            counts[t * M_w + a] = q**prefix_exp * block_class_size(W, a, k_next)
        prefix_exp += k_next
    return _table(pi, W, counts, "chain")


METHODS = ("auto", "general", "chain")


def distribution(
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    method: str = "auto",
    ideal_cap: int = IDEAL_CAP_DEFAULT,
) -> DistributionTable:
    """Dispatch: auto picks chain on chains and general everywhere else."""
    if method == "auto":
        method = "chain" if is_chain(P) else "general"
    if method == "general":
        return distribution_general(P, pi, W, ideal_cap=ideal_cap)
    if method == "chain":
        return distribution_chain(P, pi, W)
    raise PreconditionError(f"unknown method {method!r}")


def applicable_methods(P: Poset, pi: LabelMap) -> list[str]:
    """Counting methods whose preconditions hold for this instance."""
    return ["general", "chain"] if is_chain(P) else ["general"]


def count_text(count: int) -> str:
    """str(count), also for a count past the interpreter's int-to-str digit
    limit (4,300 digits by default): decimal converts ints without that
    limit, and the limit itself is left as it is."""
    try:
        return str(count)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(count))


def table_to_json_dict(table: DistributionTable) -> dict:
    """Counts serialized as decimal strings (they routinely exceed 64 bits)."""
    return {
        "q": table.q,
        "N": table.N,
        "method": table.method,
        "counts": [
            {"r": r, "count": count_text(c)} for r, c in enumerate(table.counts)
        ],
    }


def _count(value) -> int:
    """A count read from JSON: a string of decimal digits or an integer.
    Digits past the int-to-str limit are read through decimal, as
    count_text writes them."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:
            from decimal import Decimal

            return int(Decimal(value))
    return integer(value, "count")


def table_from_json_dict(obj: dict) -> DistributionTable:
    """Parse the table artifact: integers throughout, and r = 0, 1, 2, ...."""
    entries = sorted(obj["counts"], key=lambda e: integer(e["r"], "table entry r"))
    if [e["r"] for e in entries] != list(range(len(entries))):
        raise BoundsError("table entries must have r = 0, 1, 2, ... with none missing")
    counts = tuple(_count(e["count"]) for e in entries)
    return DistributionTable(
        q=integer(obj["q"], "alphabet size"),
        N=integer(obj["N"], "space dimension"),
        counts=counts,
        method=obj.get("method", "unknown"),
    )


def table_to_json(table: DistributionTable, key: str = "count", values=None) -> str:
    """The table artifact: exactly json.dumps(table_to_json_dict(table), indent=2).

    The one writer of the {"q", "N", "method", "<key>s": [{"r", "<key>"}]}
    shape: every row is formatted from one template, so the pure-Python
    indented encoder never runs, and the bytes are the encoder's.  values,
    one per r, replaces the counts; the CLI writes ball volumes as the
    running sums of the counts under key "volume".  A value past the
    int-to-str digit limit fails the template's %s, and the rows are then
    written from count_text's digits.
    """
    row = '    {\n      "r": %d,\n      "' + key + '": "%s"\n    }'
    values = table.counts if values is None else tuple(values)
    try:
        rows = ",\n".join(row % rv for rv in enumerate(values))
    except ValueError:
        rows = ",\n".join(row % rv for rv in enumerate(map(count_text, values)))
    return '{\n  "q": %d,\n  "N": %d,\n  "method": %s,\n  "%ss": [\n%s\n  ]\n}' % (
        table.q, table.N, json.dumps(table.method), key, rows)


def table_to_csv(table: DistributionTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["r", "count"])
    for r, c in enumerate(table.counts):
        writer.writerow([r, count_text(c)])
    return buf.getvalue()
