"""Linear codes over F_q (q prime) in a (P,w,pi)-space.

The generator is kept in reduced row-echelon form.  Every I-ball verdict
is a rank test over F_q: C meets B_I(0) only in 0 exactly when the
generator's columns on the blocks outside I have rank k; r-ball verdicts
are the oracle's per-coset count.  Only `codewords` and minimum distances
enumerate the q^k codewords, under a cap.  The module covers I-balls,
I-perfect / r-perfect / r-error-correcting checks, the Singleton bound
and MDS status in both the weighted and the Hamming-specialized metric,
dual codes, the four-way duality equivalence under a unique ideal, the
transversal I-perfect construction, and the closed-form weight
distribution of MDS chain codes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .distribution import ball_volume, distribution
from .errors import (
    BoundsError,
    ConsistencyError,
    DimensionError,
    ExplosionError,
    HypothesisError,
    NonPrimeError,
    PreconditionError,
    TrivialCodeError,
)
from .oracle import _pairwise_weights, _ranges, oracle_perfectness, space_cap
from .poset import (
    Ideal,
    Poset,
    _bits,
    _sole_ideal,
    chain_order,
    classify,
    dual_poset,
    fold_ideals,
    ideal_closure,
    ideal_masks,
)
from .space import LabelMap, pi_support, vector_sub
from .weights import WeightModel, block_class_size, hamming_weight

CODEWORD_CAP_DEFAULT = 10**6


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _rref(rows: list[list[int]], q: int, n_cols: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_q; returns (rows without zeros, pivot cols)."""
    rows = [[v % q for v in r] for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        piv = next((rr for rr in range(r, len(rows)) if rows[rr][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, q)
        rows[r] = [(v * inv) % q for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][col]:
                f = rows[rr][col]
                rows[rr] = [(a - f * b) % q for a, b in zip(rows[rr], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


@dataclass(frozen=True)
class LinearCode:
    """[N, k] linear code; generator stored in RREF with zero rows dropped."""

    q: int
    n_cols: int
    generator: tuple

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def size(self) -> int:
        return self.q**self.k

    def to_json_dict(self) -> dict:
        return {"q": self.q, "generator": [list(r) for r in self.generator]}


def linear_code(q: int, rows, n_cols: int | None = None) -> LinearCode:
    """Build a LinearCode from arbitrary generator rows (reduced internally)."""
    if not _is_prime(q):
        raise NonPrimeError(f"alphabet size {q} is not prime")
    rows = [list(r) for r in rows]
    if rows:
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise DimensionError(f"ragged generator rows: widths {sorted(widths)}")
        width = widths.pop()
        if n_cols is not None and n_cols != width:
            raise DimensionError(f"rows have width {width}, expected {n_cols}")
        n_cols = width
    elif n_cols is None:
        raise DimensionError("empty generator needs an explicit n_cols")
    reduced, _ = _rref(rows, q, n_cols)
    return LinearCode(q=q, n_cols=n_cols, generator=tuple(tuple(r) for r in reduced))


def _codeword_matrix(C: LinearCode, cap: int) -> np.ndarray:
    """All q^k codewords as the rows of an int64 matrix, in lexicographic
    coefficient order; row 0 is the zero codeword."""
    if C.size > cap:
        raise ExplosionError(f"q^k = {C.size} codewords exceed cap {cap}")
    if C.k == 0:
        return np.zeros((1, C.n_cols), dtype=np.int64)
    G = np.array(C.generator, dtype=np.int64)
    coefs = np.indices((C.q,) * C.k).reshape(C.k, -1).T
    return (coefs @ G) % C.q


def codewords(C: LinearCode, *, cap: int = CODEWORD_CAP_DEFAULT) -> tuple:
    """All q^k codewords as tuples, in lexicographic coefficient order."""
    return tuple(map(tuple, _codeword_matrix(C, cap).tolist()))


def min_distance(
    C: LinearCode,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int = CODEWORD_CAP_DEFAULT,
) -> int:
    """Minimum nonzero codeword weight (exhaustive, by the oracle's row
    kernel, a chunk of rows at a time); the Hamming-weight swap of W yields
    the (P,pi) minimum distance."""
    if C.k == 0:
        raise TrivialCodeError("the zero code has no nonzero codeword")
    if C.n_cols != pi.N:
        raise DimensionError(f"code length {C.n_cols} != N = {pi.N}")
    # the generator has full rank, so every row but the first is nonzero
    words = _codeword_matrix(C, cap)[1:]
    return min(
        int(_pairwise_weights(P, pi, W, words[lo:hi]).min())
        for lo, hi in _ranges(len(words))
    )


def i_ball_contains(pi: LabelMap, q: int, I: Ideal, center, x) -> bool:
    """Whether x lies in the I-ball around center: supp_pi(center - x) inside I."""
    diff = vector_sub(q, tuple(center), tuple(x))
    return all(I.contains(i) for i in pi_support(pi, diff))


def _packs(C: LinearCode, pi: LabelMap, mask: int) -> bool:
    """Whether C & B_mask(0) = {0}: the generator's columns on the blocks
    outside the block mask have rank k over F_q."""
    cols = [
        c
        for i in range(pi.n)
        if not (mask >> i) & 1
        for c in range(pi.N)[pi.block_slice(i + 1)]
    ]
    reduced, _ = _rref([[row[c] for c in cols] for row in C.generator], C.q, len(cols))
    return len(reduced) == C.k


def is_I_perfect(C: LinearCode, I: Ideal, pi: LabelMap) -> bool:
    """Covering condition sum(k_i, i in I) = N - k plus packing |B_I(0) & C| = 1.

    Packing is a rank test: the generator's columns outside I have rank k.
    No codeword is enumerated, and neither the poset nor the weight enters.
    """
    if C.n_cols != pi.N:
        raise DimensionError(f"code length {C.n_cols} != N = {pi.N}")
    covering = sum(pi.k[i - 1] for i in I.members) == pi.N - C.k
    return covering and _packs(C, pi, I.members_mask)


def is_r_perfect(
    C: LinearCode,
    r: int,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int | None = None,
    codeword_cap: int = CODEWORD_CAP_DEFAULT,
) -> bool:
    """Whether the r-balls centered at codewords partition the space.

    Within the space cap the verdict is an exhaustive membership sweep,
    cross-checked against the volume/min-distance arithmetic; beyond it the
    sufficient pair (volume equality + min distance > 2r) is used, and an
    instance it cannot certify raises ExplosionError.  By translation
    invariance the least pairwise distance is min_distance, the least
    nonzero codeword weight.
    """
    if r < 0 or r > pi.n * W.M_w:
        raise BoundsError(f"radius {r} outside [0, {pi.n * W.M_w}]")
    table = distribution(P, pi, W)
    volume_ok = C.size * ball_volume(table, r) == C.q**pi.N
    if C.q**pi.N <= space_cap(cap):
        res = oracle_perfectness(C, P, pi, W, radius=r, cap=cap)
        exact = res.disjoint and res.covering
        if exact and not volume_ok:
            raise ConsistencyError("sweep says perfect but volumes do not fill")
        if not exact and volume_ok and C.k > 0:
            if min_distance(C, P, pi, W, cap=codeword_cap) > 2 * r:
                raise ConsistencyError(
                    "volume + distance certify perfect but sweep disagrees"
                )
        return exact
    if not volume_ok:
        return False
    if C.k == 0 or min_distance(C, P, pi, W, cap=codeword_cap) > 2 * r:
        return True
    raise ExplosionError(
        "space over cap and the distance criterion cannot certify perfectness"
    )


def is_r_error_correcting(
    C: LinearCode,
    r: int,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int | None = None,
    codeword_cap: int = CODEWORD_CAP_DEFAULT,
) -> bool:
    """Whether the r-balls centered at codewords are pairwise disjoint."""
    if r < 0:
        raise BoundsError(f"radius {r} < 0")
    if C.k == 0:
        return True
    if C.q**pi.N <= space_cap(cap):
        return oracle_perfectness(C, P, pi, W, radius=r, cap=cap).disjoint
    if min_distance(C, P, pi, W, cap=codeword_cap) > 2 * r:
        return True
    raise ExplosionError(
        "space over cap and the distance criterion cannot certify disjointness"
    )


@dataclass(frozen=True)
class CodeReport:
    d_pwpi: int
    d_ppi: int
    r_wtilde: int
    singleton_lhs: int
    singleton_rhs: int
    ppi_lhs: int
    is_mds_pwpi: bool
    is_mds_ppi: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _max_ideal_k_sums(P: Poset, pi: LabelMap) -> list[int]:
    """best[c] = the largest sum(k_i, i in J) over the ideals J with |J| = c,
    folded in max-plus form."""

    def flat(piece: int) -> list[int]:
        best = [0] * (piece.bit_count() + 1)
        for ideal in ideal_masks(P, piece):
            c = ideal.bit_count()
            best[c] = max(best[c], sum(pi.k[i] for i in _bits(ideal)))
        return best

    def join(a: list[int], b: list[int]) -> list[int]:
        best = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                best[i + j] = max(best[i + j], x + y)
        return best

    return fold_ideals(
        P,
        leaf=lambda i: [0, pi.k[i]],
        flat=flat,
        join=join,
        stack=lambda low, below, high: low + [low[-1] + h for h in high[1:]],
    )


def singleton_report(
    C: LinearCode,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int = CODEWORD_CAP_DEFAULT,
) -> CodeReport:
    """Singleton bound data and MDS verdicts in both metrics.

    The bound: max over ideals J of cardinality floor((d - m_w)/M_w) of
    sum(k_i, i in J) is at most N - log_q |C| = N - k; MDS means equality.
    The Hamming swap gives the (P,pi) version with radius d_ppi - 1.  The
    maxima fold P's decomposition; only pieces that do not decompose walk
    their ideals, under the default ideal cap."""
    d_pwpi = min_distance(C, P, pi, W, cap=cap)
    d_ppi = min_distance(C, P, pi, hamming_weight(C.q), cap=cap)
    r_wtilde = (d_pwpi - W.m_w) // W.M_w
    rhs = pi.N - C.k
    # every cardinality 0..n has an ideal, and 0 <= r_wtilde, d_ppi - 1 <= n
    best = _max_ideal_k_sums(P, pi)
    lhs = best[r_wtilde]
    ppi_lhs = best[d_ppi - 1]
    return CodeReport(
        d_pwpi=d_pwpi,
        d_ppi=d_ppi,
        r_wtilde=r_wtilde,
        singleton_lhs=lhs,
        singleton_rhs=rhs,
        ppi_lhs=ppi_lhs,
        is_mds_pwpi=lhs == rhs,
        is_mds_ppi=ppi_lhs == rhs,
    )


def dual_code(C: LinearCode) -> LinearCode:
    """Null space of the generator under the standard inner product."""
    if not _is_prime(C.q):
        raise NonPrimeError(f"alphabet size {C.q} is not prime")
    q, n = C.q, C.n_cols
    rows, pivots = _rref([list(r) for r in C.generator], q, n)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for r_idx, p in enumerate(pivots):
            vec[p] = (-rows[r_idx][f]) % q
        basis.append(vec)
    return linear_code(q, basis, n_cols=n)


def _equal_block_size(pi: LabelMap) -> int:
    sizes = set(pi.k)
    if len(sizes) != 1:
        raise HypothesisError(f"blocks are not all equal: {pi.k}")
    return pi.k[0]


def _mds_pwpi(C, P, pi, W, cap) -> bool:
    # the zero code has no nonzero codeword: no distance can violate the
    # bound, so it counts as MDS (needed when dualizing the whole space)
    if C.k == 0:
        return True
    return singleton_report(C, P, pi, W, cap=cap).is_mds_pwpi


def verify_duality(
    C: LinearCode,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int = CODEWORD_CAP_DEFAULT,
) -> bool:
    """Four-way equivalence under a unique ideal of cardinality n - k/s.

    Requires equal blocks of size s with s | k and a unique ideal of that
    cardinality, found with no enumeration (poset._sole_ideal).  Checks
    that C being MDS, C being I-perfect, the dual being I^c-perfect in the
    dual poset, and the dual being MDS all agree.
    """
    s = _equal_block_size(pi)
    if C.k % s != 0:
        raise HypothesisError(f"block size {s} does not divide dimension {C.k}")
    t = pi.n - C.k // s
    members = _sole_ideal(P, t)
    if members is None:
        raise HypothesisError(
            f"|I^{t}| > 1, the duality theorem needs a unique ideal"
        )
    I = Ideal(n=P.n, members_mask=members, max_mask=P.maximals_mask(members))
    Pd = dual_poset(P)
    full = (1 << P.n) - 1
    comp_mask = full & ~I.members_mask
    I_comp = Ideal(
        n=P.n, members_mask=comp_mask, max_mask=Pd.maximals_mask(comp_mask)
    )
    Cd = dual_code(C)
    checks = (
        _mds_pwpi(C, P, pi, W, cap),
        is_I_perfect(C, I, pi),
        is_I_perfect(Cd, I_comp, pi),
        _mds_pwpi(Cd, Pd, pi, W, cap),
    )
    return all(checks) or not any(checks)


def construct_I_perfect(P: Poset, pi: LabelMap, I: Ideal, q: int) -> LinearCode:
    """Transversal construction: span of the unit vectors of blocks outside I."""
    if P.n != pi.n:
        raise DimensionError(f"poset has {P.n} elements, label map {pi.n}")
    if ideal_closure(P, I.members).members_mask != I.members_mask:
        raise PreconditionError(f"{I.members} is not an ideal of P")
    rows = []
    for i in range(1, pi.n + 1):
        if not I.contains(i):
            sl = pi.block_slice(i)
            for pos in range(sl.start, sl.stop):
                row = [0] * pi.N
                row[pos] = 1
                rows.append(row)
    return linear_code(q, rows, n_cols=pi.N)


def mds_chain_ball_counts(
    C: LinearCode, P: Poset, pi: LabelMap, W: WeightModel
) -> tuple:
    """|B(0, r) & C| for every radius r, for an MDS code on a chain.

    1 up to radius M_w*(n - k/s); beyond that, with r = t*M_w + l
    (1 <= l <= M_w), the count is (|D_0^s| + ... + |D_l^s|) * q^(k - s(n-t)).
    """
    s, t0, _ = _check_mds_chain(C, P, pi, W)
    n, M_w, q = pi.n, W.M_w, W.q
    out = []
    for r in range(n * M_w + 1):
        if r <= M_w * t0:
            out.append(1)
        else:
            t = (r + M_w - 1) // M_w - 1
            l = r - t * M_w
            partial = sum(block_class_size(W, e, s) for e in range(l + 1))
            out.append(partial * q ** (C.k - s * (n - t)))
    return tuple(out)


def mds_chain_distribution(
    C: LinearCode, P: Poset, pi: LabelMap, W: WeightModel
) -> tuple:
    """Codeword weight distribution |A_r(C)| of an MDS code on a chain.

    1 at r = 0, zero below the minimum distance, and |D_l^s| * q^(k + s(t-n))
    at r = t*M_w + l once r clears M_w*(n - k/s); zeros below the minimum
    distance fall out because |D_l| vanishes for l < m_w.
    """
    s, t0, _ = _check_mds_chain(C, P, pi, W)
    n, M_w, q = pi.n, W.M_w, W.q
    out = [0] * (n * M_w + 1)
    out[0] = 1
    for t in range(t0, n):
        for l in range(1, M_w + 1):
            out[t * M_w + l] = block_class_size(W, l, s) * q ** (C.k + s * (t - n))
    return tuple(out)


def _check_mds_chain(C, P, pi, W):
    if not classify(P).is_chain:
        raise PreconditionError("poset is not a chain")
    s = _equal_block_size(pi)
    if C.k % s != 0:
        raise HypothesisError(f"block size {s} does not divide dimension {C.k}")
    report = singleton_report(C, P, pi, W)
    if not report.is_mds_pwpi:
        raise PreconditionError("code is not MDS in the weighted metric")
    return s, pi.n - C.k // s, report


def chain_mds_code(P: Poset, pi: LabelMap, q: int, dim: int) -> LinearCode:
    """The transversal I-perfect code on the bottom n - dim/s chain elements.

    On a chain this code is MDS, which makes it the canonical test subject
    for the duality and distribution theorems.
    """
    s = _equal_block_size(pi)
    if dim % s != 0 or not 0 <= dim <= pi.N:
        raise HypothesisError(f"dimension {dim} incompatible with block size {s}")
    order = chain_order(P)
    bottom = order[: pi.n - dim // s]
    I = ideal_closure(P, bottom)
    return construct_I_perfect(P, pi, I, q)
