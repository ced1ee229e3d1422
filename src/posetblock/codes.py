"""Linear codes over F_q (q prime) in a (P,w,pi)-space.

The generator is kept in reduced row-echelon form.  A code is perfect
when its balls pack (are pairwise disjoint) and fill the space by volume,
|C| * |B| = q^N.  For an I-ball the fill is the sum of k_i over I being
N - k, and packing a rank test over F_q: C meets B_I(0) only in 0 exactly
when the generator's columns on the blocks outside I have rank k.  For
an r-ball the fill takes the closed-form volume, and packing is one
decision shared with the r-error-correcting verdict: False by pigeonhole
when |C| * |B_r(0)| > q^N, with |B_r(0)| counted by the oracle, and else
the oracle's per-coset count.  Only `codewords` and minimum distances
enumerate the q^k codewords, under a cap.  The module covers I-balls,
I-perfect / r-perfect / r-error-correcting checks, the Singleton bound
and MDS status in both the weighted and the Hamming-specialized metric,
dual codes, the four-way duality equivalence under a unique ideal, the
transversal I-perfect construction, and the closed-form weight
distribution of MDS chain codes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import accumulate
from math import isqrt

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
    integer,
)
from .poset import (
    IDEAL_CAP_DEFAULT,
    Ideal,
    Poset,
    _bits,
    _sole_ideal,
    chain_order,
    dual_poset,
    fold_ideals,
    ideal_closure,
)
from .space import LabelMap, check_shape, pi_support, space_cap, vector_sub
from .weights import WeightModel, block_class_size, hamming_weight, metric_fault

CODEWORD_CAP_DEFAULT = 10**6


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


def _rref(rows: list[list[int]], q: int, n_cols: int) -> list[list[int]]:
    """Reduced row echelon form over F_q, without zero rows."""
    rows = [[v % q for v in r] for r in rows]
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
        r += 1
        if r == len(rows):
            break
    return rows[:r]


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

    @property
    def pivots(self) -> tuple[int, ...]:
        """The first nonzero column of each stored row: the RREF's pivots."""
        return tuple(next(c for c, v in enumerate(row) if v) for row in self.generator)

    def to_json_dict(self) -> dict:
        return {"q": self.q, "generator": [list(r) for r in self.generator]}


def linear_code(q: int, rows, n_cols: int | None = None) -> LinearCode:
    """Build a LinearCode from arbitrary generator rows (reduced internally)."""
    q = integer(q, "alphabet size")
    if not _is_prime(q):
        raise NonPrimeError(f"alphabet size {q} is not prime")
    rows = [[integer(v, "generator entry") for v in r] for r in rows]
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
    reduced = _rref(rows, q, n_cols)
    return LinearCode(q=q, n_cols=n_cols, generator=tuple(tuple(r) for r in reduced))


def _codeword_matrix(C: LinearCode, cap: int, start: int = 0) -> Iterator:
    """The codeword matrix a chunk at a time, from coefficient index start
    on, under the codeword cap: the oracle's `_codeword_rows`."""
    if C.size > cap:
        raise ExplosionError(f"q^k = {C.size} codewords exceed cap {cap}")
    from .oracle import _codeword_rows

    return _codeword_rows(C, start)


def codewords(C: LinearCode, *, cap: int = CODEWORD_CAP_DEFAULT) -> tuple:
    """All q^k codewords as tuples, in lexicographic coefficient order."""
    return tuple(tuple(w) for words in _codeword_matrix(C, cap) for w in words.tolist())


def min_distance(
    C: LinearCode,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    cap: int = CODEWORD_CAP_DEFAULT,
) -> int:
    """Minimum nonzero codeword weight (exhaustive, by the oracle's row
    kernel, on one chunk of codewords at a time); the Hamming-weight swap of
    W yields the (P,pi) minimum distance."""
    check_shape(pi, P.n, C)
    if C.k == 0:
        raise TrivialCodeError("the zero code has no nonzero codeword")
    from .oracle import _row_weigher

    # the generator has full rank, so every codeword but the first is nonzero
    weigh = _row_weigher(P, pi, W)
    return min(int(weigh(words).min()) for words in _codeword_matrix(C, cap, start=1))


def i_ball_contains(pi: LabelMap, q: int, I: Ideal, center, x) -> bool:
    """Whether x lies in the I-ball around center: supp_pi(center - x) inside I."""
    check_shape(pi, I.n)
    diff = vector_sub(q, center, x)
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
    reduced = _rref([[row[c] for c in cols] for row in C.generator], C.q, len(cols))
    return len(reduced) == C.k


def is_I_perfect(C: LinearCode, I: Ideal, pi: LabelMap) -> bool:
    """Covering condition sum(k_i, i in I) = N - k plus packing |B_I(0) & C| = 1.

    Packing is a rank test: the generator's columns outside I have rank k.
    No codeword is enumerated, and neither the poset nor the weight enters.
    """
    check_shape(pi, I.n, C)
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
    """Whether the r-balls centered at codewords partition the space: they
    are pairwise disjoint (`_r_balls_disjoint`) and fill it by volume,
    |C| * |B_r(0)| = q^N, with |B_r(0)| the closed form's ball volume.

    Beyond the space cap, balls that do not fill answer False before any
    certificate is sought.  Within it the volume checks the oracle's sweep:
    the ball has that size, disjoint balls cover exactly when they fill,
    and balls that fill with a distance certificate (sought within the
    codeword cap only) are disjoint.
    """
    check_shape(pi, P.n, C)
    if integer(r, "radius") < 0 or r > pi.n * W.M_w:
        raise BoundsError(f"radius {r} outside [0, {pi.n * W.M_w}]")
    volume = ball_volume(distribution(P, pi, W), r)
    fills = C.size * volume == C.q**pi.N
    if not fills and C.q**pi.N > space_cap(cap):
        return False
    disjoint, sweep = _r_balls_disjoint(C, r, P, pi, W, cap, codeword_cap)
    if sweep is not None:
        size, res = sweep
        if size != volume:
            raise ConsistencyError("oracle ball size differs from the ball volume")
        if disjoint and res.covering != fills:
            raise ConsistencyError("disjoint balls cover exactly when the volumes fill")
        if fills and not disjoint and C.size <= codeword_cap:
            if _distance_certifies(C, r, P, pi, W, codeword_cap):
                raise ConsistencyError("volume + distance certify perfect, sweep disagrees")
    return disjoint and fills


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
    """Whether the r-balls centered at codewords are pairwise disjoint
    (`_r_balls_disjoint`); the zero code's one ball is."""
    check_shape(pi, P.n, C)
    if integer(r, "radius") < 0:
        raise BoundsError(f"radius {r} < 0")
    return C.k == 0 or _r_balls_disjoint(C, r, P, pi, W, cap, codeword_cap)[0]


def _r_balls_disjoint(C, r, P, pi, W, cap, codeword_cap):
    """Whether the r-balls centered at codewords are pairwise disjoint, and
    the oracle's sweep (|B_r(0)|, per-coset result) behind that answer, or
    None beyond the space cap.

    Within the space cap the oracle decides: False by pigeonhole when its
    brute-force |B_r(0)| times |C| exceeds q^N, else its exact per-coset
    count.  Beyond the cap: True when k = 0 or when W is a metric with
    minimum distance > 2r (by translation invariance the least pairwise
    distance is the least nonzero codeword weight), else ExplosionError.
    """
    if C.q**pi.N > space_cap(cap):
        if C.k == 0 or _distance_certifies(C, r, P, pi, W, codeword_cap):
            return True, None
        raise ExplosionError(
            "space over cap and the distance criterion cannot certify "
            "disjointness, on which perfectness rests"
        )
    sweep = _r_ball_perfectness(C, P, pi, W, r, cap=cap)
    res = sweep[1]  # None: overlap by pigeonhole
    return res is not None and res.disjoint, sweep


def _r_ball_perfectness(C, P, pi, W, r, *, cap=None):
    """The oracle's sweep behind the r-ball verdicts, (|B_r(0)|, per-coset
    result or None): oracle._r_ball_perfectness, imported on first use."""
    from .oracle import _r_ball_perfectness as sweep

    return sweep(C, P, pi, W, r, cap=cap)


def _distance_certifies(C, r, P, pi, W, codeword_cap) -> bool:
    """Whether min distance > 2r proves the r-balls disjoint, which takes
    the triangle inequality: only for a symmetric, subadditive W."""
    return metric_fault(W) is None and min_distance(C, P, pi, W, cap=codeword_cap) > 2 * r


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


def _max_ideal_k_sums(
    P: Poset, pi: LabelMap, ideal_cap: int = IDEAL_CAP_DEFAULT
) -> list[int]:
    """best[c] = the largest sum(k_i, i in J) over the ideals J with |J| = c,
    folded in max-plus form; ideal_cap bounds the pieces split on a maximal
    element."""

    def join(a: list[int], b: list[int]) -> list[int]:
        best = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                best[i + j] = max(best[i + j], x + y)
        return best

    def split(x: int, down: int, without: list[int], rest: list[int]) -> list[int]:
        # each size below |piece| has an ideal without x; the full size needs x
        best = without + [0]
        top = sum(pi.k[i] for i in _bits(down))
        for c, r in enumerate(rest, down.bit_count()):
            best[c] = max(best[c], top + r)
        return best

    def stack(low: list[int], below: int, high: list[int]) -> list[int]:
        return low + [low[-1] + h for h in high[1:]]

    return fold_ideals(P, [0], lambda i: [0, pi.k[i]], join, stack, split, cap=ideal_cap)


def singleton_report(
    C: LinearCode,
    P: Poset,
    pi: LabelMap,
    W: WeightModel,
    *,
    ideal_cap: int = IDEAL_CAP_DEFAULT,
) -> CodeReport:
    """Singleton bound data and MDS verdicts in both metrics.

    The bound: max over ideals J of cardinality floor((d - m_w)/M_w) of
    sum(k_i, i in J) is at most N - log_q |C| = N - k; MDS means equality.
    The Hamming swap gives the (P,pi) version with radius d_ppi - 1.  The
    maxima fold P's decomposition in max-plus form with no ideal listed; a
    piece that does not decompose splits on a maximal element, and more
    than ideal_cap such pieces raise ExplosionError."""
    d_pwpi = min_distance(C, P, pi, W)
    d_ppi = min_distance(C, P, pi, hamming_weight(C.q))
    rhs = pi.N - C.k
    # every cardinality 0..n has an ideal, and 0 <= r_wtilde, d_ppi - 1 <= n
    best = _max_ideal_k_sums(P, pi, ideal_cap)
    r_wtilde, lhs, is_mds_pwpi = _weighted_singleton(d_pwpi, W, best, rhs)
    ppi_lhs = best[d_ppi - 1]
    return CodeReport(
        d_pwpi=d_pwpi,
        d_ppi=d_ppi,
        r_wtilde=r_wtilde,
        singleton_lhs=lhs,
        singleton_rhs=rhs,
        ppi_lhs=ppi_lhs,
        is_mds_pwpi=is_mds_pwpi,
        is_mds_ppi=ppi_lhs == rhs,
    )


def _weighted_singleton(d: int, W: WeightModel, best: list[int], rhs: int) -> tuple:
    """(r~, best[r~], MDS) for r~ = floor((d - m_w)/M_w): the weighted
    Singleton bound reads best[r~] <= N - k = rhs, and MDS is equality."""
    r_wtilde = (d - W.m_w) // W.M_w
    return r_wtilde, best[r_wtilde], best[r_wtilde] == rhs


def dual_code(C: LinearCode) -> LinearCode:
    """Null space of the generator under the standard inner product."""
    if not _is_prime(C.q):
        raise NonPrimeError(f"alphabet size {C.q} is not prime")
    q, n, pivots = C.q, C.n_cols, C.pivots
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for row, p in zip(C.generator, pivots):
            vec[p] = (-row[f]) % q
        basis.append(vec)
    return linear_code(q, basis, n_cols=n)


def _equal_block_ideal(P: Poset, pi: LabelMap, k: int) -> tuple[int, Ideal]:
    """(s, I^t) under the equal-block MDS hypothesis for dimension k: every
    block has s symbols, s | k, and P has one ideal I^t of t = n - k/s
    elements, found with no enumeration (poset._sole_ideal; on a chain, the
    bottom t).  Each part that fails raises HypothesisError."""
    s = pi.k[0]
    if any(size != s for size in pi.k):
        raise HypothesisError(f"blocks are not all equal: {pi.k}")
    if k % s:
        raise HypothesisError(f"block size {s} does not divide dimension {k}")
    t = pi.n - k // s
    members = _sole_ideal(P, t)
    if members is None:
        raise HypothesisError(f"|I^{t}| > 1, the MDS theorems need a unique ideal")
    return s, Ideal(n=P.n, members_mask=members, max_mask=P.maximals_mask(members))


def _mds_pwpi(C, P, pi, W) -> bool:
    # the zero code has no nonzero codeword: no distance can violate the
    # bound, so it counts as MDS (needed when dualizing the whole space)
    if C.k == 0:
        return True
    d = min_distance(C, P, pi, W)
    return _weighted_singleton(d, W, _max_ideal_k_sums(P, pi), pi.N - C.k)[2]


def verify_duality(C: LinearCode, P: Poset, pi: LabelMap, W: WeightModel) -> bool:
    """Four-way equivalence under a unique ideal of cardinality n - k/s.

    Requires the equal-block hypothesis (`_equal_block_ideal`).  Checks
    that C being MDS, C being I-perfect, the dual being I^c-perfect in the
    dual poset, and the dual being MDS all agree; the MDS legs weigh only
    d_pwpi, one codeword sweep each.
    """
    check_shape(pi, P.n, C)
    _, I = _equal_block_ideal(P, pi, C.k)
    Pd = dual_poset(P)
    comp_mask = ((1 << P.n) - 1) & ~I.members_mask
    I_comp = Ideal(
        n=P.n, members_mask=comp_mask, max_mask=Pd.maximals_mask(comp_mask)
    )
    Cd = dual_code(C)
    checks = (
        _mds_pwpi(C, P, pi, W),
        is_I_perfect(C, I, pi),
        is_I_perfect(Cd, I_comp, pi),
        _mds_pwpi(Cd, Pd, pi, W),
    )
    return all(checks) or not any(checks)


def construct_I_perfect(P: Poset, pi: LabelMap, I: Ideal, q: int) -> LinearCode:
    """Transversal construction: span of the unit vectors of blocks outside I."""
    check_shape(pi, P.n)
    check_shape(pi, I.n)
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
    """|B(0, r) & C| for every radius r, for an MDS code on a chain: the
    running sums of `mds_chain_distribution`.

    1 up to radius M_w*(n - k/s); beyond that, with r = t*M_w + l
    (1 <= l <= M_w), the count is (|D_0^s| + ... + |D_l^s|) * q^(k - s(n-t)),
    whose sum telescopes to (|D_0| + ... + |D_l|)^s.
    """
    return tuple(accumulate(mds_chain_distribution(C, P, pi, W)))


def mds_chain_distribution(
    C: LinearCode, P: Poset, pi: LabelMap, W: WeightModel
) -> tuple:
    """Codeword weight distribution |A_r(C)| of an MDS code on a chain.

    1 at r = 0, zero below the minimum distance, and |D_l^s| * q^(k + s(t-n))
    at r = t*M_w + l once r clears M_w*(n - k/s); zeros below the minimum
    distance fall out because |D_l| vanishes for l < m_w.

    Under the equal-block hypothesis (`_equal_block_ideal`), C is MDS in the
    (P,w,pi) metric exactly when it is I-perfect for I^t, the bottom
    t = n - k/s elements, which is a rank test.  The one ideal of size c
    has sum(k_i) = s*c, so MDS means floor((d - m_w)/M_w) = t.  A codeword
    whose ideal of support has c elements weighs between M_w(c - 1) + m_w
    and M_w*c.  If every nonzero codeword has c >= t + 1, d >= M_w*t + m_w,
    and the bound forces equality; if one has c <= t,
    floor((d - m_w)/M_w) <= t - 1.  The zero code is MDS.
    """
    check_shape(pi, P.n, C)
    chain_order(P)  # raises PreconditionError on non-chains, before the blocks
    s, I = _equal_block_ideal(P, pi, C.k)
    if not is_I_perfect(C, I, pi):
        raise PreconditionError("code is not MDS in the weighted metric")
    n, M_w, q = pi.n, W.M_w, W.q
    out = [0] * (n * M_w + 1)
    out[0] = 1
    for t in range(n - C.k // s, n):
        for l in range(1, M_w + 1):
            out[t * M_w + l] = block_class_size(W, l, s) * q ** (C.k + s * (t - n))
    return tuple(out)


def chain_mds_code(P: Poset, pi: LabelMap, q: int, dim: int) -> LinearCode:
    """The transversal I-perfect code on I^t, the bottom t = n - dim/s chain
    elements.

    On a chain this code is MDS, which makes it the canonical test subject
    for the duality and distribution theorems.
    """
    chain_order(P)  # raises PreconditionError on non-chains, before the blocks
    dim = integer(dim, "dimension")
    if not 0 <= dim <= pi.N:
        raise HypothesisError(f"dimension {dim} outside [0, {pi.N}]")
    _, I = _equal_block_ideal(P, pi, dim)
    return construct_I_perfect(P, pi, I, q)
