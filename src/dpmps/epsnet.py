"""Grid-based nets of orthonormal-row matrices and the MPS tensor nets.

The generator takes every matrix over a finite grid of complex entries,
filters by row norm, renormalizes, filters by pairwise row inner products,
and finishes with Gram-Schmidt.  It works in row-product form: the m^b grid
rows are enumerated, norm-filtered and renormalized once, a table of row
overlaps decides the overlap filter over the tuples of kept rows, and
Gram-Schmidt takes each candidate's first row from a per-row table.  The
family is bit for bit that of filtering every candidate whole
(`orthonormal_family` gives the argument).  The certified per-row
covering radius of the output family is nu_cert = 59*b*delta for column
count b; it and the two filter bounds each live in one helper (`_radius`,
`_norm_band`, `_overlap_bound`), shared by the generator,
`covering_chain` and `certified_epsilon`.  Boundary and interior tensor
nets are thin wrappers assembling the family output into canonical MPS
building blocks, and keep the certificates of their families.

The interior pair net is held as arrays: `lam` (N, D), `b` (N, D, d, D)
and `mu` (N, D), with pairs ordered lambda-major over the lambda family,
plus the distinct lambda vectors `lam_net` and each pair's row in it,
`lam_class`.  Its keep mask comes first (`filter_pair_net`, which alone
gives the net's counts): one left-canonical filter per distinct lambda
over the whole B family (`_left_canonical_keep`), where a per-row Gram
factor, formed once per family, screens the largest off-diagonal (lambda
B) Gram entry of every pair, and the exact kernel `mps.left_gram_offdiag`
decides only the pairs whose screened value lies within 1e-12 of the
threshold, so the kept set is the exact kernel's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
import itertools
import math

import numpy as np

from . import hamiltonian
from .errors import EmptyNetError, NetSizeError, check_size
from .mps import left_gram_offdiag, mu_of

DEFAULT_CAP = 10**7
GS_DEGENERATE_TOL = 1e-7
# half-width of the band around the left-canonical threshold that the exact
# Gram kernel decides; far above what either evaluation can round
SCREEN_TOL = 1e-12


def _grid_count(delta: float):
    """ceil(1/(2 delta)) - 1, or math.inf when 1/(2 delta) overflows."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"delta must be in (0, 0.5], got {delta}")
    half = 1.0 / (2.0 * delta)
    return math.ceil(half) - 1 if math.isfinite(half) else math.inf


def real_grid(delta: float) -> np.ndarray:
    """Points {(2j+1)*delta : j = 0..ceil(1/(2 delta))-2} plus {1-delta}.

    Every x in [0, 1] is within delta of some point.
    """
    pts = {(2 * j + 1) * delta for j in range(_grid_count(delta))}
    return np.array(sorted(pts | {1.0 - delta}), dtype=float)


def complex_grid(delta: float) -> np.ndarray:
    """Points {x * exp(2 pi i y)} over the real grid in modulus and phase."""
    r = real_grid(delta)
    return (r[:, None] * np.exp(2j * np.pi * r)[None, :]).ravel()


@dataclass
class NetCertificate:
    """Filter funnel and certified covering radius of one generated family."""

    nu_cert: float
    candidate_count: int
    survivors_norm_filter: int
    survivors_overlap_filter: int
    dropped_degenerate: int
    size: int


def _norm_band(b: int, delta: float) -> tuple:
    """Row norms kept by the norm filter: [1 - 2 sqrt(b) delta,
    1 + 2 sqrt(b) delta] for column count b."""
    w = 2.0 * math.sqrt(b) * delta
    return 1.0 - w, 1.0 + w


def _overlap_bound(b: int, delta: float) -> float:
    """Largest off-diagonal row inner product kept by the overlap filter."""
    return 9.0 * math.sqrt(b) * delta


def _radius(b: int, delta: float) -> float:
    """Certified per-row covering radius 59 b delta of the family."""
    return 59.0 * b * delta


def _family_peak_bytes(total: int, a: int, b: int) -> int:
    """Peak bytes of `orthonormal_family` over `total` grid candidates,
    when every candidate survives the filters.  It comes at the end of
    Gram-Schmidt, which holds the swept rows and the output (16 a b bytes
    each per candidate), one masked row (16 b), the index tuples (8 a),
    the masks and their indices (under 40), and the renormalized grid rows
    (16 b per row, at most one row per candidate), plus 1 MiB of
    allocations that do not grow with the family.  The earlier steps peak
    lower: the row-0 tables (64 b per row, with the swept rows but not the
    output), the row filters (48 b + 17 per grid row) and the overlap
    table with its tuple grid (16 b + 8 a + 26 per candidate)."""
    return total * (32 * a * b + 32 * b + 8 * a + 40) + (1 << 20)


def _grid_rows(grid: np.ndarray, b: int) -> np.ndarray:
    """All m^b rows of b entries over the grid, lexicographic over entry
    indices."""
    return grid[np.indices((len(grid),) * b).reshape(b, -1).T]


def _overlap_tuples(rows: np.ndarray, a: int, bound: float) -> tuple:
    """Index arrays (idx[0], ..., idx[a-1]) of the a-row candidates over
    the unit rows, lexicographic, whose row Gram matrix is within bound of
    the identity in every entry: |<r_p, r_p> - 1| on the diagonal and
    |<r_p, r_q>| off it.  Each entry reads two rows alone, so one R x R
    overlap table, broadcast over the (R,)*a tuple grid, decides every
    candidate."""
    if a == 1:
        return (np.arange(len(rows)),)
    table = np.einsum("pj,qj->pq", rows.conj(), rows)
    unit = np.abs(table.diagonal() - 1.0) <= bound
    # with a >= 2 every row of a tuple sits in some pair of its rows
    near = (np.abs(table) <= bound) & unit[:, None] & unit
    del table
    near &= near.T
    keep = np.ones((len(rows),) * a, dtype=bool)
    for i, k in itertools.combinations(range(a), 2):
        keep &= np.expand_dims(near, [j for j in range(a) if j not in (i, k)])
    return np.nonzero(keep)


def _unit_rows(v: np.ndarray):
    """(v with each row divided by its norm in place, mask of the rows
    whose norm is above the degeneracy threshold); the other rows are left
    as they are."""
    nrm = np.linalg.norm(v, axis=1)
    good = nrm > GS_DEGENERATE_TOL
    return np.divide(v, np.where(good, nrm, 1.0)[:, None], out=v), good


def _gram_schmidt_rows(rows: np.ndarray, idx: Sequence):
    """Vectorized Gram-Schmidt of the a x b candidates whose row i is
    rows[idx[i][n]], for n over the index tuples: idx holds a index arrays
    of one length n.

    Returns (the orthonormalized candidates whose every intermediate row
    kept norm above the degeneracy threshold, (k, a, b); the mask (n,) of
    those candidates).  Row 0 of a candidate depends on its own row alone,
    so each sweep takes it from a table over `rows`.  Row i of every
    candidate is one contiguous (n, b) array, which the second sweep
    updates in place.
    """
    a, n = len(idx), len(idx[0])
    z = [None] * a
    ok = np.ones(n, dtype=bool)
    first = rows.copy()
    # second pass reorthogonalizes to push residuals well below 1e-10
    for sweep in range(2):
        z[0] = None             # freed before the table's norm temporaries
        first, good = _unit_rows(first)
        z[0] = first[idx[0]]
        ok &= good[idx[0]]
        for i in range(1, a):
            v = rows[idx[i]] if sweep == 0 else z[i]
            for k in range(i):
                ov = np.einsum("nj,nj->n", z[k].conj(), v)
                v -= ov[:, None] * z[k]
            z[i], good = _unit_rows(v)
            ok &= good
    del first
    out = np.empty((np.count_nonzero(ok), a, rows.shape[1]), dtype=rows.dtype)
    for i in range(a):
        out[:, i] = z[i][ok]
        z[i] = None
    return out, ok


def orthonormal_family(a: int, b: int, delta: float, real_nonneg: bool = False,
                       cap: int = DEFAULT_CAP):
    """Generate the family of a x b orthonormal-row matrices over the grid.

    Pipeline: take every a x b grid matrix, lexicographic over its entry
    indices; drop any with a row norm outside
    [1 - 2 sqrt(b) delta, 1 + 2 sqrt(b) delta]; renormalize rows; drop any
    whose row Gram matrix is farther than 9 sqrt(b) delta from the
    identity in some entry; orthonormalize rows by Gram-Schmidt.
    Candidates whose rows become numerically dependent during Gram-Schmidt
    are dropped.

    It runs in row-product form.  A candidate's index is lexicographic in
    its a row indices over the m^b grid rows, and a row's norm test and
    renormalization read that row alone, so the candidates that pass the
    norm filter, in order, are the a-tuples of the R kept rows in
    lexicographic order, each row renormalized once.  Every Gram entry
    reads two rows alone, so one R x R overlap table, with the same
    products summed in the same order, decides the overlap filter over the
    (R,)*a tuple grid (`_overlap_tuples`), whose C order is that
    lexicographic order.  Gram-Schmidt (`_gram_schmidt_rows`) then
    sweeps the kept tuples with each candidate's own arithmetic unchanged:
    row 0 of either sweep is one normalization of one row, so a per-row
    table gives it; rows i >= 1 go through the same projections and
    divisions, row by row; and the second sweep reads each row before it
    replaces it, so it needs no copy of the first sweep's output.  So the
    family and its NetCertificate are bit for bit those of filtering every
    candidate whole (`tests/reference.py` keeps that pipeline), while only
    m^b rows are enumerated and filtered.  The certificate still counts
    the m^(ab) grid candidates, of which R^a pass the norm filter.

    Returns (array of the matrices, shape (size, a, b); NetCertificate).
    """
    if a > b:
        raise ValueError(f"need row count a <= column count b, got {a} > {b}")
    if real_nonneg and a != 1:
        raise ValueError("real nonnegative generation requires a = 1")
    # a lower bound on the candidate count, checked before any grid is built
    check_size(_grid_count(delta) ** (a * b * (1 if real_nonneg else 2)), cap,
               f"grid candidates for a={a}, b={b}, delta={delta}, at least",
               "cap", NetSizeError)
    grid = real_grid(delta) if real_nonneg else complex_grid(delta)
    what = f"grid candidates for a={a}, b={b}"
    total = check_size(len(grid) ** (a * b), cap, what, "cap", NetSizeError)
    check_size(_family_peak_bytes(total, a, b), hamiltonian._physical_memory(),
               f"bytes of the {what} and their filters", "physical memory")

    rows = _grid_rows(grid.astype(complex), b)
    lo, hi = _norm_band(b, delta)
    norms = np.linalg.norm(rows, axis=1)
    keep = (norms >= lo) & (norms <= hi)
    rows = rows[keep] / norms[keep, None]
    n1 = len(rows) ** a

    idx = _overlap_tuples(rows, a, _overlap_bound(b, delta))
    n3 = len(idx[0])

    out, _ = _gram_schmidt_rows(rows, idx)
    if real_nonneg:
        out = out.real.astype(complex)
    cert = NetCertificate(
        nu_cert=_radius(b, delta), candidate_count=total,
        survivors_norm_filter=n1, survivors_overlap_filter=n3,
        dropped_degenerate=n3 - out.shape[0], size=out.shape[0],
    )
    if out.shape[0] == 0:
        raise EmptyNetError(
            f"all {total} candidates removed for a={a}, b={b}, delta={delta}"
        )
    return out, cert


@dataclass
class BoundaryNet:
    """Net of D x d_end boundary tensors with orthonormal rows, and the
    certificate of the family they come from."""

    tensors: np.ndarray      # (G, D, d_end)
    cert: NetCertificate

    @property
    def size(self) -> int:
        return len(self.tensors)


@dataclass
class PairElement:
    """One (lambda, B) net element with its cached right Schmidt vector."""

    lam: np.ndarray      # (D,) nonnegative, unit norm
    b: np.ndarray        # (D, d, D) right canonical
    mu: np.ndarray       # mu_of(lam, b)


class PairView(Sequence):
    """Read-only sequence over a pair net's arrays.  An integer index gives
    a PairElement of views into the arrays, a slice gives a PairView."""

    def __init__(self, lam: np.ndarray, b: np.ndarray, mu: np.ndarray):
        self._lam, self._b, self._mu = lam, b, mu

    def __len__(self) -> int:
        return len(self._lam)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return PairView(self._lam[i], self._b[i], self._mu[i])
        return PairElement(lam=self._lam[i], b=self._b[i], mu=self._mu[i])


@dataclass
class PairNet:
    """Net of canonical (lambda, B) pairs for interior sites, as arrays.

    Pair k is (lam[k], b[k]) with right Schmidt vector mu[k] =
    mu_of(lam[k], b[k]); `lam_net` holds the distinct lambda vectors in
    lexicographic order and lam_net[lam_class[k]] == lam[k].  `lam_cert`
    and `b_cert` are the certificates of the lambda and B families.
    """

    lam: np.ndarray          # (N, D) nonnegative, unit norm
    b: np.ndarray            # (N, D, d, D) right canonical
    mu: np.ndarray           # (N, D)
    lam_net: np.ndarray      # (K, D)
    lam_class: np.ndarray    # (N,) row of lam_net
    epsilon_cert: float
    lam_cert: NetCertificate
    b_cert: NetCertificate
    filtered_out: int = 0

    @property
    def pairs(self) -> PairView:
        return PairView(self.lam, self.b, self.mu)

    @property
    def size(self) -> int:
        return len(self.lam)


def build_end_net(D: int, d_end: int, delta: float,
                  cap: int = DEFAULT_CAP) -> BoundaryNet:
    """Boundary tensor net: family rows viewed as Gamma with Gamma^i_alpha
    = A[alpha, i]."""
    if D > d_end:
        raise ValueError(f"boundary net needs D <= d_end, got {D} > {d_end}")
    mats, cert = orthonormal_family(D, d_end, delta, real_nonneg=False,
                                    cap=cap)
    return BoundaryNet(tensors=mats, cert=cert)


def certified_epsilon(d: int, D: int, delta: float) -> float:
    """Certified accuracy 2 * 59 * (d D) * delta of the pair net at grid
    spacing delta: twice the covering radius of the D x dD B family."""
    return 2.0 * _radius(d * D, delta)


def _gram_factor(b_fam: np.ndarray) -> np.ndarray:
    """Per-row factor M (N, D, D(D-1)/2) of the (lambda B) Gram matrices of
    a B family (N, D, d, D): M[n, a, p] = sum_i conj(B^i_{a beta})
    B^i_{a beta'} over the column pairs p = (beta < beta') in
    `np.triu_indices` order, so that Gram entry (beta, beta') of
    (lambda, B_n) is sum_a lambda_a^2 M[n, a, p]."""
    rows, cols = np.triu_indices(b_fam.shape[-1], 1)
    return (b_fam[..., rows].conj() * b_fam[..., cols]).sum(axis=-2)


def _screen_offdiag(lam: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Largest off-diagonal (lambda B) Gram entry of every row of the
    factor, |sum_a lambda_a^2 M[n, a, p]| maxed over p; 0 when D = 1 and
    NaN wherever M is.  It is `left_gram_offdiag` summed in another order."""
    g = np.abs(np.tensordot(lam * lam, factor, axes=(0, 1)))
    return g.max(axis=-1, initial=0.0)


def _left_canonical_keep(lams: np.ndarray, b_fam: np.ndarray,
                         threshold: float) -> np.ndarray:
    """Keep mask (K, N) of the pairs (lams[k], b_fam[n]):
    ~(left_gram_offdiag(lams[k], b_fam) > threshold), so ties and NaN are
    kept.

    One Gram factor per family screens every lambda.  A pair is kept
    outright below threshold - SCREEN_TOL and dropped outright above
    threshold + SCREEN_TOL; the exact kernel decides the rest (NaN
    included) on the gathered pairs.  For unit lambda and B with
    orthonormal rows every Gram term is at most |col beta| |col beta'| <= 1,
    so the two evaluations differ by rounding far below SCREEN_TOL
    (1.7e-16 on the D=2 delta=0.25 family).
    """
    factor = _gram_factor(b_fam)
    keep = np.empty((len(lams), len(b_fam)), dtype=bool)
    for k, lam in enumerate(lams):
        g = _screen_offdiag(lam, factor)
        keep[k] = g < threshold - SCREEN_TOL
        band = np.flatnonzero(~(keep[k] | (g > threshold + SCREEN_TOL)))
        keep[k, band] = ~(left_gram_offdiag(lam, b_fam[band]) > threshold)
    return keep


def check_epsilon_op(epsilon_op: float) -> None:
    """Raise ValueError unless epsilon_op is positive (NaN is not)."""
    if not epsilon_op > 0:
        raise ValueError(f"epsilon_op must be positive, got {epsilon_op}")


@dataclass
class PairFilter:
    """The left-canonical keep mask of the pair net, with no pair formed:
    lambda family row r keeps the pairs (lam_net[c], b_fam[n]) with
    keep[c, n], c = fam_class[r]."""

    keep: np.ndarray         # (K, M) over the distinct lambdas and B rows
    lam_net: np.ndarray      # (K, D) distinct lambda vectors, lexicographic
    fam_class: np.ndarray    # (L,) row of lam_net of each lambda family row
    lam_fam: np.ndarray      # (L, D)
    b_fam: np.ndarray        # (M, D, d, D)
    epsilon_cert: float
    lam_cert: NetCertificate
    b_cert: NetCertificate

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.keep, axis=1)[self.fam_class].sum())

    @property
    def filtered_out(self) -> int:
        return self.keep.shape[1] * len(self.fam_class) - self.size


def filter_pair_net(D: int, d: int, delta: float, epsilon_op: float,
                    cap: int = DEFAULT_CAP) -> PairFilter:
    """Keep mask of the product of the lambda net (real nonnegative unit
    vectors) and the B net (right-canonical tensors from D x dD families):
    the pairs that are approximately left canonical, whose largest
    off-diagonal Gram entry is not above 3*epsilon_op (ties are kept).
    Raises EmptyNetError when it keeps none."""
    check_epsilon_op(epsilon_op)
    lam_mats, lam_cert = orthonormal_family(1, D, delta, real_nonneg=True,
                                            cap=cap)
    b_mats, b_cert = orthonormal_family(D, d * D, delta, real_nonneg=False,
                                        cap=cap)
    lam_fam = np.ascontiguousarray(lam_mats[:, 0].real)
    # column index (i, beta) is row-major over the dD columns
    b_fam = b_mats.reshape(-1, D, d, D)
    # equal lambda vectors from different grid points share one class
    lam_net, fam_class = np.unique(lam_fam, axis=0, return_inverse=True)
    pf = PairFilter(_left_canonical_keep(lam_net, b_fam, 3.0 * epsilon_op),
                    lam_net, fam_class.reshape(-1), lam_fam, b_fam,
                    certified_epsilon(d, D, delta), lam_cert, b_cert)
    if pf.size == 0:
        raise EmptyNetError(
            "left-canonical filter removed every pair; "
            f"epsilon_op={epsilon_op} too small for delta={delta}"
        )
    return pf


def _pair_net_bytes(size: int, widest: int, D: int, d: int) -> int:
    """Bytes of forming `size` pairs: lam, b, mu, lam_class and two index
    arrays, and `mu_of`'s B gather, product and modulus over the `widest`
    kept pairs of one lambda (the traced peak is 0.66-0.90 of it)."""
    return size * (16 * d * D * D + 16 * D + 24) + widest * 40 * d * D * D


def build_pair_net(D: int, d: int, delta: float, epsilon_op: float,
                   cap: int = DEFAULT_CAP) -> PairNet:
    """The pairs `filter_pair_net` keeps, as arrays, once their bytes fit
    in physical memory.  `mu_of` runs once per distinct lambda over its
    kept B rows; pairs come out lambda-major over the lambda family, each
    lambda's pairs in B family order."""
    pf = filter_pair_net(D, d, delta, epsilon_op, cap)
    kept = [np.flatnonzero(k) for k in pf.keep]
    net_counts = np.array([k.size for k in kept])
    check_size(_pair_net_bytes(pf.size, net_counts.max(), D, d),
               hamiltonian._physical_memory(),
               f"bytes of the {pf.size} pairs for D={D}, d={d}, "
               f"delta={delta}", "physical memory")
    mu_net = [mu_of(lam, pf.b_fam[k]) for lam, k in zip(pf.lam_net, kept)]
    lam_idx = np.repeat(np.arange(len(pf.lam_fam)), net_counts[pf.fam_class])
    # classes without a kept pair leave lam_net
    live = net_counts > 0
    renumber = np.cumsum(live) - 1
    return PairNet(
        lam=pf.lam_fam[lam_idx],
        b=pf.b_fam[np.concatenate([kept[c] for c in pf.fam_class])],
        mu=np.concatenate([mu_net[c] for c in pf.fam_class]),
        lam_net=pf.lam_net[live], lam_class=renumber[pf.fam_class][lam_idx],
        epsilon_cert=pf.epsilon_cert, lam_cert=pf.lam_cert,
        b_cert=pf.b_cert, filtered_out=pf.filtered_out,
    )


def net_size_estimate(D: int, d: int, epsilon: float) -> int:
    """The paper's net-size bound (144 d D / epsilon)^(D + 2 d D^2) as a big
    integer; epsilon is limited to denominator 10^9 unless that gives 0."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    eps = Fraction(epsilon).limit_denominator(10**9) or Fraction(epsilon)
    base = Fraction(144 * d * D) / eps
    k = D + 2 * d * D * D
    val = base**k
    return int(val) if val >= 1 else 0


@dataclass
class CoveringChain:
    """Distances along the pipeline for one rounded input matrix."""

    d_rounded: float          # max row distance from A to the grid rounding X
    d_renormalized: float     # max row distance from A to Y
    max_overlap: float        # largest off-diagonal row inner product of Y
    d_final: float            # max row distance from A to the Gram-Schmidt Z
    survived_norm_filter: bool
    survived_overlap_filter: bool


def _round_to_grid(a_mat: np.ndarray, grid: np.ndarray) -> np.ndarray:
    flat = a_mat.ravel()
    d2 = np.abs(flat[:, None] - grid[None, :])
    return grid[np.argmin(d2, axis=1)].reshape(a_mat.shape)


def _max_row_dist(a_mat: np.ndarray, b_mat: np.ndarray) -> float:
    return float(np.linalg.norm(a_mat - b_mat, axis=1).max())


def covering_chain(a_mat: np.ndarray, delta: float,
                   real_nonneg: bool = False) -> CoveringChain:
    """Round an orthonormal-row matrix to the grid and run it through the
    pipeline stages, reporting the distance achieved at each stage."""
    a_mat = np.asarray(a_mat, dtype=complex)
    a, b = a_mat.shape
    grid = (real_grid(delta) if real_nonneg else complex_grid(delta)).astype(complex)
    x = _round_to_grid(a_mat, grid)
    norms = np.linalg.norm(x, axis=1)
    lo, hi = _norm_band(b, delta)
    s1 = bool(np.all((norms >= lo) & (norms <= hi)))
    y = x / norms[:, None]
    gram = y.conj() @ y.T
    over = np.abs(gram - np.eye(a)).max() if a > 1 else 0.0
    s3 = bool(over <= _overlap_bound(b, delta))
    z, ok = _gram_schmidt_rows(y, np.arange(a)[:, None])
    return CoveringChain(
        d_rounded=_max_row_dist(a_mat, x),
        d_renormalized=_max_row_dist(a_mat, y),
        max_overlap=float(over),
        d_final=_max_row_dist(a_mat, z[0]) if ok[0] else float("inf"),
        survived_norm_filter=s1,
        survived_overlap_filter=s3,
    )
