"""Dynamic program over net elements with stitching, and its certificates.

Site by site, the solver keeps one best-so-far entry per surviving net
pair, held as a `DpList` of parallel arrays ordered by net index.  A
transition from pair q at site j-1 to pair p at site j is admissible when
the cached right Schmidt vector mu_q is within 2*epsilon_op of lambda_p;
its cost is the windowed energy of the term between the two sites.
`_left_factor` and `_right_factor` are the one factorization of that
energy, Re(G @ T2.T).
Every minimum follows one rule, that of one argmin over the candidates in
index order: ties go to the lowest index, and a NaN, once seen, stays.
`_merge_min` applies it to the running minima of the steps and of the
first list; `_close_list` takes one argmin over the g-major totals, so a
NaN there gives a NaN e_alg with in-range indices.

Admissibility depends on p only through lambda_p, and the net holds few
distinct lambda vectors, so it is an N x |lambda-net| matrix, which
`solve` builds once per solve with all else a step reads from the net
alone (`step_tables`).  Every interior step is streamed, and no N x N
array exists.  Of each past list `solve` keeps only what the backtrack
reads, pair_index and tail as int32 arrays; only the newest list keeps
its energies, which the next step or `_close_list` reads.  A full step
whose live pairs are its input's holds its input's pair_index array, and
a reused step (below) holds its anchor's, which is then that same array,
and its input's tail when its winners are the input's; each makes one
O(N) comparison for it.  So a periodic run of steps stores no new array.
Before the first list `transition_size_guard` raises SizeGuardError if a
streamed step and the stored lists, none shared, would not fit, and tells
whether reuse anchors (below) fit beside them.

One pruning bound serves the steps and both ends.  E[q, p] = tr(H_q P_p^T),
with H_q the Hermitian part of row q of G and P_p row p of T2, both as dD x dD
matrices; P_p is PSD with trace ||B_p||^2.  As real vectors, f_q the entries
of H_q and t_p those of conj(P_p) (real and imaginary parts interleaved),
E[q, p] = f_q . t_p.  `_clusters` groups rows t_p that agree after a fixed
rounding (the gauge copies of the grid nets) into clusters of center t_c,
their mean, and radius r_c, the largest member distance from it.  By
Cauchy-Schwarz, every p of cluster c and every row q of input energy e[q] have
    L[q, c] = e[q] + f_q . t_c - ||f_q|| r_c <= e[q] + E[q, p],
so the minimum m_p over the rows is at most
U[c] = min_q (e[q] + f_q . t_c + ||f_q|| r_c).  A row with L[q, c] > U[c] + 2K
at every cluster c costs more than m_p + 2K at every p.  K = 1e-9 (1 + scale)
is the one tolerance (`_tolerance`), scale a bound on every |cost| and on
||f_q|| ||t_p||; r_c <= 2 max ||t_p||, so the test rounds by far less than K,
and such a row can neither win nor tie, nor come within K of a minimum.  K is
inf, and nothing is pruned, when 1e10 K is not finite.  L and U are the rows
[f_q, ||f_q||, e[q]], stacked once, times the cluster matrices [t_c, -r_c, 1]
and [t_c, +r_c, 1], one real GEMM per block of at most BLOCK_ELEMENTS
products.  A step's clusters are each lambda class's, grouped once per net
(`step_tables`); |E[q, p]| <= E_bound = dD max|H| max tr P, so its scale is
max|e_prev| + E_bound, and the reuse anchors below share its K.
`_viable_rows` drops rows per class, and the union of the remaining rows is
multiplied in CHUNK-row blocks, each one complex GEMM of gathered rows of G
against all of T2 into a reused buffer, and each class's p-major cost block
is min-reduced in reused pieces of BLOCK_ELEMENTS.  Two BLAS facts keep
every bit: a product over a subset of the columns rounds differently in the
edge tiles, so rows are gathered and columns never are; and a one-row
product takes the gemv path, which rounds differently too, so it is padded
to two rows.  Chunks of two or more gathered rows are bitwise rows of the
full product, so the lists are bitwise those of the dense step on the full
N x N matrix.

A step on a repeated term also reuses its own work.  Repeating one
min-plus matrix drives the lists into a periodic regime up to a constant
shift (the cyclicity theorem of Cohen, Dubois, Quadrat and Viot, 1985),
where each pair p is won among a few candidate predecessors.  So a full
step asked to record one records a reuse anchor in its one pass: it
keeps each cost within K of a running minimum as an entry (pair p,
position, E), and after the pass the same float test against the final
minimum m_p leaves the candidate set C_p of each live pair p, since
fl(running + K) >= fl(m_p + K); one stable sort by pair keeps C_p in
position order.  It keeps the input energies e_ref and the term array
and tables it ran on.  No pruned row is within K, so C_p is that of the
unpruned step.  A later step on that same term array and those same
tables reuses the anchor when its input list has the anchor's pair_index
and its energies e_prev satisfy
spread(e_prev - e_ref) + 8 u (max|e_prev| + scale) < K,
u the machine epsilon and scale = max|e_ref| + E_bound; it then costs only
C_p for each p.  Proof that the result is bitwise the full step's: let
delta_s = e_prev[s] - e_ref[s] lie in [lo, hi]; each float sum E + e
rounds by at most u/2 of E_bound + max|e|.  A position s outside C_p had
a reference cost above fl(m_p + K) at p, m_p the winner's (a pruned one,
never formed, by nearly K more, far past its rounding), so its new cost
is at least m_p + K + lo; the winner's is at most m_p + hi.  Each bound
is off by the rounding of the two steps' costs, of the threshold and of
the spread's subtractions: about 2.5 u (max|e_prev| + scale) + u K, which
the check's 8 u term covers whenever the spread exceeds K/2 (then
max|e_prev| + max|e_ref| > K/4) and the remaining K/2 covers otherwise.
So no position outside C_p can win or tie.  Each candidate's cost is the
same float add the full step does, and C_p is in position order and
padded with E = +inf, whose cost never wins against the finite ones, so
one argmin per row picks the full step's winner and value.  The
pair_index and the mask fix which pairs have an admissible predecessor,
and every cost is finite, so the live set is the anchor's.  An anchor is
recorded only when K is finite, so a non-finite input or term energy never
reuses, and only when no pair has more than c = max(REUSE_CANDIDATES, N/16)
candidates, so a reused step costs at most a sixteenth of a full one past
N = 1024; the pass gives the anchor up as soon as it holds more than N c
entries.
The anchor rides on the DP list that its full step or a step reusing it
outputs; a step that it does not certify drops it from its input before
its full step records the next.  `solve` asks a step to record only when
the next step has its term.  An anchor holds its own e_ref, so the
energies of the lists `solve` releases are never read again.
`transition_size_guard` counts what recording or reusing an anchor
holds beside a streamed step (`_reuse_bytes`).

The boundary energies of the first and last terms come from one kernel,
`_boundary_energies`, over chunks of end tensors merged as they come, so no
(end net) x N array is formed; at D=1 they are bitwise those of the
per-end-tensor einsum loop it replaced.  It evaluates only the end tensors the
bound keeps, so the results are bitwise those of all.  At the left end
Gamma_g^T, a one-row left site, precedes (lambda B)_p, whose right factor is
lambda_x lambda_y T2_p in p's class: so the forms of Gamma_g^T, scaled by it,
meet the class's clusters at e = 0.  At the right end the last list's rows
bound clusters of the end tensors as one-column right sites.  End rows and
rows of B are orthonormal and lambda has unit norm, so by Cauchy-Schwarz the
absolute products of a boundary energy, in either summation order, add up to
at most D ||h||_F, which also bounds ||f|| ||t||: the scale is D ||h||_F, plus
max|energy| of the last list at the right end.  The sandwich bounds are

    e_alg - 6 J n eps  <=  e_exact  <=  e_true  <=  e_alg + 1.5 J D^2 n^2 eps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
import json
import time

import numpy as np

from .epsnet import (DEFAULT_CAP, BoundaryNet, PairNet, build_end_net,
                     build_pair_net, certified_epsilon, check_epsilon_op)
from .errors import NoAdmissibleTransitionError, check_size
from . import hamiltonian
from .mps import CanonicalMps, expectation_full, left_gram, mu_of

CHUNK = 64              # predecessors q per transition block
BLOCK_ELEMENTS = 1 << 15  # entries per boundary or min-reduce block
REUSE_CANDIDATES = CHUNK  # candidates per pair an anchor may keep at any N
EPS = float(np.finfo(float).eps)


@dataclass
class DpList:
    """One DP site list as parallel arrays, ordered by net index.

    Entry k is net pair `pair_index[k]` with its best accumulated energy
    `energy[k]`; `tail[k]` is the position of its chosen predecessor in
    the previous list, or the boundary tensor index in the first list.
    Both index arrays are int32.  A full step holds its input's pair_index
    array when its own is equal, and a reused step its input's tail.
    `reused` tells whether the step reused an anchor's candidates, and
    `anchor` is the reuse anchor that a step from this list may try.
    """

    pair_index: np.ndarray
    tail: np.ndarray
    energy: np.ndarray
    reused: bool = False
    anchor: _Anchor | None = None

    def __len__(self) -> int:
        return len(self.pair_index)


@dataclass(eq=False)
class _Anchor:
    """What a full step on the term array `hterm` and `tables` with
    energies E keeps for reuse: its input list's pair_index and energies
    e_ref, scale = max|e_ref| + E_bound, the tolerance K = 1e-9 (1 + scale),
    and per live output pair (in order, `live`) the candidate positions
    `cand` and E at them, live x c, padded with position 0 and E = +inf."""

    hterm: np.ndarray
    tables: StepTables
    pair_index: np.ndarray
    e_ref: np.ndarray
    scale: float
    tol: float
    live: np.ndarray
    cand: np.ndarray
    e_cand: np.ndarray

    def reuse(self, prev: DpList, hterm, tables: StepTables) -> DpList | None:
        """The step from prev by the candidates alone when hterm and tables
        are the anchor's own and the module docstring's certificate holds,
        else None."""
        if hterm is not self.hterm or tables is not self.tables or (
                prev.pair_index is not self.pair_index
                and not np.array_equal(prev.pair_index, self.pair_index)):
            return None
        shift = prev.energy - self.e_ref
        margin = 8.0 * EPS * (np.abs(prev.energy).max() + self.scale)
        if not shift.max() - shift.min() + margin < self.tol:
            return None
        cost = prev.energy[self.cand]
        cost += self.e_cand
        arg = cost.argmin(axis=1)
        rows = np.arange(arg.size)
        tail = self.cand[rows, arg]
        tail = prev.tail if np.array_equal(tail, prev.tail) \
            else tail.astype(np.int32)
        return DpList(pair_index=self.live, tail=tail,
                      energy=cost[rows, arg], reused=True, anchor=self)


@dataclass
class SolveResult:
    """Assembled minimizer with its certificates and diagnostics."""

    omega: CanonicalMps
    e_alg: float
    e_true: float
    lower_bound: float
    upper_slack: float
    epsilon_used: float
    epsilon_op: float
    N: int
    n_end: int
    assignment: list
    omega_defect_max: float     # largest junction defect entry of omega
    dp_steps: dict = field(default_factory=dict)   # {"full": k, "reused": m}
    dp_lists: dict = field(default_factory=dict)   # `_stored_stats`
    timings: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        doc = {
            "e_alg": repr(self.e_alg),
            "assignment": self.assignment,
            "N": self.N, "n_end": self.n_end,
            "epsilon_op": repr(self.epsilon_op),
        }
        return hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest()


def error_bounds(e_alg: float, J: float, n: int, D: int,
                 epsilon: float) -> tuple:
    """(lower bound on the exact ground energy, upper slack on e_true)."""
    return e_alg - 6.0 * J * n * epsilon, 1.5 * J * D * D * n * n * epsilon


def epsilon_for_target(target_error: float, J: float, D: int, n: int) -> float:
    """Net accuracy needed for a given additive energy error."""
    return target_error / (2.0 * J * D * D * n * n)


def left_defect(lam, b, lam_next) -> np.ndarray:
    """Left-canonical defect Delta of DP junctions (lambda, B,
    lambda_next): the off-diagonal Gram matrix of the (lambda B) columns
    plus the diagonal mismatch |lambda_next|^2 - |mu|^2, over the leading
    axes of lam (..., D), b (..., D, d, D) and lam_next (..., D)."""
    lam = np.asarray(lam, dtype=float)
    b = np.asarray(b)
    lam_next = np.asarray(lam_next, dtype=float)
    delta = left_gram(lam, b)
    diag = np.arange(b.shape[-1])
    delta[..., diag, diag] = lam_next**2 - mu_of(lam, b)**2
    return delta


def _left_factor(m: np.ndarray, hterm, d2: int) -> np.ndarray:
    """G, Q x K: the window energy of a left site m[q] (Q, Dl, d1, Dm) and
    a right site b[p] (P, Dm, d2, Dr), with the term between them and both
    outer bonds traced, is Re (G @ T2.T)[q, p], T2 = `_right_factor(b)`."""
    h = np.asarray(hterm).reshape(m.shape[2], d2, m.shape[2], d2)
    t1 = np.einsum("qaix,qaky->qxiyk", m.conj(), m, optimize=True)
    g = np.einsum("qxiyk,ijkl->qxjyl", t1, h, optimize=True)
    return g.reshape(len(m), -1)


def _right_factor(b: np.ndarray) -> np.ndarray:
    """T2 of `_left_factor`, P x K, for right sites b (P, Dm, d2, Dr):
    row p is the PSD matrix P_p = conj(b[p]) (x) b[p] summed over the
    right bond, flattened."""
    t2 = np.einsum("pxjb,pylb->pxjyl", b.conj(), b, optimize=True)
    return t2.reshape(len(b), -1)


def _transition_blocks(g: np.ndarray, t2: np.ndarray, rows: np.ndarray):
    """Yield (lo, C) for the CHUNK-row chunks of `rows` in order, C the
    complex q-major product G[rows[lo:hi]] @ T2.T over every column p, in
    a reused buffer that is valid until the next item is asked for.  Rows
    are gathered and a lone row is padded to two (see the module
    docstring), so C is bitwise rows of the unchunked product."""
    buf = np.empty((CHUNK, len(t2)), complex)
    for lo in range(0, len(rows), CHUNK):
        hi = min(lo + CHUNK, len(rows))
        idx = rows[lo:hi] if hi - lo > 1 else rows[[lo, lo]]
        np.matmul(g[idx], t2.T, out=buf[:idx.size])
        yield lo, buf[:hi - lo]


def stitching_mask(net: PairNet, epsilon_op: float) -> np.ndarray:
    """Admissibility A[q, k]: ||mu_q - lambda_k|| <= 2*epsilon_op for each
    distinct lambda vector lambda_k = net.lam_net[k].  A transition q -> p
    is admissible when A[q, net.lam_class[p]] holds."""
    dist = np.linalg.norm(net.mu[:, None, :] - net.lam_net[None, :, :],
                          axis=2)
    return dist <= 2.0 * epsilon_op + 1e-14


def _merge_min(best: np.ndarray, tails: np.ndarray, idx: np.ndarray,
               val: np.ndarray, tail: np.ndarray) -> None:
    """Fold candidates (val, tail) for the entries idx into the running
    (best, tails), which hold the minima of earlier candidates in index
    order.  An entry takes a candidate on strict improvement, so ties keep
    the earlier one, and a NaN candidate wins once and then stays, so the
    result equals one argmin over all candidates in order."""
    old = best[idx]
    take = ~(val >= old) & ~np.isnan(old)
    idx = idx[take]
    best[idx] = val[take]
    tails[idx] = tail[take]


def _as_slice(idx: np.ndarray):
    """The sorted, distinct indices idx as a slice when they form one run,
    so indexing with them gives a view instead of a copy."""
    if idx.size and idx[-1] - idx[0] + 1 == idx.size:
        return slice(idx[0], idx[-1] + 1)
    return idx


@dataclass(eq=False)
class StepTables:
    """What the steps and the left end read from the net alone: the
    stitching mask at `epsilon_op`, T2 of `_left_factor`, the traces tr P_p
    of its rows, and per lambda class its pairs (int32) and the cluster
    matrices [t_c, -r_c, 1] and [t_c, +r_c, 1] of the module docstring."""

    mask: np.ndarray
    t2: np.ndarray
    trace: np.ndarray
    classes: list       # (pairs, lower, upper) per lambda class
    epsilon_op: float


def _clusters(t2: np.ndarray, cls: np.ndarray) -> tuple:
    """(label, lower, upper, classes): the rows of T2 grouped into clusters,
    rows of one class of `cls` whose t_p agree after rounding to 12
    decimals, numbered by class, then by rounded t; each row's cluster, the
    matrices [t_c, -r_c, 1] and [t_c, +r_c, 1], and each cluster's class.
    Groups by one lexsort, not np.unique (which imports numpy.ma), and
    holds beside T2 at most two N x 2k real arrays at a time."""
    t = np.conjugate(np.ascontiguousarray(t2)).view(float)
    key = np.round(t, 12)
    order = np.lexsort((*key.T, cls))
    del key
    t, cls = t[order], cls[order]
    # rounding is elementwise, so the sorted rows round to the sorted key
    key = np.round(t, 12)
    new = np.ones(len(t), dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=1) | (cls[1:] != cls[:-1])
    del key
    start = np.flatnonzero(new)
    center = np.add.reduceat(t, start)
    center /= np.diff(start, append=len(t))[:, None]
    # each row's offset from its center, in blocks of BLOCK_ELEMENTS
    at = np.cumsum(new) - 1
    step = max(1, BLOCK_ELEMENTS // t.shape[1])
    for lo in range(0, len(t), step):
        t[lo:lo + step] -= center[at[lo:lo + step]]
    radius = np.sqrt(np.maximum.reduceat(np.einsum("ij,ij->i", t, t), start))
    del t
    label = np.empty_like(at)
    label[order] = at
    lower, upper = (np.column_stack([center, s * radius, np.ones_like(radius)])
                    for s in (-1.0, 1.0))
    return label, lower, upper, cls[start]


def step_tables(net: PairNet, epsilon_op: float) -> StepTables:
    """The `StepTables` of `net`, its pairs grouped by `_clusters`."""
    t2 = _right_factor(net.b)
    dd = net.b.shape[1] * net.b.shape[2]        # P_p is dd x dd
    trace = np.einsum("pii->p", t2.reshape(-1, dd, dd)).real.copy()
    _, lower, upper, cls = _clusters(t2, net.lam_class)
    first = np.searchsorted(cls, np.arange(len(net.lam_net) + 1))
    return StepTables(stitching_mask(net, epsilon_op), t2, trace, classes=[
        (np.flatnonzero(net.lam_class == k).astype(np.int32),
         lower[first[k]:first[k + 1]], upper[first[k]:first[k + 1]])
        for k in range(len(net.lam_net))], epsilon_op=epsilon_op)


def _tolerance(scale) -> float:
    """K = 1e-9 (1 + scale) of the module docstring, or inf when 1e10 K,
    ten times every cost, is not finite."""
    tol = 1e-9 * (1.0 + scale)
    return tol if np.isfinite(1e10 * tol) else np.inf


def _hermitian_parts(g: np.ndarray, dd: int) -> tuple:
    """(H, f): the Hermitian parts of the rows of a left factor G, as
    dd x dd matrices, and their real forms."""
    g = np.ascontiguousarray(g).reshape(-1, dd, dd)
    h = 0.5 * (g + g.conj().transpose(0, 2, 1))
    return h, h.reshape(len(h), -1).view(float)


def _least(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """min over the rows of a of a @ m.T, per row of m, one block of at most
    BLOCK_ELEMENTS products at a time; NaN, once seen, stays."""
    step = max(1, BLOCK_ELEMENTS // len(m))
    out = np.full(len(m), np.inf)
    for lo in range(0, len(a), step):
        np.minimum(out, (a[lo:lo + step] @ m.T).min(axis=0), out=out)
    return out


def _viable_rows(rows: np.ndarray, e_prev: np.ndarray, f: np.ndarray,
                 lower: np.ndarray, upper: np.ndarray, tol: float):
    """Mask over `rows` (positions q) that keeps every q whose cost can come
    within K = tol of a minimum at some cluster of `lower`, `upper`, from
    input energies e_prev[q] and real forms f[q]: q is dropped when
    L[q, c] > U[c] + 2K at every cluster c (module docstring), and every
    row is kept when K is not finite."""
    if rows.size <= 1 or not np.isfinite(tol):
        return np.ones(rows.size, dtype=bool)
    a = np.column_stack([f[rows], np.empty(rows.size), e_prev[rows]])
    a[:, -2] = np.linalg.norm(a[:, :-2], axis=1)
    bound = _least(a, upper) + 2.0 * tol
    step = max(1, BLOCK_ELEMENTS // len(lower))
    return np.concatenate([~(a[lo:lo + step] @ lower.T > bound).all(axis=1)
                           for lo in range(0, rows.size, step)])


def _pack_anchor(prev: DpList, near: tuple, best: np.ndarray,
                 live: np.ndarray, tol: float, scale: float, hterm,
                 tables: StepTables):
    """The reuse anchor of a step on hterm and tables from its kept entries
    `near`, (p, r, E) as three lists of blocks, minima `best`, finite
    K = tol and scale; None past `_reuse_width` candidates.  The entries
    within K of `best` by the step's float test stay; one field at a time
    is concatenated, or filtered, and its old blocks freed.  The entries of
    each pair come in position order, and a stable sort by pair keeps it,
    so entry i is candidate i - (its pair's first entry)."""
    for blocks in near:
        blocks[:] = [np.concatenate(blocks)]
    (p,), (r,), (e,) = near
    ok = np.empty(p.size, dtype=bool)
    for lo in range(0, p.size, BLOCK_ELEMENTS):
        at = slice(lo, lo + BLOCK_ELEMENTS)
        ok[at] = e[at] + prev.energy[r[at]] <= best[p[at]] + tol
    del p, r, e
    p, r, e = (blocks.pop()[ok] for blocks in near)
    order = np.argsort(p, kind="stable")
    p, r, e = p[order], r[order], e[order]
    del order
    first = np.searchsorted(p, live)    # each live pair's first entry
    count = np.diff(first, append=p.size)
    if count.max() > _reuse_width(best.size):
        return None
    row = np.repeat(np.arange(live.size), count)
    rank = np.arange(p.size) - first[row]
    cand = np.zeros((live.size, count.max()), dtype=np.intp)
    e_cand = np.full(cand.shape, np.inf)
    cand[row, rank], e_cand[row, rank] = r, e
    return _Anchor(hterm=hterm, tables=tables, pair_index=prev.pair_index,
                   e_ref=prev.energy, scale=scale, tol=tol, live=live,
                   cand=cand, e_cand=e_cand)


def extend_list(prev: DpList, net: PairNet, hterm, *, tables: StepTables,
                record: bool = False) -> DpList:
    """One DP step: best admissible predecessor for every net pair.

    `tables` are the net's `step_tables`.  A step that the anchor of `prev`
    does not certify drops it and is a full one (module docstring).  Per
    lambda class, the admissible rows `_viable_rows` keeps at the step's K
    go through `_transition_blocks` in q order, and `_merge_min` folds in
    each piece of the class's p-major costs: ties go to the lowest list
    index, which is the lowest net index, and every result, NaN included,
    equals one argmin over the whole row.  With `record`, the full step
    puts the anchor it records in the same pass on its output.
    """
    if len(prev) == 0:
        raise NoAdmissibleTransitionError("previous DP list is empty")
    if prev.anchor is not None:
        out = prev.anchor.reuse(prev, hterm, tables)
        if out is not None:
            return out
        prev.anchor = None      # free it before the full step records anew
    g = _left_factor(net.lam[:, :, None, None] * net.b, hterm, net.b.shape[2])
    dd = net.b.shape[1] * net.b.shape[2]      # h and P are dd x dd
    h, f = _hermitian_parts(g[prev.pair_index], dd)
    scale = np.abs(prev.energy).max() + dd * np.abs(h).max() \
        * tables.trace.max()                # max|e_prev| + E_bound
    tol = _tolerance(scale)
    # per class with pairs: viable list positions, pairs; and their union
    classes, keep = [], np.zeros(len(prev), dtype=bool)
    for k, (cols, lower, upper) in enumerate(tables.classes):
        r = np.flatnonzero(tables.mask[prev.pair_index, k]).astype(np.int32)
        if r.size and cols.size:
            r = r[_viable_rows(r, prev.energy, f, lower, upper, tol)]
            keep[r] = True
            classes.append((r, cols))
    union = np.flatnonzero(keep)
    classes = [(r, cols, np.searchsorted(union, r)) for r, cols in classes]
    best, tails = np.full(net.size, np.inf), np.zeros(net.size, np.int32)
    # the kept entries (pair, list position, E), one list of blocks a field
    near = ([], [], []) if record and np.isfinite(tol) else None
    held, room = 0, net.size * _reuse_width(net.size)
    buf = np.empty(BLOCK_ELEMENTS)
    for lo, c in _transition_blocks(g, tables.t2, prev.pair_index[union]):
        for r, cols, pos in classes:
            start, stop = np.searchsorted(pos, (lo, lo + len(c)))
            if start == stop:
                continue
            q, r_blk = _as_slice(pos[start:stop] - lo), r[start:stop]
            step = BLOCK_ELEMENTS // r_blk.size
            for p_lo in range(0, cols.size, step):
                p = cols[p_lo:p_lo + step]
                e = c.real[:, _as_slice(p)][q].T
                cost = buf[:e.size].reshape(e.shape)
                np.add(e, prev.energy[r_blk], out=cost)
                arg = cost.argmin(axis=1)
                _merge_min(best, tails, p, cost[np.arange(p.size), arg],
                           r_blk[arg])
                if near is not None:  # entries near the running minima
                    i, s = np.nonzero(cost <= (best[p] + tol)[:, None])
                    for blocks, x in zip(near, (p[i], r_blk[s], e[i, s])):
                        blocks.append(x)
                    held += i.size
                    if held > room:     # more than N c entries: no anchor
                        near = None
    live = np.flatnonzero(np.isfinite(best))
    if live.size == 0:
        raise NoAdmissibleTransitionError(
            f"no admissible transition at epsilon_op={tables.epsilon_op}")
    tail, energy = tails[live], best[live]
    live = prev.pair_index if np.array_equal(live, prev.pair_index) \
        else live.astype(np.int32)
    anchor = None if near is None else _pack_anchor(
        prev, near, best, live, tol, scale, hterm, tables)
    return DpList(pair_index=live, tail=tail, energy=energy, anchor=anchor)


def _reuse_width(n_pairs: int) -> int:
    """The most candidates per pair an anchor may keep."""
    return max(REUSE_CANDIDATES, n_pairs // 16)


def _reuse_bytes(n_pairs: int) -> int:
    """Bytes anchor reuse adds at most to a streamed step of N = n_pairs
    pairs, c = `_reuse_width`: 64 per kept entry (p, r, E), 16 bytes, of at
    most N c + BLOCK_ELEMENTS.  Packing first trims them, holding the blocks
    and one field's concatenation, or the fields, their mask and one
    filtered field, 25 bytes an entry, then the sorted entries, their rows
    and ranks and the anchor's 16 bytes per slot, 64; a reused step holds
    24 N c + 32 N."""
    return 64 * (n_pairs * _reuse_width(n_pairs) + BLOCK_ELEMENTS)


def transition_size_guard(n_pairs: int, k: int, phys_bytes: int | None,
                          n_lists: int) -> bool:
    """Raise SizeGuardError when what a streamed step of N = n_pairs pairs
    holds beside the n_lists stored DP lists would exceed `phys_bytes` of
    physical memory: the `StepTables` but the mask (T2, N x k complex, N
    traces, N int32 pairs, two cluster matrices of at most N x (2k + 2)
    reals), G, its gathered rows and their Hermitian parts (N x k complex
    each), one class's stacked rows (N x (2k + 2) reals), a complex
    CHUNK-row buffer, the input and output energies (2 N reals) and the
    int32 pair_index and tail of every stored list, none shared:
    16 (CHUNK + 7 k) N + 76 N + 8 n_lists N bytes.  Return whether what
    reuse anchors add (`_reuse_bytes`) fits too; None (memory size
    unknown) passes and fits.  `solve` runs it before the tables at every
    n; at n = 3, where no step runs, the count is conservative."""
    held = (16 * (CHUNK + 7 * k) + 76 + 8 * n_lists) * n_pairs
    check_size(held, phys_bytes, f"bytes of a streamed DP step at "
               f"N={n_pairs} and {n_lists} stored lists", "physical memory")
    return phys_bytes is None or held + _reuse_bytes(n_pairs) <= phys_bytes


def _boundary_energies(ends: np.ndarray, lam: np.ndarray, b: np.ndarray,
                       hterm, end_left: bool):
    """Windowed energies of a boundary term, in chunks of end tensors.

    Yields (lo, E) with E[g - lo, p] the energy of boundary tensor ends[g]
    (ends is G x D x d_end) and pair p = (lam[p], b[p]); the end site is
    the left site of the term when `end_left`, else the right one.  Each
    chunk holds at most about BLOCK_ELEMENTS product entries.  The steps
    are those numpy's optimized einsum takes for one end tensor, with the
    end tensors as a batch axis and in the same operand order, so at D=1
    the energies are bitwise those of a per-tensor einsum loop.
    """
    P, D, d, _ = b.shape
    ij = ends.shape[2] * d
    lb = b * lam[:, :, None, None]                       # (P, a, s, c)
    if end_left:
        # w[g, t, s, c, p] = sum_a ends[g, a, t] lb[p, a, s, c]
        lbt = np.ascontiguousarray(lb.transpose(1, 2, 3, 0))[:, None]
        ends = ends[:, :, :, None, None, None]
    else:
        # w[g, s, t, a, p] = sum_c lb[p, a, s, c] ends[g, c, t]
        lbt = np.ascontiguousarray(lb.transpose(3, 2, 1, 0))[:, :, None]
        ends = ends[:, :, None, :, None, None]
    hm = np.asarray(hterm).reshape(ij, ij).T              # (kl, ij)
    step = max(1, BLOCK_ELEMENTS // (ij * D * P))
    for lo in range(0, ends.shape[0], step):
        chunk = ends[lo:lo + step]
        w = lbt[0] * chunk[:, 0]                          # (g, i, j, e, P)
        for a in range(1, D):
            w += lbt[a] * chunk[:, a]
        g = w.shape[0]
        x = np.matmul(hm, w.conj().reshape(g, ij, D * P))  # (g, kl, e P)
        # val[g, p] = sum over (e, kl) of x[g, kl, e, p] w[g, kl, e, p]
        x = x.reshape(g, ij, D, P).transpose(0, 3, 2, 1)
        w = w.reshape(g, ij, D, P).transpose(0, 3, 2, 1)
        val = np.matmul(x.reshape(g, P, 1, D * ij),
                        w.reshape(g, P, D * ij, 1))
        yield lo, val.reshape(g, P).real


def initial_list(end_net: BoundaryNet, net: PairNet, hterm,
                 tables: StepTables) -> DpList:
    """First DP list: each pair keeps its best boundary tensor.  The end
    tensors that `_viable_rows` keeps in some class of `tables` (module
    docstring) are evaluated exactly, in index order, and `_merge_min`
    folds in each chunk of them, so ties go to the lowest end tensor index
    and a NaN energy is kept, as in one argmin."""
    ends = end_net.tensors                               # (G, D, d_end)
    d = net.b.shape[2]
    tol = _tolerance(ends.shape[1] * np.linalg.norm(hterm))
    _, f = _hermitian_parts(_left_factor(ends.transpose(0, 2, 1)[:, None],
                                         hterm, d), ends.shape[1] * d)
    keep, zero = np.zeros(len(ends), dtype=bool), np.zeros(len(ends))
    for lam, (pairs, lower, upper) in zip(net.lam_net, tables.classes):
        if pairs.size:  # within a class the right factor is lam_x lam_y T2
            w = np.repeat(np.outer(np.repeat(lam, d), np.repeat(lam, d)), 2)
            keep |= _viable_rows(np.arange(len(ends)), zero, f * w, lower,
                                 upper, tol)
    rows = np.flatnonzero(keep)
    energy = np.full(net.size, np.inf)
    tail = np.zeros(net.size, dtype=np.int32)
    p = np.arange(net.size)
    for lo, e in _boundary_energies(ends[rows], net.lam, net.b, hterm, True):
        arg = e.argmin(axis=0)
        _merge_min(energy, tail, p, e[arg, p], rows[lo + arg])
    return DpList(pair_index=p.astype(np.int32), tail=tail, energy=energy)


def _close_list(last: DpList, end_net: BoundaryNet, net: PairNet,
                hterm) -> tuple:
    """(e_alg, g, q): the best total over boundary tensors g and positions
    q of the last list.  Only the live pairs of `last` and the end tensors
    of the clusters the bound keeps (module docstring) are evaluated
    exactly.  Each row keeps its best q, then one argmin over the rows, so
    the result is one argmin over the g-major (g, q) totals: ties go to the
    lowest (g, q), and a NaN total gives a NaN e_alg at the first NaN's
    in-range (g, q)."""
    lam, b = net.lam[last.pair_index], net.b[last.pair_index]
    ends = end_net.tensors                               # (G, D, d_end)
    tol = _tolerance(ends.shape[1] * np.linalg.norm(hterm)
                     + np.abs(last.energy).max())
    label, lower, upper, _ = _clusters(_right_factor(ends[..., None]),
                                       np.zeros(len(ends), dtype=int))
    f = _hermitian_parts(_left_factor(b * lam[:, :, None, None], hterm,
                                      ends.shape[2]), ends[0].size)[1]
    a = np.column_stack([f, np.linalg.norm(f, axis=1), last.energy])
    del f
    drop = _least(a, lower) > _least(a, upper).min() + 2.0 * tol
    del a
    rows = np.flatnonzero(~drop[label])
    row_val = np.empty(rows.size)
    row_q = np.empty(rows.size, dtype=np.intp)
    for lo, e in _boundary_energies(ends[rows], lam, b, hterm, False):
        total = last.energy + e
        arg = total.argmin(axis=1)
        row_q[lo:lo + arg.size] = arg
        row_val[lo:lo + arg.size] = total[np.arange(arg.size), arg]
    gi = int(row_val.argmin())
    return float(row_val[gi]), int(rows[gi]), int(row_q[gi])


def _stored_stats(pair_index: list, tails: list) -> dict:
    """What the stored lists hold: their count, the distinct tail arrays
    among them, and the bytes of their distinct pair_index and tail arrays,
    each array counted once however many lists share it."""
    index = {id(a): a.nbytes for a in pair_index}
    tail = {id(a): a.nbytes for a in tails}
    return {"stored": len(tails), "distinct_tails": len(tail),
            "bytes": sum(index.values()) + sum(tail.values())}


def solve(h: hamiltonian.NnHamiltonian, D: int, delta: float,
          epsilon_op: float | None = None, cap: int = DEFAULT_CAP,
          end_net: BoundaryNet | None = None,
          pair_net: PairNet | None = None) -> SolveResult:
    """Run the full dynamic program on a boundary-grouped Hamiltonian.

    Nets may be passed in to share them across runs; otherwise they are
    built from (D, delta).  epsilon_op defaults to the certified epsilon
    `certified_epsilon(d, D, delta)`.
    """
    t0 = time.perf_counter()
    d_end, d, n = h.dims[0], h.dims[1], h.n
    if epsilon_op is None:
        epsilon_op = certified_epsilon(d, D, delta)
    check_epsilon_op(epsilon_op)
    if pair_net is None:
        pair_net = build_pair_net(D, d, delta, epsilon_op, cap)
    if end_net is None:
        end_net = build_end_net(D, d_end, delta, cap)
    t_net = time.perf_counter()

    # G has (dD)^2 columns
    anchors_fit = transition_size_guard(
        pair_net.size, (pair_net.b.shape[1] * pair_net.b.shape[2]) ** 2,
        hamiltonian._physical_memory(), n - 2)
    tables = step_tables(pair_net, epsilon_op)
    last = initial_list(end_net, pair_net, h.terms[0], tables)
    # what the backtrack reads of every list; only `last` keeps energies
    pair_index, tails = [last.pair_index], [last.tail]
    reused = 0
    for j in range(3, n):
        hterm = h.terms[j - 2]
        # a step records an anchor only for a next step on its term
        last = extend_list(last, pair_net, hterm, tables=tables,
                           record=anchors_fit and j < n - 1
                           and h.terms[j - 1] is hterm)
        pair_index.append(last.pair_index)
        tails.append(last.tail)
        reused += last.reused
    tables = last.anchor = None     # not needed past the last interior site

    best_val, best_g, best_q = _close_list(last, end_net, pair_net,
                                           h.terms[-1])
    t_dp = time.perf_counter()

    # walk the back-pointers
    chosen = []
    ei = best_q
    for idx, tail in zip(reversed(pair_index), reversed(tails)):
        chosen.append(int(idx[ei]))
        ei = int(tail[ei])
    chosen.reverse()
    assignment = [ei] + chosen + [best_g]

    # one copy per distinct pair, shared by the sites that chose it
    b_copy = {c: pair_net.b[c].copy() for c in set(chosen)}
    omega = CanonicalMps(
        n=n, d=d, D=D, d_end=d_end, s=h.s,
        gamma_left=end_net.tensors[ei].copy(),
        lambda2=pair_net.lam[chosen[0]].copy(),
        b_tensors=[b_copy[c] for c in chosen],
        gamma_right=end_net.tensors[best_g].copy(),
    )
    e_true = expectation_full(omega, h)
    # each distinct junction once; the largest defect is that of them all
    q, p = np.array(sorted(set(zip(chosen, chosen[1:]))),
                    dtype=np.intp).reshape(-1, 2).T
    defect = left_defect(pair_net.lam[q], pair_net.b[q], pair_net.lam[p])
    eps_cert = pair_net.epsilon_cert
    lower, upper_slack = error_bounds(best_val, h.J, n, D, eps_cert)
    t_end = time.perf_counter()
    return SolveResult(
        omega=omega, e_alg=best_val, e_true=e_true,
        lower_bound=lower, upper_slack=upper_slack,
        epsilon_used=eps_cert, epsilon_op=epsilon_op,
        N=pair_net.size, n_end=end_net.size, assignment=assignment,
        omega_defect_max=float(np.abs(defect).max(initial=0.0)),
        dp_steps={"full": len(tails) - 1 - reused, "reused": reused},
        dp_lists=_stored_stats(pair_index, tails),
        timings={
            "net_ms": 1e3 * (t_net - t0),
            "dp_ms": 1e3 * (t_dp - t_net),
            "assemble_ms": 1e3 * (t_end - t_dp),
        },
    )
