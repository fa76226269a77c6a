"""Dynamic program over net elements with stitching, and its certificates.

Site by site, the solver keeps one best-so-far entry per surviving net
pair, held as a `DpList` of parallel arrays ordered by net index.  A
transition from pair q at site j-1 to pair p at site j is admissible when
the cached right Schmidt vector mu_q is within 2*epsilon_op of lambda_p;
its cost is the windowed energy of the term between the two sites.  Ties
go to the predecessor with the lowest net index.

Admissibility depends on p only through lambda_p, and the net holds few
distinct lambda vectors, so `solve` builds it once per solve as an
N x |lambda-net| matrix.  The N x N transition energies depend only on the
term, so `solve` recomputes them only when a term differs from the
previous site's, and keeps at most one such matrix alive; before the
first one it raises SizeGuardError if that matrix would not fit in
physical memory.  The returned sandwich bounds are

    e_alg - 6 J n eps  <=  e_exact  <=  e_true  <=  e_alg + 1.5 J D^2 n^2 eps.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
import hashlib
import json
import os
import time

import numpy as np

from .epsnet import (BoundaryNet, PairNet, build_end_net, build_pair_net,
                     certified_epsilon, left_gram)
from .errors import NoAdmissibleTransitionError, SizeGuardError
from .hamiltonian import NnHamiltonian
from .mps import CanonicalMps, expectation_full, mu_of

CHUNK = 256


@dataclass
class DpList:
    """One DP site list as parallel arrays, ordered by net index.

    Entry k is net pair `pair_index[k]` with its best accumulated energy
    `energy[k]`; `tail[k]` is the position of its chosen predecessor in
    the previous list, or the boundary tensor index in the first list.
    """

    pair_index: np.ndarray
    tail: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return len(self.pair_index)


@dataclass
class DefectMatrix:
    """Left-canonical defect Delta of a (lambda, B, lambda_next) triplet:
    the off-diagonal Gram matrix of the (lambda B) columns plus the
    diagonal mismatch |lambda_next|^2 - |mu|^2."""

    delta: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.delta).max())


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
    delta_used: float
    N: int
    n_end: int
    assignment: list
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


def left_defect(lam, b, lam_next) -> DefectMatrix:
    """Defect matrix of one DP junction."""
    lam = np.asarray(lam, dtype=float)
    b = np.asarray(b)
    lam_next = np.asarray(lam_next, dtype=float)
    g = left_gram(lam, b)
    r = g - np.diag(np.diag(g))
    mu = mu_of(lam, b)
    return DefectMatrix(delta=r + np.diag(lam_next**2 - mu**2))


def _chunked_matmul(g_flat, t2_flat, threads: int) -> np.ndarray:
    """g_flat @ t2_flat.T with fixed-size row chunks; chunk boundaries do
    not depend on the thread count, so results are bitwise identical."""
    rows = g_flat.shape[0]
    out = np.empty((rows, t2_flat.shape[0]), dtype=complex)
    spans = [(i, min(i + CHUNK, rows)) for i in range(0, rows, CHUNK)]

    def work(span):
        lo, hi = span
        out[lo:hi] = g_flat[lo:hi] @ t2_flat.T

    if threads <= 1 or len(spans) == 1:
        for sp in spans:
            work(sp)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(work, spans))
    return out


def transition_energies(net: PairNet, hterm: np.ndarray,
                        threads: int = 1) -> np.ndarray:
    """Matrix E[q, p] of windowed energies of the term between a pair q at
    the left site and a pair p at the right site."""
    lam, b = net.lam, net.b
    d = b.shape[2]
    h = np.asarray(hterm).reshape(d, d, d, d)
    m = lam[:, :, None, None] * b
    t1 = np.einsum("qaix,qaky->qxiyk", m.conj(), m, optimize=True)
    t2 = np.einsum("pxjb,pylb->pxjyl", b.conj(), b, optimize=True)
    g = np.einsum("qxiyk,ijkl->qxjyl", t1, h, optimize=True)
    e = _chunked_matmul(g.reshape(net.size, -1), t2.reshape(net.size, -1),
                        threads)
    return e.real


def stitching_mask(net: PairNet, epsilon_op: float) -> np.ndarray:
    """Admissibility A[q, k]: ||mu_q - lambda_k|| <= 2*epsilon_op for each
    distinct lambda vector lambda_k = net.lam_net[k].  A transition q -> p
    is admissible when A[q, net.lam_class[p]] holds."""
    dist = np.linalg.norm(net.mu[:, None, :] - net.lam_net[None, :, :],
                          axis=2)
    return dist <= 2.0 * epsilon_op + 1e-14


def extend_list(prev: DpList, net: PairNet, hterm, epsilon_op: float,
                threads: int = 1, *, e_trans: np.ndarray | None = None,
                mask: np.ndarray | None = None) -> DpList:
    """One DP step: best admissible predecessor for every net pair.

    `e_trans` and `mask` are the site-independent inputs from
    `transition_energies` and `stitching_mask`; either not given is
    computed here.  The step reads `e_trans` by columns, so it is fastest
    in Fortran order.  For each lambda class (`net.lam_class`) the
    min-reduce runs over the live predecessors admissible for that class
    only.  Ties at the argmin go to the predecessor with the lowest list
    index, which is the lowest net index since lists are index-sorted.
    """
    if len(prev) == 0:
        raise NoAdmissibleTransitionError("previous DP list is empty")
    if e_trans is None:
        e_trans = transition_energies(net, hterm, threads)
    if mask is None:
        mask = stitching_mask(net, epsilon_op)
    size = net.size
    best = np.full(size, np.inf)
    tails = np.zeros(size, dtype=np.intp)
    for k in range(mask.shape[1]):
        rows = np.flatnonzero(mask[prev.pair_index, k])
        if rows.size == 0:
            continue
        cols = np.flatnonzero(net.lam_class == k)
        q = prev.pair_index[rows]
        # cost[p, r] = E[q_r, p] + e_prev[r] for the pairs p of class k
        cost = e_trans.T
        if cols.size < size or q.size < size:
            cost = cost[np.ix_(cols, q)]
        cost = cost + prev.energy[rows]
        arg = cost.argmin(axis=1)
        tails[cols] = rows[arg]
        best[cols] = cost[np.arange(cols.size), arg]
    live = np.flatnonzero(np.isfinite(best))
    if live.size == 0:
        raise NoAdmissibleTransitionError(
            f"no admissible transition at epsilon_op={epsilon_op}"
        )
    return DpList(pair_index=live, tail=tails[live], energy=best[live])


def transition_size_guard(n_pairs: int, phys_bytes: int | None) -> None:
    """Raise SizeGuardError when one complex N x N transition matrix
    (16 N^2 bytes) would exceed `phys_bytes` of physical memory; None
    (memory size unknown) passes."""
    need = 16 * n_pairs * n_pairs
    if phys_bytes is not None and need > phys_bytes:
        raise SizeGuardError(
            f"N={n_pairs} needs {need} bytes per transition matrix, "
            f"more than the {phys_bytes} bytes of physical memory"
        )


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _boundary_left_energies(end_net: BoundaryNet, net: PairNet,
                            hterm) -> np.ndarray:
    """E[g, p]: windowed energy of the first term for boundary tensor g
    and first interior pair p."""
    lam, b = net.lam, net.b
    d_end = end_net.tensors[0].shape[1]
    d = b.shape[2]
    h = np.asarray(hterm).reshape(d_end, d, d_end, d)
    # every boundary tensor has the same shape, so one path serves them all
    w_spec, val_spec = "ai,pa,pajb->pijb", "pijb,ijkl,pklb->p"
    w_path = np.einsum_path(w_spec, end_net.tensors[0], lam, b,
                            optimize=True)[0]
    val_path = None
    out = np.empty((end_net.size, net.size))
    for gi, gam in enumerate(end_net.tensors):
        w = np.einsum(w_spec, gam, lam, b, optimize=w_path)
        if val_path is None:
            val_path = np.einsum_path(val_spec, w.conj(), h, w,
                                      optimize=True)[0]
        val = np.einsum(val_spec, w.conj(), h, w, optimize=val_path)
        out[gi] = val.real
    return out


def _boundary_right_energies(net: PairNet, end_net: BoundaryNet,
                             hterm) -> np.ndarray:
    """E[q, g]: windowed energy of the last term for interior pair q and
    boundary tensor g."""
    lam, b = net.lam, net.b
    d = b.shape[2]
    d_end = end_net.tensors[0].shape[1]
    h = np.asarray(hterm).reshape(d, d_end, d, d_end)
    w_spec, val_spec = "pa,paig,gj->paij", "paij,ijkl,pakl->p"
    w_path = np.einsum_path(w_spec, lam, b, end_net.tensors[0],
                            optimize=True)[0]
    val_path = None
    out = np.empty((net.size, end_net.size))
    for gi, gam in enumerate(end_net.tensors):
        w = np.einsum(w_spec, lam, b, gam, optimize=w_path)
        if val_path is None:
            val_path = np.einsum_path(val_spec, w.conj(), h, w,
                                      optimize=True)[0]
        val = np.einsum(val_spec, w.conj(), h, w, optimize=val_path)
        out[:, gi] = val.real
    return out


def initial_list(end_net: BoundaryNet, net: PairNet, hterm) -> DpList:
    """First DP list: each pair keeps its best boundary tensor."""
    e0 = _boundary_left_energies(end_net, net, hterm)
    return DpList(pair_index=np.arange(net.size),
                  tail=e0.argmin(axis=0), energy=e0.min(axis=0))


def solve(h: NnHamiltonian, D: int, delta: float,
          epsilon_op: float | None = None, cap: int = 10**7,
          threads: int = 1,
          end_net: BoundaryNet | None = None,
          pair_net: PairNet | None = None) -> SolveResult:
    """Run the full dynamic program on a boundary-grouped Hamiltonian.

    Nets may be passed in to share them across runs; otherwise they are
    built from (D, delta).  epsilon_op defaults to the certified epsilon
    of the pair net.
    """
    t0 = time.perf_counter()
    d_end, d, n = h.dims[0], h.dims[1], h.n
    if pair_net is None:
        eps_tmp = epsilon_op if epsilon_op is not None \
            else certified_epsilon(d, D, delta)
        pair_net = build_pair_net(D, d, delta, eps_tmp, cap)
    if end_net is None:
        end_net = build_end_net(D, d_end, delta, cap)
    if epsilon_op is None:
        epsilon_op = pair_net.epsilon_cert
    t_net = time.perf_counter()

    if n > 3:               # only chains with interior sites need one
        transition_size_guard(pair_net.size, _physical_memory())
    lists = [initial_list(end_net, pair_net, h.terms[0])]
    mask = stitching_mask(pair_net, epsilon_op)
    e_trans, term_key = None, None
    for j in range(3, n):
        hterm = h.terms[j - 2]
        key = hterm.tobytes()   # terms are complex arrays of one shape
        if key != term_key:
            e_trans = None      # free the previous matrix before the next
            e_trans = np.asfortranarray(
                transition_energies(pair_net, hterm, threads))
            term_key = key
        lists.append(extend_list(lists[-1], pair_net, hterm, epsilon_op,
                                 threads, e_trans=e_trans, mask=mask))
    e_trans = None          # not needed past the last interior site

    last = lists[-1]
    e_right = _boundary_right_energies(pair_net, end_net, h.terms[-1])
    total = last.energy[:, None] + e_right[last.pair_index]
    # scan boundary tensors in index order; strict improvement keeps the
    # lowest-index winner on ties
    best_val, best_g, best_q = np.inf, -1, -1
    for gi in range(end_net.size):
        col = total[:, gi]
        qi = int(col.argmin())
        if col[qi] < best_val:
            best_val, best_g, best_q = float(col[qi]), gi, qi
    t_dp = time.perf_counter()

    # walk the back-pointers
    chosen = []
    ei = best_q
    for lst in reversed(lists):
        chosen.append(int(lst.pair_index[ei]))
        ei = int(lst.tail[ei])
    gamma1_idx = ei
    chosen.reverse()
    assignment = [gamma1_idx] + chosen + [best_g]

    omega = CanonicalMps(
        n=n, d=d, D=D, d_end=d_end, s=h.s,
        gamma_left=np.asarray(end_net.tensors[gamma1_idx]),
        lambda2=pair_net.lam[chosen[0]].copy(),
        b_tensors=[pair_net.b[c].copy() for c in chosen],
        gamma_right=np.asarray(end_net.tensors[best_g]),
    )
    e_true = expectation_full(omega, h)
    eps_cert = pair_net.epsilon_cert
    lower, upper_slack = error_bounds(best_val, h.J, n, D, eps_cert)
    t_end = time.perf_counter()
    return SolveResult(
        omega=omega, e_alg=best_val, e_true=e_true,
        lower_bound=lower, upper_slack=upper_slack,
        epsilon_used=eps_cert, epsilon_op=epsilon_op, delta_used=delta,
        N=pair_net.size, n_end=end_net.size, assignment=assignment,
        timings={
            "net_ms": 1e3 * (t_net - t0),
            "dp_ms": 1e3 * (t_dp - t_net),
            "assemble_ms": 1e3 * (t_end - t_dp),
        },
    )
