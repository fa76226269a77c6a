"""Reference checks that only the tests use: canonical-form residuals, the
Schmidt vectors of a chain recovered from its (lambda, B) pairs, the
windowed energy of a whole chain, a phase-insensitive alignment of dense
states, the dense Hamiltonian matrix, a uniform chain's terms folded site
by site, the largest term norm and the commutation check term by term,
a dense power-iteration ground energy, the DP's whole N x N
transition matrix, the orthonormal family by full enumeration of its
grid candidates, and the true energy of an MPS by a site-by-site sweep."""

from dataclasses import dataclass, field
import math

import numpy as np

from dpmps import epsnet
from dpmps.errors import ShapeMismatchError
from dpmps.hamiltonian import COMMUTATOR_TOL, NnHamiltonian, dense_dim
from dpmps.mps import (CanonicalMps, contract, left_gram_offdiag,
                       local_energy, mu_of)


@dataclass
class CanonicalReport:
    """Max deviations from the canonical conditions, per bond."""

    left: list = field(default_factory=list)      # per interior pair j=2..n-1
    right: list = field(default_factory=list)     # per B tensor
    boundary: list = field(default_factory=list)  # [left gamma, right gamma]
    norm: list = field(default_factory=list)      # per lambda^[j], j=2..n
    tol: float = 1e-10

    @property
    def max_residual(self) -> float:
        parts = self.left + self.right + self.boundary + self.norm
        return max(parts) if parts else 0.0

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tol


def derived_lambdas(m: CanonicalMps) -> list:
    """[lambda^[2], ..., lambda^[n]] with j >= 3 recovered via mu chains."""
    lams = [m.lambda2]
    for b in m.b_tensors:
        lams.append(mu_of(lams[-1], b))
    return lams


def check_canonical(m: CanonicalMps, tol: float = 1e-10) -> CanonicalReport:
    """Evaluate left/right/boundary/normalization residuals.

    The left-canonical residual of a (lambda, B) pair is the largest
    off-diagonal Gram entry of the (lambda B) columns.
    """
    rep = CanonicalReport(tol=tol)
    for g in (m.gamma_left, m.gamma_right):
        gram = g.conj() @ g.T
        rep.boundary.append(float(np.abs(gram - np.eye(g.shape[0])).max()))
    lams = derived_lambdas(m)
    for lam in lams:
        rep.norm.append(abs(float(np.linalg.norm(lam)) - 1.0))
    for lam, b in zip(lams, m.b_tensors):
        rl = b.shape[0]
        flat = b.reshape(rl, -1)
        gram = flat.conj() @ flat.T
        rep.right.append(float(np.abs(gram - np.eye(rl)).max()))
        rep.left.append(float(left_gram_offdiag(lam, b)))
    return rep


def windowed_energy_sum(m: CanonicalMps, h) -> float:
    """Sum of windowed local energies over all terms, with lambda^[j] for
    j >= 3 recovered via mu chains.  Equals the true energy when the state
    is exactly canonical."""
    if len(h.terms) != m.n - 1:
        raise ShapeMismatchError("term count does not match site count")
    ts = m.site_tensors()
    lams = [np.ones(1)] + derived_lambdas(m)
    return sum(local_energy(lams[j], ts[j], ts[j + 1], term)
               for j, term in enumerate(h.terms))


def align_phase(v: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate v by a global phase so its largest-overlap alignment with ref
    is real positive; used for phase-insensitive dense comparisons."""
    ov = np.vdot(ref, v)
    if abs(ov) < 1e-14:
        k = int(np.argmax(np.abs(v)))
        ph = v[k] / abs(v[k]) if abs(v[k]) > 0 else 1.0
        return v / ph
    return v * (ov.conjugate() / abs(ov))


def to_dense_hamiltonian(h: NnHamiltonian) -> np.ndarray:
    """Sum of identity-padded terms as one dense Hermitian matrix; the small-n
    reference for the matrix-free `apply_hamiltonian`."""
    total = dense_dim(h)
    out = np.zeros((total, total), dtype=complex)
    for j, t in enumerate(h.terms):
        left = np.eye(math.prod(h.dims[:j]), dtype=complex)
        right = np.eye(math.prod(h.dims[j + 2:]), dtype=complex)
        out += np.kron(np.kron(left, t), right)
    return out


def folded_terms(bond: np.ndarray, n: int, f: np.ndarray | None):
    """The n-1 terms of a uniform chain, one copy of `bond` per bond with the
    site field f added site by site: whole at the two end sites, half to
    each adjacent bond in between."""
    out = [bond.copy() for _ in range(n - 1)]
    if f is None:
        return out
    eye = np.eye(f.shape[0], dtype=complex)
    for i in range(n):
        if i == 0:
            out[0] += np.kron(f, eye)
        elif i == n - 1:
            out[-1] += np.kron(eye, f)
        else:
            out[i - 1] += 0.5 * np.kron(eye, f)
            out[i] += 0.5 * np.kron(f, eye)
    return out


def max_term_norm_per_term(h: NnHamiltonian) -> float:
    """The largest singular value of the terms, one term at a time."""
    return max(float(np.linalg.norm(t, 2)) for t in h.terms)


def is_commuting_per_pair(h: NnHamiltonian) -> bool:
    """Whether every adjacent pair of terms commutes on the 3-site space,
    checked for every pair, repeated ones too."""
    for j in range(h.n - 2):
        d1, d3 = h.dims[j], h.dims[j + 2]
        a = np.kron(h.terms[j], np.eye(d3, dtype=complex))
        b = np.kron(np.eye(d1, dtype=complex), h.terms[j + 1])
        c = a @ b - b @ a
        if not np.isfinite(c).all() or np.linalg.norm(c, 2) > COMMUTATOR_TOL:
            return False
    return True


def power_iteration_ground(h: NnHamiltonian, iters: int = 20000,
                           tol: float = 1e-12,
                           seed: int = 7) -> float:
    """Second opinion on the ground energy: power iteration on the shifted
    matrix c*I - H with c a Gershgorin upper bound on the spectrum."""
    mat = to_dense_hamiltonian(h)
    dim = mat.shape[0]
    shift = float(np.abs(mat).sum(axis=1).max())
    m = shift * np.eye(dim) - mat
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    last = np.inf
    for _ in range(iters):
        w = m @ v
        lam = float(np.vdot(v, w).real)
        nrm = np.linalg.norm(w)
        v = w / nrm
        if abs(lam - last) < tol * max(1.0, abs(lam)):
            last = lam
            break
        last = lam
    return shift - last


def q_major_transitions(net, hterm):
    """E[q, p], the windowed energy of the term between a pair q at the left
    site and a pair p at the right site, as the whole N x N matrix: complex
    products in q x p order, in row chunks of 256, real part."""
    lam, b = net.lam, net.b
    d = b.shape[2]
    h = np.asarray(hterm).reshape(d, d, d, d)
    m = lam[:, :, None, None] * b
    t1 = np.einsum("qaix,qaky->qxiyk", m.conj(), m, optimize=True)
    t2 = np.einsum("pxjb,pylb->pxjyl", b.conj(), b, optimize=True)
    g = np.einsum("qxiyk,ijkl->qxjyl", t1, h, optimize=True)
    g, t2 = g.reshape(net.size, -1), t2.reshape(net.size, -1)
    e = np.empty((net.size, net.size), dtype=complex)
    for lo in range(0, net.size, 256):
        e[lo:lo + 256] = g[lo:lo + 256] @ t2.T
    return e.real


def enumerated_family(a, b, delta, real_nonneg=False, chunk=1 << 18):
    """(family, NetCertificate) of `epsnet.orthonormal_family`, from all
    m^(ab) grid candidates: each candidate's rows are norm-filtered and
    renormalized, its whole Gram matrix is formed, and Gram-Schmidt sweeps
    whole candidates from a copy of the previous sweep.  The candidates go
    through in slices of `chunk` indices, which changes no candidate's
    arithmetic and bounds the memory.  The filter bounds and the
    degeneracy threshold are read from `epsnet` when called."""
    grid = (epsnet.real_grid(delta) if real_nonneg
            else epsnet.complex_grid(delta)).astype(complex)
    m = len(grid)
    total = m ** (a * b)
    lo, hi = epsnet._norm_band(b, delta)
    tol = epsnet.GS_DEGENERATE_TOL
    outs, n1, n3 = [], 0, 0
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        cands = np.stack([grid[(idx // m ** (a * b - 1 - k)) % m]
                          for k in range(a * b)], axis=1).reshape(-1, a, b)
        norms = np.linalg.norm(cands, axis=2)
        keep = np.all((norms >= lo) & (norms <= hi), axis=1)
        cands, norms = cands[keep], norms[keep]
        n1 += cands.shape[0]
        cands = cands / norms[:, :, None]
        if a > 1:
            gram = np.einsum("nij,nkj->nik", cands.conj(), cands)
            off = np.abs(gram - np.eye(a)[None])
            cands = cands[off.max(axis=(1, 2))
                          <= epsnet._overlap_bound(b, delta)]
        n3 += cands.shape[0]
        z = np.empty_like(cands)
        ok = np.ones(cands.shape[0], dtype=bool)
        for sweep in range(2):
            src = cands if sweep == 0 else z.copy()
            for i in range(a):
                v = src[:, i, :].copy()
                for k in range(i):
                    ov = np.einsum("nj,nj->n", z[:, k, :].conj(), v)
                    v -= ov[:, None] * z[:, k, :]
                nrm = np.linalg.norm(v, axis=1)
                ok &= nrm > tol
                nrm = np.where(nrm > tol, nrm, 1.0)
                z[:, i, :] = v / nrm[:, None]
        outs.append(z[ok])
    out = np.concatenate(outs)
    if real_nonneg:
        out = out.real.astype(complex)
    return out, epsnet.NetCertificate(
        nu_cert=epsnet._radius(b, delta), candidate_count=total,
        survivors_norm_filter=n1, survivors_overlap_filter=n3,
        dropped_degenerate=n3 - out.shape[0], size=out.shape[0])


def _transfer(env, bra, ket):
    """env[a, b] of <bra|...|ket> carried over one site of (r_left, dim,
    r_right) tensors: sum_{a,b,i} env[a,b] conj(bra[a,i,c]) ket[b,i,d]."""
    x = (env @ ket.reshape(ket.shape[0], -1)).reshape(-1, ket.shape[2])
    return bra.conj().reshape(-1, bra.shape[2]).T @ x


def expectation_sweep(m: CanonicalMps, h) -> float:
    """<psi|H|psi>/<psi|psi> in one left-to-right sweep of `_transfer`
    updates at every site, with the norm environment and the environment
    of the terms already closed; term j-1 is closed at site j from its
    window of sites j-1, j.  No rescaling, so a long chain whose norm
    leaves the float range gives NaN."""
    tensors = m.site_tensors()
    norm = before = np.ones((1, 1), dtype=complex)
    energy = np.zeros((1, 1), dtype=complex)
    for j, t in enumerate(tensors):
        energy = _transfer(energy, t, t)
        if j:
            w = contract(tensors[j - 1:j + 1]).reshape(
                tensors[j - 1].shape[0], -1, t.shape[2])
            energy += _transfer(before, w, h.terms[j - 1] @ w)
        before, norm = norm, _transfer(norm, t, t)
    return float((energy[0, 0] / norm[0, 0]).real)
