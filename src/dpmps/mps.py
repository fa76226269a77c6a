"""Canonical MPS data model, canonicalization, and energy evaluation.

A chain of n sites is stored as the boundary tensor Gamma^[1], the Schmidt
vector lambda^[2], the right-canonical interior tensors B^[2..n-1], and the
boundary tensor Gamma^[n].  Schmidt vectors for later bonds are not stored;
they are recovered from (lambda, B) pairs via `mu_of`.

Bond dimensions are the exact Schmidt ranks of the represented state,
capped at D.  Interior B tensors are indexed [alpha, i, beta] with alpha
the left bond; boundary tensors are indexed [alpha, i].

Each MPS job has one implementation: `contract` (site tensors multiplied
out left to right), `local_energy` (the window kernel of one windowed
energy, which the oracle and the reference and benchmark checks call; the
DP takes its step energies and every pruning bound from `dp._left_factor`
and its exact boundary energies from `dp._boundary_energies`) and
`left_gram` (the (lambda B) Gram matrix behind the left-canonical filter
and the DP defects).
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import (ComplexEnergyError, SchmidtRankError,
                     ShapeMismatchError, check_size)
from .hamiltonian import _check_hermitian

DENSE_SIZE_GUARD = 2**24
SVD_CUTOFF = 1e-12


@dataclass
class CanonicalMps:
    """Canonical-form MPS Gamma^[1] lambda^[2] B^[2] ... B^[n-1] Gamma^[n]."""

    n: int
    d: int
    D: int
    d_end: int
    gamma_left: np.ndarray          # (r2, d_end)
    lambda2: np.ndarray             # (r2,) nonnegative reals
    b_tensors: list                 # site j=2..n-1: (r_j, d, r_{j+1})
    gamma_right: np.ndarray         # (r_n, d_end)
    s: int = 1

    @property
    def dims(self) -> tuple:
        return (self.d_end,) + (self.d,) * (self.n - 2) + (self.d_end,)

    def site_tensors(self) -> list:
        """Uniform site-tensor view [(r_left, dim, r_right)] with lambda2
        absorbed into the first tensor."""
        m1 = (self.gamma_left * self.lambda2[:, None]).T[None, :, :]
        mn = self.gamma_right[:, :, None]
        return [m1] + list(self.b_tensors) + [mn]


def mu_of(lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Right Schmidt vector of a (lambda, B) pair:
    mu_beta = (sum_{i,alpha} |lambda_alpha B^i_{alpha beta}|^2)^(1/2).

    Defined for non-canonical pairs as well.  Leading axes of lam (..., D)
    and b (..., D, d, D) broadcast, so one call serves a batch of pairs.
    """
    lam = np.asarray(lam, dtype=float)
    b = np.asarray(b)
    if b.ndim < 3 or lam.ndim < 1 or b.shape[-3] != lam.shape[-1]:
        raise ShapeMismatchError(
            f"lambda of shape {lam.shape} does not match B of shape {b.shape}"
        )
    w = np.abs(lam[..., :, None, None] * b) ** 2
    return np.sqrt(w.sum(axis=(-3, -2)))


def left_gram(lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix <(lambda B)_beta | (lambda B)_beta'> of the columns of
    lambda B, over the leading axes of lam (..., D) and b (..., D, d, D)."""
    cols = lam[..., :, None, None] * b
    # rows (alpha, i), columns beta; the Gram matrix is over the columns
    cols = cols.reshape(cols.shape[:-3] + (b.shape[-3] * b.shape[-2],
                                           b.shape[-1]))
    return np.matmul(cols.conj().swapaxes(-1, -2), cols)


def left_gram_offdiag(lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max over beta != beta' of |<(lambda B)_beta | (lambda B)_beta'>|,
    the left-canonical defect of a (lambda, B) pair, over the leading axes
    of lam (..., D) and b (..., D, d, D); 0 for a single column.

    It is the exact kernel of the pair net's left-canonical filter: the
    net screens with a per-family Gram factor and falls back to this
    kernel for the pairs near the threshold, so its rounding decides
    the ties."""
    g = np.abs(left_gram(lam, b))
    diag = np.arange(b.shape[-1])
    g[..., diag, diag] = 0.0
    return g.max(axis=(-2, -1))


def canonicalize(state, n: int, d: int, D, d_end: int) -> CanonicalMps:
    """Decompose a normalized dense state into canonical form by SVD sweeps.

    Singular values below 1e-12 are treated as zero.  A cut of rank above
    D raises SchmidtRankError; D=None means no cap.
    """
    dims = [d_end] + [d] * (n - 2) + [d_end]
    v = np.asarray(state, dtype=complex).ravel()
    if v.size != math.prod(dims):
        raise ShapeMismatchError(
            f"state of size {v.size} does not match dims {tuple(dims)}"
        )
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"input state norm {nrm} is not 1")
    v = v / nrm

    right_tensors = []   # site n down to site 2
    lam2 = None
    rem = v
    r = 1
    for j in range(n, 1, -1):
        m = rem.reshape(-1, dims[j - 1] * r)
        u, sv, vh = np.linalg.svd(m, full_matrices=False)
        keep = sv > SVD_CUTOFF
        sv, u, vh = sv[keep], u[:, keep], vh[keep]
        if D is not None and len(sv) > D:
            raise SchmidtRankError(
                f"cut before site {j} has Schmidt rank {len(sv)} > D={D}"
            )
        right_tensors.append(vh.reshape(len(sv), dims[j - 1], r))
        rem = u * sv
        r = len(sv)
        lam2 = sv
    gamma_left = (rem / lam2[None, :]).T        # rem = U diag(lam2)
    gamma_right = right_tensors[0][:, :, 0]
    b_tensors = [t for t in reversed(right_tensors[1:])]
    d_cap = max(len(lam2), max((b.shape[0] for b in right_tensors), default=1))
    return CanonicalMps(
        n=n, d=d, D=(D if D is not None else d_cap), d_end=d_end,
        gamma_left=gamma_left, lambda2=lam2.copy(),
        b_tensors=b_tensors, gamma_right=gamma_right,
    )


def contract(tensors) -> np.ndarray:
    """Contract (r_left, dim, r_right) site tensors left to right into one
    matrix: rows are the first tensor's r_left followed by the physical
    dims, columns the last tensor's r_right.  An empty list gives the
    1 x 1 identity."""
    if not tensors:
        return np.eye(1, dtype=complex)
    acc = tensors[0].reshape(-1, tensors[0].shape[2])
    for t in tensors[1:]:
        acc = (acc @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
    return acc


def to_dense(m: CanonicalMps) -> np.ndarray:
    """Coefficient vector of the MPS, contracted left to right."""
    check_size(math.prod(m.dims), DENSE_SIZE_GUARD, "dense size", "guard")
    return contract(m.site_tensors()).reshape(-1)


def local_energy(lam, b1, b2, hterm) -> float:
    """Energy of one term from the window lambda^[j-1] B^[j-1] B^[j],
    assuming canonical collapse on both sides of the window: the window
    tensor W[a, i, j, b] gives <W| hterm (x) I |W>."""
    hterm = np.asarray(hterm)
    _check_hermitian(hterm)
    lam = np.asarray(lam, dtype=float)
    b1, b2 = np.asarray(b1), np.asarray(b2)
    d1, d2 = b1.shape[1], b2.shape[1]
    w = np.einsum("a,aig,gjb->aijb", lam, b1, b2, optimize=True)
    val = np.einsum("aijb,ijkl,aklb->", w.conj(),
                    hterm.reshape(d1, d2, d1, d2), w, optimize=True)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ComplexEnergyError(
            f"energy has non-negligible imaginary part {val.imag}")
    return float(val.real)


def local_energy_left(gamma1, lam2, b2, hterm) -> float:
    """Boundary variant for H_{1,2} from the window Gamma^[1] lambda^[2] B^[2]."""
    m1 = np.asarray(gamma1) * np.asarray(lam2, dtype=float)[:, None]
    return local_energy(np.ones(1), m1.T[None], b2, hterm)


def local_energy_right(lam, b1, gamma_n, hterm) -> float:
    """Boundary variant for H_{n-1,n} from the window lambda^[n-1] B^[n-1] Gamma^[n]."""
    return local_energy(lam, b1, np.asarray(gamma_n)[:, :, None], hterm)


def _transfer(env, bra, ket):
    """env[a, b] of <bra|...|ket> carried over one site of (r_left, dim,
    r_right) tensors: sum_{a,b,i} env[a,b] conj(bra[a,i,c]) ket[b,i,d]."""
    x = (env @ ket.reshape(ket.shape[0], -1)).reshape(-1, ket.shape[2])
    return bra.conj().reshape(-1, bra.shape[2]).T @ x


def expectation_full(m: CanonicalMps, h) -> float:
    """True energy <psi|H|psi>/<psi|psi> in one left-to-right sweep with the
    norm environment and the environment of the terms already closed; term
    j-1 is closed at site j from its window (a, d_{j-1} d_j, c) of sites
    j-1, j.  Makes no canonical assumption about the state."""
    tensors = m.site_tensors()
    if len(h.terms) != m.n - 1:
        raise ShapeMismatchError("term count does not match site count")
    for j, t in enumerate(tensors):
        if t.shape[1] != h.dims[j]:
            raise ShapeMismatchError(
                f"site {j} has physical dimension {t.shape[1]}, "
                f"Hamiltonian expects {h.dims[j]}"
            )
    norm = before = np.ones((1, 1), dtype=complex)
    energy = np.zeros((1, 1), dtype=complex)
    for j, t in enumerate(tensors):
        energy = _transfer(energy, t, t)
        if j:
            w = contract(tensors[j - 1:j + 1]).reshape(
                tensors[j - 1].shape[0], -1, t.shape[2])
            energy += _transfer(before, w, h.terms[j - 1] @ w)
        before, norm = norm, _transfer(norm, t, t)
    val = energy[0, 0] / norm[0, 0]
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ComplexEnergyError(
            f"energy has non-negligible imaginary part {val.imag}")
    return float(val.real)


def product_basis_state(n: int, d: int, d_end: int, indices) -> np.ndarray:
    """Dense computational basis state with the given per-site indices."""
    dims = [d_end] + [d] * (n - 2) + [d_end]
    v = np.zeros(math.prod(dims), dtype=complex)
    flat = 0
    for dim, k in zip(dims, indices):
        if not 0 <= k < dim:
            raise IndexError(f"basis index {k} out of range for dimension {dim}")
        flat = flat * dim + k
    v[flat] = 1.0
    return v


MPS_FORMAT_VERSION = 1


def _tensor_to_json(a: np.ndarray) -> list:
    """Nested lists of a's entries, each entry as [real, imag]."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def mps_to_json(m: CanonicalMps) -> dict:
    """JSON document for the MPS file format."""
    return {
        "version": MPS_FORMAT_VERSION,
        "n": m.n, "d": m.d, "D": m.D, "d_end": m.d_end, "s": m.s,
        "gamma_left": _tensor_to_json(m.gamma_left),
        "lambda2": _tensor_to_json(m.lambda2),
        "b_tensors": [_tensor_to_json(b) for b in m.b_tensors],
        "gamma_right": _tensor_to_json(m.gamma_right),
    }
