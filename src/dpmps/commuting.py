"""Exact eigenstate refinement for commuting nearest-neighbor Hamiltonians.

An approximate ground state is projected term by term onto well-supported
low-energy eigenspaces.  Because the terms commute, each projection
preserves the eigenspace memberships already established, so after one
left-to-right pass the state is an exact eigenstate of every term and its
energy is the sum of the chosen eigenvalues.  A projection onto an
eigenspace with weight c multiplies the energy surplus by at most
(1 + 1/n) when c >= 1/(k n^2), which telescopes to a factor below e.
The pass holds the state as one dense vector, applies projectors and terms
to it by reshape (`hamiltonian.apply_term`), so no 2^n x 2^n matrix is
formed, and canonicalizes the result once at the end.  Each distinct term
is diagonalized once, and the final eigen-residual check reuses those
decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleEigenspaceError
from .hamiltonian import NnHamiltonian, apply_hamiltonian, apply_term
from .mps import CanonicalMps, canonicalize, to_dense


@dataclass
class EigDecomp:
    """Eigenspace projectors of one Hermitian two-site term."""

    projectors: list
    eigenvalues: list
    k: int
    spectrum: np.ndarray      # every eigenvalue of the term, ascending


@dataclass
class RefineResult:
    """Outcome of the sequential projection pass."""

    state: CanonicalMps
    energy: float
    chosen: list          # (term index, eigenspace index, weight c)
    residuals: list       # per-term eigen-residual of the final state


def eig_projectors(hterm: np.ndarray, cluster_tol: float = 1e-8) -> EigDecomp:
    """Eigendecompose a Hermitian term and cluster nearby eigenvalues into
    joint eigenspaces; cluster_tol is relative to the spectral range."""
    t = np.asarray(hterm, dtype=complex)
    if np.abs(t - t.conj().T).max() > 1e-10:
        raise ValueError("term is not Hermitian")
    vals, vecs = np.linalg.eigh(t)
    scale = max(float(vals[-1] - vals[0]), 1.0)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= cluster_tol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    projectors, eigenvalues = [], []
    for g in groups:
        v = vecs[:, g]
        projectors.append(v @ v.conj().T)
        eigenvalues.append(float(np.mean(vals[g])))
    return EigDecomp(projectors=projectors, eigenvalues=eigenvalues,
                     k=len(groups), spectrum=vals)


def _term_decomps(h: NnHamiltonian) -> list:
    """`eig_projectors` of every term, computed once per distinct term."""
    cache, out = {}, []
    for term in h.terms:
        t = np.asarray(term, dtype=complex)
        key = (t.shape, t.tobytes())
        if key not in cache:
            cache[key] = eig_projectors(t)
        out.append(cache[key])
    return out


def refine_to_eigenstate(omega: CanonicalMps, h: NnHamiltonian) -> RefineResult:
    """Project the state through the eigenspaces of every term, left to
    right, keeping per term the feasible eigenspace of minimal energy.

    Feasible means weight c_j >= 1/(k n^2); the commuting structure
    guarantees such an eigenspace exists whenever the input energy surplus
    is below a third of the gap.  Ties go to the lowest eigenspace index.
    The state is held as one dense vector through the pass: the chosen
    candidate's normalized projection becomes the next state, and the
    result is canonicalized once at the end.
    """
    n = h.n
    v = to_dense(omega)
    decomps = _term_decomps(h)
    chosen = []
    picked_eigenvalues = []
    for t, dec in enumerate(decomps):
        best = None
        for j, p in enumerate(dec.projectors):
            w = apply_term(p, v, omega.dims, t)
            c = float(np.vdot(v, w).real)
            if c < 1.0 / (dec.k * n * n):
                continue
            wn = w / np.linalg.norm(w)
            e = float(np.vdot(wn, apply_hamiltonian(h, wn)).real)
            if best is None or e < best[0] - 1e-14:
                best = (e, j, c, wn)
        if best is None:
            raise NoFeasibleEigenspaceError(
                f"no eigenspace of term {t} has weight above "
                f"1/(k n^2) = {1.0 / (dec.k * n * n):.3e}"
            )
        _, j, c, v = best
        chosen.append((t, j, c))
        picked_eigenvalues.append(dec.eigenvalues[j])
    state = canonicalize(v, n, omega.d, None, omega.d_end, s=omega.s)
    residuals = verify_eigenstate(state, h, decomps)
    return RefineResult(state=state, energy=float(sum(picked_eigenvalues)),
                        chosen=chosen, residuals=residuals)


def verify_eigenstate(state: CanonicalMps, h: NnHamiltonian,
                      decomps: list | None = None) -> list:
    """Per term, the norm of H_term |psi> - e |psi> with e the term
    eigenvalue nearest to the term expectation.  `decomps` are the terms'
    `_term_decomps`; computed here when not given."""
    if decomps is None:
        decomps = _term_decomps(h)
    v = to_dense(state)
    out = []
    for t, (term, dec) in enumerate(zip(h.terms, decomps)):
        w = apply_term(np.asarray(term, dtype=complex), v, state.dims, t)
        expect = float(np.vdot(v, w).real)
        vals = dec.spectrum
        e = float(vals[np.argmin(np.abs(vals - expect))])
        out.append(float(np.linalg.norm(w - e * v)))
    return out
