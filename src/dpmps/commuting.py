"""Exact eigenstate refinement for commuting nearest-neighbor Hamiltonians.

An approximate ground state is projected term by term onto well-supported
low-energy eigenspaces.  Because the terms commute, each projection
preserves the eigenspace memberships already established, so after one
left-to-right pass the state is an exact eigenstate of every term and its
energy is the sum of the chosen eigenvalues.  A projection onto an
eigenspace with weight c multiplies the energy surplus by at most
(1 + 1/n) when c >= 1/(k n^2), which telescopes to a factor below e.
Projectors and terms are applied to the state vector by reshape
(`hamiltonian.apply_term`); no 2^n x 2^n matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnnihilationError, NoFeasibleEigenspaceError
from .hamiltonian import NnHamiltonian, apply_hamiltonian, apply_term
from .mps import CanonicalMps, canonicalize, to_dense

ANNIHILATION_TOL = 1e-12


@dataclass
class EigDecomp:
    """Eigenspace projectors of one Hermitian two-site term."""

    projectors: list
    eigenvalues: list
    k: int


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
                     k=len(groups))


def apply_projector(m: CanonicalMps, p: np.ndarray, site: int):
    """Project onto an eigenspace of the term on (site, site+1), 0-based,
    and renormalize.  Returns (new state, weight c = <psi|P|psi>).

    The result is recompressed to its exact Schmidt ranks with no cap, so
    the bond dimension grows at most by the d^2 factor of the two-site
    operator.
    """
    v = to_dense(m)
    w = apply_term(np.asarray(p, dtype=complex), v, m.dims, site)
    nrm = float(np.linalg.norm(w))
    if nrm <= ANNIHILATION_TOL:
        raise AnnihilationError(
            f"projector on sites ({site}, {site + 1}) annihilated the state"
        )
    out = canonicalize(w / nrm, m.n, m.d, None, m.d_end, mode="strict",
                       s=m.s)
    return out, nrm * nrm


def refine_to_eigenstate(omega: CanonicalMps, h: NnHamiltonian,
                         h_budget: float | None = None) -> RefineResult:
    """Project the state through the eigenspaces of every term, left to
    right, keeping per term the feasible eigenspace of minimal energy.

    Feasible means weight c_j >= 1/(k n^2); the commuting structure
    guarantees such an eigenspace exists whenever the input energy surplus
    is below a third of the gap.  Ties go to the lowest eigenspace index.
    """
    n = h.n
    state = omega
    chosen = []
    picked_eigenvalues = []
    for t, term in enumerate(h.terms):
        dec = eig_projectors(term)
        v = to_dense(state)
        best = None
        for j, p in enumerate(dec.projectors):
            w = apply_term(p, v, state.dims, t)
            c = float(np.vdot(v, w).real)
            if c < 1.0 / (dec.k * n * n):
                continue
            wn = w / np.linalg.norm(w)
            e = float(np.vdot(wn, apply_hamiltonian(h, wn)).real)
            if best is None or e < best[0] - 1e-14:
                best = (e, j, c)
        if best is None:
            raise NoFeasibleEigenspaceError(
                f"no eigenspace of term {t} has weight above "
                f"1/(k n^2) = {1.0 / (dec.k * n * n):.3e}"
            )
        _, j, c = best
        state, _ = apply_projector(state, dec.projectors[j], t)
        chosen.append((t, j, c))
        picked_eigenvalues.append(dec.eigenvalues[j])
    residuals = verify_eigenstate(state, h)
    return RefineResult(state=state, energy=float(sum(picked_eigenvalues)),
                        chosen=chosen, residuals=residuals)


def verify_eigenstate(state: CanonicalMps, h: NnHamiltonian,
                      tol: float = 1e-8) -> list:
    """Per term, the norm of H_term |psi> - e |psi> with e the term
    eigenvalue nearest to the term expectation."""
    v = to_dense(state)
    out = []
    for t, term in enumerate(h.terms):
        w = apply_term(np.asarray(term, dtype=complex), v, state.dims, t)
        expect = float(np.vdot(v, w).real)
        vals = np.linalg.eigvalsh(np.asarray(term, dtype=complex))
        e = float(vals[np.argmin(np.abs(vals - expect))])
        out.append(float(np.linalg.norm(w - e * v)))
    return out
