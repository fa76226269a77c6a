"""Exact eigenstate refinement for commuting nearest-neighbor Hamiltonians.

An approximate ground state is projected term by term onto well-supported
low-energy eigenspaces.  Because the terms commute, each projection
preserves the eigenspace memberships already established, so after one
left-to-right pass the state is an exact eigenstate of every term and its
energy is the sum of the chosen eigenvalues.  A projection onto an
eigenspace with weight c multiplies the energy surplus by at most
(1 + 1/n) when c >= 1/(k n^2), which telescopes to a factor below e.
The pass takes and returns one dense state vector over the chain's site
dimensions.  Projectors and single terms are applied to it by
`hamiltonian.apply_term`, and H by `hamiltonian.apply_hamiltonian`; both
use one kernel, a small operator times the state viewed as a matrix, so no
2^n x 2^n matrix is formed.  Each distinct term is diagonalized once, and
the final eigen-residual check reuses those decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleEigenspaceError, ShapeMismatchError
from .hamiltonian import (NnHamiltonian, _check_hermitian, apply_hamiltonian,
                          apply_term)

CLUSTER_TOL = 1e-8      # eigenvalue gap, relative to the spectral range


@dataclass
class EigDecomp:
    """Eigenspace projectors of one Hermitian two-site term."""

    projectors: list
    eigenvalues: list
    spectrum: np.ndarray      # every eigenvalue of the term, ascending


@dataclass
class RefineResult:
    """Outcome of the sequential projection pass."""

    vector: np.ndarray    # the refined unit state vector over h.dims
    energy: float
    chosen: list          # (term index, eigenspace index, weight c)
    residuals: list       # per-term eigen-residual of the final state


def eig_projectors(hterm: np.ndarray) -> EigDecomp:
    """Eigendecompose a Hermitian term and cluster eigenvalues within
    CLUSTER_TOL of the spectral range into joint eigenspaces."""
    t = np.asarray(hterm, dtype=complex)
    _check_hermitian(t)
    vals, vecs = np.linalg.eigh(t)
    scale = max(float(vals[-1] - vals[0]), 1.0)
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= CLUSTER_TOL * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    projectors, eigenvalues = [], []
    for g in groups:
        v = vecs[:, g]
        projectors.append(v @ v.conj().T)
        eigenvalues.append(float(np.mean(vals[g])))
    return EigDecomp(projectors=projectors, eigenvalues=eigenvalues,
                     spectrum=vals)


def _term_decomps(h: NnHamiltonian) -> list:
    """`eig_projectors` of every term, computed once per distinct array."""
    decomps = {id(t): eig_projectors(t)
               for t in {id(t): t for t in h.terms}.values()}
    return [decomps[id(t)] for t in h.terms]


def refine_to_eigenstate(v, h: NnHamiltonian) -> RefineResult:
    """Project the unit state vector v over h.dims through the eigenspaces
    of every term, left to right, keeping per term the feasible eigenspace
    of minimal energy.

    Feasible means weight c_j >= 1/(k n^2); the commuting structure
    guarantees such an eigenspace exists whenever the input energy surplus
    is below a third of the gap.  Ties go to the lowest eigenspace index.
    The chosen candidate's normalized projection becomes the next state.
    """
    n = h.n
    v = np.asarray(v, dtype=complex).ravel()
    if v.size != h.total_dim:
        raise ShapeMismatchError(f"state of size {v.size}, not {h.total_dim}")
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"input state norm {nrm} is not 1")
    v = v / nrm
    decomps = _term_decomps(h)
    chosen = []
    for t, dec in enumerate(decomps):
        k = len(dec.projectors)
        best = None
        for j, p in enumerate(dec.projectors):
            w = apply_term(p, v, h.dims, t)
            c = float(np.vdot(v, w).real)
            if c < 1.0 / (k * n * n):
                continue
            wn = w / np.linalg.norm(w)
            e = float(np.vdot(wn, apply_hamiltonian(h, wn)).real)
            if best is None or e < best[0] - 1e-14:
                best = (e, j, c, wn)
        if best is None:
            raise NoFeasibleEigenspaceError(
                f"no eigenspace of term {t} has weight above "
                f"1/(k n^2) = {1.0 / (k * n * n):.3e}")
        _, j, c, v = best
        chosen.append((t, j, c))
    energy = sum(decomps[t].eigenvalues[j] for t, j, _ in chosen)
    return RefineResult(vector=v, energy=float(energy), chosen=chosen,
                        residuals=verify_eigenstate(v, h, decomps))


def verify_eigenstate(v, h: NnHamiltonian, decomps: list | None = None) -> list:
    """Per term, the norm of H_term |v> - e |v> for the unit state vector v
    over h.dims, with e the term eigenvalue nearest to the term
    expectation.  `decomps` are the terms' `_term_decomps`; computed here
    when not given."""
    if decomps is None:
        decomps = _term_decomps(h)
    out = []
    for t, (term, dec) in enumerate(zip(h.terms, decomps)):
        w = apply_term(term, v, h.dims, t)
        expect = float(np.vdot(v, w).real)
        e = float(dec.spectrum[np.argmin(np.abs(dec.spectrum - expect))])
        out.append(float(np.linalg.norm(w - e * v)))
    return out
