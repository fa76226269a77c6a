"""Ground-truth computations the solver is checked against.

Reference energies come from thick-restart Lanczos on one array of basis
vectors, its Rayleigh matrix read off their reorthogonalisation and H
applied one run of bonds at a time (`hamiltonian.apply_hamiltonian`).
Brute-force enumeration over net assignments realizes the DP's search
space with the window energies of `mps`.  A greedy single-site sweep, also
matrix-free, over the true single-site subspace is the local-minimum
baseline that the trap instances defeat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epsnet import BoundaryNet, PairNet
from .errors import ConvergenceError, NoAdmissibleSequenceError, check_size
from .hamiltonian import NnHamiltonian, apply_hamiltonian, dense_dim
from .mps import (CanonicalMps, contract, local_energy, local_energy_left,
                  local_energy_right)

DEGENERACY_TOL = 1e-9
ENUM_GUARD = 10**8
KRYLOV_DIM = 64             # Lanczos basis size between restarts
LANCZOS_MAX_RESTARTS = 200  # restarts before ConvergenceError
LANCZOS_TOL = 1e-12         # residual bound relative to the bound on ||H||
LANCZOS_SEED = 7


@dataclass
class GroundTruth:
    """Lowest eigenvalue with degeneracy and gap information."""

    e0: float
    ground_vector: np.ndarray
    degeneracy: int
    gap: float


def ground_pair(h: NnHamiltonian, rng=None) -> tuple:
    """(e0, ground vector) by matrix-free Lanczos (`apply_hamiltonian`): the
    first pass of `exact_ground`, without its degeneracy and gap search.
    `rng` gives the start vector; by default a generator seeded with
    LANCZOS_SEED, as `exact_ground` uses."""
    if rng is None:
        rng = np.random.default_rng(LANCZOS_SEED)
    return _lowest_eigenpair(h, np.empty((0, dense_dim(h)), dtype=complex),
                             rng)


def exact_ground(h: NnHamiltonian) -> GroundTruth:
    """Ground energy, its degeneracy and the gap above it, by Lanczos with H
    applied by `apply_hamiltonian` (no dense matrix).

    The ground vector is found first (`ground_pair`).  Each further
    eigenvector is sought in the orthogonal complement of those already
    found (they are locked), until the first eigenvalue above
    e0 + DEGENERACY_TOL, which sets the gap; the gap is 0 when every
    eigenvalue lies within the tolerance.
    """
    rng = np.random.default_rng(LANCZOS_SEED)
    e0, ground = ground_pair(h, rng)
    locked = ground[None, :]
    gap = 0.0
    while len(locked) < h.total_dim:
        e, x = _lowest_eigenpair(h, locked, rng)
        if e > e0 + DEGENERACY_TOL:
            gap = e - e0
            break
        locked = np.vstack([locked, x])
    return GroundTruth(e0=e0, ground_vector=ground, degeneracy=len(locked),
                       gap=gap)


def _lowest_eigenpair(h: NnHamiltonian, locked: np.ndarray, rng) -> tuple:
    """Lowest eigenpair of H on the orthogonal complement of the locked rows.

    Thick-restart Lanczos on one array: the locked rows, then Krylov vectors
    b_j from a random complex start.  One `_project_out` takes H b_j off the
    whole array; its first-pass components along the b_i are column j of
    the Rayleigh matrix <b_i|H|b_j>, and its rest, normalised, is b_(j+1).
    At KRYLOV_DIM vectors the lowest half of the Ritz vectors replace them,
    their Ritz values their block of the matrix, and Lanczos goes on from
    the last residual.  Returns once the lowest Ritz pair has
    ||P (H x - theta x)|| <= LANCZOS_TOL * scale, P projecting off the
    locked rows and scale = max(1, J (n-1)) bounding ||H||; raises
    ConvergenceError when that bound is not finite, since every residual
    would pass it, and after LANCZOS_MAX_RESTARTS restarts.
    """
    tol = LANCZOS_TOL * max(1.0, h.J * (h.n - 1))
    if not np.isfinite(tol):
        raise ConvergenceError(f"Lanczos residual bound {tol} is not finite")
    dim, nl = h.total_dim, len(locked)
    steps = min(KRYLOV_DIM, dim - nl)
    rows = np.empty((nl + steps, dim), dtype=complex)
    rows[:nl] = locked
    rayleigh = np.zeros((steps, steps), dtype=complex)  # <b_i|H|b_j>, i <= j
    w = _project_out(rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                     locked)[0]
    k, resid = 0, np.inf
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        while k < steps:
            nrm = np.linalg.norm(w)
            if k and nrm <= tol:                # invariant Krylov space
                break
            rows[nl + k] = w / nrm
            k += 1
            w, col = _project_out(apply_hamiltonian(h, rows[nl + k - 1]),
                                  rows[:nl + k])
            rayleigh[:k, k - 1] = col[nl:]
        vals, vecs = np.linalg.eigh(rayleigh[:k, :k], UPLO="U")
        x = vecs[:, 0] @ rows[nl:nl + k]
        x /= np.linalg.norm(x)
        r = apply_hamiltonian(h, x) - vals[0] * x
        resid = float(np.linalg.norm(_project_out(r, locked)[0]))
        if resid <= tol:
            return float(vals[0]), x
        keep = max(1, k // 2)
        rows[nl:nl + keep] = vecs[:, :keep].T @ rows[nl:nl + k]
        rayleigh[:keep, :keep] = np.diag(vals[:keep])
        k = keep
    raise ConvergenceError(f"Lanczos residual {resid:.3e} above {tol:.3e} "
                           f"after {LANCZOS_MAX_RESTARTS} restarts")


def _project_out(w: np.ndarray, rows: np.ndarray) -> tuple:
    """(w less its parts along the orthonormal rows, by classical Gram-Schmidt
    twice; the first pass's <row_i|w>), or (w itself, none) without rows."""
    if not len(rows):
        return w, np.empty(0, dtype=complex)
    first = (rows @ w.conj()).conj()
    w = w - first @ rows
    return w - (rows @ w.conj()).conj() @ rows, first


def enumerate_net_optimum(h: NnHamiltonian, end_net: BoundaryNet,
                          pair_net: PairNet, epsilon_op: float):
    """Brute-force minimum of the windowed energy sum over every net
    assignment satisfying stitching at every interior junction.

    Returns (minimal energy, lexicographically first minimizing assignment
    as [boundary index, pair indices..., boundary index]).
    """
    n = h.n
    ne, npair = end_net.size, pair_net.size
    check_size(ne * ne * npair ** (n - 2), ENUM_GUARD, "net sequences",
               "guard")

    # pairwise tables from the scalar window-energy evaluators
    lam, b, mu = pair_net.lam, pair_net.b, pair_net.mu
    e_left = np.empty((ne, npair))
    for gi, gam in enumerate(end_net.tensors):
        for p in range(npair):
            e_left[gi, p] = local_energy_left(gam, lam[p], b[p], h.terms[0])
    e_right = np.empty((npair, ne))
    for q in range(npair):
        for gi, gam in enumerate(end_net.tensors):
            e_right[q, gi] = local_energy_right(lam[q], b[q], gam,
                                                h.terms[-1])
    admissible = np.empty((npair, npair), dtype=bool)
    for q in range(npair):
        for p in range(npair):
            admissible[q, p] = (np.linalg.norm(mu[q] - lam[p])
                                <= 2.0 * epsilon_op + 1e-14)
    e_mid = {}      # one table per distinct interior term array
    for term in {id(t): t for t in h.terms[1:n - 2]}.values():
        tab = np.empty((npair, npair))
        for q in range(npair):
            for p in range(npair):
                tab[q, p] = local_energy(lam[q], b[q], b[p], term)
        e_mid[id(term)] = np.where(admissible, tab, np.inf)

    # broadcast-sum over the assignment axes (g1, p2, ..., p_{n-1}, gn)
    axes = n
    cost = np.zeros((1,) * axes)
    cost = cost + _expand(e_left, 0, 1, axes)
    for t, term in enumerate(h.terms[1:n - 2]):
        cost = cost + _expand(e_mid[id(term)], t + 1, t + 2, axes)
    cost = cost + _expand(e_right, axes - 2, axes - 1, axes)
    flat = int(np.argmin(cost))
    best = float(cost.reshape(-1)[flat])
    if not np.isfinite(best):
        raise NoAdmissibleSequenceError(
            f"no net sequence satisfies stitching at epsilon_op={epsilon_op}"
        )
    assignment = list(np.unravel_index(flat, cost.shape))
    return best, [int(a) for a in assignment]


def _expand(tab: np.ndarray, ax1: int, ax2: int, axes: int) -> np.ndarray:
    shape = [1] * axes
    shape[ax1], shape[ax2] = tab.shape
    return tab.reshape(shape)


def _site_isometry(tensors: list, site: int) -> np.ndarray:
    """Map from the site-tensor space to the full Hilbert space with every
    other site tensor fixed: rows indexed by (left sites, phys, right
    sites), columns by (left bond, phys, right bond) of the free site."""
    rl, d, rr = tensors[site].shape
    left = contract(tensors[:site])                         # (dim_l, rl)
    right = contract(tensors[site + 1:]).reshape(rr, -1)    # (rr, dim_r)
    a = np.einsum("la,ib,cr->lirabc", left, np.eye(d, dtype=complex), right,
                  optimize=True)
    return a.reshape(left.shape[0] * d * right.shape[1], rl * d * rr)


def local_sweep_baseline(h: NnHamiltonian, start: CanonicalMps,
                         sweeps: int = 4) -> float:
    """Greedy single-site coordinate descent from a given MPS.

    Each step minimizes the energy over one site tensor with all others
    fixed, via the generalized eigenproblem on the site subspace, and
    accepts the move only when it strictly lowers the energy.  The returned
    energy is monotonically non-increasing in the number of sweeps.  H is
    applied by `apply_hamiltonian` to the state and to the site isometry's
    columns, so no dense 2^n x 2^n matrix is formed.
    """
    dense_dim(h)
    tensors = [t.copy() for t in start.site_tensors()]

    def energy_of(ts):
        v = contract(ts).reshape(-1)
        return float((np.vdot(v, apply_hamiltonian(h, v)) / np.vdot(v, v)).real)

    energy = energy_of(tensors)
    order = list(range(start.n)) + list(range(start.n - 2, -1, -1))
    for _ in range(sweeps):
        for site in order:
            a = _site_isometry(tensors, site)
            h_eff = a.conj().T @ apply_hamiltonian(h, a)
            n_eff = a.conj().T @ a
            svals, u = np.linalg.eigh(n_eff)
            keep = svals > 1e-10
            basis = u[:, keep] / np.sqrt(svals[keep])[None, :]
            hp = basis.conj().T @ h_eff @ basis
            vals, vecs = np.linalg.eigh(hp)
            if vals[0] < energy - 1e-12:
                new_t = (basis @ vecs[:, 0]).reshape(tensors[site].shape)
                tensors[site] = new_t
                energy = float(vals[0])
    return energy_of(tensors)
