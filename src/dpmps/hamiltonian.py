"""Nearest-neighbor Hamiltonians: model catalog, boundary grouping, checks.

A Hamiltonian on n sites is a list of n-1 Hermitian two-site terms, term j
acting on sites (j, j+1), together with per-site physical dimensions.
Single-site fields are folded into bond terms so the two-site term list is
the complete description.  `NnHamiltonian` is the one place that decides
which terms are equal: terms of the same shape and the same bytes as
complex arrays become one array, the first occurrence, so a uniform chain
holds at most three.  Every per-term computation (the Hermiticity check,
the norm, the commutator check, the eigendecompositions, a DP transition
matrix) runs once per distinct array and finds equal terms by identity,
and no code writes to a term in place.  Equal bytes are found by their
SHA-256 digest, so no copy of them is kept.
`apply_hamiltonian` applies H to a state vector without the dense
2^n x 2^n matrix: the bonds are cut, left to right, into runs whose sites
span at most RUN_DIM states, each run's terms are summed into one small
operator (built once per Hamiltonian), and each run is applied with one
matrix product (`apply_term`'s kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import hashlib
import math
import os

import numpy as np

from .errors import ConfigError, ShapeMismatchError, check_size

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

DENSE_DIM_GUARD = 2**14
NORM_STACK_BYTES = 1 << 16  # bytes of a batched term-norm stack
HERMITICITY_TOL = 1e-10
COMMUTATOR_TOL = 1e-10
RUN_DIM = 16    # states spanned by the sites of one run of bonds


@dataclass
class NnHamiltonian:
    """Sum of Hermitian nearest-neighbor terms with cached operator norm."""

    n: int
    dims: list                      # per-site physical dimensions
    terms: list                     # n-1 Hermitian matrices, term j on (j, j+1)
    J: float = field(default=0.0)
    s: int = 1

    def __post_init__(self):
        if self.n < 2 or len(self.dims) != self.n:
            raise ShapeMismatchError("dims length must equal site count")
        if len(self.terms) != self.n - 1:
            raise ShapeMismatchError("need exactly n-1 terms")
        given, first = {}, {}   # id -> (term, array); value -> (j, array)
        for j, t in enumerate(self.terms):
            if id(t) not in given:  # holding t keeps its id from being reused
                a = np.asarray(t, dtype=complex)
                key = (a.shape, hashlib.sha256(a.tobytes()).digest())
                given[id(t)] = t, first.setdefault(key, (j, a))[1]
            a = self.terms[j] = given[id(t)][1]
            want = self.dims[j] * self.dims[j + 1]
            if a.shape != (want, want):
                raise ShapeMismatchError(f"term {j} has shape {a.shape}, "
                                         f"expected ({want}, {want})")
        for j, a in first.values():
            _check_hermitian(a, f"term {j}")
        self.J = max_term_norm(self)
        if not math.isfinite(self.J):
            raise ValueError(f"largest term norm is not finite ({self.J})")

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def runs(self) -> list:
        """(states left of the run, run operator) per run of bonds, left to
        right, as `apply_hamiltonian` applies them.  A run is grown one bond
        at a time while its sites span at most RUN_DIM states; a term larger
        than that is a run by itself.  Built on first use; the terms are
        never written, so it cannot go stale."""
        out, j = [], 0
        while j < self.n - 1:
            end, span = j + 1, self.dims[j] * self.dims[j + 1]
            while end < self.n - 1 and span * self.dims[end + 1] <= RUN_DIM:
                span *= self.dims[end + 1]
                end += 1
            out.append((math.prod(self.dims[:j]),
                        _run_operator(self.terms[j:end], self.dims[j:end + 1])))
            j = end
        return out


def _check_hermitian(t: np.ndarray, what: str = "Hamiltonian term"):
    """ValueError naming `what` unless |t - t^dagger|max <= HERMITICITY_TOL,
    which a term holding a NaN or an infinity fails."""
    with np.errstate(invalid="ignore"):     # inf - inf is NaN, and fails
        dev = np.abs(t - t.conj().T).max()
    if not dev <= HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian" if math.isfinite(dev)
                         else f"{what} is not finite")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None when the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def max_term_norm(h) -> float:
    """Largest singular value over the distinct term arrays, by batched
    SVDs over stacks of one term shape (a boundary-grouped chain has two)
    of at most NORM_STACK_BYTES, or of one term."""
    by_shape = {}
    for t in {id(t): t for t in h.terms}.values():
        by_shape.setdefault(t.shape, []).append(t)
    norms = []
    for ts in by_shape.values():
        step = max(1, NORM_STACK_BYTES // ts[0].nbytes)
        norms += [np.linalg.norm(np.stack(ts[lo:lo + step]), 2, axis=(1, 2))
                  for lo in range(0, len(ts), step)]
    return float(np.concatenate(norms).max())


def _uniform_terms(bond: np.ndarray, n: int, f: np.ndarray | None = None):
    """The n-1 terms of a uniform chain with two-site term `bond` and site
    field f, folded into the adjacent bonds: whole at the two end sites,
    half each in between.  Every interior bond is one shared array."""
    if f is None:
        return [bond] * (n - 1)
    eye = np.eye(f.shape[0], dtype=complex)
    left, right = np.kron(f, eye), np.kron(eye, f)
    first = bond + left + 0.5 * right
    last = bond + 0.5 * left + right
    return [first] + [bond + 0.5 * left + 0.5 * right] * (n - 3) + [last]


def _random_unitary(rng, d: int) -> np.ndarray:
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugated_diagonal(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u diag(v) u^dagger, holding beside u at most two matrices of its
    size: u is conjugated in place."""
    t = u @ np.diag(v).astype(complex)
    return t @ np.conjugate(u, out=u).T


_UNIFORM = ("zz_chain", "transverse_ising", "heisenberg", "trap_model")


def build_model(name: str, params: dict | None, n: int,
                seed: int | None = None) -> NnHamiltonian:
    """Construct a catalog Hamiltonian on n ungrouped sites of dimension d.

    Models: zz_chain (terms Z(x)Z), transverse_ising (Z(x)Z plus folded
    transverse field g X), heisenberg (XX+YY+ZZ), random_hermitian (seeded
    dense terms), trap_model (bond penalty 2(I-Z(x)Z) plus folded up-spin
    penalty (I+Z)/2 per site), rotated_classical (diagonal_commuting
    conjugated by fixed random single-site unitaries), diagonal_commuting
    (seeded random diagonal terms).  SizeGuardError if the terms exceed memory.
    The seed must be a nonnegative integer or None for every model; only the
    seeded models draw from it, so the others never import numpy.random.
    """
    params = dict(params or {})
    if n < 3:
        raise ConfigError(f"model {name!r} needs n >= 3, got {n}")
    if seed is not None and (isinstance(seed, bool) or not (
            isinstance(seed, (int, np.integer)) and seed >= 0)):
        raise ConfigError(f"model {name!r}: seed must be a nonnegative "
                          f"integer, got {seed!r}")
    d = params.pop("d", 2)
    if not (isinstance(d, int) or math.isfinite(d)) or d != int(d) or d < 2:
        raise ConfigError(f"model {name!r}: param d must be an integer >= 2, "
                          f"got {d!r}")
    d = int(d)
    # the complex d^2 x d^2 term arrays the model holds, checked before the
    # first is built (a uniform chain's at most three), and two more that
    # building one or its Hermiticity check (`NnHamiltonian`) takes
    held = min(3, n - 1) if name in _UNIFORM else n - 1
    check_size(16 * (held + 2) * d**4, _physical_memory(),
               f"bytes of {held} terms of dimension {d}^2 and two to build "
               f"or check one", "physical memory")
    zz = np.kron(Z, Z)

    if name == "zz_chain":
        terms = _uniform_terms(zz, n)
    elif name == "transverse_ising":
        terms = _uniform_terms(zz, n, float(params.pop("g", 1.0)) * X)
    elif name == "heisenberg":
        terms = _uniform_terms(np.kron(X, X) + np.kron(Y, Y) + zz, n)
    elif name == "random_hermitian":
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(n - 1):
            m = rng.standard_normal((d * d, d * d)) \
                + 1j * rng.standard_normal((d * d, d * d))
            m += m.conj().T     # (m + m^dagger) / 2, in place
            m /= 2
            terms.append(m)
    elif name == "trap_model":
        terms = _uniform_terms(2.0 * (np.eye(4, dtype=complex) - zz), n,
                               (I2 + Z) / 2)
    elif name == "diagonal_commuting":
        rng = np.random.default_rng(seed)
        terms = [np.diag(rng.standard_normal(d * d)).astype(complex)
                 for _ in range(n - 1)]
    elif name == "rotated_classical":
        rng = np.random.default_rng(seed)
        diags = [rng.standard_normal(d * d) for _ in range(n - 1)]
        us = [_random_unitary(rng, d) for _ in range(n)]
        terms = [_conjugated_diagonal(np.kron(us[j], us[j + 1]), v)
                 for j, v in enumerate(diags)]
    else:
        raise ConfigError(f"unknown model name {name!r}")
    if params:
        raise ConfigError(f"unknown params for {name!r}: {sorted(params)}")
    return NnHamiltonian(n=n, dims=[d] * n, terms=terms, s=1)


def grouping_count(d: int, D: int) -> int:
    """s = max(1, smallest integer with d^s >= D)."""
    if d < 2 and D > 1:
        raise ValueError(f"site dimension {d} never reaches D={D}")
    s = 1
    while d**s < D:
        s += 1
    return s


def _embed(term, left_dim: int, right_dim: int) -> np.ndarray:
    return np.kron(np.kron(np.eye(left_dim, dtype=complex), term),
                   np.eye(right_dim, dtype=complex))


def _run_operator(terms, dims) -> np.ndarray:
    """The terms of consecutive bonds, term i on sites (i, i+1) of sites
    with dimensions dims, as one operator on all of them: their sum, each
    embedded with identities, added in order."""
    k = math.prod(dims)
    out = np.zeros((k, k), dtype=complex)
    for i, t in enumerate(terms):
        out += _embed(t, math.prod(dims[:i]), math.prod(dims[i + 2:]))
    return out


def group_boundaries(h: NnHamiltonian, D: int) -> NnHamiltonian:
    """Merge s sites at each chain end into single boundary sites of
    dimension d_end = d^s, embedding the absorbed terms with identities.
    The energy spectrum is preserved exactly.  At s = 1 nothing merges and
    h itself is returned, already validated; the middle terms are h's own
    arrays."""
    d = h.dims[0]
    if any(dim != d for dim in h.dims):
        raise ConfigError("grouping expects a uniform ungrouped chain")
    s = grouping_count(d, D)
    if h.n - 2 * s < 1:
        raise ConfigError(
            f"chain of {h.n} sites too short for boundary grouping s={s}"
        )
    if s == 1:
        return h
    d_end = d**s
    n_new = h.n - 2 * s + 2
    dims = [d_end] + [d] * (n_new - 2) + [d_end]
    # New first term on (block, site s+1): old terms i=1..s as one operator;
    # new last term on (site n-s, block): old terms i=n-s..n-1.
    first = _run_operator(h.terms[:s], [d] * (s + 1))
    last = _run_operator(h.terms[h.n - 1 - s:], [d] * (s + 1))
    middle = h.terms[s:h.n - 1 - s]
    return NnHamiltonian(n=n_new, dims=dims, terms=[first] + middle + [last],
                         s=s)


def is_commuting(h: NnHamiltonian) -> bool:
    """True iff every adjacent pair of terms commutes on the 3-site space,
    to a commutator norm of COMMUTATOR_TOL (a non-finite commutator fails),
    checked once per distinct (left term, right term, site dims) triple."""
    ids = list(map(id, h.terms))
    triples = zip(ids, ids[1:], h.dims, h.dims[1:], h.dims[2:])
    for j in dict(zip(triples, range(h.n - 2))).values():
        a = np.kron(h.terms[j], np.eye(h.dims[j + 2], dtype=complex))
        b = np.kron(np.eye(h.dims[j], dtype=complex), h.terms[j + 1])
        c = a @ b - b @ a
        if not np.isfinite(c).all() or np.linalg.norm(c, 2) > COMMUTATOR_TOL:
            return False
    return True


def _apply_block(op: np.ndarray, v: np.ndarray, left: int) -> np.ndarray:
    """op applied to the k = len(op) states after the first `left` of v
    (1-D or 2-D, any layout), as a (left, k, rest) view: one matrix product
    with v viewed as (k, left * rest)."""
    k = len(op)
    x = v.reshape(left, k, -1).transpose(1, 0, 2).reshape(k, -1)
    return (op @ x).reshape(k, left, -1).transpose(1, 0, 2)


def apply_term(term: np.ndarray, v: np.ndarray, dims, site: int) -> np.ndarray:
    """The two-site operator `term` on (site, site+1), 0-based, applied to
    the state vector v over per-site dimensions dims, without forming the
    identity-padded matrix; a C-ordered array of v's shape."""
    return _apply_block(term, v, math.prod(dims[:site])).reshape(v.shape)


def apply_hamiltonian(h: NnHamiltonian, v: np.ndarray) -> np.ndarray:
    """H v, a complex C-ordered array of v's shape, as the sum over h.runs
    of one run operator applied each."""
    out = np.zeros(v.shape, dtype=complex)
    for left, op in h.runs:
        part = out.reshape(left, len(op), -1)   # a view of out
        part += _apply_block(op, v, left)
    return out


def dense_dim(h: NnHamiltonian) -> int:
    """The Hilbert dimension of h, for code that holds whole state vectors
    or matrices over it; raises SizeGuardError above DENSE_DIM_GUARD."""
    return check_size(h.total_dim, DENSE_DIM_GUARD, "Hilbert dimension",
                      "guard")
