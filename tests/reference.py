"""Reference checks on MPS states that only the tests use: canonical-form
residuals, the windowed energy of a whole chain, and a phase-insensitive
alignment of dense states."""

from dataclasses import dataclass, field

import numpy as np

from dpmps.errors import ShapeMismatchError
from dpmps.mps import CanonicalMps, left_gram_offdiag, local_energy


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


def check_canonical(m: CanonicalMps, tol: float = 1e-10) -> CanonicalReport:
    """Evaluate left/right/boundary/normalization residuals.

    The left-canonical residual of a (lambda, B) pair is the largest
    off-diagonal Gram entry of the (lambda B) columns.
    """
    rep = CanonicalReport(tol=tol)
    for g in (m.gamma_left, m.gamma_right):
        gram = g.conj() @ g.T
        rep.boundary.append(float(np.abs(gram - np.eye(g.shape[0])).max()))
    lams = m.derived_lambdas()
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
    lams = [np.ones(1)] + m.derived_lambdas()
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
