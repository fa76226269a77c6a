"""Net-based dynamic programming for MPS ground states of 1D chains.

Modules: mps (canonical form and energy evaluation), hamiltonian (model
catalog, boundary grouping and matrix-free application), epsnet (grid nets
of canonical tensors), dp (the stitched dynamic program and its
certificates), oracle (ground truth), commuting (exact eigenstate
refinement), errors (exception types and exit codes), cli (runner).
"""

from .dp import SolveResult, solve
from .epsnet import build_end_net, build_pair_net, orthonormal_family
from .hamiltonian import NnHamiltonian, build_model, group_boundaries
from .mps import CanonicalMps, canonicalize, expectation_full, to_dense
from .oracle import exact_ground

__all__ = [
    "SolveResult", "solve",
    "build_end_net", "build_pair_net", "orthonormal_family",
    "NnHamiltonian", "build_model", "group_boundaries",
    "CanonicalMps", "canonicalize", "expectation_full", "to_dense",
    "exact_ground",
]

__version__ = "0.1.0"
