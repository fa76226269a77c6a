"""Exception types shared across the package.

The CLI maps these onto exit codes: infeasibility guards (net caps,
enumeration explosion, dense-size guards) exit with 3, numerical failures
(empty nets or DP lists, no admissible enumerated sequence, infeasible
eigenspace selection, a failed eigensolver or numpy LinAlgError, an energy
that is not real, a result that is not finite) exit with 4.
"""


class ShapeMismatchError(ValueError):
    """Array shapes that must agree (state, dims, terms, tensors) do not."""


class SizeGuardError(RuntimeError):
    """A dense computation would exceed its configured size guard."""


class NetSizeError(RuntimeError):
    """Grid candidate enumeration would exceed the candidate cap."""


class EmptyNetError(RuntimeError):
    """Every net candidate was removed by a filter step."""


class SchmidtRankError(RuntimeError):
    """A cut of the input state exceeds the bond-dimension cap."""


class NoAdmissibleTransitionError(RuntimeError):
    """A DP site list is empty: no predecessor satisfies the stitching bound."""


class NoAdmissibleSequenceError(RuntimeError):
    """Brute-force enumeration found no sequence satisfying all stitching bounds."""


class NoFeasibleEigenspaceError(RuntimeError):
    """No eigenspace passes the weight threshold of the projection lemma."""


class ConvergenceError(RuntimeError):
    """An iterative eigensolver did not reach its residual tolerance."""


class ComplexEnergyError(ValueError):
    """An energy came out with a non-negligible imaginary part."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""
