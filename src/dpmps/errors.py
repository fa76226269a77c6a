"""Exception types and the failure contract of the command line.

Every exception class here derives from the base type of its exit code,
and `cli.main` catches the base types; the classes name the causes.
A run exits 0 on success, and a run that fails writes no output file.

- 2, `ConfigError`: an invalid config or model; also a config file that
  cannot be read, is not UTF-8 or cannot be decoded as JSON, or an
  output path that cannot be written.
- 3, `InfeasibleError`: an instance too large to run: a size guard
  (`check_size`, before the allocation it guards) or the Schmidt rank cap.
- 4, `NumericalError`: a numerical failure; also numpy's `LinAlgError` and
  a result value that is not finite (documents are strict JSON).
"""

import math


class ConfigError(ValueError):
    """Invalid run configuration or model; the message names the field."""


class InfeasibleError(RuntimeError):
    """The instance is too large to run (exit code 3)."""


class NumericalError(RuntimeError):
    """A numerical failure (exit code 4)."""


class ShapeMismatchError(ConfigError):
    """Array shapes that must agree (state, dims, terms, tensors) do not."""


class SizeGuardError(InfeasibleError):
    """A computation would exceed its size guard or physical memory."""


class NetSizeError(InfeasibleError):
    """Grid candidate enumeration would exceed the candidate cap."""


class SchmidtRankError(InfeasibleError):
    """A cut of the input state exceeds the bond-dimension cap."""


class EmptyNetError(NumericalError):
    """Every net candidate was removed by a filter step."""


class NoAdmissibleTransitionError(NumericalError):
    """A DP site list is empty: no predecessor satisfies the stitching bound."""


class NoAdmissibleSequenceError(NumericalError):
    """Brute-force enumeration found no sequence satisfying all stitching bounds."""


class NoFeasibleEigenspaceError(NumericalError):
    """No eigenspace passes the weight threshold of the projection lemma."""


class ConvergenceError(NumericalError):
    """An iterative eigensolver did not reach its residual tolerance."""


class ComplexEnergyError(NumericalError):
    """An energy came out with a non-negligible imaginary part."""


def check_size(count, limit, what: str, limit_name: str,
               error: type = SizeGuardError):
    """Return count, or raise `error` (SizeGuardError or NetSizeError) when
    it exceeds limit; None (limit unknown) passes.  Both print as powers of
    10, so a count of any size prints."""
    if limit is not None and count > limit:
        c, lim = (f"10^{math.log10(x):.2f}" if x > 0 else str(x)
                  for x in (count, limit))
        raise error(f"{what}: {c}, above the {limit_name} of {lim}")
    return count
