"""Package-wide error types, and the truncation policy whose exhaustion
raises TruncationError.

Nothing here imports scipy, so the CLI can build a policy for a run that
never reaches the Fock oracle.
"""

from dataclasses import dataclass


class TruncationError(RuntimeError):
    """A Fock-space computation failed to converge under its dimension cap."""


class SingularPointError(ValueError):
    """A ratio was requested at a point where its denominator vanishes."""


class IncommensurateError(ValueError):
    """Harmonic content is not commensurate with the requested base frequency."""


@dataclass(frozen=True)
class TruncationPolicy:
    """Dimension-doubling policy: start at a state-derived dimension, double
    until the target moves by less than tol, stop at dim_cap."""

    tol: float = 1e-10
    dim_cap: int = 4096
