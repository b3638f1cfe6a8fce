"""Package-wide error types, and the Fock oracle's default dimension cap,
whose exhaustion raises TruncationError.

Nothing here imports scipy, so the CLI can take its ``--dim-cap`` default
for a run that never reaches the Fock oracle.
"""

# the largest dimension the oracle's doubling may reach: its only setting
DIM_CAP = 4096


class TruncationError(RuntimeError):
    """A Fock-space computation underflowed, or failed to converge under its cap."""


class IncommensurateError(ValueError):
    """Harmonic content is not commensurate with the requested base frequency."""
