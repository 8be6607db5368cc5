"""Exception types shared across the package."""


class TreeError(ValueError):
    """A paragraph tree is structurally invalid or a slice is out of range."""


class ProtocolError(RuntimeError):
    """An operation was invoked in a state its contract forbids."""


class ScriptMismatch(RuntimeError):
    """A decode context diverged from the script that should have produced it."""


class DecodeInvariantError(RuntimeError):
    """A finished decode broke an end-of-decode invariant (engine.check_decode)."""


class SimulationError(RuntimeError):
    """A simulation config admits no valid schedule.

    Its subclass SimulationInvariantError marks a run that broke an
    end-of-run invariant instead.
    """


class SimulationInvariantError(SimulationError):
    """A simulation ended with cache blocks still held or requests not completed."""
