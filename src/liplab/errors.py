"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Rejected input or parameter (bad shape, non-finite entry, out-of-range value)."""


class EvaluationError(ValueError):
    """A function produced a non-finite value where a finite one was required."""


class ConvergenceError(RuntimeError):
    """A decomposition failed to meet its residual contract."""


class PartitionInfeasibleError(RuntimeError):
    """Interval partition cannot satisfy its weight cap; heavy-atom masking was skipped."""


class SoundnessError(RuntimeError):
    """A computed result broke the bound that vouches for it (an implementation bug).

    Carries the observed value and the allowed bound so reports can show both.
    """

    def __init__(self, message: str, observed: float, allowed: float):
        super().__init__(f"{message}: observed {observed!r} exceeds allowed {allowed!r}")
        self.observed = observed
        self.allowed = allowed


class CertificateUnsoundError(SoundnessError):
    """A decay certificate failed verification."""
