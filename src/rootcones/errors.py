"""Exception types shared across the package."""


class RootconesError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(RootconesError):
    """Operands have incompatible shapes or ambient dimensions."""


class SingularMatrix(RootconesError):
    """A matrix that must be invertible is rank deficient."""


class InvalidRank(RootconesError):
    """A root-system type was requested with an unsupported rank."""


class UnknownRoot(RootconesError):
    """A simple-root index is outside the system."""


class SubsetViolation(RootconesError):
    """A subset argument breaks a required inclusion."""


class NotIrreducible(RootconesError):
    """An operation defined for irreducible systems got a reducible one."""


class NotProportional(RootconesError):
    """Two vectors expected to be positively proportional are not."""


class PreconditionViolated(RootconesError):
    """A verified statement was invoked outside its hypotheses."""


class CertificateFailure(RootconesError):
    """A certificate that must exist could not be assembled exactly."""


class InfeasibleSelection(RootconesError):
    """No admissible trace exists for the requested root selection."""


class DivergenceFailure(RootconesError):
    """A selected root failed to grow along a generated trace."""


class InvariantViolation(RootconesError):
    """An exact invariant the computation relies on failed; internal error."""


class BranchMismatch(RootconesError):
    """Neither branch of the induction replay applies; internal error."""
