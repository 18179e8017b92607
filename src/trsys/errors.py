"""Exception types shared across the toolkit."""


class TrsysError(Exception):
    """Base class for all toolkit errors."""


class CycleDetected(TrsysError):
    """The generating relations contain a directed cycle."""


class NotBounded(TrsysError):
    """The order has no unique bottom or top element."""


class NotALattice(TrsysError):
    """Some pair of elements lacks a unique meet or join."""


class NotGraded(TrsysError):
    """The lattice admits no rank function compatible with its covers."""


class NotModular(TrsysError):
    """The lattice fails the modular law."""


class NotPrime(TrsysError):
    """The argument is not a prime number."""


class InvalidInput(TrsysError):
    """Input read from outside the program is missing or malformed."""


class SizeLimit(TrsysError):
    """A size guard was exceeded; pass a larger guard to override."""


class AmbientMismatch(TrsysError):
    """The operands live on different ambient lattices."""


class InvalidTransferSystem(TrsysError):
    """A relation violates a transfer-system axiom.

    Carries the violation report (axiom name plus witness elements).
    """

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class NotSaturated(TrsysError):
    """The transfer system fails the two-out-of-three condition."""


class InvalidCover(TrsysError):
    """An edge set violates a saturated-cover rule."""

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class NotMonotone(TrsysError):
    """The map is not order-preserving."""


class NotComposable(TrsysError):
    """The maps do not compose (target/source mismatch)."""


class InvariantViolation(TrsysError):
    """An internal invariant failed; this always signals a bug."""
