"""Exception types shared across the package."""


class AnyonError(Exception):
    """Base class for all errors raised by anyonbraid."""


class UnknownChargeError(AnyonError):
    """A charge label or index does not belong to the model."""


class ModelError(AnyonError):
    """Model data is structurally invalid (shapes, duals, vacuum, ...)."""


class ModelFileError(ModelError):
    """A declarative model file could not be parsed or failed validation."""


class BasisMismatch(AnyonError):
    """Two states do not share the same fusion-tree basis."""


class InvalidPosition(AnyonError):
    """A leaf or reassociation position is out of range for the state."""


class RegisterTooLarge(AnyonError):
    """A register has more leaves or basis states than the simulator accepts."""


class ZeroProbabilityOutcome(AnyonError):
    """A projection was requested onto an outcome of (numerically) zero probability."""


class MaxAttemptsExceeded(AnyonError):
    """A forced measurement did not reach the desired outcome within the attempt budget."""


class NotPhaseEquivalent(AnyonError):
    """Two states do not agree up to a global phase."""


class ProtocolError(AnyonError):
    """A protocol precondition is violated (e.g. recovery pair not in the vacuum channel)."""


class UnsupportedCharge(AnyonError):
    """The array layout does not support the requested computational charge."""


class ScheduleError(AnyonError):
    """A measurement schedule is malformed or inconsistent with its layout."""
