"""Exception types shared across the toolkit.

Every error raised on a contract violation derives from MixQuantError so
callers (and the CLI) can distinguish data/usage problems from genuine bugs.
"""


class MixQuantError(Exception):
    """Base class for all toolkit errors."""


# graph / IR
class CycleDetected(MixQuantError):
    pass


class UnknownNode(MixQuantError):
    pass


class ShapeMismatch(MixQuantError):
    pass


class UnresolvedShape(MixQuantError):
    pass


class UnsupportedKind(MixQuantError):
    pass


# serialization
class FormatVersionMismatch(MixQuantError):
    pass


class CorruptBlob(MixQuantError):
    pass


class UnknownArch(MixQuantError):
    pass


class InvalidAttribute(MixQuantError):
    """A manifest node's attribute, input count or weight rank is not one the
    executor can run."""


# execution
class MissingQuantParams(MixQuantError):
    pass


class NonPositiveVariance(MixQuantError):
    pass


# calibration
class EmptyCalibrationSet(MixQuantError):
    pass


class EmptyProfile(MixQuantError):
    pass


class NonFiniteValue(MixQuantError):
    """An image or an activation holds NaN or an infinity."""


# quantization transform
class UnknownNodeInList(MixQuantError):
    pass


class MissingCalibration(MixQuantError):
    pass


class AlreadyQuantized(MixQuantError):
    """The transform was given a graph that already holds int8 nodes or
    Quantize/Dequantize adapters."""


class ProvenanceMismatch(MixQuantError):
    """An artifact records the digest of another model or calibration file."""


# metrics / sensitivity
class KeyMismatch(MixQuantError):
    pass


class NonMonotonicIndices(MixQuantError):
    pass


class MissingLabels(MixQuantError):
    pass


class EmptyImageBatch(MixQuantError):
    pass


# accounting
class IncompleteConfig(MixQuantError):
    pass


class InvariantViolation(MixQuantError):
    """An internal consistency check failed; indicates a bug, not bad input."""
