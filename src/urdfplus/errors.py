"""Exception hierarchy shared by all urdfplus modules."""

from __future__ import annotations


class UrdfPlusError(Exception):
    """Base class for every error raised by this package."""


class NonUnitAxisError(UrdfPlusError):
    """A joint axis deviates from unit norm beyond tolerance."""


class DimensionMismatchError(UrdfPlusError):
    """A vector or matrix has the wrong shape for the requested operation."""


class InvalidModelError(UrdfPlusError):
    """A structurally invalid model was passed where a valid one is required."""

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class DegenerateLoopError(UrdfPlusError):
    """Both subchains of a loop joint are empty (predecessor == successor == NCA)."""


class InternalInconsistencyError(UrdfPlusError):
    """An invariant that must hold by construction was violated; indicates a bug."""


class IncompatibleCouplingError(UrdfPlusError):
    """`coupling_row` was given the number of a loop joint, not of a coupling."""


class SingularDependentBlockError(UrdfPlusError):
    """The dependent-coordinate block of a constraint Jacobian is numerically singular."""


class CountMismatchError(UrdfPlusError):
    """The declared independent-coordinate count disagrees with the constraint ranks."""

    def __init__(self, expected: int, declared: int):
        super().__init__(
            f"independent coordinate count mismatch: expected {expected}, "
            f"declared {declared}"
        )
        self.expected = expected
        self.declared = declared


class ConfigurationError(UrdfPlusError):
    """A configuration (a file's lines or a vector q), a rank tolerance or a
    rank view's matrix entries (each must be a finite real number) could not
    be interpreted, or a finite configuration overflows."""


class AntipodalRotationError(UrdfPlusError):
    """A loop closure sits within tolerance of a half-turn, where the
    rotation log has no usable derivative."""


class UrdfXmlError(UrdfPlusError):
    """Base class for XML-level failures; always carries a source location."""

    def __init__(self, message: str, line: int, column: int, path: str = ""):
        location = f"line {line}, column {column}"
        if path:
            location += f" ({path})"
        super().__init__(f"{message} [{location}]")
        self.message = message
        self.line = line
        self.column = column
        self.path = path


class XmlSyntaxError(UrdfXmlError):
    """The input is not well-formed XML."""


class UnknownElementError(UrdfXmlError):
    """An element not defined by the format appeared where it is not preserved."""


class MissingAttributeError(UrdfXmlError):
    """A required attribute or child element is absent."""


class InvalidNumberError(UrdfXmlError):
    """A numeric attribute failed to parse or is not finite."""


class UnknownJointTypeError(UrdfXmlError):
    """The joint type is not supported (includes the explicitly rejected planar)."""


class UnsupportedMimicOffsetError(UrdfXmlError):
    """A mimic element carries a nonzero offset, which has no coupling equivalent."""
