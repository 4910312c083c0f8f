"""Exception types for the toolkit.

Everything raised on purpose derives from ToolkitError, so callers (and the
CLI) can tell domain failures apart from genuine bugs.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ClosureViolation(ToolkitError):
    """A table entry is not a valid element index."""


class NoIdentity(ToolkitError):
    """The table has no two-sided identity element."""


class WrongIdentity(ToolkitError):
    """The claimed identity index is not the table's actual identity."""


class MissingInverse(ToolkitError):
    """Some element has no two-sided inverse."""


class NonAssociative(ToolkitError):
    """The table fails associativity; the message names a witness triple."""


class DuplicateLabel(ToolkitError):
    """Two elements share a label."""


class IndexOutOfRange(ToolkitError):
    """An element index is outside the group's range."""


class UnknownLabel(ToolkitError):
    """A label names no element of the group."""


class UnknownKind(ToolkitError):
    """An unrecognized group, variant, or map name was requested."""


class GroupTooLarge(ToolkitError):
    """The requested computation exceeds the supported group size."""


class WorkLimitExceeded(ToolkitError):
    """A requested amount of work is above a fixed bound; checked before any of it runs."""


class LengthMismatch(ToolkitError):
    """An image sequence does not match the source group's order."""


class SourceTargetMismatch(ToolkitError):
    """Two maps cannot be composed because their endpoints disagree."""


class NotBijective(ToolkitError):
    """The operation requires a bijective map."""


class NotAutomorphism(ToolkitError):
    """The operation requires a bijective self-homomorphism."""


class KindMismatch(ToolkitError):
    """A map's recorded kind contradicts the laws its images satisfy."""


class InvalidAssignment(ToolkitError):
    """A role assignment is malformed: wrong roles, bad index, or repeats."""


class ConflictingPairs(ToolkitError):
    """Two roles share a value but are sent to different targets."""


class UnsatisfiableConstraint(ToolkitError):
    """Pinned roles cannot be extended to any legal assignment."""


class NonCommutativeGroup(ToolkitError):
    """The ratio interpretation is only defined over commutative groups."""


class InconsistentRule(ToolkitError):
    """A formula's right side is not a substitution instance of its left."""


class ParseError(ToolkitError):
    """Malformed input text; carries position information when available."""

    def __init__(self, message, position=None, line=None, column=None, field=None):
        self.position = position
        self.line = line
        self.column = column
        self.field = field
        where = []
        if field is not None:
            where.append(f"field {field}")
        if line is not None:
            where.append(f"line {line}, column {column}")
        elif position is not None:
            where.append(f"position {position}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)
