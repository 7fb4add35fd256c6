"""Exceptions shared across the package.

All domain errors derive from QtkError so callers (in particular the CLI) can
distinguish bad input from genuine bugs.
"""


class QtkError(Exception):
    """Base class for all errors raised by qtk."""


class MalformedInputError(QtkError):
    """Structurally invalid data: bad dimensions, out-of-range indices, bad files."""


class SingularMatrixError(QtkError):
    """A square system has no unique solution."""


class DegreeMismatchError(QtkError):
    """An element does not have the degree an operation requires."""


class NotAConeError(QtkError):
    """An index set is not a maximal cone of the fan."""


class NotAFaceError(QtkError):
    """An index set is not a face of the fan."""


class PairMismatchError(QtkError):
    """Two objects built over different characteristic pairs were combined."""


class OddClassesPresentError(QtkError):
    """A construction restricted to even gradings received odd-degree classes."""
