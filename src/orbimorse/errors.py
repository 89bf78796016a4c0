"""Exception types shared across the package.

Every error raised by the public API derives from OrbimorseError, so callers
(and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class OrbimorseError(Exception):
    """Base class for all package errors."""


# -- group construction ------------------------------------------------------

class MalformedPermutation(OrbimorseError):
    """Input is not a 0-based image array, or degrees disagree."""


class ClosureExceedsCap(OrbimorseError):
    """Generated group grew past the element cap."""


class UnknownPoint(OrbimorseError):
    """Point is not in the acted-on set."""


class ActionNotWellDefined(OrbimorseError):
    """Generator images do not extend to an action of the group."""


# -- chain complexes ---------------------------------------------------------

class ShapeMismatch(OrbimorseError):
    """Matrix dimensions are inconsistent with the grading."""


class NotAComplex(OrbimorseError):
    """Boundary composed with boundary is nonzero."""


# -- equivariant systems -----------------------------------------------------

class SystemNotValid(OrbimorseError):
    """Operation requires a system that passes validation."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"system fails validation: {report.summary()}")


class CancellationFailure(OrbimorseError):
    """Boundary of an orbit sum has a nonzero coefficient at a
    non-orientable critical point; signals inconsistent input data."""


class InvarianceFailure(OrbimorseError):
    """Boundary of an orbit sum is not constant on some orbit;
    signals inconsistent input data."""


class GaugeFailure(OrbimorseError):
    """No consistent orientation gauge exists on an orbit classified
    orientable; signals inconsistent input data."""


class SignNotOrbitConstant(OrbimorseError):
    """Flow signs differ within one flow orbit after gauge
    normalization; signals inconsistent input data."""


# -- intrinsic systems -------------------------------------------------------

class MalformedSystem(OrbimorseError):
    """Structural defect in system data (dangling labels, bad index
    step, flow touching a non-orientable point)."""


class DivisibilityViolation(OrbimorseError):
    """A flow isotropy order does not divide an endpoint isotropy order."""


class IndexOutOfRange(OrbimorseError):
    """Critical index exceeds the ambient dimension."""


# -- simplicial complexes ----------------------------------------------------

class NotASubcomplex(OrbimorseError):
    """Claimed subcomplex contains simplices outside the complex."""


class NotRegular(OrbimorseError):
    """Group action is not regular enough for a simplicial quotient."""


class ActionNotSimplicial(OrbimorseError):
    """Vertex action does not map simplices to simplices."""


# -- instance files ----------------------------------------------------------

class ParseError(OrbimorseError):
    """Instance file is syntactically or semantically malformed."""
