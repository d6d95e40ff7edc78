"""Exception types shared across the package."""


class WcolabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WcolabError):
    """Evaluation or construction left the open unit disk.

    Raised when a point lies outside the disk, when a composition inner
    function is not a self-map of the disk, or when a reciprocal is taken
    of a function with a zero in the disk.
    """


class BranchError(WcolabError):
    """A principal-branch power hit the branch cut or the origin."""


class ParameterError(WcolabError):
    """A space or grid parameter is outside its admissible range."""


class ParseError(WcolabError):
    """A function or space expression string could not be parsed.

    Carries the character position of the failure when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ContourZero(WcolabError):
    """A function vanished on, or was not finite on, a sampling contour."""


class NonVanishingViolation(WcolabError):
    """An inverse symbol requires a reciprocal but the weight has a zero."""


class UnsupportedSpace(WcolabError):
    """The requested decomposition or check does not exist for this family."""


class DegenerateInput(WcolabError):
    """An input function has numerically zero norm where a ratio is needed."""


class SingularMatrix(WcolabError):
    """A section matrix is singular to working precision."""
