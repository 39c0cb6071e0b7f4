"""Exception types shared across the package.

Every failure an input can cause derives from HydrostateError, which the CLI
reports as a JSON error with exit status 1. Each invariant of a value a file
can carry is checked once, by its type, and a violation is a ValidationError
located by a JSON pointer. Misused library arguments (a wrong array shape,
`samples < 1`) raise a plain ValueError instead.
"""


class HydrostateError(Exception):
    """Base class for all domain errors."""


class ParseError(HydrostateError):
    """Input text is not well-formed (e.g. invalid JSON)."""


class SchemaError(HydrostateError):
    """A document violates its schema at a specific location.

    `path` is a JSON-pointer-style string naming the offending field.
    """

    def __init__(self, path: str, expected: str, found: str):
        self.path = path
        self.expected = expected
        self.found = found
        super().__init__(f"{path}: expected {expected}, found {found}")


class ValidationError(SchemaError, ValueError):
    """A structurally well-formed document violates a domain invariant.

    Subclasses SchemaError so decoders report every rejection with a
    located path, whether the problem is shape-level or semantic, and
    ValueError, since the same check guards a library constructor.
    """

    def within(self, prefix: str) -> "ValidationError":
        """The same violation, located inside the entity at `prefix`."""
        return ValidationError(prefix + self.path, self.expected, self.found)


class UnknownTarget(HydrostateError):
    """A measurement names a pipe or node that does not exist."""

    def __init__(self, target: str):
        self.target = target
        super().__init__(f"unknown measurement target {target!r}")


class NonConvergence(HydrostateError):
    """Iteration budget exhausted before meeting the tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class SingularSystem(HydrostateError):
    """The linearized block system is rank-deficient."""


class RankDeficient(HydrostateError):
    """The weighted normal equations are not positive definite."""


class PatternOutOfRange(HydrostateError):
    """A training pattern has coordinates outside the unit cube."""


class PatternTooWide(HydrostateError):
    """A pattern interval is wider than the maximum cell size theta."""


class EmptyModel(HydrostateError):
    """Classification requested on a model with no cells."""


class DegenerateRange(HydrostateError):
    """A normalization range has hi <= lo."""

    def __init__(self, dimension: int):
        self.dimension = dimension
        super().__init__(f"degenerate normalization range in dimension {dimension}")
