"""Exception types shared across the package.

Every failure an input can cause derives from HydrostateError, which the CLI
reports as a JSON error with exit status 1. Each invariant of a value a file
can carry is checked by one piece of code, its type or the one function that
owns it (`estimator.meter_column` for a meter's target, `fuzzy.check_ranges`
for normalization ranges, `network.check_node` and `network.check_pipe` for
the entry a network's array pass flags, `ClassifierModel.check_cell` for a
cell in a model, `network.Forest` for connectivity), and a violation is a
ValidationError located by a JSON pointer, a wrong shape included.
Misused library arguments that no file carries raise a plain ValueError
instead: a wrong shape of `delta_y`, `IntervalState.halfwidth` or the
demands of `Network.with_demands`, `samples < 1`, an `omega` outside
(0, 1.5], an `energy_sigma` that breaks `estimator.check_sigma`'s rule, a
half-width on an energy row of `delta_y`, and a tolerance not > 0 or a
negative `max_iter`, checked once in `linearization._lockstep`.
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


class NonConvergence(HydrostateError):
    """Iteration budget exhausted before meeting the tolerance."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"no convergence after {iterations} iterations (residual {residual:.3e})"
        )


class SingularSystem(HydrostateError):
    """The solver could not take a Newton step: the loop matrix of the
    Newton matrix did not factor, or the step is not finite."""


class RankDeficient(HydrostateError):
    """The estimator or the bound could not solve its weighted system: the
    loop matrix of the Newton matrix did not factor, the telemetry update
    is singular, or an estimator step is not finite."""


class PatternOutOfRange(HydrostateError):
    """A training pattern has coordinates outside the unit cube."""


class PatternTooWide(HydrostateError):
    """A pattern interval is wider than the maximum cell size theta."""


class EmptyModel(HydrostateError):
    """Classification requested on a model with no cells."""

