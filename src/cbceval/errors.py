"""Exception types shared across the package, and how their messages show
outside input."""


def _cut(text: str) -> str:
    """Outside text as echoed in an error: whole up to 40 characters, else
    its first 40 characters and its length."""
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _shown(value) -> str:
    """A rejected value as quoted in an error: its repr, cut to 40 characters."""
    return _cut(repr(value))


class CBCError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(CBCError):
    """Malformed dataset or constraint-spec text.

    ``locator`` pinpoints the offending row/column or JSON field so callers
    can surface actionable messages.
    """

    def __init__(self, message: str, locator: str | None = None):
        self.locator = locator
        super().__init__(f"{locator}: {message}" if locator else message)


class DomainError(CBCError):
    """An argument violates an operation's documented domain."""


class CapacityError(CBCError):
    """Input exceeds the size bounds of an exhaustive-search oracle."""


class AssignmentDeadlockError(CBCError):
    """Greedy constrained assignment could not place a must-link component.

    Distinct from a proven deadlock: the greedy component order found no
    admissible cluster, but an exhaustive search may still find a valid
    assignment at small scale (see the oracle module).
    """

    def __init__(self, message: str, component: tuple[str, ...] = ()):
        self.component = tuple(component)
        super().__init__(message)
