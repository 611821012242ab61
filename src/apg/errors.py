"""Exception types shared across the package."""

from __future__ import annotations


class ApgError(Exception):
    """Base class for all package-specific errors."""


class EmptyEdgeError(ApgError):
    """An edge with no vertices was supplied."""


class UnknownVertexError(ApgError):
    """An edge refers to a vertex that was never declared."""


class DuplicateVertexError(ApgError):
    """The same vertex identifier was declared twice."""


class AlreadyWonError(ApgError):
    """An edge update produced an empty edge: its owner has already filled it.

    This flags a terminal position, not a malformed input.  ``player`` is the
    owner of the filled edge.
    """

    def __init__(self, player):
        self.player = player
        super().__init__(f"player {player} has already filled an edge")


class TooLargeError(ApgError):
    """Input exceeds a configured brute-force enumeration bound."""


class KTooLargeError(ApgError):
    """Requested gadget size exceeds the binomial blow-up guard."""


class EdgeTooLargeError(ApgError):
    """An edge exceeds the size bound required by the operation."""


class ResourceLimitError(ApgError):
    """The solver exceeded its node budget or searched deeper than the
    recursion limit; the answer is unknown, not a value."""


class IllegalOutcomeError(ApgError):
    """A pair of per-start results does not form a legal outcome.

    Raised by the outcome constructor; reaching it from the solver signals a
    solver bug.
    """


class InvalidPathError(ApgError):
    """An alternating-path reduction would delete vertices still carried by a
    surviving partial edge; signals a classification bug."""


class BadClauseSizeError(ApgError):
    """A CNF clause does not have exactly three literal slots."""


class OddVarCountError(ApgError):
    """A quantified formula needs an even number of variables."""


class ScriptViolationError(ApgError):
    """A scripted forced move was not actually forced at the stated step."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"step {step}: {message}")


class ApgParseError(ApgError):
    """Malformed text input; carries file and line for diagnostics."""

    def __init__(self, source: str, line: int, message: str):
        self.source = source
        self.line = line
        super().__init__(f"{source}:{line}: {message}")
