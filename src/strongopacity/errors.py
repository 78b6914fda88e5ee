"""Exception types shared across the library."""


class OpacityError(Exception):
    """Base class for all library errors."""


class InvalidEvent(OpacityError):
    """An event name is unknown to (or duplicated in) the alphabet at hand."""


class InvalidState(OpacityError):
    """A state identifier is not a state of the automaton at hand."""


class UncontrollableCut(OpacityError):
    """A disablement request names a transition labeled by an uncontrollable event."""


class EmptyInitial(OpacityError):
    """Subset construction was asked to start from an empty initial-state set."""


class EmptyEstimate(OpacityError):
    """A multi-initial observer seed is empty."""


class AlphabetMismatch(OpacityError):
    """Product operands disagree on the observable alphabet."""


class InternalInvariantError(OpacityError):
    """A construction invariant that should hold by proof was violated."""


class OracleUnsound(OpacityError):
    """The brute-force oracle cannot certify exhaustiveness for the instance/cap."""


class TooLarge(OpacityError):
    """Exhaustive enforcement search refused: too many controllable transitions."""


class ParseError(OpacityError):
    """Model document is not valid. Carries the 1-based line/column of a
    syntax error; 0/0 for a structural error, whose message names the entry."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})" if line else message)
        self.line = line
        self.col = col


class UnknownReference(OpacityError):
    """Model document references an undeclared state or event."""

    def __init__(self, name: str, kind: str = "name"):
        super().__init__(f"undeclared {kind}: {name!r}")
        self.name = name


class EmptyModel(OpacityError):
    """Model document declares no states."""


class IoError(OpacityError):
    """Writing an export failed."""
