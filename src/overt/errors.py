"""Exception types shared across the package."""


class PreconditionFailed(ValueError):
    """An operation was called outside its stated precondition."""


class AmbientMismatch(ValueError):
    """Two lattice elements or net families live over different ambients."""


class InvariantViolation(RuntimeError):
    """An internal soundness invariant was observed to fail."""


class ParseError(ValueError):
    """Syntax error in one of the textual mini-languages.

    ``offset`` is the byte offset of the first offending character.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset

