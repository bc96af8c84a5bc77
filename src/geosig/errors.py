"""Exception types shared across the engine, one per exit code of the CLI."""


class GroupInputError(ValueError):
    """Malformed user input: bad permutation, unknown generator, oversized group (exit 64)."""


class InternalCheckError(RuntimeError):
    """A proven identity failed to hold; indicates a defect, never recoverable (exit 70)."""


class InvalidSignatureError(ValueError):
    """The signature admits no action of the group: no admissible genus, or no
    generating vector (exit 1)."""


class SearchBudgetExceeded(RuntimeError):
    """Generating-vector search ran out of nodes before deciding existence (exit 2)."""
