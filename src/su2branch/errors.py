"""Exceptions shared across the package."""


class ConsistencyError(RuntimeError):
    """An internal structural invariant failed; results cannot be trusted.

    Raised when a quantity that the construction guarantees (orbit sizes,
    coefficient bounds, cardinalities, ...) comes out wrong.  This always
    indicates a bug or a corrupted input, never a legitimate data case.
    When a registry entry (:mod:`.invariants`) fails at construction,
    ``dtype`` is the diagram type, ``stage`` the build stage whose output
    it checks and ``invariant`` the entry's name; a build stage that
    cannot finish sets ``dtype`` and ``stage`` only.
    """

    def __init__(
        self,
        message: str,
        *,
        dtype: str | None = None,
        stage: str | None = None,
        invariant: str | None = None,
    ) -> None:
        super().__init__(message)
        self.dtype = dtype
        self.stage = stage
        self.invariant = invariant


class UsageError(ValueError):
    """Bad input from the caller, or output that cannot be written: exit 2."""
