"""Exception hierarchy and immutable value-holder base shared by all modules.

The CLI maps these onto its exit-code contract: input problems exit 1,
failed requirements/validations exit 2, internal-consistency traps exit 3.
"""

from __future__ import annotations

from typing import Callable


class Immutable:
    """Base of the slotted value holders: attributes are set once in
    ``__init__`` through ``object.__setattr__`` and never assigned again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class NetsheafError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NetsheafError):
    """Malformed or incompatible input (ambient mismatch, bad schema, ...)."""


class PreconditionError(InputError):
    """An operation was called outside its stated precondition."""


class EngineError(InputError):
    """The requested operation is not available for this algebra engine."""


class SizeGuardError(NetsheafError):
    """A resource guard (Bell bound, matrix dimension bound) was exceeded."""

    def __init__(self, message: str, bound: int, requested: int):
        super().__init__(message)
        self.bound = bound
        self.requested = requested


def guard(requested: int, bound: int, what: Callable[[], str]) -> None:
    """Raise SizeGuardError "<what>, exceeding the guard of <bound>" when
    requested exceeds bound; ``what`` is rendered only then."""
    if requested > bound:
        raise SizeGuardError(
            f"{what()}, exceeding the guard of {bound}", bound=bound, requested=requested
        )


class InternalConsistencyError(NetsheafError):
    """Two independent decision routes disagreed: a bug trap, never user error.

    Carries a ``dump`` with everything known at the point of failure.
    """

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}
