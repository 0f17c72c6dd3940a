"""Exception types shared across the package."""

from __future__ import annotations


class GroupMismatchError(ValueError):
    """Operands live on different groups or have the wrong dimension."""


class SchemaError(ValueError):
    """An input file does not match the documented schema."""


class DomainError(ValueError):
    """A well-formed request outside what the library computes, such as a
    group too large to enumerate its subgroups or a result that overflows."""


class SupportViolation(Exception):
    """A signal carries mass off the lattice it was claimed to live on."""

    def __init__(self, element, magnitude):
        self.element = element
        self.magnitude = float(magnitude)
        super().__init__(
            f"mass {self.magnitude:.3e} off the lattice at {tuple(element)}"
        )


class NotAFrame(Exception):
    """The Gabor system does not span: its lower frame bound is numerically zero."""

    def __init__(self, bound_estimate):
        self.bound_estimate = float(bound_estimate)
        super().__init__(
            f"lower frame bound estimate {self.bound_estimate:.3e} is below tolerance"
        )


class NotPeriodic(Exception):
    """A signal failed the periodicity check for a required shift."""

    def __init__(self, shift, deviation):
        self.shift = shift
        self.deviation = float(deviation)
        super().__init__(
            f"translating by {tuple(shift)} moves the signal by {self.deviation:.3e}"
        )
