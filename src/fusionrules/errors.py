"""Exception types shared across the package."""


class FusionError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(FusionError, ValueError):
    """Input data is malformed: wrong shapes, bad Cayley tables, broken files,
    or a precondition (e.g. a support set that is not fusion-closed) fails."""


class CapacityError(FusionError, ValueError):
    """A request exceeds a configured size cap (enumeration bounds, group order)
    or the range in which a computation stays exact."""


class NumericalError(FusionError, ArithmeticError):
    """A floating-point step failed its own self-checks.

    Carries diagnostics in :attr:`residual` (the worst offending residual).
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnknownFixtureError(FusionError, LookupError):
    """Requested a named object that is not in the catalogue."""

    def __init__(self, name, available):
        self.name = name
        self.available = tuple(sorted(available))
        super().__init__(f"unknown name {name!r}; available: {', '.join(self.available)}")
