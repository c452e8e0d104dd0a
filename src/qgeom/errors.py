"""Exception types shared across the workbench."""


class QGeomError(Exception):
    """Base class for all workbench errors."""


class NotAPrimePowerError(QGeomError, ValueError):
    """The requested field order is not a prime power."""


class OutOfRangeError(QGeomError, ValueError):
    """A size parameter exceeds the supported range."""


class AmbientMismatchError(QGeomError, ValueError):
    """Two subspaces live in different ambient spaces."""


class DegenerateFormError(QGeomError, ValueError):
    """A bilinear form required to be nondegenerate is singular."""


class NotContainedError(QGeomError, ValueError):
    """A subspace expected to be contained in another is not."""


class NotIncidentError(QGeomError, ValueError):
    """A point/subspace incidence precondition fails."""


class ParamMismatchError(QGeomError, ValueError):
    """Block set and design parameters disagree on ambient or dimension."""


class NotDivisibleError(QGeomError, ValueError):
    """Spread construction requires the block dimension to divide the ambient one."""


class NotPartialSpreadError(QGeomError, ValueError):
    """Some point is covered more than once.  Carries a witness point."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotASpreadError(QGeomError, ValueError):
    """The block set is not a point partition."""


class DerivedNotASpreadError(QGeomError, ValueError):
    """The derived block family at the given point is not a spread."""


class NotSteinerLikeError(QGeomError, ValueError):
    """A solid contains two or more blocks.  Carries the witness solid."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MissingLabelsError(QGeomError, ValueError):
    """The incidence structure carries no coordinate labels."""


class UnknownIdError(QGeomError, ValueError):
    """A point or line id is outside the structure."""


class PayloadError(QGeomError, ValueError):
    """A wire-format payload has the wrong shape or out-of-range entries."""


class BudgetExceededError(QGeomError, RuntimeError):
    """A search or enumeration exceeded its node/memory budget.

    For searches, ``certificate`` holds the partial certificate
    (marked incomplete) accumulated before the abort.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate
