"""Exception hierarchy shared by all nhjc modules."""


class NhjcError(Exception):
    """Base class for all computation errors raised by this package.

    A check that runs over a batch of points sets index to the position of
    the first failing one, so the caller can name it; None otherwise.
    """

    def __init__(self, *args, index: int | None = None):
        super().__init__(*args)
        self.index = index


class ValidationError(NhjcError):
    """A model parameter or input record violates its constraints."""


class ExceptionalPointError(NhjcError):
    """The 2x2 block sits at (or within float resolution of) an exceptional
    point: both branch invariants vanish and the branch split is singular."""


class DegenerateStateError(NhjcError):
    """Both eigenvector coefficients of a block vanish; the state cannot be
    normalized in the two-component parametrization."""


class GridTooCoarseError(NhjcError):
    """Phase unwrapping saw an angle step >= pi/2 even after refinement."""


class NodeCountError(NhjcError):
    """Node refinement produced a count or sign pattern inconsistent with the
    analytic structure (never silently wrong)."""


class AntiWindingError(NhjcError):
    """Node-sum section signs do not alternate, signalling anti-winding nodes
    or returning knots that the sign-sum formula does not cover."""


class UndefinedTiltError(NhjcError):
    """Both transverse texture coefficients vanish; no tilting angle exists."""


class OnBoundaryError(NhjcError):
    """Winding direction requested exactly on a reversal boundary where the
    defining coefficient is zero."""


class NoBoundaryError(NhjcError):
    """The requested boundary family has no closed form in the chosen
    variable for these parameters (zero denominator)."""


class SweepSpecError(NhjcError):
    """A sweep specification violates its schema."""


class SweepConsistencyError(NhjcError):
    """An integral-method spot check disagreed with the node-sum fast path."""


class NegativeRateWarning(UserWarning):
    """A decay rate is negative: mathematically valid, physically unusual."""
