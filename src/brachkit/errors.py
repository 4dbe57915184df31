"""Exception hierarchy shared by all brachkit modules."""


class BrachkitError(Exception):
    """Base class for all errors raised by this package."""


class OutOfChart(BrachkitError):
    """A point lies outside the coordinate chart of the model."""


class StencilOutOfChart(OutOfChart):
    """A finite-difference stencil would leave the chart."""


class OutsideUk(BrachkitError):
    """A point violates k^2 + <Y,Y> > 0 for the energy constant in use."""


class UnknownModel(BrachkitError):
    pass


class InvalidParams(BrachkitError):
    pass


class GridTooCoarse(BrachkitError):
    pass


class GridMismatch(BrachkitError):
    pass


class StepFailure(BrachkitError):
    """Adaptive step control failed during an ODE integration."""


class FlowEscape(BrachkitError):
    """The Killing flow left the chart."""


class NotHorizontal(BrachkitError):
    """A curve expected to be orthogonal to the observer field is not."""


class ConstraintViolated(BrachkitError):
    """Conservation-law or tangent-space constraints exceed tolerance."""


class NotCritical(BrachkitError):
    """A curve expected to solve the brachistochrone equation does not."""


class NotGeodesic(BrachkitError):
    """A curve expected to solve the conformal geodesic equation does not."""


class NotTangentToGamma(BrachkitError):
    pass


class NotNormal(BrachkitError):
    pass


class NotOrthogonalStart(BrachkitError):
    pass


class FrameDegenerate(BrachkitError):
    pass


class NonFiniteHessian(BrachkitError):
    """A discretized Hessian holds a NaN or infinite entry, so it has no eigenvalues."""


class FocalEndpoint(BrachkitError):
    """Index computation aborted: the Hessian is degenerate (focal endpoint)."""


class InitialConditionViolated(BrachkitError):
    pass


class NoConvergence(BrachkitError):
    pass


class ZeroSeed(BrachkitError):
    pass


class GradientMismatch(BrachkitError):
    """An analytic gradient disagrees with differences of its function: the model's
    Christoffel symbols contradict its metric."""


class Stalled(BrachkitError):
    """Descent produced no progress within the iteration budget."""


class ConfigError(BrachkitError):
    """Scenario file failed strict validation."""
