"""Exception types shared across the package."""


class G2CoflowError(Exception):
    """Base class for all package-specific errors."""


class DomainError(G2CoflowError):
    """Evaluation requested outside a profile's domain or off its mesh."""


class InvalidGeometry(G2CoflowError, ValueError):
    """A domain, profile or G2-structure built from values outside their
    range: an interval with r1 <= r0, a circle with period <= 0, h or G not
    positive, profiles on incompatible domains, a sampled profile with no
    domain or too few mesh nodes for its stencils, or serialized profile JSON
    naming an unknown domain kind or node type. Also a ValueError, so callers
    catching that keep working."""


class SingularEval(G2CoflowError):
    """A closed-form expression hit a vanishing denominator or overflow."""


class QuadratureFailure(G2CoflowError):
    """Adaptive quadrature could not reach the requested tolerance."""


class DegreeMismatch(G2CoflowError):
    """Inner product or sum of forms of different degree."""


class DegreeOverflow(G2CoflowError):
    """Strict-mode wedge whose result would exceed the top degree."""


class ConstraintViolated(G2CoflowError):
    """The coclosed constraint residual exceeds tolerance."""


class StructureMismatch(G2CoflowError):
    """Operation called with the wrong structure kind."""


class SingularityDetected(G2CoflowError):
    """A flow field dropped below its positivity floor."""


class SingularLocus(G2CoflowError):
    """Reduced soliton ODE evaluated where its leading coefficient degenerates."""


class StepFailure(G2CoflowError):
    """The adaptive ODE integrator failed to advance."""


class SignAmbiguity(G2CoflowError):
    """sin(3*theta) crosses zero inside the span, so its branch is ambiguous."""


class InvalidParams(G2CoflowError):
    """Soliton family parameters outside their validity range.

    The offending parameter, when known, is named in ``param``.
    """

    def __init__(self, message, param=None):
        super().__init__(message)
        self.param = param


class DivergentIntegral(G2CoflowError):
    """An integral required for a compactness identity does not converge."""


class ConfigError(G2CoflowError):
    """Malformed or unknown configuration input.

    The offending key path, when known, is stored in ``key``.
    """

    def __init__(self, message, key=None):
        super().__init__(message if key is None else f"{message} (at {key!r})")
        self.key = key
