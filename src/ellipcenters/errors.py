"""Exception types shared across the solver stack.  One that ends a run
holds, as its class attribute ``status``, the ``RunStatus`` it ends with."""


class NumericalFailureError(RuntimeError):
    """The companion search found no level crossing within its probe cap
    or met a NaN level residual, or a curvature along the gradient was not
    positive (the model's curvature at the companion search's start, or in
    a Newton step of the exact linesearch).

    This cannot happen for a genuinely smooth, strongly convex objective;
    it signals a bad objective or inconsistent constants.
    """

    status = "numeric_failure"


class PrecisionFloorError(NumericalFailureError):
    """The companion search's bracket narrowed to machine width with the
    level residual still above ``companion.TOL``: double precision cannot
    resolve the level set, typically because f is large in absolute terms."""

    status = "precision_floor"


class DegeneratePlaneError(RuntimeError):
    """The two gradient directions are numerically parallel, so the 2x2
    plane system is singular.  The plane is then the line along the
    gradient, and the ellipcenter step takes the exact-linesearch step.  It
    never leaves the step, so it has no ``status``."""


class InnerStallError(RuntimeError):
    """The plane search ended, at ``plane2d.MAX_NEWTON`` Newton steps or at
    its rounding floor, with a restricted gradient above ``STALL_FACTOR``
    times its tolerance.  Outer loops abort rather than silently accept an
    inexact plane minimizer."""

    status = "inner_stall"


class NonFiniteError(RuntimeError):
    """The objective returned a NaN or infinite value or gradient inside a
    run."""

    status = "non_finite"
