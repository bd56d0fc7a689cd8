"""Exception types shared across the solver stack."""


class NumericalFailureError(RuntimeError):
    """A bracketing or bisection loop exceeded its iteration budget.

    This cannot happen for a genuinely smooth, strongly convex objective;
    it signals a bad objective or inconsistent constants.
    """


class PrecisionFloorError(NumericalFailureError):
    """The companion bracket narrowed to machine width with the level
    residual still above its tolerance: double precision cannot resolve the
    level set, typically because f is large in absolute terms.  Outer loops
    stop with status ``precision_floor``."""


class DegeneratePlaneError(RuntimeError):
    """The two gradient directions are numerically parallel, so the 2x2
    plane system is singular.  The plane is then the line along the
    gradient, and the ellipcenter step takes the exact-linesearch step."""


class InnerStallError(RuntimeError):
    """The 2-D inner solver hit its iteration cap while still far from its
    gradient tolerance.  Outer loops abort rather than silently accept an
    inexact plane minimizer."""


class NonFiniteError(RuntimeError):
    """The objective returned a NaN or infinite value or gradient inside a
    run.  Outer loops stop with status ``non_finite``."""
