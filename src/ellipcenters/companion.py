"""Companion-point location on the current level set, and the ray search
behind it.

Starting from a non-stationary ``x`` with gradient ``v``, the ray
``x - t v`` (t > 0) re-crosses the level set {f = f(x)} at exactly one
point, because a strongly convex function meets any line in at most two
points and is coercive along every ray.  ``companion_point`` locates that
crossing on a model of f along the ray (``Objective.restrict(x, v)``): in
closed form when the model is an exact quadratic, else with ``ray_root`` on
the level residual.  The same search, on the directional derivative, is the
exact linesearch in :mod:`.solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, PrecisionFloorError

MAX_DOUBLINGS = 200
MAX_BISECTIONS = 200
WIDTH_FLOOR = 1e-15  # stop when the bracket narrows below WIDTH_FLOOR * hi


@dataclass
class CompanionResult:
    """Outcome of a companion-point search.

    ``t`` is the positive step along the negative gradient, ``y = x - t v``
    the located point, and ``level_residual`` the achieved value residual
    |f(y) - f(x)| / max(1, |f(x)|).
    """

    t: float
    y: np.ndarray
    level_residual: float
    bisection_iters: int


def ray_root(probe, t: float, tol: float):
    """Root of a sign function along a ray t > 0, by doubling then bisection.

    ``probe(t)`` returns ``(s, payload)`` with s < 0 below the root and
    s > 0 above it.  Doubles ``t`` until s > 0; the left end of the bracket
    is the last probe with s < 0, else 0.  A doubling probe is never
    accepted, since s may also vanish at the ray's start.  Then bisects
    until |s| <= tol or the bracket is narrower than ``WIDTH_FLOOR * hi``,
    and returns ``(t, |s|, payload)`` of the smallest-|s| probe among the
    right end and the midpoints, plus the number of bisections; the caller
    judges the residual.
    Raises :class:`NumericalFailureError` when s never turns positive or the
    bisection budget runs out.
    """
    lo = 0.0
    for _ in range(MAX_DOUBLINGS):
        s, payload = probe(t)
        if s > 0.0:
            break
        if s < 0.0:
            lo = t
        t *= 2.0
    else:
        raise NumericalFailureError(
            f"no sign change after {MAX_DOUBLINGS} doublings; "
            "objective does not look coercive")
    hi = t
    best = (t, abs(s), payload)
    for iters in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        s, payload = probe(mid)
        if abs(s) < best[1]:
            best = (mid, abs(s), payload)
        if abs(s) <= tol:
            break
        if s < 0.0:
            lo = mid
        else:
            hi = mid
        if (hi - lo) < WIDTH_FLOOR * hi:
            break
    else:
        raise NumericalFailureError(
            f"bisection did not converge in {MAX_BISECTIONS} steps")
    return (*best, iters)


def companion_point(ray, tol: float = 1e-12,
                    f_x: float | None = None) -> CompanionResult:
    """Locate the second level-set crossing along ``-v`` from ``x``.

    ``ray`` is a model of f on ``x + span(v)`` (``f.restrict(x, v)``), with
    ``v`` the gradient at ``x``.  With an exact quadratic model the crossing
    is t = 2 <grad f(x), v> / (v'Av).  Otherwise ``ray_root`` runs on
    s(t) = (f(x - t v) - f(x)) / max(1, |f(x)|) from t = 2/lip until
    |s| <= tol, and :class:`PrecisionFloorError` is raised when the bracket
    collapses to machine width first, since the level set is then finer
    than double precision resolves along the ray.  ``y`` comes
    from ``ray.point``, so a problem's gradient at it reuses the carried
    product.

    Parameters
    ----------
    ray : Restriction
        Model along one direction ``v``; ``||v|| > 0`` required.
    tol : float
        Relative level-residual target.
    f_x : float, optional
        Known value f(x); saves one evaluation.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not ray.dirs[0].any():
        raise ValueError("gradient is zero; companion point is undefined")
    g0 = ray.value(0.0) if f_x is None else f_x
    denom = max(1.0, abs(g0))
    if ray.hessian is not None:
        curv = float(ray.hessian[0, 0])
        if not curv > 0.0:
            raise NumericalFailureError(f"v'Av = {curv:.3e} is not positive")
        t = 2.0 * float(ray.grad(0.0)[0]) / curv
        res = abs(ray.value(-t) - g0) / denom
        return CompanionResult(t, ray.point(-t), res, 0)

    def level(t):
        return (ray.value(-t) - g0) / denom, None

    t, res, _, iters = ray_root(level, 2.0 / ray.lip, tol)
    if res > tol:
        raise PrecisionFloorError(
            f"bracket at machine width with level residual {res:.3e} > {tol:.3e}")
    return CompanionResult(t, ray.point(-t), res, iters)
