"""Companion-point location on the current level set.

Starting from a non-stationary ``x`` with gradient ``v``, the ray
``x - t v`` (t > 0) re-crosses the level set {f = f(x)} at exactly one
point, because a strongly convex function meets any line in at most two
points and is coercive along every ray.  ``companion_point`` finds it by
one root search on a model of f along the ray, ``f.restrict(x, v)``; the
exact linesearch there is a minimization, in :mod:`.plane2d`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalFailureError, PrecisionFloorError

TOL = 1e-12  # target relative level residual |s|
MAX_STEPS = 200  # probes after the first step, doublings included
WIDTH_FLOOR = 1e-15  # stop when the bracket narrows below WIDTH_FLOOR * hi


@dataclass
class CompanionResult:
    """Outcome of a companion-point search.

    ``t`` is the positive step along the negative gradient, ``y`` the
    located point ``x - t v`` as the ray's point record, whose ``y.x`` is
    the array, and ``level_residual`` the achieved value residual
    |f(y) - f(x)| / max(1, |f(x)|).  ``bisection_iters`` counts the probes
    after the first step, 0 when that step lands on the level set.
    """

    t: float
    y: tuple
    level_residual: float
    bisection_iters: int


def companion_point(ray, f_x: float | None = None) -> CompanionResult:
    """Locate the second level-set crossing along ``-v`` from ``x``.

    ``ray`` is a model of f on ``x + span(v)``, ``v`` the gradient at ``x``.
    The search drives s(t) = (f(x - t v) - f(x)) / max(1, |f(x)|) to
    |s| <= ``TOL``.  Its first step, t = 2 ||v||^2 / phi''(0) with phi''(0)
    the curvature ``ray.hess`` at x, is the crossing itself on an exact
    quadratic model.  Then it doubles t until s > 0 and runs the Illinois
    secant (Dowell and Jarratt, BIT 11, 1971) on psi(t) = s(t) / t, which
    rises from psi(0) = -||v||^2 / max(1, |f(x)|), known without a probe; a
    step outside the bracket is replaced by its midpoint.  A bracket narrower
    than ``WIDTH_FLOOR * hi`` raises :class:`PrecisionFloorError`: double
    precision cannot resolve the level set along the ray.  A curvature
    phi''(0) <= 0, a NaN residual or ``MAX_STEPS`` probes past the first
    raise :class:`NumericalFailureError`.  ``y`` is ``ray.point(-t)``, which
    carries its data product, so a problem's gradient there makes no new
    forward pass.

    Parameters
    ----------
    ray : Restriction
        Model along one direction ``v``; ``||v||^2 > 0`` required.
    f_x : float, optional
        Known value f(x); saves one evaluation.
    """
    vv = ray.gram[0][0]
    if not vv > 0.0:
        raise ValueError("||v||^2 is zero; companion point is undefined")
    g0 = ray.value(0.0) if f_x is None else f_x
    denom = max(1.0, abs(g0))
    curv = ray.hess(0.0, grad=(vv,))[0][0]
    if not curv > 0.0:
        raise NumericalFailureError(f"curvature {curv:.3e} along v is not positive")
    t = 2.0 * vv / curv
    s = (ray.value(-t) - g0) / denom
    lo, psi_lo = 0.0, -vv / denom
    hi = psi_hi = math.inf  # no probe above the level yet
    side = steps = 0  # side: the end the last probe replaced, -1 lo, 1 hi
    while not abs(s) <= TOL:
        if s > 0.0:
            if side > 0:  # Illinois: the same end twice, halve the other
                psi_lo *= 0.5
            hi, psi_hi, side = t, s / t, 1
        elif s < 0.0:
            if side < 0:
                psi_hi *= 0.5
            lo, psi_lo, side = t, s / t, -1
        else:
            raise NumericalFailureError("level residual is NaN")
        if steps == MAX_STEPS:
            raise NumericalFailureError(
                f"level residual {abs(s):.3e} > {TOL:.3e} after {MAX_STEPS} probes")
        if hi == math.inf:
            t *= 2.0
        elif hi - lo <= WIDTH_FLOOR * hi:
            raise PrecisionFloorError(f"bracket at machine width with level "
                                      f"residual {abs(s):.3e} > {TOL:.3e}")
        else:
            t = lo + (hi - lo) * psi_lo / (psi_lo - psi_hi)
            if not lo < t < hi:
                t = 0.5 * (lo + hi)
        steps += 1
        s = (ray.value(-t) - g0) / denom
    return CompanionResult(t, ray.point(-t), abs(s), steps)
