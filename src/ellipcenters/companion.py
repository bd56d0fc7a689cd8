"""Companion-point location on the current level set.

Starting from a non-stationary ``x`` with gradient ``v``, the ray
``x - t v`` (t > 0) re-crosses the level set {f = f(x)} at exactly one
point, because a strongly convex function meets any line in at most two
points and is coercive along every ray.  ``companion_point`` locates that
crossing by a doubling bracket followed by bisection on the level residual.
A quadratic's closed-form crossing is taken in :mod:`.solvers` instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

MAX_DOUBLINGS = 200
MAX_BISECTIONS = 200
WIDTH_FLOOR = 1e-15  # stop when the bracket narrows below WIDTH_FLOOR * t_hi


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


def bracket_right(f, x: np.ndarray, v: np.ndarray, t_init: float | None = None,
                  f_x: float | None = None):
    """Bracket the level crossing of g(t) = f(x - t v).

    Doubles from ``t_init`` (default 2/lip) until g(t) > g(0), recording the
    last strictly sub-level step as the left end; if no sub-level point was
    seen before the right end, halves below it until one is found.  Returns
    ``(t_lo, t_hi, g(t_hi))`` with g(t_lo) < g(0) < g(t_hi) and
    0 < t_lo < t_hi.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    g0 = f.value(x) if f_x is None else f_x
    lip = getattr(f, "lip", None)
    if t_init is None:
        t_init = 2.0 / lip if lip else 1.0

    t = t_init
    t_lo = None
    t_hi = None
    for _ in range(MAX_DOUBLINGS):
        gt = f.value(x - t * v)
        if gt > g0:
            t_hi, g_hi = t, gt
            break
        if gt < g0:
            t_lo = t
        t *= 2.0
    if t_hi is None:
        raise NumericalFailureError(
            f"no super-level point after {MAX_DOUBLINGS} doublings; "
            "objective does not look coercive")
    if t_lo is None:
        # first probe already crossed; g'(0) < 0 guarantees a sub-level
        # point arbitrarily close to 0
        t = t_hi
        for _ in range(MAX_DOUBLINGS):
            t *= 0.5
            if f.value(x - t * v) < g0:
                t_lo = t
                break
        if t_lo is None:
            raise NumericalFailureError(
                f"no sub-level point above 0 after {MAX_DOUBLINGS} halvings")
    return t_lo, t_hi, g_hi


def companion_point(f, x: np.ndarray, v: np.ndarray, tol: float = 1e-12,
                    f_x: float | None = None) -> CompanionResult:
    """Locate the second level-set crossing along ``-v`` from ``x``.

    Brackets by doubling and bisects until |g(t) - g(0)| / max(1, |g(0)|)
    <= tol, or until the bracket width falls below ``WIDTH_FLOOR * t_hi``
    (stagnation guard for extremely flat g).  On a quadratic the ellipcenter
    step takes the closed form 2 ||v||^2 / (v'Av) instead of this search.

    Parameters
    ----------
    f : Objective-like
        Needs ``value``; ``lip``, when present, sets the first probe.
    x, v : ndarray
        Current point and its gradient; ``||v|| > 0`` required.
    tol : float
        Relative level-residual target.
    f_x : float, optional
        Known value f(x); saves one evaluation.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not np.any(v):
        raise ValueError("gradient is zero; companion point is undefined")

    if f_x is None:
        f_x = f.value(x)
    g0 = f_x
    denom = max(1.0, abs(g0))

    t_lo, t_hi, g_hi = bracket_right(f, x, v, f_x=g0)
    best_t = t_hi
    best_res = abs(g_hi - g0) / denom
    iters = 0
    while iters < MAX_BISECTIONS:
        mid = 0.5 * (t_lo + t_hi)
        g_mid = f.value(x - mid * v)
        iters += 1
        res = abs(g_mid - g0) / denom
        if res < best_res:
            best_res = res
            best_t = mid
        if res <= tol:
            break
        if g_mid < g0:
            t_lo = mid
        else:
            t_hi = mid
        if (t_hi - t_lo) < WIDTH_FLOOR * t_hi:
            break
    if best_res > tol:
        raise NumericalFailureError(
            f"bisection stalled at level residual {best_res:.3e} > {tol:.3e}")
    y = x - best_t * v
    return CompanionResult(best_t, y, best_res, iters)
