"""Minimization of f over a line or a plane through x: the exact linesearch
and the ellipcenter plane step.

Gradient descent with exact linesearch minimizes f over the ray
``x + span(v)``, ``v`` the gradient at x; the ellipcenter step minimizes it
over the plane ``x + span(v, w)``, ``w`` the gradient at the companion
point.  Both are one problem, in dimension 1 and 2, solved by
:func:`minimize` on a model of f there (``f.restrict(x, v)``, an
:class:`~.objectives.Restriction`, and its ``extend(w)`` on the plane) in
the model's coordinates z, with
``point(*z) = x + z_1 v [+ z_2 w]``.  It forms no n-vector; the caller forms
``model.point(*z)``.

On an exact quadratic model the minimizer is a closed form.  On any other
model it is damped Newton on the model's exact Hessian ``model.hess`` (see
Nocedal and Wright, *Numerical Optimization*, ch. 3).  Newton steps are
invariant under a change of coordinates, so the raw coordinates serve
however nearly parallel v and w are.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DegeneratePlaneError, InnerStallError, NumericalFailureError

INNER_TOL = 1e-12  # search stop: slope over ||v||^2, residual over max ||d_i||
LD_THRESHOLD = 1e-12  # sin^2 below which the two gradients count as parallel
ARMIJO_DECREASE = 1e-4
STALL_FACTOR = 1e3  # a plane residual above STALL_FACTOR * tol is a stall
MAX_NEWTON = 10000  # cap on the Newton steps of one search
ROUNDING = 4.0 * np.finfo(float).eps  # relative rounding floor of a value


def _inverse(hessian) -> tuple:
    """Entries (i11, i12, i22) of the inverse of a symmetric 2x2 matrix,
    given by its rows, on Python floats; :class:`DegeneratePlaneError` when
    it is numerically singular."""
    (h11, h12), (_, h22) = hessian
    det = h11 * h22 - h12 * h12
    if not math.isfinite(det) or det <= 1e-14 * abs(h11 * h22):
        raise DegeneratePlaneError("restricted Hessian is numerically singular")
    return h22 / det, -h12 / det, h11 / det


def _newton_step(hessian, g) -> tuple:
    """-H^-1 g for the Hessian H and gradient g of a model on one or two
    directions; on a line, :class:`NumericalFailureError` when the
    curvature is not positive."""
    if len(g) == 1:
        curv = hessian[0][0]
        if not curv > 0.0:
            raise NumericalFailureError(f"curvature {curv:.3e} is not positive")
        return (-g[0] / curv,)
    i11, i12, i22 = _inverse(hessian)
    return -(i11 * g[0] + i12 * g[1]), -(i12 * g[0] + i22 * g[1])


def _solve_exact(model) -> tuple:
    """The minimizer on an exact quadratic model, on Python floats, from
    its restricted gradient g at the origin, the one model call.  On a
    line, z = -g / v'Av; on a plane, z = -H^-1 g by the explicit inverse of
    H, then one step of iterative refinement on its residual."""
    hessian = model.hessian
    if len(hessian) == 1:
        return _newton_step(hessian, model.grad(0.0))
    i11, i12, i22 = _inverse(hessian)
    (vav, vaw), (_, waw) = hessian
    g1, g2 = model.grad(0.0, 0.0)
    alpha, beta = 0.0, 0.0
    for _ in range(2):  # the solve, then one refinement on its residual
        # the restricted gradient is affine: grad2(z) = grad2(0, 0) + H z
        r1 = g1 + (vav * alpha + vaw * beta)
        r2 = g2 + (vaw * alpha + waw * beta)
        alpha -= i11 * r1 + i12 * r2
        beta -= i12 * r1 + i22 * r2
    return alpha, beta


def minimize(model, f_base: float) -> tuple:
    """Minimizer z of f over the line or plane of ``model``, whose first
    direction is the gradient at its base.

    An exact quadratic model is solved in closed form by
    :func:`_solve_exact`.  On any other model the restricted gradient at
    the origin is the first row of ``model.gram``, and the value there is
    ``f_base``, so the origin costs no evaluation.  From it, each iteration
    takes the Newton step on ``model.hess`` and halves it until the model
    value passes the Armijo test against the last accepted value.
    Once the predicted decrease of a step falls below the value's rounding
    floor, ``ROUNDING`` times the larger of |f_base| and that value,
    comparisons carry no information and the step is taken untested.  The
    search stops when the norm of the restricted gradient, the residual,
    is at most tol (``INNER_TOL * ||v||^2`` on a line, ``INNER_TOL *
    max(||v||, ||w||)`` on a plane), after ``MAX_NEWTON`` Newton steps, or
    when an untested step does not lower the residual; that step is then
    dropped, while a tested one is kept whatever its residual.

    A plane with ``sin2_theta`` below ``LD_THRESHOLD`` (tested before any
    evaluation) or a numerically singular Hessian raises
    :class:`DegeneratePlaneError`; only a plane search that ends above
    ``STALL_FACTOR * tol`` raises :class:`InnerStallError`.  A line whose
    curvature is not positive raises :class:`NumericalFailureError`.
    """
    if len(model.gram) == 1:
        tol = INNER_TOL * model.gram[0][0]
    elif model.sin2_theta < LD_THRESHOLD:
        raise DegeneratePlaneError("the plane's two gradients are parallel")
    else:
        tol = INNER_TOL * math.sqrt(max(model.gram[0][0], model.gram[1][1]))
    if model.hessian is not None:
        return _solve_exact(model)
    g = model.gram[0]
    z = (0.0,) * len(g)
    residual = math.hypot(*g)
    f, f_abs = f_base, abs(f_base)
    floor = ROUNDING * max(f_abs, 1e-300)
    iters = 0
    while residual > tol and iters < MAX_NEWTON:
        iters += 1
        step = _newton_step(model.hess(*z, grad=g), g)
        decrease = -sum(map(operator.mul, g, step))  # twice the predicted one
        h, tested = 1.0, False
        while True:
            trial = [zi + h * si for zi, si in zip(z, step)]
            if 0.5 * h * decrease < floor:
                break
            f_trial = model.value(*trial)
            if f_trial <= f - ARMIJO_DECREASE * h * decrease:
                f, tested = f_trial, True
                floor = ROUNDING * max(f_abs, abs(f), 1e-300)
                break
            h *= 0.5
        g_trial = model.grad(*trial)
        residual_trial = math.hypot(*g_trial)
        if not tested and residual_trial >= residual:
            break
        z, g, residual = trial, g_trial, residual_trial
    if len(z) == 2 and residual > STALL_FACTOR * tol:
        raise InnerStallError(
            f"plane search stopped after {iters} Newton steps with residual "
            f"{residual:.3e} > {STALL_FACTOR * tol:.3e}")
    return z
