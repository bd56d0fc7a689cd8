"""Minimization of f over the affine plane spanned by two gradients.

The plane through ``x`` spanned by ``v`` (the gradient at x) and ``w`` (the
gradient at the companion point) is parametrized as
``p(alpha, beta) = x + alpha v + beta w``.  Both solvers work on a model of
the restricted function ``F(alpha, beta) = f(p)`` (``f.restrict(x, v, w)``,
an :class:`~.objectives.Restriction`): a single Newton solve when the model
is an exact quadratic, else 2-D gradient descent with Armijo backtracking.
Neither forms an n-vector until it returns ``x_next = model.point(alpha,
beta)``.

The descent solver iterates in an orthonormalized span of (v, w): the raw
(alpha, beta) coordinates can be arbitrarily ill-conditioned when the two
gradients are nearly parallel, while the orthonormal chart leaves only the
objective's own curvature.  Tolerances and reported quantities stay in the
raw chart, so the returned solution always satisfies
``x_next = base + alpha*v + beta*w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePlaneError, InnerStallError

ARMIJO_DECREASE = 1e-4
ARMIJO_BACKTRACK = 0.5
MAX_BACKTRACKS = 200
STALL_FACTOR = 1e3  # residual above STALL_FACTOR * tol at the cap is a stall


@dataclass
class PlaneSolution:
    """Minimizer of the restricted function, in raw (alpha, beta) coordinates.

    ``inner_grad_norm`` is the norm of (<grad f(x_next), v>, <grad f(x_next), w>)
    at the accepted point; ``grad_evals`` counts the model gradients the
    inner solver evaluated.
    """

    alpha: float
    beta: float
    x_next: np.ndarray
    inner_grad_norm: float
    inner_iters: int
    grad_evals: int


def solve_newton_quadratic(plane) -> PlaneSolution:
    """One exact Newton step on an exact quadratic plane model.

    Solves H (alpha, beta)' = -grad2(0, 0), with H = [[v'Av, v'Aw],
    [w'Av, w'Aw]] the model's Hessian and grad2(0, 0) its restricted
    gradient at ``x`` (<v,v>, <v,w> when ``v`` is the gradient there), on
    Python floats: the explicit inverse of H, entry by entry, and one step of
    iterative refinement, with no numpy call.  Raises
    :class:`DegeneratePlaneError` when the system is numerically singular.
    """
    (vav, vaw), (_, waw) = plane.hessian
    det = vav * waw - vaw * vaw
    if not math.isfinite(det) or det <= 1e-14 * abs(vav * waw):
        raise DegeneratePlaneError("restricted Hessian is numerically singular")
    i11, i12, i22 = waw / det, -vaw / det, vav / det
    g1, g2 = plane.grad(0.0, 0.0)
    alpha, beta = 0.0, 0.0
    for _ in range(2):  # the solve, then one refinement on its residual
        # the restricted gradient is affine: grad2(z) = grad2(0, 0) + H z
        r1 = g1 + (vav * alpha + vaw * beta)
        r2 = g2 + (vaw * alpha + waw * beta)
        alpha -= i11 * r1 + i12 * r2
        beta -= i12 * r1 + i22 * r2
    r1, r2 = g1 + (vav * alpha + vaw * beta), g2 + (vaw * alpha + waw * beta)
    return PlaneSolution(alpha, beta, plane.point(alpha, beta),
                         math.sqrt(r1 * r1 + r2 * r2), 1, 0)


def solve_gd_armijo(plane, inner_tol: float = 1e-12, max_inner: int = 10000,
                    f_base: float | None = None) -> PlaneSolution:
    """Gradient descent with Armijo backtracking on the restricted function.

    ``plane`` is a model of f on ``x + span(v, w)`` with ``v`` the gradient
    at ``x``.  The descent runs in an orthonormal basis of span(v, w) built
    from the Cholesky factor of the Gram matrix, where the Lipschitz bound on
    the restricted gradient is simply ``2 lip``; each trial point is mapped
    back to raw coordinates for the model.  The first trial step is
    1/(2 lip); afterwards each iteration proposes the Barzilai-Borwein
    steplength from the last (step, gradient-change) pair and backtracks by
    halving until the sufficient-decrease test passes, so the restricted
    value is monotonically non-increasing while decreases remain measurable
    in double precision.
    Once the required decrease falls below the rounding floor of the value
    (4 eps max(|F(0)|, |F|), F the last accepted value), value comparisons
    carry no information and the safeguarded step is taken directly; by then
    the iterate sits in the fp-flat quadratic basin, where the
    Barzilai-Borwein iteration is superlinear in 2-D.

    Stops when ``||grad2|| <= inner_tol * max(||v||, ||w||)`` in the raw
    chart, returning the best iterate seen.  Reaching ``max_inner`` with a
    residual above ``1e3`` times that tolerance raises
    :class:`InnerStallError`.
    """
    if inner_tol <= 0.0:
        raise ValueError(f"inner_tol must be positive, got {inner_tol}")
    (vv, vw), (_, ww) = plane.gram
    norm_v = math.sqrt(vv)
    norm_w = math.sqrt(ww)
    tol_stop = inner_tol * max(norm_v, norm_w)

    # restricted gradient at the origin is known exactly from the Gram matrix
    grad2 = np.array([vv, vw])
    if float(np.linalg.norm(grad2)) <= tol_stop:
        return PlaneSolution(0.0, 0.0, plane.point(0.0, 0.0),
                             float(np.linalg.norm(grad2)), 0, 0)

    # Cholesky of the Gram matrix, [v w] = [q1 q2] R, gives the orthonormal
    # chart: chart coordinates s are R (alpha, beta)', chart gradients
    # R^-T grad2
    r11 = norm_v
    r12 = vw / r11
    r22_sq = ww - r12 * r12
    if not (r22_sq > 0.0) or r11 == 0.0:
        raise DegeneratePlaneError("gradients are numerically parallel")
    r22 = math.sqrt(r22_sq)

    def raw(s):
        beta = float(s[1] / r22)
        return float((s[0] - r12 * beta) / r11), beta

    s = np.zeros(2)                      # coordinates in the (q1, q2) chart
    fp = plane.value(0.0, 0.0) if f_base is None else f_base
    gq = np.array([r11, 0.0])            # <v, q1> = r11, <v, q2> = 0 exactly
    h_safe = 1.0 / (plane.lip * 2.0)     # provably safe step in this chart
    ulp4 = 4.0 * np.finfo(float).eps
    f0_abs = abs(fp)
    value_floor = ulp4 * max(f0_abs, 1e-300)

    best_s = s.copy()
    best_residual = float(np.linalg.norm(grad2))
    s_prev = None
    gq_prev = None
    iters = 0
    grad_evals = 0
    while iters < max_inner:
        gq_sq = float(gq @ gq)
        if gq_sq == 0.0:
            break
        if s_prev is None:
            h = h_safe
        else:
            ds = s - s_prev
            dg = gq - gq_prev
            curv = float(ds @ dg)
            h = float(ds @ ds) / curv if curv > 0.0 else h_safe
            if not np.isfinite(h) or h <= 0.0:
                h = h_safe
        s_new = None
        for _ in range(MAX_BACKTRACKS):
            required = ARMIJO_DECREASE * h * gq_sq
            s_new = s - h * gq
            if required < value_floor:
                break  # decrease unmeasurable; take the step untested
            f_new = plane.value(*raw(s_new))
            if f_new <= fp - required:
                fp = f_new
                value_floor = ulp4 * max(f0_abs, abs(fp), 1e-300)
                break
            h *= ARMIJO_BACKTRACK
            s_new = None
        if s_new is None:
            break  # step underflow: no representable progress left
        s_prev, gq_prev = s, gq
        s = s_new
        grad2 = plane.grad(*raw(s))
        grad_evals += 1
        iters += 1
        gq1 = grad2[0] / r11
        gq = np.array([gq1, (grad2[1] - r12 * gq1) / r22])
        residual = float(np.linalg.norm(grad2))
        if residual < best_residual:
            best_residual = residual
            best_s = s.copy()
        if residual <= tol_stop:
            break

    if best_residual > STALL_FACTOR * tol_stop:
        raise InnerStallError(
            f"2-D solver stopped after {iters} iterations with residual "
            f"{best_residual:.3e} > {STALL_FACTOR * tol_stop:.3e}")
    alpha, beta = raw(best_s)
    return PlaneSolution(alpha, beta, plane.point(alpha, beta),
                         best_residual, iters, grad_evals)
