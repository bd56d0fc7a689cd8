"""Minimization of f over the affine plane spanned by two gradients.

The plane through ``x`` spanned by ``v`` (the gradient at x) and ``w`` (the
gradient at the companion point) is parametrized as
``p(alpha, beta) = x + alpha v + beta w``, and the restricted function
``F(alpha, beta) = f(p)`` is minimized either by a single Newton solve
(exact for quadratics) or by 2-D gradient descent with Armijo backtracking.
The ellipcenter step in :mod:`.solvers` chooses Newton for a quadratic and
hands it the products ``A v`` and ``A w``.

The descent solver iterates in an orthonormalized span of (v, w): the raw
(alpha, beta) coordinates can be arbitrarily ill-conditioned when the two
gradients are nearly parallel, while the orthonormal chart leaves only the
objective's own curvature.  Tolerances and reported quantities stay in the
raw chart, so the returned solution always satisfies
``x_next = base + alpha*v + beta*w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePlaneError, InnerStallError

ARMIJO_DECREASE = 1e-4
ARMIJO_BACKTRACK = 0.5
MAX_BACKTRACKS = 200
STALL_FACTOR = 1e3  # residual above STALL_FACTOR * tol at the cap is a stall


@dataclass
class PlaneSubproblem:
    """Geometry of one plane search.

    ``gram`` is the 2x2 Gram matrix of (v, w) and ``sin2_theta`` its
    normalized determinant in [0, 1].
    """

    base: np.ndarray
    v: np.ndarray
    w: np.ndarray
    gram: np.ndarray = field(init=False)
    sin2_theta: float = field(init=False)

    def __post_init__(self):
        vv = float(self.v @ self.v)
        vw = float(self.v @ self.w)
        ww = float(self.w @ self.w)
        self.gram = np.array([[vv, vw], [vw, ww]])
        det = vv * ww - vw * vw
        denom = vv * ww
        self.sin2_theta = min(1.0, max(0.0, det / denom)) if denom > 0 else 0.0

    def point(self, alpha: float, beta: float) -> np.ndarray:
        return self.base + alpha * self.v + beta * self.w


@dataclass
class PlaneSolution:
    """Minimizer of the restricted function, in raw (alpha, beta) coordinates.

    ``inner_grad_norm`` is the norm of (<grad f(x_next), v>, <grad f(x_next), w>)
    at the accepted point; ``grad_evals`` counts full gradient evaluations
    consumed by the inner solver.
    """

    alpha: float
    beta: float
    x_next: np.ndarray
    inner_grad_norm: float
    inner_iters: int
    grad_evals: int


def solve_newton_quadratic(sp: PlaneSubproblem, av: np.ndarray,
                           aw: np.ndarray) -> PlaneSolution:
    """One exact Newton step for the restricted quadratic with Hessian A,
    given the products ``av = A v`` and ``aw = A w``.

    Solves [[v'Av, v'Aw], [w'Av, w'Aw]] (alpha, beta)' = -(<v,v>, <v,w>)'
    with one step of iterative refinement.  Raises
    :class:`DegeneratePlaneError` when the system is numerically singular.
    """
    vav = float(sp.v @ av)
    vaw = float(sp.v @ aw)
    waw = float(sp.w @ aw)
    system = np.array([[vav, vaw], [vaw, waw]])
    det = vav * waw - vaw * vaw
    if not np.isfinite(det) or det <= 1e-14 * abs(vav * waw):
        raise DegeneratePlaneError("restricted Hessian is numerically singular")
    rhs = -sp.gram[0]
    z = np.linalg.solve(system, rhs)
    z -= np.linalg.solve(system, system @ z - rhs)
    # restricted gradient is affine: grad2(z) = gram[0] + system @ z
    residual = sp.gram[0] + system @ z
    alpha, beta = float(z[0]), float(z[1])
    return PlaneSolution(alpha, beta, sp.point(alpha, beta),
                         float(np.linalg.norm(residual)), 1, 0)


def solve_gd_armijo(f, sp: PlaneSubproblem, inner_tol: float = 1e-12,
                    max_inner: int = 10000, f_base: float | None = None) -> PlaneSolution:
    """Gradient descent with Armijo backtracking on the restricted function.

    Runs in an orthonormal basis of span(v, w) built from the Cholesky factor
    of the Gram matrix, where the Lipschitz bound on the restricted gradient
    is simply ``2 lip``.  The first trial step is 1/(2 lip); afterwards each
    iteration proposes the Barzilai-Borwein steplength from the last
    (step, gradient-change) pair and backtracks by halving until the
    sufficient-decrease test passes, so the restricted value is monotonically
    non-increasing while decreases remain measurable in double precision.
    Once the required decrease falls below the rounding floor of the value
    (~4 eps |F|), value comparisons carry no information and the safeguarded
    step is taken directly; by then the iterate sits in the fp-flat quadratic
    basin, where the Barzilai-Borwein iteration is superlinear in 2-D.

    Stops when ``||grad2|| <= inner_tol * max(||v||, ||w||)`` in the raw
    chart, returning the best iterate seen.  Reaching ``max_inner`` with a
    residual above ``1e3`` times that tolerance raises
    :class:`InnerStallError`.
    """
    if inner_tol <= 0.0:
        raise ValueError(f"inner_tol must be positive, got {inner_tol}")
    vv, vw, ww = sp.gram[0, 0], sp.gram[0, 1], sp.gram[1, 1]
    norm_v = math.sqrt(vv)
    norm_w = math.sqrt(ww)
    tol_stop = inner_tol * max(norm_v, norm_w)

    # restricted gradient at the origin is known exactly from the Gram matrix
    grad2 = np.array([vv, vw])
    if float(np.linalg.norm(grad2)) <= tol_stop:
        return PlaneSolution(0.0, 0.0, sp.base.copy(),
                             float(np.linalg.norm(grad2)), 0, 0)

    # Cholesky of the Gram matrix gives the orthonormal basis (q1, q2)
    r11 = norm_v
    r12 = vw / r11
    r22_sq = ww - r12 * r12
    if not (r22_sq > 0.0) or r11 == 0.0:
        raise DegeneratePlaneError("gradients are numerically parallel")
    r22 = math.sqrt(r22_sq)
    q1 = sp.v / r11
    q2 = (sp.w - r12 * q1) / r22

    s = np.zeros(2)                      # coordinates in the (q1, q2) chart
    p = sp.base.copy()
    fp = f.value(p) if f_base is None else f_base
    gq = np.array([r11, 0.0])            # <v, q1> = r11, <v, q2> = 0 exactly
    h_safe = 1.0 / (f.lip * 2.0)         # provably safe step in this chart
    value_floor = 4.0 * np.finfo(float).eps * max(abs(fp), 1e-300)

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
            p_new = sp.base + s_new[0] * q1 + s_new[1] * q2
            f_new = f.value(p_new)
            if f_new <= fp - required:
                fp = f_new
                break
            h *= ARMIJO_BACKTRACK
            s_new = None
        if s_new is None:
            break  # step underflow: no representable progress left
        s_prev, gq_prev = s, gq
        s = s_new
        p = sp.base + s[0] * q1 + s[1] * q2
        g = f.grad(p)
        grad_evals += 1
        iters += 1
        gq = np.array([float(g @ q1), float(g @ q2)])
        grad2 = np.array([float(g @ sp.v), float(g @ sp.w)])
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
    # map back to raw coordinates: (alpha, beta) solves R z = s
    beta = float(best_s[1] / r22)
    alpha = float((best_s[0] - r12 * beta) / r11)
    return PlaneSolution(alpha, beta, sp.point(alpha, beta),
                         best_residual, iters, grad_evals)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def segment_minimizer(f, x: np.ndarray, y: np.ndarray,
                      width_tol: float = 1e-12) -> np.ndarray:
    """Golden-section minimizer of f along the segment [x, y].

    Intended for the degenerate case where the two gradients are parallel
    and f(x) = f(y): strict convexity then makes the restriction unimodal
    with an interior minimum, so the result strictly decreases f.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    g = lambda lam: f.value(x + lam * d)
    lo, hi = 0.0, 1.0
    a = hi - GOLDEN * (hi - lo)
    b = lo + GOLDEN * (hi - lo)
    ga, gb = g(a), g(b)
    while (hi - lo) > width_tol:
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - GOLDEN * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + GOLDEN * (hi - lo)
            gb = g(b)
    lam = 0.5 * (lo + hi)
    return x + lam * d
