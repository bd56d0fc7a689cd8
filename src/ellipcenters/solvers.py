"""Outer solvers: ellipcenter iteration, two gradient-descent baselines, and
Nesterov's strongly convex accelerated gradient, all under one trace format.

All four solvers run in one outer loop, ``_drive``.  It owns the evaluation
counters, the per-iterate records, the stored iterates and step vectors, the
stopping tests and the mapping from failures to :class:`RunStatus`.  A solver
only supplies a step function that turns the current iterate, its value and
its gradient into the next iterate.  A single step from ``x`` is the run
``run_*(f, x, replace(cfg, max_outer=1))``.

Gradient accounting uses two counters.  ``grad_evals_outer`` counts only the
gradients the method itself is defined by: two per ellipcenter iteration (one
at the iterate, one at the companion point), one per step for the baselines.
``grad_evals_total`` counts every actual gradient call, including line-search
probes, inner 2-D solver iterations, and the per-iterate stopping check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .companion import CompanionResult, companion_point, ray_root
from .errors import (DegeneratePlaneError, InnerStallError, NonFiniteError,
                     NumericalFailureError)
from .objectives import CountingObjective, Objective
from .plane2d import PlaneSubproblem, solve_gd_armijo, solve_newton_quadratic


class SolverId(str, enum.Enum):
    ME = "me"
    GD_L = "gd_l"
    GD_EXACT = "gd_exact"
    FAST_GD = "fast_gd"


class RunStatus(str, enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INNER_STALL = "inner_stall"
    NUMERIC_FAILURE = "numeric_failure"
    NON_FINITE = "non_finite"


@dataclass
class SolverConfig:
    """Tolerances and iteration caps shared by all solvers.

    ``eps`` is the outer stopping threshold on the gradient norm;
    ``companion_tol`` the relative level residual for the companion search;
    ``inner_tol`` the 2-D solver gradient tolerance (scaled by the larger of
    the two spanning gradient norms); ``ld_threshold`` the sin^2 cutoff below
    which the two gradients are treated as parallel.
    """

    eps: float = 1e-6
    max_outer: int = 100000
    companion_tol: float = 1e-12
    inner_tol: float = 1e-12
    max_inner: int = 10000
    ld_threshold: float = 1e-12

    def __post_init__(self):
        for name in ("eps", "companion_tol", "inner_tol", "ld_threshold"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("iteration caps must be positive")


@dataclass
class IterateRecord:
    """Telemetry for one iterate.

    ``t_k``, ``sin2_theta`` and ``li_flag`` describe the step taken *from*
    this iterate and stay ``None`` on the final record and for non-ellipcenter
    solvers.  ``ratio`` is the optimality-gap contraction of that step,
    filled post-hoc once a reference value is available.  Counters are
    cumulative over the run.
    """

    k: int
    f_val: float
    grad_norm: float
    t_k: Optional[float] = None
    sin2_theta: Optional[float] = None
    li_flag: Optional[bool] = None
    ratio: Optional[float] = None
    grad_evals_outer: int = 0
    grad_evals_total: int = 0
    value_evals_total: int = 0


@dataclass
class StepVectors:
    """Raw per-step vectors kept alongside an ellipcenter trace so that the
    orthogonality, Lipschitz-displacement and level-set audits can run
    without re-executing the solver."""

    k: int
    v: np.ndarray
    w: np.ndarray
    grad_next: np.ndarray
    dx: np.ndarray
    t: float
    li_flag: bool
    sin2_theta: float
    level_residual: float


@dataclass
class RunTrace:
    """Full record of one solver run."""

    solver_id: SolverId
    records: list[IterateRecord]
    status: RunStatus
    x_final: np.ndarray
    config: SolverConfig
    iterates: list[np.ndarray] = field(default_factory=list)
    step_data: list[StepVectors] = field(default_factory=list)
    non_monotone_ok: bool = False

    @property
    def iterations(self) -> int:
        return len(self.records) - 1

    @property
    def converged(self) -> bool:
        return self.status is RunStatus.CONVERGED


def _me_step(cf, k, x, f_x, v, cfg: SolverConfig):
    """Ellipcenter step k from (x, v = grad f(x)): companion point, then the
    plane minimizer.  On a quadratic both have closed forms that share one
    product A v: the crossing t = 2 ||v||^2 / (v'Av) and one Newton solve.
    Otherwise they are ``companion_point`` and Armijo descent.  When the two
    gradients are parallel the plane is the line along v, and the step is
    the exact-linesearch step."""
    quad = cf.quadratic_view
    if quad is None:
        comp = companion_point(cf, x, v, tol=cfg.companion_tol, f_x=f_x)
    else:
        av = quad.a_matrix @ v
        vav = float(v @ av)
        if not vav > 0.0:
            raise NumericalFailureError(f"v'Av = {vav:.3e} is not positive")
        t = 2.0 * float(v @ v) / vav
        y = x - t * v
        residual = abs(cf.value(y) - f_x) / max(1.0, abs(f_x))
        comp = CompanionResult(t, y, residual, 0)
    w = cf.grad(comp.y)
    sp = PlaneSubproblem(x, v, w)
    li = sp.sin2_theta >= cfg.ld_threshold
    if li:
        try:
            if quad is not None:
                sol = solve_newton_quadratic(sp, av, quad.a_matrix @ w)
            else:
                sol = solve_gd_armijo(cf, sp, inner_tol=cfg.inner_tol,
                                      max_inner=cfg.max_inner, f_base=f_x)
            x_next, g_next = sol.x_next, cf.grad(sol.x_next)
        except DegeneratePlaneError:
            li = False
    if not li:
        x_next, g_next = _exact_linesearch(cf, x, v)
    return x_next, g_next, StepVectors(
        k=k, v=v, w=w, grad_next=g_next, dx=x_next - x, t=comp.t, li_flag=li,
        sin2_theta=sp.sin2_theta, level_residual=comp.level_residual)


def _gd_l_step(cf, k, x, f_x, v, cfg):
    """Fixed step 1/lip along the negative gradient."""
    return x - v / cf.lip, None, None


def _exact_linesearch(cf, x, v):
    """``(x - t* v, grad f(x - t* v))``, t* the root of <grad f(x - t v), v>.

    A quadratic takes the closed form t* = ||v||^2 / (v'Av).  Otherwise
    ``ray_root`` targets |<g, v>| <= 1e-12 ||v||^2 from t = 1/lip; when
    gradient rounding keeps the derivative above that, the bracket collapses
    to machine width and its smallest-|<g, v>| probe is taken.
    """
    vv = float(v @ v)
    quad = cf.quadratic_view
    if quad is not None:
        x_next = x - vv / float(v @ (quad.a_matrix @ v)) * v
        return x_next, cf.grad(x_next)

    def slope(t):
        g = cf.grad(x - t * v)
        return -float(g @ v), g

    t, _, g, _ = ray_root(slope, 1.0 / cf.lip, 1e-12 * vv)
    return x - t * v, g


def _gd_exact_step(cf, k, x, f_x, v, cfg):
    """Step to the minimizer of f along the negative gradient."""
    return (*_exact_linesearch(cf, x, v), None)


def _drive(solver_id: SolverId, f: Objective, x1: np.ndarray,
           cfg: SolverConfig | None, step, *, outer_grads: int = 1,
           non_monotone_ok: bool = False) -> RunTrace:
    """The outer loop of every solver.

    Evaluates ``x1``, then runs ``step(cf, k, x_k, f(x_k), grad f(x_k), cfg)
    -> (x_next, g_next, info)`` for k = 1, 2, ... until ||grad f|| <= eps or
    ``max_outer`` steps.  ``g_next`` is the gradient at ``x_next`` if the step
    has it, else ``None``; ``info`` is the ellipcenter step's
    :class:`StepVectors`, else ``None``.  Each step adds ``outer_grads`` to
    ``grad_evals_outer``.  An inner stall, a numerical failure or a
    non-finite value or gradient ends the run at the last good iterate with
    the matching status; a non-finite start raises :class:`NonFiniteError`.
    """
    cfg = cfg or SolverConfig()
    cf = CountingObjective(f)
    records: list[IterateRecord] = []
    iterates: list[np.ndarray] = []
    step_data: list[StepVectors] = []

    def record_iterate(x, f_x, g):
        records.append(IterateRecord(
            k=len(records) + 1, f_val=f_x, grad_norm=float(np.linalg.norm(g)),
            grad_evals_outer=outer_grads * len(records),
            grad_evals_total=cf.grad_evals, value_evals_total=cf.value_evals))
        iterates.append(x.copy())

    x = np.asarray(x1, dtype=float).copy()
    fx = cf.value(x)
    v = cf.grad(x)
    record_iterate(x, fx, v)
    status = RunStatus.CONVERGED
    while records[-1].grad_norm > cfg.eps:
        if len(records) > cfg.max_outer:
            status = RunStatus.MAX_ITERATIONS
            break
        try:
            x_next, v_next, info = step(cf, len(records), x, fx, v, cfg)
            f_next = cf.value(x_next)
            if v_next is None:
                v_next = cf.grad(x_next)
        except InnerStallError:
            status = RunStatus.INNER_STALL
            break
        except NumericalFailureError:
            status = RunStatus.NUMERIC_FAILURE
            break
        except NonFiniteError:
            status = RunStatus.NON_FINITE
            break
        if info is not None:
            records[-1].t_k = info.t
            records[-1].sin2_theta = info.sin2_theta
            records[-1].li_flag = info.li_flag
            step_data.append(info)
        x, fx, v = x_next, f_next, v_next
        record_iterate(x, fx, v)
    return RunTrace(solver_id, records, status, x, replace(cfg),
                    iterates=iterates, step_data=step_data,
                    non_monotone_ok=non_monotone_ok)


def run_me(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None) -> RunTrace:
    """Run the ellipcenter method until ||grad f|| <= eps or max_outer."""
    return _drive(SolverId.ME, f, x1, cfg, _me_step, outer_grads=2)


def run_gd_l(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None) -> RunTrace:
    """Gradient descent with fixed step 1/lip."""
    return _drive(SolverId.GD_L, f, x1, cfg, _gd_l_step)


def run_gd_exact(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None) -> RunTrace:
    """Gradient descent with an exact linesearch along the negative gradient.

    The step length zeroes the directional derivative along the ray, so each
    new gradient is orthogonal to the one before it.
    """
    return _drive(SolverId.GD_EXACT, f, x1, cfg, _gd_exact_step)


def run_fast_gd(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None) -> RunTrace:
    """Nesterov's accelerated gradient, strongly convex constant-momentum form.

    z1 = x1;  x_{k+1} = z_k - (1/lip) grad f(z_k);
    z_{k+1} = x_{k+1} + ((sqrt(kappa)-1)/(sqrt(kappa)+1)) (x_{k+1} - x_k).

    Stops on the gradient norm at the x-iterates.  The objective values along
    the trace may be non-monotone (momentum overshoot), which the returned
    trace flags via ``non_monotone_ok``.
    """
    sqrt_kappa = np.sqrt(f.lip / f.mu)
    momentum = (sqrt_kappa - 1.0) / (sqrt_kappa + 1.0)
    z = np.asarray(x1, dtype=float)

    def step(cf, k, x, f_x, v, cfg):
        nonlocal z
        gz = v if k == 1 else cf.grad(z)  # z1 = x1, so reuse the first gradient
        x_next = z - gz / cf.lip
        z = x_next + momentum * (x_next - x)
        return x_next, None, None

    return _drive(SolverId.FAST_GD, f, x1, cfg, step, non_monotone_ok=True)


RUNNERS = {
    SolverId.ME: run_me,
    SolverId.GD_L: run_gd_l,
    SolverId.GD_EXACT: run_gd_exact,
    SolverId.FAST_GD: run_fast_gd,
}
