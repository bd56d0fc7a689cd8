"""Outer solvers: ellipcenter iteration, two gradient-descent baselines, and
Nesterov's strongly convex accelerated gradient, all under one trace format.

All four solvers run in one outer loop, ``_drive``.  It owns the evaluation
counters, the per-iterate records, the stopping tests and the mapping from
failures to :class:`RunStatus`.  A solver only supplies a step function that
turns the current iterate, its value and its gradient into the next iterate.
A single step from ``x`` is the run ``run_*(f, x, replace(cfg, max_outer=1))``.

Memory.  A run keeps O(n) arrays plus O(1) telemetry per iterate.  Each
accepted iterate, and the ellipcenter step's vectors, go to an optional
observer, ``run_*(f, x1, cfg, observe=fn)``, called as
``fn(k, x_k, f(x_k), grad f(x_k), step)``; :class:`History` is the observer
that keeps them all.

Evaluation accounting.  ``grad_evals_outer`` counts only the gradients the
method itself is defined by: two per ellipcenter iteration (one at the
iterate, one at the companion point), one per step for the baselines.
``grad_evals_total`` and ``value_evals_total`` count every full n-vector
evaluation, including the per-iterate stopping check.  The ellipcenter and
exact-linesearch steps probe f through a model of f on the span of their
gradients (``Objective.restrict``): the companion search, and one minimizer,
:func:`~.plane2d.minimize`, for the plane and the ray.  Those probes, cheap
for the problem families, are counted apart in ``restricted_evals_total``.
A plain :class:`Objective` has no such model, so its probes are full
evaluations and counted as such.
"""

from __future__ import annotations

import enum
import math
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .companion import companion_point
from .errors import (DegeneratePlaneError, InnerStallError, NonFiniteError,
                     NumericalFailureError, PrecisionFloorError)
from .objectives import CountingObjective, Objective
from .plane2d import minimize


class SolverId(str, enum.Enum):
    ME = "me"
    GD_L = "gd_l"
    GD_EXACT = "gd_exact"
    FAST_GD = "fast_gd"


class RunStatus(str, enum.Enum):
    """How a run ended.

    ``converged``: ||grad f|| <= eps.  ``max_iterations``: ``max_outer``
    steps without that.  ``inner_stall``: the plane search ended far from
    its tolerance.  ``numeric_failure``: the companion search found no
    bracket or ran out of bisections, or a curvature along the gradient was
    not positive.  ``non_finite``: a NaN or infinite value or gradient.
    ``precision_floor``: double precision cannot resolve the step: the
    companion bracket reached machine width above ``companion_tol``, or a
    step of ``me``, ``gd_exact`` or ``gd_l`` left the iterate bit-for-bit
    where it was.
    """

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INNER_STALL = "inner_stall"
    NUMERIC_FAILURE = "numeric_failure"
    NON_FINITE = "non_finite"
    PRECISION_FLOOR = "precision_floor"


@dataclass
class SolverConfig:
    """Tolerances and iteration caps shared by all solvers.

    ``eps`` is the outer stopping threshold on the gradient norm;
    ``companion_tol`` the relative level residual for the companion search;
    ``inner_tol`` the plane search's tolerance on its restricted gradient
    (scaled by the larger of the two spanning gradient norms);
    ``max_inner`` the cap on the Newton steps of the plane search and of the
    exact linesearch; ``ld_threshold`` the sin^2 cutoff below which the two
    gradients are treated as parallel.
    """

    eps: float = 1e-6
    max_outer: int = 100000
    companion_tol: float = 1e-12
    inner_tol: float = 1e-12
    max_inner: int = 10000
    ld_threshold: float = 1e-12

    def __post_init__(self):
        for name in ("eps", "companion_tol", "inner_tol", "ld_threshold"):
            value = getattr(self, name)
            if not (value > 0.0) or value == math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.max_outer >= 1 and self.max_inner >= 1):
            raise ValueError("iteration caps must be positive")


@dataclass
class IterateRecord:
    """Telemetry for one iterate, as :class:`IterateRecords` hands it out.

    ``t_k``, ``sin2_theta`` and ``li_flag`` describe the step taken *from*
    this iterate and stay ``None`` on the final record and for non-ellipcenter
    solvers.  ``ratio`` is the optimality-gap contraction of that step,
    filled post-hoc once a reference value is available.  Counters are
    cumulative over the run; ``restricted_evals_total`` counts the model
    values and gradients of the steps' searches.
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
    restricted_evals_total: int = 0


NO_STEP = 2  # the li_flag byte of an iterate with no step recorded
_LI_FLAG = (False, True, None)  # li_flag by its byte
_STEP = ("t_k", "sin2_theta", "li_flag")
_COUNTS = ("grad_evals_total", "value_evals_total", "restricted_evals_total")


class IterateRecords(Sequence):
    """A run's :class:`IterateRecord` telemetry in typed columns, 40 B per
    iterate: floats in ``array('d')``, counts in ``array('q')``, ``li_flag``
    in bytes.  ``k`` and ``grad_evals_outer`` follow from the index.  Step
    columns reach the last step written (``NO_STEP`` where an iterate has
    none), ``ratio`` (NaN for ``None``) what :meth:`set_ratios` wrote.  A
    read-only sequence of the records; ``column(name)`` reads one field."""

    def __init__(self, outer_grads: int = 1):
        self._outer = outer_grads
        self._cols = {name: array("q" if name in _COUNTS else "d") for name in
                      ("f_val", "grad_norm", "t_k", "sin2_theta", "ratio",
                       *_COUNTS)}
        self._cols["li_flag"] = array("B")

    def append(self, f_val: float, grad_norm: float, *counts: int) -> None:
        """Add an iterate, with no step: f, ||grad f|| and its counts."""
        cols = self._cols
        cols["f_val"].append(f_val)
        cols["grad_norm"].append(grad_norm)
        for name, count in zip(_COUNTS, counts):
            cols[name].append(count)

    def set_step(self, t: float, sin2_theta: float, li_flag: bool) -> None:
        """Write the step taken from the last iterate."""
        cols = self._cols
        pad = len(cols["f_val"]) - 1 - len(cols["li_flag"])
        for name, value in zip(_STEP, (t, sin2_theta, 1 if li_flag else 0)):
            if pad:
                cols[name].extend(repeat(NO_STEP, pad))
            cols[name].append(value)

    def set_ratios(self, ratios: Sequence[Optional[float]]) -> None:
        """Write the ratio column, from the first iterate on."""
        self._cols["ratio"] = array(
            "d", [math.nan if r is None else r for r in ratios])

    def column(self, name: str) -> list:
        """Field ``name`` of every iterate, ``None`` where a record has it."""
        n, cols = len(self), self._cols
        if name == "k":
            return list(range(1, n + 1))
        if name == "grad_evals_outer":
            return [self._outer * i for i in range(n)]
        if name == "li_flag":
            values = [_LI_FLAG[b] for b in cols[name]]
        elif name in _STEP:
            values = [None if b == NO_STEP else v
                      for v, b in zip(cols[name], cols["li_flag"])]
        else:
            values = [None if v != v else v for v in cols[name]] \
                if name == "ratio" else cols[name].tolist()
        return values + [None] * (n - len(values))

    def __len__(self) -> int:
        return len(self._cols["f_val"])

    def __getitem__(self, i):
        i = range(len(self))[i]  # IndexError and TypeError as a list's
        return list(map(self._record, i)) if isinstance(i, range) else \
            self._record(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _record(self, i: int) -> IterateRecord:
        cols = self._cols
        li = cols["li_flag"][i] if i < len(cols["li_flag"]) else NO_STEP
        step = [None if li == NO_STEP else cols[n][i] for n in _STEP[:2]]
        ratio = cols["ratio"][i] if i < len(cols["ratio"]) else math.nan
        return IterateRecord(
            i + 1, cols["f_val"][i], cols["grad_norm"][i], *step, _LI_FLAG[li],
            None if ratio != ratio else ratio, self._outer * i,
            *(cols[name][i] for name in _COUNTS))


@dataclass
class StepVectors:
    """The vectors of ellipcenter step ``k``, from iterate k to k + 1, handed
    to the run's observer with iterate k + 1.  They feed the orthogonality,
    Lipschitz-displacement and level-set audits."""

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
    """Record of one solver run: :class:`IterateRecords`, 40 B per iterate,
    and the final iterate.  ``iterates`` and ``step_data`` remain for
    callers that read them and stay empty; a caller that wants the history
    passes a :class:`History` observer to the run."""

    solver_id: SolverId
    records: IterateRecords
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


Observer = Callable[[int, np.ndarray, float, np.ndarray, Optional[StepVectors]],
                    None]


@dataclass
class History:
    """Observer that keeps a run's history: a copy of every iterate and,
    for an ellipcenter run, every step's :class:`StepVectors`.  It costs
    O(n) memory per step, so a run keeps it only when asked,
    ``run_*(f, x1, observe=History())``."""

    iterates: list[np.ndarray] = field(default_factory=list)
    step_data: list[StepVectors] = field(default_factory=list)

    def __call__(self, k, x, f_x, g, step) -> None:
        self.iterates.append(x.copy())
        if step is not None:
            self.step_data.append(step)


def _me_step(cf, k, x, f_x, v, cfg: SolverConfig):
    """Ellipcenter step k from (x, v = grad f(x)), on models of f only.

    The ray model ``cf.restrict(x, v)`` gives the companion point; the full
    gradient w there reuses the model's product.  The plane model, the ray
    extended by w, gives x_next through :func:`~.plane2d.minimize`, to
    ``inner_tol * max(||v||, ||w||)`` in at most ``max_inner`` Newton steps;
    a residual above ``STALL_FACTOR`` times that raises
    :class:`InnerStallError`.  Only the gradients at the companion point and
    at x_next are full evaluations.  When the two gradients are parallel, by
    ``ld_threshold`` or by a singular plane Hessian, the plane is the line
    along v, and the step is the exact-linesearch step on the ray model."""
    ray = cf.restrict(x, v, f_x=f_x, grad_x=v)
    comp = companion_point(ray, tol=cfg.companion_tol, f_x=f_x)
    w = cf.grad(comp.y)
    plane = ray.extend(w)
    sin2_theta = plane.sin2_theta
    li = sin2_theta >= cfg.ld_threshold
    if li:
        (vv, _), (_, ww) = plane.gram
        tol = cfg.inner_tol * math.sqrt(max(vv, ww))
        try:
            z = minimize(plane, tol, cfg.max_inner, f_x, stall=True)
            x_next = plane.point(*z)
        except DegeneratePlaneError:
            li = False
    if not li:
        x_next = _exact_linesearch(ray, f_x, cfg)
    g_next = cf.grad(x_next)
    return x_next, g_next, StepVectors(
        k=k, v=v, w=w, grad_next=g_next, dx=x_next - x, t=comp.t, li_flag=li,
        sin2_theta=sin2_theta, level_residual=comp.level_residual)


def _gd_l_step(cf, k, x, f_x, v, cfg):
    """Fixed step 1/lip along the negative gradient."""
    return x - v / cf.lip, None, None


def _exact_linesearch(ray, f_x, cfg):
    """``x - t* v`` on the ray model ``x + span(v)``, t* the root of
    <grad f(x - t v), v>, by :func:`~.plane2d.minimize`.

    An exact quadratic model gives t* = <grad f(x), v> / (v'Av).  Otherwise
    the search targets |<g, v>| <= 1e-12 ||v||^2 in at most ``max_inner``
    Newton steps; when rounding keeps the slope above that, it ends at its
    rounding floor and takes its best point, never a stall.
    """
    z = minimize(ray, 1e-12 * ray.gram[0][0], cfg.max_inner, f_x)
    return ray.point(*z)


def _gd_exact_step(cf, k, x, f_x, v, cfg):
    """Step to the minimizer of f along the negative gradient."""
    return _exact_linesearch(cf.restrict(x, v, grad_x=v), f_x, cfg), None, None


def _drive(solver_id: SolverId, f: Objective, x1: np.ndarray,
           cfg: SolverConfig | None, step, observe: Observer | None, *,
           outer_grads: int = 1, non_monotone_ok: bool = False) -> RunTrace:
    """The outer loop of every solver.

    Evaluates ``x1``, then runs ``step(cf, k, x_k, f(x_k), grad f(x_k), cfg)
    -> (x_next, g_next, info)`` for k = 1, 2, ... until ||grad f|| <= eps or
    ``max_outer`` steps.  ``g_next`` is the gradient at ``x_next`` if the step
    has it, else ``None``; ``info`` is the ellipcenter step's
    :class:`StepVectors`, else ``None``.  Each step adds ``outer_grads`` to
    ``grad_evals_outer``.  The run starts from a model at ``x1`` with no
    direction, so its first data product is formed exactly whatever the
    objective evaluated before.  Each accepted iterate k goes to
    ``observe(k, x_k, f(x_k), grad f(x_k), info)``, with ``info`` the step
    that produced it (``None`` for k = 1); the loop keeps no earlier vector.
    An inner stall, a numerical failure, a level set below double precision
    or a non-finite value or gradient ends the run at the last good iterate
    with the matching status; a non-finite start raises
    :class:`NonFiniteError`.  The run sits in ``np.errstate(over="ignore")``,
    entered once, so a finite gradient whose ||g||^2 overflows is recorded
    with norm inf instead of raising under warnings-as-errors.  Unless
    ``non_monotone_ok``, a step that returns ``x_next`` bit-equal to ``x_k``
    without lowering f also ends the run there, ``precision_floor``: such a
    step depends only on (x_k, f, grad f(x_k)), so the next one would return
    x_k again (up to the rounding of a carried data product), to
    ``max_outer``.  ``run_fast_gd``, the one non-monotone solver, is exempt,
    since its momentum can still move it.  Equality is tested only when f
    does not fall, so a descending step pays nothing.
    """
    cfg = cfg or SolverConfig()
    cf = CountingObjective(f)
    records = IterateRecords(outer_grads)

    def record_iterate(k, x, f_x, g, info) -> float:
        grad_norm = cf.grad_norm(g)
        records.append(f_x, grad_norm, cf.grad_evals, cf.value_evals,
                       cf.restricted_evals)
        if observe is not None:
            observe(k, x, f_x, g, info)
        return grad_norm

    with np.errstate(over="ignore"):  # ||g||^2 may overflow to inf
        x = np.asarray(x1, dtype=float).copy()
        cf.restrict(x)
        fx = cf.value(x)
        v = cf.grad(x)
        k = 1
        grad_norm = record_iterate(k, x, fx, v, None)
        status = RunStatus.CONVERGED
        while grad_norm > cfg.eps:
            if k > cfg.max_outer:
                status = RunStatus.MAX_ITERATIONS
                break
            try:
                x_next, v_next, info = step(cf, k, x, fx, v, cfg)
                f_next = cf.value(x_next)
                if (not non_monotone_ok and f_next >= fx
                        and np.array_equal(x_next, x)):
                    raise PrecisionFloorError("the step left the iterate "
                                              "unchanged")
                if v_next is None:
                    v_next = cf.grad(x_next)
            except InnerStallError:
                status = RunStatus.INNER_STALL
                break
            except PrecisionFloorError:
                status = RunStatus.PRECISION_FLOOR
                break
            except NumericalFailureError:
                status = RunStatus.NUMERIC_FAILURE
                break
            except NonFiniteError:
                status = RunStatus.NON_FINITE
                break
            if info is not None:
                records.set_step(info.t, info.sin2_theta, info.li_flag)
            x, fx, v, k = x_next, f_next, v_next, k + 1
            grad_norm = record_iterate(k, x, fx, v, info)
    return RunTrace(solver_id, records, status, x, replace(cfg),
                    non_monotone_ok=non_monotone_ok)


def run_me(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None, *,
           observe: Observer | None = None) -> RunTrace:
    """Run the ellipcenter method until ||grad f|| <= eps or max_outer."""
    return _drive(SolverId.ME, f, x1, cfg, _me_step, observe, outer_grads=2)


def run_gd_l(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None, *,
             observe: Observer | None = None) -> RunTrace:
    """Gradient descent with fixed step 1/lip."""
    return _drive(SolverId.GD_L, f, x1, cfg, _gd_l_step, observe)


def run_gd_exact(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None,
                 *, observe: Observer | None = None) -> RunTrace:
    """Gradient descent with an exact linesearch along the negative gradient.

    The step length zeroes the directional derivative along the ray, so each
    new gradient is orthogonal to the one before it.
    """
    return _drive(SolverId.GD_EXACT, f, x1, cfg, _gd_exact_step, observe)


def run_fast_gd(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None,
                *, observe: Observer | None = None) -> RunTrace:
    """Nesterov's accelerated gradient, strongly convex constant-momentum form.

    z1 = x1;  x_{k+1} = z_k - (1/lip) grad f(z_k);
    z_{k+1} = x_{k+1} + ((sqrt(kappa)-1)/(sqrt(kappa)+1)) (x_{k+1} - x_k).

    Stops on the gradient norm at the x-iterates.  The objective values along
    the trace may be non-monotone (momentum overshoot), which the returned
    trace flags via ``non_monotone_ok``.  A step that leaves x where it was
    does not end the run ``precision_floor``, as it does for the other
    solvers: the momentum can still move the next one.

    Step k forms z_k from (x_k, x_{k-1}) with ``f.extrapolate``, after the
    loop has evaluated x_k.  A problem then holds the exact data products of
    both iterates and hands z_k the product A x_k + beta (A x_k - A x_{k-1}),
    so grad f(z_k) makes no new forward pass: a logistic step makes 3 passes
    over the data (a @ x_{k+1} and two a.T products), a quadratic step 1
    matvec.  If either product is missing, say because an observer
    evaluated f elsewhere, grad f(z_k) forms A z_k exactly.
    """
    sqrt_kappa = np.sqrt(f.lip / f.mu)
    momentum = (sqrt_kappa - 1.0) / (sqrt_kappa + 1.0)
    x_prev = None

    def step(cf, k, x, f_x, v, cfg):
        nonlocal x_prev
        if k == 1:  # z1 = x1, so reuse the first gradient
            z, gz = x, v
        else:
            z = cf.extrapolate(x, x_prev, momentum)
            gz = cf.grad(z)
        x_prev = x
        return z - gz / cf.lip, None, None

    return _drive(SolverId.FAST_GD, f, x1, cfg, step, observe,
                  non_monotone_ok=True)


RUNNERS = {
    SolverId.ME: run_me,
    SolverId.GD_L: run_gd_l,
    SolverId.GD_EXACT: run_gd_exact,
    SolverId.FAST_GD: run_fast_gd,
}
