"""Outer solvers: ellipcenter iteration, two gradient-descent baselines, and
Nesterov's strongly convex accelerated gradient, all under one trace format.

All four solvers run in one outer loop, ``_drive``.  It owns the evaluation
counters, the per-iterate records, the stopping tests and the mapping from
failures to :class:`RunStatus`.  A solver only supplies a step function that
turns the current iterate, its value and its gradient into the next iterate.
A single step from ``x`` is the run ``run_*(f, x, replace(cfg, max_outer=1))``.

Memory.  A run keeps O(n) arrays plus O(1) telemetry per iterate.  Each
accepted iterate (read-only, so an observer cannot write into the run's
point) and the ellipcenter step's vectors go to an optional observer,
``run_*(f, x1, cfg, observe=fn)``, called as ``fn(k, x_k, f(x_k),
grad f(x_k), step)``; :class:`History` is the observer that keeps them all.

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
from itertools import accumulate, chain, count, islice, repeat
from typing import Callable, Optional

import numpy as np

from .companion import companion_point
from .errors import (DegeneratePlaneError, InnerStallError, NonFiniteError,
                     NumericalFailureError)
from .objectives import CountingObjective, Objective
from .plane2d import minimize

INNER_TOL = 1e-12  # plane search stop, relative to the larger gradient norm
LD_THRESHOLD = 1e-12  # sin^2 below which the two gradients count as parallel


class SolverId(str, enum.Enum):
    ME = "me"
    GD_L = "gd_l"
    GD_EXACT = "gd_exact"
    FAST_GD = "fast_gd"


class RunStatus(str, enum.Enum):
    """How a run ended.

    ``converged``: ||grad f|| <= eps.  ``max_iterations``: ``max_outer``
    steps without that.  ``inner_stall``: the plane search ended far above
    ``INNER_TOL``.  ``numeric_failure``: the companion search found no level
    crossing within its probe cap or met a NaN level, or a curvature along
    the gradient was not positive.  ``non_finite``: a NaN or infinite value
    or gradient.  ``precision_floor``: double precision cannot resolve the
    step: the companion search's bracket reached machine width above
    ``companion.TOL``, or a step of ``me``, ``gd_exact`` or ``gd_l`` left
    the iterate bit-for-bit where it was.
    """

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    INNER_STALL = "inner_stall"
    NUMERIC_FAILURE = "numeric_failure"
    NON_FINITE = "non_finite"
    PRECISION_FLOOR = "precision_floor"


@dataclass
class SolverConfig:
    """The two settings of a run, shared by all solvers: ``eps``, the outer
    stopping threshold on the gradient norm, and ``max_outer``, the cap on
    the outer steps.  The inner searches' tolerances and caps are module
    constants: ``companion.TOL``, ``plane2d.MAX_NEWTON``, ``INNER_TOL`` and
    ``LD_THRESHOLD``.
    """

    eps: float = 1e-6
    max_outer: int = 100000

    def __post_init__(self):
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not self.max_outer >= 1:
            raise ValueError(f"max_outer must be at least 1, got {self.max_outer}")


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


_STEP = ("t_k", "sin2_theta", "li_flag")
_FLOATS = ("f_val", "grad_norm", "t_k", "sin2_theta", "ratio")
_COUNTS = ("grad_evals_total", "value_evals_total", "restricted_evals_total")


class IterateRecords(Sequence):
    """A run's :class:`IterateRecord` telemetry in typed columns: floats in
    ``array('d')``, ``li_flag`` in bytes, and each count as its total and
    runs of equal increments: the open one as its increment and first index,
    closed ones as (increment, length) byte pairs, ``array('q')`` once an
    increment does not fit, lengths split at 255.  A constant count costs no
    bytes, a change 2 B; a run ~17 B per iterate, a step 17 B more.  The last
    record reads the totals in O(1); other reads expand the runs once."""

    __slots__ = ("_outer", "_cols", "_since", "_steps", "_totals")

    def __init__(self, outer_grads: int = 1):
        self._outer = outer_grads
        self._cols = {name: array("d" if name in _FLOATS else "B")
                      for name in (*_FLOATS, "li_flag", *_COUNTS)}
        self._since, self._totals, self._steps = [0] * 3, (0,) * 3, (0,) * 3

    def append(self, f_val: float, grad_norm: float, *counts: int) -> None:
        """Add an iterate, with no step: f, ||grad f|| and its counts."""
        cols = self._cols
        cols["f_val"].append(f_val)
        cols["grad_norm"].append(grad_norm)
        # built at its size: a resized tuple(map(...)) moves gc's count
        steps = (*map(operator.sub, counts, self._totals),)
        if steps != self._steps:
            i, since = len(cols["f_val"]) - 1, self._since
            for j, old in enumerate(self._steps):
                if old != steps[j] and i:  # close count j's open run
                    runs, n, since[j] = cols[_COUNTS[j]], i - since[j], i
                    if not 0 <= old < 256 and runs.typecode == "B":  # widen
                        runs = cols[_COUNTS[j]] = array("q", runs)
                    while n > 255:  # split at 255
                        runs.extend((old, 255))
                        n -= 255
                    runs.append(old)
                    runs.append(n)
        self._steps, self._totals = steps, counts

    def set_step(self, t: float, sin2_theta: float, li_flag: bool) -> None:
        """Write the step taken from the last iterate, once every earlier
        iterate has its step (else ``ValueError``)."""
        cols = self._cols
        if len(cols["li_flag"]) != len(cols["f_val"]) - 1:
            raise ValueError("a step is written once per iterate, in order")
        for name, value in zip(_STEP, (t, sin2_theta, 1 if li_flag else 0)):
            cols[name].append(value)

    def set_ratios(self, ratios: Sequence[Optional[float]]) -> None:
        """Write the ratio column from the first iterate on, NaN for None."""
        self._cols["ratio"] = array(
            "d", [math.nan if r is None else r for r in ratios])

    def column(self, name: str) -> list:
        """Field ``name`` of every iterate, ``None`` where a record has it."""
        n, cols = len(self), self._cols
        if name == "k":
            return list(range(1, n + 1))
        if name == "grad_evals_outer":
            return [self._outer * i for i in range(n)]
        if name in _COUNTS:
            return list(self._running()[_COUNTS.index(name)])
        if name == "li_flag":
            values = list(map(bool, cols[name]))
        else:
            values = [None if v != v else v for v in cols[name]] \
                if name == "ratio" else cols[name].tolist()
        return values + [None] * (n - len(values))

    def __len__(self) -> int:
        return len(self._cols["f_val"])

    def __iter__(self):
        return map(self._record, count(), *self._running())

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        i = range(len(self))[i]  # IndexError and TypeError as a list's
        if i == len(self) - 1:
            return self._record(i, *self._totals)
        return self._record(i, *(next(islice(c, i, None))
                                 for c in self._running()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def _running(self) -> list:
        """Each count's running totals, over its runs and then its open one."""
        runs = (iter(self._cols[name]) for name in _COUNTS)  # read in pairs
        return [accumulate(chain(chain.from_iterable(map(repeat, it, it)),
                                 repeat(step, len(self) - since)))
                for it, step, since in zip(runs, self._steps, self._since)]

    def _record(self, i: int, *counts: int) -> IterateRecord:
        cols = self._cols
        step = (cols["t_k"][i], cols["sin2_theta"][i], bool(cols["li_flag"][i])) \
            if i < len(cols["li_flag"]) else (None,) * 3
        ratio = cols["ratio"][i] if i < len(cols["ratio"]) else math.nan
        return IterateRecord(
            i + 1, cols["f_val"][i], cols["grad_norm"][i], *step,
            None if ratio != ratio else ratio, self._outer * i, *counts)


@dataclass
class StepVectors:
    """The vectors of ellipcenter step ``k``, from iterate k to k + 1, handed
    to the run's observer with iterate k + 1, and formed only for one.  They
    feed the orthogonality, Lipschitz-displacement and level-set audits."""

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
    """Record of one solver run: :class:`IterateRecords`, ~17 B per iterate
    (``gd_l``, ``gd_exact``; ``me`` adds 17 B for its step), and the final
    iterate, read-only like every iterate a run hands out.  ``iterates`` and
    ``step_data`` remain for callers that read them and stay empty; a caller
    that wants the history passes a :class:`History` observer to the run."""

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
    """Observer that keeps a run's history: a writable copy of every
    iterate and, for an ellipcenter run, every step's :class:`StepVectors`.
    It costs O(n) memory per step, so a run keeps it only when asked,
    ``run_*(f, x1, observe=History())``."""

    iterates: list[np.ndarray] = field(default_factory=list)
    step_data: list[StepVectors] = field(default_factory=list)

    def __call__(self, k, x, f_x, g, step) -> None:
        self.iterates.append(x.copy())
        if step is not None:
            self.step_data.append(step)


def _me_step(cf, x, f_x, v):
    """Ellipcenter step from (x, v = grad f(x)), on models of f only.

    The ray model ``cf.restrict(x, v)`` gives the companion point; the full
    gradient w there reuses the model's product.  The plane model, the ray
    extended by w, gives x_next through :func:`~.plane2d.minimize`, to
    ``INNER_TOL * max(||v||, ||w||)`` in at most ``plane2d.MAX_NEWTON``
    Newton steps; a residual above ``STALL_FACTOR`` times that raises
    :class:`InnerStallError`.  Only the gradient at the companion point is a
    full evaluation.  When the two gradients are parallel, by
    ``LD_THRESHOLD`` or by a singular plane Hessian, the plane is the line
    along v, and the step is the exact-linesearch step on the ray model.
    The step's ``info`` is ``(w, t, li_flag, sin2_theta, level_residual)``;
    y goes once w is formed, and the models, which die when the step
    returns, before ``_drive`` takes the gradient at x_next.  ``x`` and
    x_next are point records, which carry their data products."""
    ray = cf.restrict(x, v, f_x=f_x, grad_x=v)
    comp = companion_point(ray, f_x=f_x)
    t, level_residual = comp.t, comp.level_residual
    w = cf.grad(comp.y)
    del comp  # and with it y
    plane = ray.extend(w)
    sin2_theta = plane.sin2_theta
    li = sin2_theta >= LD_THRESHOLD
    if li:
        (vv, _), (_, ww) = plane.gram
        tol = INNER_TOL * math.sqrt(max(vv, ww))
        try:
            z = minimize(plane, tol, f_x, stall=True)
            x_next = plane.point(*z)
        except DegeneratePlaneError:
            li = False
    if not li:
        x_next = _exact_linesearch(ray, f_x)
    return x_next, (w, t, li, sin2_theta, level_residual)


def _exact_linesearch(ray, f_x):
    """``x - t* v`` on the ray model ``x + span(v)``, t* the root of
    <grad f(x - t v), v>, by :func:`~.plane2d.minimize`.

    An exact quadratic model gives t* = <grad f(x), v> / (v'Av).  Otherwise
    the search targets |<g, v>| <= 1e-12 ||v||^2 in at most
    ``plane2d.MAX_NEWTON`` Newton steps; when rounding keeps the slope above
    that, it ends at its rounding floor and takes its best point, never a
    stall.
    """
    z = minimize(ray, 1e-12 * ray.gram[0][0], f_x)
    return ray.point(*z)


def _gd_exact_step(cf, x, f_x, v):
    """Step to the minimizer of f along the negative gradient."""
    return _exact_linesearch(cf.restrict(x, v, grad_x=v), f_x), None


def _drive(solver_id: SolverId, f: Objective, x1: np.ndarray,
           cfg: SolverConfig | None, step, observe: Observer | None, *,
           outer_grads: int = 1, non_monotone_ok: bool = False) -> RunTrace:
    """The outer loop of every solver.

    Evaluates ``x1``, then runs ``step(cf, x_k, f(x_k), grad f(x_k)) ->
    (x_next, info)`` for k = 1, 2, ... until ||grad f|| <= eps or
    ``max_outer`` steps; a step only moves the iterate, and the loop takes f
    and then grad f at every ``x_next``, recording the norm of that last
    gradient.  ``info`` is the ellipcenter step's w and scalars (see
    :func:`_me_step`), else ``None``.  Each step adds ``outer_grads`` to
    ``grad_evals_outer``.  The loop keeps x_k as a point record, which
    carries its data product: a step gets it so, and returns x_next as a
    record (a model point) or as an array, whose product the loop forms
    once for both evaluations.  The run starts from a copy of ``x1``.
    Each accepted iterate k is made read-only, so that an observer cannot
    write into the run's own x_k, and goes to
    ``observe(k, x_k, f(x_k), grad f(x_k), step)``, with ``step`` the
    :class:`StepVectors` of the step that produced it, formed only for an
    observer (``None`` for k = 1 and the baselines).  The loop keeps no
    earlier vector: step k's are released before step k + 1 runs.
    An inner stall, a numerical failure, a level set below double precision
    or a non-finite value or gradient ends the run at the last good iterate
    with the error's ``status``; a non-finite start raises
    :class:`NonFiniteError`, and one not of shape ``(f.dim,)``
    ``ValueError``.  The run sits in ``np.errstate(over="ignore")``, entered
    once, so a finite gradient whose ||g||^2 overflows is recorded
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

    def record_iterate(k, point, f_x, g, info) -> float:
        grad_norm = cf.grad_norm()
        records.append(f_x, grad_norm, cf.grad_evals, cf.value_evals,
                       cf.restricted_evals)
        point.x.setflags(write=False)
        if observe is not None:
            observe(k, point.x, f_x, g, info)
        return grad_norm

    with np.errstate(over="ignore"):  # ||g||^2 may overflow to inf
        x = f._point(np.array(x1, dtype=float))
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
                x_next, info = step(cf, x, fx, v)
                x_next = f._point(x_next)
                f_next = cf.value(x_next)
                if (not non_monotone_ok and f_next >= fx
                        and np.array_equal(x_next.x, x.x)):
                    status = RunStatus.PRECISION_FLOOR
                    break
                v_next = cf.grad(x_next)
            except (InnerStallError, NumericalFailureError,
                    NonFiniteError) as exc:
                status = RunStatus(exc.status)
                break
            if info is not None:
                t, li, sin2_theta, level_residual = info[1:]
                records.set_step(t, sin2_theta, li)
                info = None if observe is None else StepVectors(
                    k, v, info[0], v_next, x_next.x - x.x, t, li, sin2_theta,
                    level_residual)
            x, fx, v, k = x_next, f_next, v_next, k + 1
            grad_norm = record_iterate(k, x, fx, v, info)
            del info  # step k's vectors die before step k + 1 runs
    return RunTrace(solver_id, records, status, x.x, replace(cfg),
                    non_monotone_ok=non_monotone_ok)


def run_me(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None, *,
           observe: Observer | None = None) -> RunTrace:
    """Run the ellipcenter method until ||grad f|| <= eps or max_outer."""
    return _drive(SolverId.ME, f, x1, cfg, _me_step, observe, outer_grads=2)


def run_gd_l(f: Objective, x1: np.ndarray, cfg: SolverConfig | None = None, *,
             observe: Observer | None = None) -> RunTrace:
    """Gradient descent with fixed step 1/lip."""
    def step(cf, x, f_x, v):
        return x.x - v / f.lip, None

    return _drive(SolverId.GD_L, f, x1, cfg, step, observe)


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

    Step k forms z_k from (x_k, x_{k-1}) with ``f.extrapolate``.  Both
    iterates carry the exact data products the loop formed for them, so z_k
    carries A x_k + beta (A x_k - A x_{k-1}) and grad f(z_k) makes no new
    forward pass: a logistic step makes 3 passes over the data (a @ x_{k+1}
    and two a.T products), a quadratic step 1 matvec.
    """
    sqrt_kappa = np.sqrt(f.lip / f.mu)
    momentum = (sqrt_kappa - 1.0) / (sqrt_kappa + 1.0)
    x_prev = None

    def step(cf, x, f_x, v):
        nonlocal x_prev
        z = x if x_prev is None else f.extrapolate(x, x_prev, momentum)
        x_prev = x  # x_{k-1} and its product go before grad f(z) is formed
        gz = v if z is x else cf.grad(z)  # z1 = x1: reuse the first gradient
        x_next = gz / f.lip
        return np.subtract(z.x, x_next, out=x_next), None

    return _drive(SolverId.FAST_GD, f, x1, cfg, step, observe,
                  non_monotone_ok=True)


RUNNERS = {
    SolverId.ME: run_me,
    SolverId.GD_L: run_gd_l,
    SolverId.GD_EXACT: run_gd_exact,
    SolverId.FAST_GD: run_fast_gd,
}
