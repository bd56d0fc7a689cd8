import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (Objective, QuadraticProblem, RunStatus, SolverConfig,
                          SolverId, compute_reference, generate_logreg,
                          generate_quadratic, run_fast_gd, run_gd_exact,
                          run_gd_l, run_me)
from ellipcenters import companion, plane2d, solvers
from ellipcenters.errors import (DegeneratePlaneError, InnerStallError,
                                 NonFiniteError, NumericalFailureError,
                                 PrecisionFloorError)
from ellipcenters.solvers import RUNNERS, History

ONE_STEP = SolverConfig(max_outer=1)


def exact_linesearch_step(f, x):
    """One exact-linesearch step from ``x``: ``(x_next, t_star)``, with t_star
    recovered from the displacement along the gradient."""
    v = f.grad(x)
    x_next = run_gd_exact(f, x, ONE_STEP).x_final
    return x_next, float((x - x_next) @ v / (v @ v))


class TestMeStep:
    def test_two_dim_quadratic_one_step(self, diag_quadratic):
        f = diag_quadratic
        trace = run_me(f, np.array([1.0, 1.0]), ONE_STEP)
        npt.assert_allclose(trace.x_final, [0.0, 0.0], atol=1e-12)
        assert trace.records[0].li_flag is True
        assert trace.records[0].t_k == pytest.approx(34.0 / 65.0)
        assert trace.records[1].grad_evals_outer == 2

    def test_isotropic_r3_takes_segment_branch(self):
        f = QuadraticProblem(np.eye(3), np.zeros(3))
        trace = run_me(f, np.array([1.0, 0.0, 0.0]), ONE_STEP)
        assert trace.records[0].li_flag is False
        npt.assert_allclose(trace.x_final, np.zeros(3), atol=1e-9)

    def test_logistic_descends_with_orthogonal_gradient(self, small_logreg):
        f = small_logreg
        x = np.zeros(50)
        v = f.grad(x)
        x_next = run_me(f, x, ONE_STEP).x_final
        assert f.value(x_next) < f.value(x)
        assert abs(f.grad(x_next) @ v) <= 1e-11 * np.linalg.norm(v)


class TestRunMe:
    def test_two_dim_quadratic_converges_fast(self):
        for seed in range(5):
            q = generate_quadratic(2, 10.0, seed)
            trace = run_me(q, np.zeros(2))
            assert trace.converged
            assert trace.iterations <= 2

    def test_start_at_minimizer_is_zero_steps(self, small_quadratic):
        trace = run_me(small_quadratic,
                       small_quadratic.minimizer())
        assert trace.converged
        assert trace.iterations == 0
        assert len(trace.records) == 1

    @pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
    def test_logistic_run_basics(self, sid, small_logreg):
        f = small_logreg
        trace = RUNNERS[sid](f, np.zeros(50))
        assert trace.converged
        assert trace.records[-1].grad_norm <= 1e-6
        # two outer gradients per ellipcenter iteration, one per baseline step
        per_step = 2 if sid is SolverId.ME else 1
        outer = [r.grad_evals_outer for r in trace.records]
        assert outer == [per_step * i for i in range(len(outer))]
        totals = [r.grad_evals_total for r in trace.records]
        assert all(t >= o for t, o in zip(totals, outer))
        assert all(a <= b for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9, 1e12])
    def test_constant_offset_keeps_step_count(self, offset):
        """Level comparisons near the rounding of f + c still find the
        companion point: a zero level residual is accepted at a midpoint."""
        p = generate_logreg(200, 100, 1e2, 0)
        f = Objective(p.n, p.mu, p.lip, lambda x: p.value(x) + offset, p.grad)
        trace = run_me(f, np.zeros(200))
        assert trace.converged
        assert trace.iterations == 7
        assert np.linalg.norm(p.grad(trace.x_final)) <= trace.config.eps

    def test_monotone_decrease_until_termination(self, small_logreg):
        trace = run_me(small_logreg, np.zeros(50))
        values = [r.f_val for r in trace.records]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_level_set_equality_every_iteration(self, small_logreg):
        history = History()
        run_me(small_logreg, np.zeros(50), observe=history)
        assert history.step_data
        for sd in history.step_data:
            assert sd.level_residual <= companion.TOL

    def test_bh_descent_at_li_steps(self, small_logreg):
        f = small_logreg
        trace = run_me(f, np.zeros(50))
        for rec, nxt in zip(trace.records[:-1], trace.records[1:]):
            if not rec.li_flag:
                continue
            lhs = rec.f_val - nxt.f_val
            rhs = (nxt.grad_norm ** 2 + rec.grad_norm ** 2) / (2.0 * f.lip)
            assert lhs >= rhs - 1e-9 * abs(rec.f_val)

    def test_per_step_dominance_over_exact_linesearch(self, small_logreg):
        f = small_logreg
        x = np.zeros(50)
        for _ in range(4):
            x_me = run_me(f, x, ONE_STEP).x_final
            x_gd = run_gd_exact(f, x, ONE_STEP).x_final
            assert f.value(x_me) <= f.value(x_gd) + 1e-12 * max(1.0, abs(f.value(x)))
            x = x_me

    def test_inner_stall_aborts_run(self, monkeypatch):
        p = generate_logreg(30, 15, 40.0, 4)
        monkeypatch.setattr(plane2d, "MAX_NEWTON", 1)
        trace = run_me(p, np.zeros(30))
        assert trace.status is RunStatus.INNER_STALL

    def test_determinism(self, small_logreg):
        f = small_logreg
        t1 = run_me(f, np.zeros(50))
        t2 = run_me(f, np.zeros(50))
        assert [r.f_val for r in t1.records] == [r.f_val for r in t2.records]
        assert [r.grad_evals_total for r in t1.records] == \
               [r.grad_evals_total for r in t2.records]
        npt.assert_array_equal(t1.x_final, t2.x_final)


class TestGdFixed:
    def test_isotropic_one_step(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2))
        trace = run_gd_l(f, np.array([1.0, 0.0]), ONE_STEP)
        npt.assert_allclose(trace.x_final, [0.0, 0.0])

    def test_diag_step(self, diag_quadratic):
        f = diag_quadratic
        trace = run_gd_l(f, np.array([1.0, 1.0]), ONE_STEP)
        npt.assert_allclose(trace.x_final, [0.75, 0.0])

    def test_descent_lemma_decrease(self, small_logreg):
        f = small_logreg
        trace = run_gd_l(f, np.zeros(50))
        assert trace.converged
        for rec, nxt in zip(trace.records[:-1], trace.records[1:]):
            assert rec.f_val - nxt.f_val >= rec.grad_norm ** 2 / (2 * f.lip) - 1e-12

    def test_gap_ratio_at_most_eta(self, small_quadratic):
        f = small_quadratic
        f_star = compute_reference(f).f_star
        trace = run_gd_l(f, np.zeros(10))
        eta = 1.0 - f.mu / f.lip
        gaps = [r.f_val - f_star for r in trace.records]
        for g0, g1 in zip(gaps, gaps[1:]):
            if g0 <= 1e-14 * abs(f_star):
                break
            assert g1 / g0 <= eta * (1 + 1e-8)


class TestGdExact:
    def test_diag_step_length(self, diag_quadratic):
        f = diag_quadratic
        _, t_star = exact_linesearch_step(f, np.array([1.0, 1.0]))
        assert t_star == pytest.approx(17.0 / 65.0, rel=1e-14)

    def test_isotropic_hits_minimizer(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2))
        x_next, t_star = exact_linesearch_step(f, np.array([0.6, -0.8]))
        assert t_star == pytest.approx(1.0)
        npt.assert_allclose(x_next, [0.0, 0.0], atol=1e-15)

    def test_new_gradient_orthogonal_to_direction(self, small_logreg):
        f = small_logreg
        x = np.zeros(50)
        v = f.grad(x)
        x_next, _ = exact_linesearch_step(f, x)
        assert abs(f.grad(x_next) @ v) <= 1e-11 * (v @ v)

    def test_gap_ratio_at_most_eta_star(self, small_logreg):
        f = small_logreg
        f_star = compute_reference(f).f_star
        trace = run_gd_exact(f, np.zeros(50))
        assert trace.converged
        eta_star = (f.kappa - 1.0) / (f.kappa + 1.0)
        gaps = [r.f_val - f_star for r in trace.records]
        for g0, g1 in zip(gaps, gaps[1:]):
            if min(g0, g1) <= 1e-14 * abs(f_star):
                continue
            assert g1 / g0 <= eta_star * (1 + 1e-8)


class TestFastGd:
    def test_condition_one_reduces_to_plain_descent(self):
        # mu = lip makes the momentum zero, so the first step lands on the
        # minimizer of an isotropic quadratic
        f = QuadraticProblem(np.eye(3), np.zeros(3))
        trace = run_fast_gd(f, np.array([1.0, 2.0, -1.0]))
        assert trace.converged
        assert trace.iterations == 1

    def test_beats_fixed_step_on_ill_conditioned_quadratic(self):
        q = generate_quadratic(50, 100.0, 11)
        f = q
        fast = run_fast_gd(f, np.zeros(50))
        slow = run_gd_l(f, np.zeros(50))
        assert fast.converged and slow.converged
        assert fast.records[-1].grad_evals_outer < slow.records[-1].grad_evals_outer

    def test_non_monotone_step_exists(self):
        q = generate_quadratic(50, 100.0, 2)
        trace = run_fast_gd(q, np.zeros(50))
        values = [r.f_val for r in trace.records]
        assert trace.non_monotone_ok
        assert any(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("family", ["quadratic", "logreg"])
    @pytest.mark.parametrize("n, kappa", [(1, 1e2), (2, 1e2), (1, 1 + 1e-9),
                                          (2, 1 + 1e-9)])
    def test_tiny_and_near_isotropic_instances_converge(self, family, n, kappa):
        """n in {1, 2}, and kappa = 1 + 1e-9, where the momentum is about
        2.5e-10 and z_k all but equals x_k: every run converges, quickly."""
        p = (generate_quadratic(n, kappa, 3) if family == "quadratic"
             else generate_logreg(n, 3, kappa, 3))
        start = time.perf_counter()
        trace = run_fast_gd(p, np.zeros(n),
                            SolverConfig(max_outer=20000))
        assert trace.converged, trace.status
        assert time.perf_counter() - start < 10.0

    def test_gradient_accounting(self, small_logreg):
        trace = run_fast_gd(small_logreg, np.zeros(50))
        last = trace.records[-1]
        assert last.grad_evals_outer == trace.iterations
        # one driving gradient plus one stopping-check gradient per step,
        # with the first driving gradient reused from the start check
        assert last.grad_evals_total == 2 * trace.iterations


@pytest.mark.parametrize("sid", list(SolverId))
def test_a_start_point_of_the_wrong_shape_is_rejected(sid):
    """Every run checks its start point's shape, on a plain Objective as on
    a problem, with the problems' message."""
    plain = Objective(3, 1.0, 1.0, lambda x: 0.5 * float(x @ x),
                      lambda x: x.copy())
    for f in (plain, generate_quadratic(3, 10.0, 0)):
        with pytest.raises(ValueError,
                           match=r"^x must have shape \(3,\), got \(5,\)$"):
            RUNNERS[sid](f, np.ones(5))


class TestConfig:
    @pytest.mark.parametrize("name", ["eps"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-3])
    def test_rejects_non_positive_or_non_finite_tolerance(self, name, bad):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: bad})

    @pytest.mark.parametrize("name", ["max_outer"])
    def test_rejects_nan_iteration_cap(self, name):
        with pytest.raises(ValueError):
            SolverConfig(**{name: float("nan")})

    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(max_outer=0)

    def test_max_outer_status(self, small_logreg):
        cfg = SolverConfig(max_outer=2)
        trace = run_gd_l(small_logreg, np.zeros(50), cfg)
        assert trace.status is RunStatus.MAX_ITERATIONS
        assert trace.iterations == 2

    def test_solver_ids(self):
        assert {s.value for s in SolverId} == {"me", "gd_l", "gd_exact", "fast_gd"}


def test_step_that_stands_still_ends_precision_floor():
    """At eps = 1e-13 this me run reaches ||g|| ~ 9.7e-13 at step 14, where
    every step returns x bit for bit; it ends there instead of repeating
    that step to max_outer."""
    p = generate_logreg(200, 100, 1e2, 0)
    trace = run_me(p, np.zeros(200),
                   SolverConfig(eps=1e-13, max_outer=200))
    assert trace.status is RunStatus.PRECISION_FLOOR
    assert trace.iterations <= 20
    assert trace.records[-1].grad_norm < 1e-11


def test_a_refused_step_takes_no_gradient_at_its_point():
    """The run above takes one full gradient per recorded gradient, and
    one more: the companion gradient of the step it refuses.  Its point is
    never recorded, so no gradient is taken there."""
    p = generate_logreg(200, 100, 1e2, 0)
    calls = []
    grad = p.grad
    p.grad = lambda x: calls.append(1) or grad(x)
    trace = run_me(p, np.zeros(200), SolverConfig(eps=1e-13, max_outer=200))
    assert trace.status is RunStatus.PRECISION_FLOOR
    assert len(calls) == trace.records[-1].grad_evals_total + 1


@pytest.mark.parametrize("error, status", [
    (NumericalFailureError, RunStatus.NUMERIC_FAILURE),
    (PrecisionFloorError, RunStatus.PRECISION_FLOOR),
    (InnerStallError, RunStatus.INNER_STALL),
    (NonFiniteError, RunStatus.NON_FINITE)],
    ids=["numeric_failure", "precision_floor", "inner_stall", "non_finite"])
def test_each_error_ends_the_run_with_its_status(monkeypatch, error, status):
    """An error raised in a step ends the run at its start with the error's
    ``status``; ``PrecisionFloorError``, a ``NumericalFailureError``, ends
    it ``precision_floor``, not ``numeric_failure``."""
    def failing_step(cf, x, f_x, v):
        raise error("raised by the step")

    monkeypatch.setattr(solvers, "_gd_exact_step", failing_step)
    trace = run_gd_exact(generate_quadratic(10, 1e2, 0), np.zeros(10))
    assert trace.status is RunStatus(error.status) is status
    assert trace.iterations == 0


def test_a_singular_plane_takes_the_exact_linesearch_step(monkeypatch):
    """A plane whose Hessian is singular (``plane2d._inverse`` raises) is
    the line along v: the step is marked dependent and lands bit for bit on
    the exact-linesearch step, although its two gradients are not
    parallel."""
    f = generate_quadratic(20, 1e2, 0)
    gd = run_gd_exact(f, np.zeros(20), SolverConfig(max_outer=1))

    def singular(hessian):
        raise DegeneratePlaneError("singular")

    monkeypatch.setattr(plane2d, "_inverse", singular)
    me = run_me(f, np.zeros(20), SolverConfig(max_outer=1))
    assert me.iterations == 1
    assert me.records[0].li_flag is False
    assert me.records[0].sin2_theta >= solvers.LD_THRESHOLD
    assert np.array_equal(me.x_final, gd.x_final)


def test_gd_exact_on_a_concave_ray_is_a_numeric_failure():
    """f = -||x||^2 / 2 as a plain Objective curves down along its
    gradient: the linesearch's Newton step meets a negative curvature."""
    f = Objective(3, 1.0, 1.0, lambda x: -0.5 * float(x.dot(x)),
                  lambda x: -x)
    trace = run_gd_exact(f, np.ones(3))
    assert trace.status is RunStatus.NUMERIC_FAILURE
    assert trace.iterations == 0


TIGHT_INSTANCES = {
    "logreg-200": lambda: generate_logreg(200, 100, 1e2, 0),
    "logreg-60": lambda: generate_logreg(60, 30, 1e4, 1),
    "quadratic-40": lambda: generate_quadratic(40, 1e2, 3),
}


@pytest.mark.parametrize("instance", list(TIGHT_INSTANCES))
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_tight_tolerance_runs_end_and_never_stand_still(instance, sid):
    """eps = 1e-14 lies below the gradient floor of some of these runs.
    Each run still ends with a status that says why, quickly, and no run of
    a solver whose step depends only on (x, f, grad f) records the same
    iterate twice in a row."""
    p = TIGHT_INSTANCES[instance]()
    repeats = []
    last = []

    def watch(k, x, f_x, g, step):
        if last and np.array_equal(last[0], x):
            repeats.append(k)
        last[:] = [x.copy()]

    start = time.perf_counter()
    trace = RUNNERS[sid](p, np.zeros(p.dim),
                         SolverConfig(eps=1e-14, max_outer=3000), observe=watch)
    assert time.perf_counter() - start < 20.0
    assert trace.status in (RunStatus.CONVERGED, RunStatus.PRECISION_FLOOR,
                            RunStatus.MAX_ITERATIONS)
    if sid is not SolverId.FAST_GD:
        assert repeats == []


def nan_near_minimizer(n=4):
    """Quadratic whose value and gradient are NaN within distance 0.5 of its
    minimizer at the origin; the start point 3*ones is far outside."""
    q = QuadraticProblem(np.diag(np.linspace(1.0, 5.0, n)), np.zeros(n))

    def guard(fn):
        return lambda x: fn(x) * np.nan if np.linalg.norm(x) < 0.5 else fn(x)

    return Objective(n, q.mu, q.lip, guard(q.value), guard(q.grad))


@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_non_finite_objective_stops_run(sid):
    cfg = SolverConfig(max_outer=2000)
    trace = RUNNERS[sid](nan_near_minimizer(), 3.0 * np.ones(4), cfg)
    assert trace.status is RunStatus.NON_FINITE
    assert trace.iterations < 100
    assert all(np.isfinite(r.f_val) and np.isfinite(r.grad_norm)
               for r in trace.records)
    assert np.all(np.isfinite(trace.x_final))


def fast_path_objective(kind):
    if kind == "logreg":
        return generate_logreg(60, 30, 1e2, 0)
    q = generate_quadratic(40, 1e2, 0)
    return q if kind == "quadratic" else Objective(
        q.dim, q.mu, q.lip, q.value, q.grad)


@pytest.mark.parametrize("kind", ["logreg", "quadratic", "plain"])
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_recorded_grad_norm_is_the_numpy_norm(kind, sid):
    """Each record's ``grad_norm``, taken from the squared norm the
    gradient's finiteness check formed, is ``np.linalg.norm`` of the
    gradient the observer sees, bit for bit."""
    f = fast_path_objective(kind)
    norms = []
    trace = RUNNERS[sid](f, np.zeros(f.dim), SolverConfig(max_outer=60),
                         observe=lambda k, x, f_x, g, step:
                         norms.append(float(np.linalg.norm(g)).hex()))
    assert len(trace.records) > 2
    assert [r.grad_norm.hex() for r in trace.records] == norms


@pytest.mark.parametrize("spike, status", [
    (1e200, RunStatus.MAX_ITERATIONS), (np.nan, RunStatus.NON_FINITE)],
    ids=["overflowing", "nan"])
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_gradient_check_tells_overflow_from_nan(sid, spike, status):
    """A finite gradient entry of 1e200 overflows ||g||^2, so its check
    looks at the entries: the run goes on (here to its one-step cap) and
    records ||g|| = inf, as np.linalg.norm does, without the overflow
    warning escaping the run.  A NaN entry ends the run ``non_finite`` at
    the last good iterate."""
    q = generate_quadratic(40, 1e2, 0)
    one_step = SolverConfig(max_outer=1)
    x2 = RUNNERS[sid](q, np.zeros(40), one_step).x_final
    grad = q.grad

    def spiked(x):  # a run evaluates at point records
        g = grad(x)
        if np.array_equal(x.x, x2):
            g = g.copy()
            g[0] = spike
        return g

    q.grad = spiked
    trace = RUNNERS[sid](q, np.zeros(40), one_step)
    assert trace.status is status
    if status is RunStatus.MAX_ITERATIONS:
        assert trace.iterations == 1
        assert trace.records[-1].grad_norm == np.inf
    else:
        assert trace.iterations == 0
        assert np.array_equal(trace.x_final, np.zeros(40))


# (iterations, grad_evals_total, value_evals_total, restricted_evals_total)
# of each solver from the origin with the default SolverConfig, on the
# benchmark's warm-up instances.  A caching or fusion change that skips a
# counted value or gradient call changes these counts without changing the
# computed iterates.  The me and gd_exact searches run on restricted models,
# so their full counts are those of the method itself: me takes the
# gradient at the companion point, and the outer loop the value and the
# gradient at each iterate.  A companion search that
# doubled from 2/lip and bisected made 310 restricted evaluations for me's
# logistic run; its first step from the model's curvature and an Illinois
# secant make 117.
COST_MODEL = {
    "logreg": {"me": (10, 21, 11, 117), "gd_l": (799, 800, 800, 0),
               "gd_exact": (26, 27, 27, 188), "fast_gd": (117, 234, 118, 0)},
    "quadratic": {"me": (161, 323, 162, 483), "gd_l": (1218, 1219, 1219, 0),
                  "gd_exact": (630, 631, 631, 630), "fast_gd": (142, 284, 143, 0)},
}


@pytest.mark.parametrize("family", list(COST_MODEL))
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_evaluation_counts_are_pinned(family, sid):
    p = (generate_logreg(60, 30, 1e2, 0) if family == "logreg"
         else generate_quadratic(40, 1e2, 0))
    trace = RUNNERS[sid](p, np.zeros(p.dim))
    assert trace.converged
    last = trace.records[-1]
    assert (trace.iterations, last.grad_evals_total, last.value_evals_total,
            last.restricted_evals_total) == COST_MODEL[family][sid.value]


@pytest.mark.parametrize("family", ["logreg", "quadratic"])
def test_restricted_steps_make_only_the_methods_gradients(family):
    """me takes exactly its two outer gradients per step, gd_exact one, plus
    the gradient at the start: every search probe is a model evaluation."""
    for seed in range(3):
        p = (generate_logreg(80, 40, 1e3, seed) if family == "logreg"
             else generate_quadratic(30, 1e2, seed))
        for run in (run_me, run_gd_exact):
            trace = run(p, np.zeros(p.dim))
            assert trace.converged
            last = trace.records[-1]
            assert last.grad_evals_total == last.grad_evals_outer + 1
            assert last.value_evals_total == trace.iterations + 1
            assert last.restricted_evals_total > 0


# A plain Objective has no restricted model: its searches evaluate in full.
# Each Newton step of a search takes the gradient at its point, which the
# forward-difference Hessian reuses, and one more per direction for that
# Hessian; the Armijo test takes values.  The counts follow the last bits of
# the probed values and gradients, so they move when a product's rounding
# does.  Before the Hessian reused the gradient, it formed that gradient
# again: (125, 246) and (1343, 6190) gradients for the same iterates.  The
# companion search takes one forward-difference curvature per step, about one
# gradient, for its first step; when it doubled from 2/lip and bisected, me
# made (99, 269) and (1088, 2620) gradients and values.
PLAIN_COST_MODEL = {
    "logreg": {"me": (10, 109, 66), "gd_exact": (26, 173, 71)},
    "quadratic": {"me": (161, 1243, 506), "gd_exact": (630, 4337, 1262)},
}


@pytest.mark.parametrize("family", list(PLAIN_COST_MODEL))
@pytest.mark.parametrize("sid", [SolverId.ME, SolverId.GD_EXACT],
                         ids=lambda s: s.value)
def test_plain_objective_counts_every_probe_in_full(family, sid):
    p = (generate_logreg(60, 30, 1e2, 0) if family == "logreg"
         else generate_quadratic(40, 1e2, 0))
    f = Objective(p.dim, p.mu, p.lip, p.value, p.grad)
    trace = RUNNERS[sid](f, np.zeros(p.dim))
    assert trace.converged
    last = trace.records[-1]
    assert last.restricted_evals_total == 0
    assert (trace.iterations, last.grad_evals_total, last.value_evals_total) \
        == PLAIN_COST_MODEL[family][sid.value]


# Restricted evaluations of a logistic me run from the origin when its
# searches were slope bisection (companion) and Armijo-Barzilai-Borwein
# descent in an orthonormal chart (plane), keyed by generate_logreg's
# (n, m, kappa, seed).  Damped Newton on the plane must take at most 3/4 of
# them, and a gd_exact step, once 44-49 slope bisections, at most 12.
SEARCH_BEFORE_NEWTON = {
    (200, 100, 1e2, 0): 317, (200, 100, 1e2, 1): 321, (200, 100, 1e2, 2): 302,
    (200, 100, 1e4, 0): 1684, (200, 100, 1e4, 1): 1951,
    (200, 100, 1e4, 2): 1578, (2000, 1000, 1e3, 0): 346,
}


@pytest.mark.parametrize("instance", list(SEARCH_BEFORE_NEWTON),
                         ids=lambda key: "-".join(map(str, key)))
def test_restricted_evaluations_per_step(instance):
    p = generate_logreg(*instance)
    me = run_me(p, np.zeros(p.dim))
    gd = run_gd_exact(p, np.zeros(p.dim))
    assert me.converged and gd.converged
    assert (me.records[-1].restricted_evals_total
            <= 0.75 * SEARCH_BEFORE_NEWTON[instance])
    assert gd.records[-1].restricted_evals_total <= 12 * gd.iterations


def scaled(p: QuadraticProblem, k: int) -> QuadraticProblem:
    """``p`` with A, b, c, mu and lip all multiplied by 2**k."""
    s = 2.0 ** k
    return QuadraticProblem(s * p.a_matrix, s * p.b, s * p.c, mu=s * p.mu,
                            lip=s * p.lip)


@pytest.mark.parametrize("n, kappa, seed",
                         [(40, 1e2, 0), (40, 1e2, 1), (200, 1e3, 2), (3, 1e8, 0)])
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_power_of_two_scaling_changes_nothing(n, kappa, seed, sid):
    """Scaling f by 2**k, with eps scaled alike, scales every value, gradient
    and model entry exactly, so a run takes the same steps to the same bits:
    the same x_final, status and evaluation totals."""
    p = generate_quadratic(n, kappa, seed)
    base = RUNNERS[sid](p, np.zeros(n), SolverConfig(max_outer=2000))
    for k in (-3, 5):
        cfg = SolverConfig(eps=2.0 ** k * 1e-6, max_outer=2000)
        trace = RUNNERS[sid](scaled(p, k), np.zeros(n), cfg)
        assert trace.x_final.tobytes() == base.x_final.tobytes()
        assert (trace.status, trace.iterations) == (base.status, base.iterations)
        got, want = trace.records[-1], base.records[-1]
        assert (got.grad_evals_total, got.value_evals_total,
                got.restricted_evals_total) == (want.grad_evals_total,
                                                want.value_evals_total,
                                                want.restricted_evals_total)


def bare_loops():
    """``tools/bare_loops.py``, imported by path."""
    path = Path(__file__).parent.parent / "tools" / "bare_loops.py"
    spec = importlib.util.spec_from_file_location("bare_loops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("sid", [SolverId.ME, SolverId.GD_EXACT, SolverId.GD_L],
                         ids=lambda s: s.value)
def test_quadratic_runs_match_the_bare_loops(sid):
    """The bare numpy loops of ``tools/bare_loops.py``, which share neither
    the models nor the driver, take the same steps to the same bits."""
    loop = bare_loops().loop
    for seed in range(3):
        p = generate_quadratic(40, 1e2, seed)
        trace = RUNNERS[sid](p, np.zeros(p.dim))
        steps, x = loop(p, sid.value)
        assert steps == trace.iterations
        assert x.tobytes() == trace.x_final.tobytes()


@pytest.mark.parametrize("n", [1, 3, 30])
@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_ill_conditioned_quadratics_end_with_a_status(n, sid):
    """At kappa = 1e8 every run ends converged, at the precision floor or at
    its cap, and none raises."""
    for seed in range(5):
        f = generate_quadratic(n, 1e8, seed)
        trace = RUNNERS[sid](f, np.zeros(n), SolverConfig(max_outer=3000))
        assert trace.status in (RunStatus.CONVERGED, RunStatus.PRECISION_FLOOR,
                                RunStatus.MAX_ITERATIONS)


@pytest.mark.parametrize("kappa", [1e2, 1e6, 1e8])
def test_me_ends_within_two_steps_in_dimension_two(kappa):
    """In dimension two the plane of the two gradients is the whole space, so
    the plane minimizer is the minimizer."""
    for seed in range(20):
        trace = run_me(generate_quadratic(2, kappa, seed), np.zeros(2))
        assert trace.converged and trace.iterations <= 2


@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_iterates_are_handed_out_read_only(sid):
    """Every iterate the observer receives, and ``x_final``, rejects writes;
    ``History`` keeps writable copies."""
    f = generate_quadratic(20, 1e2, 0)
    history = History()
    refused = []

    def observe(k, x, f_x, g, step):
        history(k, x, f_x, g, step)
        try:
            x[0] = 1.0
        except ValueError:
            refused.append(k)

    trace = RUNNERS[sid](f, np.zeros(20), SolverConfig(max_outer=5),
                         observe=observe)
    assert refused == list(range(1, trace.iterations + 2))
    with pytest.raises(ValueError):
        trace.x_final[0] = 1.0
    history.iterates[-1][0] = 1.0
    assert history.iterates[-1][0] == 1.0 != trace.x_final[0]


# Profiler events per step of a quadratic run from the origin on
# generate_quadratic(40, 1e2, 0): Python function calls ("call") and calls
# of C functions ("c_call"), each at its measured value plus 10%.  The
# quadratic model's algebra runs on Python floats, its rows are formed in
# one layer, a point carries its data product in a tuple, which runs no
# Python code to make, and a run reaches the problem through one counting
# layer: with one more pass-through layer, fast_gd and gd_l made 30.2 and
# 18.0 calls per step, over their budgets.
CALL_BUDGET = {"me": {"call": 57, "c_call": 60},
               "gd_exact": {"call": 35, "c_call": 25},
               "fast_gd": {"call": 29, "c_call": 20},
               "gd_l": {"call": 18, "c_call": 15}}


@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_quadratic_step_call_budget(sid):
    f = generate_quadratic(40, 1e2, 0)
    RUNNERS[sid](f, np.zeros(40))  # first-use imports and caches
    events = Counter()

    def profile(frame, event, arg):
        events[event] += 1

    sys.setprofile(profile)
    try:
        trace = RUNNERS[sid](f, np.zeros(40))
    finally:
        sys.setprofile(None)
    for event, budget in CALL_BUDGET[sid.value].items():
        assert events[event] / trace.iterations <= budget, event
