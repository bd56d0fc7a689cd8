import math

import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (Objective, QuadraticProblem, RunStatus,
                          SolverConfig, generate_logreg, generate_quadratic,
                          run_gd_exact, run_me)
from ellipcenters.companion import MAX_STEPS, companion_point
from ellipcenters.errors import NumericalFailureError, PrecisionFloorError
from ellipcenters.objectives import CountingObjective
from ellipcenters.solvers import History

ONE_STEP = SolverConfig(max_outer=1)


def plain(q: QuadraticProblem) -> Objective:
    """``q`` as a plain Objective: its model is the generic one, whose
    curvature is a forward difference, so the companion search's first step
    is not the closed form."""
    return Objective(q.dim, q.mu, q.lip, q.value, q.grad)


def scaled(q: QuadraticProblem, scale: float, offset: float = 0.0) -> Objective:
    """``scale * q + offset`` as a plain Objective, mu and lip scaled too."""
    return Objective(q.dim, scale * q.mu, scale * q.lip,
                     lambda x: scale * q.value(x) + offset,
                     lambda x: scale * q.grad(x))


def closed_form_t(q: QuadraticProblem, x: np.ndarray) -> float:
    """The companion step the ellipcenter method takes from ``x`` on a
    quadratic: its closed form 2 ||v||^2 / (v'Av), read off a one-step run."""
    return run_me(q, x, ONE_STEP).records[0].t_k


class TestClosedForm:
    def test_isotropic_step_is_two(self):
        p = QuadraticProblem(np.eye(3), np.zeros(3))
        assert closed_form_t(p, np.array([0.3, -1.0, 2.0])) == pytest.approx(2.0)

    def test_diag_example(self, diag_quadratic):
        # v = grad f(1, 1) = (1, 4)
        t = closed_form_t(diag_quadratic, np.array([1.0, 1.0]))
        assert t == pytest.approx(34.0 / 65.0, rel=1e-15)

    def test_eigenvector_direction(self, diag_quadratic):
        t = closed_form_t(diag_quadratic, np.array([1.0, 0.0]))
        assert t == pytest.approx(2.0)

    def test_zero_direction_rejected(self, diag_quadratic):
        f = diag_quadratic
        with pytest.raises(ValueError):
            companion_point(f.restrict(np.array([1.0, 1.0]), np.zeros(2)))

    def test_underflowing_curvature_is_numeric_failure(self):
        """v'Av underflows to zero for a tiny gradient; the step reports a
        numerical failure instead of dividing by it."""
        p = QuadraticProblem(np.diag([1e-10, 1.0]), np.zeros(2))
        # v = (1e-160, 0): ||v|| > eps, but v'Av = 1e-330 rounds to 0
        trace = run_me(p, np.array([1e-150, 0.0]),
                       SolverConfig(eps=1e-300))
        assert trace.status is RunStatus.NUMERIC_FAILURE
        assert trace.iterations == 0


class TestBracket:
    """The companion search, seen through its probes and its exits."""

    def test_first_step_is_the_quadratic_crossing(self, small_quadratic, rng):
        """On the exact quadratic model the first step 2 ||v||^2 / (v'Av)
        lands on the level set: one curvature and one value, no more."""
        f = CountingObjective(small_quadratic)
        x = rng.standard_normal(10)
        v, f_x = f.grad(x), f.value(x)
        res = companion_point(f.restrict(x, v, f_x=f_x, grad_x=v), f_x=f_x)
        assert res.t == pytest.approx(
            2.0 * (v @ v) / (v @ small_quadratic.a_matrix @ v), rel=1e-14)
        assert res.bisection_iters == 0 and f.restricted_evals == 2

    def test_diag_bracket_contains_root(self, diag_quadratic):
        """lip = 1 understates diag(1, 4); the generic model's first step
        comes from a forward-difference curvature, and the search still
        ends at the crossing 34/65."""
        q = QuadraticProblem(diag_quadratic.a_matrix, diag_quadratic.b, lip=1.0)
        x = np.array([1.0, 1.0])
        res = companion_point(plain(q).restrict(x, q.grad(x)))
        assert res.t == pytest.approx(34.0 / 65.0, rel=1e-9)

    def test_logistic_bracket_levels(self, small_logreg):
        """Every probe short of the returned step is sub-level and every
        probe beyond it super-level."""
        probes = []

        def value(x):
            fx = small_logreg.value(x)
            probes.append((x, fx))
            return fx

        f = Objective(50, small_logreg.mu, small_logreg.lip, value,
                      small_logreg.grad)
        x = np.zeros(50)
        x[0] = 1.0
        v = f.grad(x)
        g0 = small_logreg.value(x)
        res = companion_point(f.restrict(x, v), f_x=g0)
        steps = [((x - y) @ v / (v @ v), fy) for y, fy in probes]
        assert any(t < res.t for t, _ in steps) and any(t > res.t for t, _ in steps)
        for t, fy in steps:
            if t < res.t * (1 - 1e-9):
                assert fy < g0
            elif t > res.t * (1 + 1e-9):
                assert fy > g0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lip_does_not_move_the_step(self, seed, rng):
        """The search reads no ``lip``: on the model of a logistic
        problem whose ``lip`` is scaled by 1e-1 or 1e3, under- or
        overstating the curvature, the companion step is the same to the
        bit."""
        p = generate_logreg(30, 20, 1e3, seed)
        lip = p.lip
        for x in (np.zeros(30), 0.3 * rng.standard_normal(30)):
            v, f_x = p.grad(x), p.value(x)
            steps = set()
            for scale in (1.0, 1e-1, 1e3):
                p.lip = scale * lip
                ray = p.restrict(x, v, f_x=f_x, grad_x=v)
                res = companion_point(ray, f_x=f_x)
                assert res.bisection_iters > 0
                steps.add(res.t)
            assert len(steps) == 1

    def test_noncoercive_objective_fails(self):
        """A linear f has no curvature along the ray."""
        f = Objective(1, 1.0, 1.0, lambda x: float(x[0]),
                      lambda x: np.ones(1))
        with pytest.raises(NumericalFailureError):
            companion_point(f.restrict(np.zeros(1), np.ones(1)))

    def test_level_never_regained_fails(self):
        """exp(-x) curves up along the ray but never returns to its level:
        the search doubles until its probe cap runs out."""
        calls = []

        def value(x):
            calls.append(x)
            return math.exp(-x[0])

        f = Objective(1, 1.0, 1.0, value, lambda x: -np.exp(-x))
        with pytest.raises(NumericalFailureError):
            companion_point(f.restrict(np.zeros(1), -np.ones(1)), f_x=1.0)
        assert len(calls) == 1 + MAX_STEPS

    def test_nan_level_is_numeric_failure(self):
        """A model with no counter does not check its values; a NaN level
        residual is never taken for a converged one."""
        f = Objective(2, 1.0, 1.0, lambda x: math.nan, lambda x: x)
        x = np.array([1.0, 2.0])
        with pytest.raises(NumericalFailureError):
            companion_point(f.restrict(x, f.grad(x)))


class TestCompanionPoint:
    def test_isotropic_reflection(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2))
        x = np.array([1.0, 0.0])
        res = companion_point(f.restrict(x, f.grad(x)))
        assert res.t == pytest.approx(2.0, abs=1e-9)
        npt.assert_allclose(res.y.x, [-1.0, 0.0], atol=1e-9)
        assert f.value(res.y) == pytest.approx(0.5, abs=1e-12)

    def test_diag_example_closed_form(self, diag_quadratic):
        f = diag_quadratic
        x = np.array([1.0, 1.0])
        history = History()
        run_me(f, x, ONE_STEP, observe=history)
        step = history.step_data[0]
        y = x - step.t * f.grad(x)
        assert step.t == pytest.approx(34.0 / 65.0, rel=1e-14)
        npt.assert_allclose(y, [31.0 / 65.0, -71.0 / 65.0], rtol=1e-14)
        assert f.value(y) == pytest.approx(2.5, abs=1e-12)
        assert step.level_residual <= 1e-15

    def test_diag_example_by_bisection(self, diag_quadratic):
        f = plain(diag_quadratic)
        x = np.array([1.0, 1.0])
        res = companion_point(f.restrict(x, f.grad(x)))
        assert res.t == pytest.approx(34.0 / 65.0, rel=1e-9)
        assert f.value(res.y) == pytest.approx(f.value(x), abs=1e-11)
        assert res.level_residual <= 1e-12

    def test_logistic_level_residual(self, small_logreg):
        f = small_logreg
        x = np.zeros(50)
        x[0] = 1.0
        res = companion_point(f.restrict(x, f.grad(x)))
        fx = f.value(x)
        assert abs(f.value(res.y) - fx) / max(1.0, abs(fx)) <= 1e-12

    def test_rejects_zero_gradient(self, small_logreg):
        f = small_logreg
        with pytest.raises(ValueError):
            companion_point(f.restrict(np.zeros(50), np.zeros(50)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bisection_matches_closed_form(self, seed, rng):
        """Uniqueness of the crossing: both routes find the same t."""
        q = generate_quadratic(6, 15.0, seed)
        x = rng.standard_normal(6)
        t_exact = closed_form_t(q, x)
        res = companion_point(plain(q).restrict(x, q.grad(x)))
        assert res.bisection_iters > 0
        assert abs(res.t - t_exact) <= 1e-9 * t_exact

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_half_step_relation(self, seed, rng):
        """The crossing step is exactly twice the exact-linesearch step:
        the restriction of a quadratic to the ray is a symmetric parabola."""
        q = generate_quadratic(5, 8.0, seed)
        x = rng.standard_normal(5)
        v = q.grad(x)
        t_k = closed_form_t(q, x)
        x_next = run_gd_exact(q, x, ONE_STEP).x_final
        t_star = (x - x_next) @ v / (v @ v)
        assert t_k == pytest.approx(2.0 * t_star, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_strict_descent_inside_segment(self, lam, small_logreg):
        f = small_logreg
        x = np.zeros(50)
        x[3] = 0.5
        v = f.grad(x)
        res = companion_point(f.restrict(x, v))
        assert f.value(x - lam * res.t * v) < f.value(x)

    def test_near_optimal_step_beyond_linesearch(self, small_logreg):
        """Near the optimum the level residual is within tolerance over a
        long stretch of the ray, the start included; the crossing must still
        lie beyond the exact-linesearch step."""
        f = small_logreg
        x = run_me(f, np.zeros(50)).x_final
        v = f.grad(x)
        assert 1e-8 < np.linalg.norm(v) < 1e-7
        x_gd = run_gd_exact(f, x, SolverConfig(eps=1e-300, max_outer=1)).x_final
        t_star = (x - x_gd) @ v / (v @ v)
        assert t_star > 2.0 / f.lip
        assert companion_point(f.restrict(x, v)).t > t_star


class TestPrecisionFloor:
    """Scaling f scales the rounding of its values: on
    ``generate_quadratic(20, 1e2, 1)`` times 1e4 or 1e6 the first companion
    bracket narrows to machine width with the level residual above 1e-12,
    while times 1e3 every level set is resolved."""

    @pytest.mark.parametrize("offset", [0.0, 1.0])
    @pytest.mark.parametrize("scale", [1e4, 1e6])
    def test_unresolvable_level_set(self, scale, offset):
        f = scaled(generate_quadratic(20, 1e2, 1), scale, offset)
        x = np.zeros(20)
        with pytest.raises(PrecisionFloorError):
            companion_point(f.restrict(x, f.grad(x)))
        trace = run_me(f, x)
        assert trace.status is RunStatus.PRECISION_FLOOR
        assert trace.iterations == 0

    def test_resolvable_scale_converges(self):
        trace = run_me(scaled(generate_quadratic(20, 1e2, 1), 1e3), np.zeros(20))
        assert trace.converged and trace.iterations == 257
