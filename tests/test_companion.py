import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (NumericalFailureError, Objective, QuadraticProblem,
                          RunStatus, SolverConfig, bracket_right,
                          companion_point, generate_quadratic, run_gd_exact,
                          run_me)

ONE_STEP = SolverConfig(max_outer=1)


def closed_form_t(q: QuadraticProblem, x: np.ndarray) -> float:
    """The companion step the ellipcenter method takes from ``x`` on a
    quadratic: its closed form 2 ||v||^2 / (v'Av), read off a one-step run."""
    return run_me(q.objective(), x, ONE_STEP).records[0].t_k


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
        f = diag_quadratic.objective()
        with pytest.raises(ValueError):
            companion_point(f, np.array([1.0, 1.0]), np.zeros(2))

    def test_underflowing_curvature_is_numeric_failure(self):
        """v'Av underflows to zero for a tiny gradient; the step reports a
        numerical failure instead of dividing by it."""
        p = QuadraticProblem(np.diag([1e-10, 1.0]), np.zeros(2))
        # v = (1e-160, 0): ||v|| > eps, but v'Av = 1e-330 rounds to 0
        trace = run_me(p.objective(), np.array([1e-150, 0.0]),
                       SolverConfig(eps=1e-300))
        assert trace.status is RunStatus.NUMERIC_FAILURE
        assert trace.iterations == 0


class TestBracket:
    def test_isotropic_bracket_straddles_two(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2)).objective()
        x = np.array([1.0, 0.0])
        t_lo, t_hi, _ = bracket_right(f, x, f.grad(x))
        assert 0.0 < t_lo < 2.0 < t_hi

    def test_diag_bracket_contains_root(self, diag_quadratic):
        f = diag_quadratic.objective()
        x = np.array([1.0, 1.0])
        t_lo, t_hi, _ = bracket_right(f, x, f.grad(x))
        assert t_lo < 34.0 / 65.0 < t_hi

    def test_logistic_bracket_levels(self, small_logreg):
        f = small_logreg.objective()
        x = np.zeros(50)
        x[0] = 1.0
        v = f.grad(x)
        g0 = f.value(x)
        t_lo, t_hi, g_hi = bracket_right(f, x, v)
        assert g_hi == f.value(x - t_hi * v)
        assert f.value(x - t_lo * v) < g0 < g_hi

    def test_noncoercive_objective_fails(self):
        f = Objective(1, 1.0, 1.0, lambda x: float(x[0]),
                      lambda x: np.ones(1))
        with pytest.raises(NumericalFailureError):
            bracket_right(f, np.zeros(1), np.ones(1))


class TestCompanionPoint:
    def test_isotropic_reflection(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2)).objective()
        x = np.array([1.0, 0.0])
        res = companion_point(f, x, f.grad(x))
        assert res.t == pytest.approx(2.0, abs=1e-9)
        npt.assert_allclose(res.y, [-1.0, 0.0], atol=1e-9)
        assert f.value(res.y) == pytest.approx(0.5, abs=1e-12)

    def test_diag_example_closed_form(self, diag_quadratic):
        f = diag_quadratic.objective()
        x = np.array([1.0, 1.0])
        step = run_me(f, x, ONE_STEP).step_data[0]
        y = x - step.t * f.grad(x)
        assert step.t == pytest.approx(34.0 / 65.0, rel=1e-14)
        npt.assert_allclose(y, [31.0 / 65.0, -71.0 / 65.0], rtol=1e-14)
        assert f.value(y) == pytest.approx(2.5, abs=1e-12)
        assert step.level_residual <= 1e-15

    def test_diag_example_by_bisection(self, diag_quadratic):
        f = diag_quadratic.objective()
        x = np.array([1.0, 1.0])
        res = companion_point(f, x, f.grad(x))
        assert res.t == pytest.approx(34.0 / 65.0, rel=1e-9)
        assert f.value(res.y) == pytest.approx(f.value(x), abs=1e-11)
        assert res.level_residual <= 1e-12

    def test_logistic_level_residual(self, small_logreg):
        f = small_logreg.objective()
        x = np.zeros(50)
        x[0] = 1.0
        res = companion_point(f, x, f.grad(x))
        fx = f.value(x)
        assert abs(f.value(res.y) - fx) / max(1.0, abs(fx)) <= 1e-12

    def test_rejects_zero_gradient(self, small_logreg):
        f = small_logreg.objective()
        with pytest.raises(ValueError):
            companion_point(f, np.zeros(50), np.zeros(50))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bisection_matches_closed_form(self, seed, rng):
        """Uniqueness of the crossing: both routes find the same t."""
        q = generate_quadratic(6, 15.0, seed)
        x = rng.standard_normal(6)
        t_exact = closed_form_t(q, x)
        res = companion_point(q.objective(), x, q.grad(x))
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
        x_next = run_gd_exact(q.objective(), x, ONE_STEP).x_final
        t_star = (x - x_next) @ v / (v @ v)
        assert t_k == pytest.approx(2.0 * t_star, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.75])
    def test_strict_descent_inside_segment(self, lam, small_logreg):
        f = small_logreg.objective()
        x = np.zeros(50)
        x[3] = 0.5
        v = f.grad(x)
        res = companion_point(f, x, v)
        assert f.value(x - lam * res.t * v) < f.value(x)
