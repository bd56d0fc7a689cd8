import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (NumericalFailureError, Objective, QuadraticProblem,
                          SolverConfig, bracket_right, companion_point,
                          companion_t_quadratic, generate_quadratic,
                          run_gd_exact)


def without_quadratic_view(q: QuadraticProblem) -> Objective:
    """Force the bisection path on a quadratic by hiding its structure."""
    return Objective(q.dim, q.mu, q.lip, q.value, q.grad)


class TestClosedForm:
    def test_isotropic_step_is_two(self):
        p = QuadraticProblem(np.eye(3), np.zeros(3))
        assert companion_t_quadratic(p, np.array([0.3, -1.0, 2.0])) == pytest.approx(2.0)

    def test_diag_example(self, diag_quadratic):
        t = companion_t_quadratic(diag_quadratic, np.array([1.0, 4.0]))
        assert t == pytest.approx(34.0 / 65.0, rel=1e-15)

    def test_eigenvector_direction(self, diag_quadratic):
        t = companion_t_quadratic(diag_quadratic, np.array([1.0, 0.0]))
        assert t == pytest.approx(2.0)

    def test_zero_direction_rejected(self, diag_quadratic):
        with pytest.raises(ValueError):
            companion_t_quadratic(diag_quadratic, np.zeros(2))


class TestBracket:
    def test_isotropic_bracket_straddles_two(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2)).objective()
        x = np.array([1.0, 0.0])
        t_lo, t_hi = bracket_right(f, x, f.grad(x))
        assert 0.0 < t_lo < 2.0 < t_hi

    def test_diag_bracket_contains_root(self, diag_quadratic):
        f = without_quadratic_view(diag_quadratic)
        x = np.array([1.0, 1.0])
        t_lo, t_hi = bracket_right(f, x, f.grad(x))
        assert t_lo < 34.0 / 65.0 < t_hi

    def test_logistic_bracket_levels(self, small_logreg):
        f = small_logreg.objective()
        x = np.zeros(50)
        x[0] = 1.0
        v = f.grad(x)
        g0 = f.value(x)
        t_lo, t_hi = bracket_right(f, x, v)
        assert f.value(x - t_lo * v) < g0 < f.value(x - t_hi * v)

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
        res = companion_point(f, x, f.grad(x))
        assert res.t == pytest.approx(34.0 / 65.0, rel=1e-14)
        npt.assert_allclose(res.y, [31.0 / 65.0, -71.0 / 65.0], rtol=1e-14)
        assert f.value(res.y) == pytest.approx(2.5, abs=1e-12)
        assert res.bisection_iters == 0

    def test_diag_example_by_bisection(self, diag_quadratic):
        f = without_quadratic_view(diag_quadratic)
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
        v = q.grad(x)
        t_exact = companion_t_quadratic(q, v)
        res = companion_point(without_quadratic_view(q), x, v)
        assert abs(res.t - t_exact) <= 1e-9 * t_exact

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_half_step_relation(self, seed, rng):
        """The crossing step is exactly twice the exact-linesearch step:
        the restriction of a quadratic to the ray is a symmetric parabola."""
        q = generate_quadratic(5, 8.0, seed)
        x = rng.standard_normal(5)
        v = q.grad(x)
        t_k = companion_t_quadratic(q, v)
        x_next = run_gd_exact(q.objective(), x, SolverConfig(max_outer=1)).x_final
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
