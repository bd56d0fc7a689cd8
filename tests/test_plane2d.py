import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (DegeneratePlaneError, InnerStallError,
                          QuadraticProblem, SolverConfig, companion_point,
                          generate_logreg, generate_quadratic, make_plane,
                          run_gd_exact, segment_minimizer, solve_gd_armijo,
                          solve_newton_quadratic)


def build_plane(prob, x):
    """Plane through x spanned by the gradient and the companion gradient."""
    f = prob.objective()
    v = f.grad(x)
    comp = companion_point(f, x, v)
    w = f.grad(comp.y)
    return f, make_plane(f, x, v, w), comp


def plane_gradient(f, sp, alpha, beta):
    """Chain-rule gradient (<g, v>, <g, w>) of f restricted to the plane."""
    g = f.grad(sp.point(alpha, beta))
    return np.array([g @ sp.v, g @ sp.w])


class TestRestrictedFunction:
    def test_origin_gradient_is_gram_row(self, small_logreg):
        f, sp, _ = build_plane(small_logreg, np.ones(50) * 0.1)
        npt.assert_allclose(plane_gradient(f, sp, 0.0, 0.0), sp.gram[0],
                            rtol=1e-12)

    def test_diag_example_hand_values(self, diag_quadratic):
        f, sp, _ = build_plane(diag_quadratic, np.array([1.0, 1.0]))
        npt.assert_allclose(plane_gradient(f, sp, 0.0, 0.0), [17.0, -17.0],
                            rtol=1e-12)

    def test_gradient_vanishes_at_minimizer(self, small_logreg):
        f, sp, _ = build_plane(small_logreg, np.ones(50) * 0.1)
        sol = solve_gd_armijo(f, sp)
        grad2 = plane_gradient(f, sp, sol.alpha, sol.beta)
        assert np.linalg.norm(grad2) <= 1e-11 * max(np.linalg.norm(sp.v),
                                                    np.linalg.norm(sp.w))

    def test_plane_geometry_fields(self, small_logreg):
        f, sp, _ = build_plane(small_logreg, np.ones(50) * 0.1)
        assert 0.0 <= sp.sin2_theta <= 1.0
        vv, ww = sp.gram[0, 0], sp.gram[1, 1]
        assert sp.lip_bound == pytest.approx(f.lip * (vv + ww))
        assert np.all(np.linalg.eigvalsh(sp.gram) >= -1e-12 * vv * ww)


class TestNewtonPath:
    def test_two_dim_quadratic_hits_minimizer(self, diag_quadratic):
        _, sp, _ = build_plane(diag_quadratic, np.array([1.0, 1.0]))
        sol = solve_newton_quadratic(diag_quadratic, sp)
        npt.assert_allclose(sol.x_next, [0.0, 0.0], atol=1e-12)
        npt.assert_allclose(sol.x_next, sp.base + sol.alpha * sp.v + sol.beta * sp.w)

    def test_isotropic_gradients_are_parallel(self):
        q = QuadraticProblem(np.eye(4), np.zeros(4))
        x = np.zeros(4)
        x[0] = 1.0
        _, sp, _ = build_plane(q, x)
        with pytest.raises(DegeneratePlaneError):
            solve_newton_quadratic(q, sp)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_residual_small_on_random_spd(self, seed, rng):
        q = generate_quadratic(5, 12.0, seed)
        x = rng.standard_normal(5)
        _, sp, _ = build_plane(q, x)
        sol = solve_newton_quadratic(q, sp)
        assert sol.inner_grad_norm <= 1e-10 * sp.gram[0, 0]
        assert sol.grad_evals == 0


class TestArmijoDescent:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_newton_on_quadratics(self, seed, rng):
        q = generate_quadratic(6, 10.0, seed)
        x = rng.standard_normal(6)
        f, sp, _ = build_plane(q, x)
        newton = solve_newton_quadratic(q, sp)
        descent = solve_gd_armijo(f, sp)
        assert abs(descent.alpha - newton.alpha) <= 1e-8
        assert abs(descent.beta - newton.beta) <= 1e-8

    def test_logistic_first_step_meets_tolerance(self):
        p = generate_logreg(40, 20, 50.0, 2)
        f, sp, _ = build_plane(p, np.zeros(40))
        sol = solve_gd_armijo(f, sp, inner_tol=1e-12)
        scale = max(np.linalg.norm(sp.v), np.linalg.norm(sp.w))
        assert sol.inner_grad_norm <= 1e-12 * scale
        assert sol.grad_evals == sol.inner_iters

    def test_already_optimal_returns_origin(self, small_logreg):
        f = small_logreg.objective()
        x = np.ones(50) * 0.1
        w = f.grad(x)
        tiny = 1e-13 * np.ones(50) / np.sqrt(50)
        sp = make_plane(f, x, tiny, w)
        sol = solve_gd_armijo(f, sp)
        assert (sol.alpha, sol.beta) == (0.0, 0.0)
        assert sol.inner_iters == 0 and sol.grad_evals == 0

    def test_stall_raises(self):
        p = generate_logreg(30, 15, 40.0, 4)
        f, sp, _ = build_plane(p, np.zeros(30))
        with pytest.raises(InnerStallError):
            solve_gd_armijo(f, sp, max_inner=1)

    def test_orthogonality_and_pythagoras_at_solution(self):
        p = generate_logreg(40, 20, 30.0, 6)
        f, sp, _ = build_plane(p, np.zeros(40))
        sol = solve_gd_armijo(f, sp, inner_tol=1e-12)
        g = f.grad(sol.x_next)
        eps_orth = 10.0 * 1e-12 * max(np.linalg.norm(sp.v), np.linalg.norm(sp.w))
        assert abs(g @ sp.v) <= eps_orth
        assert abs(g @ sp.w) <= eps_orth
        lhs = np.sum((g - sp.v) ** 2)
        rhs = g @ g + sp.v @ sp.v
        assert abs(lhs - rhs) <= max(10.0 * eps_orth * np.linalg.norm(sp.v),
                                     3.0 * eps_orth)

    def test_plane_minimality_dominates_ray_points(self):
        """The plane minimizer beats every point on the gradient ray,
        in particular the short step, the linesearch step, and the
        half companion step."""
        p = generate_logreg(40, 20, 30.0, 8)
        f = p.objective()
        x = np.zeros(40)
        v = f.grad(x)
        comp = companion_point(f, x, v)
        w = f.grad(comp.y)
        sp = make_plane(f, x, v, w)
        sol = solve_gd_armijo(f, sp)
        x_gd = run_gd_exact(f, x, SolverConfig(max_outer=1)).x_final
        t_star = (x - x_gd) @ v / (v @ v)
        slack = 1e-12 * max(1.0, abs(f.value(x)))
        for t in (1.0 / f.lip, t_star, comp.t / 2.0):
            assert f.value(sol.x_next) <= f.value(x - t * v) + slack


class TestSegmentMinimizer:
    def test_isotropic_midpoint(self):
        f = QuadraticProblem(np.eye(2), np.zeros(2)).objective()
        out = segment_minimizer(f, np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        npt.assert_allclose(out, [0.0, 0.0], atol=1e-9)

    def test_diag_example_beats_midpoint_and_endpoint(self, diag_quadratic):
        f = diag_quadratic.objective()
        x = np.array([1.0, 1.0])
        y = np.array([31.0 / 65.0, -71.0 / 65.0])
        out = segment_minimizer(f, x, y)
        assert f.value(out) <= f.value(0.5 * (x + y)) + 1e-14
        assert f.value(out) < f.value(x)
        # dense 1-D grid oracle at 1e-6 spacing
        lams = np.arange(0.0, 1.0 + 1e-6, 1e-6)
        grid_best = min(f.value(x + lam * (y - x)) for lam in lams[:: 1000])
        fine = min(f.value(x + lam * (y - x))
                   for lam in np.linspace(0.45, 0.75, 2001))
        assert f.value(out) <= min(grid_best, fine) + 1e-12

    def test_strict_descent_on_logistic(self, small_logreg):
        f = small_logreg.objective()
        x = np.zeros(50)
        x[0] = 0.7
        v = f.grad(x)
        comp = companion_point(f, x, v)
        out = segment_minimizer(f, x, comp.y)
        assert f.value(out) < f.value(x)
