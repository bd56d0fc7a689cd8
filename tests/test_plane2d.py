import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (Objective, QuadraticProblem, SolverConfig,
                          generate_logreg, generate_quadratic, run_gd_exact,
                          run_me)
from ellipcenters import plane2d, solvers
from ellipcenters.companion import companion_point
from ellipcenters.errors import DegeneratePlaneError, InnerStallError
from ellipcenters.objectives import CountingObjective
from ellipcenters.plane2d import minimize


@pytest.fixture
def line_step(monkeypatch):
    """A one-step config under which every ellipcenter step is degenerate:
    sin^2 of two gradients never reaches ``LD_THRESHOLD = 1.0`` here."""
    monkeypatch.setattr(solvers, "LD_THRESHOLD", 1.0)
    return SolverConfig(eps=1e-300, max_outer=1)


def build_plane(prob, x):
    """Model of f on the plane through x spanned by the gradient and the
    companion gradient."""
    f = prob
    v = f.grad(x)
    comp = companion_point(f.restrict(x, v))
    w = f.grad(comp.y)
    return f, f.restrict(x, v).extend(w), comp


def plain(prob):
    """``prob`` as a plain Objective, whose model has no closed forms."""
    return Objective(prob.dim, prob.mu, prob.lip, prob.value, prob.grad)


def solve(sp, stall=True):
    """The plane step's search on ``sp``: ``(alpha, beta, x_next)``, with
    x_next the array of the model's point, to the tolerance
    ``solvers.INNER_TOL * max(||v||, ||w||)``, from f(base) evaluated
    uncounted."""
    tol = solvers.INNER_TOL * max(np.linalg.norm(d) for d in sp.dirs)
    alpha, beta = minimize(sp, tol, sp.f.value(sp.base), stall)
    return alpha, beta, sp.point(alpha, beta).x


def residual(sp, alpha, beta):
    """Norm of the model's restricted gradient at (alpha, beta)."""
    return float(np.linalg.norm(sp.grad(alpha, beta)))


def plane_gradient(f, sp, alpha, beta):
    """Chain-rule gradient (<g, v>, <g, w>) of f restricted to the plane."""
    g = f.grad(sp.point(alpha, beta))
    return np.array([g @ d for d in sp.dirs])


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
        alpha, beta, _ = solve(sp)
        grad2 = plane_gradient(f, sp, alpha, beta)
        assert np.linalg.norm(grad2) <= 1e-11 * max(np.linalg.norm(sp.dirs[0]),
                                                    np.linalg.norm(sp.dirs[1]))

    def test_plane_geometry_fields(self, small_logreg):
        _, sp, _ = build_plane(small_logreg, np.ones(50) * 0.1)
        assert 0.0 <= sp.sin2_theta <= 1.0
        vv, ww = sp.gram[0][0], sp.gram[1][1]
        assert np.all(np.linalg.eigvalsh(sp.gram) >= -1e-12 * vv * ww)


class TestNewtonPath:
    def test_two_dim_quadratic_hits_minimizer(self, diag_quadratic):
        _, sp, _ = build_plane(diag_quadratic, np.array([1.0, 1.0]))
        alpha, beta, x_next = solve(sp)
        npt.assert_allclose(x_next, [0.0, 0.0], atol=1e-12)
        v, w = sp.dirs
        npt.assert_allclose(x_next, sp.base + alpha * v + beta * w)

    def test_isotropic_gradients_are_parallel(self):
        q = QuadraticProblem(np.eye(4), np.zeros(4))
        x = np.zeros(4)
        x[0] = 1.0
        _, sp, _ = build_plane(q, x)
        with pytest.raises(DegeneratePlaneError):
            solve(sp)
        with pytest.raises(DegeneratePlaneError):
            solve(plain(q).restrict(x, sp.dirs[0]).extend(sp.dirs[1]))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_residual_small_on_random_spd(self, seed, rng):
        q = generate_quadratic(5, 12.0, seed)
        x = rng.standard_normal(5)
        _, sp, _ = build_plane(q, x)
        cf = CountingObjective(q)
        sp = cf.restrict(x, sp.dirs[0]).extend(sp.dirs[1])
        alpha, beta, _ = solve(sp)
        assert cf.restricted_evals == 1  # the gradient at the origin
        assert residual(sp, alpha, beta) <= 1e-10 * sp.gram[0][0]


class TestArmijoDescent:
    """Damped Newton with Armijo backtracking, on models with no closed
    form."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_newton_on_quadratics(self, seed, rng):
        q = generate_quadratic(6, 10.0, seed)
        x = rng.standard_normal(6)
        f, sp, _ = build_plane(q, x)
        exact = solve(sp)
        newton = solve(plain(q).restrict(x, sp.dirs[0]).extend(sp.dirs[1]))
        assert abs(newton[0] - exact[0]) <= 1e-8
        assert abs(newton[1] - exact[1]) <= 1e-8

    def test_logistic_first_step_meets_tolerance(self):
        p = generate_logreg(40, 20, 50.0, 2)
        f, sp, _ = build_plane(p, np.zeros(40))
        alpha, beta, _ = solve(sp)
        scale = max(np.linalg.norm(d) for d in sp.dirs)
        assert residual(sp, alpha, beta) <= 1e-12 * scale

    def test_already_optimal_returns_origin(self, small_logreg):
        cf = CountingObjective(small_logreg)
        x = np.ones(50) * 0.1
        w = cf.grad(x)
        tiny = 1e-13 * np.ones(50) / np.sqrt(50)
        sp = cf.restrict(x, tiny).extend(w)
        alpha, beta, _ = solve(sp)
        assert (alpha, beta) == (0.0, 0.0)
        assert cf.restricted_evals == 0

    def test_zero_base_value_keeps_rounding_floor(self):
        """At f(base) = 0 the rounding floor follows the accepted values, so
        the first step costs about what it costs on f + 1."""
        q = generate_quadratic(20, 50.0, 5)
        assert q.value(np.zeros(20)) == 0.0
        counts = []
        for c in (0.0, 1.0):
            f = Objective(20, q.mu, q.lip, lambda x, c=c: q.value(x) + c, q.grad)
            trace = run_me(f, np.zeros(20), SolverConfig(max_outer=1))
            assert trace.records[0].li_flag is True
            counts.append(trace.records[-1].value_evals_total)
        assert counts[0] <= 2 * counts[1]

    def test_stall_raises(self, monkeypatch):
        p = generate_logreg(30, 15, 40.0, 4)
        f, sp, _ = build_plane(p, np.zeros(30))
        monkeypatch.setattr(plane2d, "MAX_NEWTON", 1)
        with pytest.raises(InnerStallError):
            solve(sp)
        alpha, beta, _ = solve(sp, stall=False)
        assert residual(sp, alpha, beta) > \
            1e3 * 1e-12 * max(np.linalg.norm(d) for d in sp.dirs)

    def test_orthogonality_and_pythagoras_at_solution(self):
        p = generate_logreg(40, 20, 30.0, 6)
        f, sp, _ = build_plane(p, np.zeros(40))
        _, _, x_next = solve(sp)
        g = f.grad(x_next)
        v, w = sp.dirs
        eps_orth = 10.0 * 1e-12 * max(np.linalg.norm(v), np.linalg.norm(w))
        assert abs(g @ v) <= eps_orth
        assert abs(g @ w) <= eps_orth
        lhs = np.sum((g - v) ** 2)
        rhs = g @ g + v @ v
        assert abs(lhs - rhs) <= max(10.0 * eps_orth * np.linalg.norm(v),
                                     3.0 * eps_orth)

    def test_plane_minimality_dominates_ray_points(self):
        """The plane minimizer beats every point on the gradient ray,
        in particular the short step, the linesearch step, and the
        half companion step."""
        p = generate_logreg(40, 20, 30.0, 8)
        f = p
        x = np.zeros(40)
        v = f.grad(x)
        comp = companion_point(f.restrict(x, v))
        w = f.grad(comp.y)
        _, _, x_next = solve(f.restrict(x, v).extend(w))
        x_gd = run_gd_exact(f, x, SolverConfig(max_outer=1)).x_final
        t_star = (x - x_gd) @ v / (v @ v)
        slack = 1e-12 * max(1.0, abs(f.value(x)))
        for t in (1.0 / f.lip, t_star, comp.t / 2.0):
            assert f.value(x_next) <= f.value(x - t * v) + slack


class TestSegmentMinimizer:
    """With parallel gradients the plane is the line along v, and the
    ellipcenter step minimizes f along it: on the segment [x, y] to the
    companion y, by the exact linesearch."""

    def test_isotropic_midpoint(self):
        q = QuadraticProblem(np.eye(2), np.zeros(2))
        f = Objective(2, 1.0, 1.0, q.value, q.grad)  # no closed forms
        trace = run_me(f, np.array([1.0, 0.0]), SolverConfig(max_outer=1))
        assert trace.records[0].li_flag is False
        npt.assert_allclose(trace.x_final, [0.0, 0.0], atol=1e-12)

    def test_diag_example_beats_midpoint_and_endpoint(self, diag_quadratic,
                                                       line_step):
        f = diag_quadratic
        x = np.array([1.0, 1.0])
        y = np.array([31.0 / 65.0, -71.0 / 65.0])  # the companion point
        trace = run_me(f, x, line_step)
        assert trace.records[0].li_flag is False
        out = trace.x_final
        npt.assert_allclose(out, x - 17.0 / 65.0 * f.grad(x), rtol=1e-15)
        assert f.value(out) <= f.value(0.5 * (x + y)) + 1e-14
        assert f.value(out) < f.value(x)
        grid = min(f.value(x + lam * (y - x))
                   for lam in np.linspace(0.0, 1.0, 2001))
        assert f.value(out) <= grid + 1e-15

    def test_strict_descent_on_logistic(self, small_logreg, line_step):
        f = small_logreg
        x = np.zeros(50)
        x[0] = 0.7
        trace = run_me(f, x, line_step)
        assert trace.records[0].li_flag is False
        assert f.value(trace.x_final) < f.value(x)

    @pytest.mark.parametrize("family", ["logreg", "quadratic"])
    def test_same_point_as_exact_linesearch(self, family, small_logreg,
                                            small_quadratic, line_step):
        p = small_logreg if family == "logreg" else small_quadratic
        f = p
        x = np.full(p.dim, 0.7)
        me = run_me(f, x, line_step)
        assert me.records[0].li_flag is False
        npt.assert_array_equal(me.x_final, run_gd_exact(f, x, line_step).x_final)
