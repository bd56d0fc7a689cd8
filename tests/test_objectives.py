import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import expit

from ellipcenters import (LogRegProblem, Objective, QuadraticProblem,
                          check_gradient, generate_logreg, generate_quadratic,
                          mu_for_kappa, run_gd_l, run_me)
from ellipcenters.objectives import (central_difference_gradient, load_logreg,
                                     load_quadratic, save_logreg,
                                     save_quadratic)


class TestQuadratic:
    def test_isotropic_value_grad(self):
        p = QuadraticProblem(np.eye(2), np.zeros(2))
        x = np.array([3.0, 4.0])
        assert p.value(x) == 12.5
        npt.assert_array_equal(p.grad(x), [3.0, 4.0])

    def test_diag_value_grad_with_fd_crosscheck(self):
        p = QuadraticProblem(np.diag([1.0, 4.0]), np.zeros(2))
        x = np.array([1.0, 1.0])
        val, grad = p.value(x), p.grad(x)
        assert val == 2.5
        npt.assert_allclose(grad, [1.0, 4.0])
        npt.assert_allclose(central_difference_gradient(p.value, x), grad,
                            rtol=1e-7)

    def test_gradient_vanishes_at_minimizer(self, small_quadratic):
        x_star = small_quadratic.minimizer()
        assert np.linalg.norm(small_quadratic.grad(x_star)) < 1e-10

    def test_rejects_asymmetric(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            QuadraticProblem(a, np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            QuadraticProblem(np.diag([1.0, -1.0]), np.zeros(2))

    def test_dimension_mismatch(self, diag_quadratic):
        with pytest.raises(ValueError, match="shape"):
            diag_quadratic.value(np.zeros(3))

    def test_constants_are_extreme_eigenvalues(self):
        p = QuadraticProblem(np.diag([2.0, 5.0, 9.0]), np.zeros(3))
        assert p.mu == pytest.approx(2.0)
        assert p.lip == pytest.approx(9.0)


class TestLogReg:
    def test_value_at_origin_is_log2(self, rng):
        for _ in range(3):
            a = rng.standard_normal((8, 5))
            labels = np.where(rng.standard_normal(8) >= 0, 1.0, -1.0)
            p = LogRegProblem(a, labels, 0.7)
            assert p.value(np.zeros(5)) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_hand_gradient_single_row(self):
        # f(x) = log(1 + exp(-x1)) + (1/2)||x||^2 at x = 0:
        # d/dx1 = -sigma(0) = -1/2, confirmed by central differences below
        p = LogRegProblem(np.array([[1.0, 0.0]]), np.array([1.0]), 1.0)
        grad = p.grad(np.zeros(2))
        npt.assert_allclose(grad, [-0.5, 0.0], atol=1e-15)
        npt.assert_allclose(central_difference_gradient(p.value, np.zeros(2)),
                            grad, atol=1e-9)

    def test_gradient_matches_central_differences(self, small_logreg):
        assert check_gradient(small_logreg.objective(), n_points=20) <= 1e-6

    def test_overflow_safe_large_margins(self):
        p = LogRegProblem(np.array([[1.0]]), np.array([1.0]), 1e-6)
        for x in (np.array([1e4]), np.array([-1e4])):
            assert np.isfinite(p.value(x))
            assert np.all(np.isfinite(p.grad(x)))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            LogRegProblem(np.ones((2, 2)), np.array([1.0, 0.0]), 1.0)

    def test_dimension_mismatch(self, small_logreg):
        with pytest.raises(ValueError, match="shape"):
            small_logreg.value(np.zeros(51))


class TestSmoothnessBound:
    def test_single_row(self):
        p = LogRegProblem(np.array([[2.0, 0.0]]), np.array([1.0]), 1.0)
        assert p.lip == pytest.approx(2.0)

    def test_zero_data_rows_leave_only_mu(self):
        p = LogRegProblem(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0]), 0.4)
        assert p.lip == pytest.approx(0.4)

    def test_two_rows(self):
        p = LogRegProblem(np.array([[1.0, 0.0], [0.0, 1.0]]),
                          np.array([1.0, -1.0]), 0.5)
        assert p.lip == pytest.approx(0.75)

    def test_matches_problem_lip(self, small_logreg):
        p = small_logreg
        row_energy = sum(float(row @ row) for row in p.a)
        assert p.lip == pytest.approx(row_energy / (4 * p.m) + p.mu)


class TestMuForKappa:
    def test_single_row(self):
        data = np.array([[2.0, 0.0]])
        mu = mu_for_kappa(data, 2.0)
        assert mu == pytest.approx(1.0)
        p = LogRegProblem(data, np.array([1.0]), mu)
        assert p.lip / mu == pytest.approx(2.0)

    def test_two_rows(self):
        mu = mu_for_kappa(np.array([[1.0, 0.0], [0.0, 1.0]]), 5.0)
        assert mu == pytest.approx(0.0625)

    def test_scaling_homogeneity(self, rng):
        data = rng.standard_normal((6, 4))
        mu = mu_for_kappa(data, 10.0)
        mu_scaled = mu_for_kappa(3.0 * data, 10.0)
        assert mu_scaled == pytest.approx(9.0 * mu)

    @pytest.mark.parametrize("kappa", [1.0, 0.5, -2.0])
    def test_rejects_kappa_at_most_one(self, kappa):
        with pytest.raises(ValueError):
            mu_for_kappa(np.ones((2, 2)), kappa)

    def test_rejects_zero_data(self):
        with pytest.raises(ValueError):
            mu_for_kappa(np.zeros((2, 2)), 5.0)


class TestGenerators:
    def test_logreg_deterministic(self):
        p1 = generate_logreg(20, 10, 7.0, 42)
        p2 = generate_logreg(20, 10, 7.0, 42)
        npt.assert_array_equal(p1.a, p2.a)
        npt.assert_array_equal(p1.labels, p2.labels)
        assert p1.mu == p2.mu

    def test_logreg_kappa_exact(self):
        p = generate_logreg(500, 250, 100.0, 5)
        assert abs(p.lip / p.mu - 100.0) <= 1e-12 * 100.0

    def test_logreg_labels_are_signs(self):
        p = generate_logreg(10, 40, 3.0, 1)
        assert set(np.unique(p.labels)) <= {-1.0, 1.0}

    def test_quadratic_constants_and_spd(self):
        p = generate_quadratic(30, 50.0, 9)
        assert p.mu == 1.0 and p.lip == 50.0
        eigs = np.linalg.eigvalsh(p.a_matrix)
        npt.assert_allclose(eigs[0], 1.0, rtol=1e-10)
        npt.assert_allclose(eigs[-1], 50.0, rtol=1e-10)

    def test_quadratic_deterministic(self):
        p1 = generate_quadratic(8, 12.0, 3)
        p2 = generate_quadratic(8, 12.0, 3)
        npt.assert_array_equal(p1.a_matrix, p2.a_matrix)
        npt.assert_array_equal(p1.b, p2.b)


class TestConvexityInequalities:
    """Sampled checks of the defining inequalities for both families."""

    @pytest.mark.parametrize("family", ["quadratic", "logreg"])
    def test_strong_convexity(self, family, rng, small_logreg, small_quadratic):
        prob = small_logreg if family == "logreg" else small_quadratic
        f = prob.objective()
        for _ in range(20):
            x = rng.standard_normal(f.dim)
            y = rng.standard_normal(f.dim)
            lower = (f.value(x) + f.grad(x) @ (y - x)
                     + 0.5 * f.mu * np.sum((y - x) ** 2))
            assert f.value(y) >= lower - 1e-9 * max(1.0, abs(f.value(y)))

    @pytest.mark.parametrize("family", ["quadratic", "logreg"])
    def test_pl_and_upper_cocoercivity(self, family, rng, small_logreg,
                                       small_quadratic):
        from ellipcenters import compute_reference
        prob = small_logreg if family == "logreg" else small_quadratic
        f = prob.objective()
        f_star = compute_reference(f).f_star
        for _ in range(20):
            x = 0.5 * rng.standard_normal(f.dim)
            gap = f.value(x) - f_star
            gnorm_sq = float(np.sum(f.grad(x) ** 2))
            assert gnorm_sq >= 2.0 * f.mu * gap - 1e-9
            assert gnorm_sq <= 2.0 * f.lip * gap + 1e-9


class TestSerialization:
    def test_logreg_roundtrip(self, tmp_path):
        p = generate_logreg(7, 4, 6.0, 13)
        path = tmp_path / "instance.txt"
        save_logreg(p, path)
        q = load_logreg(path)
        npt.assert_array_equal(p.a, q.a)
        npt.assert_array_equal(p.labels, q.labels)
        assert p.mu == q.mu

    def test_quadratic_roundtrip(self, tmp_path):
        p = generate_quadratic(5, 9.0, 21)
        path = tmp_path / "quad.txt"
        save_quadratic(p, path)
        q = load_quadratic(path)
        npt.assert_array_equal(p.a_matrix, q.a_matrix)
        npt.assert_array_equal(p.b, q.b)
        assert p.c == q.c


def test_objective_rejects_bad_constants():
    with pytest.raises(ValueError):
        Objective(2, 2.0, 1.0, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(ValueError):
        Objective(2, 0.0, 1.0, lambda x: 0.0, lambda x: np.zeros(2))


FAMILIES = ["quadratic", "logreg"]


def fresh_problem(family):
    """A new instance per test, so no stored product leaks between tests."""
    if family == "quadratic":
        return generate_quadratic(12, 30.0, 5)
    return generate_logreg(12, 20, 30.0, 5)


def direct_value(p, x):
    """The objective value computed from the data, without the problem's
    methods."""
    if isinstance(p, QuadraticProblem):
        return float(0.5 * x @ (np.asarray(p.a_matrix) @ x) - p.b @ x + p.c)
    margins = -p.labels * (np.asarray(p.a) @ x)
    return float(np.mean(np.logaddexp(0.0, margins))) + 0.5 * p.mu * float(x @ x)


def direct_grad(p, x):
    if isinstance(p, QuadraticProblem):
        return np.asarray(p.a_matrix) @ x - p.b
    a = np.asarray(p.a)
    margins = -p.labels * (a @ x)
    weights = p.labels * expit(margins)
    return -(a.T @ weights) / p.m + p.mu * x


def assert_bitwise(got, want):
    """Equal bits, so -0.0 and 0.0 differ and NaN matches NaN."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)


class TestReadOnlyData:
    def test_quadratic_data_rejects_writes(self):
        a, b = np.diag([1.0, 4.0]), np.ones(2)
        p = QuadraticProblem(a, b)
        with pytest.raises(ValueError):
            p.a_matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            p.b[0] = 2.0
        assert a.flags.writeable and b.flags.writeable

    def test_logreg_data_rejects_writes(self):
        a, labels = np.ones((3, 2)), np.array([1.0, -1.0, 1.0])
        p = LogRegProblem(a, labels, 0.5)
        with pytest.raises(ValueError):
            p.a[0, 0] = 2.0
        with pytest.raises(ValueError):
            p.labels[0] = -1.0
        assert a.flags.writeable and labels.flags.writeable


@pytest.mark.parametrize("family", FAMILIES)
class TestDataProductReuse:
    """``value`` and ``grad`` share the last point's data product; every
    result must still equal the direct formula bit for bit."""

    def test_matches_direct_formulas_in_any_order(self, family, rng):
        p = fresh_problem(family)
        x, y = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
        for point, call in [(x, "value"), (x, "grad"), (x, "grad"),
                            (x, "value"), (y, "grad"), (y, "value"),
                            (y, "value"), (x, "value"), (y, "grad")]:
            if call == "value":
                assert_bitwise(p.value(point), direct_value(p, point))
            else:
                assert_bitwise(p.grad(point), direct_grad(p, point))

    def test_in_place_change_of_x_is_seen(self, family, rng):
        p = fresh_problem(family)
        x = rng.standard_normal(p.dim)
        p.value(x)
        x[0] += 1.0
        assert_bitwise(p.grad(x), direct_grad(p, x))
        x[-1] *= -3.0
        assert_bitwise(p.value(x), direct_value(p, x))

    def test_mutating_returned_gradient_is_harmless(self, family, rng):
        p = fresh_problem(family)
        x = rng.standard_normal(p.dim)
        g = p.grad(x)
        g[:] = 7.0
        assert_bitwise(p.grad(x), direct_grad(p, x))
        assert_bitwise(p.value(x), direct_value(p, x))

    def test_signed_zeros_are_distinct_points(self, family, rng):
        p = fresh_problem(family)
        pos = rng.standard_normal(p.dim)
        pos[::2] = 0.0
        neg = pos.copy()
        neg[::2] = -0.0
        for point in (pos, neg, pos, neg):
            assert_bitwise(p.value(point), direct_value(p, point))
            assert_bitwise(p.grad(point), direct_grad(p, point))

    def test_two_threads_alternating_points(self, family, rng):
        p = fresh_problem(family)
        points = [rng.standard_normal(p.dim) for _ in range(2)]
        want = [(direct_value(p, x), direct_grad(p, x).tobytes())
                for x in points]
        wrong = []

        def worker(first):
            for i in range(1000):
                j = (first + i) % 2
                got = (p.value(points[j]), p.grad(points[j]).tobytes())
                if got != want[j]:
                    wrong.append((first, i))

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


def count_products(p, attr):
    """Swap ``p.<attr>`` for a view whose ``@`` products are counted in the
    returned class's ``products``."""

    class Counting(np.ndarray):
        products = 0

        def __matmul__(self, other):
            Counting.products += 1
            return np.asarray(self) @ other

    setattr(p, attr, getattr(p, attr).view(Counting))
    return Counting


class TestProductCount:
    def test_quadratic_value_and_grad_share_one_product(self, rng):
        p = generate_quadratic(12, 30.0, 5)
        counter = count_products(p, "a_matrix")
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        p.value(x)
        p.grad(x)
        assert counter.products == 1
        p.grad(y)
        p.value(y)
        assert counter.products == 2

    def test_quadratic_gd_l_makes_one_product_per_iterate(self):
        p = generate_quadratic(12, 30.0, 5)
        counter = count_products(p, "a_matrix")
        trace = run_gd_l(p.objective(), np.zeros(12))
        assert trace.converged
        assert counter.products == trace.iterations + 1

    def test_quadratic_me_makes_four_products_per_step(self):
        """One product at the start, then per step: A v (shared by the
        companion crossing and the Newton solve), the companion point, A w
        and the new iterate."""
        p = generate_quadratic(12, 30.0, 5)
        counter = count_products(p, "a_matrix")
        trace = run_me(p.objective(), np.zeros(12))
        assert trace.converged
        assert all(step.li_flag for step in trace.step_data)
        assert counter.products == 1 + 4 * trace.iterations

    def test_logreg_value_and_grad_make_two_products(self, rng):
        p = generate_logreg(12, 20, 30.0, 5)
        counter = count_products(p, "a")
        x, y = rng.standard_normal(12), rng.standard_normal(12)
        p.value(x)
        p.grad(x)
        assert counter.products == 2  # a @ x, then a.T @ weights
        p.value(y)
        assert counter.products == 3
