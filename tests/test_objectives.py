import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg.blas import dsymv
from scipy.special import expit

from ellipcenters import (LogRegProblem, Objective, QuadraticProblem,
                          SolverConfig, check_gradient, generate_logreg,
                          generate_quadratic, mu_for_kappa, run_fast_gd,
                          run_gd_exact, run_gd_l, run_me)
from ellipcenters.cli import main
from ellipcenters.errors import NonFiniteError
from ellipcenters.objectives import (REFRESH_EVERY, CountingObjective,
                                     Restriction, central_difference_gradient,
                                     load_logreg, load_quadratic, save_logreg,
                                     save_quadratic)
from ellipcenters.solvers import RUNNERS


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
        assert check_gradient(small_logreg, n_points=20) <= 1e-6

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

    @pytest.mark.parametrize("kappa", [1.0, 0.5, -2.0, math.inf, math.nan])
    def test_rejects_kappa_at_most_one(self, kappa):
        with pytest.raises(ValueError, match="must exceed 1 and be finite"):
            mu_for_kappa(np.ones((2, 2)), kappa)

    def test_rejects_zero_data(self):
        with pytest.raises(ValueError):
            mu_for_kappa(np.zeros((2, 2)), 5.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="energy"):
                mu_for_kappa(np.array([[1.0, bad]]), 5.0)


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

    @pytest.mark.parametrize("kappa", [0.5, math.inf, math.nan])
    def test_quadratic_rejects_kappa_below_one_or_non_finite(self, kappa):
        with pytest.raises(ValueError, match="at least 1 and be finite"):
            generate_quadratic(3, kappa, 0)

    def test_quadratic_deterministic(self):
        p1 = generate_quadratic(8, 12.0, 3)
        p2 = generate_quadratic(8, 12.0, 3)
        npt.assert_array_equal(p1.a_matrix, p2.a_matrix)
        npt.assert_array_equal(p1.b, p2.b)

    @pytest.mark.parametrize("seed", range(3))
    def test_quadratic_matrix_is_the_symmetrized_construction(self, seed):
        """The problem's stored symmetric part is bit for bit the matrix
        built and symmetrized by hand from the same draws."""
        n, kappa = 500, 1e3
        rng = np.random.Generator(np.random.PCG64(seed))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.linspace(1.0, kappa, n)) @ q.T
        a = 0.5 * (a + a.T)
        p = generate_quadratic(n, kappa, seed)
        assert_bitwise(p.a_matrix, a)
        assert_bitwise(p.b, rng.standard_normal(n))


class TestConvexityInequalities:
    """Sampled checks of the defining inequalities for both families."""

    @pytest.mark.parametrize("family", ["quadratic", "logreg"])
    def test_strong_convexity(self, family, rng, small_logreg, small_quadratic):
        prob = small_logreg if family == "logreg" else small_quadratic
        f = prob
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
        f = prob
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

    @pytest.mark.parametrize("load", [load_logreg, load_quadratic])
    def test_empty_file_rejected(self, load, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load(path)

    def test_truncated_quadratic_rejected(self, tmp_path):
        path = tmp_path / "quad.txt"
        save_quadratic(generate_quadratic(5, 9.0, 21), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # no b, no c
        with pytest.raises(ValueError, match="expected 8 lines"):
            load_quadratic(path)

    def test_quadratic_trailing_lines_rejected(self, tmp_path):
        path = tmp_path / "quad.txt"
        save_quadratic(generate_quadratic(5, 9.0, 21), path)
        with open(path, "a") as fh:
            fh.write("1.5\n")
        with pytest.raises(ValueError, match="expected 8 lines"):
            load_quadratic(path)

    def test_two_field_logistic_header_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        save_logreg(generate_logreg(7, 4, 6.0, 13), path)
        lines = path.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:2])  # n m, no mu
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="header of 3 fields"):
            load_logreg(path)


class TestNonFiniteData:
    """A NaN or infinite entry in a problem's data is rejected at
    construction, by the name of the array that holds it."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["A", "b", "c"])
    def test_quadratic(self, name, bad):
        data = {"A": np.eye(3), "b": np.zeros(3), "c": 0.0}
        if name == "c":
            data["c"] = bad
        else:
            data[name].flat[1] = bad  # A's (0, 1), b's second entry
        with pytest.raises(ValueError, match=f"^{name} has a NaN or infinite"):
            QuadraticProblem(data["A"], data["b"], data["c"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_logistic(self, bad):
        a = np.ones((4, 3))
        a[2, 1] = bad
        with pytest.raises(ValueError, match="^a has a NaN or infinite"):
            LogRegProblem(a, np.ones(4), 1.0)
        with pytest.raises(ValueError, match="mu <= lip < inf"):
            LogRegProblem(np.ones((4, 3)), np.ones(4), abs(bad))

    @pytest.mark.parametrize("family", ["quadratic", "logreg"])
    def test_loaded_files(self, family, tmp_path):
        """``nan`` and ``inf`` parse as floats, so a file reaches the
        constructor's check."""
        path = tmp_path / "instance.txt"
        if family == "quadratic":
            save_quadratic(generate_quadratic(3, 5.0, 0), path)
            load, rows = load_quadratic, {1: "A", 4: "b", 5: "c"}
        else:
            save_logreg(generate_logreg(3, 2, 5.0, 0), path)
            load, rows = load_logreg, {1: "a", 2: "a"}
        lines = path.read_text().splitlines()
        for row, name in rows.items():
            for bad in ("nan", "inf"):
                edited = lines[:row] + [" ".join([bad, *lines[row].split()[1:]])]
                path.write_text("\n".join(edited + lines[row + 1:]) + "\n")
                with pytest.raises(ValueError, match=f"^{name} has"):
                    load(path)


def test_objective_rejects_bad_constants():
    with pytest.raises(ValueError):
        Objective(2, 2.0, 1.0, lambda x: 0.0, lambda x: np.zeros(2))
    with pytest.raises(ValueError):
        Objective(2, 0.0, 1.0, lambda x: 0.0, lambda x: np.zeros(2))


def test_problems_are_objectives():
    """A problem is itself the Objective the solvers consume."""
    for p in (generate_quadratic(4, 10.0, 0), generate_logreg(4, 6, 10.0, 0)):
        assert isinstance(p, Objective)
        assert p.objective() is p


def test_problems_check_their_constants_at_construction():
    with pytest.raises(ValueError, match="mu <= lip"):
        QuadraticProblem(np.eye(2), np.zeros(2), mu=2.0, lip=1.0)
    with pytest.raises(ValueError, match="dim must be positive"):
        LogRegProblem(np.zeros((3, 0)), np.ones(3), 1.0)
    with pytest.raises(ValueError, match="no rows"):
        LogRegProblem(np.zeros((0, 3)), np.ones(0), 1.0)


FAMILIES = ["quadratic", "logreg"]


def fresh_problem(family):
    """A small instance of ``family``, new for each test."""
    if family == "quadratic":
        return generate_quadratic(12, 30.0, 5)
    return generate_logreg(12, 20, 30.0, 5)


def data_product(p, x):
    """``A @ x`` from the data, without the problem's methods: BLAS dsymv on
    the stored symmetric matrix for a quadratic, ``a @ x`` for logistic."""
    if isinstance(p, QuadraticProblem):
        return dsymv(1.0, np.asarray(p.a_matrix), x)
    return np.asarray(p.a) @ x


def direct_value(p, x):
    """The objective value computed from the data, without the problem's
    methods."""
    if isinstance(p, QuadraticProblem):
        return float(0.5 * x @ data_product(p, x) - p.b @ x + p.c)
    margins = -p.labels * data_product(p, x)
    return float(np.mean(np.logaddexp(0.0, margins))) + 0.5 * p.mu * float(x @ x)


def direct_grad(p, x, product=None):
    """The gradient from the data, on ``product`` in place of the data
    product ``A @ x`` when one is given."""
    if product is None:
        product = data_product(p, x)
    if isinstance(p, QuadraticProblem):
        return product - p.b
    margins = -p.labels * product
    weights = p.labels * expit(margins)
    return -(np.asarray(p.a).T @ weights) / p.m + p.mu * x


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


class TestSymmetricKernel:
    """A quadratic's product is one dsymv on its stored, exactly symmetric
    matrix."""

    @pytest.mark.parametrize("n", [1, 2, 40, 500])
    def test_product_is_dsymv_within_rounding_of_matmul(self, n, rng):
        p = generate_quadratic(n, 1e3, n)
        a = np.asarray(p.a_matrix)
        for _ in range(3):
            x = rng.standard_normal(n)
            got = p._matvec(x)
            assert_bitwise(got, dsymv(1.0, a, x))
            assert_bitwise(p.grad(x), got - p.b)
            bound = 4 * n * np.finfo(float).eps * (np.abs(a) @ np.abs(x))
            assert np.all(np.abs(got - a @ x) <= bound)

    def test_near_symmetric_input_is_stored_exactly_symmetric(self, rng):
        a = np.array(generate_quadratic(40, 1e2, 3).a_matrix)
        a[0, 1] += 1e-13 * np.abs(a).max()
        p = QuadraticProblem(a, rng.standard_normal(40))
        assert not np.array_equal(a, a.T)
        assert_bitwise(p.a_matrix, 0.5 * (a + a.T))
        assert np.array_equal(p.a_matrix, p.a_matrix.T)
        assert check_gradient(p, n_points=5) <= 1e-6

    def test_bit_symmetric_input_is_stored_unchanged(self):
        a = np.array(generate_quadratic(12, 30.0, 5).a_matrix)
        p = QuadraticProblem(a, np.ones(12))
        assert_bitwise(p.a_matrix, a)
        assert np.shares_memory(p.a_matrix, a)

    def test_matrix_is_stored_in_c_order(self):
        """dsymv gets the F-ordered view A.T, which it reads without a copy."""
        a = np.asfortranarray(generate_quadratic(12, 30.0, 5).a_matrix)
        p = QuadraticProblem(a, np.ones(12))
        assert p.a_matrix.flags.c_contiguous
        assert_bitwise(p.a_matrix, a)

    @pytest.mark.parametrize("size", [11, 13])
    def test_wrong_length_vectors_raise(self, size, rng):
        """dsymv would read only the first n entries of a longer vector:
        every path to it checks the shape first."""
        f = generate_quadratic(12, 30.0, 5)
        good, bad = rng.standard_normal(12), rng.standard_normal(size)
        calls = [lambda: f.value(bad), lambda: f.grad(bad),
                 lambda: f.restrict(bad, good), lambda: f.restrict(good, bad),
                 lambda: f.restrict(good, good).extend(bad),
                 lambda: f.extrapolate(bad, good, 0.5),
                 lambda: f.extrapolate(good, bad, 0.5)]
        for call in calls:
            with pytest.raises(ValueError, match="must have shape"):
                call()


def test_scipy_linalg_loads_on_the_first_quadratic_product():
    """Importing the package and generating instances load no scipy module
    (each of ``scipy.linalg`` and ``scipy.special`` costs ~0.3 s alone); the
    first logistic evaluation loads ``scipy.special``, the first quadratic
    product ``scipy.linalg``."""
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import ellipcenters
        q = ellipcenters.generate_quadratic(30, 10.0, 0)
        p = ellipcenters.generate_logreg(20, 10, 10.0, 0)
        print(any(m.partition(".")[0] == "scipy" for m in sys.modules))
        p.grad(np.zeros(20))
        print("scipy.special" in sys.modules)
        q.grad(np.zeros(30))
        print("scipy.linalg" in sys.modules)
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


@pytest.mark.parametrize("family", FAMILIES)
class TestDataProductReuse:
    """``value`` and ``grad`` at arrays, in any order and from two threads,
    equal the direct formulas bit for bit: each call forms its product."""

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

        run_two_threads(worker)
        assert wrong == []

    def test_two_threads_extrapolating(self, family, rng):
        """Momentum points made while another thread evaluates elsewhere
        give gradients correct to rounding."""
        p = fresh_problem(family)
        pairs = [rng.standard_normal((2, p.dim)) for _ in range(2)]
        want = [direct_grad(p, y + 0.5 * (y - x)) for x, y in pairs]
        wrong = []

        def worker(j):
            x, y = pairs[j]
            for i in range(1000):
                p.value(x)
                p.value(y)
                g = p.grad(p.extrapolate(y, x, 0.5))
                if np.linalg.norm(g - want[j]) > 1e-12 * np.linalg.norm(want[j]):
                    wrong.append((j, i))

        run_two_threads(worker)
        assert wrong == []


def run_two_threads(worker):
    """Run ``worker(0)`` and ``worker(1)`` on two threads that switch as
    often as the interpreter allows; both must finish within 30 s."""
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


def read_only_view(x):
    """A caller's read-only view of ``x``, which writes to ``x`` still
    change."""
    view = x.view()
    view.flags.writeable = False
    return view


@pytest.mark.parametrize("family", FAMILIES)
class TestReadOnlyViewsAreCallersArrays:
    """A read-only view of an array the caller can still write is an array
    like any other: after a write through that array, every product is
    formed afresh."""

    def test_value_grad_and_restrict(self, family, rng):
        p = fresh_problem(family)
        x, v = rng.standard_normal((2, p.dim))
        xv = read_only_view(x)
        p.value(xv)
        x[0] += 1.0
        assert_bitwise(p.value(xv), direct_value(p, x))
        x[-1] *= -3.0
        assert_bitwise(p.grad(xv), direct_grad(p, x))
        x[1] -= 0.5
        assert_bitwise(p.restrict(xv, v).value(0.0), direct_value(p, x))

    @pytest.mark.parametrize("moved", ["x", "x_prev"])
    def test_extrapolate(self, family, moved, rng):
        p = fresh_problem(family)
        x, x_prev = rng.standard_normal((2, p.dim))
        xv, pv = read_only_view(x), read_only_view(x_prev)
        p.value(pv)
        p.value(xv)  # both points evaluated before the write
        (x if moved == "x" else x_prev)[0] += 1.0
        z = p.extrapolate(xv, pv, 0.5)
        assert_bitwise(p.grad(z), direct_grad(p, x + 0.5 * (x - x_prev)))


@pytest.mark.parametrize("family", FAMILIES)
class TestHandedOutPointMadeWritable:
    """A point the package handed out, made writable again by its owner and
    changed, is an array like any other, read-only again or not: its
    products are formed afresh."""

    def test_value_and_grad(self, family):
        p = fresh_problem(family)
        x = run_gd_l(p, np.zeros(p.dim), SolverConfig(max_outer=3)).x_final
        x.flags.writeable = True
        x[0] += 1.0
        assert_bitwise(p.grad(x), direct_grad(p, x))
        assert_bitwise(p.value(x), direct_value(p, x))

    def test_made_read_only_again(self, family):
        """A problem that kept the product of the points it evaluated
        served the stale one here."""
        p = fresh_problem(family)
        x = run_gd_l(p, np.zeros(p.dim), SolverConfig(max_outer=3)).x_final
        x.flags.writeable = True
        x[0] += 1.0
        x.flags.writeable = False
        assert_bitwise(p.grad(x), direct_grad(p, x))
        assert_bitwise(p.value(x), direct_value(p, x))

    def test_extrapolate(self, family, rng):
        p = fresh_problem(family)
        x = run_gd_l(p, np.zeros(p.dim), SolverConfig(max_outer=3)).x_final
        x_prev = rng.standard_normal(p.dim)
        x_prev.setflags(write=False)
        p.value(x_prev)
        p.value(x)  # both points evaluated before the write
        x.flags.writeable = True
        x[0] += 1.0
        z = p.extrapolate(x, x_prev, 0.5)
        assert_bitwise(p.grad(z), direct_grad(p, z.x))


# Per-step data products of every solver: ``(at the start, per step, points
# handed over per step)``.  A quadratic me or gd_exact step forms A v (and,
# for me, A w); a logistic step adds the transposed product of each full
# gradient: at the companion point and at x_next for me, at x_next for
# gd_exact.  The product of every point a step hands over is carried, and is
# formed exactly instead once REFRESH_EVERY carried updates have piled up.
# gd_l forms A x_next (and, logistic, its a.T product).  fast_gd does the
# same, plus the a.T product of grad f(z): z's forward product comes from
# those of x_k and x_{k-1}, rebuilt at every step, so it is never refreshed.
# Its first step reuses the gradient at x1, so logistic fast_gd makes 3k + 1
# products over k steps.
STEP_PRODUCTS = {
    ("quadratic", "me"): (1, 2, 2), ("quadratic", "gd_exact"): (1, 1, 1),
    ("quadratic", "fast_gd"): (1, 1, 0), ("quadratic", "gd_l"): (1, 1, 0),
    ("logreg", "me"): (2, 4, 2), ("logreg", "gd_exact"): (2, 2, 1),
    ("logreg", "fast_gd"): (1, 3, 0), ("logreg", "gd_l"): (2, 2, 0),
}


def count_products(p):
    """Count the data products ``p`` forms in the returned class's
    ``products``: every call of its family's ``_matvec`` and, for logistic,
    every product with ``a.T`` (the second pass of a gradient)."""

    class Counting(np.ndarray):
        products = 0

        def __matmul__(self, other):
            Counting.products += 1
            return np.asarray(self) @ other

    class Data(np.ndarray):
        """``a``, whose transpose counts its products."""

        T = property(lambda self: np.asarray(self).T.view(Counting))

        def __matmul__(self, other):
            return np.asarray(self) @ other

    matvec = p._matvec

    def counted(x):
        Counting.products += 1
        return matvec(x)

    p._matvec = counted
    if isinstance(p, LogRegProblem):
        p.a = p.a.view(Data)
    return Counting


class TestProductCount:
    def test_quadratic_value_and_grad_share_one_product(self, rng):
        """A point record, as every point the package makes is, carries one
        product for ``value`` and ``grad``, whatever was evaluated between
        them; an array, writable or read-only, has one formed at each
        call."""
        p = generate_quadratic(12, 30.0, 5)
        counter = count_products(p)
        x, y = p._point(rng.standard_normal(12)), rng.standard_normal(12)
        p.value(x)
        p.grad(x)
        assert counter.products == 1
        p.grad(y)
        p.value(y)
        assert counter.products == 3
        y.setflags(write=False)
        p.value(y)
        p.grad(y)
        assert counter.products == 5
        p.grad(x)
        assert counter.products == 5

    def test_quadratic_gd_l_makes_one_product_per_iterate(self):
        p = generate_quadratic(12, 30.0, 5)
        counter = count_products(p)
        trace = run_gd_l(p, np.zeros(12))
        assert trace.converged
        assert counter.products == trace.iterations + 1

    @pytest.mark.parametrize("family, sid", list(STEP_PRODUCTS))
    def test_products_per_restricted_step(self, family, sid):
        """70 steps, past one refresh, for all four solvers; eps = 1e-300,
        and at kappa = 1e6 the logistic me run is still descending at step
        70 (at 1e2 it reaches the gradient floor and ends
        ``precision_floor`` after 22)."""
        p = (generate_quadratic(40, 1e2, 0) if family == "quadratic"
             else generate_logreg(60, 30, 1e6, 0))
        counter = count_products(p)
        trace = RUNNERS[sid](p, np.zeros(p.dim),
                             SolverConfig(eps=1e-300, max_outer=70))
        k = trace.iterations
        assert k == 70 > REFRESH_EVERY
        start, per_step, handed_over = STEP_PRODUCTS[family, sid]
        assert counter.products == (start + per_step * k
                                    + handed_over * (k // REFRESH_EVERY))

    def test_logreg_value_and_grad_make_two_products(self, rng):
        """As for a quadratic; a logistic gradient adds its ``a.T`` pass."""
        p = generate_logreg(12, 20, 30.0, 5)
        counter = count_products(p)
        x, y = p._point(rng.standard_normal(12)), rng.standard_normal(12)
        p.value(x)
        p.grad(x)
        assert counter.products == 2  # a @ x, then a.T @ weights
        p.value(y)
        p.grad(y)
        assert counter.products == 5  # a @ y at each call, and a.T @ weights
        p.value(x)
        assert counter.products == 5

    @pytest.mark.parametrize("family, products",
                             [("logreg", 246), ("quadratic", 3504)])
    def test_verify_products(self, family, products, monkeypatch, capsys):
        """The forward products and gradients of one small ``verify``,
        pinned: the reference is evaluated as a point record, so it shares
        one product between its gradient and its value, and each dominance
        point takes no gradient beyond its runs' and one product, for its
        margin."""
        cls = LogRegProblem if family == "logreg" else QuadraticProblem
        matvec, grad, calls = cls._matvec, cls.grad, []
        monkeypatch.setattr(cls, "_matvec",
                            lambda p, x: calls.append(1) or matvec(p, x))
        monkeypatch.setattr(cls, "grad",
                            lambda p, x: calls.append(0) or grad(p, x))
        assert main(["verify", "--problem", family, "--n", "60", "--kappa",
                     "1e3", "--seed", "3"]) == 0
        grads = {"logreg": 240, "quadratic": 3448}[family]
        assert (calls.count(1), calls.count(0)) == (products, grads)


def plain(p):
    """``p`` as a plain Objective, with the generic full-evaluation model."""
    return Objective(p.dim, p.mu, p.lip, p.value, p.grad)


def model_on(f, x, v, *w):
    """``f``'s model on the line ``x + span(v)``, extended by ``w`` if
    given."""
    model = f.restrict(x, v)
    return model.extend(*w) if w else model


@pytest.mark.parametrize("kind", ["quadratic", "logreg", "plain"])
class TestRestriction:
    """Models of f on x + span(v, w) agree with full evaluations."""

    def build(self, kind, rng):
        p = fresh_problem("quadratic" if kind == "quadratic" else "logreg")
        f = plain(p) if kind == "plain" else p
        x, v, w = rng.standard_normal((3, p.dim))
        return p, f, x, v, w

    def test_value_slope_and_plane_gradient(self, kind, rng):
        p, f, x, v, w = self.build(kind, rng)
        ray = f.restrict(x, v)
        plane = ray.extend(w)
        for a, b in [(0.0, 0.0), (0.3, -0.2), (-1.1, 0.7), (2.5, 0.0)]:
            point = x + a * v + b * w
            assert_bitwise(plane.point(a, b).x, point)
            want = direct_value(p, point)
            assert abs(plane.value(a, b) - want) <= 1e-13 * abs(want)
            g = direct_grad(p, point)
            scale = 1e-13 * np.linalg.norm(g) * max(np.linalg.norm(v),
                                                    np.linalg.norm(w))
            npt.assert_allclose(plane.grad(a, b), [g @ v, g @ w], rtol=0, atol=scale)
            on_ray = x + a * v
            want = direct_value(p, on_ray)
            assert abs(ray.value(a) - want) <= 1e-13 * abs(want)
            g = direct_grad(p, on_ray)
            assert abs(ray.grad(a)[0] - g @ v) <= \
                1e-13 * np.linalg.norm(g) * np.linalg.norm(v)

    def test_value_and_gradient_given_at_x_change_nothing(self, kind, rng):
        """``f_x`` and ``grad_x`` spare a model forming them; with the
        gradient as the first direction, as a solver restricts, the model
        is the same to the bit."""
        _, f, x, _, w = self.build(kind, rng)
        f_x, g = f.value(x), f.grad(x)
        given = f.restrict(x, g, f_x=f_x, grad_x=g).extend(w)
        formed = f.restrict(x, g).extend(w)
        assert_bitwise(given.gram, formed.gram)
        for z in [(0.0, 0.0), (0.4, -1.3)]:
            assert given.value(*z) == formed.value(*z)
            assert_bitwise(given.grad(*z), formed.grad(*z))

    def test_full_gradient_at_a_model_point(self, kind, rng):
        """The problem's gradient at a model point reuses the product the
        point carries; it agrees with the direct formula."""
        p, f, x, v, w = self.build(kind, rng)
        point = f.restrict(x, v).extend(w).point(0.7, -0.4)
        g = direct_grad(p, point.x)
        npt.assert_allclose(f.grad(point), g, rtol=0, atol=1e-13 * np.linalg.norm(g))
        assert abs(f.value(point) - direct_value(p, point.x)) <= \
            1e-13 * abs(direct_value(p, point.x))

    def test_evaluations_are_counted_apart(self, kind, rng):
        _, f, x, v, w = self.build(kind, rng)
        cf = CountingObjective(f)
        plane = cf.restrict(x, v).extend(w)
        plane.value(0.1, 0.2)
        plane.grad(0.1, 0.2)
        plane.grad(0.0, 0.5)
        counts = (cf.value_evals, cf.grad_evals, cf.restricted_evals)
        assert counts == ((1, 2, 0) if kind == "plain" else (0, 0, 3))


class NanModel(Restriction):
    """A restricted model whose evaluations are all non-finite."""

    full = False

    def _value(self, z):
        return float("nan")

    def _grad(self, z):
        return np.full(len(self.dirs), np.inf)


@pytest.mark.parametrize("family", FAMILIES)
def test_models_count_into_the_counter_that_made_them(family, rng):
    """A model from ``CountingObjective.restrict``, and one extended from
    it, count their evaluations into that counter and raise on a non-finite
    one; a model of the bare objective counts and checks nothing."""
    p = fresh_problem(family)
    f = p
    x, v, w = rng.standard_normal((3, p.dim))
    cf = CountingObjective(f)
    ray = cf.restrict(x, v)
    plane = ray.extend(w)
    ray.value(0.1)
    plane.grad(0.1, 0.2)
    plane.value(0.0, 0.3)
    assert (cf.value_evals, cf.grad_evals, cf.restricted_evals) == (0, 0, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            plane.value(1e300, 0.0)
        with pytest.raises(NonFiniteError):
            ray.grad(1e308)
        assert (cf.value_evals, cf.grad_evals, cf.restricted_evals) == (0, 0, 5)
        bare = f.restrict(x, v).extend(w)
        assert bare.counter is None
        assert bare.value(1e300, 0.0) == math.inf
    assert cf.restricted_evals == 5


def test_restrict_builds_the_objectives_model(rng):
    """An ``Objective`` subclass changes its model by naming it:
    ``restrict``, direct or through a counter, builds ``model`` on the
    point's product with the caller's f and gradient there, and ``extend``
    keeps the class and the counter."""
    class Model(Restriction):
        def __init__(self, *args):
            super().__init__(*args)
            self.args = args

    class Doubled(Objective):
        model = Model

        def _matvec(self, x):
            return 2.0 * x

    f = Doubled(3, 1.0, 1.0, lambda x: float(x.dot(x)), lambda x: 2.0 * x)
    x, x_prev, v, w = rng.standard_normal((4, 3))
    point = f.extrapolate(f._point(x), f._point(x_prev), 0.5)
    g = f.grad(point)
    cf = CountingObjective(f)
    for obj, counter in ((f, None), (cf, cf)):
        ray = obj.restrict(point, v, f_x=1.5, grad_x=g)
        for model in (ray, ray.extend(w)):
            assert type(model) is Model and model.counter is counter
            args = model.args
            assert args[0] is f and args[1] is point.x and args[5] is g
            assert args[2] is point.product and args[3:5] == (1, 1.5)


def test_non_finite_model_evaluations_raise():
    class NanObjective(Objective):
        model = NanModel

    f = NanObjective(2, 1.0, 1.0, lambda x: 0.0, lambda x: np.zeros(2))
    cf = CountingObjective(f)
    ray = cf.restrict(np.zeros(2), np.ones(2))
    with pytest.raises(NonFiniteError):
        ray.value(1.0)
    with pytest.raises(NonFiniteError):
        ray.grad(1.0)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        ray.hess(1.0)
    assert (cf.value_evals, cf.grad_evals, cf.restricted_evals) == (0, 0, 3)


def test_carried_product_drift_stays_small():
    """Over the 1,875 steps of this quadratic me run, every full gradient
    the run takes comes from a carried product, refreshed every
    REFRESH_EVERY updates; each stays within 1e-12 of A x formed exactly,
    relative to ||A x||."""
    p = generate_quadratic(500, 1e3, 0)
    a = np.asarray(p.a_matrix)
    grad = p.grad
    drift = []

    def checked_grad(x):  # x is a point record
        g = grad(x)
        exact = a @ x.x
        if np.any(exact):
            drift.append(np.linalg.norm(g - (exact - p.b)) / np.linalg.norm(exact))
        return g

    p.grad = checked_grad
    trace = run_me(p, np.zeros(500))
    assert trace.converged and trace.iterations == 1875
    assert len(drift) == 2 * trace.iterations
    assert max(drift) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sid", ["me", "gd_l", "gd_exact", "fast_gd"])
def test_run_ignores_what_the_instance_evaluated_before(family, sid):
    """A run restarted from a previous run's ``x_final``, from a writable
    copy of it and from a read-only copy traces exactly as the same run on
    a fresh instance: a problem keeps nothing from one call to the next,
    and each run forms its first product exactly."""
    make = ((lambda: generate_quadratic(40, 1e2, 0)) if family == "quadratic"
            else (lambda: generate_logreg(60, 30, 1e2, 0)))
    run = RUNNERS[sid]
    used = make()
    x = run(used, np.zeros(used.dim), SolverConfig(max_outer=5)).x_final
    read_only = x.copy()
    read_only.setflags(write=False)
    fresh = run(make(), x.copy())
    assert fresh.iterations > 0
    for x1 in (x, x.copy(), read_only):
        again = run(used, x1)
        assert again.records == fresh.records
        assert_bitwise(again.x_final, fresh.x_final)


def textbook_run(p, fast, carried=True):
    """gd_l (``fast`` False) or Nesterov's loop from the origin on the direct
    formulas: ``(values, gradient norms, x_final)``.  With ``carried`` the
    gradient at z_k = x_k + beta (x_k - x_{k-1}) comes from the product
    A x_k + beta (A x_k - A x_{k-1}) of two products formed exactly; without,
    from A z_k formed exactly."""
    eps = SolverConfig().eps
    kappa = np.sqrt(p.lip / p.mu)
    momentum = (kappa - 1.0) / (kappa + 1.0)
    x = x_prev = np.zeros(p.dim)
    g = direct_grad(p, x)
    values, norms = [direct_value(p, x)], [float(np.linalg.norm(g))]
    while norms[-1] > eps:
        z, step = x, g
        if fast and len(values) > 1:
            z = x + momentum * (x - x_prev)
            product = None
            if carried:
                ax = data_product(p, x)
                product = ax + momentum * (ax - data_product(p, x_prev))
            step = direct_grad(p, z, product)
        x_prev, x = x, z - step / p.lip
        g = direct_grad(p, x)
        values.append(direct_value(p, x))
        norms.append(float(np.linalg.norm(g)))
    return values, norms, x


def fixed_step_problem(family, seed=0):
    return (generate_quadratic(40, 1e2, seed) if family == "quadratic"
            else generate_logreg(60, 30, 1e2, seed))


def assert_textbook(trace, textbook):
    """The run's values, gradient norms and final iterate equal the
    textbook loop's, bit for bit."""
    values, norms, x = textbook
    assert [r.f_val for r in trace.records] == values
    assert [r.grad_norm for r in trace.records] == norms
    assert_bitwise(trace.x_final, x)


def textbook_gd_exact(p):
    """Exact-linesearch descent from the origin on a quadratic, on the direct
    formulas: ``(values, gradient norms, x_final)``.  Along v = g, the
    gradient, t = <g, v> / v'Av; the product A x is carried as A x - t A v
    and formed exactly every REFRESH_EVERY steps."""
    eps = SolverConfig().eps
    x = np.zeros(p.dim)
    ax, carried = data_product(p, x), 0
    values, norms = [], []
    while True:
        g = ax - p.b
        values.append(float(0.5 * x @ ax - p.b @ x + p.c))
        norms.append(float(np.linalg.norm(g)))
        if norms[-1] <= eps:
            return values, norms, x
        av = data_product(p, g)
        t = float(g @ g) / float(g @ av)
        x = x + (-t) * g
        carried += 1
        if carried == REFRESH_EVERY:
            ax, carried = data_product(p, x), 0
        else:
            ax = ax + (-t) * av


@pytest.mark.parametrize("family", FAMILIES)
def test_fixed_step_runs_keep_direct_arithmetic(family):
    """``run_gd_l`` evaluates only at its own iterates, from products formed
    exactly; ``run_fast_gd`` also takes the gradient at z_k from the product
    its problem combines from those of x_k and x_{k-1}; on a quadratic,
    ``run_gd_exact`` takes the closed-form step on the exact model and
    carries its product.  Each is its textbook loop on the direct formulas,
    bit for bit."""
    p = fixed_step_problem(family)
    for run, fast in [(run_gd_l, False), (run_fast_gd, True)]:
        assert_textbook(run(p, np.zeros(p.dim)), textbook_run(p, fast))
    if family == "quadratic":
        trace = run_gd_exact(p, np.zeros(p.dim))
        assert trace.iterations > REFRESH_EVERY
        assert_textbook(trace, textbook_gd_exact(p))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(5))
def test_fast_gd_tracks_the_fully_direct_loop(family, seed):
    """The combined product of z_k changes only rounding: the run takes the
    steps of the loop that forms A z_k exactly."""
    p = fixed_step_problem(family, seed)
    values, _, x = textbook_run(p, True, carried=False)
    trace = run_fast_gd(p, np.zeros(p.dim))
    assert trace.converged and trace.iterations == len(values) - 1
    assert np.linalg.norm(trace.x_final - x) <= 1e-13 * np.linalg.norm(x)


@pytest.mark.parametrize("family", FAMILIES)
def test_fast_gd_on_a_plain_objective_is_fully_direct(family):
    """A plain Objective holds no product to combine: every gradient at z_k
    forms A z_k exactly, bit for bit."""
    p = fixed_step_problem(family)
    assert_textbook(run_fast_gd(plain(p), np.zeros(p.dim)),
                    textbook_run(p, True, carried=False))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("sid", ["me", "gd_l", "gd_exact", "fast_gd"])
def test_what_an_observer_evaluates_does_not_change_a_run(family, sid):
    """An observer that evaluates the run's problem at its own read-only
    array on every step leaves the run's records and ``x_final`` bit for
    bit those of an unobserved run, and the only data products it adds are
    its own: a value and a gradient, 2 products on a quadratic and 3 on a
    logistic problem."""
    p = fixed_step_problem(family)
    counter = count_products(p)
    want = RUNNERS[sid](p, np.zeros(p.dim))
    alone, counter.products = counter.products, 0
    own = np.ones(p.dim)
    own.setflags(write=False)
    calls = []

    def observe(k, x, f_x, g, step):
        calls.append(k)
        p.value(own)
        p.grad(own)

    got = RUNNERS[sid](p, np.zeros(p.dim), observe=observe)
    assert len(calls) == got.iterations + 1
    assert got.records == want.records
    assert_bitwise(got.x_final, want.x_final)
    per_call = 2 if family == "quadratic" else 3
    assert counter.products == alone + per_call * len(calls)


def central_hessian(model, z, h):
    """Central differences of ``model.grad`` at ``z``, coordinate steps ``h``."""
    cols = []
    for i, hi in enumerate(h):
        up, down = list(z), list(z)
        up[i] += hi
        down[i] -= hi
        cols.append((np.asarray(model.grad(*up)) - np.asarray(model.grad(*down)))
                    / (up[i] - down[i]))
    return np.array(cols)


class TestHessian:
    """``Restriction.hess``: exact on the problems' models, forward
    differences on a plain Objective's."""

    def model(self, p, seed, k):
        rng = np.random.Generator(np.random.PCG64(seed))
        x, v, w = rng.standard_normal((3, p.dim))
        z = tuple(0.3 * rng.standard_normal(k) / np.linalg.norm(v))
        return (x, v, w)[:k + 1], z

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_logistic_matches_central_differences(self, k, seed):
        p = generate_logreg(30, 20, 1e2, seed)
        (x, *dirs), z = self.model(p, seed, k)
        model = model_on(p, x, *dirs)
        h = [1e-4 / np.linalg.norm(d) for d in dirs]
        npt.assert_allclose(model.hess(*z), central_hessian(model, z, h),
                            rtol=1e-6)

    @pytest.mark.parametrize("k", [1, 2])
    def test_quadratic_is_the_stored_hessian(self, k):
        p = generate_quadratic(12, 30.0, 3)
        (x, *dirs), z = self.model(p, 3, k)
        model = model_on(p, x, *dirs)
        assert model.hess(*z) is model.hessian
        assert len(model.hessian) == k

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(4))
    def test_forward_differences_agree_with_the_exact_one(self, k, seed):
        p = generate_logreg(30, 20, 1e2, seed)
        (x, *dirs), z = self.model(p, seed, k)
        exact = model_on(p, x, *dirs).hess(*z)
        npt.assert_allclose(model_on(plain(p), x, *dirs).hess(*z), exact,
                            rtol=1e-5)

    @pytest.mark.parametrize("k", [1, 2])
    def test_forward_differences_reuse_a_given_gradient(self, k):
        """A caller's restricted gradient at z gives the same Hessian, one
        full gradient cheaper."""
        p = generate_logreg(30, 20, 1e2, 1)
        (x, *dirs), z = self.model(p, 1, k)
        cf = CountingObjective(plain(p))
        model = model_on(cf, x, *dirs)
        g = model.grad(*z)
        before = cf.grad_evals
        fresh = model.hess(*z)
        assert cf.grad_evals - before == k + 1
        before = cf.grad_evals
        npt.assert_array_equal(model.hess(*z, grad=g), fresh)
        assert cf.grad_evals - before == k

    def test_logistic_is_counted_and_checked(self):
        p = generate_logreg(30, 20, 1e2, 0)
        (x, v, w), z = self.model(p, 0, 2)
        cf = CountingObjective(p)
        plane = cf.restrict(x, v).extend(w)
        plane.hess(*z)
        assert (cf.value_evals, cf.grad_evals, cf.restricted_evals) == (0, 0, 1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteError):
                plane.hess(math.nan, 0.0)
        assert cf.restricted_evals == 2
