"""Objective families: SPD quadratics and L2-regularized logistic regression.

Every solver in this package consumes an :class:`Objective`, which bundles the
value/gradient callables with the strong-convexity modulus ``mu`` and the
gradient Lipschitz constant ``lip``.  A problem object holds its data as
read-only views of the arrays it was given (changing those arrays afterwards
is not supported).  It remembers the data product (``A @ x`` or ``a @ x``) of
the last point it evaluated, so a ``value`` and a ``grad`` at the same point
share one matrix pass.  Results are bit-identical whether that product is
reused or recomputed.  Each instance keeps one product, replaced as a whole
tuple, so concurrent callers still get correct results and at worst lose
reuses.

Synthetic instances are generated from a seeded PCG64 generator so that the
same ``(n, m, kappa, seed)`` always yields the bit-identical problem.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .errors import NonFiniteError


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that rejects writes; ``arr``'s own flags are kept."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _data_product(prob, data: np.ndarray, x: np.ndarray):
    """The checked ``x`` and ``data @ x``.  The product is reused when ``x``
    has the same bytes as the last point ``prob`` evaluated, else computed and
    stored in ``prob._product`` as one ``(x.tobytes(), data @ x)`` tuple."""
    x = prob._check(x)
    key = x.tobytes()
    product = prob._product
    if product[0] != key:
        product = (key, data @ x)
        prob._product = product
    return x, product[1]


class Objective:
    """A differentiable, strongly convex objective with known constants.

    Parameters
    ----------
    dim : int
        Number of variables.
    mu : float
        Strong-convexity modulus, ``0 < mu <= lip``.
    lip : float
        Lipschitz constant of the gradient.  For logistic regression this is
        the trace-based upper bound, not the largest Hessian eigenvalue.
    value_fn, grad_fn : callable
        Evaluate the objective and its gradient at a point.
    quadratic_view : QuadraticProblem, optional
        Set when the objective is exactly quadratic.  Read only by the step
        functions in :mod:`.solvers`, which take closed forms, and by
        ``harness.compute_reference``, which solves for the minimizer.
    """

    def __init__(self, dim: int, mu: float, lip: float,
                 value_fn: Callable[[np.ndarray], float],
                 grad_fn: Callable[[np.ndarray], np.ndarray],
                 quadratic_view: Optional["QuadraticProblem"] = None):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if not (0.0 < mu <= lip):
            raise ValueError(f"need 0 < mu <= lip, got mu={mu}, lip={lip}")
        self.dim = int(dim)
        self.mu = float(mu)
        self.lip = float(lip)
        self._value_fn = value_fn
        self._grad_fn = grad_fn
        self.quadratic_view = quadratic_view

    @property
    def kappa(self) -> float:
        return self.lip / self.mu

    def value(self, x: np.ndarray) -> float:
        return float(self._value_fn(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad_fn(x)


class CountingObjective:
    """Wraps an Objective and counts value/gradient evaluations.

    Duck-types Objective so it can be passed anywhere an Objective is
    expected.  A NaN or infinite value or gradient raises
    :class:`NonFiniteError`.  One instance per solver run; not shared across
    threads.
    """

    def __init__(self, obj: Objective):
        self._obj = obj
        self.dim = obj.dim
        self.mu = obj.mu
        self.lip = obj.lip
        self.quadratic_view = obj.quadratic_view
        self.value_evals = 0
        self.grad_evals = 0

    @property
    def kappa(self) -> float:
        return self.lip / self.mu

    def value(self, x: np.ndarray) -> float:
        self.value_evals += 1
        val = self._obj.value(x)
        if not math.isfinite(val):
            raise NonFiniteError(f"objective value {val}")
        return val

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        g = self._obj.grad(x)
        if not np.isfinite(g).all():
            raise NonFiniteError("gradient has a NaN or infinite entry")
        return g


class QuadraticProblem:
    """f(x) = 0.5 x'Ax - b'x + c with A symmetric positive definite.

    Symmetry and positive definiteness are verified at construction (the
    latter by attempting a Cholesky factorization); failures raise
    ``ValueError``.  ``mu``/``lip`` default to the extreme eigenvalues of A.
    ``value`` and ``grad`` at the same point share one product ``A @ x``.
    """

    def __init__(self, a_matrix: np.ndarray, b: np.ndarray, c: float = 0.0,
                 mu: float | None = None, lip: float | None = None):
        a_matrix = np.asarray(a_matrix, dtype=float)
        b = np.asarray(b, dtype=float)
        if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
            raise ValueError(f"A must be square, got shape {a_matrix.shape}")
        n = a_matrix.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        scale = np.abs(a_matrix).max()
        if not np.allclose(a_matrix, a_matrix.T, atol=1e-12 * max(scale, 1.0)):
            raise ValueError("A is not symmetric to machine tolerance")
        try:
            np.linalg.cholesky(a_matrix)
        except np.linalg.LinAlgError as exc:
            raise ValueError("A is not positive definite") from exc
        self.a_matrix = _read_only(a_matrix)
        self.b = _read_only(b)
        self.c = float(c)
        self._product = (None, None)  # (x.tobytes(), A @ x) of the last point
        if mu is None or lip is None:
            eigs = np.linalg.eigvalsh(a_matrix)
            mu = float(eigs[0]) if mu is None else mu
            lip = float(eigs[-1]) if lip is None else lip
        self.mu = float(mu)
        self.lip = float(lip)

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    def value(self, x: np.ndarray) -> float:
        x, ax = _data_product(self, self.a_matrix, x)
        return float(0.5 * x @ ax - self.b @ x + self.c)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax = _data_product(self, self.a_matrix, x)
        return ax - self.b

    def minimizer(self) -> np.ndarray:
        """Solve Ax = b directly."""
        return np.linalg.solve(self.a_matrix, self.b)

    def objective(self) -> Objective:
        return Objective(self.dim, self.mu, self.lip,
                         self.value, self.grad, quadratic_view=self)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
        return x


class LogRegProblem:
    """L2-regularized logistic loss over rows ``a_i`` with labels in {-1,+1}.

        f(x) = (1/m) sum_i log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2

    The softplus is evaluated in the overflow-safe branch form, so margins up
    to ~1e4 in magnitude are handled without warnings.  ``lip`` is the upper
    bound (1/(4m)) sum_i ||a_i||^2 + mu.  ``value`` and ``grad`` at the same
    point share one product ``a @ x``.
    """

    def __init__(self, a: np.ndarray, labels: np.ndarray, mu: float):
        a = np.asarray(a, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"data matrix must be 2-D, got shape {a.shape}")
        m, n = a.shape
        if labels.shape != (m,):
            raise ValueError(f"labels must have shape ({m},), got {labels.shape}")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must all be -1 or +1")
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.a = _read_only(a)
        self.labels = _read_only(labels)
        self._product = (None, None)  # (x.tobytes(), a @ x) of the last point
        self.mu = float(mu)
        self.m = m
        self.n = n
        self.lip = float(np.sum(a * a) / (4.0 * m) + mu)

    @property
    def dim(self) -> int:
        return self.n

    def value(self, x: np.ndarray) -> float:
        x, ax = _data_product(self, self.a, x)
        margins = -self.labels * ax
        # logaddexp(0, u) = log(1 + e^u) = max(u, 0) + log1p(e^{-|u|})
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        return loss + 0.5 * self.mu * float(x @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax = _data_product(self, self.a, x)
        margins = -self.labels * ax
        weights = self.labels * expit(margins)
        return -(self.a.T @ weights) / self.m + self.mu * x

    def objective(self) -> Objective:
        return Objective(self.n, self.mu, self.lip, self.value, self.grad)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have shape ({self.n},), got {x.shape}")
        return x


def mu_for_kappa(data: np.ndarray, kappa: float) -> float:
    """Regularizer making the bound-based condition number exactly ``kappa``.

    With L = (1/(4m)) sum ||a_i||^2 + mu, choosing
    mu = sum ||a_i||^2 / (4 m (kappa - 1)) gives L/mu = kappa exactly.
    """
    data = np.asarray(data, dtype=float)
    if kappa <= 1.0:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    total = float(np.sum(data * data))
    if total <= 0.0:
        raise ValueError("data matrix has zero energy; kappa is undefined")
    m = data.shape[0]
    return total / (4.0 * m * (kappa - 1.0))


def generate_logreg(n: int, m: int, kappa: float, seed: int) -> LogRegProblem:
    """Seeded synthetic instance: Gaussian rows, sign-of-Gaussian labels.

    Identical ``(n, m, kappa, seed)`` yields a bit-identical problem.  The
    labels are the signs of an independent Gaussian draw, with +1 on ties.
    """
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be at least 1, got n={n}, m={m}")
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((m, n))
    labels = np.where(rng.standard_normal(m) >= 0.0, 1.0, -1.0)
    return LogRegProblem(a, labels, mu_for_kappa(a, kappa))


def generate_quadratic(n: int, kappa: float, seed: int) -> QuadraticProblem:
    """Seeded random SPD quadratic with eigenvalues spread over [1, kappa].

    The spectrum is linspace(1, kappa, n) in a random orthogonal basis, so
    ``mu = 1`` and ``lip = kappa`` hold exactly by construction.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    rng = np.random.Generator(np.random.PCG64(seed))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(1.0, kappa, n)
    a_matrix = (q * eigs) @ q.T
    a_matrix = 0.5 * (a_matrix + a_matrix.T)
    b = rng.standard_normal(n)
    return QuadraticProblem(a_matrix, b, 0.0, mu=1.0, lip=float(kappa))


def save_logreg(p: LogRegProblem, path) -> None:
    """Write an instance as plain text: header ``n m mu``, m data rows, m labels.

    Floats use 17-significant-digit '%g' formatting with '.' as the decimal
    separator, independent of locale.
    """
    lines = [f"{p.n} {p.m} {format(p.mu, '.17g')}"]
    for row in p.a:
        lines.append(" ".join(format(x, ".17g") for x in row))
    for lab in p.labels:
        lines.append(str(int(lab)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_logreg(path) -> LogRegProblem:
    """Inverse of :func:`save_logreg`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split()
    n, m, mu = int(header[0]), int(header[1]), float(header[2])
    if len(lines) != 1 + 2 * m:
        raise ValueError(f"expected {1 + 2 * m} lines, found {len(lines)}")
    a = np.array([[float(x) for x in lines[1 + i].split()] for i in range(m)])
    if a.shape != (m, n):
        raise ValueError(f"data block has shape {a.shape}, expected ({m}, {n})")
    labels = np.array([float(lines[1 + m + i]) for i in range(m)])
    return LogRegProblem(a, labels, mu)


def save_quadratic(p: QuadraticProblem, path) -> None:
    """Plain-text quadratic instance: header ``n``, n rows of A, b row, c."""
    lines = [str(p.dim)]
    for row in p.a_matrix:
        lines.append(" ".join(format(x, ".17g") for x in row))
    lines.append(" ".join(format(x, ".17g") for x in p.b))
    lines.append(format(p.c, ".17g"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_quadratic(path) -> QuadraticProblem:
    """Inverse of :func:`save_quadratic`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    n = int(lines[0])
    a_matrix = np.array([[float(x) for x in lines[1 + i].split()] for i in range(n)])
    b = np.array([float(x) for x in lines[1 + n].split()])
    c = float(lines[2 + n])
    return QuadraticProblem(a_matrix, b, c)


def central_difference_gradient(value_fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate scaled steps."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * step)
    return out


def check_gradient(obj: Objective, n_points: int = 20, seed: int = 0,
                   scale: float = 1.0) -> float:
    """Max relative error between analytic and central-difference gradients
    over seeded random points.  Useful when wiring up a new objective."""
    rng = np.random.Generator(np.random.PCG64(seed))
    worst = 0.0
    for _ in range(n_points):
        x = scale * rng.standard_normal(obj.dim)
        g = obj.grad(x)
        g_fd = central_difference_gradient(obj.value, x)
        denom = max(float(np.linalg.norm(g)), 1e-300)
        worst = max(worst, float(np.linalg.norm(g_fd - g)) / denom)
    return worst
