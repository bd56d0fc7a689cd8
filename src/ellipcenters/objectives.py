"""Objective families: SPD quadratics and L2-regularized logistic regression.

Every solver in this package consumes an :class:`Objective`: ``value``,
``grad``, ``restrict`` and ``extrapolate``, with the strong-convexity modulus
``mu`` and the gradient Lipschitz constant ``lip``.  A user's f is an
``Objective`` built from value and gradient callables.  The problem
families, :class:`QuadraticProblem` and :class:`LogRegProblem`, are
``Objective`` subclasses that override all four methods, so a problem is
itself what a solver runs on.  A problem holds its data as read-only views of
the arrays it was given (changing those arrays afterwards is not supported).
Every data product goes through the family's ``_matvec``: ``a @ x`` for
logistic, one BLAS ``dsymv`` for a quadratic (see :class:`QuadraticProblem`).
A problem remembers the data product of the last point it evaluated, so a
``value`` and a ``grad`` at the same point share one matrix pass, and the
exact product of the point before, for ``extrapolate``.  The two are
replaced together as one tuple, so concurrent callers still get correct
results (to the rounding of a carried product) and at worst lose reuses.

``restrict(x, v[, w])`` returns a :class:`Restriction`, a model of f on
``x + span(v[, w])``: O(m) per evaluation for logistic, O(1) and exact for
quadratics.  A model's ``point`` hands the carried product
``A x + sum_i z_i A d_i`` to the problem, so ``value`` and ``grad`` there
make no new data pass; it is formed exactly again after ``REFRESH_EVERY``
carried updates, and ``restrict(x)`` with no direction forms ``A x``
exactly, as every run starts.  An ``Objective`` built from callables has no
data product, and its model evaluates f in full.  A solver run counts
through a :class:`CountingObjective`, whose models count and check
themselves.

Synthetic instances are generated from a seeded PCG64 generator so that the
same ``(n, m, kappa, seed)`` always yields the bit-identical problem.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .errors import NonFiniteError

REFRESH_EVERY = 64  # carried updates after which a model forms A p exactly
SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that rejects writes; ``arr``'s own flags are kept."""
    view = arr.view()
    view.flags.writeable = False
    return view


def _store(prob, state: tuple, key: bytes, product: np.ndarray,
           carried: int) -> None:
    """Replace ``prob._product``, read before as ``state``, by the product of
    the point with bytes ``key``.

    The slot is a ``(key, product, carried updates, previous key, previous
    product)`` tuple.  The product it held moves to the previous slot if it
    was formed exactly; otherwise the previous slot is kept."""
    old_key, old_product, old_carried, prev_key, prev_product = state
    if old_carried == 0:
        prev_key, prev_product = old_key, old_product
    prob._product = (key, product, carried, prev_key, prev_product)


@functools.cache
def _symv():
    """BLAS ``dsymv``, imported on first use: ``scipy.linalg`` takes ~55 ms."""
    from scipy.linalg.blas import dsymv
    return dsymv


def _data_product(prob, x: np.ndarray, fresh: bool = False):
    """The checked ``x``, its data product and its number of carried updates.

    The product is reused when ``x`` has the same bytes as the point stored
    in ``prob._product``, unless ``fresh``; otherwise it is computed and
    stored with 0 carried updates."""
    x = prob._check(x)
    key = x.tobytes()
    state = prob._product
    if fresh or state[0] != key:
        product = prob._matvec(x)
        _store(prob, state, key, product, 0)
        return x, product, 0
    return x, state[1], state[2]


def _directions(v, w) -> tuple:
    """The directions given to ``restrict(x, v, w)``, in order."""
    if v is None and w is not None:
        raise ValueError("a second direction needs a first")
    return () if v is None else (v,) if w is None else (v, w)


def _border(rows: tuple, left, right) -> tuple:
    """The symmetric matrix ``rows``, a tuple of rows of floats, bordered by
    the row and column ``<left[i], right>``, whose last entry is diagonal."""
    col = tuple([float(right.dot(e)) for e in left])
    return (*[r + (c,) for r, c in zip(rows, col)], col)


class Restriction:
    """A model of f on the affine set ``base + span(dirs)``, in the
    coordinates z of its directions (one or two).

    ``value(*z)`` is f at ``point(*z) = base + sum_i z_i d_i``; ``grad(*z)``
    the restricted gradient ``(<grad f(p), d_i>)_i``, a tuple of floats on
    the exact quadratic model and an array otherwise; ``hess(*z)`` the
    restricted Hessian ``(<d_i, hess f(p) d_j>)_ij``, the stored ``hessian``
    on the exact quadratic model and an array otherwise, with ``grad=`` the
    restricted gradient at z if the caller holds it; ``extend(w)`` the
    model with ``w`` as one more direction.  ``gram`` is the Gram matrix of
    the directions, a tuple of rows of Python floats; each direction adds
    its row and column when it is added, so an extended model forms only
    the new entries.  ``sin2_theta`` is its normalized determinant, ``lip``
    the gradient Lipschitz constant of f, and ``hessian`` the exact Hessian
    in z when f is quadratic, formed the same way, else None.

    A subclass evaluates in ``_value(z)``, ``_grad(z)`` and ``_hess(z,
    grad)``.  This generic form, which a plain :class:`Objective` returns,
    evaluates at the full point (``full``), and its ``hess`` is forward
    differences of ``grad``, one more full gradient per direction (and one
    at z if not given).  A model made by :meth:`CountingObjective.restrict`,
    or extended from one, holds that ``counter``: a full model evaluates
    through it, a problem's model counts each ``value``, ``grad`` and
    ``hess`` as one restricted evaluation and raises
    :class:`NonFiniteError` on a NaN or infinite result.
    """

    full = True
    hessian = None
    counter = None
    dirs = ()
    gram = ()

    def __init__(self, f, base: np.ndarray, dirs=()):
        self.f = f
        self.base = base
        self.lip = f.lip
        for d in dirs:
            self._add(d)

    def _add(self, d: np.ndarray) -> None:
        """Append the direction ``d`` and its row of the Gram matrix;
        subclasses extend their own data."""
        self.dirs += (d,)
        self.gram = _border(self.gram, self.dirs, d)

    def extend(self, w: np.ndarray) -> "Restriction":
        # a shallow copy: _add rebinds the per-direction data, never mutates it
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model._add(np.asarray(w, dtype=float))
        return model

    @property
    def sin2_theta(self) -> float:
        """sin^2 of the angle between two directions, in [0, 1]."""
        (vv, vw), (_, ww) = self.gram
        denom = vv * ww
        if not denom > 0:
            return 0.0
        return min(1.0, max(0.0, (denom - vw * vw) / denom))

    def point(self, *z) -> np.ndarray:
        p = self.base
        for zi, d in zip(z, self.dirs):
            p = p + zi * d
        return p

    def value(self, *z) -> float:
        val = self._value(z)
        if self.counter is not None and not self.full:
            self.counter.restricted_evals += 1
            if not math.isfinite(val):
                raise NonFiniteError(f"model value {val}")
        return val

    def grad(self, *z) -> np.ndarray:
        g = self._grad(z)
        if self.counter is not None and not self.full:
            self.counter.restricted_evals += 1
            if not all(map(math.isfinite, g)):
                raise NonFiniteError("model gradient has a NaN or infinite entry")
        return g

    def hess(self, *z, grad=None) -> np.ndarray:
        h = self._hess(z, grad)
        if self.counter is not None and not self.full:
            self.counter.restricted_evals += 1
            if not np.isfinite(h).all():
                raise NonFiniteError("model Hessian has a NaN or infinite entry")
        return h

    def _value(self, z) -> float:
        return (self.counter or self.f).value(self.point(*z))

    def _grad(self, z) -> np.ndarray:
        g = (self.counter or self.f).grad(self.point(*z))
        return np.array([float(g.dot(d)) for d in self.dirs])

    def _hess(self, z, grad) -> np.ndarray:
        """Forward differences of ``_grad`` from ``grad``, symmetrized.
        Coordinate i steps by sqrt(eps) times the larger of ||p|| / ||d_i||,
        which moves p well above its rounding, and 1/lip, a gradient step."""
        z = np.array(z, dtype=float)
        g = self._grad(z) if grad is None else np.asarray(grad)
        p = self.point(*z)
        scale = math.sqrt(float(p.dot(p)))
        cols = []
        for i, row in enumerate(self.gram):
            dz = z.copy()
            dz[i] += SQRT_EPS * max(scale / math.sqrt(row[i]), 1.0 / self.lip)
            cols.append((self._grad(dz) - g) / (dz[i] - z[i]))
        h = np.array(cols)
        return 0.5 * (h + h.T)


class _DataRestriction(Restriction):
    """A problem's model.  It keeps the data products ``A base`` and ``A d_i``
    (from the problem's ``_matvec``), so the product at a model point is
    ``A base + sum_i z_i A d_i``.  ``point`` stores that carried product in
    the problem's slot, or ``A p`` formed exactly once ``REFRESH_EVERY``
    carried updates have piled up since the last exact one."""

    full = False
    _data_dirs = ()

    def __init__(self, prob, base, dirs, product, carried, f_x=None,
                 grad_x=None):
        self._product = product
        self._carried_updates = carried
        super().__init__(prob, base, dirs)

    def _add(self, d):
        d = self.f._check(d)
        self._data_dirs += (self.f._matvec(d),)
        super()._add(d)

    def _carried(self, z) -> np.ndarray:
        product = self._product
        for zi, ad in zip(z, self._data_dirs):
            product = product + zi * ad
        return product

    def point(self, *z) -> np.ndarray:
        p = super().point(*z)
        carried = self._carried_updates + 1
        prob = self.f
        if carried >= REFRESH_EVERY:
            product, carried = prob._matvec(p), 0
        else:
            product = self._carried(z)
        _store(prob, prob._product, p.tobytes(), product, carried)
        return p


class _QuadraticRestriction(_DataRestriction):
    """The exact model f0 + z.g0 + z'Hz/2, with g0 = (<A x - b, d_i>)_i and
    H = (<d_i, A d_j>)_ij, on Python floats: every evaluation is O(1) and
    makes no numpy call.  Each entry is one dot, formed once: adding a
    direction forms its entry of g0 and its row of H only; when ``grad_x``
    is the first direction, as on a solver's ray and plane, g0 is the Gram's
    first column.  f0 = f(x) is ``f_x``, else formed on the first ``value``;
    the exact linesearch never asks for it."""

    hessian = ()
    _g0 = ()

    def __init__(self, prob, base, dirs, product, carried, f_x=None,
                 grad_x=None):
        self._f0 = f_x
        self._grad_base = product - prob.b if grad_x is None else grad_x
        super().__init__(prob, base, dirs, product, carried)

    def _add(self, d):
        super()._add(d)
        g = self._grad_base
        self._g0 += (self.gram[-1][0] if g is self.dirs[0]
                     else float(g.dot(self.dirs[-1])),)
        self.hessian = _border(self.hessian, self.dirs, self._data_dirs[-1])

    def _value(self, z) -> float:
        f0 = self._f0
        if f0 is None:
            f0 = self._f0 = self.f._value_at(self.base, self._product)
        return f0 + sum([zi * (g + 0.5 * sum(map(operator.mul, row, z)))
                         for zi, g, row in zip(z, self._g0, self.hessian)])

    def _grad(self, z) -> tuple:
        return tuple([g + sum(map(operator.mul, row, z))
                      for g, row in zip(self._g0, self.hessian)])

    def _hess(self, z, grad) -> tuple:
        return self.hessian


class _LogRegRestriction(_DataRestriction):
    """Margins ``-b * (a x + sum_i z_i a d_i)`` and ``||p||^2`` from the Gram
    numbers, held as an array: every evaluation, the Hessian included, is
    O(m).  ``||x||^2`` is formed on the first ``value``."""

    _xd = _read_only(np.empty(0))
    _xx = None
    _gram_matrix = _read_only(np.empty((0, 0)))

    def _add(self, d):
        super()._add(d)
        xd = self.base.dot(self.dirs[-1])
        self._xd = np.array(self._xd.tolist() + [float(xd)])
        self._gram_matrix = np.array(self.gram)

    def _value(self, z) -> float:
        prob = self.f
        margins = -prob.labels * self._carried(z)
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        xx = self._xx
        if xx is None:
            xx = self._xx = float(self.base.dot(self.base))
        z = np.array(z, dtype=float)
        sq_norm = (xx + 2.0 * float(z.dot(self._xd))
                   + float(z @ self._gram_matrix @ z))
        return loss + 0.5 * prob.mu * sq_norm

    def _grad(self, z) -> np.ndarray:
        prob = self.f
        weights = prob.labels * expit(-prob.labels * self._carried(z))
        data_part = np.array([float(ad.dot(weights)) for ad in self._data_dirs])
        z = np.array(z, dtype=float)
        return (-data_part / prob.m
                + prob.mu * (self._xd + self._gram_matrix @ z))

    def _hess(self, z, grad) -> np.ndarray:
        # (1/m) D' diag(s') D + mu Gram, D = [a d_i], s' the logistic
        # derivative at the margins (the labels square to 1)
        prob = self.f
        s = expit(-prob.labels * self._carried(z))
        curv = s * (1.0 - s)
        dd = self._data_dirs
        data_part = np.array([[float((curv * ai).dot(aj)) for aj in dd]
                              for ai in dd])
        return data_part / prob.m + prob.mu * self._gram_matrix


class Objective:
    """A differentiable, strongly convex objective with known constants.

    This is the one protocol the solvers consume.  Built from callables, it
    evaluates f in full everywhere; the problem families subclass it and
    override ``value``, ``grad``, ``restrict`` and ``extrapolate``.

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
    """

    def __init__(self, dim: int, mu: float, lip: float,
                 value_fn: Callable[[np.ndarray], float],
                 grad_fn: Callable[[np.ndarray], np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if not (0.0 < mu <= lip):
            raise ValueError(f"need 0 < mu <= lip, got mu={mu}, lip={lip}")
        self.dim = int(dim)
        self.mu = float(mu)
        self.lip = float(lip)
        self._value_fn = value_fn
        self._grad_fn = grad_fn

    @property
    def kappa(self) -> float:
        return self.lip / self.mu

    def value(self, x: np.ndarray) -> float:
        return float(self._value_fn(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad_fn(x)

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None, *, f_x: float | None = None,
                 grad_x: Optional[np.ndarray] = None) -> Restriction:
        """A :class:`Restriction` of f to ``x + span(v[, w])``; with no
        direction, the point ``x`` itself.  ``f_x`` and ``grad_x``, f and its
        gradient at ``x`` if the caller holds them, spare a model forming them.

        This generic model evaluates f in full at its points, with the same
        arithmetic as the caller would use.  A problem's model works on its
        data products instead (see :meth:`_DataProblem.restrict`).
        """
        return Restriction(self, np.asarray(x, dtype=float),
                           [np.asarray(d, dtype=float) for d in _directions(v, w)])

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> np.ndarray:
        """The momentum point ``x + beta * (x - x_prev)``.

        Nothing is evaluated.  A problem that holds the exact data products
        of ``x`` and ``x_prev`` also hands over z's product, combined from
        them, so the next ``value`` or ``grad`` at z makes no new data pass.
        """
        return x + beta * (x - x_prev)


def _checked_sq(g: np.ndarray) -> float:
    """``g @ g`` of a finite ``g``: a finite sum has finite entries, so they
    are tested one by one only when it is not (or overflows, past ~1e154,
    which a solver run lets pass as inf without a warning)."""
    sq = float(g.dot(g))
    if not math.isfinite(sq) and not np.isfinite(g).all():
        raise NonFiniteError("gradient has a NaN or infinite entry")
    return sq


class CountingObjective:
    """Wraps an Objective, a problem included, and counts value/gradient
    evaluations.

    Duck-types Objective so it can be passed anywhere an Objective is
    expected.  ``value_evals`` and ``grad_evals`` count full n-vector
    evaluations; ``restricted_evals`` counts the values and gradients of the
    models ``restrict`` returns, except for the generic model, whose
    evaluations are full and counted as such.  Those models hold this
    instance as their ``counter``, which ``extend`` passes on, and count
    themselves (see :class:`Restriction`).  A NaN or infinite value or
    gradient, full or restricted, raises :class:`NonFiniteError`; a full
    gradient is checked through its squared norm, which ``grad_norm``
    reuses.  One instance per solver run; not shared across threads.
    """

    def __init__(self, obj: Objective):
        self._obj = obj
        self.dim = obj.dim
        self.mu = obj.mu
        self.lip = obj.lip
        self.value_evals = 0
        self.grad_evals = 0
        self.restricted_evals = 0
        self._last_grad = (None, 0.0)  # (last gradient, its squared norm)

    def value(self, x: np.ndarray) -> float:
        self.value_evals += 1
        val = self._obj.value(x)
        if not math.isfinite(val):
            raise NonFiniteError(f"objective value {val}")
        return val

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        g = self._obj.grad(x)
        self._last_grad = (g, _checked_sq(g))
        return g

    def grad_norm(self, g: np.ndarray) -> float:
        """``||g||``, bit-equal to ``np.linalg.norm(g)`` (the square root of
        ``g @ g``), from the check of ``grad`` if it returned ``g`` last."""
        last, sq = self._last_grad
        return math.sqrt(sq if g is last else _checked_sq(g))

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None, **at_x) -> Restriction:
        model = self._obj.restrict(x, v, w, **at_x)
        model.counter = self
        return model

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> np.ndarray:
        """The wrapped objective's momentum point; not counted, since
        nothing is evaluated."""
        return self._obj.extrapolate(x, x_prev, beta)


class _DataProblem(Objective):
    """What the problem families share: the checked point, and the model
    (``model``, the family's :class:`Restriction`) and the momentum point
    built on the stored data product, formed by ``_matvec`` on a checked x.
    A family's ``__init__`` ends in ``Objective.__init__``, which checks
    ``dim`` and ``0 < mu <= lip``; its ``value`` and ``grad`` override the
    callables, so it passes none."""

    model = _DataRestriction
    # (x.tobytes(), A @ x, carried updates, previous key, previous A @ x)
    _product = (None, None, 0, None, None)

    def objective(self) -> "_DataProblem":
        """The problem itself, which is an :class:`Objective`."""
        return self

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None, **at_x) -> Restriction:
        """The family's model of f on ``x + span(v[, w])``, on the stored
        product of ``x``, or on ``A x`` formed exactly (none stored, or no
        direction); ``f_x`` and ``grad_x`` as for ``Objective.restrict``."""
        dirs = _directions(v, w)
        x, product, carried = _data_product(self, x, fresh=not dirs)
        return self.model(self, x, dirs, product, carried, **at_x)

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> np.ndarray:
        """``z = x + beta (x - x_prev)``, handing over z's product
        ``A x + beta (A x - A x_prev)`` (one carried update) when the stored
        products are those of ``x``, formed exactly, and ``x_prev``."""
        x, x_prev = self._check(x), self._check(x_prev)
        z = x + beta * (x - x_prev)
        state = self._product
        key, ax, carried, prev_key, prev_ax = state
        if carried == 0 and key == x.tobytes() and prev_key == x_prev.tobytes():
            _store(self, state, z.tobytes(), ax + beta * (ax - prev_ax), 1)
        return z

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
        return x


class QuadraticProblem(_DataProblem):
    """f(x) = 0.5 x'Ax - b'x + c with A symmetric positive definite.

    Symmetry (to rounding) and positive definiteness are verified at
    construction (the latter by attempting a Cholesky factorization);
    failures raise ``ValueError``.  ``a_matrix`` is the exactly symmetric
    part (A + A')/2 in C order, or A itself if bit-symmetric; each product
    with it is one BLAS ``dsymv``, reading one triangle.  ``mu``/``lip``
    default to the extreme eigenvalues of A.  ``restrict`` returns the
    exact quadratic model on a line or plane.
    """

    model = _QuadraticRestriction

    def __init__(self, a_matrix: np.ndarray, b: np.ndarray, c: float = 0.0,
                 mu: float | None = None, lip: float | None = None):
        a_matrix = np.ascontiguousarray(a_matrix, dtype=float)
        b = np.asarray(b, dtype=float)
        if a_matrix.ndim != 2 or a_matrix.shape[0] != a_matrix.shape[1]:
            raise ValueError(f"A must be square, got shape {a_matrix.shape}")
        n = a_matrix.shape[0]
        if b.shape != (n,):
            raise ValueError(f"b must have shape ({n},), got {b.shape}")
        scale = np.abs(a_matrix).max()
        if not np.allclose(a_matrix, a_matrix.T, atol=1e-12 * max(scale, 1.0)):
            raise ValueError("A is not symmetric to machine tolerance")
        if not np.array_equal(a_matrix, a_matrix.T):
            a_matrix = 0.5 * (a_matrix + a_matrix.T)
        try:
            np.linalg.cholesky(a_matrix)
        except np.linalg.LinAlgError as exc:
            raise ValueError("A is not positive definite") from exc
        self.a_matrix = _read_only(a_matrix)
        self.b = _read_only(b)
        self.c = float(c)
        if mu is None or lip is None:
            eigs = np.linalg.eigvalsh(a_matrix)
            mu = float(eigs[0]) if mu is None else mu
            lip = float(eigs[-1]) if lip is None else lip
        super().__init__(n, mu, lip, None, None)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        # A.T is an F-ordered view of the C-ordered A: dsymv copies nothing
        return _symv()(1.0, self.a_matrix.T, x)

    def _value_at(self, x: np.ndarray, ax: np.ndarray) -> float:
        # 0.5 scales every rounding of the dot exactly: (0.5 x).ax, bit for bit
        return float(0.5 * x.dot(ax) - self.b.dot(x) + self.c)

    def value(self, x: np.ndarray) -> float:
        x, ax, _ = _data_product(self, x)
        return self._value_at(x, ax)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = _data_product(self, x)
        return ax - self.b

    def minimizer(self) -> np.ndarray:
        """Solve Ax = b directly."""
        return np.linalg.solve(self.a_matrix, self.b)


class LogRegProblem(_DataProblem):
    """L2-regularized logistic loss over rows ``a_i`` with labels in {-1,+1}.

        f(x) = (1/m) sum_i log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2

    The softplus is evaluated in the overflow-safe branch form, so margins up
    to ~1e4 in magnitude are handled without warnings.  ``lip`` is the upper
    bound (1/(4m)) sum_i ||a_i||^2 + mu.  ``value`` and ``grad`` at the same
    point share one product ``a @ x``; ``restrict`` returns a model on a line
    or plane that evaluates in margin space, in O(m).  A gradient at the
    momentum point of ``extrapolate`` makes only the ``a.T`` pass.
    """

    model = _LogRegRestriction

    def __init__(self, a: np.ndarray, labels: np.ndarray, mu: float):
        a = np.asarray(a, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"data matrix must be 2-D, got shape {a.shape}")
        m, n = a.shape
        if m < 1:
            raise ValueError("the data matrix has no rows")
        if labels.shape != (m,):
            raise ValueError(f"labels must have shape ({m},), got {labels.shape}")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must all be -1 or +1")
        self.a = _read_only(a)
        self.labels = _read_only(labels)
        self.m = m
        self.n = n
        lip = float(_sum_squares(a) / (4.0 * m) + mu)
        super().__init__(n, mu, lip, None, None)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def value(self, x: np.ndarray) -> float:
        x, ax, _ = _data_product(self, x)
        margins = -self.labels * ax
        # logaddexp(0, u) = log(1 + e^u) = max(u, 0) + log1p(e^{-|u|})
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        return loss + 0.5 * self.mu * float(x.dot(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = _data_product(self, x)
        margins = -self.labels * ax
        weights = self.labels * expit(margins)
        return -(self.a.T @ weights) / self.m + self.mu * x


def _sum_squares(a: np.ndarray) -> float:
    """sum_ij a_ij^2, with no temporary the size of ``a``."""
    return float(np.einsum("ij,ij->", a, a))


def mu_for_kappa(data: np.ndarray, kappa: float) -> float:
    """Regularizer making the bound-based condition number exactly ``kappa``.

    With L = (1/(4m)) sum ||a_i||^2 + mu, choosing
    mu = sum ||a_i||^2 / (4 m (kappa - 1)) gives L/mu = kappa exactly.
    """
    data = np.asarray(data, dtype=float)
    if kappa <= 1.0:
        raise ValueError(f"kappa must exceed 1, got {kappa}")
    total = _sum_squares(data)
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
    b = rng.standard_normal(n)
    return QuadraticProblem((q * eigs) @ q.T, b, 0.0, mu=1.0, lip=float(kappa))


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
