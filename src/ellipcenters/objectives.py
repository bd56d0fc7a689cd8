"""Objective families: SPD quadratics and L2-regularized logistic regression.

Every solver in this package consumes an :class:`Objective`: ``value``,
``grad``, ``restrict`` and ``extrapolate``, with the strong-convexity modulus
``mu`` and the gradient Lipschitz constant ``lip``.  A user's f is an
``Objective`` built from value and gradient callables.  The problem
families, :class:`QuadraticProblem` and :class:`LogRegProblem`, are
``Objective`` subclasses that override ``value`` and ``grad`` and name
their own ``model``, so a problem is itself what a solver runs on.  A problem
holds its data as read-only views of the arrays it was given (changing
those arrays afterwards is not supported).
Every data product goes through the family's ``_matvec``: ``a @ x`` for
logistic, one BLAS ``dsymv`` for a quadratic (see :class:`QuadraticProblem`).
A point carries its data product: every point the package makes (a model
point, a momentum point, a run's iterate) is a private record
``(x, product, carried)``, so a ``value`` and a ``grad`` at one record share
one matrix pass.  ``value``, ``grad``, ``restrict`` and ``extrapolate`` take
a record or an array, and an array has its product formed at each call.  A
problem keeps nothing from one call to the next, so threads may share it.

``restrict(x, v)`` returns the objective's ``model``, a :class:`Restriction`
of f to the line ``x + span(v)``, and its ``extend(w)`` the model on the plane
``x + span(v, w)``: O(m) per evaluation for logistic, O(1) and exact for
quadratics.  A model's ``point`` carries the product
``A x + sum_i z_i A d_i``, so ``value`` and ``grad`` there make no new data
pass; it is formed exactly again after ``REFRESH_EVERY`` carried updates.
An ``Objective`` built from callables has no data product, and its model
evaluates f in full.  A solver run counts through a
:class:`CountingObjective`, whose models count and check themselves.

Synthetic instances come from a seeded PCG64 generator: one ``(n, m, kappa,
seed)`` yields a bit-identical problem for one BLAS build and thread count.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import chain
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteError

REFRESH_EVERY = 64  # carried updates after which a model forms A p exactly
SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A view of ``arr`` that rejects writes; ``arr``'s own flags are kept."""
    view = arr.view()
    view.flags.writeable = False
    return view


@functools.cache
def _symv():
    """BLAS ``dsymv``, imported on first use: ``scipy.linalg`` takes ~0.3 s."""
    from scipy.linalg.blas import dsymv
    return dsymv


@functools.cache
def _expit():
    """``scipy.special.expit``, imported on first use: it takes ~0.3 s."""
    from scipy.special import expit
    return expit


class _Point(tuple):
    """A point with its data product, ``(x, product, carried)``: the array
    ``x``, ``A x`` (None for a plain :class:`Objective`, which has no data
    product) and the number of carried updates in it, 0 when it was formed
    exactly.  A tuple, so making one runs no Python code."""

    __slots__ = ()
    x = property(operator.itemgetter(0))
    product = property(operator.itemgetter(1))
    carried = property(operator.itemgetter(2))


def _array(x):
    """The array of a point: a record's ``x``, else ``x`` itself."""
    return x.x if x.__class__ is _Point else x


def _combine(start: np.ndarray, z, vecs) -> np.ndarray:
    """``start + sum_i z_i vecs_i`` in one new array: the first term, then
    each sum in place (IEEE + commutes)."""
    out = z[0] * vecs[0]
    out += start
    for i in range(1, len(z)):
        out += z[i] * vecs[i]
    return out


class Restriction:
    """A model of f on the line ``base + span(v)``, or, extended by ``w``,
    on the plane ``base + span(v, w)``, in the coordinates z of its
    directions ``dirs``.

    ``value(*z)`` is f at ``point(*z) = base + sum_i z_i d_i``, a point
    record whose ``x`` is the array; ``grad(*z)`` the restricted gradient
    ``(<grad f(p), d_i>)_i``, a tuple of floats on the exact quadratic
    model and an array otherwise;
    ``hess(*z)`` the restricted Hessian ``(<d_i, hess f(p) d_j>)_ij``, the
    stored ``hessian`` on the exact quadratic model and an array otherwise,
    with ``grad=`` the restricted gradient at z if the caller holds it;
    ``extend(w)`` the model with ``w`` as one more direction.  ``gram`` is
    the Gram matrix of the directions, a tuple of rows of Python floats;
    each direction adds its row and column when it is added, so an extended
    model forms only the new entries.  ``sin2_theta`` is its normalized
    determinant, formed once, and ``hessian`` the exact Hessian in z when
    f is quadratic, formed the same way, else None.  ``restrict`` and
    ``extend`` check their directions.

    ``f.restrict`` builds it as ``f.model(f, *point, f_x, grad_x)`` and
    adds ``v``.  Each direction keeps its data product ``A d_i`` (None for a
    plain :class:`Objective`), and ``point`` carries ``A base + sum_i z_i
    A d_i`` while the base has a product and fewer than ``REFRESH_EVERY``
    carried updates have piled up, else is ``f._point(p)``, which forms
    ``A p`` exactly.  A subclass evaluates in ``_value(z)``, ``_grad(z)``
    and ``_hess(z, grad)``.  This generic form, a plain :class:`Objective`'s
    ``model``, evaluates at the full point (``full``), and its ``hess`` is
    forward differences of ``grad``, one more full gradient per direction
    (and one at z if not given), with a step that reads f's ``lip``.  A
    model made by :meth:`CountingObjective.restrict`, or extended from one,
    holds that ``counter``: a full model evaluates through it, a problem's
    model counts each ``value``, ``grad`` and ``hess`` as one restricted
    evaluation and raises :class:`NonFiniteError` on a NaN or infinite
    result.
    """

    full = True
    hessian = None
    counter = None
    dirs = ()
    gram = ()
    _data_dirs = ()

    def __init__(self, f, base: np.ndarray, product=None, carried=0,
                 f_x=None, grad_x=None):
        self.f = f
        self.base = base
        self._base_product = product
        self._carried_updates = carried
        self._f0 = f_x
        self._grad_base = grad_x

    def _add(self, d: np.ndarray) -> None:
        """Append the checked direction ``d``, and its row and column (whose
        last entry is diagonal) to the Gram matrix, and its data product."""
        self._data_dirs += (self.f._matvec(d),)
        self.dirs += (d,)
        col = tuple([float(d.dot(e)) for e in self.dirs])
        self.gram = (*[r + (c,) for r, c in zip(self.gram, col)], col)

    def extend(self, w: np.ndarray) -> "Restriction":
        # a shallow copy: _add rebinds the per-direction data, never mutates it
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model._add(self.f._check(w))
        return model

    @functools.cached_property
    def sin2_theta(self) -> float:
        """sin^2 of the angle between two directions, in [0, 1]."""
        (vv, vw), (_, ww) = self.gram
        denom = vv * ww
        if not denom > 0:
            return 0.0
        return min(1.0, max(0.0, (denom - vw * vw) / denom))

    def point(self, *z) -> _Point:
        p = _combine(self.base, z, self.dirs)
        carried = self._carried_updates + 1
        if self._base_product is not None and carried < REFRESH_EVERY:
            return _Point((p, _combine(self._base_product, z, self._data_dirs),
                           carried))
        return self.f._point(p)

    def value(self, *z) -> float:
        val = self._value(z)
        return self._counted(val, (val,))

    def grad(self, *z) -> np.ndarray:
        g = self._grad(z)
        return self._counted(g, g)

    def hess(self, *z, grad=None) -> np.ndarray:
        h = self._hess(z, grad)
        return self._counted(h, chain.from_iterable(h))

    def _counted(self, result, entries):
        """``result``; on a model with a ``counter`` that is not ``full``,
        one restricted evaluation, which raises if an entry is not finite."""
        if self.counter is not None and not self.full:
            self.counter.restricted_evals += 1
            if not all(map(math.isfinite, entries)):
                raise NonFiniteError("model has a NaN or infinite entry")
        return result

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
        p = self.point(*z).x
        scale = math.sqrt(float(p.dot(p)))
        cols = []
        for i, row in enumerate(self.gram):
            dz = z.copy()
            dz[i] += SQRT_EPS * max(scale / math.sqrt(row[i]), 1.0 / self.f.lip)
            cols.append((self._grad(dz) - g) / (dz[i] - z[i]))
        h = np.array(cols)
        return 0.5 * (h + h.T)


class _QuadraticRestriction(Restriction):
    """The exact model f0 + z.g0 + z'Hz/2, with g0 = (<A x - b, d_i>)_i and
    H = (<d_i, A d_j>)_ij, on Python floats: every evaluation is O(1) and
    makes no numpy call.  Each entry is one dot, formed once: adding a
    direction forms its data product, its entry of g0 and its rows of the
    Gram matrix and H only; when ``grad_x`` is the first direction, as on a
    solver's ray and plane, g0 is the Gram's first column.  f0 = f(x) is
    ``f_x``, else formed on the first ``value``; the exact linesearch never
    asks for it."""

    full = False
    hessian = ()
    _g0 = ()

    def _add(self, d):
        # a model has one or two directions, so each entry is written out
        ad = self.f._matvec(d)
        dd, dad = float(d.dot(d)), float(ad.dot(d))
        g = self._grad_base
        if g is None:
            g = self._grad_base = self._base_product - self.f.b
        if self.dirs:  # border the first direction's entries
            (v,), ((vv,),), ((vav,),) = self.dirs, self.gram, self.hessian
            dv, adv = float(d.dot(v)), float(ad.dot(v))
            self.gram = ((vv, dv), (dv, dd))
            self.hessian = ((vav, adv), (adv, dad))
        else:
            v, dv = d, dd
            self.gram, self.hessian = ((dd,),), ((dad,),)
        self.dirs, self._data_dirs = self.dirs + (d,), self._data_dirs + (ad,)
        self._g0 += (dv if g is v else float(g.dot(d)),)

    def _value(self, z) -> float:
        f0 = self._f0
        if f0 is None:
            f0 = self._f0 = self.f._value_at(self.base, self._base_product)
        return f0 + sum([zi * (g + 0.5 * sum(map(operator.mul, row, z)))
                         for zi, g, row in zip(z, self._g0, self.hessian)])

    def _grad(self, z) -> tuple:
        return tuple([g + sum(map(operator.mul, row, z))
                      for g, row in zip(self._g0, self.hessian)])

    def _hess(self, z, grad) -> tuple:
        return self.hessian


class _LogRegRestriction(Restriction):
    """Margins ``-b * (a x + sum_i z_i a d_i)`` and ``||p||^2`` from the Gram
    numbers, held as an array: every evaluation, the Hessian included, is
    O(m).  ``||x||^2`` is formed on the first ``value``."""

    full = False
    _xd = _read_only(np.empty(0))
    _xx = None
    _gram_matrix = _read_only(np.empty((0, 0)))

    def _add(self, d):
        super()._add(d)
        self._xd = np.array(self._xd.tolist() + [float(self.base.dot(d))])
        self._gram_matrix = np.array(self.gram)

    def _carried(self, z) -> np.ndarray:
        return _combine(self._base_product, z, self._data_dirs)

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
        weights = prob.labels * _expit()(-prob.labels * self._carried(z))
        data_part = np.array([float(ad.dot(weights)) for ad in self._data_dirs])
        z = np.array(z, dtype=float)
        return (-data_part / prob.m
                + prob.mu * (self._xd + self._gram_matrix @ z))

    def _hess(self, z, grad) -> np.ndarray:
        # (1/m) D' diag(s') D + mu Gram, D = [a d_i], s' the logistic
        # derivative at the margins (the labels square to 1)
        prob = self.f
        s = _expit()(-prob.labels * self._carried(z))
        curv = s * (1.0 - s)
        dd = self._data_dirs
        data_part = np.array([[float((curv * ai).dot(aj)) for aj in dd]
                              for ai in dd])
        return data_part / prob.m + prob.mu * self._gram_matrix


class Objective:
    """A differentiable, strongly convex objective with known constants.

    This is the one protocol the solvers consume.  Built from callables, it
    evaluates f in full everywhere, and its callables see arrays only; the
    problem families subclass it, pass no callables, override ``value``,
    ``grad`` and ``_matvec``, which forms a point's data product, and name
    their :class:`Restriction` as ``model``, which ``restrict`` builds.

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

    model = Restriction

    def __init__(self, dim: int, mu: float, lip: float,
                 value_fn: Callable[[np.ndarray], float],
                 grad_fn: Callable[[np.ndarray], np.ndarray]):
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if not (0.0 < mu <= lip < math.inf):
            raise ValueError(f"need 0 < mu <= lip < inf, got mu={mu}, lip={lip}")
        self.dim = int(dim)
        self.mu = float(mu)
        self.lip = float(lip)
        self._value_fn = value_fn
        self._grad_fn = grad_fn

    @property
    def kappa(self) -> float:
        return self.lip / self.mu

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"x must have shape ({self.dim},), got {x.shape}")
        return x

    def _matvec(self, x: np.ndarray) -> None:
        """A plain objective has no data product."""
        return None

    def _point(self, x) -> _Point:
        """``x`` as a point record: a record as it is, an array checked and
        with its data product formed."""
        if x.__class__ is _Point:
            return x
        x = self._check(x)
        return _Point((x, self._matvec(x), 0))

    def value(self, x: np.ndarray) -> float:
        return float(self._value_fn(_array(x)))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad_fn(_array(x))

    def restrict(self, x: np.ndarray, v: np.ndarray, *,
                 f_x: float | None = None,
                 grad_x: Optional[np.ndarray] = None) -> Restriction:
        """A ``model``: the model of f on the line ``x + span(v)``, on the
        product ``x`` carries (formed for an array), whose ``extend(w)`` is
        the model on the plane ``x + span(v, w)``.  ``f_x`` and ``grad_x``,
        f and its gradient at ``x`` if the caller holds them, spare a model
        forming them.  The generic model evaluates f in full, with the
        caller's arithmetic; a problem's works on its data products.
        """
        model = self.model(self, *self._point(x), f_x, grad_x)
        model._add(self._check(v))
        return model

    def objective(self) -> "Objective":
        """``self``; kept only for ``perfbench/workloads.py``."""
        return self

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> _Point:
        """The momentum point ``z = x + beta (x - x_prev)``, a point record.

        When ``x`` and ``x_prev`` are records that carry exact data
        products, as a run's iterates do, z carries the product
        ``A x + beta (A x - A x_prev)`` (one carried update), so the next
        ``value`` or ``grad`` at z makes no new data pass.  Otherwise z's
        product is formed exactly (a plain objective has none).
        """
        if (x.__class__ is x_prev.__class__ is _Point and x.product is not None
                and not (x.carried or x_prev.carried)):
            (x, ax, _), (x_prev, prev_ax, _) = x, x_prev
            az = np.subtract(ax, prev_ax)
            az *= beta
            az += ax
        else:
            x, x_prev = self._check(_array(x)), self._check(_array(x_prev))
            az = None
        z = np.subtract(x, x_prev, dtype=float)  # in place: IEEE + commutes
        z *= beta
        z += x
        return self._point(z) if az is None else _Point((z, az, 1))


class CountingObjective:
    """Counts a solver run's evaluations of an Objective, a problem included.

    It holds the wrapped objective, its three counts and the last squared
    gradient norm, and evaluates nothing else: a step reads ``lip`` or
    forms a momentum point on the objective itself.  ``value_evals`` and
    ``grad_evals`` count full n-vector evaluations; ``restricted_evals``
    counts the values, gradients and Hessians of the models ``restrict``
    returns, except for the generic model, whose evaluations are full and
    counted as such.  Those models hold this instance as their ``counter``,
    which ``extend`` passes on, and count themselves (see
    :class:`Restriction`).  A NaN or infinite value or gradient, full or
    restricted, raises :class:`NonFiniteError`; a full gradient is checked
    through its squared norm, from which ``grad_norm()`` gives the norm of
    the gradient ``grad`` returned last.  One instance per solver run; not
    shared across threads.
    """

    def __init__(self, obj: Objective):
        self._obj = obj
        self.value_evals = 0
        self.grad_evals = 0
        self.restricted_evals = 0

    def value(self, x: np.ndarray) -> float:
        self.value_evals += 1
        val = self._obj.value(x)
        if not math.isfinite(val):
            raise NonFiniteError(f"objective value {val}")
        return val

    def grad(self, x: np.ndarray) -> np.ndarray:
        self.grad_evals += 1
        g = self._obj.grad(x)
        # a finite g @ g has finite entries, so they are tested one by one
        # only when it is not (or overflows, past ~1e154, which a solver run
        # lets pass as inf without a warning)
        self._grad_sq = sq = float(g.dot(g))
        if not math.isfinite(sq) and not np.isfinite(g).all():
            raise NonFiniteError("gradient has a NaN or infinite entry")
        return g

    def grad_norm(self) -> float:
        """``||g||`` of the gradient ``g`` that ``grad`` returned last,
        bit-equal to ``np.linalg.norm(g)`` (the square root of ``g @ g``)."""
        return math.sqrt(self._grad_sq)

    def restrict(self, x: np.ndarray, v: np.ndarray, **at_x) -> Restriction:
        model = self._obj.restrict(x, v, **at_x)
        model.counter = self
        return model


class QuadraticProblem(Objective):
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
        for name, size in (("A", scale), ("b", np.abs(b).max()), ("c", c)):
            if not math.isfinite(size):
                raise ValueError(f"{name} has a NaN or infinite value")
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
        x, ax, _ = self._point(x)
        return self._value_at(x, ax)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = self._point(x)
        return ax - self.b

    def minimizer(self) -> np.ndarray:
        """Solve Ax = b directly."""
        return np.linalg.solve(self.a_matrix, self.b)


class LogRegProblem(Objective):
    """L2-regularized logistic loss over rows ``a_i`` with labels in {-1,+1}.

        f(x) = (1/m) sum_i log(1 + exp(-b_i <a_i, x>)) + (mu/2) ||x||^2

    The softplus is evaluated in the overflow-safe branch form, so margins up
    to ~1e4 in magnitude are handled without warnings.  ``lip`` is the upper
    bound (1/(4m)) sum_i ||a_i||^2 + mu.  ``value`` and ``grad`` at the same
    point record share one product ``a @ x``; ``restrict`` returns a model
    on a line or plane that evaluates in margin space, in O(m).  A gradient
    at the momentum point of ``extrapolate`` makes only the ``a.T`` pass.
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
        sum_sq = _sum_squares(a)
        if not math.isfinite(sum_sq):
            raise ValueError("a has a NaN or infinite value, or its sum of "
                             "squares overflows")
        lip = float(sum_sq / (4.0 * m) + mu)
        super().__init__(n, mu, lip, None, None)

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        return self.a @ x

    def value(self, x: np.ndarray) -> float:
        x, ax, _ = self._point(x)
        margins = -self.labels * ax
        # logaddexp(0, u) = log(1 + e^u) = max(u, 0) + log1p(e^{-|u|})
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        return loss + 0.5 * self.mu * float(x.dot(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = self._point(x)
        margins = -self.labels * ax
        weights = self.labels * _expit()(margins)
        g = self.a.T @ weights  # -g / m + mu x, in g's buffer
        np.divide(np.negative(g, out=g), self.m, out=g)
        g += self.mu * x
        return g


def _sum_squares(a: np.ndarray) -> float:
    """sum_ij a_ij^2, with no temporary the size of ``a``."""
    return float(np.einsum("ij,ij->", a, a))


def mu_for_kappa(data: np.ndarray, kappa: float) -> float:
    """Regularizer making the bound-based condition number exactly ``kappa``.

    With L = (1/(4m)) sum ||a_i||^2 + mu, choosing
    mu = sum ||a_i||^2 / (4 m (kappa - 1)) gives L/mu = kappa exactly.
    """
    data = np.asarray(data, dtype=float)
    if not 1.0 < kappa < math.inf:
        raise ValueError(f"kappa must exceed 1 and be finite, got {kappa}")
    total = _sum_squares(data)
    if not 0.0 < total < math.inf:
        raise ValueError(f"data matrix has energy {total}; kappa is undefined")
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
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be at least 1 and be finite, got {kappa}")
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


def _instance_lines(path, fields: int) -> tuple[list[str], list[str]]:
    """The header fields and all non-blank lines of an instance file, whose
    header must hold ``fields`` fields; ``ValueError`` otherwise."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != fields:
        raise ValueError(f"expected a header of {fields} fields, found {header}")
    return header, lines


def load_logreg(path) -> LogRegProblem:
    """Inverse of :func:`save_logreg`; a malformed file raises ``ValueError``."""
    header, lines = _instance_lines(path, 3)
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
    """Inverse of :func:`save_quadratic`; a malformed file raises
    ``ValueError``."""
    header, lines = _instance_lines(path, 1)
    n = int(header[0])
    if len(lines) != n + 3:
        raise ValueError(f"expected {n + 3} lines, found {len(lines)}")
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
