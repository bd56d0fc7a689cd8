"""Objective families: SPD quadratics and L2-regularized logistic regression.

Every solver in this package consumes an :class:`Objective`, which bundles the
value/gradient callables with the strong-convexity modulus ``mu`` and the
gradient Lipschitz constant ``lip``.  A problem object holds its data as
read-only views of the arrays it was given (changing those arrays afterwards
is not supported).  It remembers the data product (``A @ x`` or ``a @ x``) of
the last point it evaluated, so a ``value`` and a ``grad`` at the same point
share one matrix pass, and the exact product of the point before, for
``extrapolate``.  The two are replaced together as one tuple, so concurrent
callers still get correct results (to the rounding of a carried product)
and at worst lose reuses.

``restrict(x, v[, w])`` returns a :class:`Restriction`, a model of f on
``x + span(v[, w])``: O(m) per evaluation for logistic, O(1) and exact for
quadratics.  A model's ``point`` hands the carried product
``A x + sum_i z_i A d_i`` to the problem, so ``value`` and ``grad`` there
make no new data pass; it is formed exactly again after ``REFRESH_EVERY``
carried updates, and ``restrict(x)`` with no direction forms ``A x``
exactly, as every run starts.  A plain :class:`Objective` has no data
product, and its model evaluates f in full.  A solver run counts through a
:class:`CountingObjective`, whose models count and check themselves.

Synthetic instances are generated from a seeded PCG64 generator so that the
same ``(n, m, kappa, seed)`` always yields the bit-identical problem.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .errors import NonFiniteError

REFRESH_EVERY = 64  # carried updates after which a model forms A p exactly


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


def _data_product(prob, data: np.ndarray, x: np.ndarray, fresh: bool = False):
    """The checked ``x``, ``data @ x`` and its number of carried updates.

    The product is reused when ``x`` has the same bytes as the point stored
    in ``prob._product``, unless ``fresh``; otherwise it is computed and
    stored with 0 carried updates."""
    x = prob._check(x)
    key = x.tobytes()
    state = prob._product
    if fresh or state[0] != key:
        product = data @ x
        _store(prob, state, key, product, 0)
        return x, product, 0
    return x, state[1], state[2]


def _directions(v, w) -> tuple:
    """The directions given to ``restrict(x, v, w)``, in order."""
    if v is None and w is not None:
        raise ValueError("a second direction needs a first")
    return () if v is None else (v,) if w is None else (v, w)


def _pairs(left, right) -> np.ndarray:
    """The symmetric matrix of ``left[i] @ right[j]`` over i <= j."""
    out = np.empty((len(left), len(left)))
    for j, r in enumerate(right):
        for i in range(j + 1):
            out[i, j] = out[j, i] = left[i].dot(r)
    return out


class Restriction:
    """A model of f on the affine set ``base + span(dirs)``, in the
    coordinates z of its directions (one or two).

    ``value(*z)`` is f at ``point(*z) = base + sum_i z_i d_i``; ``grad(*z)``
    the restricted gradient ``(<grad f(p), d_i>)_i``; ``extend(w)`` the model
    with ``w`` as one more direction.  ``gram`` is the Gram matrix of the
    directions, formed on first use, and ``sin2_theta`` its normalized
    determinant, ``lip`` the gradient Lipschitz constant of f, and
    ``hessian`` the exact Hessian in z when f is quadratic, else None.

    A subclass evaluates in ``_value(z)`` and ``_grad(z)``.  This generic
    form, which a plain :class:`Objective` returns, evaluates at the full
    point (``full``); ``last_full_grad`` keeps the full gradient behind the
    last ``grad``.  A model made by :meth:`CountingObjective.restrict`, or
    extended from one, holds that ``counter``: a full model evaluates
    through it, a problem's model counts itself as a restricted evaluation
    and raises :class:`NonFiniteError` on a NaN or infinite result.
    """

    full = True
    hessian = None
    last_full_grad = None
    counter = None
    dirs = ()
    _gram = None

    def __init__(self, f, base: np.ndarray, dirs=()):
        self.f = f
        self.base = base
        self.lip = f.lip
        for d in dirs:
            self._add(d)

    def _add(self, d: np.ndarray) -> None:
        """Append the direction ``d``; subclasses extend their own data."""
        self.dirs += (d,)
        self._gram = None

    def extend(self, w: np.ndarray) -> "Restriction":
        # a shallow copy: _add rebinds the per-direction data, never mutates it
        model = object.__new__(type(self))
        model.__dict__.update(self.__dict__)
        model._add(np.asarray(w, dtype=float))
        return model

    @property
    def gram(self) -> np.ndarray:
        if self._gram is None:
            self._gram = _pairs(self.dirs, self.dirs)
        return self._gram

    @property
    def sin2_theta(self) -> float:
        """sin^2 of the angle between two directions, in [0, 1]."""
        gram = self.gram
        vv, vw, ww = gram[0, 0], gram[0, 1], gram[1, 1]
        denom = vv * ww
        if not denom > 0:
            return 0.0
        return float(min(1.0, max(0.0, (denom - vw * vw) / denom)))

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
            if not all(map(math.isfinite, g.tolist())):
                raise NonFiniteError("model gradient has a NaN or infinite entry")
        return g

    def _value(self, z) -> float:
        return (self.counter or self.f).value(self.point(*z))

    def _grad(self, z) -> np.ndarray:
        g = (self.counter or self.f).grad(self.point(*z))
        self.last_full_grad = g
        return np.array([float(g.dot(d)) for d in self.dirs])


class _DataRestriction(Restriction):
    """A problem's model.  It keeps the data product ``A base`` and ``A d_i``
    (``A`` the problem's ``data_attr``), so the product at a model point is
    ``A base + sum_i z_i A d_i``.  ``point`` stores that carried product in
    the problem's slot, or ``A p`` formed exactly once ``REFRESH_EVERY``
    carried updates have piled up since the last exact one."""

    full = False
    data_attr = ""
    _data_dirs = ()

    def __init__(self, prob, base, dirs, product, carried):
        self._data = getattr(prob, self.data_attr)
        self._product = product
        self._carried_updates = carried
        super().__init__(prob, base, dirs)

    def _add(self, d):
        d = self.f._check(d)
        self._data_dirs += (self._data @ d,)
        super()._add(d)

    def _carried(self, z) -> np.ndarray:
        product = self._product
        for zi, ad in zip(z, self._data_dirs):
            product = product + zi * ad
        return product

    def point(self, *z) -> np.ndarray:
        p = super().point(*z)
        carried = self._carried_updates + 1
        if carried >= REFRESH_EVERY:
            product, carried = self._data @ p, 0
        else:
            product = self._carried(z)
        prob = self.f
        _store(prob, prob._product, p.tobytes(), product, carried)
        return p


class _QuadraticRestriction(_DataRestriction):
    """The exact model f0 + z.g0 + z'Hz/2, with g0 = (<A x - b, d_i>)_i and
    H = (<d_i, A d_j>)_ij: every evaluation is O(1).  f0 = f(x) is formed
    on the first ``value``; the exact linesearch never asks for it."""

    data_attr = "a_matrix"
    hessian = _read_only(np.empty((0, 0)))
    _g0 = _read_only(np.empty(0))
    _f0 = None

    def __init__(self, prob, base, dirs, product, carried):
        self._grad_base = product - prob.b
        super().__init__(prob, base, dirs, product, carried)

    def _add(self, d):
        super()._add(d)
        g0 = self._grad_base.dot(self.dirs[-1])
        self._g0 = np.array(self._g0.tolist() + [float(g0)])
        self.hessian = _pairs(self.dirs, self._data_dirs)

    def _value(self, z) -> float:
        f0 = self._f0
        if f0 is None:
            prob, base = self.f, self.base
            f0 = self._f0 = float((0.5 * base).dot(self._product)
                                  - prob.b.dot(base) + prob.c)
        z = np.array(z, dtype=float)
        return f0 + float(z.dot(self._g0 + 0.5 * (self.hessian @ z)))

    def _grad(self, z) -> np.ndarray:
        return self._g0 + self.hessian @ np.array(z, dtype=float)


class _LogRegRestriction(_DataRestriction):
    """Margins ``-b * (a x + sum_i z_i a d_i)`` and ``||p||^2`` from the Gram
    numbers: every evaluation is O(m).  ``||x||^2`` is formed on the first
    ``value``."""

    data_attr = "a"
    _xd = _read_only(np.empty(0))
    _xx = None

    def _add(self, d):
        super()._add(d)
        xd = self.base.dot(self.dirs[-1])
        self._xd = np.array(self._xd.tolist() + [float(xd)])

    def _value(self, z) -> float:
        prob = self.f
        margins = -prob.labels * self._carried(z)
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        xx = self._xx
        if xx is None:
            xx = self._xx = float(self.base.dot(self.base))
        z = np.array(z, dtype=float)
        sq_norm = xx + 2.0 * float(z.dot(self._xd)) + float(z @ self.gram @ z)
        return loss + 0.5 * prob.mu * sq_norm

    def _grad(self, z) -> np.ndarray:
        prob = self.f
        weights = prob.labels * expit(-prob.labels * self._carried(z))
        data_part = np.array([float(ad.dot(weights)) for ad in self._data_dirs])
        z = np.array(z, dtype=float)
        return -data_part / prob.m + prob.mu * (self._xd + self.gram @ z)


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
        Set when the objective is exactly quadratic; read only by ``harness``,
        which solves for the minimizer and audits exact gaps.
    restrict_fn : callable, optional
        ``(x, v, w) -> Restriction``, a model of f on ``x + span(v[, w])``
        (see :meth:`restrict`).  The problem families pass theirs; without
        one, ``restrict`` evaluates f in full at the model's points, with
        the same arithmetic as the caller would use.
    extrapolate_fn : callable, optional
        ``(x, x_prev, beta) -> z``, the momentum point (see
        :meth:`extrapolate`).  The problem families pass theirs, which also
        hands over z's data product; without one, only z is computed.
    """

    def __init__(self, dim: int, mu: float, lip: float,
                 value_fn: Callable[[np.ndarray], float],
                 grad_fn: Callable[[np.ndarray], np.ndarray],
                 quadratic_view: Optional["QuadraticProblem"] = None,
                 restrict_fn: Optional[Callable] = None,
                 extrapolate_fn: Optional[Callable] = None):
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
        self._restrict_fn = restrict_fn
        self._extrapolate_fn = extrapolate_fn

    @property
    def kappa(self) -> float:
        return self.lip / self.mu

    def value(self, x: np.ndarray) -> float:
        return float(self._value_fn(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self._grad_fn(x)

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None) -> Restriction:
        """A :class:`Restriction` of f to ``x + span(v[, w])``.

        With no direction it is the point ``x`` itself, and a problem forms
        ``A x`` exactly for it: a run that starts so never reuses a product
        carried by earlier models.
        """
        if self._restrict_fn is not None:
            return self._restrict_fn(x, v, w)
        return Restriction(self, np.asarray(x, dtype=float),
                           [np.asarray(d, dtype=float) for d in _directions(v, w)])

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> np.ndarray:
        """The momentum point ``x + beta * (x - x_prev)``.

        Nothing is evaluated.  A problem that holds the exact data products
        of ``x`` and ``x_prev`` hands over z's product, combined from them,
        so the next ``value`` or ``grad`` at z makes no new data pass.
        """
        if self._extrapolate_fn is not None:
            return self._extrapolate_fn(x, x_prev, beta)
        return x + beta * (x - x_prev)


def _checked_sq(g: np.ndarray) -> float:
    """``g @ g`` of a finite ``g``: a finite sum has finite entries, so they
    are tested one by one only when it is not (or overflows, past ~1e154)."""
    sq = float(g.dot(g))
    if not math.isfinite(sq) and not np.isfinite(g).all():
        raise NonFiniteError("gradient has a NaN or infinite entry")
    return sq


class CountingObjective:
    """Wraps an Objective and counts value/gradient evaluations.

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
        self._last_grad = (g, _checked_sq(g))
        return g

    def grad_norm(self, g: np.ndarray) -> float:
        """``||g||``, bit-equal to ``np.linalg.norm(g)`` (the square root of
        ``g @ g``), from the check of ``grad`` if it returned ``g`` last."""
        last, sq = self._last_grad
        return math.sqrt(sq if g is last else _checked_sq(g))

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None) -> Restriction:
        model = self._obj.restrict(x, v, w)
        model.counter = self
        return model

    def extrapolate(self, x: np.ndarray, x_prev: np.ndarray,
                    beta: float) -> np.ndarray:
        """The wrapped objective's momentum point; not counted, since
        nothing is evaluated."""
        return self._obj.extrapolate(x, x_prev, beta)


class _DataProblem:
    """What the problem families share: the checked point, and the model
    (``model``, the family's :class:`Restriction`) and the momentum point
    built on the stored data product."""

    model = _DataRestriction

    def restrict(self, x: np.ndarray, v: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None) -> Restriction:
        """The family's model of f on ``x + span(v[, w])``, on the stored
        product of ``x``, or on ``A x`` formed exactly (none stored, or no
        direction)."""
        dirs = _directions(v, w)
        x, product, carried = _data_product(
            self, getattr(self, self.model.data_attr), x, fresh=not dirs)
        return self.model(self, x, dirs, product, carried)

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

    Symmetry and positive definiteness are verified at construction (the
    latter by attempting a Cholesky factorization); failures raise
    ``ValueError``.  ``mu``/``lip`` default to the extreme eigenvalues of A.
    ``value`` and ``grad`` at the same point share one product ``A @ x``;
    ``restrict`` returns the exact quadratic model on a line or plane.
    """

    model = _QuadraticRestriction

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
        self.dim = n
        # (x.tobytes(), A @ x, carried updates, previous key, previous A @ x)
        self._product = (None, None, 0, None, None)
        if mu is None or lip is None:
            eigs = np.linalg.eigvalsh(a_matrix)
            mu = float(eigs[0]) if mu is None else mu
            lip = float(eigs[-1]) if lip is None else lip
        self.mu = float(mu)
        self.lip = float(lip)

    def value(self, x: np.ndarray) -> float:
        x, ax, _ = _data_product(self, self.a_matrix, x)
        return float((0.5 * x).dot(ax) - self.b.dot(x) + self.c)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = _data_product(self, self.a_matrix, x)
        return ax - self.b

    def minimizer(self) -> np.ndarray:
        """Solve Ax = b directly."""
        return np.linalg.solve(self.a_matrix, self.b)

    def objective(self) -> Objective:
        return Objective(self.dim, self.mu, self.lip, self.value, self.grad,
                         quadratic_view=self, restrict_fn=self.restrict,
                         extrapolate_fn=self.extrapolate)


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
        if labels.shape != (m,):
            raise ValueError(f"labels must have shape ({m},), got {labels.shape}")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must all be -1 or +1")
        if mu <= 0:
            raise ValueError(f"mu must be positive, got {mu}")
        self.a = _read_only(a)
        self.labels = _read_only(labels)
        # (x.tobytes(), a @ x, carried updates, previous key, previous a @ x)
        self._product = (None, None, 0, None, None)
        self.mu = float(mu)
        self.m = m
        self.n = self.dim = n
        self.lip = float(np.sum(a * a) / (4.0 * m) + mu)

    def value(self, x: np.ndarray) -> float:
        x, ax, _ = _data_product(self, self.a, x)
        margins = -self.labels * ax
        # logaddexp(0, u) = log(1 + e^u) = max(u, 0) + log1p(e^{-|u|})
        loss = float(np.mean(np.logaddexp(0.0, margins)))
        return loss + 0.5 * self.mu * float(x.dot(x))

    def grad(self, x: np.ndarray) -> np.ndarray:
        x, ax, _ = _data_product(self, self.a, x)
        margins = -self.labels * ax
        weights = self.labels * expit(margins)
        return -(self.a.T @ weights) / self.m + self.mu * x

    def objective(self) -> Objective:
        return Objective(self.n, self.mu, self.lip, self.value, self.grad,
                         restrict_fn=self.restrict,
                         extrapolate_fn=self.extrapolate)


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
