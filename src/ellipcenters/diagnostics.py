"""Certification of convergence guarantees, step by step.

Given a trace and a trusted reference value, these audits check, step by
step, the inequalities the solvers are supposed to satisfy: per-step gap
contraction at the universal rate 1 - mu/lip, the stronger rate
(kappa-1)/(kappa+1) on steps where the two spanning gradients were linearly
independent, the further angle-dependent improvement, gradient orthogonality
at plane minimizers, the two-gradient descent bound they imply, and the
one-step dominance of the plane step over the exact linesearch step.  Each
returns an :class:`AuditReport` of rows; the per-step rate rows are the
entries of ``RATES``.  The rate and descent audits read whole columns of the
records.  The audits that need a step's vectors take them as the
run hands them to its observer (see ``solvers.History`` and
``harness.verify_experiment``), so no run has to keep them:
``audit_orthogonality`` and ``audit_level_sets`` accept any list of
:class:`StepVectors`, one step's included, and ``certify_rates`` takes the
iterate distances ||x_k - x*||^2 as floats.

All rate audits are one-sided with relative slack ``RATE_SLACK`` (inexact 2-D
solves can violate exact-arithmetic bounds in the last bits), and ratios are
dropped once the gap falls below the cancellation floor, where a difference
of two nearly equal doubles carries no information.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import companion, plane2d
from .objectives import Objective
from .solvers import (RunStatus, RunTrace, SolverConfig, SolverId,
                      StepVectors, run_gd_exact, run_me)

RATE_SLACK = 1e-8
GAP_FLOOR_REL = 1e-14

# The per-step rate rows of ``certify_rates``, in the order it writes them:
# the row name, whether only linearly independent steps carry it, and its
# bound as a function of (kappa, sin2_theta_k).
RATES = (
    ("rate_eta", False, lambda kappa, sin2: 1.0 - 1.0 / kappa),
    ("rate_eta_star", True,
     lambda kappa, sin2: (kappa - 1.0) / (kappa + 1.0)),
    ("rate_eta_bar", True,
     lambda kappa, sin2: ((kappa - 1.0) / (kappa + 1.0)
                          - sin2 / (4.0 * kappa * kappa))),
)


@dataclass
class AuditRow:
    name: str
    step: int
    value: float
    bound: float
    passed: bool


@dataclass
class AuditReport:
    """Collection of per-step inequality checks."""

    rows: list[AuditRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def extend(self, other: "AuditReport") -> None:
        self.rows.extend(other.rows)

    def check(self, name: str, step: int, value: float, bound: float) -> None:
        self.rows.append(AuditRow(name, step, float(value), float(bound),
                                  value <= bound))

    def worst_slack(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for r in self.rows:
            slack = r.bound - r.value
            if r.name not in out or slack < out[r.name]:
                out[r.name] = slack
        return out

    def failures(self) -> list[AuditRow]:
        return [r for r in self.rows if not r.passed]

    def to_text(self) -> str:
        lines = []
        worst = self.worst_slack()
        counts = Counter(r.name for r in self.rows)
        fails = Counter(r.name for r in self.rows if not r.passed)
        for name in sorted(counts):
            status = "PASS" if fails.get(name, 0) == 0 else "FAIL"
            lines.append(f"{status}  {name:<28} checks={counts[name]:<6} "
                         f"failures={fails.get(name, 0):<4} "
                         f"worst_slack={worst[name]:.3e}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        """One CSV row per check under the header name,step,value,bound,passed,
        floats as ``.17g`` and ``passed`` as ``true``/``false``, each row one
        ``%`` format and the file one write."""
        with open(path, "w", newline="") as fh:
            fh.write("name,step,value,bound,passed\r\n" + "".join([
                "%s,%d,%.17g,%.17g,%s\r\n" % (
                    r.name, r.step, r.value, r.bound,
                    "true" if r.passed else "false") for r in self.rows]))


def contraction_ratios(trace: RunTrace, f_star: float,
                       gaps: Optional[Sequence[float]] = None
                       ) -> list[Optional[float]]:
    """Per-step optimality-gap contraction ratios.

    ``ratio[k] = gap_{k+1} / gap_k``, with ``gap_k = f_k - f_star`` unless
    the caller gives ``gaps`` (one per record) and entries dropped (None)
    whenever either gap sits below the cancellation floor
    ``GAP_FLOOR_REL * |f_star| + 1e-300``.
    """
    values = trace.records.column("f_val")
    floor = GAP_FLOOR_REL * abs(f_star) + 1e-300
    tol = 1e-9 * max(1.0, abs(f_star))
    for fv in values:
        if fv < f_star - tol:
            raise ValueError(
                f"f_star={f_star} exceeds a trace value {fv}; not a valid reference")
    if gaps is None:
        gaps = [fv - f_star for fv in values]
    elif len(gaps) != len(values):
        raise ValueError(f"{len(gaps)} gaps for {len(values)} records")
    return [None if g0 <= floor or g1 <= floor else g1 / g0
            for g0, g1 in zip(gaps[:-1], gaps[1:])]


def _me_records(trace: RunTrace):
    """The records of ``trace``, ``ValueError`` unless it is from ``me``."""
    if trace.solver_id is not SolverId.ME:
        raise ValueError("this audit applies to ellipcenter traces only")
    return trace.records


def certify_rates(trace: RunTrace, f_star: float, mu: float, lip: float,
                  dist2: Optional[Sequence[float]] = None,
                  gaps: Optional[Sequence[float]] = None) -> AuditReport:
    """Audit an ellipcenter trace against its linear-rate guarantees.

    Checks, with relative slack ``RATE_SLACK`` and kappa = lip/mu:

    a. every step: ratio <= eta = 1 - 1/kappa;
    b. independent steps: ratio <= eta_star = (kappa-1)/(kappa+1);
    c. independent steps: ratio <= eta_bar_k = eta_star - sin2_theta_k/(4 kappa^2);
    d. every iterate: gap_k <= eta^(k-2) * gap_1  (k >= 2);
    e. when ``dist2`` is given, its entry k - 1 being ||x_k - x_star||^2 as
       taken by an observer during the run:
       ||x_k - x_star||^2 <= kappa * eta^(k-1) * ||x_1 - x_star||^2.

    The gaps of (a)-(d) are f_k - f_star, or ``gaps`` (one per iterate, as
    ``dist2``) from a caller that forms them without that subtraction of
    nearly equal doubles: on a quadratic ``verify`` hands over
    1/2 <x_k - x_star, grad f(x_k)>, exact up to a term at the reference
    residual, 1/2 <x_k - x_star, grad f(x_star)>.  Rows (a)-(c) are the
    entries of ``RATES``, checked on the steps that have a ratio.  A
    ``gaps`` or ``dist2`` of another length than the records, or a trace
    not from ``me``, raises ``ValueError``.
    """
    recs = _me_records(trace)
    kappa = lip / mu
    eta = 1.0 - 1.0 / kappa
    if gaps is None:
        gaps = [fv - f_star for fv in recs.column("f_val")]
    ratios = contraction_ratios(trace, f_star, gaps)
    if dist2 is not None and len(dist2) != len(recs):
        raise ValueError(f"{len(dist2)} distances for {len(recs)} records")
    report = AuditReport()
    steps = zip(recs.column("li_flag"), recs.column("sin2_theta"), ratios)
    for step, (li, sin2, ratio) in enumerate(steps, start=1):
        if ratio is None:
            continue
        for name, independent_only, bound in RATES:
            if li or not independent_only:
                report.check(name, step, ratio,
                             bound(kappa, sin2) * (1.0 + RATE_SLACK))
    # (d) global bound against the initial gap
    floor = GAP_FLOOR_REL * abs(f_star) + 1e-300
    gap1 = gaps[0]
    if gap1 > floor:
        for k, gap in enumerate(gaps[1:], start=2):
            if gap <= floor:
                continue
            bound = eta ** (k - 2) * gap1 * (1.0 + RATE_SLACK)
            report.check("global_eta_bound", k, gap, bound)
    # (e) iterate-distance bound
    if dist2:
        d1 = dist2[0]
        if d1 > 0.0:
            for k, dk in enumerate(dist2, start=1):
                bound = kappa * eta ** (k - 1) * d1 * (1.0 + RATE_SLACK)
                report.check("iterate_distance_bound", k, dk, bound + 1e-300)
    return report


def audit_orthogonality(step_data: list[StepVectors], lip: float) -> AuditReport:
    """Check gradient orthogonality at plane minimizers (independent steps).

    Both inner products of the new gradient with the spanning gradients must
    be within ``eps_orth = 10 * plane2d.INNER_TOL * max(||v||, ||w||)``, ten
    times the plane search's tolerance; the Pythagorean expansion of
    ||g' - v||^2 must match to the accuracy those inner products allow; and
    ||g' - v|| must respect Lipschitz continuity over the step taken.
    """
    report = AuditReport()
    for sd in step_data:
        if not sd.li_flag:
            continue
        # bit for bit as np.linalg.norm, np.sum and @, with fewer numpy calls
        nv = math.sqrt(sd.v.dot(sd.v))
        nw = math.sqrt(sd.w.dot(sd.w))
        eps_orth = 10.0 * plane2d.INNER_TOL * max(nv, nw)
        g = sd.grad_next
        report.check("orth_v", sd.k, abs(float(g.dot(sd.v))), eps_orth)
        report.check("orth_w", sd.k, abs(float(g.dot(sd.w))), eps_orth)
        lhs = float(((g - sd.v) ** 2).sum())
        rhs = float(g.dot(g)) + nv * nv
        pyth_tol = max(10.0 * eps_orth * nv, 3.0 * eps_orth)
        report.check("pythagoras", sd.k, abs(lhs - rhs), pyth_tol)
        dx2 = float((sd.dx ** 2).sum())
        report.check("lipschitz_displacement", sd.k, lhs,
                     lip * lip * dx2 * (1.0 + 1e-9))
    return report


def audit_bh_descent(trace: RunTrace, lip: float) -> AuditReport:
    """Two-gradient descent bound at independent steps.

    Orthogonality of the new gradient to the step direction yields
    f_k - f_{k+1} >= (||g_{k+1}||^2 + ||g_k||^2) / (2 lip); checked with
    absolute slack 1e-9 |f_k|; a trace not from ``me`` raises ValueError.
    """
    report = AuditReport()
    recs = _me_records(trace)
    f, g = recs.column("f_val"), recs.column("grad_norm")
    for k, (li, f0, f1, g0, g1) in enumerate(
            zip(recs.column("li_flag"), f, f[1:], g, g[1:]), start=1):
        if not li:
            continue
        required = (g1 ** 2 + g0 ** 2) / (2.0 * lip)
        # one-sided: required - decrease <= slack
        report.check("bh_descent", k, required - (f0 - f1), 1e-9 * abs(f0))
    return report


def audit_level_sets(step_data: list[StepVectors]) -> AuditReport:
    """Every companion point must sit on the iterate's level set to within
    the companion search's relative residual, ``companion.TOL``."""
    report = AuditReport()
    for sd in step_data:
        report.check("level_residual", sd.k, sd.level_residual, companion.TOL)
    return report


def audit_dominance(f: Objective, points: Sequence[np.ndarray],
                    cfg: SolverConfig | None = None) -> AuditReport:
    """One-step comparison at each of ``points``: the plane minimizer cannot
    lose to the exact linesearch point, since the ray lies inside the plane.

    Each side is a one-step run (``max_outer=1``) from point i, which gives
    the ``dominance`` row of step i: the value f after the ``me`` step, the
    bound f after the ``gd_exact`` step plus ``1e-12 * max(1, |f(x)|)`` (f(x)
    as ``me`` recorded it).  A stationary point passes, both runs ending at
    it.  A side whose run ends in any status but ``converged`` or
    ``max_iterations``, ``precision_floor`` too, took no step, reads NaN
    and fails.
    """
    cfg = replace(cfg or SolverConfig(), max_outer=1)
    report = AuditReport()
    for i, x in enumerate(points):
        f_gd = _one_step(run_gd_exact, f, x, cfg)[1]
        f_x, f_me = _one_step(run_me, f, x, cfg)
        report.check("dominance", i, f_me, f_gd + 1e-12 * max(1.0, abs(f_x)))
    return report


def _one_step(run, f: Objective, x: np.ndarray, cfg: SolverConfig):
    """f(x) and f after the step of ``run(f, x, cfg)``, NaN if it failed."""
    trace = run(f, x, cfg)
    if trace.status in (RunStatus.CONVERGED, RunStatus.MAX_ITERATIONS):
        return trace.records[0].f_val, trace.records[-1].f_val
    return trace.records[0].f_val, math.nan


def theoretical_iteration_bound(kappa: float, initial_gap: float,
                                target_gap: float) -> int:
    """Worst-case iteration count to contract the gap at rate
    (kappa-1)/(kappa+1): ceil(ln(initial/target) / ln(1/eta_star))."""
    if initial_gap <= 0.0 or target_gap <= 0.0:
        raise ValueError("gaps must be positive")
    if target_gap > initial_gap:
        raise ValueError("target gap exceeds the initial gap")
    eta_star = (kappa - 1.0) / (kappa + 1.0)
    if eta_star <= 0.0:
        return 0
    return int(math.ceil(math.log(initial_gap / target_gap)
                         / math.log(1.0 / eta_star)))
