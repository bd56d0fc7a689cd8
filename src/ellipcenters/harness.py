"""Experiment orchestration: instance generation, reference optima, solver
runs, the trace, series, summary and audit files, and the end-to-end audit
used by the ``verify`` command.

All experiments start from the origin.  Trace CSVs are deterministic given
``(problem, n, m, kappa, seed, config)``, one BLAS build and thread count;
only the wall-time column of the summary varies between reruns.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .diagnostics import (AuditReport, audit_bh_descent, audit_dominance,
                          audit_level_sets, audit_orthogonality,
                          certify_rates, contraction_ratios)
from .objectives import (Objective, QuadraticProblem, generate_logreg,
                         generate_quadratic)
from .solvers import (RUNNERS, IterateRecord, Observer, RunTrace,
                      SolverConfig, SolverId, run_gd_exact)

TRACE_COLUMNS = ["k", "f", "gap", "grad_norm", "t_k", "sin2_theta", "li_flag",
                 "ratio", "grad_evals_outer", "grad_evals_total",
                 "value_evals_total", "restricted_evals_total"]

SUMMARY_COLUMNS = ["solver", "n", "kappa", "status", "iterations",
                   "grad_evals_outer", "grad_evals_total", "value_evals_total",
                   "terminal_gap", "terminal_grad_norm", "wall_time_s"]


@dataclass
class ExperimentSpec:
    """One experiment: a seeded instance plus the solvers to run on it.

    ``m`` defaults to n//2 for logistic instances and is ignored for
    quadratics.  A solver listed twice runs once, where it is first listed.
    ``output_dir=None`` keeps everything in memory.
    """

    problem: str
    n: int
    kappa: float
    seed: int
    m: Optional[int] = None
    solvers: list[SolverId] = field(default_factory=lambda: list(SolverId))
    config: SolverConfig = field(default_factory=SolverConfig)
    output_dir: Optional[Path] = None

    def __post_init__(self):
        if self.problem not in ("quadratic", "logreg"):
            raise ValueError(f"unknown problem family {self.problem!r}")
        if not 1.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must exceed 1 and be finite, got {self.kappa}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.m is None and self.problem == "logreg":
            self.m = max(1, self.n // 2)
        self.solvers = list(dict.fromkeys(map(SolverId, self.solvers)))
        if self.output_dir is not None:
            self.output_dir = Path(self.output_dir)


@dataclass
class ReferenceSolution:
    """Trusted optimum used by every audit.

    ``residual`` is the gradient norm at ``x_star``, formed exactly there.
    For quadratics the minimizer comes from a direct linear solve
    (``method="linear_solve"``).  Otherwise it is the final iterate of a
    gradient descent run with exact linesearch to near the double-precision
    gradient floor (``method="high_accuracy_run"``).  Trust rests on the
    residual alone: f(x) - f* <= ||grad f(x)||^2 / (2 mu) whichever method
    produced x.  A gradient-norm target of 1e-15 is below what double
    precision can resolve on ill-conditioned instances, hence the 1e-13
    target and the quality flag.
    """

    f_star: float
    x_star: Optional[np.ndarray]
    method: str
    residual: float

    @property
    def quality_warning(self) -> bool:
        return self.residual > 1e-10


def build_problem(spec: ExperimentSpec) -> Objective:
    """Instantiate the seeded problem, itself an :class:`Objective`."""
    if spec.problem == "quadratic":
        return generate_quadratic(spec.n, spec.kappa, spec.seed)
    return generate_logreg(spec.n, spec.m, spec.kappa, spec.seed)


def compute_reference(f: Objective) -> ReferenceSolution:
    """Reference optimum: a linear solve for a :class:`QuadraticProblem`,
    otherwise gradient descent with exact linesearch to eps=1e-13.

    The linesearch adapts to the curvature along each gradient, whereas a
    fixed step 1/lip, and the accelerated method's momentum tuned to it, pay
    for how far ``lip`` overstates it: the logistic ``lip`` is the trace
    bound, over 250x the largest Hessian eigenvalue on the Gaussian
    instances of ``generate_logreg``.  At n=2000, kappa=1e3 the
    exact-linesearch run takes 41 steps where the accelerated one took
    ~900.  ``f_star`` and ``residual`` come from ``A x*`` formed exactly
    once, for the final iterate as an array, not from the run's last
    record, whose product may carry up to ``REFRESH_EVERY`` updates.
    """
    if isinstance(f, QuadraticProblem):
        x_star, method = f.minimizer(), "linear_solve"
    else:
        cfg = SolverConfig(eps=1e-13, max_outer=500000)
        x_star = run_gd_exact(f, np.zeros(f.dim), cfg).x_final
        method = "high_accuracy_run"
    point = f._point(x_star)  # the gradient and the value share its product
    residual = float(np.linalg.norm(f.grad(point)))
    return ReferenceSolution(f.value(point), x_star, method, residual)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    reference: ReferenceSolution
    traces: dict[str, RunTrace]
    summary: list[dict]
    written: list[Path] = field(default_factory=list)  # in output_dir, in order

    def summary_text(self) -> str:
        return format_summary_table(self.summary)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Generate the instance, compute the reference, run every requested
    solver from the origin, and (with an output directory) write one trace
    CSV, one gap series CSV per solver, and the summary table pair.

    Individual solver failures are recorded in their summary row; the rest
    of the experiment continues.
    """
    f = build_problem(spec)
    return _run_on(spec, f, compute_reference(f))


def _run_on(spec: ExperimentSpec, f: Objective, reference: ReferenceSolution,
            observe: Observer | None = None) -> ExperimentResult:
    """:func:`run_experiment` on an objective already built from ``spec``,
    with its reference computed; ``observe`` watches every solver run."""
    x1 = np.zeros(spec.n)
    traces: dict[str, RunTrace] = {}
    summary: list[dict] = []
    written: list[Path] = []
    out = spec.output_dir
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for sid in spec.solvers:
        start = time.perf_counter()
        trace = RUNNERS[sid](f, x1, spec.config, observe=observe)
        wall = time.perf_counter() - start
        traces[sid.value] = trace
        last = trace.records[-1]
        summary.append({
            "solver": sid.value,
            "n": spec.n,
            "kappa": spec.kappa,
            "status": trace.status.value,
            "iterations": trace.iterations,
            "grad_evals_outer": last.grad_evals_outer,
            "grad_evals_total": last.grad_evals_total,
            "value_evals_total": last.value_evals_total,
            "terminal_gap": last.f_val - reference.f_star,
            "terminal_grad_norm": last.grad_norm,
            "wall_time_s": wall,
        })
        if out is not None:
            trace_path = out / f"trace_{sid.value}.csv"
            write_trace_csv(trace, reference.f_star, trace_path)
            series_path = out / f"series_{sid.value}.csv"
            write_series_csv(trace, reference.f_star, series_path)
            written.extend([trace_path, series_path])
    if out is not None:
        summary_csv = out / "summary.csv"
        write_summary_csv(summary, summary_csv)
        summary_txt = out / "summary.txt"
        summary_txt.write_text(format_summary_table(summary) + "\n")
        written.extend([summary_csv, summary_txt])
    return ExperimentResult(spec, reference, traces, summary, written)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return "%.17g" % float(x)  # as format(x, ".17g"), at half its cost


def write_trace_csv(trace: RunTrace, f_star: float, path) -> None:
    """One row per iterate; floats carry 17 significant digits so the file
    round-trips bit-exactly.  Step fields stay empty for non-ellipcenter
    solvers and on each final row.  ``gap`` is f - f_star and ``ratio`` is
    :func:`~.diagnostics.contraction_ratios`, empty where it drops one; it
    raises ``ValueError`` for an ``f_star`` that is no valid reference."""
    recs = trace.records
    f_val = recs.column("f_val")
    floats = [f_val, [v - f_star for v in f_val],  # grad_norm to li_flag
              *map(recs.column, TRACE_COLUMNS[3:7]),  # are fields
              contraction_ratios(trace, f_star) + [None]]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(zip(recs.column("k"), *(map(_fmt, c) for c in floats),
                             *map(recs.column, TRACE_COLUMNS[8:])))


def read_trace_csv(path):
    """Parse a trace CSV; returns ``(records, gaps, ratios)``, None if blank."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]

    def field(text):  # a step field or ratio: empty, true/false or a float
        return (None if not text else text == "true"
                if text in ("true", "false") else float(text))

    records = [IterateRecord(int(r[0]), float(r[1]), float(r[3]),
                             *map(field, r[4:7]), *map(int, r[8:]))
               for r in rows]
    return records, [float(r[2]) for r in rows], [field(r[7]) for r in rows]


def write_series_csv(trace: RunTrace, f_star: float, path) -> None:
    """Gap versus cumulative gradient evaluations, for plotting."""
    recs = trace.records
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grad_evals_outer", "grad_evals_total", "gap"])
        writer.writerows(zip(recs.column("grad_evals_outer"),
                             recs.column("grad_evals_total"),
                             [_fmt(v - f_star) for v in recs.column("f_val")]))


def write_summary_csv(summary: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        for row in summary:
            floats = {key: _fmt(row[key]) for key in
                      ("kappa", "terminal_gap", "terminal_grad_norm")}
            writer.writerow({**row, **floats,
                             "wall_time_s": format(row["wall_time_s"], ".6f")})


def format_summary_table(summary: list[dict]) -> str:
    """Aligned plain-text twin of the summary CSV."""
    headers = ["solver", "n", "kappa", "status", "iters", "grads(outer)",
               "grads(total)", "values", "terminal gap", "time(s)"]
    rows = [[s["solver"], str(s["n"]), f"{s['kappa']:g}", s["status"],
             str(s["iterations"]), str(s["grad_evals_outer"]),
             str(s["grad_evals_total"]), str(s["value_evals_total"]),
             f"{s['terminal_gap']:.3e}", f"{s['wall_time_s']:.3f}"]
            for s in summary]
    widths = [max(map(len, col)) for col in zip(headers, *rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in [headers, ["-" * w for w in widths], *rows])


def verify_experiment(spec: ExperimentSpec):
    """Run a fresh experiment and the full audit suite over it.

    Audits the ellipcenter trace (rates, iterate distances, orthogonality,
    two-gradient descent, companion level residuals) and the one-step
    dominance comparison at the start point and a few seeded points.  The
    reference comes first, so the audits that need a step's vectors run on
    each step as the run goes and the run keeps no history.  On a quadratic
    the rate audits take the exact gaps 1/2 <x_k - x*, grad f(x_k)> (see
    :func:`certify_rates`), elsewhere f_k - f*.  With an output directory
    it writes the ``me`` run's files as :func:`run_experiment` does, then
    the report as ``audit.csv``, last in ``written``.  Returns
    ``(ExperimentResult, AuditReport)``.
    """
    spec = replace(spec, solvers=[SolverId.ME])
    f = build_problem(spec)
    ref = compute_reference(f)
    dist2: list[float] = []
    gaps = [] if isinstance(f, QuadraticProblem) else None
    orthogonality, level_sets = AuditReport(), AuditReport()

    def audit_step(k, x, f_x, g, step):
        d = x - ref.x_star
        dist2.append(float((d ** 2).sum()))
        if gaps is not None:
            gaps.append(0.5 * float(d.dot(g)))
        if step is not None:
            orthogonality.extend(audit_orthogonality([step], f.lip))
            level_sets.extend(audit_level_sets([step]))

    result = _run_on(spec, f, ref, audit_step)
    trace = result.traces[SolverId.ME.value]
    report = certify_rates(trace, ref.f_star, f.mu, f.lip, dist2=dist2,
                           gaps=gaps)
    report.extend(orthogonality)
    report.extend(audit_bh_descent(trace, f.lip))
    report.extend(level_sets)
    rng = np.random.Generator(np.random.PCG64(spec.seed + 1))
    points = [np.zeros(spec.n)] + [0.5 * rng.standard_normal(spec.n)
                                   for _ in range(3)]
    report.extend(audit_dominance(f, points, spec.config))
    if spec.output_dir is not None:
        path = spec.output_dir / "audit.csv"
        report.write_csv(path)
        result.written.append(path)
    return result, report
