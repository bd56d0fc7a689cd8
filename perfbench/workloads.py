"""The benchmark's three workloads: seeded instances, operations and checks.

Every operation goes through the package's public API and is looked up on
its module at call time, so the tracing wrappers see it.  All solves start
from the origin with the default ``SolverConfig``.

* ``logreg-solve``: ``run_me``, ``run_gd_exact`` and ``run_fast_gd`` on a
  logistic instance (n=2000, m=1000, kappa=1e4).  Objective calls are ~95%
  of every solve; ``me`` is value-heavy, ``gd_exact`` gradient-heavy.
  ``gd_l`` is left out: it needs ~1e5 steps at this kappa.
* ``quad-solve``: all four solvers on an SPD quadratic (n=500, kappa=1e3).
  The companion and plane steps take their closed forms, and thousands of
  cheap iterations make per-iteration solver work and stored history weigh.
* ``verify``: ``ellipcenters verify`` through ``cli.main`` on a logistic
  (n=2000, kappa=1e3) and a quadratic (n=500, kappa=1e3) instance; the only
  path through ``diagnostics``, ``harness`` and ``cli``.

A pass runs a workload's operations once on one instance set; a run measures
``INSTANCE_SETS`` sets.
"""

from __future__ import annotations

import csv
import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

LOGREG = {"n": 2000, "m": 1000, "kappa": 1e4}
QUAD = {"n": 500, "kappa": 1e3}
VERIFY_LOGREG = {"n": 2000, "m": 1000, "kappa": 1e3}   # cli default m = n // 2
VERIFY_QUAD = {"n": 500, "kappa": 1e3}
INSTANCE_SETS = {"logreg-solve": 1, "quad-solve": 5, "verify": 6}
RUNNERS = {"me": "run_me", "gd_exact": "run_gd_exact",
           "fast_gd": "run_fast_gd", "gd_l": "run_gd_l"}


@dataclass
class Outcome:
    """Result of checking one operation.

    ``failed`` marks an operation that did not succeed, whether the program
    said so or the check found it; ``wrong`` marks the worse case of a
    success claimed by the program that the check refutes.  ``counts`` are
    deterministic and must repeat exactly across passes.
    """

    failed: bool
    wrong: bool
    counts: dict = field(default_factory=dict)
    note: str = ""


def instance_seeds(workload: str, seed: int) -> list[int]:
    """Seeds of the instance sets one run measures, disjoint across ``seed``s.

    Iteration counts, stored history and (for verify) the reference polish
    vary from instance to instance, so a run averages over several.
    """
    k = INSTANCE_SETS[workload]
    return [seed * k + i for i in range(k)]


def generate_instances(ec, workload: str, seed: int) -> list[dict]:
    """The seeded problem instances of each instance set of a solve workload.

    Empty for verify: ``cli.main`` generates its instances inside each call,
    so that generation is part of the timed operation.
    """
    gen = ec.objectives
    if workload == "logreg-solve":
        return [{"logreg": gen.generate_logreg(LOGREG["n"], LOGREG["m"], LOGREG["kappa"], s)}
                for s in instance_seeds(workload, seed)]
    if workload == "quad-solve":
        return [{"quad": gen.generate_quadratic(QUAD["n"], QUAD["kappa"], s)}
                for s in instance_seeds(workload, seed)]
    return []


def reference_grad_norm(prob, x: np.ndarray) -> float:
    """||grad f(x)|| computed here from the instance data, not by the package."""
    if hasattr(prob, "a_matrix"):
        g = prob.a_matrix @ x - prob.b
    else:
        margins = -prob.labels * (prob.a @ x)
        g = -(prob.a.T @ (prob.labels * expit(margins))) / prob.m + prob.mu * x
    return float(np.linalg.norm(g))


class SolveOp:
    """One solve from the origin to ||grad f|| <= eps."""

    def __init__(self, ec, prob, solver: str):
        self.ec = ec
        self.prob = prob
        self.solver = solver
        self.name = f"solve.{solver}"
        self.eps = ec.SolverConfig().eps

    def prepare(self) -> None:
        pass

    def call(self):
        run = getattr(self.ec.solvers, RUNNERS[self.solver])
        return run(self.prob.objective(), np.zeros(self.prob.dim))

    def check(self, trace) -> Outcome:
        """Converged, and a fresh gradient norm at x_final is <= eps.

        By strong convexity that certifies f - f* <= eps^2 / (2 mu) without a
        reference solution.
        """
        counts = {"iterations": trace.iterations,
                  "lib_grad_evals": trace.records[-1].grad_evals_total,
                  "lib_value_evals": trace.records[-1].value_evals_total}
        status = trace.status.value
        if status != "converged":
            return Outcome(True, False, counts, f"status {status}")
        gnorm = reference_grad_norm(self.prob, trace.x_final)
        if not gnorm <= self.eps:
            return Outcome(True, True, counts,
                           f"converged but ||grad f(x_final)|| = {gnorm:.3e} > {self.eps:g}")
        return Outcome(False, False, counts)


class VerifyOp:
    """``ellipcenters verify`` through ``cli.main``; succeeds only on exit 0."""

    def __init__(self, ec, problem: str, params: dict, seed: int, out_dir: Path):
        self.ec = ec
        self.name = f"verify.{problem}"
        self.out_dir = out_dir
        self.argv = ["verify", "--problem", problem, "--n", str(params["n"]),
                     "--kappa", repr(params["kappa"]), "--seed", str(seed),
                     "--out", str(out_dir)]
        if "m" in params:
            self.argv += ["--m", str(params["m"])]

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def call(self) -> int:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return self.ec.cli.main(self.argv)

    def _rows(self, name: str) -> list[dict]:
        path = self.out_dir / name
        if not path.is_file():
            return []
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, code: int) -> Outcome:
        summary = self._rows("summary.csv")
        audits = self._rows("audit.csv")
        counts = {"exit": code, "audit_rows": len(audits)}
        if summary:
            row = summary[0]
            counts.update(iterations=int(row["iterations"]),
                          lib_grad_evals=int(row["grad_evals_total"]),
                          lib_value_evals=int(row["value_evals_total"]))
        failing: dict[str, int] = {}
        for r in audits:
            if r["passed"] != "true":
                failing[r["name"]] = failing.get(r["name"], 0) + 1
        note = ", ".join(f"{k} x{v}" for k, v in sorted(failing.items()))
        if code != 0:
            return Outcome(True, False, counts, f"exit {code}" + (f": {note}" if note else ""))
        converged = bool(summary) and summary[0]["status"] == "converged"
        if not converged or not audits or failing:
            return Outcome(True, True, counts,
                           "exit 0 without a converged run and a passing audit")
        return Outcome(False, False, counts)


def build_passes(ec, workload: str, seed: int, instances: list[dict],
                 out_dir: Path) -> list[list]:
    """One pass per instance set, each a list of operations in execution order."""
    if workload == "logreg-solve":
        return [[SolveOp(ec, inst["logreg"], s) for s in ("me", "gd_exact", "fast_gd")]
                for inst in instances]
    if workload == "quad-solve":
        return [[SolveOp(ec, inst["quad"], s) for s in ("me", "gd_exact", "fast_gd", "gd_l")]
                for inst in instances]
    return [[VerifyOp(ec, "logreg", VERIFY_LOGREG, s, out_dir / f"verify-logreg-{s}"),
             VerifyOp(ec, "quadratic", VERIFY_QUAD, s, out_dir / f"verify-quad-{s}")]
            for s in instance_seeds(workload, seed)]


def build_warmup_ops(ec, workload: str, out_dir: Path) -> list:
    """The same operations on tiny instances: first calls pay lazy set-up
    (a first ``run_me`` in a fresh process took 0.86 s once, 0.08 s the next
    time), so one untimed pass of these runs before anything is measured."""
    if workload == "verify":
        tiny = {"n": 40, "kappa": 1e2}
        return [VerifyOp(ec, "logreg", tiny, 0, out_dir / "warmup-logreg"),
                VerifyOp(ec, "quadratic", tiny, 0, out_dir / "warmup-quad")]
    probs = {"logreg-solve": ec.objectives.generate_logreg(60, 30, 1e2, 0),
             "quad-solve": ec.objectives.generate_quadratic(40, 1e2, 0)}
    solvers = {"logreg-solve": ("me", "gd_exact", "fast_gd"),
               "quad-solve": ("me", "gd_exact", "fast_gd", "gd_l")}
    return [SolveOp(ec, probs[workload], s) for s in solvers[workload]]
