"""Evaluation counting and span tracing around the library's public functions.

No library code is changed.  Wrappers replace the module attributes that
callers look up at call time (``run_me`` finds ``companion_point`` in the
globals of ``ellipcenters.solvers``, so that is where its wrapper goes), and
every original is put back when the instrument is closed.  A target that no
longer exists is listed as unmeasured instead of failing the run, so a later
refactor that moves a name leaves its layer at zero with a visible mark.

Two kinds of wrapper are used:

* the problems' ``value`` and ``grad`` methods are wrapped for the whole run
  and always count calls; they record a span only while a traced pass is on;
* every other target gets a span wrapper, installed for a traced pass only.

Spans live in memory as ``[name, layer, start, end, parent, attrs]`` rows in
call order, so a span's subtree is the contiguous block that follows it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter

perf = time.perf_counter

# (target, layer, span name, hook).  A target is "<module>:<attribute path>",
# with "[key]" for a dict entry.  The hook maps (args, result) to the span's
# attributes.  Names are grouped by the layer whose time they measure.
OBJECTIVE_METHODS = [
    ("objectives:QuadraticProblem.value", "value"),
    ("objectives:QuadraticProblem.grad", "grad"),
    ("objectives:LogRegProblem.value", "value"),
    ("objectives:LogRegProblem.grad", "grad"),
]


def _plane_attrs(args, out):
    return {"inner_iters": out.inner_iters, "residual": out.inner_grad_norm}


def _companion_attrs(args, out):
    return {"bisection_iters": out.bisection_iters,
            "level_residual": out.level_residual}


def _trace_attrs(args, out):
    """Iteration count, status and stored-history size of a RunTrace.

    History size is computed from array sizes: every stored iterate and
    every step record hold vectors of the same length.
    """
    history = 0
    if out.iterates:
        history += len(out.iterates) * out.iterates[0].nbytes
    if out.step_data:
        per_step = sum(v.nbytes for v in vars(out.step_data[0]).values()
                       if hasattr(v, "nbytes"))
        history += len(out.step_data) * per_step
    return {"solver": out.solver_id.value, "iterations": out.iterations,
            "status": out.status.value, "history_bytes": history}


def _file_size(args, out):
    return {"bytes": os.path.getsize(args[-1])}


SPAN_TARGETS = [
    ("objectives:QuadraticProblem.objective", "objectives", "objectives.objective", None),
    ("objectives:LogRegProblem.objective", "objectives", "objectives.objective", None),
    ("objectives:generate_logreg", "objectives", "objectives.generate", None),
    ("objectives:generate_quadratic", "objectives", "objectives.generate", None),
    ("harness:generate_logreg", "objectives", "objectives.generate", None),
    ("harness:generate_quadratic", "objectives", "objectives.generate", None),
    ("solvers:companion_point", "companion", "companion.companion_point", _companion_attrs),
    ("companion:bracket_right", "companion", "companion.bracket_right", None),
    ("companion:companion_t_quadratic", "companion", "companion.companion_t_quadratic", None),
    ("solvers:make_plane", "plane2d", "plane2d.make_plane", None),
    ("solvers:solve_newton_quadratic", "plane2d", "plane2d.newton", _plane_attrs),
    ("solvers:solve_gd_armijo", "plane2d", "plane2d.armijo", _plane_attrs),
    ("solvers:segment_minimizer", "plane2d", "plane2d.segment", None),
    ("solvers:run_me", "solvers", "solvers.run", _trace_attrs),
    ("solvers:run_gd_l", "solvers", "solvers.run", _trace_attrs),
    ("solvers:run_gd_exact", "solvers", "solvers.run", _trace_attrs),
    ("solvers:run_fast_gd", "solvers", "solvers.run", _trace_attrs),
    ("solvers:RUNNERS[me]", "solvers", "solvers.run", _trace_attrs),
    ("solvers:RUNNERS[gd_l]", "solvers", "solvers.run", _trace_attrs),
    ("solvers:RUNNERS[gd_exact]", "solvers", "solvers.run", _trace_attrs),
    ("solvers:RUNNERS[fast_gd]", "solvers", "solvers.run", _trace_attrs),
    ("harness:run_me", "solvers", "solvers.run", _trace_attrs),
    ("harness:run_fast_gd", "solvers", "solvers.run", _trace_attrs),
    ("diagnostics:me_step", "solvers", "solvers.me_step", None),
    ("diagnostics:gd_exact_step", "solvers", "solvers.gd_exact_step", None),
    ("harness:certify_rates", "diagnostics", "diagnostics.certify_rates", None),
    ("harness:audit_orthogonality", "diagnostics", "diagnostics.audit_orthogonality", None),
    ("harness:audit_bh_descent", "diagnostics", "diagnostics.audit_bh_descent", None),
    ("harness:audit_level_sets", "diagnostics", "diagnostics.audit_level_sets", None),
    ("harness:audit_dominance", "diagnostics", "diagnostics.audit_dominance", None),
    ("harness:contraction_ratios", "diagnostics", "diagnostics.contraction_ratios", None),
    ("diagnostics:contraction_ratios", "diagnostics", "diagnostics.contraction_ratios", None),
    ("cli:verify_experiment", "harness", "harness.verify_experiment",
     lambda args, out: {"report": out[1]}),
    ("harness:run_experiment", "harness", "harness.run_experiment", None),
    ("harness:build_problem", "harness", "harness.build_problem", None),
    ("harness:compute_reference", "harness", "harness.compute_reference", None),
    ("harness:fill_ratios", "harness", "harness.fill_ratios", None),
    ("harness:write_trace_csv", "harness", "harness.csv", _file_size),
    ("harness:write_series_csv", "harness", "harness.csv", _file_size),
    ("harness:write_summary_csv", "harness", "harness.csv", _file_size),
    ("cli:main", "cli", "cli.main", lambda args, out: {"exit": out}),
]

LAYERS = ("objectives", "companion", "plane2d", "solvers", "diagnostics",
          "harness", "cli")


class Recorder:
    """Spans of one traced pass, in memory until the pass is summarized."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, perf(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf()
        self._stack.pop()


class _Slot:
    """One patchable location: a module or class attribute, or a dict entry."""

    def __init__(self, target: str):
        module, path = target.split(":")
        owner = importlib.import_module("ellipcenters." + module)
        *parents, last = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        if last.endswith("]"):
            last, key = last[:-1].split("[")
            owner = getattr(owner, last)
            # RUNNERS is keyed by a str enum; reuse the stored key object
            self.key = next(k for k in owner if k == key)
            self.is_item = True
        else:
            getattr(owner, last)
            self.key = last
            self.is_item = False
        self.owner = owner
        self.original = self.get()

    def get(self):
        return self.owner[self.key] if self.is_item else getattr(self.owner, self.key)

    def set(self, value) -> None:
        if self.is_item:
            self.owner[self.key] = value
        else:
            setattr(self.owner, self.key, value)


def _resolve(target: str):
    try:
        return _Slot(target)
    except (ImportError, AttributeError, StopIteration, ValueError):
        return None


class Instrument:
    """Counts value/grad calls for the whole run; records spans on request.

    Use as a context manager: leaving it restores every patched attribute.
    """

    def __init__(self):
        self.value_calls = 0
        self.grad_calls = 0
        self.recorder: Recorder | None = None
        self.unmeasured: list[str] = []
        self._installed: list[_Slot] = []
        for target, kind in OBJECTIVE_METHODS:
            slot = _resolve(target)
            if slot is None:
                self.unmeasured.append(target)
                continue
            slot.set(self._objective_wrapper(slot.original, kind))
            self._installed.append(slot)
        self._span_slots = []
        for target, layer, name, hook in SPAN_TARGETS:
            slot = _resolve(target)
            if slot is None:
                self.unmeasured.append(target)
            else:
                self._span_slots.append((slot, layer, name, hook))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for slot in reversed(self._installed):
            slot.set(slot.original)
        self._installed.clear()

    def _objective_wrapper(self, fn, kind: str):
        inst = self
        name = "objectives." + kind
        grad = kind == "grad"

        @functools.wraps(fn)
        def wrapper(prob, *args, **kwargs):
            if grad:
                inst.grad_calls += 1
            else:
                inst.value_calls += 1
            rec = inst.recorder
            if rec is None:
                return fn(prob, *args, **kwargs)
            idx = rec.open(name, "objectives")
            try:
                return fn(prob, *args, **kwargs)
            finally:
                rec.close(idx)
                rec.spans[idx][5] = _objective_cost(prob, grad)
        return wrapper

    def _span_wrapper(self, fn, layer: str, name: str, hook):
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = inst.recorder
            if rec is None:
                return fn(*args, **kwargs)
            idx = rec.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec.spans[idx][5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec.close(idx)
            if hook is not None:
                rec.spans[idx][5] = hook(args, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def tracing(self, recorder: Recorder):
        """Install the span wrappers and record into ``recorder``."""
        installed = []
        try:
            for slot, layer, name, hook in self._span_slots:
                slot.set(self._span_wrapper(slot.original, layer, name, hook))
                installed.append(slot)
            self.recorder = recorder
            yield recorder
        finally:
            self.recorder = None
            for slot in reversed(installed):
                slot.set(slot.original)


def _objective_cost(prob, grad: bool) -> tuple[int, int]:
    """Computed (flops, bytes) of one evaluation, from array sizes.

    Logistic: a value is one pass over the m-by-n data (2mn flops), a
    gradient two (4mn).  Quadratic: one n-by-n matvec (2n^2) either way.
    Bytes count the matrix reads only, at 8 bytes per entry.
    """
    if hasattr(prob, "a_matrix"):
        entries = prob.a_matrix.size
        return 2 * entries, 8 * entries
    entries = prob.a.size
    passes = 2 if grad else 1
    return 2 * passes * entries, 8 * passes * entries


def summarize(spans: list[list]) -> dict:
    """Per-layer figures of one traced pass.

    Self time is a span's duration minus that of its direct children.  Every
    count keyed on an ancestor (say, value calls inside ``bracket_right``)
    walks the parent chain of each objective span.
    """
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child[s[4]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    totals: Counter = Counter()
    counts: Counter = Counter()
    maxima: dict[str, float] = {}
    layer_self: Counter = Counter()
    reports = []
    previous_sibling: dict[int, str] = {}
    for i, (name, layer, _, _, parent, attrs) in enumerate(spans):
        layer_self[layer] += self_s[i]
        if parent >= 0:
            # an Armijo trial value followed by the gradient at the new point
            # is an accepted step; followed by another value, a backtrack
            if (name == "objectives.grad" and spans[parent][0] == "plane2d.armijo"
                    and previous_sibling.get(parent) == "objectives.value"):
                counts["armijo_accepted"] += 1
            previous_sibling[parent] = name
        counts[name] += 1
        totals[name + ".s"] += dur[i]
        totals[name + ".self_s"] += self_s[i]
        attrs = attrs or {}
        if name.startswith("objectives.") and name[11:] in ("value", "grad"):
            flops, nbytes = attrs if isinstance(attrs, tuple) else (0, 0)
            totals["flops"] += flops
            totals["bytes"] += nbytes
            ancestors = set()
            p = parent
            while p >= 0:
                ancestors.add(spans[p][0])
                p = spans[p][4]
            for anc in ("companion.companion_point", "companion.bracket_right",
                        "plane2d.armijo", "harness.compute_reference"):
                if anc in ancestors:
                    counts[f"{anc}>{name}"] += 1
        elif name == "companion.companion_point" and "bisection_iters" in attrs:
            totals["bisection_iters"] += attrs["bisection_iters"]
            maxima["level_residual"] = max(maxima.get("level_residual", 0.0),
                                           attrs["level_residual"])
        elif name in ("plane2d.newton", "plane2d.armijo") and "residual" in attrs:
            totals[name + ".inner_iters"] += attrs["inner_iters"]
            maxima["inner_residual"] = max(maxima.get("inner_residual", 0.0),
                                           attrs["residual"])
        elif name == "solvers.run" and "solver" in attrs:
            sid = attrs["solver"]
            totals[f"solvers.{sid}.iterations"] += attrs["iterations"]
            totals[f"solvers.{sid}.self_s"] += self_s[i]
            totals["history_bytes"] += attrs["history_bytes"]
            counts["status." + attrs["status"]] += 1
        elif name in ("solvers.me_step", "solvers.gd_exact_step"):
            totals[f"solvers.{name[8:-5]}.self_s"] += self_s[i]
        elif name == "harness.csv" and "bytes" in attrs:
            totals["csv_bytes"] += attrs["bytes"]
        elif name == "harness.verify_experiment" and "report" in attrs:
            reports.append(attrs["report"])
        elif name == "cli.main" and "exit" in attrs:
            counts[f"exit.{attrs['exit']}"] += 1

    checks = 0
    failures: Counter = Counter()
    for report in reports:
        checks += len(report.rows)
        failures.update(r.name for r in report.rows if not r.passed)

    busy = totals["objectives.value.s"] + totals["objectives.grad.s"]
    armijo_values = counts["plane2d.armijo>objectives.value"]
    m = {
        "objectives.value.calls": counts["objectives.value"],
        "objectives.grad.calls": counts["objectives.grad"],
        "objectives.value.s": totals["objectives.value.s"],
        "objectives.grad.s": totals["objectives.grad.s"],
        "objectives.flops_computed": totals["flops"],
        "objectives.bytes_computed": totals["bytes"],
        "objectives.gflops": totals["flops"] / busy / 1e9 if busy > 0 else 0.0,
        "objectives.generate.s": totals["objectives.generate.s"],
        "companion.calls": counts["companion.companion_point"],
        "companion.self_s": layer_self["companion"],
        "companion.value_evals": counts["companion.companion_point>objectives.value"],
        "companion.bisection_iters": totals["bisection_iters"],
        "companion.level_residual_max": maxima.get("level_residual", 0.0),
        "companion.bracket_probes": counts["companion.bracket_right>objectives.value"],
        "plane2d.self_s": layer_self["plane2d"],
        "plane2d.newton.calls": counts["plane2d.newton"],
        "plane2d.newton.self_s": totals["plane2d.newton.self_s"],
        "plane2d.armijo.calls": counts["plane2d.armijo"],
        "plane2d.armijo.self_s": totals["plane2d.armijo.self_s"],
        "plane2d.armijo.inner_iters": totals["plane2d.armijo.inner_iters"],
        "plane2d.armijo.grad_evals": counts["plane2d.armijo>objectives.grad"],
        "plane2d.armijo.value_evals": armijo_values,
        "plane2d.armijo.accept_ratio": (counts["armijo_accepted"] / armijo_values
                                        if armijo_values else 0.0),
        "plane2d.segment.calls": counts["plane2d.segment"],
        "plane2d.inner_residual_max": maxima.get("inner_residual", 0.0),
    }
    for sid in SOLVER_IDS:
        m[f"solvers.{sid}.iterations"] = totals[f"solvers.{sid}.iterations"]
        m[f"solvers.{sid}.self_s"] = totals[f"solvers.{sid}.self_s"]
    m["solvers.history_bytes"] = totals["history_bytes"]
    for status in STATUSES:
        m[f"solvers.status.{status}"] = counts["status." + status]
    for fn in AUDIT_FUNCTIONS:
        m[f"diagnostics.{fn}.s"] = totals[f"diagnostics.{fn}.s"]
    m["diagnostics.self_s"] = layer_self["diagnostics"]
    m["diagnostics.checks"] = checks
    for row in AUDIT_ROWS:
        m[f"diagnostics.failures.{row}"] = failures[row]
    m.update({
        "harness.self_s": layer_self["harness"],
        "harness.compute_reference.s": totals["harness.compute_reference.s"],
        "harness.compute_reference.grad_evals":
            counts["harness.compute_reference>objectives.grad"],
        "harness.run_experiment.self_s": totals["harness.run_experiment.self_s"],
        "harness.csv.bytes": totals["csv_bytes"],
        "harness.csv.s": totals["harness.csv.s"],
        "cli.main.self_s": totals["cli.main.self_s"],
    })
    for code in EXIT_CODES:
        m[f"cli.exit.{code}"] = counts[f"exit.{code}"]
    m["trace.spans"] = n
    return m


SOLVER_IDS = ("me", "gd_exact", "fast_gd", "gd_l")
STATUSES = ("converged", "max_iterations", "inner_stall", "numeric_failure")
AUDIT_FUNCTIONS = ("certify_rates", "audit_orthogonality", "audit_bh_descent",
                   "audit_level_sets", "audit_dominance")
AUDIT_ROWS = ("rate_eta", "rate_eta_star", "rate_eta_bar", "global_eta_bound",
              "iterate_distance_bound", "orth_v", "orth_w", "pythagoras",
              "lipschitz_displacement", "bh_descent", "level_residual",
              "dominance")
EXIT_CODES = (0, 1, 2, 64)


def account(spans: list[list], start: int, stop: int, wall: float) -> dict:
    """Split one operation's wall time by layer and check that it adds up.

    ``spans[start:stop]`` are the spans opened during the operation.  The
    self times of all of them, summed per layer, must equal the wall time the
    caller measured around the operation; each span must also lie inside its
    parent.  Returns the per-layer split and the absolute discrepancy.
    """
    split = {layer: 0.0 for layer in LAYERS}
    child = Counter()
    for i in range(start, stop):
        name, layer, t0, t1, parent, _ = spans[i]
        if parent >= 0:
            child[parent] += t1 - t0
            if t0 < spans[parent][2] or t1 > spans[parent][3]:
                raise ValueError(f"span {name} escapes its parent {spans[parent][0]}")
    for i in range(start, stop):
        name, layer, t0, t1, _, _ = spans[i]
        split[layer] += (t1 - t0) - child[i]
    return {"split": split, "error_s": abs(sum(split.values()) - wall)}
