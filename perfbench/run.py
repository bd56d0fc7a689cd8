"""Benchmark of the ellipcenters solver stack.

Measures, per workload, the warm wall time of the workload's operations to
||grad f|| <= eps, the value and gradient evaluations they make, peak traced
memory and the fresh-process set-up time; a traced run splits the time and
counts by module.  Run from the repository root:

    python3 perfbench/run.py --workload logreg-solve --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  A fuller record, with the environment, every sample
and (traced) the spans of the last traced pass, goes to ``perfbench/out/``.

The library is imported from ``src/`` of this checkout and nowhere else.
Exit codes: 0 done, 2 the library is missing, 3 a benchmark invariant broke
(counts that drift between repeats, or spans that do not add up).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import envinfo
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
# tracemalloc slows a pass by up to 1.5x, so peak memory is taken on the first
# MEM_SETS instance sets only; the traced mode likewise uses TRACED_SETS.
MEM_SETS = 2
TRACED_SETS = 2
# Spans must account for an operation's wall time to within this much.
ACCOUNT_ABS_S = 2e-3
ACCOUNT_REL = 2e-3

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import ellipcenters
from workloads import generate_instances
generate_instances(ellipcenters, sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class BenchmarkError(Exception):
    """The measurement itself is broken; no result may be reported."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["logreg-solve", "quad-solve", "verify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_library():
    """Import ``ellipcenters`` from this checkout's ``src/``, or fail."""
    sys.path.insert(0, str(SRC))
    import ellipcenters
    if SRC.resolve() not in Path(ellipcenters.__file__).resolve().parents:
        raise FileNotFoundError(f"ellipcenters was imported from {ellipcenters.__file__}")
    return ellipcenters


def tail(samples: list[float]):
    """Highest order statistic with at least ten samples beyond it, as
    ``(percentile, value)``; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples: list[float], unit: str) -> str:
    t = tail(samples)
    tail_text = (f"p{t[0]:.0f} {t[1]:.4f} {unit}" if t
                 else "no percentile has 10 samples beyond it")
    return f"median {statistics.median(samples):.4f} {unit}, {tail_text}, n={len(samples)}"


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-process ``import ellipcenters`` plus the workload's instance
    generation (none for verify, which generates inside each call)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
                              workload, str(seed)],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(ops, set_idx: int, inst, recorder=None, mem=False) -> list[dict]:
    """Run every operation of one instance set once; time, count and check each."""
    results = []
    for op in ops:
        op.prepare()
        if mem:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        v0, g0 = inst.value_calls, inst.grad_calls
        first_span = len(recorder.spans) if recorder else 0
        t0 = time.perf_counter()
        raw = op.call()
        wall = time.perf_counter() - t0
        res = {"set": set_idx, "op": op.name, "wall": wall}
        if mem:
            res["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if recorder is not None:
            res["spans"] = (first_span, len(recorder.spans))
        outcome = op.check(raw)
        del raw
        res.update(failed=outcome.failed, wrong=outcome.wrong, note=outcome.note,
                   counts=dict(outcome.counts, value_evals=inst.value_calls - v0,
                               grad_evals=inst.grad_calls - g0))
        results.append(res)
    return results


def check_counts(passes: list[list[dict]]) -> None:
    """Iteration and evaluation counts must repeat exactly within a run."""
    first = {}
    for results in passes:
        for r in results:
            key = (r["set"], r["op"])
            if first.setdefault(key, r["counts"]) != r["counts"]:
                raise BenchmarkError(f"{r['op']} (set {r['set']}): counts drifted "
                                     f"between repeats: {first[key]} then {r['counts']}")


def pass_wall(results: list[dict]) -> float:
    return sum(r["wall"] for r in results)


def per_set_mean(passes: list[list[dict]], value) -> float:
    """Mean over instance sets of the median of ``value(pass)`` within each set."""
    by_set: dict[int, list[float]] = {}
    for results in passes:
        by_set.setdefault(results[0]["set"], []).append(value(results))
    return statistics.fmean(statistics.median(v) for v in by_set.values())


def repeat_cycles(seconds: float, min_cycles: int, cycle) -> None:
    """Run ``cycle`` until another one would overrun ``seconds``."""
    start = time.perf_counter()
    done = 0
    while True:
        cycle()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_cycles and elapsed * (done + 1) / done > seconds:
            return


def end_to_end(args, inst, sets, setup):
    tracemalloc.start()
    try:
        mem = [run_pass(ops, i, inst, mem=True) for i, ops in enumerate(sets[:MEM_SETS])]
    finally:
        tracemalloc.stop()
    timed: list[list[dict]] = []
    repeat_cycles(args.seconds, -(-MIN_PASSES // len(sets)),
                  lambda: timed.extend(run_pass(ops, i, inst) for i, ops in enumerate(sets)))
    check_counts(mem + timed)

    def evals(kind):
        return statistics.fmean(sum(r["counts"][kind] for r in p) for p in timed[:len(sets)])

    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (per_set_mean(timed, pass_wall), "s"),
        "grad_evals": (evals("grad_evals"), "count"),
        "peak_mem_mb": (statistics.fmean(max(r["peak_bytes"] for r in p) for p in mem) / 1e6,
                        "MB"),
    }
    pass_label = "verify_s" if args.workload == "verify" else "pass_s"
    lines = [f"{'setup_s':<28} {describe(setup, 's')}",
             f"{pass_label:<28} {describe([pass_wall(p) for p in timed], 's')}"]
    op_samples = {}
    for r in (r for p in timed for r in p):
        op_samples.setdefault(r["op"], []).append(r["wall"])
    for name, samples in op_samples.items():
        kind, what = name.split(".")
        lines.append(f"{kind + '_s.' + what:<28} {describe(samples, 's')}")
    lines.append(f"{'grad_evals':<28} {metrics['grad_evals'][0]:.1f} per pass")
    lines.append(f"{'value_evals':<28} {evals('value_evals'):.1f} per pass")
    for name in op_samples:
        peak = statistics.fmean(r["peak_bytes"] for p in mem for r in p if r["op"] == name)
        lines.append(f"{'peak_mem_mb.' + name:<28} {peak / 1e6:.3f} MB")
    samples = {"setup_s": setup, "ops": op_samples}
    return metrics, mem + timed, lines, samples


def per_layer(args, inst, sets, gen_s):
    sets = sets[:TRACED_SETS]
    untraced, traced, recorders = [], [], []

    def cycle():
        for i, ops in enumerate(sets):
            untraced.append(run_pass(ops, i, inst))
            rec = tracing.Recorder()
            with inst.tracing(rec):
                traced.append(run_pass(ops, i, inst, recorder=rec))
            recorders.append(rec)

    repeat_cycles(args.seconds, -(-MIN_TRACED_PAIRS // len(sets)), cycle)
    check_counts(untraced + traced)

    worst = 0.0
    splits = {}
    for results, rec in zip(traced, recorders):
        for r in results:
            acc = tracing.account(rec.spans, *r["spans"], r["wall"])
            if acc["error_s"] > ACCOUNT_ABS_S + ACCOUNT_REL * r["wall"]:
                raise BenchmarkError(
                    f"{r['op']}: layer self times sum to "
                    f"{sum(acc['split'].values()):.6f} s, wall {r['wall']:.6f} s")
            worst = max(worst, acc["error_s"])
            splits.setdefault(r["op"], []).append(acc["split"])

    summaries = [tracing.summarize(rec.spans) for rec in recorders]
    metrics = {}
    for key in summaries[0]:
        values = [s[key] for s in summaries]
        metrics[key] = max(values) if key.endswith("_max") else statistics.fmean(values)
    metrics["objectives.generate.s"] += gen_s
    metrics["trace.overhead_s"] = (per_set_mean(traced, pass_wall)
                                   - per_set_mean(untraced, pass_wall))
    metrics["trace.accounting_err_s"] = worst
    metrics["trace.unmeasured"] = len(inst.unmeasured)

    lines = []
    for op, op_splits in splits.items():
        mean = {layer: statistics.fmean(s[layer] for s in op_splits)
                for layer in tracing.LAYERS}
        parts = ", ".join(f"{layer} {v:.4f}" for layer, v in mean.items() if v > 0)
        lines.append(f"{op:<16} self time by layer (s): {parts}")
    for target in inst.unmeasured:
        lines.append(f"unmeasured: {target} not found")
    spans = recorders[-1].spans
    t_origin = spans[0][2] if spans else 0.0
    span_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps(
        [[s[0], s[2] - t_origin, s[3] - t_origin, s[4]] for s in spans]))
    lines.append(f"spans of the last traced pass written to {span_file.relative_to(ROOT)}")
    return ({k: (v, unit_of(k)) for k, v in metrics.items()}, untraced + traced, lines,
            {"splits": splits})


def unit_of(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("bytes") or key.endswith("bytes_computed"):
        return "B"
    if key == "objectives.flops_computed":
        return "flop"
    if key == "objectives.gflops":
        return "GFLOP/s"
    if key == "plane2d.inner_residual_max":
        return "norm"
    if key.endswith(("_max", "accept_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    envinfo.cap_blas_threads(envinfo.nproc())
    try:
        if not (SRC / "ellipcenters" / "__init__.py").is_file():
            raise FileNotFoundError(f"no ellipcenters package under {SRC}")
        # set-up is timed before this process loads numpy, so that the
        # children do not compete with its BLAS threads
        setup = None if args.trace else measure_setup(args.workload, args.seed)
        ec = import_library()
    except (FileNotFoundError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", getattr(exc, "stderr", None) or "", file=sys.stderr)
        return 2
    import workloads   # loads numpy, so only after the thread cap

    env = envinfo.record(ROOT, SRC, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        with tracing.Instrument() as inst:
            run_pass(workloads.build_warmup_ops(ec, args.workload, OUT), -1, inst)
            gen = tracing.Recorder()
            with inst.tracing(gen):
                instances = workloads.generate_instances(ec, args.workload, args.seed)
            sets = workloads.build_passes(ec, args.workload, args.seed, instances, OUT)
            if args.trace:
                gen_s = (sum(s[3] - s[2] for s in gen.spans if s[0] == "objectives.generate")
                         / max(len(instances), 1))   # per instance set, like a pass
                metrics, passes, lines, samples = per_layer(args, inst, sets, gen_s)
            else:
                metrics, passes, lines, samples = end_to_end(args, inst, sets, setup)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3

    results = [r for p in passes for r in p]
    attempted = len(results)
    failed = sum(r["failed"] for r in results)
    wrong = [r for r in results if r["wrong"]]
    notes = sorted({f"{r['op']}: {r['note']}" for r in results if r["failed"]})

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"failed_frac  {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for note in notes:
        print(f"failure      {note}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    record = {"environment": env, "workload": args.workload, "trace": args.trace,
              "samples": samples, "notes": notes,
              "counts": {f"set{r['set']}.{r['op']}": r["counts"] for p in passes for r in p},
              "metrics": {k: v for k, (v, _) in metrics.items()}}
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
