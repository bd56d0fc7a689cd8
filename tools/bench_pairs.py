#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs and write ``BENCH_<label>.json``
at the repository root.

    python tools/bench_pairs.py BASE HEAD LABEL [--seed 0]

BASE and HEAD are git revisions.  The committed files of each are exported
with ``git archive`` into a temporary directory of its own, so each side
runs the ``perfbench/run.py`` and ``src/`` of its revision and the
repository itself is left as it is.  For every workload of
``BENCHMARK.json`` the script runs 10 pairs of ``perfbench/run.py --workload
W --seed S --seconds T --trace 0``, T being the file's ``run_seconds``, one
run per side, BASE first in even pairs and HEAD first in odd ones: a run can
be faster for coming second, and alternating spreads that over both sides.

The file records, per workload and end-to-end metric of ``BENCHMARK.json``,
each side's median and quartiles over the pairs and the number of pairs in
which HEAD was better, worse or equal; per pair, the order and both sides'
metrics and failed operations; and the git heads and the ``environment``
line that each side's first run printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def export(rev: str, dest: Path) -> str:
    """Write the committed files of ``rev`` to ``dest``; return its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its last-line JSON result,
    with the ``environment`` line it printed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench/run.py in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(line for line in lines if line.startswith("environment "))
    result["environment"] = json.loads(env.split(" ", 1)[1])
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], gated: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and HEAD's wins."""
    out = {}
    for metric in gated:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("base", "head")}
        diffs = [sign * (b - h) for b, h in zip(sides["base"], sides["head"])]
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "base": quartiles(sides["base"]),
                     "head": quartiles(sides["head"]),
                     "head_better": sum(d > 0 for d in diffs),
                     "head_worse": sum(d < 0 for d in diffs),
                     "equal": sum(d == 0 for d in diffs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("head")
    p.add_argument("label")
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds, gated = spec["run_seconds"], spec["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in ("base", "head")}
        heads = {side: export(getattr(args, side), tree)
                 for side, tree in trees.items()}
        report = {"label": args.label,
                  "revisions": {side: {"rev": getattr(args, side),
                                       "commit": heads[side]}
                                for side in trees},
                  "seed": args.seed, "seconds": seconds,
                  "workloads": {}, "environment": {}}
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for k in range(PAIRS):
                order = ("base", "head") if k % 2 == 0 else ("head", "base")
                pair = {"order": list(order)}
                for side in order:
                    result = bench(trees[side], workload, args.seed, seconds)
                    env = result.pop("environment")
                    report["environment"].setdefault(side, env)
                    pair[side] = result
                    print(f"{workload} pair {k} {side}: "
                          f"{json.dumps(result['metrics'])}", flush=True)
                pairs.append(pair)
            report["workloads"][workload] = {
                "metrics": summarize(pairs, gated),
                "failed": {side: [p[side]["failed"] for p in pairs]
                           for side in trees},
                "pairs": pairs}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
