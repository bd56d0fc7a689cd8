#!/usr/bin/env python3
"""Write the package's solver outputs to a directory, for a bit-for-bit
comparison of two versions of the package.

    PYTHONPATH=<checkout A>/src python tools/compare_outputs.py out_a
    PYTHONPATH=<checkout B>/src python tools/compare_outputs.py out_b
    diff -r out_a out_b

``runs.txt`` holds, for every solver on six pinned instances (two of them
problems wrapped as a plain ``Objective``), the status, the record count
and SHA-256 digests of every record field (floats as hex) and of the
``x_final`` bytes, for a run from the origin and for 40-step
restarts from a 5-step run's own ``x_final``, from a writable copy of it and
from a read-only copy.  ``reference.txt`` holds ``compute_reference``'s
method, ``f_star``, ``residual`` and ``x_star`` digest on three logistic and
three quadratic instances.  ``logreg/`` and ``quadratic/`` hold the files of
``verify --out`` (n = 300, kappa = 1e3, seed 3) and its exit code in
``exit.txt``; the summary files, which hold wall times, are removed.  Two
versions that compute the same arithmetic write identical trees, when run
under the same BLAS build and thread count: numpy's QR and products and
scipy's ``dsymv`` round differently on more threads.  ``env.txt`` records
the BLAS thread variables and the numpy and scipy versions, so that a diff
across settings shows its cause.
"""

import hashlib
import os
import sys
from pathlib import Path

import numpy as np
import scipy

import ellipcenters as ec
from ellipcenters.cli import main
from ellipcenters.harness import compute_reference
from ellipcenters.solvers import RUNNERS

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INSTANCES = {
    "quad500_s0": lambda: ec.generate_quadratic(500, 1e3, 0),
    "quad500_s1": lambda: ec.generate_quadratic(500, 1e3, 1),
    "quad30_s4": lambda: ec.generate_quadratic(30, 1e2, 4),
    "logreg200_s0": lambda: ec.generate_logreg(200, 100, 1e3, 0),
    "quad30_s4_plain": lambda: plain(ec.generate_quadratic(30, 1e2, 4)),
    "logreg200_s0_plain": lambda: plain(ec.generate_logreg(200, 100, 1e3, 0)),
}


def plain(p):
    """``p`` as a plain Objective, whose model evaluates f in full."""
    return ec.Objective(p.dim, p.mu, p.lip, p.value, p.grad)


def digest(trace) -> str:
    """Status, record count, and digests of the records and of x_final."""
    h = hashlib.sha256()
    for r in trace.records:
        h.update(repr(tuple((k, v.hex() if isinstance(v, float) else v)
                            for k, v in vars(r).items())).encode())
    x_final = hashlib.sha256(trace.x_final.tobytes()).hexdigest()
    return f"{trace.status.value} {len(trace.records)} {h.hexdigest()} {x_final}"


def write_env(out: Path) -> None:
    """The settings the outputs' bits depend on."""
    lines = [f"{var}={os.environ.get(var, '')}" for var in THREAD_VARS]
    lines += [f"numpy {np.__version__}", f"scipy {scipy.__version__}"]
    (out / "env.txt").write_text("\n".join(lines) + "\n")


def write_runs(out: Path) -> None:
    lines = []
    for name, make in INSTANCES.items():
        for sid, run in RUNNERS.items():
            f = make()
            lines.append(f"{name} {sid.value} {digest(run(f, np.zeros(f.dim)))}")
            x = run(f, np.zeros(f.dim), ec.SolverConfig(max_outer=5)).x_final
            read_only = x.copy()
            read_only.setflags(write=False)
            for kind, x1 in (("own", x), ("writable", x.copy()),
                             ("read_only", read_only)):
                trace = run(f, x1, ec.SolverConfig(max_outer=40))
                lines.append(f"{name} {sid.value} restart_{kind} {digest(trace)}")
    (out / "runs.txt").write_text("\n".join(lines) + "\n")


def write_references(out: Path) -> None:
    problems = ([(f"logreg2000_s{s}", ec.generate_logreg(2000, 1000, 1e3, s))
                 for s in (240, 241, 242)]
                + [(f"quad500_s{s}", ec.generate_quadratic(500, 1e3, s))
                   for s in (0, 1, 2)])
    lines = []
    for name, f in problems:
        r = compute_reference(f)
        x_star = hashlib.sha256(r.x_star.tobytes()).hexdigest()
        lines.append(f"{name} {r.method} {r.f_star.hex()} {r.residual.hex()} "
                     f"{x_star}")
    (out / "reference.txt").write_text("\n".join(lines) + "\n")


def write_verify(out: Path) -> None:
    for problem in ("logreg", "quadratic"):
        d = out / problem
        code = main(["verify", "--problem", problem, "--n", "300", "--kappa",
                     "1e3", "--seed", "3", "--out", str(d)])
        (d / "exit.txt").write_text(f"{code}\n")
        (d / "summary.csv").unlink()  # wall times vary between runs
        (d / "summary.txt").unlink()


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: compare_outputs.py <outdir>")
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    write_env(out)
    write_runs(out)
    write_references(out)
    write_verify(out)
