#!/usr/bin/env python3
"""Per-step time of the package's quadratic runs against bare numpy loops.

Each loop makes the same ``dsymv`` products, dots and carried updates as the
package's step (a refresh every ``REFRESH_EVERY`` carried updates), and must
reach the package's step count and its ``x_final`` bit for bit.  Run with the
package on ``PYTHONPATH``:

    PYTHONPATH=src python tools/bare_loops.py

It prints, for ``generate_quadratic(500, 1e3, s)``, s = 0-2, and the solvers
``gd_exact``, ``me`` and ``gd_l``, the steps, µs per step (best of 3, package
and loop interleaved) and the package/loop ratio.  ``loop(p, solver)`` can be
imported on its own.
"""

import math
import time

import numpy as np
from scipy.linalg.blas import dsymv

import ellipcenters as ec
from ellipcenters.objectives import REFRESH_EVERY


def loop(p, solver, eps=1e-6):
    """``solver``'s run on the quadratic ``p`` from the origin, as a bare
    loop: returns the step count and ``x_final``."""
    at, b, c = p.a_matrix.T, p.b, p.c
    x = np.zeros(p.dim)
    ax = dsymv(1.0, at, x)
    carried = 0
    steps = 0
    fx = float(0.5 * x.dot(ax) - b.dot(x) + c)
    g = ax - b

    def carry(p_new, *terms):  # A p_new, carried from ax and the A d_i of the step
        if carried + 1 >= REFRESH_EVERY:
            return dsymv(1.0, at, p_new)
        (z0, a0), *rest = terms
        q = z0 * a0
        q += ax
        for zi, ai in rest:
            q += zi * ai
        return q

    while math.sqrt(float(g.dot(g))) > eps:
        if solver == "gd_l":
            x = x - g / p.lip
            ax = dsymv(1.0, at, x)
        else:
            av = dsymv(1.0, at, g)
            vv = float(g.dot(g))
            vav = float(av.dot(g))
            li = False
            if solver == "me":
                t = 2.0 * vv / vav
                s = (fx + -t * (vv + 0.5 * (vav * -t)) - fx) / max(1.0, abs(fx))
                assert abs(s) <= 1e-12, "the companion search would probe again"
                y = -t * g
                y += x
                w = carry(y, (-t, av)) - b
                aw = dsymv(1.0, at, w)
                vw, ww = float(w.dot(g)), float(w.dot(w))
                vaw, waw = float(aw.dot(g)), float(aw.dot(w))
                li = (vv * ww > 0 and min(1.0, max(0.0, (vv * ww - vw * vw) / (vv * ww)))
                      >= 1e-12)
                det = vav * waw - vaw * vaw
                li = li and math.isfinite(det) and det > 1e-14 * abs(vav * waw)
            if li:
                i11, i12, i22 = waw / det, -vaw / det, vav / det
                al = be = 0.0
                for _ in range(2):
                    r1 = vv + (vav * al + vaw * be)
                    r2 = vw + (vaw * al + waw * be)
                    al -= i11 * r1 + i12 * r2
                    be -= i12 * r1 + i22 * r2
                x_new = al * g
                x_new += x
                x_new += be * w
                ax = carry(x_new, (al, av), (be, aw))
            else:
                z = -vv / vav
                x_new = z * g
                x_new += x
                ax = carry(x_new, (z, av))
            x = x_new
            carried = 0 if carried + 1 >= REFRESH_EVERY else carried + 1
        fx = float(0.5 * x.dot(ax) - b.dot(x) + c)
        g = ax - b
        steps += 1
    return steps, x


if __name__ == "__main__":
    runs = {"gd_exact": ec.run_gd_exact, "me": ec.run_me, "gd_l": ec.run_gd_l}
    for s in range(3):
        p = ec.generate_quadratic(500, 1e3, s)
        for solver, run in runs.items():
            best_lib = best_loop = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                trace = run(p, np.zeros(p.dim))
                t1 = time.perf_counter()
                steps, x = loop(p, solver)
                t2 = time.perf_counter()
                assert (steps == trace.iterations
                        and x.tobytes() == trace.x_final.tobytes()), solver
                best_lib, best_loop = min(best_lib, t1 - t0), min(best_loop, t2 - t1)
            print(f"s={s} {solver:8} steps {steps:6}  package {1e6 * best_lib / steps:6.1f} µs"
                  f"  loop {1e6 * best_loop / steps:6.1f} µs  ratio {best_lib / best_loop:.2f}")
