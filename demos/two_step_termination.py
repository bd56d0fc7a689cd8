#!/usr/bin/env python3
"""Two-dimensional problems collapse in at most two ellipcenter steps.

When the gradient at the iterate and the gradient at its level-set
companion are linearly independent in the plane, the search plane is the
whole space, so the plane minimizer IS the global minimizer.  The only
way that can fail is the degenerate parallel-gradient case, where the
plane shrinks to the gradient line and the step is the exact-linesearch
step.  On a quadratic that case means the gradient is an eigenvector of A,
and the linesearch lands on the minimizer.
"""

import numpy as np

from ellipcenters import (QuadraticProblem, generate_logreg,
                          generate_quadratic, run_me)

print("--- random 2-D quadratics, started at the origin ---")
for seed in range(5):
    q = generate_quadratic(2, 10.0 * (seed + 1), seed)
    trace = run_me(q, np.zeros(2))
    rec = trace.records[-1]
    print(f"seed {seed}: kappa={q.lip:5.1f}  steps={trace.iterations}  "
          f"|grad| at end = {rec.grad_norm:.2e}")

print()
print("--- 2-D logistic instances ---")
for seed in range(5):
    p = generate_logreg(2, 1, 10.0, seed)
    trace = run_me(p, np.zeros(2))
    print(f"seed {seed}: steps={trace.iterations}  "
          f"|grad| at end = {trace.records[-1].grad_norm:.2e}")

print()
print("--- the degenerate case: an isotropic bowl ---")
# Every level set is a sphere, so the companion gradient is exactly
# anti-parallel and the plane shrinks to the gradient line; the exact
# linesearch along it lands on the center.
q = QuadraticProblem(np.eye(2), np.zeros(2))
trace = run_me(q, np.array([1.0, 0.0]))
step = trace.records[0]
print(f"step flagged independent? {step.li_flag}   "
      f"steps={trace.iterations}   x_final={trace.x_final}")
