"""Ellipcenter method for smooth, strongly convex minimization.

Each iteration pairs the current point with a companion point on the same
level set, then jumps to the minimizer of the objective over the plane
spanned by the two gradients.  The package bundles the solver, three
baselines (fixed-step and exact-linesearch gradient descent, Nesterov's
strongly convex accelerated gradient), and a diagnostics layer that checks
the method's linear-rate guarantees on every run.  The submodules hold the
building blocks: ``companion``, ``plane2d``, ``objectives``, ``solvers``,
``diagnostics``, ``harness`` and ``errors``.
"""

from .diagnostics import certify_rates, theoretical_iteration_bound
from .harness import (ExperimentSpec, compute_reference, run_experiment,
                      verify_experiment)
from .objectives import (LogRegProblem, Objective, QuadraticProblem,
                         check_gradient, generate_logreg, generate_quadratic,
                         mu_for_kappa)
from .solvers import (RunStatus, RunTrace, SolverConfig, SolverId,
                      run_fast_gd, run_gd_exact, run_gd_l, run_me)

__version__ = "0.1.0"
