"""Ellipcenter method for smooth, strongly convex minimization.

Each iteration pairs the current point with a companion point on the same
level set, then jumps to the minimizer of the objective over the plane
spanned by the two gradients.  The package bundles the solver, three
baselines (fixed-step and exact-linesearch gradient descent, Nesterov's
strongly convex accelerated gradient), and a diagnostics layer that checks
the method's linear-rate guarantees on every run.
"""

from .companion import CompanionResult, bracket_right, companion_point
from .diagnostics import (AuditReport, RateCertificate, audit_bh_descent,
                          audit_dominance, audit_level_sets,
                          audit_orthogonality, certify_rates,
                          contraction_ratios, theoretical_iteration_bound)
from .errors import DegeneratePlaneError, InnerStallError, NumericalFailureError
from .harness import (ExperimentResult, ExperimentSpec, ReferenceSolution,
                      build_problem, compute_reference, run_experiment,
                      verify_experiment)
from .objectives import (CountingObjective, LogRegProblem, Objective,
                         QuadraticProblem, central_difference_gradient,
                         check_gradient, generate_logreg, generate_quadratic,
                         load_logreg, load_quadratic, mu_for_kappa,
                         save_logreg, save_quadratic)
from .plane2d import (PlaneSolution, PlaneSubproblem, segment_minimizer,
                      solve_gd_armijo, solve_newton_quadratic)
from .solvers import (IterateRecord, RunStatus, RunTrace, SolverConfig,
                      SolverId, StepVectors, run_fast_gd, run_gd_exact,
                      run_gd_l, run_me)

__version__ = "0.1.0"
