"""A default run holds O(n) arrays plus ~17 B of telemetry per iterate, and
a logistic instance holds its data matrix once.

Telemetry is two floats per iterate and each cumulative count as runs of
equal per-step increments, which cost nothing while the increment stays the
same.  Peak over iterates at n = 10, run to convergence: ``gd_l`` 16.8 B,
``gd_exact`` 17.1 B, ``fast_gd`` 25.1 B and ``me`` 43.5 B (its step's two
floats and flag, and the fixed cost of a run spread over its fewer
iterates); with one byte per count increment they were 19.9, 20.3, 28.5 and
46.7 B, and with 8-byte counts 41.4, 41.9, 50.3 and 68.7 B.

Peak memory is traced around the solver call only, so the instance itself
(32 MB of matrix at n = 2000) is not counted.  Keeping every iterate would
cost 16 KB a step for ``gd_l`` at n = 2000 (48 MB over 3,000 steps) and four
more n-vectors a step for ``me``.  Each solver's peak working set is
budgeted in buffers of n floats, and for a logistic run of m floats too
(margins and data products); README's memory table lists the same budgets.
"""

import copy
import functools
import tracemalloc
import weakref

import numpy as np
import pytest

from ellipcenters import (Objective, SolverConfig, SolverId, generate_logreg,
                          generate_quadratic, run_fast_gd, run_gd_l, run_me)
from ellipcenters.solvers import RUNNERS

LIMIT_BYTES = 2_000_000
# solver: its peak in n-vectors on a quadratic, and in n- and m-vectors on a
# logistic problem
WORKING_SET = {
    "me": (9, 6, 6),
    "gd_l": (6, 5, 5),
    "gd_exact": (6, 5, 5),
    "fast_gd": (7, 5, 5),
}
# bytes per iterate that a long gd_l run may hold; README states the same
TELEMETRY_BYTES = 18
# what a 10-step run holds beside its vectors: its telemetry, its Python
# objects and the free lists they leave (2-10 KB measured)
RUN_OVERHEAD = 12_000


def traced_peak(call):
    """``(result, peak bytes allocated during call())``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(autouse=True, scope="module")
def scipy_loaded():
    """The first products import ``scipy.linalg`` and ``scipy.special``,
    which is not a run's memory."""
    generate_quadratic(2, 10.0, 0).grad(np.zeros(2))
    generate_logreg(2, 2, 10.0, 0).grad(np.zeros(2))


@functools.cache
def _generated(n: int, m: int | None):
    return generate_quadratic(n, 1e3, 0) if m is None else \
        generate_logreg(n, m, 1e4, 0)


def problem(n: int, m: int | None = None):
    """A test quadratic (``m`` None) or logistic problem that has evaluated
    nothing, so it holds no data product: a copy of one generated once."""
    return copy.copy(_generated(n, m))


def test_gd_l_keeps_no_iterates():
    f = problem(2000)
    trace, peak = traced_peak(
        lambda: run_gd_l(f, np.zeros(2000), SolverConfig(max_outer=3000)))
    assert trace.iterations == 3000
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_gd_l_telemetry_per_iterate():
    """Telemetry is a few typed columns, ~17 B an iterate; with one byte
    per count increment it took ~20 B, with 8-byte counts ~41 B, and one
    record object per iterate ~350 B."""
    f = problem(10)
    trace, peak = traced_peak(
        lambda: run_gd_l(f, np.zeros(10), SolverConfig(max_outer=20000)))
    assert trace.iterations > 10000
    assert peak <= TELEMETRY_BYTES * trace.iterations, \
        f"{peak / trace.iterations:.1f} B"


def test_last_record_reads_the_running_totals():
    """``records[-1]``, all a summary row or a benchmark reads of a run,
    comes from the counts' running totals, not from a pass over the run."""
    trace = run_gd_l(problem(10), np.zeros(10), SolverConfig(max_outer=20000))
    assert trace.iterations > 10000
    last, peak = traced_peak(lambda: trace.records[-1])
    assert last == list(trace.records)[-1]
    assert peak < 1000, f"{peak} B"


def test_gd_l_peak_on_a_long_quadratic_run():
    """gd_l from zeros on generate_quadratic(500, 1e3, 0), 14,603 steps:
    telemetry and working set peak at ~0.28 MB (~0.33 MB with one byte per
    count increment, ~0.66 MB with 8-byte counts)."""
    f = problem(500)
    trace, peak = traced_peak(lambda: run_gd_l(f, np.zeros(500)))
    assert trace.converged and trace.iterations == 14603
    assert peak <= 300_000, f"peak {peak / 1e6:.3f} MB"


def test_me_keeps_no_step_vectors():
    f = problem(500)
    trace, peak = traced_peak(lambda: run_me(f, np.zeros(500)))
    assert trace.converged and trace.iterations == 1875
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_fast_gd_keeps_no_iterates():
    """A momentum run keeps x_{k-1} and its data product; nothing grows per
    step."""
    f = problem(2000)
    trace, peak = traced_peak(lambda: run_fast_gd(f, np.zeros(2000)))
    assert trace.converged
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_logistic_instance_holds_one_data_matrix():
    """The squared-norm sum behind mu and lip forms no copy of the data."""
    p, peak = traced_peak(lambda: generate_logreg(2000, 1000, 1e3, 0))
    assert peak < 1.1 * p.a.nbytes, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("sid", sorted(WORKING_SET))
@pytest.mark.parametrize("n, m", [(2000, None), (20000, 100), (100, 20000)])
def test_working_set_budget(sid, n, m):
    """Peak of a 10-step run within the solver's budget of n-vectors (and
    m-vectors), at sizes where one vector outweighs the run's overhead: a
    budget one vector short fails.  A first, untraced run fills the free
    lists."""
    quad_n, log_n, log_m = WORKING_SET[sid]
    budget = 8 * (quad_n * n if m is None else log_n * n + log_m * m)
    run, cfg, x1 = RUNNERS[SolverId(sid)], SolverConfig(max_outer=10), \
        np.zeros(n)
    run(problem(n, m), x1, cfg)
    f = problem(n, m)
    trace, peak = traced_peak(lambda: run(f, x1, cfg))
    assert trace.iterations >= 2
    assert budget - 8 * max(n, m or 0) < peak <= budget + RUN_OVERHEAD, \
        f"peak {peak} B, budget {budget} B"


def test_a_step_s_vectors_die_before_the_next_step():
    """Step k's vectors, once observed, are released before step k + 1
    evaluates anything: its StepVectors, v_k, w_k and the displacement."""
    p = generate_quadratic(20, 1e2, 0)
    alive = []
    last_step = ()

    def observe(k, x, f_x, g, step):
        nonlocal last_step
        last_step = () if step is None else [
            weakref.ref(obj) for obj in (step, step.v, step.w, step.dx)]

    def grad(x):
        alive.append([ref() is not None for ref in last_step])
        return p.grad(x)

    f = Objective(p.dim, p.mu, p.lip, p.value, grad)
    trace = run_me(f, np.zeros(p.dim), SolverConfig(max_outer=5),
                   observe=observe)
    assert trace.iterations == 5 and len(alive) > 10
    assert not any(map(any, alive))
