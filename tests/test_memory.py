"""A default run holds O(n) arrays plus one record per iterate, and a
logistic instance holds its data matrix once.

Peak memory is traced around the solver call only, so the instance itself
(32 MB of matrix at n = 2000) is not counted.  Keeping every iterate would
cost 16 KB a step for ``gd_l`` at n = 2000 (48 MB over 3,000 steps) and four
more n-vectors a step for ``me``.
"""

import tracemalloc

import numpy as np

from ellipcenters import (SolverConfig, generate_logreg, generate_quadratic,
                          run_fast_gd, run_gd_l, run_me)

LIMIT_BYTES = 2_000_000


def traced_peak(call):
    """``(result, peak bytes allocated during call())``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_gd_l_keeps_no_iterates():
    f = generate_quadratic(2000, 1e3, 0).objective()
    trace, peak = traced_peak(
        lambda: run_gd_l(f, np.zeros(2000), SolverConfig(max_outer=3000)))
    assert trace.iterations == 3000
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_me_keeps_no_step_vectors():
    f = generate_quadratic(500, 1e3, 0).objective()
    trace, peak = traced_peak(lambda: run_me(f, np.zeros(500)))
    assert trace.converged and trace.iterations == 1875
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_fast_gd_keeps_no_iterates():
    """A momentum run keeps x_{k-1}, and its problem one more data product;
    nothing grows per step."""
    f = generate_quadratic(2000, 1e3, 0).objective()
    trace, peak = traced_peak(lambda: run_fast_gd(f, np.zeros(2000)))
    assert trace.converged
    assert peak < LIMIT_BYTES, f"peak {peak / 1e6:.2f} MB"


def test_logistic_instance_holds_one_data_matrix():
    """The squared-norm sum behind mu and lip forms no copy of the data."""
    p, peak = traced_peak(lambda: generate_logreg(2000, 1000, 1e3, 0))
    assert peak < 1.1 * p.a.nbytes, f"peak {peak / 1e6:.2f} MB"
