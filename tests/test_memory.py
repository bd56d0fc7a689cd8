"""A default run holds O(n) arrays plus one record per iterate.

Peak memory is traced around the solver call only, so the instance itself
(32 MB of matrix at n = 2000) is not counted.  Keeping every iterate would
cost 16 KB a step for ``gd_l`` at n = 2000 (48 MB over 3,000 steps) and four
more n-vectors a step for ``me``.
"""

import tracemalloc

import numpy as np

from ellipcenters import SolverConfig, generate_quadratic, run_gd_l, run_me

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
