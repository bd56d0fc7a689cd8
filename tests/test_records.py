"""``RunTrace.records``: a read-only sequence of ``IterateRecord`` kept as
typed columns, equal record by record to what a run observed."""

import dataclasses
import gc
import math
import random
from itertools import accumulate

import numpy as np
import pytest

from ellipcenters import generate_quadratic
from ellipcenters.diagnostics import contraction_ratios
from ellipcenters.harness import read_trace_csv, write_trace_csv
from ellipcenters.solvers import (RUNNERS, IterateRecord, IterateRecords,
                                  SolverId, run_me)

FIELDS = [f.name for f in dataclasses.fields(IterateRecord)]
STEP_FIELDS = ("t_k", "sin2_theta", "li_flag")


@pytest.fixture(scope="module")
def quadratic():
    return generate_quadratic(30, 1e2, 4)


@pytest.fixture(scope="module")
def traces(quadratic):
    return {sid: RUNNERS[sid](quadratic, np.zeros(30)) for sid in RUNNERS}


def test_indexing_slicing_and_iteration(traces):
    records = traces[SolverId.ME].records
    listed = list(records)
    n = len(records)
    assert n == len(listed) > 5
    assert all(isinstance(r, IterateRecord) for r in listed)
    assert [r.k for r in listed] == list(range(1, n + 1))
    assert records[-1] == listed[-1] == records[n - 1]
    assert records[-n] == listed[0]
    assert records[1:4] == listed[1:4]
    assert records[::-3] == listed[::-3]
    assert records[:-1] == listed[:-1]
    assert records[n:] == []
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            records[i]
    with pytest.raises(TypeError):
        records[0] = listed[0]


def test_records_compare_equal_to_a_list_of_records(traces):
    records = traces[SolverId.ME].records
    listed = list(records)
    assert records == listed and listed == records
    assert records == tuple(listed)
    assert records != listed[:-1]
    changed = listed[:]
    changed[2] = dataclasses.replace(changed[2], f_val=changed[2].f_val + 1.0)
    assert records != changed and changed != records
    assert records != "not records"


@pytest.mark.parametrize("other", [None, 5, {1, 2}])
def test_records_leave_a_non_sequence_comparison_to_it(traces, other):
    records = traces[SolverId.ME].records
    assert records.__eq__(other) is NotImplemented
    assert records != other and not records == other


@pytest.mark.parametrize("sid", list(RUNNERS), ids=lambda s: s.value)
def test_columns_match_the_records(traces, sid):
    records = traces[sid].records
    for name in FIELDS:
        assert records.column(name) == [getattr(r, name) for r in records]


def test_step_fields_are_none_without_a_step(traces):
    me = traces[SolverId.ME].records
    assert all(me[i].li_flag in (True, False) for i in range(len(me) - 1))
    assert all(isinstance(r.t_k, float) for r in me[:-1])
    assert all(getattr(me[-1], name) is None for name in STEP_FIELDS)
    for sid in (SolverId.GD_L, SolverId.GD_EXACT, SolverId.FAST_GD):
        for rec in traces[sid].records:
            assert all(getattr(rec, name) is None for name in STEP_FIELDS)


def test_a_step_after_a_stepless_iterate_is_refused():
    """Step columns hold one entry per step from the first iterate on, so
    a step written after an iterate that has none, or written twice,
    raises ``ValueError`` and leaves the columns as they were."""
    records = IterateRecords(outer_grads=2)
    records.append(0.0, 1.0, 0, 0, 0)
    records.set_step(0.5, math.nan, True)
    with pytest.raises(ValueError):
        records.set_step(0.25, 0.5, False)
    for i in (1, 2):
        records.append(float(i), 1.0, i, i, 0)
    with pytest.raises(ValueError):
        records.set_step(0.25, 0.5, False)
    assert [r.li_flag for r in records] == [True, None, None]
    assert [r.t_k for r in records] == [0.5, None, None]
    assert records.column("li_flag") == [True, None, None]


def test_trace_csv_forms_ratios_from_f_star(tmp_path, quadratic, traces):
    """A trace written straight after its run carries every step's
    contraction ratio, formed from the f* it is given; the records stay
    as the run left them."""
    trace = run_me(quadratic, np.zeros(30))
    f_star = trace.records[-1].f_val  # so the last gap, 0, has no ratio
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, f_star, path)
    records, gaps, ratios = read_trace_csv(path)
    expected = contraction_ratios(trace, f_star)
    assert ratios == expected + [None]
    assert None in expected and any(r is not None for r in expected)
    assert records == trace.records == traces[SolverId.ME].records
    assert gaps == [r.f_val - f_star for r in trace.records]


def test_count_increments_cross_every_width():
    """Counts are kept as per-step increments; steps of 256, 65,536 and 2**40
    do not fit a byte and widen the column, and every read gives back the
    cumulative counts."""
    totals = list(accumulate([0, 1, 255, 256, 65_536, 2**40, 0, 1]))
    records = IterateRecords()
    for i, total in enumerate(totals):
        records.append(float(i), 1.0, total, 2 * total, total + i)
    counts = {"grad_evals_total": totals,
              "value_evals_total": [2 * t for t in totals],
              "restricted_evals_total": [t + i for i, t in enumerate(totals)]}
    expected = [IterateRecord(i + 1, float(i), 1.0, grad_evals_outer=i,
                              **{name: col[i] for name, col in counts.items()})
                for i in range(len(totals))]
    for name, col in counts.items():
        assert records.column(name) == col
    assert list(records) == expected
    assert records == expected and expected == records
    n = len(expected)
    for i in range(-n, n):
        assert records[i] == expected[i], i
    assert records[-1] == expected[-1]
    assert list(reversed(records)) == expected[::-1]
    assert [records.index(r) for r in expected] == list(range(n))
    assert records.index(expected[-2], -3) == n - 2
    with pytest.raises(ValueError):
        records.index(expected[3], 4)
    for s in (slice(2, 6), slice(None, None, -1), slice(-2, 1, -2),
              slice(1, None, 3), slice(5, 2), slice(None, None, -4),
              slice(2, 5, -1), slice(n, None, -1), slice(-n - 5, 3)):
        assert records[s] == expected[s], s
    assert records != expected[:-1] + [dataclasses.replace(
        expected[-1], grad_evals_total=totals[-1] + 1)]


def increment_stream(rng, length):
    """Per-step increments of one count, in stretches: constant, changing at
    every step, zeros, past one byte (which widens the column) and longer
    than a run's 255-iterate cap."""
    steps = []
    while len(steps) < length:
        kind, size = rng.randrange(5), rng.randint(1, 40)
        if kind == 0:
            steps += [rng.randint(0, 5)] * size
        elif kind == 1:
            steps += [rng.randint(0, 255) for _ in range(size)]
        elif kind == 2:
            steps += [0] * size
        elif kind == 3:
            steps += [rng.choice((256, 65_536, 2**40)) for _ in range(size)]
        else:
            steps += [rng.randint(0, 3)] * rng.randint(256, 1200)
    return steps[:length]


def count_bytes(records):
    """Bytes the closed runs of each count column hold, in order."""
    return [runs.itemsize * len(runs) for runs in map(
        records._cols.get, ("grad_evals_total", "value_evals_total",
                            "restricted_evals_total"))]


@pytest.mark.parametrize("seed", range(8))
def test_count_runs_match_a_list_model(seed):
    """Counts are kept as runs of equal increments; seeded increment streams
    read back as a plain list of records built from their running sums."""
    rng = random.Random(seed)
    n = rng.randint(1, 3000)
    counts = [list(accumulate(increment_stream(rng, n))) for _ in range(3)]
    records, expected = IterateRecords(outer_grads=2), []
    for i in range(n):
        records.append(float(i), 0.5 * i, *(col[i] for col in counts))
        expected.append(IterateRecord(
            i + 1, float(i), 0.5 * i, grad_evals_outer=2 * i,
            grad_evals_total=counts[0][i], value_evals_total=counts[1][i],
            restricted_evals_total=counts[2][i]))
    for name, col in zip(("grad_evals_total", "value_evals_total",
                          "restricted_evals_total"), counts):
        assert records.column(name) == col
    assert list(records) == expected
    for i in (0, n // 2, n - 1, -1):
        assert records[i] == expected[i], i
    for s in (slice(1, 4), slice(None, None, -7), slice(n // 3, n // 2)):
        assert records[s] == expected[s], s
    assert records == expected and expected == records
    assert records != expected[:-1] + [dataclasses.replace(
        expected[-1], restricted_evals_total=counts[2][-1] + 1)]


def test_count_runs_cost_nothing_constant_and_two_bytes_per_change():
    """A count whose increment never changes holds no bytes however long the
    run; one that changes at every step holds a byte of increment and a byte
    of length per iterate; a long run closes in 255-iterate pieces."""
    n = 20_000
    records = IterateRecords()
    for i in range(n):
        records.append(0.0, 1.0, 3 * (i + 1), i + i % 2, 0)
    assert count_bytes(records) == [0, 2 * (n - 1), 0]
    records.append(0.0, 1.0, 3 * (n + 1) + 1, n + 1, 0)
    assert count_bytes(records)[0] == 2 * math.ceil(n / 255)
    assert records.column("grad_evals_total")[-2:] == [3 * n, 3 * n + 4]
    for length, pieces in ((255, 1), (256, 2), (510, 2), (511, 3)):
        records = IterateRecords()
        for i in range(length):
            records.append(0.0, 1.0, i + 1, 0, 0)
        records.append(0.0, 1.0, length + 2, 0, 0)
        assert count_bytes(records)[0] == 2 * pieces, length
        assert records.column("grad_evals_total") == [*range(1, length + 1),
                                                      length + 2]


def test_append_leaves_the_gc_count_alone():
    """``append`` allocates no container that outlives the call.  A tuple
    built from an iterator of unknown length is resized and, once freed,
    kept in the interpreter's free list of small tuples: one per call moved
    gc's generation-0 count up by one and filled that list with 2,000 tuples
    (~128 KB) during a run."""
    records = IterateRecords()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for i in range(5000):
            records.append(0.0, 1.0, i, 2 * i, i * i % 7)
        assert gc.get_count()[0] - before < 50
    finally:
        gc.enable()
