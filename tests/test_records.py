"""``RunTrace.records``: a read-only sequence of ``IterateRecord`` kept as
typed columns, equal record by record to what a run observed."""

import dataclasses
import math

import numpy as np
import pytest

from ellipcenters import generate_quadratic
from ellipcenters.diagnostics import contraction_ratios
from ellipcenters.harness import fill_ratios, read_trace_csv, write_trace_csv
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
            assert all(getattr(rec, name) is None
                       for name in (*STEP_FIELDS, "ratio"))


def test_steps_written_after_stepless_iterates():
    """Step columns reach the step written; the iterates before it read
    ``None``."""
    records = IterateRecords(outer_grads=2)
    for i in range(3):
        records.append(float(i), 1.0, i, i, 0)
    records.set_step(0.5, math.nan, True)
    records.append(3.0, 0.5, 3, 3, 0)
    assert [r.li_flag for r in records] == [None, None, True, None]
    assert [r.t_k for r in records] == [None, None, 0.5, None]
    assert math.isnan(records[2].sin2_theta)
    assert records[3].grad_evals_outer == 6


def test_fill_ratios_persist_and_round_trip(tmp_path, quadratic, traces):
    trace = run_me(quadratic, np.zeros(30))
    f_star = trace.records[-1].f_val  # so the last gap, 0, has no ratio
    fill_ratios(trace, f_star)
    ratios = contraction_ratios(trace, f_star)
    assert None in ratios and any(r is not None for r in ratios)
    assert [r.ratio for r in trace.records] == ratios + [None]
    assert trace.records.column("ratio") == ratios + [None]
    assert trace.records != traces[SolverId.ME].records  # they differ in ratio
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, f_star, path)
    records, gaps = read_trace_csv(path)
    assert records == trace.records
    assert gaps == [r.f_val - f_star for r in trace.records]
