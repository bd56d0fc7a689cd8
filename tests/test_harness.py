import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (ExperimentSpec, QuadraticProblem, RunStatus,
                          SolverId, compute_reference, generate_logreg,
                          run_experiment, verify_experiment)
from ellipcenters.diagnostics import (audit_bh_descent, audit_level_sets,
                                      audit_orthogonality, certify_rates)
from ellipcenters.harness import (build_problem, format_summary_table,
                                  read_trace_csv, write_trace_csv)
from ellipcenters.solvers import History, run_me


class TestReference:
    def test_quadratic_linear_solve(self):
        q = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        ref = compute_reference(q.objective())
        npt.assert_allclose(ref.x_star, [1.0, 0.25])
        assert ref.f_star == pytest.approx(-0.625, abs=1e-15)
        assert ref.method == "linear_solve"
        assert ref.residual <= 1e-12

    def test_isotropic_origin(self):
        q = QuadraticProblem(np.eye(3), np.zeros(3))
        ref = compute_reference(q.objective())
        npt.assert_allclose(ref.x_star, np.zeros(3))
        assert ref.f_star == 0.0

    def test_logistic_high_accuracy_run(self):
        p = generate_logreg(40, 20, 10.0, 6)
        ref = compute_reference(p.objective())
        assert ref.method == "high_accuracy_run"
        assert ref.residual <= 1e-10
        assert not ref.quality_warning

    def test_all_solvers_agree_on_terminal_value(self):
        spec = ExperimentSpec(problem="logreg", n=100, kappa=10.0, seed=4)
        result = run_experiment(spec)
        ref = result.reference
        finals = []
        for trace in result.traces.values():
            assert trace.status is RunStatus.CONVERGED
            gap = trace.records[-1].f_val - ref.f_star
            assert 0.0 <= gap <= 1e-9
            finals.append(trace.records[-1].f_val)
        spread = max(finals) - min(finals)
        assert spread <= 1e-8 * max(1.0, abs(ref.f_star))


class TestRunExperiment:
    def test_two_dim_quadratic_trace_is_short(self, tmp_path):
        spec = ExperimentSpec(problem="quadratic", n=2, kappa=10.0, seed=1,
                              solvers=[SolverId.ME], output_dir=tmp_path)
        result = run_experiment(spec)
        trace = result.traces["me"]
        assert trace.status is RunStatus.CONVERGED
        assert len(trace.records) <= 2
        lines = (tmp_path / "trace_me.csv").read_text().strip().splitlines()
        assert len(lines) - 1 <= 2  # header plus at most two iterates

    def test_logreg_m_defaults_to_half_n(self):
        spec = ExperimentSpec(problem="logreg", n=30, kappa=5.0, seed=0)
        assert spec.m == 15

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="logreg", n=10, kappa=0.5, seed=0)
        with pytest.raises(ValueError):
            ExperimentSpec(problem="banana", n=10, kappa=5.0, seed=0)

    def test_trace_csv_roundtrip_all_solvers(self, tmp_path):
        spec = ExperimentSpec(problem="logreg", n=40, kappa=15.0, seed=2,
                              output_dir=tmp_path)
        result = run_experiment(spec)
        for sid, trace in result.traces.items():
            records, gaps = read_trace_csv(tmp_path / f"trace_{sid}.csv")
            assert records == trace.records
            expected = [r.f_val - result.reference.f_star for r in trace.records]
            npt.assert_array_equal(gaps, expected)

    def test_reruns_are_byte_identical_except_timing(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            run_experiment(ExperimentSpec(problem="logreg", n=40, kappa=15.0,
                                          seed=2, output_dir=out))
        for name in ("trace_me.csv", "trace_gd_l.csv", "trace_gd_exact.csv",
                     "trace_fast_gd.csv", "series_me.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        strip = lambda text: [",".join(line.split(",")[:-1])
                              for line in text.splitlines()]
        assert strip((out1 / "summary.csv").read_text()) == \
            strip((out2 / "summary.csv").read_text())

    def test_summary_table_shape(self):
        spec = ExperimentSpec(problem="quadratic", n=5, kappa=10.0, seed=3)
        result = run_experiment(spec)
        assert len(result.summary) == 4
        text = format_summary_table(result.summary)
        assert "solver" in text and "me" in text and "gd_exact" in text

    def test_solver_failure_recorded_not_raised(self):
        from ellipcenters import SolverConfig
        spec = ExperimentSpec(problem="logreg", n=40, kappa=15.0, seed=2,
                              config=SolverConfig(max_outer=1))
        result = run_experiment(spec)
        statuses = {row["solver"]: row["status"] for row in result.summary}
        assert statuses["gd_l"] == "max_iterations"


class TestVerify:
    def test_full_audit_passes_on_logistic(self):
        spec = ExperimentSpec(problem="logreg", n=60, kappa=25.0, seed=8)
        result, report = verify_experiment(spec)
        assert result.traces["me"].status is RunStatus.CONVERGED
        assert report.passed, report.to_text()
        names = {r.name for r in report.rows}
        assert {"rate_eta_star", "orth_v", "bh_descent", "level_residual",
                "dominance"} <= names

    def test_full_audit_passes_on_quadratic(self):
        spec = ExperimentSpec(problem="quadratic", n=20, kappa=80.0, seed=8)
        _, report = verify_experiment(spec)
        assert report.passed, report.to_text()

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(problem="logreg", n=60, kappa=25.0, seed=8),
        ExperimentSpec(problem="quadratic", n=20, kappa=80.0, seed=8),
    ], ids=["logreg", "quadratic"])
    def test_streamed_audits_match_post_hoc_audits(self, spec):
        """``verify`` audits each step as the run goes; the same audits run
        after the run over a full history give the same rows, bit for bit
        and in the same order."""
        _, report = verify_experiment(spec)
        f, _ = build_problem(spec)
        ref = compute_reference(f)
        history = History()
        trace = run_me(f, np.zeros(spec.n), spec.config, observe=history)
        dist2 = [float(np.sum((x - ref.x_star) ** 2)) for x in history.iterates]
        post = certify_rates(trace, ref.f_star, f.mu, f.lip, dist2=dist2)[1]
        post.extend(audit_orthogonality(history.step_data,
                                        spec.config.inner_tol, f.lip))
        post.extend(audit_bh_descent(trace, f.lip))
        post.extend(audit_level_sets(history.step_data,
                                     spec.config.companion_tol))

        def bits(rows):
            return [(r.name, r.step, r.value.hex(), r.bound.hex(), r.passed)
                    for r in rows]

        streamed = [r for r in report.rows if r.name != "dominance"]
        assert bits(streamed) == bits(post.rows)
        assert {"iterate_distance_bound", "orth_v", "pythagoras",
                "lipschitz_displacement", "level_residual"} <= {
                    r.name for r in streamed}


def test_write_read_trace_handles_empty_fields(tmp_path, small_logreg):
    from ellipcenters import run_gd_l
    trace = run_gd_l(small_logreg.objective(), np.zeros(50))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, 0.5, path)
    records, _ = read_trace_csv(path)
    assert all(r.t_k is None and r.li_flag is None for r in records)
    assert records == trace.records
