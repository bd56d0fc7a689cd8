import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from ellipcenters import (ExperimentSpec, QuadraticProblem, RunStatus,
                          SolverConfig, SolverId, compute_reference,
                          generate_logreg, run_experiment, run_fast_gd,
                          verify_experiment)
from ellipcenters import companion, solvers
from ellipcenters.diagnostics import (audit_bh_descent, audit_level_sets,
                                      audit_orthogonality, certify_rates)
from ellipcenters.harness import (build_problem, format_summary_table,
                                  read_trace_csv, write_trace_csv)
from ellipcenters.solvers import History, run_me


class TestReference:
    def test_quadratic_linear_solve(self):
        q = QuadraticProblem(np.diag([1.0, 4.0]), np.array([1.0, 1.0]))
        ref = compute_reference(q)
        npt.assert_allclose(ref.x_star, [1.0, 0.25])
        assert ref.f_star == pytest.approx(-0.625, abs=1e-15)
        assert ref.method == "linear_solve"
        assert ref.residual <= 1e-12

    def test_isotropic_origin(self):
        q = QuadraticProblem(np.eye(3), np.zeros(3))
        ref = compute_reference(q)
        npt.assert_allclose(ref.x_star, np.zeros(3))
        assert ref.f_star == 0.0

    def test_logistic_high_accuracy_run(self):
        p = generate_logreg(40, 20, 10.0, 6)
        ref = compute_reference(p)
        assert ref.method == "high_accuracy_run"
        assert ref.residual <= 1e-10
        assert not ref.quality_warning

    def test_logistic_residual_is_the_exact_gradient_norm(self):
        p = generate_logreg(60, 30, 1e2, 0)
        ref = compute_reference(p)
        x = ref.x_star
        weights = p.labels / (1.0 + np.exp(p.labels * (p.a @ x)))
        g = -(p.a.T @ weights) / len(p.labels) + p.mu * x
        assert ref.residual == pytest.approx(float(np.linalg.norm(g)),
                                             rel=1e-12)

    @pytest.mark.parametrize("n", [5, 20, 60])
    @pytest.mark.parametrize("kappa", [10.0, 1e2, 1e4])
    def test_logistic_f_star_matches_accelerated_run(self, n, kappa):
        for seed in range(2):
            p = generate_logreg(n, max(1, n // 2), kappa, seed)
            ref = compute_reference(p)
            fast = run_fast_gd(p, np.zeros(n),
                               SolverConfig(eps=1e-13, max_outer=500000))
            assert fast.converged
            assert ref.f_star == pytest.approx(fast.records[-1].f_val,
                                               rel=1e-15)

    def test_logistic_reference_ignores_earlier_evaluations(self, rng):
        """Evaluations at unrelated points and at a momentum point at the
        origin, where the reference run starts, change nothing."""
        ref = compute_reference(generate_logreg(60, 30, 1e2, 0))
        p = generate_logreg(60, 30, 1e2, 0)
        f = p
        u = rng.integers(-3, 4, 60).astype(float)
        f.grad(5.0 * u)
        f.value(u)
        origin = f.extrapolate(u, 5.0 * u, 0.25)  # u - (4u)/4 = 0 exactly
        assert not origin.x.any()
        assert f.value(origin) != np.log(2.0)  # a @ 0 = 0 gives log 2
        again = compute_reference(f)
        npt.assert_array_equal(again.x_star, ref.x_star)
        assert (again.f_star, again.residual) == (ref.f_star, ref.residual)

    @pytest.mark.parametrize("n, kappa", [(1, 1e2), (2, 1e2), (1, 1 + 1e-9),
                                          (2, 1 + 1e-9), (20, 1 + 1e-9)])
    def test_logistic_tiny_and_near_isotropic_references(self, n, kappa):
        p = generate_logreg(n, 3, kappa, 3)
        start = time.perf_counter()
        ref = compute_reference(p)
        assert time.perf_counter() - start < 10.0
        assert ref.residual <= 1e-13
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
        for kappa in (math.inf, math.nan):
            with pytest.raises(ValueError, match="exceed 1 and be finite"):
                ExperimentSpec(problem="quadratic", n=10, kappa=kappa, seed=0)
        with pytest.raises(ValueError):
            ExperimentSpec(problem="banana", n=10, kappa=5.0, seed=0)
        with pytest.raises(ValueError, match="n must be positive, got 0"):
            ExperimentSpec(problem="quadratic", n=0, kappa=5.0, seed=0)

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
        and in the same order.  On the quadratic the rate audits take the
        exact gaps 1/2 <x_k - x*, grad f(x_k)>."""
        _, report = verify_experiment(spec)
        f = build_problem(spec)
        ref = compute_reference(f)
        history, grads = History(), []

        def observe(k, x, f_x, g, step):
            history(k, x, f_x, g, step)
            grads.append(g.copy())

        trace = run_me(f, np.zeros(spec.n), spec.config, observe=observe)
        dist2 = [float(np.sum((x - ref.x_star) ** 2)) for x in history.iterates]
        gaps = None
        if spec.problem == "quadratic":
            gaps = [0.5 * float((x - ref.x_star) @ g)
                    for x, g in zip(history.iterates, grads)]
        post = certify_rates(trace, ref.f_star, f.mu, f.lip, dist2=dist2,
                             gaps=gaps)[1]
        post.extend(audit_orthogonality(history.step_data, f.lip))
        post.extend(audit_bh_descent(trace, f.lip))
        post.extend(audit_level_sets(history.step_data))

        def bits(rows):
            return [(r.name, r.step, r.value.hex(), r.bound.hex(), r.passed)
                    for r in rows]

        streamed = [r for r in report.rows if r.name != "dominance"]
        assert bits(streamed) == bits(post.rows)
        assert {"iterate_distance_bound", "orth_v", "pythagoras",
                "lipschitz_displacement", "level_residual"} <= {
                    r.name for r in streamed}


def test_a_patched_constant_moves_the_run_and_its_audit(monkeypatch):
    """The audits read the solvers' constants through their modules, so a
    patched constant moves the run and ``verify``'s audit of it together:
    the companion search stops above the default 1e-12, and the looser plane
    search still passes its orthogonality audit."""
    monkeypatch.setattr(companion, "TOL", 1e-6)
    monkeypatch.setattr(solvers, "INNER_TOL", 1e-9)
    _, report = verify_experiment(ExperimentSpec(problem="logreg", n=30,
                                                 kappa=20.0, seed=1))
    level = [r for r in report.rows if r.name == "level_residual"]
    assert all(r.bound == 1e-6 for r in level)
    assert any(r.value > 1e-12 for r in level)
    assert report.passed, report.to_text()


def test_write_read_trace_handles_empty_fields(tmp_path, small_logreg):
    from ellipcenters import run_gd_l
    trace = run_gd_l(small_logreg, np.zeros(50))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, 0.5, path)
    records, _ = read_trace_csv(path)
    assert all(r.t_k is None and r.li_flag is None for r in records)
    assert records == trace.records
