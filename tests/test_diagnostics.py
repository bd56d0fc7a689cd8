import math

import numpy as np
import pytest

from ellipcenters import (QuadraticProblem, SolverConfig, certify_rates,
                          compute_reference, generate_logreg,
                          generate_quadratic, plane2d, run_gd_exact, run_gd_l,
                          run_me, theoretical_iteration_bound)
from ellipcenters import diagnostics
from ellipcenters.diagnostics import (RATE_SLACK, RATES, audit_bh_descent,
                                      audit_dominance, audit_orthogonality,
                                      contraction_ratios)
from ellipcenters.solvers import History


class TestContractionRatios:
    def test_fixed_step_on_diag_quadratic(self, diag_quadratic):
        """Hand iteration of x <- x - A x / 4 from (1, 1):
        first step lands on (3/4, 0) so the gap ratio is (9/32)/2.5 = 0.1125;
        afterwards x1 scales by 3/4 each step, so the ratio is exactly 9/16.
        All stay below eta = 3/4."""
        f = diag_quadratic
        trace = run_gd_l(f, np.array([1.0, 1.0]))
        ratios = contraction_ratios(trace, 0.0)
        assert ratios[0] == pytest.approx(0.1125, rel=1e-12)
        for r in ratios[1:8]:
            assert r == pytest.approx(9.0 / 16.0, rel=1e-9)
        assert all(r <= 0.75 + 1e-12 for r in ratios if r is not None)

    def test_two_dim_quadratic_single_ratio_near_zero(self):
        q = generate_quadratic(2, 10.0, 1)
        f = q
        trace = run_me(f, np.zeros(2))
        f_star = f.value(q.minimizer())
        ratios = [r for r in contraction_ratios(trace, f_star) if r is not None]
        assert len(ratios) <= 2
        assert all(abs(r) < 1e-9 for r in ratios)

    def test_constant_trace_is_empty(self, small_quadratic):
        trace = run_me(small_quadratic, small_quadratic.minimizer())
        assert contraction_ratios(trace, small_quadratic.value(
            small_quadratic.minimizer())) == []

    def test_invalid_reference_rejected(self, small_logreg):
        trace = run_me(small_logreg, np.zeros(50))
        with pytest.raises(ValueError):
            contraction_ratios(trace, trace.records[-1].f_val + 1.0)


class TestCertifyRates:
    def test_rate_constants(self):
        q = generate_quadratic(5, 100.0, 0)
        f = q
        trace = run_me(f, np.zeros(5))
        f_star = f.value(q.minimizer())
        report = certify_rates(trace, f_star, f.mu, f.lip)
        bounds = {(r.name, r.step): r.bound / (1.0 + RATE_SLACK)
                  for r in report.rows}
        steps = [k for name, k in bounds if name == "rate_eta"]
        assert steps and all(bounds["rate_eta", k] == pytest.approx(0.99)
                             for k in steps)
        bars = [(k, b) for (name, k), b in bounds.items()
                if name == "rate_eta_bar"]
        assert bars
        for k, b in bars:
            assert bounds["rate_eta_star", k] == pytest.approx(99.0 / 101.0)
            assert b == pytest.approx(
                99.0 / 101.0 - trace.records[k - 1].sin2_theta / 4e4, abs=1e-15)

    def test_eta_bar_formula_values(self):
        eta_bar = dict((name, bound) for name, _, bound in RATES)["rate_eta_bar"]
        # kappa=100 with sin^2 = 1 gives 99/101 - 1/40000
        assert eta_bar(100.0, 1.0) == pytest.approx(0.9801730198019801)
        # kappa=2 with sin^2 = 1: the sandwich (1/3)^2 < 13/48 < 1/3
        eta_star = 1.0 / 3.0
        assert eta_bar(2.0, 1.0) == pytest.approx(13.0 / 48.0)
        assert eta_star ** 2 < eta_bar(2.0, 1.0) < eta_star

    def test_logistic_run_passes_all_audits(self):
        p = generate_logreg(60, 30, 100.0, 9)
        f = p
        history = History()
        trace = run_me(f, np.zeros(60), observe=history)
        ref = compute_reference(f)
        dist2 = [float(np.sum((x - ref.x_star) ** 2)) for x in history.iterates]
        report = certify_rates(trace, ref.f_star, f.mu, f.lip, dist2=dist2)
        assert trace.converged
        assert report.passed, report.to_text()
        assert any(r.name == "rate_eta_bar" for r in report.rows)

    def test_sandwich_on_li_steps(self):
        for seed in (0, 1):
            q = generate_quadratic(20, 50.0, seed)
            f = q
            trace = run_me(f, np.zeros(20))
            report = certify_rates(trace, f.value(q.minimizer()), f.mu, f.lip)
            eta_star, s = 49.0 / 51.0, 1.0 + RATE_SLACK
            bars = [r.bound for r in report.rows if r.name == "rate_eta_bar"]
            assert bars
            for bar in bars:
                assert eta_star ** 2 * s < bar < eta_star * s

    def test_caller_gaps_replace_the_recorded_ones(self):
        """Given gaps drive the ratios and the global bound: a halving
        sequence passes; one step that contracts by 0.97, above
        eta_star = 49/51 but below eta = 0.98, fails there."""
        q = generate_quadratic(20, 50.0, 0)
        f = q
        trace = run_me(f, np.zeros(20))
        f_star = f.value(q.minimizer())
        halving = [2.0 ** -i for i in range(len(trace.records))]
        report = certify_rates(trace, f_star, f.mu, f.lip, gaps=halving)
        assert report.passed, report.to_text()
        assert {r.value for r in report.rows if r.name.startswith("rate")} == {0.5}
        assert any(r.name == "global_eta_bound" for r in report.rows)
        k = next(r.k for r in trace.records[1:-1] if r.li_flag)
        slow = halving[:k] + [0.97 / 0.5 * g for g in halving[k:]]
        report = certify_rates(trace, f_star, f.mu, f.lip, gaps=slow)
        assert {(r.name, r.step) for r in report.failures()} == {
            ("rate_eta_star", k), ("rate_eta_bar", k)}
        with pytest.raises(ValueError, match="gaps"):
            certify_rates(trace, f_star, f.mu, f.lip, gaps=halving[1:])

    def test_rejects_distances_of_the_wrong_length(self):
        """``dist2`` holds one distance per record: a shifted or padded list
        would audit the wrong iterates, so it is refused as ``gaps`` is."""
        q = generate_quadratic(20, 50.0, 0)
        f = q
        history = History()
        trace = run_me(f, np.zeros(20), observe=history)
        x_star = q.minimizer()
        dist2 = [float(np.sum((x - x_star) ** 2)) for x in history.iterates]
        f_star = f.value(x_star)
        n = len(trace.records)
        for wrong in (dist2[1:], dist2 + [0.0]):
            with pytest.raises(ValueError,
                               match=f"{len(wrong)} distances for {n} records"):
                certify_rates(trace, f_star, f.mu, f.lip, dist2=wrong)

    def test_rows_come_from_the_rates_table(self, monkeypatch):
        """A fourth ``RATES`` entry for independent steps adds its row on
        exactly the steps that carry ``rate_eta_star`` and changes no other
        row."""
        q = generate_quadratic(20, 50.0, 0)
        f = q
        trace = run_me(f, np.zeros(20))
        f_star = f.value(q.minimizer())
        before = certify_rates(trace, f_star, f.mu, f.lip).rows
        monkeypatch.setattr(diagnostics, "RATES", diagnostics.RATES + (
            ("rate_one", True, lambda kappa, sin2: 1.0),))
        after = certify_rates(trace, f_star, f.mu, f.lip).rows
        added = [r for r in after if r.name == "rate_one"]
        assert [r.step for r in added] == [
            r.step for r in before if r.name == "rate_eta_star"]
        assert added and all(r.bound == 1.0 + RATE_SLACK for r in added)
        assert [r for r in after if r.name != "rate_one"] == before

    def test_rejects_non_me_trace(self, small_logreg):
        f = small_logreg
        trace = run_gd_l(f, np.zeros(50))
        with pytest.raises(ValueError):
            certify_rates(trace, 0.0, f.mu, f.lip)


class TestOrthogonalityAudit:
    def test_quadratic_newton_steps(self, small_quadratic):
        f = small_quadratic
        history = History()
        run_me(f, np.zeros(10), observe=history)
        report = audit_orthogonality(history.step_data, f.lip)
        assert report.passed, report.to_text()
        # while the gradient is large the residual of the exact 2x2 solve is
        # visible in the fresh gradient too; below that, rounding dominates
        for sd in history.step_data:
            if sd.li_flag and np.linalg.norm(sd.v) >= 1e-3:
                assert abs(sd.grad_next @ sd.v) <= 1e-10 * (sd.v @ sd.v)

    def test_ld_steps_are_skipped(self):
        f = QuadraticProblem(np.eye(3), np.zeros(3))
        history = History()
        run_me(f, np.array([1.0, 0.0, 0.0]), observe=history)
        assert any(not sd.li_flag for sd in history.step_data)
        report = audit_orthogonality(history.step_data, f.lip)
        audited_steps = {r.step for r in report.rows}
        for sd in history.step_data:
            if not sd.li_flag:
                assert sd.k not in audited_steps

    def test_logistic_residual_scale(self, small_logreg):
        f = small_logreg
        history = History()
        run_me(f, np.zeros(50), observe=history)
        report = audit_orthogonality(history.step_data, f.lip)
        assert report.passed, report.to_text()


def test_bh_descent_skips_dependent_steps():
    """On one variable the two gradients are parallel: the step is
    dependent and the descent bound has no row for it."""
    f = QuadraticProblem(np.array([[2.0]]), np.array([1.0]))
    trace = run_me(f, np.zeros(1))
    assert trace.iterations == 1
    assert trace.records[0].li_flag is False
    assert audit_bh_descent(trace, f.lip).rows == []


class TestDominance:
    def test_random_spd_points(self, rng):
        q = generate_quadratic(8, 20.0, 5)
        f = q
        points = [rng.standard_normal(8) for _ in range(20)]
        report = audit_dominance(f, points)
        assert [(r.name, r.step) for r in report.rows] == \
            [("dominance", i) for i in range(20)]
        for row, x in zip(report.rows, points):
            assert row.passed
            f_gd = run_gd_exact(f, x, SolverConfig(max_outer=1)).records[-1]
            margin = 1e-12 * max(1.0, abs(f.value(x)))
            assert row.bound == f_gd.f_val + margin
            assert row.value <= f_gd.f_val + margin

    def test_isotropic_equality(self):
        f = QuadraticProblem(np.eye(4), np.zeros(4))
        x = np.array([1.0, -2.0, 0.5, 0.0])
        (row,) = audit_dominance(f, [x]).rows
        assert row.passed
        f_gd = row.bound - 1e-12 * max(1.0, abs(f.value(x)))
        assert row.value == pytest.approx(f_gd, abs=1e-12)

    def test_logistic_origin(self, small_logreg):
        assert audit_dominance(small_logreg, [np.zeros(50)]).passed

    def test_stalled_step_fails(self, monkeypatch):
        # with one inner iteration the plane solve stalls, so the ellipcenter
        # side takes no step and must not pass as dominating
        p = generate_logreg(30, 15, 40.0, 4)
        monkeypatch.setattr(plane2d, "MAX_NEWTON", 1)
        (row,) = audit_dominance(p, [np.zeros(30)]).rows
        assert not row.passed
        assert math.isnan(row.value)
        f_x = p.value(np.zeros(30))
        assert row.bound - 1e-12 * max(1.0, abs(f_x)) < f_x


class TestIterationBound:
    def test_formula_value_kappa_100(self):
        # ceil(ln(1e12) / ln(101/99)) computed independently
        expected = math.ceil(math.log(1e12) / math.log(101.0 / 99.0))
        assert expected == 1382
        assert theoretical_iteration_bound(100.0, 1e12, 1.0) == 1382

    def test_kappa_near_one_is_tiny(self):
        assert theoretical_iteration_bound(1.001, 1e12, 1.0) <= 4

    @pytest.mark.parametrize("kappa", [1.0, 0.5])
    def test_kappa_at_most_one_is_zero(self, kappa):
        """eta_star <= 0: a single step reaches any target."""
        assert theoretical_iteration_bound(kappa, 1e12, 1.0) == 0

    def test_no_reduction_means_zero(self):
        assert theoretical_iteration_bound(50.0, 3.0, 3.0) == 0

    def test_rejects_bad_gaps(self):
        with pytest.raises(ValueError):
            theoretical_iteration_bound(10.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            theoretical_iteration_bound(10.0, 1.0, 2.0)


def test_report_rendering(small_logreg, tmp_path):
    f = small_logreg
    trace = run_me(f, np.zeros(50))
    ref = compute_reference(f)
    report = certify_rates(trace, ref.f_star, f.mu, f.lip)
    text = report.to_text()
    assert "overall: PASS" in text
    report.write_csv(tmp_path / "audit.csv")
    lines = (tmp_path / "audit.csv").read_text().splitlines()
    assert lines[0] == "name,step,value,bound,passed"
    assert len(lines) == 1 + len(report.rows) > 1
