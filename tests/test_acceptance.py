"""Acceptance suite: one test per release criterion, each printing a
PASS line on success (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 1-3 share one instance family: ten seeded SPD quadratics over
n in {5, 50} x kappa in {10, 100} and five seeded logistic instances over
n in {50, 200} x kappa in {10, 100}, all solved from the origin.
"""

import time

import numpy as np
import pytest

from ellipcenters import (ExperimentSpec, Objective, RunStatus, SolverConfig,
                          SolverId, check_gradient, compute_reference,
                          generate_logreg, generate_quadratic, run_experiment,
                          run_me, theoretical_iteration_bound)
from ellipcenters.companion import CompanionResult, companion_point
from ellipcenters.diagnostics import audit_dominance, contraction_ratios
from ellipcenters.plane2d import minimize
from ellipcenters.solvers import History

SUITE_QUADRATICS = [
    (5, 10.0, 101), (5, 100.0, 102), (50, 10.0, 103), (50, 100.0, 104),
    (5, 10.0, 105), (5, 100.0, 106), (50, 10.0, 107), (50, 100.0, 108),
    (50, 100.0, 109), (5, 100.0, 110),
]
SUITE_LOGISTIC = [
    (50, 10.0, 201), (50, 100.0, 202), (200, 10.0, 203), (200, 100.0, 204),
    (200, 100.0, 205),
]

INNER_TOL = 1e-12
RATE_SLACK = 1e-8


@pytest.fixture(scope="module")
def rate_suite():
    """Solved instances shared by criteria 1, 2, 3, 8 and 9."""
    start = time.monotonic()
    cases = []
    for kind, spec_list in (("quadratic", SUITE_QUADRATICS),
                            ("logreg", SUITE_LOGISTIC)):
        for n, kappa, seed in spec_list:
            if kind == "quadratic":
                prob = generate_quadratic(n, kappa, seed)
            else:
                prob = generate_logreg(n, max(1, n // 2), kappa, seed)
            f = prob
            history = History()
            trace = run_me(f, np.zeros(n), observe=history)
            ref = compute_reference(f)
            ratios = contraction_ratios(trace, ref.f_star)
            cases.append({"kind": kind, "n": n, "kappa": kappa, "seed": seed,
                          "f": f, "trace": trace, "ref": ref,
                          "ratios": ratios, "steps": history.step_data})
    return cases, time.monotonic() - start


@pytest.fixture(scope="module")
def table_experiments():
    """The two benchmark-scale logistic experiments used by criteria 7-8."""
    start = time.monotonic()
    results = {}
    for n, kappa in ((500, 100.0), (1000, 500.0)):
        spec = ExperimentSpec(problem="logreg", n=n, kappa=kappa, seed=2024,
                              solvers=list(SolverId))
        results[(n, kappa)] = run_experiment(spec)
    return results, time.monotonic() - start


def _li_steps(case):
    for rec, ratio in zip(case["trace"].records[:-1], case["ratios"]):
        if rec.li_flag and ratio is not None:
            yield rec, ratio


def test_criterion_1_rate_certification(rate_suite):
    """Every linearly independent step contracts the gap by at least
    (kappa-1)/(kappa+1), across the whole instance family."""
    cases, elapsed = rate_suite
    assert len(cases) == 15
    checked = 0
    for case in cases:
        assert case["trace"].status is RunStatus.CONVERGED
        kappa = case["kappa"]
        eta_star = (kappa - 1.0) / (kappa + 1.0)
        for rec, ratio in _li_steps(case):
            assert ratio <= eta_star * (1.0 + RATE_SLACK), \
                (case["kind"], case["seed"], rec.k, ratio, eta_star)
            checked += 1
    assert checked > 100
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 PASS: rate <= eta* on {checked} LI steps over "
          f"15 instances in {elapsed:.1f}s")


def test_criterion_2_improved_rate_and_sandwich(rate_suite):
    cases, _ = rate_suite
    checked = 0
    for case in cases:
        kappa = case["kappa"]
        eta_star = (kappa - 1.0) / (kappa + 1.0)
        for rec, ratio in _li_steps(case):
            eta_bar = eta_star - rec.sin2_theta / (4.0 * kappa * kappa)
            assert ratio <= eta_bar * (1.0 + RATE_SLACK), \
                (case["kind"], case["seed"], rec.k, ratio, eta_bar)
            if kappa >= 2.0:
                assert eta_star ** 2 < eta_bar < eta_star
            checked += 1
    print(f"\nACCEPTANCE 2 PASS: angle-improved rate and sandwich on "
          f"{checked} LI steps")


def test_criterion_3_orthogonality_and_bh_descent(rate_suite):
    cases, _ = rate_suite
    checked = 0
    for case in cases:
        f = case["f"]
        trace = case["trace"]
        for sd in case["steps"]:
            if not sd.li_flag:
                continue
            eps_orth = 10.0 * INNER_TOL * max(np.linalg.norm(sd.v),
                                              np.linalg.norm(sd.w))
            assert abs(sd.grad_next @ sd.v) <= eps_orth
            assert abs(sd.grad_next @ sd.w) <= eps_orth
        for rec, nxt in zip(trace.records[:-1], trace.records[1:]):
            if not rec.li_flag:
                continue
            decrease = rec.f_val - nxt.f_val
            required = (nxt.grad_norm ** 2 + rec.grad_norm ** 2) / (2 * f.lip)
            assert decrease >= required - 1e-9 * abs(rec.f_val)
            checked += 1
    print(f"\nACCEPTANCE 3 PASS: orthogonality and two-gradient descent on "
          f"{checked} LI steps")


def test_criterion_4_two_step_termination_in_2d():
    start = time.monotonic()
    kappas = (2.0, 5.0, 10.0, 50.0, 100.0)
    for seed in range(100):
        q = generate_quadratic(2, kappas[seed % len(kappas)], seed)
        trace = run_me(q, np.zeros(2))
        assert trace.status is RunStatus.CONVERGED, seed
        assert trace.iterations <= 2, seed
        assert trace.records[-1].grad_norm <= 1e-6
    for seed in range(20):
        p = generate_logreg(2, 1, 10.0, seed)
        trace = run_me(p, np.zeros(2))
        assert trace.status is RunStatus.CONVERGED, seed
        assert trace.iterations <= 2, seed
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 4 PASS: 120 two-dimensional instances terminated "
          f"within 2 steps in {elapsed:.1f}s")


def test_criterion_5_dominance_over_exact_linesearch():
    rng = np.random.Generator(np.random.PCG64(777))
    pairs = 0
    for seed in range(12):
        q = generate_quadratic(6 + seed % 5, 5.0 + 10.0 * (seed % 4), seed)
        f = q
        report = audit_dominance(f, [rng.standard_normal(f.dim)
                                     for _ in range(5)])
        assert report.passed, (seed, report.to_text())
        pairs += len(report.rows)
    for seed in range(8):
        p = generate_logreg(30, 15, 20.0, seed)
        f = p
        report = audit_dominance(f, [0.5 * rng.standard_normal(30)
                                     for _ in range(5)])
        assert report.passed, seed
        pairs += len(report.rows)
    assert pairs == 100
    print(f"\nACCEPTANCE 5 PASS: plane step dominated exact linesearch on "
          f"{pairs} (problem, point) pairs")


def test_criterion_6_quadratic_reduction():
    rng = np.random.Generator(np.random.PCG64(4242))
    for seed in range(20):
        n = 3 + seed % 8
        q = generate_quadratic(n, 2.0 + seed, seed + 300)
        f = q
        x = rng.standard_normal(n)
        v = f.grad(x)
        # the closed-form step the method takes, t = 2 ||v||^2 / (v'Av)
        t_exact = run_me(f, x, SolverConfig(max_outer=1)).records[0].t_k
        # a plain Objective has no exact model: a forward-difference first
        # step, then the bracketed secant
        blind = Objective(q.dim, q.mu, q.lip, q.value, q.grad)
        res: CompanionResult = companion_point(blind.restrict(x, v))
        assert abs(res.t - t_exact) <= 1e-9 * t_exact, seed
        w = f.grad(x - t_exact * v)
        tol = INNER_TOL * max(np.linalg.norm(v), np.linalg.norm(w))
        exact = minimize(f.restrict(x, v).extend(w), tol, f.value(x))
        newton = minimize(blind.restrict(x, v).extend(w), tol, f.value(x))
        assert abs(newton[0] - exact[0]) <= 1e-8, seed
        assert abs(newton[1] - exact[1]) <= 1e-8, seed
    print("\nACCEPTANCE 6 PASS: the generic search matched the closed-form step and "
          "damped Newton matched the closed-form plane solve on 20 instances")


def test_criterion_7_benchmark_orderings(table_experiments):
    """Gradient-count orderings at benchmark scale.  Per-solver counts follow
    each method's own reporting convention: outer evaluations for the
    ellipcenter method (2 per iteration), total evaluations including search
    probes for the linesearch baselines, whose probes are restricted
    evaluations."""
    results, elapsed = table_experiments
    r100 = results[(500, 100.0)]
    evals = {}
    for row in r100.summary:
        assert row["status"] == "converged", row
    evals["me"] = _reported(r100, "me")
    evals["gd_exact"] = _reported(r100, "gd_exact")
    evals["gd_l"] = _reported(r100, "gd_l")
    assert evals["me"] < evals["gd_exact"] < evals["gd_l"], evals

    r500 = results[(1000, 500.0)]
    counts = {row["solver"]: _reported(r500, row["solver"])
              for row in r500.summary}
    for row in r500.summary:
        assert row["status"] == "converged", row
    for solver in ("me", "gd_exact", "fast_gd"):
        assert counts["gd_l"] >= 2 * counts[solver], counts
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 7 PASS: kappa=100 ordering me({evals['me']}) < "
          f"gd_exact({evals['gd_exact']}) < gd_l({evals['gd_l']}); "
          f"kappa=500 gd_l({counts['gd_l']}) >= 2x all others; "
          f"{elapsed:.1f}s")


def _reported(result, solver):
    row = next(r for r in result.summary if r["solver"] == solver)
    if solver == "me":
        return row["grad_evals_outer"]
    probes = result.traces[solver].records[-1].restricted_evals_total
    return row["grad_evals_total"] + probes


def test_criterion_8_worst_case_bound_slack(table_experiments):
    results, _ = table_experiments
    r100 = results[(500, 100.0)]
    trace = r100.traces["me"]
    f_star = r100.reference.f_star
    initial_gap = trace.records[0].f_val - f_star
    terminal_gap = max(trace.records[-1].f_val - f_star, 1e-300)
    bound = theoretical_iteration_bound(100.0, initial_gap, terminal_gap)
    assert trace.iterations < bound, (trace.iterations, bound)
    print(f"\nACCEPTANCE 8 PASS: {trace.iterations} iterations vs "
          f"worst-case bound {bound} on the kappa=100 instance")


def test_criterion_9_foundations(rate_suite, tmp_path):
    cases, _ = rate_suite
    # gradient implementations against central differences
    quad_case = next(c for c in cases if c["kind"] == "quadratic")
    log_case = next(c for c in cases if c["kind"] == "logreg")
    assert check_gradient(quad_case["f"], n_points=20) <= 1e-6
    assert check_gradient(log_case["f"], n_points=20) <= 1e-6
    # gradient-domination and upper co-coercivity at sampled points
    rng = np.random.Generator(np.random.PCG64(31337))
    for case in (quad_case, log_case):
        f, f_star = case["f"], case["ref"].f_star
        for _ in range(20):
            x = 0.5 * rng.standard_normal(f.dim)
            gap = f.value(x) - f_star
            g2 = float(np.sum(f.grad(x) ** 2))
            assert g2 >= 2.0 * f.mu * gap - 1e-9
            assert g2 <= 2.0 * f.lip * gap + 1e-9
    # companion points sit on their level sets
    residuals = [sd.level_residual for c in cases
                 for sd in c["steps"]]
    assert residuals and max(residuals) <= 1e-12
    # full experiment reruns are bit-identical
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_experiment(ExperimentSpec(problem="logreg", n=60, kappa=30.0,
                                      seed=5, output_dir=out))
    for sid in SolverId:
        name = f"trace_{sid.value}.csv"
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    print(f"\nACCEPTANCE 9 PASS: gradients, curvature inequalities, "
          f"{len(residuals)} companion residuals, and rerun determinism")
