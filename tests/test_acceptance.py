"""Acceptance gate: one test per criterion, each printing a PASS line.

The heavy reproduction run (criteria 1 and 9) executes the reference
configuration twice with different worker counts through the CLI and is
shared by both criteria via a session fixture.
"""

import math
import time

import numpy as np
import pytest

from newsvb import (
    NewsvendorModel,
    bayes_decision,
    build_posterior,
    elbo,
    fit_lcvb,
    fit_nvb,
    lcvb_decide,
    nvb_decide,
    optimality_gap,
    posterior_kl,
    sample_demand,
    true_optimal_action,
)
from newsvb.cli import (
    check_elbo_gradient,
    check_jensen_bound,
    check_kl_decomposition,
    main,
    probe_members,
)
from newsvb.experiment import estimate_rate, reference_config
from newsvb.model import log_likelihood, log_prior
from newsvb.numerics import gauss_hermite_standard
from reference import ConstantRisk, log_density, loss, read_results, risk, variational_variance

REFERENCE_H_VALUES = tuple(round(0.001 * k, 3) for k in range(1, 10))
FIGURE_SEED = 20250809


def report(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: PASS{suffix}")


@pytest.fixture(scope="session")
def figure_runs(tmp_path_factory):
    """Reference experiment executed twice (jobs=1 and jobs=2), via the CLI."""
    out_dir = tmp_path_factory.mktemp("figure")
    stems = {1: out_dir / "jobs1", 2: out_dir / "jobs2"}
    durations = {}
    for jobs, stem in stems.items():
        start = time.perf_counter()
        code = main(
            [
                "experiment",
                "--paper-defaults",
                "--replications",
                "200",
                "--seed",
                str(FIGURE_SEED),
                "--jobs",
                str(jobs),
                "--out",
                str(stem),
            ]
        )
        durations[jobs] = time.perf_counter() - start
        assert code == 0
    return stems, durations


class TestCriterion01FigureTrend:
    def test_median_gap_halves_from_smallest_to_largest_n(self, figure_runs):
        stems, durations = figure_runs
        curves = read_results(stems[2].with_name(stems[2].name + ".csv"))
        config = reference_config()
        assert {c.h for c in curves} == set(REFERENCE_H_VALUES)
        assert len(curves) == 18  # 9 holding costs x 2 rules
        slopes = []
        for curve in curves:
            by_n = {p.n: p.gap_action_q for p in curve.points}
            assert set(by_n) == set(config.n_schedule)
            first, last = by_n[10], by_n[1250]
            assert last < 0.5 * first, (
                f"{curve.rule.value} h={curve.h}: median gap {last:.4f} at n=1250 "
                f"vs {first:.4f} at n=10"
            )
            slopes.append(estimate_rate(curve))
        assert durations[2] <= 1200, f"runtime {durations[2]:.0f}s exceeds the 20 min budget"
        # Soft diagnostic only: a parametric-rate curve should slope near -1/2.
        print(
            f"  gap-rate slopes: min {min(slopes):.3f}, max {max(slopes):.3f} "
            f"(diagnostic band [-1.0, -0.25])"
        )
        report(1, "figure-trend", f"{durations[2]:.0f}s at jobs=2")


class TestCriterion02RiskMonteCarlo:
    def test_closed_form_within_five_standard_errors(self):
        model = NewsvendorModel(h=0.3, b=0.9, theta0=1.0, alpha=1.0, beta=1.0)
        rng = np.random.default_rng(60)
        for _ in range(20):
            a = float(rng.uniform(0.0, 50.0))
            theta = float(rng.uniform(0.1, 5.0))
            draws = rng.exponential(1.0 / theta, size=1_000_000)
            samples = loss(a, draws, model)
            se = samples.std(ddof=1) / math.sqrt(samples.size)
            assert abs(risk(a, theta, model) - samples.mean()) <= 5 * se
        report(2, "risk-vs-monte-carlo")


class TestCriterion03JensenBound:
    def test_calibrated_value_below_log_posterior_risk(self):
        worst, _ = check_jensen_bound()
        assert worst <= 1e-8
        report(3, "jensen-lower-bound", f"worst slack {worst:.3e}")


class TestCriterion04KlDecomposition:
    def test_identity_residual_below_tolerance(self):
        worst, _ = check_kl_decomposition()
        assert worst < 1e-6
        report(4, "kl-decomposition", f"max residual {worst:.3e}")


class TestCriterion05ConstantRiskCollapse:
    def test_calibrated_fit_matches_plain_fit(self):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        for seed in range(10):
            data = sample_demand(model.theta0, 60 + 10 * seed, np.random.default_rng(6300 + seed))
            q_plain, _ = fit_nvb(data, model)
            q_cal, _ = fit_lcvb(1.0 + 0.3 * seed, data, model, risk=ConstantRisk(2.0))
            assert abs(q_cal.mu - q_plain.mu) < 1e-6
            assert abs(q_cal.sigma - q_plain.sigma) < 1e-6
        report(5, "constant-risk-collapse")


class TestCriterion06ElboCorrectness:
    def test_closed_form_gradient_and_quadrature(self, base_model, data_n50):
        z, w = gauss_hermite_standard(64)
        rng = np.random.default_rng(64)
        for q in probe_members(rng, data_n50.n / data_n50.sum_s, 50):
            theta = np.exp(q.mu + q.sigma * z)
            integrand = (
                log_likelihood(theta, data_n50)
                + log_prior(theta, base_model)
                - log_density(q, theta)
            )
            assert abs(elbo(q, data_n50, base_model) - float(w @ integrand)) < 1e-8
        worst, _ = check_elbo_gradient()
        assert worst <= 1e-5
        report(6, "elbo-correctness", f"worst relative gradient error {worst:.3e}")


class TestCriterion07PosteriorOracleAgreement:
    def test_decisions_agree_with_exact_bayes(self):
        # h chosen so a 0.1 action tolerance is attainable at n=2000 (the
        # optimum's sensitivity to the rate scales with log((b+h)/h)).
        model = NewsvendorModel(h=0.05, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        a_true = true_optimal_action(model)
        hits = 0
        for seed in range(50):
            data = sample_demand(model.theta0, 2000, np.random.default_rng(6500 + seed))
            grid = build_posterior(data, model)
            a_bayes = bayes_decision(grid, model).action
            a_nvb = nvb_decide(data, model).action
            a_lcvb = lcvb_decide(data, model).action
            if (
                abs(a_nvb - a_bayes) < 0.1
                and abs(a_lcvb - a_bayes) < 0.1
                and abs(a_bayes - a_true) < 0.1
            ):
                hits += 1
        assert hits >= 45, f"only {hits}/50 seeds agreed"
        report(7, "posterior-oracle-agreement", f"{hits}/50 seeds")


class TestCriterion08SqrtNConcentration:
    def test_variance_decay_slope(self):
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        sizes = [100, 400, 1600, 6400]
        slopes = []
        for seed in range(20):
            stream = sample_demand(model.theta0, sizes[-1], np.random.default_rng(6600 + seed))
            variances = []
            for n in sizes:
                q, _ = fit_nvb(stream.prefix(n), model)
                variances.append(variational_variance(q))
            slopes.append(float(np.polyfit(np.log(sizes), np.log(variances), 1)[0]))
        average = float(np.mean(slopes))
        assert -1.3 <= average <= -0.7, f"average slope {average:.3f}"
        report(8, "sqrt-n-concentration", f"slope {average:.3f}")

    def test_calibrated_member_concentrates_and_both_rules_approach_bayes(self):
        # The paper's claims at the study's own h: the LCVB member's variance
        # falls like 1/n and its KL to the posterior vanishes, both actions
        # approach a* like n^-1/2 (consistency of the decision rules), and
        # both approach the Bayes action faster than 1/n, which gaps to a*
        # cannot show.
        model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
        sizes = [100, 400, 1600, 6400]
        slopes, divergences, paired, to_optimum = [], [], [], []  # (seed, n, [LCVB, NVB])
        for seed in range(20):
            stream = sample_demand(model.theta0, sizes[-1], np.random.default_rng(6600 + seed))
            variances, row, gaps, optimum_gaps = [], [], [], []
            for n in sizes:
                data = stream.prefix(n)
                grid = build_posterior(data, model)
                nvb = nvb_decide(data, model)
                lcvb = lcvb_decide(data, model, nvb_start=nvb)
                a_bayes = bayes_decision(grid, model).action
                variances.append(variational_variance(lcvb.q))
                row.append(posterior_kl(lcvb.q, data, model, grid))
                gaps.append([abs(lcvb.action - a_bayes), abs(nvb.action - a_bayes)])
                optimum_gaps.append([optimality_gap(rule, model)[0] for rule in (lcvb, nvb)])
            slopes.append(float(np.polyfit(np.log(sizes), np.log(variances), 1)[0]))
            divergences.append(row)
            paired.append(gaps)
            to_optimum.append(optimum_gaps)
        average = float(np.mean(slopes))
        assert -1.3 <= average <= -0.7, f"average LCVB variance slope {average:.3f}"
        kl = np.median(divergences, axis=0)
        assert kl[0] >= 20.0 * kl[-1], f"median KL {kl[0]:.3e} -> {kl[-1]:.3e}"
        medians = np.median(paired, axis=0)
        towards_bayes = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        assert np.all(towards_bayes <= -1.0), f"paired slopes (LCVB, NVB) {towards_bayes}"
        # Median |a - a*| slopes spread over -0.77..-0.33 on 22 other blocks of 20 seeds.
        medians = np.median(to_optimum, axis=0)
        towards_optimum = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
        assert np.all((-0.85 <= towards_optimum) & (towards_optimum <= -0.25)), (
            f"slopes of median |a - a*| (LCVB, NVB) {towards_optimum}"
        )
        report(
            8,
            "calibrated-concentration",
            f"slope {average:.3f}, KL x{kl[0] / kl[-1]:.0f}, paired "
            f"{towards_bayes[0]:.2f}/{towards_bayes[1]:.2f}, to a* "
            f"{towards_optimum[0]:.2f}/{towards_optimum[1]:.2f}",
        )


class TestCriterion09Determinism:
    def test_csv_bytes_identical_across_jobs(self, figure_runs):
        stems, _ = figure_runs
        first = stems[1].with_name(stems[1].name + ".csv").read_bytes()
        second = stems[2].with_name(stems[2].name + ".csv").read_bytes()
        assert first == second
        report(9, "determinism-across-jobs", f"{len(first)} bytes")


class TestCriterion10TrueOptimumFormula:
    def test_grid_search_matches_formula_for_all_holding_costs(self):
        theta0 = 0.68
        actions = np.arange(0.0, 50.0, 1e-4)
        for h in REFERENCE_H_VALUES:
            model = NewsvendorModel(h=h, b=0.1, theta0=theta0, alpha=1.0, beta=4.1)
            log_theta = math.log(theta0)
            curve = (
                h * actions
                - h / theta0
                + np.exp(math.log(model.b + h) - actions * theta0 - log_theta)
            )
            brute = actions[int(np.argmin(curve))]
            assert abs(brute - true_optimal_action(model)) < 5e-4
        report(10, "true-optimum-formula")
