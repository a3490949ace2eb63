"""Command surface: parsing, precedence, exit codes, output files."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import newsvb
from newsvb.cli import HARD_KL_CELLS, check_hard_kl_cell, main, posterior_cell
from newsvb.experiment import reference_config
from newsvb.vb import kl_decomposition_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    values = {}
    for line in out.strip().split("\n"):
        parts = line.split()
        if len(parts) >= 2:
            values[" ".join(parts[:-1])] = parts[-1]
    return values


class TestFit:
    def test_synthetic_fit_recovers_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--n", "5000", "--theta0", "0.68", "--seed", "11"
        )
        assert code == 0
        mean = float(parse_report(out)["mean rate E_q[th]"])
        assert abs(mean - 0.68) < 0.05

    def test_calibrated_fit_reports_objective_decomposition(self, capsys):
        code, out, _ = run_cli(
            capsys, "fit", "--n", "400", "--theta0", "0.68", "--seed", "11", "--calibrate", "2.0"
        )
        assert code == 0
        report = parse_report(out)
        value = float(report["objective value"])
        kl_term, log_risk_term = float(report["kl_term"]), float(report["log_risk_term"])
        assert abs(value - (-kl_term + log_risk_term)) <= 1e-9

    def test_unresolved_posterior_is_a_numerical_failure(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--values", "1e-320")
        assert code == 3
        assert "posterior window e^[" in err and "leaves the float range" in err

    def test_overflowing_demand_sum_is_a_config_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "fit", "--values", "1e308,1e308")
        assert code == 2
        assert "sum past the floating-point range" in err

    def test_requires_some_data_source(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--theta0", "0.68")
        assert code == 2
        assert "provide demand data" in err

    def test_malformed_json_config(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--config", str(bad), "--n", "10")
        assert code == 2
        assert "malformed JSON" in err

    def test_unknown_config_key_named_in_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta0": 0.68, "n": 50, "thata0": 1}), encoding="utf-8")
        code, _, err = run_cli(capsys, "fit", "--config", str(cfg))
        assert code == 2
        assert "thata0" in err


@pytest.mark.parametrize("command", [["fit"], ["decide", "--rule", "nvb"]], ids=["fit", "decide"])
@pytest.mark.parametrize(
    "key,value",
    [
        ("h", [1]),
        ("h", True),
        ("a_lo", None),
        ("data", 5),
        ("n", 1.5),
        ("theta0", "0.68"),
        ("seed", 1.5),
        ("values", [1.0, "2.0"]),
    ],
)
def test_bad_fit_decide_config_value_exits_2_naming_the_key(
    capsys, tmp_path, monkeypatch, command, key, value
):
    monkeypatch.delenv("SEED", raising=False)
    raw = {"theta0": 0.68, "n": 50}
    raw[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert re.search(rf"\b{key}\b", err), err
    assert out == ""


class TestDecide:
    def test_bayes_and_nvb_agree_at_moderate_n(self, capsys):
        base = ["--n", "2000", "--theta0", "0.68", "--seed", "5"]
        code, out_bayes, _ = run_cli(capsys, "decide", "--rule", "bayes", *base)
        assert code == 0
        code, out_nvb, _ = run_cli(capsys, "decide", "--rule", "nvb", *base)
        assert code == 0
        a_bayes = float(parse_report(out_bayes)["action"])
        a_nvb = float(parse_report(out_nvb)["action"])
        assert abs(a_bayes - a_nvb) < 0.1

    def test_lcvb_action_inside_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--rule", "lcvb", "--n", "200", "--theta0", "0.68", "--seed", "5"
        )
        assert code == 0
        action = float(parse_report(out)["action"])
        assert 0.0 <= action <= 50.0

    def test_lcvb_report_prints_the_action_and_computes_its_objective(
        self, capsys, monkeypatch
    ):
        # F = ELBO + E_q[log G] - log p(X) for the decided member, computed
        # here because the decide needs no evidence. The reference values are
        # those of the decide that subtracted the grid's evidence itself; the
        # member's log(exp(rho)) round trip may move F by one ulp.
        import newsvb.cli as cli

        reported = []
        report = cli.calibrated_objective

        def recorded(*args):
            reported.append(report(*args))
            return reported[-1]

        monkeypatch.setattr(cli, "calibrated_objective", recorded)
        code, out, _ = run_cli(
            capsys, "decide", "--rule", "lcvb", "--n", "200", "--theta0", "0.68", "--seed", "5"
        )
        assert code == 0
        values = parse_report(out)
        assert values["action"] == "4.633039215"
        (objective,) = reported
        assert objective.value == pytest.approx(-3.7607700959076116, rel=1e-12, abs=0.0)
        assert values["objective value"] == f"{objective.value:.10g}" == "-3.760770096"

    def test_lcvb_scan_fallback_on_one_demand_warns_nothing(self, capsys):
        # The scan fallback's ascent reaches members whose nodes put a*theta
        # past 1e154, where ``NewsvendorRisk.theta_terms`` squares it past the
        # float range against a zero tail; that nan curvature must stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "decide", "--rule", "lcvb", "--values", "0.3596795542476716",
                "--alpha", "0.30975324100995366", "--beta", "0.3362241708523731",
                "--h", "0.0014026047515624776", "--b", "0.07410623266303544",
            )
        assert (code, err) == (0, "")
        values = parse_report(out)
        assert (values["action"], values["probes"]) == ("5.413009728", "57")

    def test_lcvb_report_checks_its_grid_against_the_data(self, capsys, monkeypatch):
        import numpy as np

        import newsvb.cli as cli

        other = newsvb.sample_demand(0.68, 2000, np.random.default_rng(3))
        build = cli.build_posterior
        monkeypatch.setattr(cli, "build_posterior", lambda data, model: build(other, model))
        code, out, err = run_cli(
            capsys, "decide", "--rule", "lcvb", "--n", "200", "--theta0", "0.68", "--seed", "5"
        )
        assert code == 3
        assert "does not match" in err and out == ""

    def test_unknown_rule_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["decide", "--rule", "magic", "--n", "10", "--theta0", "0.68"])
        assert excinfo.value.code == 2

    def test_gap_metrics_only_with_known_rate(self, capsys):
        code, out, _ = run_cli(capsys, "decide", "--rule", "nvb", "--values", "1.0,2.0,0.5,1.5")
        assert code == 0
        assert "gap_action" not in out
        code, out, _ = run_cli(
            capsys, "decide", "--rule", "nvb", "--values", "1.0,2.0,0.5,1.5",
            "--theta0", "0.68",
        )
        assert code == 0
        assert "gap_action" in out


class TestSeedPrecedence:
    def test_flag_beats_env_beats_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta0": 0.68, "n": 100, "seed": 1}), encoding="utf-8")

        def fitted_mu(*argv):
            code, out, _ = run_cli(capsys, "fit", *argv)
            assert code == 0
            return parse_report(out)["mu"]

        direct = {seed: fitted_mu("--n", "100", "--theta0", "0.68", "--seed", str(seed))
                  for seed in (1, 2, 3)}
        assert len(set(direct.values())) == 3

        monkeypatch.delenv("SEED", raising=False)
        assert fitted_mu("--config", str(cfg)) == direct[1]
        monkeypatch.setenv("SEED", "2")
        assert fitted_mu("--config", str(cfg)) == direct[2]
        assert fitted_mu("--config", str(cfg), "--seed", "3") == direct[3]


class TestExperimentCommand:
    def test_tiny_run_row_arithmetic_and_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "theta0": 0.68,
                    "b": 0.1,
                    "alpha": 1.0,
                    "beta": 4.1,
                    "h_values": [0.004, 0.008],
                    "n_schedule": [10, 30],
                    "replications": 3,
                    "quantile_level": 0.5,
                    "master_seed": 99,
                    "rules": ["NVB", "LCVB"],
                }
            ),
            encoding="utf-8",
        )
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(out1), "--jobs", "1"
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(out2), "--jobs", "2"
        )
        assert code == 0
        first = (tmp_path / "run1.csv").read_bytes()
        second = (tmp_path / "run2.csv").read_bytes()
        assert first == second
        lines = first.decode().strip().split("\n")
        assert len(lines) == 1 + 2 * 2 * 2  # header + rules x h x n

    def test_quantile_flag_changes_level_column_only(self, capsys, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "theta0": 0.68,
                    "b": 0.1,
                    "alpha": 1.0,
                    "beta": 4.1,
                    "h_values": [0.005],
                    "n_schedule": [10],
                    "replications": 3,
                    "quantile_level": 0.5,
                    "master_seed": 99,
                    "rules": ["NVB"],
                }
            ),
            encoding="utf-8",
        )
        code, _, _ = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "q50")
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            "experiment", "--config", str(cfg), "--out", str(tmp_path / "q90"),
            "--quantile", "0.9",
        )
        assert code == 0
        rows50 = (tmp_path / "q50.csv").read_text().strip().split("\n")[1:]
        rows90 = (tmp_path / "q90.csv").read_text().strip().split("\n")[1:]
        for r50, r90 in zip(rows50, rows90):
            f50, f90 = r50.split(","), r90.split(",")
            assert f50[3] == "0.5" and f90[3] == "0.9"
            # same rule/h/n and identical replication bookkeeping
            assert f50[:3] == f90[:3] and f50[6:] == f90[6:]

    def test_paper_defaults_reduced_scale(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "experiment", "--paper-defaults", "--replications", "2",
            "--out", str(tmp_path / "ref"), "--jobs", "2", "--seed", "123",
        )
        assert code == 0
        lines = (tmp_path / "ref.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 9 * 4 * 2  # h values x n schedule x rules
        manifest = json.loads((tmp_path / "ref.manifest.json").read_text())
        assert manifest["seed"] == 123
        assert manifest["config"]["theta0"] == 0.68

    @pytest.mark.parametrize(
        "key,value",
        [
            ("h_values", 0.005),
            ("h_values", ["0.005"]),
            ("n_schedule", "10,30"),
            ("rules", "NVB"),
            ("action_interval", "0,50"),
            ("replications", "3"),
            ("replications", True),
            ("master_seed", 1.5),
            ("rules", ["NVB", "NVB"]),
            ("quantile_level", "0.5"),
            ("h_values", [math.inf]),
            ("b", math.inf),
            ("alpha", math.inf),
            ("beta", math.inf),
            ("theta0", math.inf),
            ("action_interval", [0.0, math.inf]),
            ("posterior_nodes", 16),
            ("h_values", [0.005, 0.005]),
        ],
    )
    def test_bad_config_value_exits_2_naming_the_key(
        self, capsys, tmp_path, monkeypatch, key, value
    ):
        monkeypatch.delenv("SEED", raising=False)
        raw = {
            "theta0": 0.68,
            "b": 0.1,
            "alpha": 1.0,
            "beta": 4.1,
            "h_values": [0.005],
            "n_schedule": [10],
            "replications": 1,
            "quantile_level": 0.5,
            "master_seed": 99,
            "rules": ["NVB"],
        }
        raw[key] = value
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(raw), encoding="utf-8")
        code, _, err = run_cli(
            capsys, "experiment", "--config", str(cfg), "--out", str(tmp_path / "run")
        )
        assert code == 2
        assert re.search(rf"\b{key}\b", err), err
        assert not (tmp_path / "run.csv").exists()

    def test_requires_some_configuration(self, capsys):
        code, _, err = run_cli(capsys, "experiment")
        assert code == 2
        assert "--paper-defaults" in err

    def test_jobs_below_one_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "experiment", "--paper-defaults", "--replications", "1", "--jobs", "0",
            "--out", str(tmp_path / "run"),
        )
        assert code == 2
        assert "jobs" in err
        assert not (tmp_path / "run.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--config", "x.json"],
        ["check", "--seed", "1"],
        ["check", "--out", "x"],
        ["check", "--jobs", "2"],
        ["fit", "--n", "10", "--theta0", "0.68", "--jobs", "2"],
        ["fit", "--n", "10", "--theta0", "0.68", "--out", "x"],
        ["decide", "--rule", "nvb", "--n", "10", "--theta0", "0.68", "--jobs", "2"],
        ["decide", "--rule", "nvb", "--n", "10", "--theta0", "0.68", "--out", "x"],
    ],
)
def test_flags_a_command_would_ignore_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestCheck:
    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert re.search(r"kl-decomposition\s+residual=", out)
        assert out.count("PASS") == 8 + len(HARD_KL_CELLS)
        assert "FAIL" not in out

    def test_hard_kl_cells_outgrow_1e_6_at_128_and_96_nodes_and_pass_at_the_defaults(self):
        # With 128- and 96-node sums every cell reads above an absolute 1e-6,
        # and the b = 0.9 cell above its own tolerance.
        for a, cell in HARD_KL_CELLS:
            residual, tolerance = check_hard_kl_cell(a, cell)
            assert residual <= tolerance
            model, data, grid, q = posterior_cell(**cell)
            coarse = kl_decomposition_check(
                a, q, data, model, grid, node_count=128, reference_node_count=96
            )
            assert coarse > (tolerance if cell["b"] == 0.9 else 1e-6)

    def test_log_risk_nodes_check_appears_passes_and_fails_at_48_nodes(self, capsys, monkeypatch):
        import newsvb.cli as cli

        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        line = re.search(r"log-risk-nodes\s+residual=(\S+) tolerance=(\S+)\s+(\w+)", out)
        assert line is not None and line.group(3) == "PASS"
        assert 0.0 < float(line.group(1)) <= float(line.group(2)) == 2e-4
        # Fewer nodes for the fits' sum: the error bar outgrows its tolerance.
        monkeypatch.setattr(cli, "NODE_COUNT", 48)
        code, out, _ = run_cli(capsys, "check")
        assert code == 1
        assert re.search(r"log-risk-nodes\s+residual=.*FAIL", out)
        assert out.count("FAIL") == 1

    def test_calibrated_hessian_check_appears_and_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        for name in ("calibrated-hessian", "calibrated-action-derivatives"):
            line = re.search(name + r"\s+residual=(\S+) tolerance=(\S+)\s+(\w+)", out)
            assert line is not None, name
            assert line.group(3) == "PASS"
            assert float(line.group(1)) <= float(line.group(2)) == 1e-5

    def test_calibrated_saddle_check_appears_and_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        line = re.search(r"calibrated-saddle\s+residual=(\S+) tolerance=(\S+)\s+(\w+)", out)
        assert line is not None and line.group(3) == "PASS"
        assert float(line.group(1)) <= float(line.group(2)) == 1e-4

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda o: replace(o, action=o.action + 1e-3),
            lambda o: replace(
                o,
                inner_fit=replace(
                    o.inner_fit, envelope_curvature=1.01 * o.inner_fit.envelope_curvature
                ),
            ),
            lambda o: replace(o, inner_fit=replace(o.inner_fit, envelope_curvature=-1.0)),
        ],
        ids=["action", "curvature", "certificate"],
    )
    def test_calibrated_saddle_check_fails_on_a_corrupted_decide(
        self, corrupt, capsys, monkeypatch
    ):
        import newsvb.cli as cli

        decide = cli.lcvb_decide
        monkeypatch.setattr(cli, "lcvb_decide", lambda *args: corrupt(decide(*args)))
        code, out, _ = run_cli(capsys, "check")
        assert code == 1
        assert re.search(r"calibrated-saddle\s+residual=.*FAIL", out)
        assert out.count("FAIL") == 1

    def test_injected_fault_fails(self, capsys, monkeypatch):
        import newsvb.cli as cli

        monkeypatch.setattr(cli, "check_quantile", lambda: (1.0, 0.0))
        code, out, _ = run_cli(capsys, "check")
        assert code == 1
        assert re.search(r"quantile-nearest-rank\s+residual=.*FAIL", out)

    def test_package_and_check_load_no_scipy(self):
        # A jobs=1 run must not load the process pool either, and the
        # quadrature tables need no eigensolver from numpy.polynomial.
        script = (
            "import sys, newsvb, newsvb.cli\n"
            "assert newsvb.cli.main(['check']) == 0\n"
            "config = newsvb.reference_config(\n"
            "    replications=1, n_schedule=(10,), h_values=(0.005,))\n"
            "newsvb.run_experiment(config, jobs=1)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n"
        )
        src = str(Path(newsvb.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip().splitlines()[-3:] == ["[]", "[]", "[]"]


class TestExitCodes:
    def test_numerical_failure_maps_to_exit_3(self, capsys, monkeypatch):
        import newsvb.cli as cli
        from newsvb.numerics import NumericalError

        def explode(*args, **kwargs):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "build_posterior", explode)
        code, _, err = run_cli(capsys, "fit", "--n", "10", "--theta0", "0.68")
        assert code == 3
        assert "numerical failure" in err

    # A subnormal demand sum: the posterior's mode and the plain fit's start
    # both leave the float range, so every command fails the same way.
    @pytest.mark.parametrize(
        "argv",
        [["fit"], ["decide", "--rule", "nvb"], ["decide", "--rule", "lcvb"],
         ["decide", "--rule", "bayes"]],
        ids=["fit", "nvb", "lcvb", "bayes"],
    )
    def test_a_subnormal_sum_is_a_numerical_failure_under_every_rule(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--values", "0,1e-320")
        assert code == 3
        assert "numerical failure" in err and out == ""

    # One demand of 0.01: every rule's psi root starts inside [0, 50], where
    # the level log(h*W/(b+h)) ~ -688.5 of h = 1e-300 is below log(float
    # min/eps). LCVB fails at its NVB start.
    @pytest.mark.parametrize("rule", ["nvb", "lcvb", "bayes"])
    def test_a_level_below_the_floor_exits_3_in_one_line(self, capsys, rule):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "decide", "--rule", rule, "--values", "0.01",
                                     "--h", "1e-300")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ") and "psi's level" in err
        assert err.count("\n") == 1

    # One demand of 1e-300: the plain fit's q (mu ~ 346, sigma ~ 26) puts its
    # top Gauss-Hermite rate past the float range, which NVB, and LCVB at its
    # NVB start, refuse before any exp.
    @pytest.mark.parametrize("rule", ["nvb", "lcvb"])
    def test_a_q_past_the_float_range_exits_3_in_one_line(self, capsys, rule):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(capsys, "decide", "--rule", rule, "--values", "1e-300")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure: ")
        assert "float range at mu=346.093, sigma=25.9798" in err
        assert err.count("\n") == 1

    # Sizes that malloc refuses at once; never a size that could be allocated.
    @pytest.mark.parametrize(
        "argv,config",
        [
            (["fit", "--n", "10000000000000", "--theta0", "1"], None),
            (["decide", "--rule", "nvb"], {"theta0": 1.0, "n": 10**13}),
            (["experiment"], {"n_schedule": [10, 10**13]}),
            (["experiment", "--jobs", "2"], {"n_schedule": [10, 10**13], "replications": 2}),
        ],
        ids=["fit", "decide", "experiment", "experiment-pool"],
    )
    def test_a_sample_past_memory_exits_2_in_one_line(
        self, capsys, tmp_path, monkeypatch, argv, config
    ):
        monkeypatch.delenv("SEED", raising=False)
        if argv[0] == "experiment":
            config = {
                **reference_config(h_values=(0.005,), replications=1).to_dict(),
                **config,
            }
            argv = argv + ["--out", str(tmp_path / "run")]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("config error: not enough memory: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run.csv").exists()

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_env_seed_reaches_experiment_master_seed(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "31337")
        code, _, _ = run_cli(
            capsys,
            "experiment", "--paper-defaults", "--replications", "1",
            "--out", str(tmp_path / "env"),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "env.manifest.json").read_text())
        assert manifest["seed"] == 31337

    def test_closed_stdout_exits_141_after_writing_results(self, capsys, tmp_path, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(
            ["experiment", "--paper-defaults", "--replications", "1",
             "--out", str(tmp_path / "run")]
        )
        assert code == 141
        assert capsys.readouterr().err == ""
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run.manifest.json").exists()

    def test_reader_closing_the_pipe_leaves_no_traceback(self, tmp_path):
        src = str(Path(newsvb.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "newsvb.cli", "check"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        process.stdout.close()  # the reader leaves before the first line
        err = process.stderr.read()
        assert process.wait() == 141
        assert err == b""
