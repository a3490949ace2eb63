"""Command-line interface: fit, decide, experiment, check.

Exit codes: 0 success, 1 check-property failure, 2 configuration error
(a sample too large for memory included), 3 numerical failure, 141 stdout
closed by its reader (as a shell reports SIGPIPE). Seed precedence: --seed
flag, then the SEED environment variable, then the config file, then
built-in defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import fields
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .decisions import _lcvb_scan, lcvb_decide, nvb_decide, optimality_gap
from .experiment import (
    ExperimentConfig,
    _integer,
    _items,
    _number,
    estimate_rate,
    nearest_rank_quantile,
    reference_config,
    run_experiment,
    write_results,
)
from .model import (
    NewsvendorModel,
    NewsvendorRisk,
    Observations,
    expected_risk,
    sample_demand,
    true_optimal_action,
)
from .numerics import NumericalError
from .oracle import bayes_decision, build_posterior, mle
from .vb import (
    NODE_COUNT,
    LogNormalVariational,
    _lcvb_objective,
    _log_risk_term,
    calibrated_objective,
    elbo,
    elbo_gradient,
    fit_lcvb,
    fit_nvb,
    kl_decomposition_check,
    posterior_kl,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _path(key: str, value) -> str:
    if not isinstance(value, str):
        raise ValueError(f"config key {key} must be a file path string, got {value!r}")
    return value


# How ``fit`` and ``decide`` read each config-file key.
_FIT_DECIDE_READERS = {
    "theta0": _number,
    "h": _number,
    "b": _number,
    "alpha": _number,
    "beta": _number,
    "a_lo": _number,
    "a_hi": _number,
    "n": _integer,
    "seed": _integer,
    "values": lambda key, value: value if isinstance(value, str) else _items(key, value, _number),
    "data": _path,
}
_MODEL_DEFAULTS = {"h": 0.005, "b": 0.1, "alpha": 1.0, "beta": 4.1, "a_lo": 0.0, "a_hi": 50.0}


def _shared_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, help="JSON config file (strict keys)")
    parser.add_argument("--seed", type=int, help="override every other seed source")
    parser.add_argument("--verbose", action="store_true", help="debug-level logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="newsvb",
        description="Variational Bayes decision rules for the data-driven newsvendor",
    )
    parser.add_argument("--version", action="version", version=f"newsvb {__version__}")
    commands = parser.add_subparsers(dest="command", metavar="command")

    fit = commands.add_parser("fit", help="fit a variational posterior to demand data")
    _shared_flags(fit)
    _data_model_flags(fit)
    fit.add_argument("--calibrate", type=float, metavar="A", help="loss-calibrated fit at action A")
    fit.set_defaults(handler=cmd_fit)

    decide = commands.add_parser("decide", help="compute a stocking decision")
    _shared_flags(decide)
    _data_model_flags(decide)
    decide.add_argument(
        "--rule", choices=["nvb", "lcvb", "bayes"], required=True, help="decision rule"
    )
    decide.set_defaults(handler=cmd_decide)

    experiment = commands.add_parser(
        "experiment", help="run the optimality-gap consistency experiment"
    )
    _shared_flags(experiment)
    experiment.add_argument("--out", type=Path, help="output stem for generated files")
    experiment.add_argument("--jobs", type=int, default=1, help="worker processes")
    experiment.add_argument(
        "--paper-defaults",
        action="store_true",
        help="use the built-in reference configuration (theta0=0.68, b=0.1, "
        "inverse-gamma(1, 4.1) prior, h=0.001..0.009, median gap)",
    )
    experiment.add_argument("--replications", type=int, help="number of sample paths")
    experiment.add_argument("--quantile", type=float, help="gap quantile level in (0, 1)")
    experiment.set_defaults(handler=cmd_experiment)

    check = commands.add_parser("check", help="run the numerical identity suite")
    check.add_argument("--verbose", action="store_true", help="debug-level logging")
    check.set_defaults(handler=cmd_check)
    return parser


def _data_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--values", help="inline comma-separated demand observations")
    parser.add_argument("--data", type=Path, help="file with one demand value per line")
    parser.add_argument("--n", type=int, help="synthetic sample size (needs --theta0)")
    parser.add_argument("--theta0", type=float, help="true exponential demand rate")
    parser.add_argument("--h", type=float, help="holding cost per unit (default 0.005)")
    parser.add_argument("--b", type=float, help="backorder cost per unit (default 0.1)")
    parser.add_argument("--alpha", type=float, help="prior shape (default 1.0)")
    parser.add_argument("--beta", type=float, help="prior rate (default 4.1)")
    parser.add_argument("--a-lo", type=float, dest="a_lo", help="decision interval lower end")
    parser.add_argument("--a-hi", type=float, dest="a_hi", help="decision interval upper end")


def _load_config_file(path: Path | None, allowed: set[str]) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown config key: {sorted(unknown)[0]}")
    return raw


def _env_seed() -> int | None:
    raw = os.environ.get("SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SEED environment variable is not an integer: {raw!r}") from None


def _resolve_seed(args, file_cfg: dict, default: int) -> int:
    if args.seed is not None:
        return args.seed
    env = _env_seed()
    if env is not None:
        return env
    # fit/decide read the file through their readers; from_dict checks master_seed.
    for key in ("seed", "master_seed"):
        if key in file_cfg:
            return file_cfg[key]
    return default


def _merged(args, file_cfg: dict, key: str, default=None):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        return file_cfg[key]
    return default


def _parse_inline_values(text: str) -> Observations:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad inline demand value: {exc}") from exc
    return Observations(values)


def _read_values_file(path: Path) -> Observations:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read data file {path}: {exc}") from exc
    values = []
    for line in text.splitlines():
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            values.append(float(stripped))
        except ValueError:
            raise ValueError(f"bad demand value in {path}: {stripped!r}") from None
    return Observations(values)


def _resolve_model_and_data(args) -> tuple[NewsvendorModel, Observations, int]:
    raw = _load_config_file(args.config, set(_FIT_DECIDE_READERS))
    file_cfg = {key: _FIT_DECIDE_READERS[key](key, value) for key, value in raw.items()}
    model = NewsvendorModel(
        h=_merged(args, file_cfg, "h", _MODEL_DEFAULTS["h"]),
        b=_merged(args, file_cfg, "b", _MODEL_DEFAULTS["b"]),
        theta0=_merged(args, file_cfg, "theta0"),
        alpha=_merged(args, file_cfg, "alpha", _MODEL_DEFAULTS["alpha"]),
        beta=_merged(args, file_cfg, "beta", _MODEL_DEFAULTS["beta"]),
        action_interval=(
            _merged(args, file_cfg, "a_lo", _MODEL_DEFAULTS["a_lo"]),
            _merged(args, file_cfg, "a_hi", _MODEL_DEFAULTS["a_hi"]),
        ),
    )
    seed = _resolve_seed(args, file_cfg, default=0)
    inline = _merged(args, file_cfg, "values")
    data_path = _merged(args, file_cfg, "data")
    n = _merged(args, file_cfg, "n")
    if inline is not None:
        data = _parse_inline_values(inline) if isinstance(inline, str) else Observations(inline)
    elif data_path is not None:
        data = _read_values_file(Path(data_path))
    elif n is not None:
        if model.theta0 is None:
            raise ValueError("synthetic data needs --theta0")
        data = sample_demand(model.theta0, n, np.random.default_rng(seed))
    else:
        raise ValueError("provide demand data via --values, --data, or --n for synthetic draws")
    return model, data, seed


def cmd_fit(args) -> int:
    model, data, _ = _resolve_model_and_data(args)
    grid = build_posterior(data, model)
    if args.calibrate is not None:
        q, diag = fit_lcvb(args.calibrate, data, model)
        objective = calibrated_objective(args.calibrate, q, data, model, grid)
        rule = f"loss-calibrated fit at a={args.calibrate:.6g}"
    else:
        q, diag = fit_nvb(data, model)
        objective = None
        rule = "plain variational fit"
    kl = posterior_kl(q, data, model, grid)
    theta_hat = mle(data)
    print(f"rule                {rule}")
    print(f"n                   {data.n}")
    print(f"mu                  {q.mu:.10g}")
    print(f"sigma               {q.sigma:.10g}")
    print(f"mean rate E_q[th]   {q.mean_theta():.10g}")
    # 1/sqrt(n I(theta_hat)) = theta_hat/sqrt(n), with I(theta) = 1/theta^2: the
    # scale the posterior should shrink at, free of 1/theta^2's overflow.
    print(f"asymptotic rate sd  {theta_hat / math.sqrt(data.n):.10g}")
    print(f"elbo                {elbo(q, data, model):.10g}")
    print(f"log evidence        {grid.log_evidence:.10g}")
    print(f"KL(q || posterior)  {kl:.10g}")
    if objective is not None:
        print(f"objective value     {objective.value:.10g}")
        print(f"  kl_term           {objective.kl_term:.10g}")
        print(f"  log_risk_term     {objective.log_risk_term:.10g}")
    print(
        f"fit: iterations={diag.iterations} grad_norm={diag.final_gradient_norm:.3e} "
        f"converged={diag.converged}"
    )
    return EXIT_OK


def cmd_decide(args) -> int:
    model, data, _ = _resolve_model_and_data(args)
    rule = args.rule
    if rule == "nvb":
        outcome = nvb_decide(data, model)
        value = outcome.objective_value
    elif rule == "lcvb":
        outcome = lcvb_decide(data, model)
        # The decide needs no evidence; the F it reports subtracts the grid's.
        grid = build_posterior(data, model)
        value = calibrated_objective(outcome.action, outcome.q, data, model, grid).value
    else:
        grid = build_posterior(data, model)
        outcome = bayes_decision(grid, model)
        value = outcome.objective_value
    print(f"rule                {outcome.rule.value}")
    print(f"n                   {data.n}")
    print(f"action              {outcome.action:.10g}")
    print(f"objective value     {value:.10g}")
    print(f"probes              {outcome.probe_count}")
    if outcome.inner_fit is not None:
        print(
            f"fit: iterations={outcome.inner_fit.iterations} "
            f"grad_norm={outcome.inner_fit.final_gradient_norm:.3e} "
            f"converged={outcome.inner_fit.converged}"
        )
    if model.theta0 is not None:
        gap_action, gap_regret = optimality_gap(outcome, model)
        print(f"true optimum        {true_optimal_action(model):.10g}")
        print(f"gap_action          {gap_action:.10g}")
        print(f"gap_regret          {gap_regret:.10g}")
    return EXIT_OK


def _experiment_config(args) -> ExperimentConfig:
    file_cfg = _load_config_file(args.config, {f.name for f in fields(ExperimentConfig)})
    if args.paper_defaults:
        merged = reference_config().to_dict()
        merged.update(file_cfg)
    elif file_cfg:
        merged = dict(file_cfg)
    else:
        raise ValueError("provide --paper-defaults or a --config file for the experiment")
    if args.replications is not None:
        merged["replications"] = args.replications
    if args.quantile is not None:
        merged["quantile_level"] = args.quantile
    merged["master_seed"] = _resolve_seed(args, file_cfg, default=merged.get("master_seed", 0))
    return ExperimentConfig.from_dict(merged)


def cmd_experiment(args) -> int:
    config = _experiment_config(args)
    started_at = datetime.now(timezone.utc).isoformat()
    start = time.perf_counter()
    curves = run_experiment(config, jobs=args.jobs)
    duration = time.perf_counter() - start
    stem = args.out if args.out is not None else Path("experiment")
    csv_path, manifest_path = write_results(
        curves, stem, config, started_at=started_at, duration_seconds=duration
    )
    print(f"wrote {csv_path} and {manifest_path} in {duration:.1f}s")
    header = "rule    h       " + "".join(f"n={n:<10d}" for n in config.n_schedule)
    print(header)
    for curve in curves:
        cells = "".join(
            "missing   " if p.gap_action_q is None else f"{p.gap_action_q:<10.4f}"
            for p in curve.points
        )
        line = f"{curve.rule.value:<7} {curve.h:<7.3f} {cells}"
        try:
            line += f"  rate~{estimate_rate(curve):.2f}"
        except ValueError:
            pass
        print(line)
    failures = sum(p.failures for curve in curves for p in curve.points)
    if failures:
        print(f"warning: {failures} rule failures recorded across cells", file=sys.stderr)
    return EXIT_OK


def _check_dataset():
    model = NewsvendorModel(h=0.005, b=0.1, theta0=0.68, alpha=1.0, beta=4.1)
    data = sample_demand(model.theta0, 50, np.random.default_rng(20))
    grid = build_posterior(data, model)
    return model, data, grid


def probe_members(rng, theta_hat: float, count: int):
    mus = math.log(theta_hat) + rng.uniform(-1.5, 1.5, size=count)
    sigmas = rng.uniform(0.05, 1.0, size=count)
    return [LogNormalVariational(float(m), float(s)) for m, s in zip(mus, sigmas)]


# Cells whose divergence-identity residual outgrows an absolute 1e-6, each
# checked on its own line within 1e-5*(1 + KL(q || posterior)): a large KL
# at n = 755 (~1,700), and wide members at a large action and small h at
# n = 1, where E_q[log G] needs the check's 256- and 192-node sums (b = 0.9
# failed at 128 and 96). Each entry is an action and its ``posterior_cell``.
HARD_KL_CELLS = (
    (23.1, dict(n=755, seed=3, theta=0.2, h=0.001, b=0.3, alpha=4.7, beta=8.0,
                offset=0.95, sigma=1.0)),
    (32.1, dict(n=1, seed=6, theta=1.0, h=0.001, b=0.3, alpha=1.0, beta=1.0,
                offset=-0.5, sigma=1.0)),
    (32.1, dict(n=1, seed=11, theta=1.0, h=0.001, b=0.9, alpha=1.0, beta=1.0,
                offset=0.0, sigma=1.0)),
)


def posterior_cell(n, seed, theta, h, b, alpha, beta, offset, sigma):
    """A model, ``n`` demands drawn at rate ``theta`` from ``seed``, their
    posterior grid and a member q whose mu is ``offset`` from the log of the
    maximum-likelihood rate."""
    model = NewsvendorModel(h=h, b=b, theta0=None, alpha=alpha, beta=beta)
    data = sample_demand(theta, n, np.random.default_rng(seed))
    q = LogNormalVariational(math.log(mle(data)) + offset, sigma)
    return model, data, build_posterior(data, model), q


# Each check returns (worst residual, tolerance); acceptance criteria 4, 3, 6 call these three.
def check_kl_decomposition() -> tuple[float, float]:
    model, data, grid = _check_dataset()
    rng = np.random.default_rng(62)
    members = probe_members(rng, data.n / data.sum_s, 100)
    actions = rng.uniform(model.action_lo, model.action_hi, size=100)
    residual = max(
        kl_decomposition_check(float(a), q, data, model, grid)
        for a, q in zip(actions, members)
    )
    return residual, 1e-6


def check_hard_kl_cell(a: float, cell: dict) -> tuple[float, float]:
    """The identity's residual at action ``a`` on one ``HARD_KL_CELLS`` cell,
    and its tolerance 1e-5*(1 + KL(q || posterior))."""
    model, data, grid, q = posterior_cell(**cell)
    tolerance = 1e-5 * (1.0 + posterior_kl(q, data, model, grid))
    return kl_decomposition_check(a, q, data, model, grid), tolerance


def check_log_risk_nodes() -> tuple[float, float]:
    """The fits' E_q[log G] at ``NODE_COUNT`` Gauss-Hermite nodes against the
    same sum at 128, q's quadrature error bar, on the kl-decomposition-n1-b0.9
    cell, where it converges slowly (1.2e-4 there; 48 nodes read 3.3e-4)."""
    a, cell = HARD_KL_CELLS[2]
    model, _, _, q = posterior_cell(**cell)
    risk = NewsvendorRisk(model.h, model.b)
    value, reference = (
        _log_risk_term(a, q.mu, math.log(q.sigma), risk, nodes)[0] for nodes in (NODE_COUNT, 128)
    )
    return abs(value - reference), 2e-4


def check_jensen_bound() -> tuple[float, float]:
    model, data, grid = _check_dataset()
    rng = np.random.default_rng(61)
    members = probe_members(rng, data.n / data.sum_s, 100)
    actions = rng.uniform(model.action_lo, model.action_hi, size=100)
    worst = -math.inf
    for a, q in zip(actions, members):
        value = calibrated_objective(float(a), q, data, model, grid).value
        bound = math.log(expected_risk(float(a), grid.nodes, grid.normalized_weights, model))
        worst = max(worst, value - bound)
    return worst, 1e-8


def _central_differences(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """df/dx by central differences: entry [..., j] differentiates along x[j]."""
    shifts = step * np.eye(x.size)
    return np.stack([np.subtract(f(x + e), f(x - e)) / (2 * step) for e in shifts], axis=-1)


def _relative_error(analytic, numeric) -> float:
    analytic = np.asarray(analytic)
    return float(np.linalg.norm(analytic - numeric)) / max(float(np.linalg.norm(analytic)), 1.0)


def check_elbo_gradient() -> tuple[float, float]:
    model, data, _ = _check_dataset()
    members = probe_members(np.random.default_rng(64), data.n / data.sum_s, 50)

    def bound(x):
        return elbo(LogNormalVariational(x[0], math.exp(x[1])), data, model)

    worst = 0.0
    for q in members:
        numeric = _central_differences(bound, np.array([q.mu, math.log(q.sigma)]))
        worst = max(worst, _relative_error(elbo_gradient(q, data, model), numeric))
    return worst, 1e-5


def check_calibrated_hessian() -> tuple[float, float]:
    """The calibrated fit's closed-form Hessian against central differences of
    its gradient, on the elbo-gradient check's members at random actions."""
    model, data, _ = _check_dataset()
    members = probe_members(np.random.default_rng(64), data.n / data.sum_s, 50)
    actions = np.random.default_rng(65).uniform(model.action_lo, model.action_hi, size=50)
    risk = NewsvendorRisk(model.h, model.b)
    worst = 0.0
    for a, q in zip(actions, members):
        objective = _lcvb_objective(float(a), data, model, risk)
        x = np.array([q.mu, math.log(q.sigma)])
        numeric = _central_differences(lambda y: objective(y)[1], x)
        worst = max(worst, _relative_error(objective(x)[2], numeric))
    return worst, 1e-5


def check_calibrated_action_derivatives() -> tuple[float, float]:
    """The kernel's F_a and F_aa against central differences of F and F_a in a
    at fixed q, and its F_a_mu and F_a_rho against central differences of F_a
    in (mu, rho), on the calibrated-hessian check's members and actions."""
    model, data, _ = _check_dataset()
    members = probe_members(np.random.default_rng(64), data.n / data.sum_s, 50)
    actions = np.random.default_rng(65).uniform(model.action_lo, model.action_hi, size=50)
    risk = NewsvendorRisk(model.h, model.b)

    def kernel(a, x):
        return _log_risk_term(float(a), float(x[0]), float(x[1]), risk)

    worst = 0.0
    for a, q in zip(actions, members):
        x = np.array([q.mu, math.log(q.sigma)])
        in_a = _central_differences(lambda b: kernel(b[0], x)[0], np.array([a]))
        in_q = _central_differences(lambda y: kernel(a, y)[3][0], x)
        twice_in_a = _central_differences(lambda b: kernel(b[0], x)[3][0], np.array([a]))
        *first, second = kernel(a, x)[3]
        worst = max(
            worst,
            _relative_error(first, np.concatenate([in_a, in_q])),
            _relative_error(second, twice_in_a[0]),
        )
    return worst, 1e-5


def check_calibrated_saddle() -> tuple[float, float]:
    """``lcvb_decide`` on the check dataset against its own fallback, the
    global scan over inner maxima, and its certificate at the answer: F_qq
    negative definite, and the reported V'' positive and equal to central
    differences of F_a at the inner fits' members. The residual is the
    larger of |a - a_ref| and the relative error of V'', or inf where the
    certificate fails."""
    model, data, _ = _check_dataset()
    outcome = lcvb_decide(data, model)
    a, q, curvature = outcome.action, outcome.q, outcome.inner_fit.envelope_curvature
    risk = NewsvendorRisk(model.h, model.b)
    reference = _lcvb_scan(data, model, risk, fit_nvb(data, model)[0])[0]

    def kernel(b: float, member: LogNormalVariational):
        return _lcvb_objective(b, data, model, risk)((member.mu, math.log(member.sigma)))

    def envelope_slope(b):
        b = float(b[0])
        return kernel(b, fit_lcvb(b, data, model, initial=q)[0])[4]  # F_a

    (h00, h01), (_, h11) = kernel(a, q)[2]
    delta = 1e-4
    certified = h00 < 0 < h00 * h11 - h01 * h01 and curvature is not None and curvature > 0
    if not (certified and model.action_lo < a - delta < a + delta < model.action_hi):
        return math.inf, 1e-4
    central = float(_central_differences(envelope_slope, np.array([a]), delta)[0])
    return max(abs(a - reference), abs(curvature - central) / abs(central)), 1e-4


def check_quantile() -> tuple[float, float]:
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(1, 40))
        values = rng.normal(size=size)
        level = float(rng.uniform(0.01, 0.99))
        reference = sorted(values)[min(max(math.ceil(level * size), 1), size) - 1]
        worst = max(worst, abs(nearest_rank_quantile(values, level) - reference))
    return worst, 0.0


def cmd_check(args) -> int:
    checks = [
        ("kl-decomposition", check_kl_decomposition),
        *((f"kl-decomposition-n{c['n']}-b{c['b']:g}", partial(check_hard_kl_cell, a, c))
          for a, c in HARD_KL_CELLS),
        ("log-risk-nodes", check_log_risk_nodes),
        ("jensen-bound", check_jensen_bound),
        ("elbo-gradient", check_elbo_gradient),
        ("calibrated-hessian", check_calibrated_hessian),
        ("calibrated-action-derivatives", check_calibrated_action_derivatives),
        ("calibrated-saddle", check_calibrated_saddle),
        ("quantile-nearest-rank", check_quantile),
    ]
    all_ok = True
    for name, runner in checks:
        residual, tolerance = runner()
        ok = residual <= tolerance
        all_ok = all_ok and ok
        print(f"{name:<30} residual={residual:.3e} tolerance={tolerance:.1e}  "
              f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:  # a sample size past memory, here or in a pool worker
        print(f"config error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # The reader left early (``newsvb experiment ... | head -1``). Send
        # the rest of stdout to devnull so the flush at exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(AttributeError, OSError):  # no file descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
