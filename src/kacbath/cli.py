"""Command-line entry point: configuration, orchestration, artifact emission.

Exit codes: 0 when all requested checks pass, 1 on a check failure or runtime
error, 2 on configuration errors (with machine-readable JSON diagnostics and
no partial outputs).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, load_config
from .discretize import build_discrete_angle_measure, build_sphere_quadrature
from .engine import SimulationError, estimator_rng, simulate_ensemble
from .entropy import decay_check, gaussian_initial_entropy, relative_entropy_to_thermal
from .moments import envelope, envelope_poisson_sum, propagate_moments
from .output import write_csv, write_manifest, write_snapshots
from .verification import angle_measure_report, run_inequality_suite, sphere_rule_report
from .words import mc_sum_rule


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kacbath",
        description="Simulate a pair-collision system coupled to a finite heat bath "
        "and verify its moment/entropy decay and algebraic identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        p.add_argument("--config", type=Path, required=needs_config, help="JSON experiment config")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (env KACBATH_WORKERS overrides)")

    common(sub.add_parser("simulate", help="run an ensemble and emit moments.csv"))
    common(sub.add_parser("entropy", help="simulate, estimate entropy decay, emit entropy.csv"))
    common(sub.add_parser("envelope", help="emit the decay envelope and moment predictions"))
    p = sub.add_parser("verify-sum-rule", help="Monte Carlo check of the word-average identity")
    common(p)
    p.add_argument("--k", type=int, required=True, help="word length")
    p.add_argument("--n", type=int, required=True, help="number of sampled words")
    p = sub.add_parser("discretize-angle", help="emit the discrete angle measure and its invariants")
    common(p)
    p.add_argument("--K", type=int, required=True, help="spectral order (4K+1 atoms)")
    p = sub.add_parser("discretize-sphere", help="emit the sphere product rule and its invariants")
    common(p, needs_config=False)
    p.add_argument("--L", type=int, required=True, help="polar Gauss-Legendre order")
    p.add_argument("--K", type=int, required=True, help="azimuthal half-count")
    common(sub.add_parser("verify-inequalities", help="run the functional-inequality fixture suite"),
           needs_config=False)
    return parser


def _effective_workers(args) -> int:
    env = os.environ.get("KACBATH_WORKERS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"KACBATH_WORKERS must be an integer, got {env!r}") from None
    return max(1, args.workers)


def _effective_seed(args, cfg: ExperimentConfig | None) -> int:
    if args.seed is not None:
        return args.seed
    return cfg.seed if cfg is not None else 0


def _emit_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _finish(out_dir: Path, cfg_hash: str, seed: int, t0: float, files: list[Path]) -> None:
    write_manifest(out_dir, __version__, cfg_hash, seed, time.time() - t0, files)


def _run_ensemble(cfg: ExperimentConfig, seed: int, workers: int):
    if cfg.rho is None and cfg.params.dimension == 1:
        raise ConfigError("simulation in dimension 1 needs a rho section")
    if cfg.initial is None or cfg.ensemble is None:
        raise ConfigError("simulation needs 'initial' and 'ensemble' sections")
    ensemble_cfg = cfg.ensemble
    if seed != ensemble_cfg.seed:
        ensemble_cfg = type(ensemble_cfg)(
            n_traj=ensemble_cfg.n_traj,
            t_grid=ensemble_cfg.t_grid,
            seed=seed,
            record=ensemble_cfg.record,
        )
    return simulate_ensemble(cfg.params, cfg.rho, cfg.initial, ensemble_cfg, workers=workers)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    seed = _effective_seed(args, cfg)
    workers = _effective_workers(args)
    t0 = time.time()
    result = _run_ensemble(cfg, seed, workers)
    args.out.mkdir(parents=True, exist_ok=True)
    files = []
    moments_path = args.out / "moments.csv"
    write_csv(
        moments_path,
        ["t", "mean_v2_system", "se", "n_traj"],
        result.moment_rows(),
        cfg.config_hash,
        seed,
    )
    files.append(moments_path)
    if "system_velocities" in (cfg.ensemble.record if cfg.ensemble else ()):
        snap_path = args.out / "snapshots.bin"
        write_snapshots(snap_path, cfg.params.dimension, cfg.params.M, cfg.params.N, result.snapshots)
        files.append(snap_path)
    _finish(args.out, cfg.config_hash, seed, t0, files)
    return 0


def cmd_entropy(args) -> int:
    cfg = load_config(args.config)
    seed = _effective_seed(args, cfg)
    workers = _effective_workers(args)
    k = int(cfg.entropy_options.get("k", 4))
    n_boot = int(cfg.entropy_options.get("bootstrap", 50))
    bias = cfg.entropy_options.get("bias_margin")
    t0 = time.time()
    result = _run_ensemble(cfg, seed, workers)
    s0 = gaussian_initial_entropy(cfg.initial, cfg.params)
    estimates = [
        relative_entropy_to_thermal(result.cloud(ti), k=k, n_bootstrap=n_boot,
                                    rng=estimator_rng(seed, ti))
        for ti in range(len(result.t_grid))
    ]
    report = decay_check(result.t_grid, estimates, s0, cfg.params, cfg.rho,
                         bias_margin=float(bias) if bias is not None else None)
    args.out.mkdir(parents=True, exist_ok=True)
    entropy_path = args.out / "entropy.csv"
    write_csv(
        entropy_path,
        ["t", "S_hat", "SE", "envelope_times_S0", "pass_flag"],
        [(r.t, r.estimate, r.std_error, r.envelope * s0, int(r.passed)) for r in report.rows],
        cfg.config_hash,
        seed,
    )
    report_path = _emit_json(
        args.out / "entropy_report.json",
        {
            "S0": s0,
            "bias_margin": report.bias_margin,
            "estimator": estimates[0].estimator,
            "rows": [
                {
                    "t": r.t,
                    "S_hat": r.estimate,
                    "SE": r.std_error,
                    "envelope": r.envelope,
                    "bound": r.bound,
                    "margin": r.margin,
                    "pass": r.passed,
                }
                for r in report.rows
            ],
            "pass": report.all_passed,
        },
    )
    _finish(args.out, cfg.config_hash, seed, t0, [entropy_path, report_path])
    return 0 if report.all_passed else 1


def cmd_envelope(args) -> int:
    cfg = load_config(args.config)
    seed = _effective_seed(args, cfg)
    t_grid = cfg.envelope_options.get("t_grid")
    if t_grid is None and cfg.ensemble is not None:
        t_grid = list(cfg.ensemble.t_grid)
    if t_grid is None:
        raise ConfigError("envelope needs 'envelope.t_grid' or an ensemble t_grid")
    init = cfg.initial
    m0 = init.initial_moments(cfg.params) if init is not None else None
    t0 = time.time()
    rows = []
    for t in t_grid:
        t = float(t)
        closed = envelope(t, cfg.params, cfg.rho)
        series = envelope_poisson_sum(t, cfg.params, cfg.rho)
        if m0 is not None:
            pred = propagate_moments(m0, t, cfg.params, cfg.rho)
            rows.append((t, closed, series, pred.m1, pred.m2))
        else:
            rows.append((t, closed, series, float("nan"), float("nan")))
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "envelope.csv"
    write_csv(path, ["t", "envelope", "envelope_poisson_sum", "m1_pred", "m2_pred"],
              rows, cfg.config_hash, seed)
    _finish(args.out, cfg.config_hash, seed, t0, [path])
    return 0


def cmd_verify_sum_rule(args) -> int:
    cfg = load_config(args.config)
    seed = _effective_seed(args, cfg)
    t0 = time.time()
    estimate = mc_sum_rule(args.k, cfg.params, cfg.rho, args.n, estimator_rng(seed, args.k))
    payload = {
        "k": args.k,
        "n_words": args.n,
        "C_km": estimate.predicted,
        "Z_hat_diag_mean": float(np.mean(np.diag(estimate.z_hat))),
        "max_offdiag": estimate.max_offdiagonal,
        "se": float(estimate.std_error.max()),
        "pass": estimate.passed,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = _emit_json(args.out / "sum_rule.json", payload)
    print(json.dumps(payload, sort_keys=True))
    _finish(args.out, cfg.config_hash, seed, t0, [path])
    return 0 if estimate.passed else 1


def cmd_discretize_angle(args) -> int:
    cfg = load_config(args.config)
    if cfg.rho is None:
        raise ConfigError("discretize-angle needs a rho section")
    seed = _effective_seed(args, cfg)
    t0 = time.time()
    measure = build_discrete_angle_measure(cfg.rho, args.K)
    report = angle_measure_report(measure)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "angle_measure.csv"
    write_csv(csv_path, ["theta", "weight"],
              list(zip(measure.thetas.tolist(), measure.weights.tolist())),
              cfg.config_hash, seed)
    json_path = _emit_json(args.out / "angle_invariants.json", report)
    print(json.dumps(report, sort_keys=True))
    _finish(args.out, cfg.config_hash, seed, t0, [csv_path, json_path])
    return 0 if report["pass"] else 1


def cmd_discretize_sphere(args) -> int:
    cfg_hash = "none"
    seed = args.seed if args.seed is not None else 0
    t0 = time.time()
    rule = build_sphere_quadrature(args.L, args.K)
    report = sphere_rule_report(rule)
    args.out.mkdir(parents=True, exist_ok=True)
    rows = [
        (float(x), float(y), float(z), float(w))
        for (x, y, z), w in zip(rule.nodes.tolist(), rule.weights.tolist())
    ]
    csv_path = args.out / "sphere_quadrature.csv"
    write_csv(csv_path, ["x", "y", "z", "weight"], rows, cfg_hash, seed)
    json_path = _emit_json(args.out / "sphere_invariants.json", report)
    print(json.dumps(report, sort_keys=True))
    _finish(args.out, cfg_hash, seed, t0, [csv_path, json_path])
    return 0 if report["pass"] else 1


def cmd_verify_inequalities(args) -> int:
    seed = args.seed if args.seed is not None else 0
    t0 = time.time()
    scoreboard = run_inequality_suite()
    args.out.mkdir(parents=True, exist_ok=True)
    path = _emit_json(args.out / "inequalities.json", scoreboard)
    print(json.dumps(scoreboard, sort_keys=True))
    _finish(args.out, "none", seed, t0, [path])
    return 0 if scoreboard["pass"] else 1


COMMANDS = {
    "simulate": cmd_simulate,
    "entropy": cmd_entropy,
    "envelope": cmd_envelope,
    "verify-sum-rule": cmd_verify_sum_rule,
    "discretize-angle": cmd_discretize_angle,
    "discretize-sphere": cmd_discretize_sphere,
    "verify-inequalities": cmd_verify_inequalities,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stdout)
        return 2
    except SimulationError as exc:
        print(json.dumps({"error": "simulation", "detail": str(exc)}), file=sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
