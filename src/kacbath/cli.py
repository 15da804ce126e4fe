"""Command-line entry point: configuration, orchestration, artifact emission.

Exit codes: 0 when all requested checks pass, 1 on a check failure or runtime
error, 2 on configuration errors, bad arguments and an output directory that
cannot be created among them (with machine-readable JSON diagnostics and
no partial outputs: each command returns its files, as CSV (columns, rows)
pairs, JSON dicts or writers, before `_run` creates the output directory).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (MAX_ANGLE_ORDER, MAX_BUFFER_BYTES, MAX_EVENTS_PER_TRAJECTORY, MAX_SPHERE_NODES,
                     MAX_SPHERE_ORDER, MAX_STATE_COORDINATES, MAX_TRAJECTORIES, ConfigError,
                     ExperimentConfig, load_config)
from .discretize import build_discrete_angle_measure, build_sphere_quadrature
from .engine import MAX_SEED, SimulationError, estimator_rng, result_bytes, simulate_ensemble
from .entropy import decay_check, gaussian_initial_entropy, relative_entropy_to_thermal
from .model import InvalidDistributionError
from .moments import envelope, envelope_poisson_sum, propagate_moments
from .output import write_csv, write_json, write_manifest, write_snapshots
from .verification import angle_measure_report, run_inequality_suite, sphere_rule_report
from .words import mc_sum_rule, sum_rule_bytes

CONFIG_FREE = {"discretize-sphere", "verify-inequalities"}


class ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors are `ConfigError`s, so that they exit 2 with the JSON diagnostic."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def u64(text: str) -> int:
    """A seed: an integer in [0, MAX_SEED]; argparse reports anything else as an invalid u64 value."""
    if not 0 <= int(text) <= MAX_SEED:
        raise ValueError(text)
    return int(text)


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="kacbath",
        description="Simulate a pair-collision system coupled to a finite heat bath "
        "and verify its moment/entropy decay and algebraic identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        p = sub.add_parser(name, help=help)
        if name not in CONFIG_FREE:
            p.add_argument("--config", type=Path, required=True, help="JSON experiment config")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=u64, default=None, help="override the config seed")
        p.add_argument("--workers", default="1",
                       help="worker threads, an integer >= 1 checked by every command (env "
                       "KACBATH_WORKERS overrides); only simulate and entropy use more than one, "
                       "and the kNN query always uses every CPU")
        return p

    add("simulate", "run an ensemble and emit moments.csv")
    add("entropy", "simulate, estimate entropy decay, emit entropy.csv")
    add("envelope", "emit the decay envelope and moment predictions")
    p = add("verify-sum-rule", "Monte Carlo check of the word-average identity")
    p.add_argument("--k", type=int, required=True, help="word length")
    p.add_argument("--n", type=int, required=True, help="number of sampled words (>= 2)")
    p = add("discretize-angle", "emit the discrete angle measure and its invariants")
    p.add_argument("--K", type=int, required=True, help="spectral order (4K+1 atoms)")
    p = add("discretize-sphere", "emit the sphere product rule and its invariants")
    p.add_argument("--L", type=int, required=True, help="polar Gauss-Legendre order")
    p.add_argument("--K", type=int, required=True, help="azimuthal half-count")
    add("verify-inequalities", "run the functional-inequality fixture suite")
    return parser


def _effective_workers(args) -> int:
    """The worker count: KACBATH_WORKERS if set, else --workers; an integer >= 1 or exit 2."""
    env = os.environ.get("KACBATH_WORKERS")
    name, value = ("KACBATH_WORKERS", env) if env is not None else ("--workers", args.workers)
    try:
        workers = int(value)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if workers < 1:
        raise ConfigError(f"{name} must be >= 1, got {workers}")
    return workers


def _require_in_range(args, name: str, minimum: int, maximum: float = float("inf")) -> None:
    if not minimum <= getattr(args, name) <= maximum:
        raise ConfigError(f"--{name} must be in [{minimum}, {maximum:g}], got {getattr(args, name)}")


def _run_ensemble(cfg: ExperimentConfig, seed: int, workers: int):
    if cfg.initial is None or cfg.ensemble is None:
        raise ConfigError("simulation needs 'initial' and 'ensemble' sections")
    coordinates = cfg.params.dimension * cfg.params.n_particles
    if coordinates > MAX_STATE_COORDINATES:
        raise ConfigError(f"d * (M + N) = {coordinates} velocity coordinates per trajectory exceed "
                          f"MAX_STATE_COORDINATES = {MAX_STATE_COORDINATES}")
    ensemble = cfg.ensemble
    need = result_bytes(cfg.params, ensemble.n_traj, len(ensemble.t_grid), "energies" in ensemble.record)
    if need > MAX_BUFFER_BYTES:
        raise ConfigError(f"the ensemble's result arrays would take {need} bytes, above {MAX_BUFFER_BYTES}")
    return simulate_ensemble(cfg.params, cfg.rho, cfg.initial, replace(ensemble, seed=seed), workers=workers)


def cmd_simulate(args, cfg, seed):
    result = _run_ensemble(cfg, seed, args.workers)
    files = {"moments.csv": (["t", "mean_v2_system", "se", "n_traj"], result.moment_rows())}
    if "system_velocities" in cfg.ensemble.record:
        p = cfg.params
        files["snapshots.bin"] = lambda path: write_snapshots(path, p.dimension, p.M, p.N, result.snapshots)
    return files, None, True


def cmd_entropy(args, cfg, seed):
    k, n_boot = cfg.entropy["k"], cfg.entropy["bootstrap"]
    if cfg.ensemble is not None and k >= cfg.ensemble.n_traj:
        raise ConfigError(f"entropy.k = {k} needs n_traj > k, got n_traj = {cfg.ensemble.n_traj}")
    result = _run_ensemble(cfg, seed, args.workers)
    s0 = gaussian_initial_entropy(cfg.initial, cfg.params)
    estimates = [
        relative_entropy_to_thermal(result.cloud(ti), k=k, n_bootstrap=n_boot, rng=estimator_rng(seed, ti))
        for ti in range(len(result.t_grid))
    ]
    report = decay_check(result.t_grid, estimates, s0, cfg.params, cfg.rho)
    rows = [(r["t"], r["S_hat"], r["SE"], r["envelope"] * s0, int(r["pass"])) for r in report["rows"]]
    files = {"entropy.csv": (["t", "S_hat", "SE", "envelope_times_S0", "pass_flag"], rows),
             "entropy_report.json": report}
    return files, None, report["pass"]


def cmd_envelope(args, cfg, seed):
    t_grid = cfg.envelope.get("t_grid")
    if t_grid is None and cfg.ensemble is not None:
        t_grid = cfg.ensemble.t_grid
    if t_grid is None:
        raise ConfigError("envelope needs 'envelope.t_grid' or an ensemble t_grid")
    m0 = cfg.initial.initial_moments(cfg.params) if cfg.initial is not None else None
    rows = []
    for t in t_grid:
        m1 = m2 = float("nan")
        if m0 is not None:
            pred = propagate_moments(m0, t, cfg.params, cfg.rho)
            m1, m2 = pred.m1, pred.m2
        rows.append((t, envelope(t, cfg.params, cfg.rho), envelope_poisson_sum(t, cfg.params, cfg.rho), m1, m2))
    return {"envelope.csv": (["t", "envelope", "envelope_poisson_sum", "m1_pred", "m2_pred"], rows)}, None, True


def cmd_verify_sum_rule(args, cfg, seed):
    _require_in_range(args, "k", 0, MAX_EVENTS_PER_TRAJECTORY)  # a word is one trajectory's collisions
    _require_in_range(args, "n", 2, MAX_TRAJECTORIES)  # one word has no standard error
    if args.k > 0 and cfg.params.total_rate <= 0.0:
        raise ConfigError("words of length k >= 1 need a positive total jump rate")
    need = sum_rule_bytes(cfg.params, args.n, args.k)
    if need > MAX_BUFFER_BYTES:
        raise ConfigError(f"the sum rule's buffers would take {need} bytes, above {MAX_BUFFER_BYTES}")
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
    return {"sum_rule.json": payload}, payload, estimate.passed


def cmd_discretize_angle(args, cfg, seed):
    if cfg.rho is None:
        raise ConfigError("discretize-angle needs a rho section")
    _require_in_range(args, "K", 1, MAX_ANGLE_ORDER)
    try:  # a law within 1e-12 of unit mass can round past it on the grid
        measure = build_discrete_angle_measure(cfg.rho, args.K)
    except InvalidDistributionError as exc:
        raise ConfigError(f"discretized rho: {exc}") from None
    report = angle_measure_report(measure)
    law = measure.law
    files = {
        "angle_measure.csv": (["theta", "weight"], list(zip(law.atom_thetas.tolist(), law.atom_weights.tolist()))),
        "angle_invariants.json": report,
    }
    return files, report, report["pass"]


def cmd_discretize_sphere(args, cfg, seed):
    _require_in_range(args, "L", 2, MAX_SPHERE_ORDER)
    _require_in_range(args, "K", 2, MAX_SPHERE_NODES // (2 * args.L))  # 2*K*L nodes
    rule = build_sphere_quadrature(args.L, args.K)
    report = sphere_rule_report(rule)
    rows = [(x, y, z, w) for (x, y, z), w in zip(rule.nodes.tolist(), rule.weights.tolist())]
    files = {"sphere_quadrature.csv": (["x", "y", "z", "weight"], rows), "sphere_invariants.json": report}
    return files, report, report["pass"]


def cmd_verify_inequalities(args, cfg, seed):
    scoreboard = run_inequality_suite()
    return {"inequalities.json": scoreboard}, scoreboard, scoreboard["pass"]


COMMANDS = {
    "simulate": cmd_simulate,
    "entropy": cmd_entropy,
    "envelope": cmd_envelope,
    "verify-sum-rule": cmd_verify_sum_rule,
    "discretize-angle": cmd_discretize_angle,
    "discretize-sphere": cmd_discretize_sphere,
    "verify-inequalities": cmd_verify_inequalities,
}


def _run(args) -> int:
    """Workers, config, seed and command; then the output directory, files, echo and manifest."""
    args.workers = _effective_workers(args)
    cfg = None if args.command in CONFIG_FREE else load_config(args.config)
    seed = args.seed if args.seed is not None else (cfg.seed if cfg is not None else 0)
    cfg_hash = cfg.config_hash if cfg is not None else "none"
    t0 = time.time()
    files, echo, passed = COMMANDS[args.command](args, cfg, seed)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path under one
        raise ConfigError(f"cannot create the output directory {args.out}: {exc}") from None
    paths = []
    for name, content in files.items():
        path = args.out / name
        if callable(content):
            content(path)
        elif isinstance(content, dict):
            write_json(path, content)
        else:
            write_csv(path, *content, cfg_hash, seed)
        paths.append(path)
    if echo is not None:
        print(json.dumps(echo, sort_keys=True))
    write_manifest(args.out, __version__, cfg_hash, seed, time.time() - t0, paths)
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(build_parser().parse_args(argv))
    except ConfigError as exc:
        print(json.dumps({"error": "config", "detail": str(exc)}), file=sys.stdout)
        return 2
    except SimulationError as exc:
        print(json.dumps({"error": "simulation", "detail": str(exc)}), file=sys.stdout)
        return 1


if __name__ == "__main__":
    sys.exit(main())
