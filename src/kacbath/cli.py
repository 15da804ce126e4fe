"""Command-line entry point: configuration, orchestration, artifact emission.

Exit codes: 0 when all requested checks pass, 1 on a check failure or runtime
error, 2 on configuration errors and bad arguments, paths that cannot be written
among them, with a JSON diagnostic and no partial outputs: each command returns
its files (CSV (columns, rows) pairs, JSON dicts or writers) before `_run` writes any.
"""
from __future__ import annotations

import argparse
import json
import math
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


class ArgumentParser(argparse.ArgumentParser):
    """A parser whose errors are `ConfigError`s, so that they exit 2 with the JSON diagnostic."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def integer(minimum: int, maximum: float = math.inf):
    """An argparse type: an integer in [minimum, maximum]; its name states the range in argparse's message."""

    def parse(text: str) -> int:
        if not minimum <= int(text) <= maximum:
            raise ValueError(text)
        return int(text)

    parse.__name__ = f"integer in [{minimum}, {maximum}]"
    return parse


def nul_free_path(text: str) -> Path:
    """An argparse type for --out and --config: a path that the file system can take."""
    if "\0" in text:
        raise argparse.ArgumentTypeError(f"no file can be read or created at {text!r}: it holds a NUL byte")
    return Path(text)


def _effective_workers(workers: int) -> int:
    """KACBATH_WORKERS if set, read by the type of --workers; else --workers."""
    env = os.environ.get("KACBATH_WORKERS")
    try:
        return workers if env is None else WORKER_COUNT(env)
    except ValueError:
        raise ConfigError(f"KACBATH_WORKERS: invalid {WORKER_COUNT.__name__} value: {env!r}") from None


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
    try:  # the smoothed law's grid values take the sign rule, and its atoms can round past unit mass
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
    if 2 * args.K * args.L > MAX_SPHERE_NODES:
        raise ConfigError(f"2*K*L = {2 * args.K * args.L} sphere nodes exceed MAX_SPHERE_NODES = {MAX_SPHERE_NODES}")
    rule = build_sphere_quadrature(args.L, args.K)
    report = sphere_rule_report(rule)
    rows = [(x, y, z, w) for (x, y, z), w in zip(rule.nodes.tolist(), rule.weights.tolist())]
    files = {"sphere_quadrature.csv": (["x", "y", "z", "weight"], rows), "sphere_invariants.json": report}
    return files, report, report["pass"]


def cmd_verify_inequalities(args, cfg, seed):
    scoreboard = run_inequality_suite()
    return {"inequalities.json": scoreboard}, scoreboard, scoreboard["pass"]


WORKER_COUNT = integer(1)
SEED = ("--seed", integer(0, MAX_SEED), "override the config seed")
WORKERS = ("--workers", WORKER_COUNT, "worker threads (env KACBATH_WORKERS overrides); only simulate and entropy "
           "use more than one, and the kNN query always uses every CPU")
DEFAULTS = {"--seed": None, "--workers": 1}  # every other flag is required

COMMANDS = {  # name: (function, help, reads_config, flags as (flag, type, help))
    "simulate": (cmd_simulate, "run an ensemble and emit moments.csv", True, (SEED, WORKERS)),
    "entropy": (cmd_entropy, "simulate, estimate entropy decay, emit entropy.csv", True, (SEED, WORKERS)),
    "envelope": (cmd_envelope, "emit the decay envelope and moment predictions", True, (SEED, WORKERS)),
    "verify-sum-rule": (cmd_verify_sum_rule, "Monte Carlo check of the word-average identity", True, (
        SEED, WORKERS,
        ("--k", integer(0, int(MAX_EVENTS_PER_TRAJECTORY)), "word length"),  # a word is one trajectory's collisions
        ("--n", integer(2, MAX_TRAJECTORIES), "number of sampled words"))),  # one word has no standard error
    "discretize-angle": (cmd_discretize_angle, "emit the discrete angle measure and its invariants", True, (
        SEED, WORKERS, ("--K", integer(1, MAX_ANGLE_ORDER), "spectral order (4K+1 atoms)"))),
    "discretize-sphere": (cmd_discretize_sphere, "emit the sphere product rule and its invariants", False, (
        SEED, WORKERS, ("--L", integer(2, MAX_SPHERE_ORDER), "polar Gauss-Legendre order"),
        ("--K", integer(2), "azimuthal half-count; the rule has 2*K*L nodes"))),
    "verify-inequalities": (cmd_verify_inequalities, "run the functional-inequality fixture suite", False,
                            (SEED, WORKERS)),
}


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="kacbath",
        description="Simulate a pair-collision system coupled to a finite heat bath "
        "and verify its moment/entropy decay and algebraic identities.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, reads_config, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if reads_config:
            p.add_argument("--config", type=nul_free_path, required=True, help="JSON experiment config")
        p.add_argument("--out", type=nul_free_path, default=Path("out"), help="output directory")
        for flag, kind, flag_help in flags:
            p.add_argument(flag, type=kind, help=f"{flag_help} (%(type)s)", required=flag not in DEFAULTS,
                          default=DEFAULTS.get(flag))
    return parser


def _run(args) -> int:
    """Workers, --out, config, seed and command; then the file paths, output directory, files, echo and manifest."""
    function, _, reads_config, _ = COMMANDS[args.command]
    args.workers = _effective_workers(args.workers)
    nearest = next(path for path in (args.out, *args.out.parents) if os.path.exists(path))
    if not os.path.isdir(nearest):  # found before any work; mkdir below still meets permissions and races
        raise ConfigError(f"cannot create the output directory {args.out}: {nearest} is not a directory")
    cfg = load_config(args.config) if reads_config else None
    seed = args.seed if args.seed is not None else (cfg.seed if cfg is not None else 0)
    cfg_hash = cfg.config_hash if cfg is not None else "none"
    t0 = time.time()
    files, echo, passed = function(args, cfg, seed)
    paths = [args.out / name for name in files]
    for path in (*paths, args.out / "manifest.json"):  # each must be absent or a regular file
        if os.path.lexists(path) and not os.path.isfile(path):
            raise ConfigError(f"cannot write {path}: not a regular file")
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # no permission, or a file made since the check above
        raise ConfigError(f"cannot create the output directory {args.out}: {exc}") from None
    for path, content in zip(paths, files.values()):
        if callable(content):
            content(path)
        elif isinstance(content, dict):
            write_json(path, content)
        else:
            write_csv(path, *content, cfg_hash, seed)
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
