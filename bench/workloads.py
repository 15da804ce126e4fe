"""The benchmark's four workloads and the layer map that goes with them.

A workload is a fixed sequence of `kacbath` CLI commands on config files that
the benchmark writes from its workload seed.  Sizes are scaled down from the
paper-size runs so that one repetition takes a few seconds on a 2-core
machine and a measured run holds several repetitions; `smoke` sizes exist for
the self-test and exercise the same code paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

DEFAULT_SEED = 20240809
T_GRID = [0.0, 0.5, 1.0, 2.0, 4.0]

# Sizes per workload: (measured, smoke).
N_TRAJ = {"decay_1d": (6000, 400), "decay_3d": (3000, 300), "thermostat_1d": (4096, 512)}
N_WORDS = (100000, 2000)
SUM_RULE_K = 8
ANGLE_K = 8
SPHERE_L, SPHERE_K = 8, 8
ENTROPY_K, ENTROPY_BOOTSTRAP = 4, 50

WORKLOADS = ("decay_1d", "decay_3d", "thermostat_1d", "verify_lab")

# Which end-to-end metric each per-layer metric should move, and on which
# workloads; written down before measuring (see README.md in this directory).
LAYER_MAP = {
    "config.load_ms": ("setup_s", ["decay_1d", "decay_3d", "thermostat_1d", "verify_lab"]),
    "engine.rng_setup_us": ("traj_per_s", ["decay_1d"]),
    "engine.traj_init_us": ("traj_per_s", ["decay_1d"]),
    "model.pair_sample_us": ("traj_per_s", ["decay_1d"]),
    "model.param_sample_us": ("events_per_s", ["decay_3d", "thermostat_1d"]),
    "engine.traj_us": ("events_per_s", ["decay_3d", "thermostat_1d"]),
    "engine.collide_ns": ("events_per_s", ["decay_3d", "thermostat_1d"]),
    "engine.ensemble_s": ("wall_s", ["thermostat_1d"]),
    "engine.pool_speedup": ("wall_s", ["thermostat_1d"]),
    "entropy.estimate_s": ("wall_s", ["decay_3d", "decay_1d"]),
    "entropy.knn_s": ("wall_s", ["decay_3d", "decay_1d"]),
    "entropy.bootstrap_s": ("wall_s", ["decay_3d", "decay_1d"]),
    "entropy.jitter_retries": ("wall_s", ["decay_3d", "decay_1d"]),
    "moments.envelope_ms": ("wall_s", ["decay_1d", "decay_3d"]),
    "moments.decay_check_ms": ("wall_s", ["decay_1d", "decay_3d"]),
    "words.sum_rule_s": ("wall_s", ["verify_lab"]),
    "words.kernel_s": ("wall_s", ["verify_lab"]),
    "words.kernel_gflop_computed": ("wall_s", ["verify_lab"]),
    "words.kernel_gb_computed": ("wall_s", ["verify_lab"]),
    "verification.heat_flow_s": ("wall_s", ["verify_lab"]),
    "verification.nelson_s": ("wall_s", ["verify_lab"]),
    "verification.bl_s": ("wall_s", ["verify_lab"]),
    "discretize.angle_ms": ("wall_s", ["verify_lab"]),
    "discretize.sphere_ms": ("wall_s", ["verify_lab"]),
    "output.write_ms": ("wall_s", ["thermostat_1d"]),
    "output.bytes": ("wall_s", ["thermostat_1d"]),
    "cli.glue_s": ("wall_s", ["decay_1d", "decay_3d", "thermostat_1d", "verify_lab"]),
}

# Layers (modules of src/kacbath) that each workload's commands call.
LAYERS_USED = {
    "decay_1d": {"cli", "config", "engine", "model", "moments", "entropy", "output"},
    "decay_3d": {"cli", "config", "engine", "model", "moments", "entropy", "output"},
    "thermostat_1d": {"cli", "config", "engine", "model", "output"},
    "verify_lab": {"cli", "config", "model", "words", "discretize", "verification", "output"},
}


@dataclass(frozen=True)
class Step:
    """One CLI command of a workload; `out` names its output directory."""

    command: str
    out: str
    config: str | None = None
    workers: int = 1
    extra: tuple[str, ...] = ()

    def argv(self, config_dir, out_dir, seed: int) -> list[str]:
        args = [self.command]
        if self.config is not None:
            args += ["--config", str(config_dir / f"{self.config}.json")]
        args += ["--out", str(out_dir / self.out), "--seed", str(seed), "--workers", str(self.workers)]
        return args + list(self.extra)


@dataclass(frozen=True)
class Plan:
    """A workload resolved for one seed and size."""

    name: str
    seed: int
    smoke: bool
    configs: dict[str, dict]
    steps: tuple[Step, ...]
    # Config whose ensemble the gate re-runs for counts and checks, its worker
    # count, and whether the workload's own commands simulate it.
    ensemble: str
    workers: int
    runs_ensemble: bool
    sum_rule: tuple[tuple[str, int, int], ...] = field(default=())  # (config, k, n_words)

    @property
    def n_traj(self) -> int:
        return self.configs[self.ensemble]["ensemble"]["n_traj"]


def _config(d: int, M: int, N: int, rates: tuple[float, float, float], n_traj: int, seed: int) -> dict:
    lam_s, lam_r, mu = rates
    return {
        "params": {"M": M, "N": N, "lambda_S": lam_s, "lambda_R": lam_r, "mu": mu, "dimension": d},
        "rho": {"type": "uniform"},
        "initial": {"kind": "gaussian_product", "s": 1.0 / math.pi},
        "ensemble": {"n_traj": n_traj, "t_grid": list(T_GRID), "seed": seed},
        "entropy": {"k": ENTROPY_K, "bootstrap": ENTROPY_BOOTSTRAP},
    }


def _sum_rule_config(d: int, M: int, N: int) -> dict:
    return {
        "params": {"M": M, "N": N, "lambda_S": 1.0, "lambda_R": 1.0, "mu": 1.0, "dimension": d},
        "rho": {"type": "uniform"},
    }


def build_plan(name: str, seed: int, smoke: bool = False) -> Plan:
    """Configs and CLI steps of workload `name` for `seed`."""
    size = 1 if smoke else 0
    if name in ("decay_1d", "decay_3d"):
        d = 1 if name == "decay_1d" else 3
        configs = {name: _config(d, 2, 8, (1.0, 1.0, 1.0), N_TRAJ[name][size], seed)}
        steps = (Step("envelope", "envelope", name), Step("entropy", "entropy", name))
        return Plan(name, seed, smoke, configs, steps, ensemble=name, workers=1, runs_ensemble=True)
    if name == "thermostat_1d":
        cfg = _config(1, 1, 200, (0.0, 1.0, 1.0), N_TRAJ[name][size], seed)
        del cfg["entropy"]
        steps = (Step("simulate", "simulate", name, workers=2),)
        return Plan(name, seed, smoke, {name: cfg}, steps, ensemble=name, workers=2, runs_ensemble=True)
    if name == "verify_lab":
        n_words = N_WORDS[size]
        configs = {
            "sum_rule_1d": _sum_rule_config(1, 2, 4),
            "sum_rule_3d": _sum_rule_config(3, 1, 2),
            # Not run by the workload's commands: the engine and entropy layers
            # of its traced run are measured on this smoke-size decay_1d config.
            "reference": _config(1, 2, 8, (1.0, 1.0, 1.0), N_TRAJ["decay_1d"][1], seed),
        }
        rule = ("--k", str(SUM_RULE_K), "--n", str(n_words))
        steps = (
            Step("verify-sum-rule", "sum_rule_1d", "sum_rule_1d", extra=rule),
            Step("verify-sum-rule", "sum_rule_3d", "sum_rule_3d", extra=rule),
            Step("discretize-angle", "angle", "sum_rule_1d", extra=("--K", str(ANGLE_K))),
            Step("discretize-sphere", "sphere", None, extra=("--L", str(SPHERE_L), "--K", str(SPHERE_K))),
            Step("verify-inequalities", "inequalities", None),
        )
        return Plan(name, seed, smoke, configs, steps, ensemble="reference", workers=1,
                    runs_ensemble=False,
                    sum_rule=(("sum_rule_1d", SUM_RULE_K, n_words), ("sum_rule_3d", SUM_RULE_K, n_words)))
    raise ValueError(f"unknown workload {name!r}")

