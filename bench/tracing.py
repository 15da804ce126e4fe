"""Traced run: spans around the layer calls of `kacbath.cli`, kept in memory.

`instrumented` replaces, for the length of a `with` block, every function of
another kacbath module that `kacbath.cli` has imported, and the three suites
that `verification.run_inequality_suite` calls, with a wrapper that records a
span around the call.  The traced run then calls `kacbath.cli.main` with the
workload's argument lists, so the calls, their order and the outputs are the
program's own.  The probes below time single layers alone.  Spans live in the
benchmark's files only; nothing inside the program is changed on disk.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

import gate as g
from drive import run_step
from workloads import ANGLE_K, LAYERS_USED, SPHERE_K, SPHERE_L, SUM_RULE_K, build_plan

from kacbath import cli, verification
from kacbath.config import load_config
from kacbath.discretize import build_discrete_angle_measure, build_sphere_quadrature
from kacbath.engine import estimator_rng, simulate_ensemble, simulate_trajectory, trajectory_rng
from kacbath.entropy import decay_check, gaussian_initial_entropy, relative_entropy_to_thermal
from kacbath.model import sample_pairs_array, uniform_sphere
from kacbath.moments import envelope, envelope_poisson_sum, propagate_moments
from kacbath.verification import (
    angle_measure_report,
    run_bl_suite,
    run_heat_flow_suite,
    run_nelson_suite,
    sphere_rule_report,
    standard_bl_data,
)
from kacbath.words import mc_sum_rule, realize_inverse_1d, realize_inverse_3d

SUITES = ("run_nelson_suite", "run_bl_suite", "run_heat_flow_suite")


class Tracer:
    """Spans (name, start, end, parent, run id) recorded in memory.

    A wrapped call also keeps its bound arguments and result under the span
    name, so the probes can reuse what the workload computed.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.calls: dict[str, list[tuple[dict, object]]] = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans), "name": name, "parent": self._open[-1] if self._open else None,
                  "run": self.run_id, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.calls.setdefault(name, []).append((bound.arguments, result))
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child spans."""
        out: dict[str, float] = {}
        for s in self.spans:
            children = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == s["id"])
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - children
        return out


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Span wrappers on the layer functions `kacbath.cli` calls, restored on exit."""
    targets = [(cli, name) for name, obj in vars(cli).items()
               if inspect.isfunction(obj) and obj.__module__.startswith("kacbath.")
               and obj.__module__ != cli.__name__]
    targets += [(verification, name) for name in SUITES]
    saved = [(module, name, getattr(module, name)) for module, name in targets]
    for module, name, fn in saved:
        setattr(module, name, tracer.wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def run_cli(tracer: Tracer, argv: list[str]) -> int | str:
    """One `kacbath.cli.main` call inside a `cli.<command>` span, instrumented."""
    with instrumented(tracer), tracer.span(f"cli.{argv[0]}"):
        return run_step(cli, argv)


# -- layers alone ------------------------------------------------------------

def per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over `repeats` batches of the mean seconds per call of fn(i)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def engine_probes(cfg, seed: int, events_per_traj: float) -> dict:
    """Per-call costs of the pieces of one trajectory, in microseconds."""
    params, rho, init = cfg.params, cfg.rho, cfg.initial
    t_grid = cfg.ensemble.t_grid
    m = max(1, round(events_per_traj))
    calls = 200
    rng = np.random.default_rng(seed)
    rngs = [trajectory_rng(seed, i) for i in range(calls)]
    if params.dimension == 1:
        def params_fn(i):
            return rho.sample(rng, m)
    else:
        def params_fn(i):
            return uniform_sphere(rng, m)
    out = {
        "engine.rng_setup_us": per_call(lambda i: trajectory_rng(seed, i), 5 * calls),
        "engine.traj_init_us": per_call(
            lambda i: simulate_trajectory(params, rho, init, (0.0,), rngs[i]), calls),
        "model.pair_sample_us": per_call(lambda i: sample_pairs_array(params, rng, m), 5 * calls),
        "model.param_sample_us": per_call(params_fn, 5 * calls),
    }
    # Fresh streams per repeat so every timed trajectory is a real one.
    times = []
    for r in range(5):
        streams = [trajectory_rng(seed, r * calls + i) for i in range(calls)]
        t0 = time.perf_counter()
        for s in streams:
            simulate_trajectory(params, rho, init, t_grid, s)
        times.append((time.perf_counter() - t0) / calls)
    out["engine.traj_us"] = statistics.median(times)
    out = {k: v * 1e6 for k, v in out.items()}
    fixed = out["engine.traj_init_us"] + out["model.pair_sample_us"] + out["model.param_sample_us"]
    out["engine.collide_ns"] = (out["engine.traj_us"] - fixed) / events_per_traj * 1e3
    return out


def word_kernel_probe(configs: list, seed: int, k: int, chunk: int) -> dict:
    """realize_inverse_* on one (chunk x k) batch of words per config.

    Operation and byte counts are computed from the update rule, not measured:
    d=1 touches two rows of length n per step (6n flops: 4 mul, 2 add; 2n
    reads and 2n writes of 8 bytes); d=3 touches two 3-row blocks of length
    D=3n (17D flops; 6D reads and 6D writes); both start from an identity
    (n^2 or D^2 writes).
    """
    seconds, flops, nbytes = 0.0, 0, 0
    for cfg in configs:
        params = cfg.params
        n = params.n_particles
        rng = estimator_rng(seed, k)
        i0, j0, _ = sample_pairs_array(params, rng, chunk * k)
        i0, j0 = i0.reshape(chunk, k), j0.reshape(chunk, k)
        if params.dimension == 1:
            p = cfg.rho.sample(rng, chunk * k).reshape(chunk, k)
            fn, width, per_step_flops, per_step_words = realize_inverse_1d, n, 6 * n, 4 * n
        else:
            p = uniform_sphere(rng, chunk * k).reshape(chunk, k, 3)
            fn, width, per_step_flops, per_step_words = realize_inverse_3d, 3 * n, 17 * 3 * n, 12 * 3 * n
        seconds += per_call(lambda _: fn(i0, j0, p, n), 1, repeats=3)
        flops += chunk * k * per_step_flops
        nbytes += chunk * (k * per_step_words + width * width) * 8
    return {"words.kernel_s": (seconds, "s"), "words.kernel_gflop_computed": (flops / 1e9, "GFLOP"),
            "words.kernel_gb_computed": (nbytes / 1e9, "GB")}


def heat_flow_counts() -> dict:
    """Quadrature nodes of the heat-flow suite at its defaults, computed from its rules."""
    defaults = inspect.signature(run_heat_flow_suite).parameters
    t_grid, order = defaults["t_grid"].default, defaults["order"].default
    joint, kernel = 0, 0
    for _, _, datum in standard_bl_data():
        m = datum.ambient_dim
        if m > 2:
            continue
        evaluations = len(t_grid) + 1  # the grid plus the limit time
        joint += evaluations * order ** m
        kernel += evaluations * order ** m * sum(order ** b.shape[0] for b in datum.maps if b.shape[0])
    return {"counts.heat_flow_nodes": joint, "counts.heat_flow_kernel_evals": kernel}


def timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return time.perf_counter() - t0, value


def traced_run(plan, config_dir: Path, work: Path) -> tuple[dict, dict, g.Gate]:
    """Per-layer metrics of `plan`: its CLI commands traced, then layers alone."""
    gate = g.Gate()
    tracer = Tracer(f"{plan.name}-{plan.seed}-{os.getpid()}")
    traced_root = work / "traced"
    codes = [run_cli(tracer, step.argv(config_dir, traced_root, plan.seed)) for step in plan.steps]
    g.check_cli_calls(gate, {"codes": codes}, plan.steps, "traced")
    g.check_outputs(gate, traced_root, plan.steps, "traced")
    layer_spans = [s for s in tracer.spans if not s["name"].startswith("cli.")]

    def spans_or(name, probe):
        """Total of the workload's own spans of `name`, else the layer alone."""
        found = tracer.durations(name)
        return sum(found) if found else timed(probe)[0]

    configs = sorted({s.config for s in plan.steps if s.config is not None})
    paths = [config_dir / f"{c}.json" for c in configs]
    metrics = {"config.load_ms": (per_call(lambda i: load_config(paths[i % len(paths)]), len(paths)) * 1e3, "ms")}

    # engine, model, moments, entropy: on the workload's ensemble config, or on
    # the smoke-size decay_1d reference config for a workload that runs none.
    cfg, ens = g.reference_ensemble(config_dir / f"{plan.ensemble}.json", plan.seed)
    g.check_ensemble(gate, cfg, ens)
    counts = g.ensemble_counts(ens)
    events_per_traj = counts["counts.events_total"] / counts["counts.trajectories"]
    metrics.update({k: (v, k.rsplit("_", 1)[1]) for k, v in engine_probes(cfg, plan.seed, events_per_traj).items()})
    metrics["engine.ensemble_s"] = (spans_or("engine.simulate_ensemble", lambda: simulate_ensemble(
        cfg.params, cfg.rho, cfg.initial, cfg.ensemble, workers=plan.workers)), "s")
    metrics["engine.pool_speedup"] = (pool_probe(gate, plan, work / "pool"), "x")
    metrics.update(entropy_probes(cfg, ens, plan.seed, tracer))

    # words, verification, discretize: the same calls in every workload.
    lab = build_plan("verify_lab", plan.seed, plan.smoke)
    lab_cfgs = []
    for name, _, _ in lab.sum_rule:
        path = work / f"lab_{name}.json"
        path.write_text(json.dumps(lab.configs[name]))
        lab_cfgs.append(load_config(path))
    metrics["words.sum_rule_s"] = (spans_or("words.mc_sum_rule", lambda: [
        mc_sum_rule(k, c.params, c.rho, n, estimator_rng(plan.seed, k))
        for c, (_, k, n) in zip(lab_cfgs, lab.sum_rule)]), "s")
    metrics.update(word_kernel_probe(lab_cfgs, plan.seed, SUM_RULE_K, chunk=20000))
    metrics["verification.heat_flow_s"] = (spans_or("verification.run_heat_flow_suite", run_heat_flow_suite), "s")
    metrics["verification.nelson_s"] = (spans_or("verification.run_nelson_suite", run_nelson_suite), "s")
    metrics["verification.bl_s"] = (spans_or("verification.run_bl_suite", run_bl_suite), "s")
    rho = lab_cfgs[0].rho
    metrics["discretize.angle_ms"] = (per_call(
        lambda i: angle_measure_report(build_discrete_angle_measure(rho, ANGLE_K)), 5) * 1e3, "ms")
    metrics["discretize.sphere_ms"] = (per_call(
        lambda i: sphere_rule_report(build_sphere_quadrature(SPHERE_L, SPHERE_K)), 5) * 1e3, "ms")

    # output and glue: from the workload's own traced commands.
    self_times = tracer.self_times()
    metrics["output.write_ms"] = (sum(s["end"] - s["start"] for s in layer_spans
                                      if s["name"].startswith("output.")) * 1e3, "ms")
    metrics["output.bytes"] = (sum(f.stat().st_size for f in traced_root.rglob("*") if f.is_file()), "B")
    metrics["cli.glue_s"] = (sum(t for name, t in self_times.items() if name.startswith("cli.")), "s")

    counts.update({
        "counts.word_steps": sum(k * n for _, k, n in lab.sum_rule),
        "counts.clouds": len(ens.t_grid),
        "counts.cloud_points": int(ens.n_traj),
        "counts.cloud_dim": int(ens.snapshots.shape[2]),
    })
    counts.update(heat_flow_counts())
    metrics.update({k: (v, "count") for k, v in counts.items()})
    detail = {
        "counts": counts,
        "not_called_by_workload": sorted(m for m in metrics if m.split(".")[0] not in LAYERS_USED[plan.name]
                                         and not m.startswith("counts.")),
        "self_time_s": self_times,
        "spans": tracer.spans,
    }
    return metrics, detail, gate


def pool_probe(gate: g.Gate, plan, work: Path) -> float:
    """`kacbath simulate` on the thermostat_1d config at 1 and at 2 workers.

    Returns the ratio of the two `simulate_ensemble` spans; the two runs'
    outputs must agree byte for byte.
    """
    thermo = build_plan("thermostat_1d", plan.seed, plan.smoke)
    work.mkdir()
    (work / "thermostat_1d.json").write_text(json.dumps(thermo.configs["thermostat_1d"]))
    seconds = {}
    for workers in (1, 2):
        step = dataclasses.replace(thermo.steps[0], out=f"workers{workers}", workers=workers)
        tracer = Tracer(f"pool-{workers}")
        code = run_cli(tracer, step.argv(work, work, plan.seed))
        gate.record(f"pool:{step.out}:exit", code == 0, code=code)
        seconds[workers] = sum(tracer.durations("engine.simulate_ensemble"))
    gate.run("workers:identical", g.check_identical, work / "workers1", work / "workers2")
    return seconds[1] / seconds[2]


def moments_over_grid(cfg, m0) -> None:
    for t in cfg.ensemble.t_grid:
        envelope(t, cfg.params, cfg.rho)
        envelope_poisson_sum(t, cfg.params, cfg.rho)
        propagate_moments(m0, t, cfg.params, cfg.rho)


def entropy_probes(cfg, ens, seed: int, tracer: Tracer) -> dict:
    """Entropy and envelope costs on the ensemble's clouds.

    The workload's own estimator calls, their settings and their time come
    from `tracer`; a workload without them is estimated here with k=4 and
    bootstrap 50.
    """
    calls = tracer.calls.get("entropy.relative_entropy_to_thermal", [])
    k, n_boot = (calls[0][0]["k"], calls[0][0]["n_bootstrap"]) if calls else (4, 50)
    clouds = range(len(ens.t_grid))

    def estimate(bootstrap):
        return [relative_entropy_to_thermal(ens.cloud(ti), k=k, n_bootstrap=bootstrap, rng=estimator_rng(seed, ti))
                for ti in clouds]

    if calls:
        estimates = [result for _, result in calls]
        est_total = sum(tracer.durations("entropy.relative_entropy_to_thermal"))
    else:
        est_total, estimates = timed(lambda: estimate(n_boot))
    knn_total = timed(lambda: estimate(2))[0]
    s0_calls = tracer.calls.get("entropy.gaussian_initial_entropy")
    s0 = s0_calls[0][1] if s0_calls else gaussian_initial_entropy(cfg.initial, cfg.params)
    m0 = cfg.initial.initial_moments(cfg.params)
    n = len(clouds)
    return {
        "entropy.estimate_s": (est_total / n, "s"),
        "entropy.knn_s": (knn_total / n, "s"),
        "entropy.bootstrap_s": ((est_total - knn_total) / n, "s"),
        "entropy.jitter_retries": (sum(bool(e.estimator.get("jittered")) for e in estimates), "count"),
        "moments.envelope_ms": (per_call(lambda i: moments_over_grid(cfg, m0), 20) * 1e3, "ms"),
        "moments.decay_check_ms": (
            per_call(lambda i: decay_check(ens.t_grid, estimates, s0, cfg.params, cfg.rho), 20) * 1e3, "ms"),
    }
