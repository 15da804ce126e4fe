"""Correctness gate: every CLI call and every check is one operation.

An operation fails on a non-zero exit or an exception, a missing output file,
a manifest checksum that does not match its file, a false `pass` flag, a
moment more than 4 SE from `propagate_moments`, a per-kind event total more
than 5 sigma from its Poisson mean, a relative energy drift above
`engine.ENERGY_DRIFT_TOL`, or outputs that differ between two runs that must
be identical.  A failing check is reported, never retried.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from kacbath.config import load_config
from kacbath.engine import ENERGY_DRIFT_TOL, EnsembleConfig, simulate_ensemble
from kacbath.moments import propagate_moments

MOMENT_SE_LIMIT = 4.0
KIND_SIGMA_LIMIT = 5.0

OUTPUTS = {
    "simulate": ("moments.csv", "snapshots.bin"),
    "entropy": ("entropy.csv", "entropy_report.json"),
    "envelope": ("envelope.csv",),
    "verify-sum-rule": ("sum_rule.json",),
    "discretize-angle": ("angle_measure.csv", "angle_invariants.json"),
    "discretize-sphere": ("sphere_quadrature.csv", "sphere_invariants.json"),
    "verify-inequalities": ("inequalities.json",),
}
VERDICTS = {
    "entropy": "entropy_report.json",
    "verify-sum-rule": "sum_rule.json",
    "discretize-angle": "angle_invariants.json",
    "discretize-sphere": "sphere_invariants.json",
    "verify-inequalities": "inequalities.json",
}


class Gate:
    """Ordered record of operations and their outcomes."""

    def __init__(self):
        self.ops: list[dict] = []

    def record(self, name: str, ok: bool, **detail) -> bool:
        self.ops.append({"op": name, "ok": bool(ok), **detail})
        return bool(ok)

    def run(self, name: str, fn, *args) -> None:
        """Record a check function's verdict; an exception in it is a failure."""
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # a crashing check is a failed operation
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        self.record(name, ok, **detail)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(not op["ok"] for op in self.ops)

    def failures(self) -> list[dict]:
        return [op for op in self.ops if not op["ok"]]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def comparable_bytes(path: Path) -> bytes:
    """File content for identity checks; the manifest's wall time is dropped."""
    if path.name != "manifest.json":
        return path.read_bytes()
    manifest = json.loads(path.read_text())
    manifest.pop("wall_time_seconds", None)
    return json.dumps(manifest, sort_keys=True).encode()


def check_manifest(out_dir: Path, command: str):
    expected = set(OUTPUTS[command])
    missing = sorted(name for name in expected | {"manifest.json"} if not (out_dir / name).is_file())
    if missing:
        return False, {"missing": missing}
    listed = json.loads((out_dir / "manifest.json").read_text())["files"]
    bad = sorted(name for name in expected if listed.get(name) != sha256(out_dir / name))
    return not bad and set(listed) == expected, {"bad_checksums": bad, "listed": sorted(listed)}


def check_verdict(out_dir: Path, command: str):
    report = json.loads((out_dir / VERDICTS[command]).read_text())
    return report.get("pass") is True, {"file": VERDICTS[command]}


def check_identical(a: Path, b: Path, names=None):
    """Byte identity of the named files, or of all files, of two output directories."""
    if names is None:
        names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    differing = [n for n in names if not ((a / n).is_file() and (b / n).is_file())
                 or comparable_bytes(a / n) != comparable_bytes(b / n)]
    return not differing, {"differing": differing}


def read_moments_csv(path: Path) -> list[tuple[float, float, float, int]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [(float(t), float(m), float(se), int(n)) for t, m, se, n in
            (ln.split(",") for ln in lines[1:])]


def check_moments(rows, cfg):
    """Each mean system second moment within 4 SE of `propagate_moments`."""
    m0 = cfg.initial.initial_moments(cfg.params)
    worst = 0.0
    for t, mean, se, _ in rows:
        pred = propagate_moments(m0, t, cfg.params, cfg.rho).m1
        z = abs(mean - pred) / se if se > 0 else (0.0 if mean == pred else math.inf)
        worst = max(worst, z)
    return worst <= MOMENT_SE_LIMIT, {"worst_z": worst}


def check_kinds(result, cfg):
    """Per-kind event totals against lambda * t_max * kind_probabilities * n_traj."""
    params = cfg.params
    expected = params.total_rate * float(result.t_grid[-1]) * params.kind_probabilities * result.n_traj
    observed = result.counts.sum(axis=0)
    z = [float((o - e) / math.sqrt(e)) if e > 0 else (0.0 if o == 0 else math.inf)
         for o, e in zip(observed, expected)]
    return max(abs(v) for v in z) <= KIND_SIGMA_LIMIT, {"z": z}


def check_energy(result):
    e = result.energies
    drift = float(np.max(np.abs(e - e[:, :1]) / e[:, :1]))
    return drift <= ENERGY_DRIFT_TOL, {"max_rel_drift": drift, "tol": ENERGY_DRIFT_TOL}


def entropy_margins(out_dir: Path) -> dict:
    report = json.loads((out_dir / "entropy_report.json").read_text())
    return {"allowance": report["bias_margin"],
            "rows": [{"t": r["t"], "margin": r["margin"], "pass": r["pass"]} for r in report["rows"]]}


def reference_ensemble(config_path: Path, seed: int):
    """The workload's ensemble at `seed` on 1 worker, recording energies, for counts and checks."""
    cfg = load_config(config_path)
    ens = cfg.ensemble
    record = tuple(sorted(set(ens.record) | {"energies"}))
    config = EnsembleConfig(n_traj=ens.n_traj, t_grid=ens.t_grid, seed=seed, record=record)
    return cfg, simulate_ensemble(cfg.params, cfg.rho, cfg.initial, config, workers=1)


def check_cli_calls(gate: Gate, rep: dict, steps, label: str) -> None:
    for step, code in zip(steps, rep["codes"]):
        gate.record(f"{label}:{step.out}:exit", code == 0, code=code)


def check_outputs(gate: Gate, rep_dir: Path, steps, label: str) -> None:
    for step in steps:
        gate.run(f"{label}:{step.out}:manifest", check_manifest, rep_dir / step.out, step.command)
        if step.command in VERDICTS:
            gate.run(f"{label}:{step.out}:pass", check_verdict, rep_dir / step.out, step.command)


def check_ensemble(gate: Gate, cfg, result, moments_rows=None) -> None:
    """Moments (from the CLI's moments.csv when given), kinds and energy drift."""
    rows = moments_rows if moments_rows is not None else result.moment_rows()
    gate.run("ensemble:moments", check_moments, rows, cfg)
    gate.run("ensemble:kinds", check_kinds, result, cfg)
    gate.run("ensemble:energy", check_energy, result)


def ensemble_counts(result) -> dict:
    per_kind = result.counts.sum(axis=0)
    return {
        "counts.trajectories": int(result.n_traj),
        "counts.events_total": int(per_kind.sum()),
        "counts.events_system": int(per_kind[0]),
        "counts.events_bath": int(per_kind[1]),
        "counts.events_cross": int(per_kind[2]),
    }
