#!/usr/bin/env python3
"""Digest every CLI artifact of a fixed command matrix, or compare two digest files.

Runs each command of MATRIX at each seed in a fresh interpreter on the
`kacbath` sources under --src (default: this checkout's src/), in a temporary
directory, and writes {"<seed>/<label>/<file>": sha256} plus each command's
exit code as JSON.  `manifest.json` is hashed without its `wall_time_seconds`,
the one field that differs between identical runs.  Exits 1 if any command
exited non-zero, or if at one seed the `simulate` runs at 1 and 2 workers
(WORKER_PAIR) differ in any file or exit code (the digests are still written).

Usage:
  python3 scripts/artifact_digests.py --out digests.json [--seeds 20240809 424242] [--src SRC]
  python3 scripts/artifact_digests.py --compare before.json after.json

--compare prints every key whose digest differs or that only one file has,
and exits 1 if there is any.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SEEDS = (20240809, 424242)
T_GRID = [0.0, 0.5, 1.0, 2.0, 4.0]


def _config(d, M, N, rates=(1.0, 1.0, 1.0), n_traj=None, entropy=False, initial=None):
    lam_s, lam_r, mu = rates
    cfg = {
        "params": {"M": M, "N": N, "lambda_S": lam_s, "lambda_R": lam_r, "mu": mu, "dimension": d},
        "rho": {"type": "uniform"},
    }
    if n_traj is not None:
        cfg["initial"] = initial or {"kind": "gaussian_product", "s": 1.0 / math.pi}
        cfg["ensemble"] = {"n_traj": n_traj, "t_grid": T_GRID, "seed": 0}
    if entropy:
        cfg["entropy"] = {"k": 4, "bootstrap": 50}
    return cfg


CONFIGS = {
    "decay_1d": _config(1, 2, 8, n_traj=6000, entropy=True),
    "decay_3d": _config(3, 2, 8, n_traj=3000, entropy=True),
    "thermostat_1d": _config(1, 1, 200, rates=(0.0, 1.0, 1.0), n_traj=4096),
    "sum_rule_1d": _config(1, 2, 4),
    "sum_rule_3d": _config(3, 1, 2),
    "two_temperature_1d": _config(1, 2, 8, n_traj=3000,
                                  initial={"kind": "two_temperature", "s_hot": 1.0, "s_cold": 0.05}),
    "shifted_3d": _config(3, 1, 2, n_traj=3000,
                          initial={"kind": "shifted_gaussian", "mean": [0.5, -0.25, 0.0], "s": 0.2}),
}

# (label, command, config or None, extra arguments)
MATRIX = (
    ("entropy_1d", "entropy", "decay_1d", ()),
    ("envelope_1d", "envelope", "decay_1d", ()),
    ("entropy_3d", "entropy", "decay_3d", ()),
    ("thermostat_w1", "simulate", "thermostat_1d", ("--workers", "1")),
    ("thermostat_w2", "simulate", "thermostat_1d", ("--workers", "2")),
    ("simulate_3d", "simulate", "decay_3d", ()),
    ("two_temperature_1d", "simulate", "two_temperature_1d", ()),
    ("shifted_3d", "simulate", "shifted_3d", ()),
    ("sum_rule_1d_k8", "verify-sum-rule", "sum_rule_1d", ("--k", "8", "--n", "100000")),
    ("sum_rule_3d_k8", "verify-sum-rule", "sum_rule_3d", ("--k", "8", "--n", "100000")),
    ("sum_rule_k0", "verify-sum-rule", "sum_rule_1d", ("--k", "0", "--n", "1000")),
    ("sum_rule_28_1d_k5", "verify-sum-rule", "decay_1d", ("--k", "5", "--n", "20000")),
    ("sum_rule_28_3d_k3", "verify-sum-rule", "decay_3d", ("--k", "3", "--n", "20000")),
    ("angle_K8", "discretize-angle", "sum_rule_1d", ("--K", "8")),
    ("sphere_L8_K8", "discretize-sphere", None, ("--L", "8", "--K", "8")),
    ("inequalities", "verify-inequalities", None, ()),
)
WORKER_PAIR = ("thermostat_w1", "thermostat_w2")  # the same run at 1 and 2 workers: byte-identical


def file_digest(path: Path) -> str:
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text())
        manifest.pop("wall_time_seconds", None)
        data = json.dumps(manifest, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def run_matrix(src: Path, seeds, work: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KACBATH_WORKERS"}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for name, cfg in CONFIGS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    digests = {}
    for seed in seeds:
        for label, command, config, extra in MATRIX:
            out = work / str(seed) / label
            argv = [sys.executable, "-m", "kacbath.cli", command, "--out", str(out), "--seed", str(seed)]
            if config is not None:
                argv += ["--config", str(work / f"{config}.json")]
            code = subprocess.run(argv + list(extra), env=env, stdout=subprocess.DEVNULL).returncode
            digests[f"{seed}/{label}/exit_code"] = code
            for path in sorted(out.iterdir()) if out.is_dir() else ():
                digests[f"{seed}/{label}/{path.name}"] = file_digest(path)
            print(f"{seed} {label}: exit {code}", file=sys.stderr)
    return digests


def worker_mismatches(digests: dict) -> list[str]:
    """Every file or exit code on which the two labels of WORKER_PAIR differ at one seed,
    including one that only one of them has."""
    runs = {}
    for key, value in digests.items():
        seed, label, name = key.split("/", 2)
        if label in WORKER_PAIR:
            runs.setdefault((seed, name), {})[label] = value
    one, two = WORKER_PAIR
    return [
        f"{seed}/{name}: {one} {pair.get(one)} != {two} {pair.get(two)}"
        for (seed, name), pair in sorted(runs.items())
        if pair.get(one) != pair.get(two)
    ]


def compare(before: dict, after: dict) -> list[str]:
    return [
        f"{key}: {before.get(key)} -> {after.get(key)}"
        for key in sorted(set(before) | set(after))
        if before.get(key) != after.get(key)
    ]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="where to write the digest JSON")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the kacbath package to run")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        diffs = compare(*(json.loads(p.read_text()) for p in args.compare))
        print("\n".join(diffs) or "identical")
        sys.exit(1 if diffs else 0)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_matrix(args.src.resolve(), args.seeds, Path(tmp))
    args.out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    failed = sorted(key for key, value in digests.items() if key.endswith("/exit_code") and value)
    if failed:
        print("non-zero exit: " + " ".join(failed), file=sys.stderr)
    mismatches = worker_mismatches(digests)
    if mismatches:
        print("worker count changed the output:\n" + "\n".join(mismatches), file=sys.stderr)
    sys.exit(1 if failed or mismatches else 0)
