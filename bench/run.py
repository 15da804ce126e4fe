#!/usr/bin/env python3
"""kacbath benchmark: CLI workloads, end-to-end metrics and a traced run.

Run from the repository root:

    python3 bench/run.py --workload decay_1d --seed 20240809 --seconds 15 --trace 0
    python3 bench/run.py --self-test

`--trace 0` measures the workload's CLI sequence with tracing off and prints
the end-to-end metrics; `--trace 1` runs the sequence once with spans around
the layer calls of `kacbath.cli`, times single layers alone and prints the
per-layer metrics.  Both run the correctness gate.  The last stdout line is
the result object; the line before it holds the environment, exact counts,
gate operations and spans.  The program is imported from `src/` next to this
directory, never from an installed copy; without it the benchmark exits with
status 2.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# Set-up as a user pays it: a fresh interpreter imports kacbath and loads the
# workload's configs, which runs the angle-law moment quadrature; sampling one
# angle builds the lazy inverse-CDF table of continuous laws.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import kacbath
from kacbath.config import load_config
for path in sys.argv[2:]:
    cfg = load_config(path)
    if cfg.rho is not None:
        cfg.rho.sample(np.random.default_rng(0), 1)
"""


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256() -> str:
    """Digest of the package sources, for checkouts that are not git repositories."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "kacbath").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, workers: int, env_workers: str | None) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "workers_effective": workers,
        "KACBATH_WORKERS_cleared": env_workers,
        "loadavg_start": loadavg(),
    }


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    """Run a child in its own session; on timeout kill the whole group and wait."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise RuntimeError(f"child timed out after {CHILD_TIMEOUT_S} s: {argv[:3]}") from None
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(config_paths: list[Path]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = run_child([sys.executable, "-c", SETUP_CODE, str(SRC)] + [str(p) for p in config_paths])
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
    return times


def drive(plan, config_dir: Path, out_root: Path, seconds: float, min_reps: int, max_reps: int) -> dict:
    """Timed CLI repetitions in a child process (see drive.py)."""
    job = {
        "src": str(SRC),
        "argv": [s.argv(config_dir, out_root / "{rep}", plan.seed) for s in plan.steps],
        "seconds": seconds,
        "min_reps": min_reps,
        "max_reps": max_reps,
    }
    job_path = out_root.parent / "job.json"
    job_path.write_text(json.dumps(job))
    proc = run_child([sys.executable, str(BENCH / "drive.py"), str(job_path)])
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"workload process failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def workload_volume(plan, events: int) -> tuple[int, int]:
    """(trajectories, collision events) one repetition processes.

    For verify_lab a trajectory is one random word of the sum rule and an
    event one collision applied to its matrix.
    """
    if plan.runs_ensemble:
        return plan.n_traj, events
    words = sum(n for _, _, n in plan.sum_rule)
    return words, sum(k * n for _, k, n in plan.sum_rule)


def measured_run(plan, config_dir: Path, work: Path, seconds: float) -> tuple[dict, dict, object]:
    import gate as g

    gate = g.Gate()
    step_configs = sorted({s.config for s in plan.steps if s.config is not None})
    setup = measure_setup([config_dir / f"{c}.json" for c in step_configs])
    out_root = work / "out"
    out_root.mkdir()
    result = drive(plan, config_dir, out_root, seconds, min_reps=2, max_reps=100)
    reps = result["reps"]
    for i, rep in enumerate(reps):
        rep_dir = out_root / f"rep{i}"
        g.check_cli_calls(gate, rep, plan.steps, f"rep{i}")
        g.check_outputs(gate, rep_dir, plan.steps, f"rep{i}")
        if i:
            for step in plan.steps:
                gate.run(f"rep{i}:{step.out}:identical_to_rep0", g.check_identical,
                         out_root / "rep0" / step.out, rep_dir / step.out)

    cfg, ens = g.reference_ensemble(config_dir / f"{plan.ensemble}.json", plan.seed)
    rep0 = out_root / "rep0"
    cli_moments = None
    if any(s.command == "simulate" for s in plan.steps):
        cli_moments = g.read_moments_csv(rep0 / "simulate" / "moments.csv")
    g.check_ensemble(gate, cfg, ens, cli_moments)

    counts = g.ensemble_counts(ens)
    trajectories, events = workload_volume(plan, counts["counts.events_total"])
    wall = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "traj_per_s": (trajectories / wall, "1/s"),
        "events_per_s": (events / wall, "1/s"),
        "peak_rss_mb": (result["peak_rss_kib"] / 1024.0, "MB"),
    }
    detail = {
        "setup_s_samples": setup,
        "wall_s_samples": [r["wall_s"] for r in reps],
        "rss_kib": {k: result[k] for k in ("self_rss_kib", "child_rss_kib")},
        "volume_per_rep": {"trajectories": trajectories, "events": events},
        "counts": counts,
    }
    if any(s.command == "entropy" for s in plan.steps):
        detail["entropy_margins"] = g.entropy_margins(rep0 / "entropy")
    return metrics, detail, gate


def run_workload(args) -> int:
    from workloads import build_plan

    env_workers = os.environ.pop("KACBATH_WORKERS", None)
    plan = build_plan(args.workload, args.seed, smoke=args.smoke)
    env = environment(args.seed, plan.workers, env_workers)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{plan.name}-{plan.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        config_dir = work / "configs"
        config_dir.mkdir()
        for name, cfg in plan.configs.items():
            (config_dir / f"{name}.json").write_text(json.dumps(cfg, indent=2))
        if args.trace:
            import tracing

            metrics, detail, gate = tracing.traced_run(plan, config_dir, work)
        else:
            metrics, detail, gate = measured_run(plan, config_dir, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = loadavg()
    detail = {"workload": plan.name, "seed": plan.seed, "trace": args.trace, "smoke": plan.smoke,
              "environment": env, **detail, "fail_frac": gate.failed / gate.attempted,
              "failures": gate.failures(), "operations": [op["op"] for op in gate.ops]}
    print(json.dumps(detail, default=float))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, default=float))
    return 0


def main() -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0, help="measuring time of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (self-test)")
    parser.add_argument("--self-test", action="store_true", help="smoke-run every workload and check names")
    args = parser.parse_args()
    if not (SRC / "kacbath" / "__init__.py").is_file():
        print(f"error: no kacbath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kacbath

    if Path(kacbath.__file__).resolve().parent != (SRC / "kacbath").resolve():
        print(f"error: kacbath imported from {kacbath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
