"""Self-test of the benchmark: smoke-runs every workload and checks names.

Run as `python3 bench/run.py --self-test`.  It checks that
- BENCHMARK.json names the workloads this directory defines, with metric
  names matching [A-Za-z0-9_.-]+ and a `setup_s` metric;
- the layer map names only metrics and workloads that exist, and covers every
  per-layer timing;
- every workload runs at smoke size with tracing off and on, passes its
  correctness gate and prints exactly the metrics BENCHMARK.json lists, with
  their units;
- `cli.glue_s`, the self time of the traced `cli.<command>` spans, is positive;
- the exact counts of a traced run repeat exactly;
- without the program's sources the benchmark exits non-zero and prints no result.
Exits 0 when every check holds, 1 otherwise.
"""
from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import LAYER_MAP, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=170)


def check_spec(spec: dict, problems: list[str]) -> None:
    names = [w["name"] for w in spec["workloads"]]
    if tuple(names) != WORKLOADS:
        problems.append(f"BENCHMARK.json workloads {names} differ from {list(WORKLOADS)}")
    for w in spec["workloads"]:
        if not w["why"] or "\n" in w["why"] or len(w["why"]) > 200:
            problems.append(f"workload {w['name']}: 'why' must be one line of at most 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        if not NAME.fullmatch(m["name"]):
            problems.append(f"metric name {m['name']!r} does not match [A-Za-z0-9_.-]+")
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        problems.append("no setup_s metric")
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for layer_metric, (target, workloads) in LAYER_MAP.items():
        if layer_metric not in per_layer:
            problems.append(f"layer map names {layer_metric}, which BENCHMARK.json lacks")
        if target not in end_to_end:
            problems.append(f"layer map target {target} is not an end-to-end metric")
        if not set(workloads) <= set(WORKLOADS):
            problems.append(f"layer map entry {layer_metric} names unknown workloads {workloads}")
    unmapped = per_layer - set(LAYER_MAP) - {n for n in per_layer if n.startswith("counts.")}
    if unmapped:
        problems.append(f"per-layer metrics missing from the layer map: {sorted(unmapped)}")


def check_result(label: str, proc, expected: dict[str, str], problems: list[str]) -> dict:
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return {}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result.get("correct") is True and result.get("failed") == 0 and result.get("attempted", 0) >= 1):
        failures = json.loads(proc.stdout.strip().splitlines()[-2]).get("failures")
        problems.append(f"{label}: gate failed: {failures}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"{label}: metrics differ: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    for name, m in result.get("metrics", {}).items():
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{label}: {name} is not a finite number")
    return result


def main() -> int:
    problems: list[str] = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec, problems)
    units = {trace: {m["name"]: m["unit"] for m in spec[key]}
             for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    traced = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            result = check_result(label, smoke(workload, trace), units[trace], problems)
            print(f"{label}: {'ok' if result else 'FAILED'}", flush=True)
            if trace:
                traced[workload] = result
                glue = result.get("metrics", {}).get("cli.glue_s", {}).get("value")
                if glue is not None and not glue > 0:
                    problems.append(f"{label}: cli.glue_s is {glue}, not positive")
    again = check_result("decay_1d trace=1 again", smoke("decay_1d", 1), units[1], problems)
    counts = {n: m["value"] for n, m in again.get("metrics", {}).items() if n.startswith("counts.")}
    before = {n: m["value"] for n, m in traced.get("decay_1d", {}).get("metrics", {}).items()
              if n.startswith("counts.")}
    if not counts or counts != before:
        problems.append("exact counts differ between two traced runs of the same seed")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = smoke("decay_1d", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("without sources the benchmark must exit non-zero and print no result")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problem(s)")
    return 0 if not problems else 1
