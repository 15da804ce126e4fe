"""Timed repetitions of one workload's CLI sequence, in a process of their own.

Usage: python3 drive.py <job.json>

The job names the source tree, the CLI argument lists of one repetition, the
output root and the time budget.  Every repetition calls `kacbath.cli.main`
for each argument list, writing under <out_root>/rep<i>/.  Repetitions run
until the budget would be exceeded, but at least `min_reps` and at most
`max_reps` times.  One JSON line on stdout reports per-repetition wall times
and exit codes, and the peak resident memory of this process plus that of its
largest child (a pool worker).  The process exists so that the benchmark's own
checking does not count towards that memory.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def run_step(cli, argv: list[str]) -> int | str:
    """Exit code of one CLI call, or the exception text; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, reported with its traceback
            code = traceback.format_exc(limit=3)
    return code


def main(job_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    from kacbath import cli

    reps = []
    start = time.perf_counter()
    while True:
        rep_argv = [[a.replace("{rep}", f"rep{len(reps)}") for a in argv] for argv in job["argv"]]
        t0 = time.perf_counter()
        codes = [run_step(cli, argv) for argv in rep_argv]
        reps.append({"wall_s": time.perf_counter() - t0, "codes": codes})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= job["max_reps"]:
            break
        if len(reps) >= job["min_reps"] and elapsed + typical > job["seconds"]:
            break
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"reps": reps, "peak_rss_kib": self_kib + child_kib,
                      "self_rss_kib": self_kib, "child_rss_kib": child_kib}))


if __name__ == "__main__":
    main(sys.argv[1])
