"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the repository root. The workload runs in its own child process
(workload.py). Set-up is timed in eleven fresh processes, six before the
workload and five after it, and reported as their median (setup_s). Only
one child runs at a time. Prints an environment record,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# set-ups timed before and after the workload, so their median spans the run
SETUP_BEFORE, SETUP_AFTER = 6, 5
DEADLINE_S = 170


def child(args, deadline):
    """Run workload.py with args; its last stdout line as JSON."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise RuntimeError("out of time before %s" % " ".join(args))
    done = subprocess.run([sys.executable, str(HERE / "workload.py")] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=remaining)
    if done.returncode != 0:
        raise RuntimeError("workload.py %s exited with %d" % (" ".join(args), done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def time_setup(common, deadline):
    return child(common + ["--setup-only"], deadline)["setup_s"]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the package sources, which identifies the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="nonholonomy CLI benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny job lists, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nonholonomy" / "cli.py").is_file():
        print("no nonholonomy sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print("unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    try:
        setup = []
        if not args.trace:
            setup = [time_setup(common, deadline) for _ in range(SETUP_BEFORE)]
        result = child(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        if not args.trace:
            setup += [time_setup(common, deadline) for _ in range(SETUP_AFTER)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 1

    measured = result["metrics"]
    if setup:
        measured["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print("metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(problem, file=sys.stderr)

    print(json.dumps({"environment": environment(args), "details": result["details"],
                      "setup_runs_s": setup}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
