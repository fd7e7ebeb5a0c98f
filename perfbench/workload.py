"""One workload in one single-threaded process.

Set-up imports nonholonomy.cli and writes the job list's documents. Then
the fixed job list runs through cli.main(argv) in a closed loop, one job
after the other, round after round until --seconds is spent (at least two
rounds). Every report is captured and checked. With --trace 1 one untraced
round is followed by one traced round, which gives the per-layer numbers.

Prints one JSON object: metrics, attempted, failed, problems, details.
Jobs are timed around cli.main; --timings is never passed, because it
stamps every task with the cumulative run time rather than its own. Job
and set-up times are corrected for the speed the CPU ran at (speed.py).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import jobs as joblist
import speed
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"
MIN_ROUNDS = 2  # untraced; a median needs more than one round
SETUP_PROBES = 5  # speed samples on each side of a timed set-up

# per-layer span metrics: "<span>.<calls|s|self_s>"
SPAN_METRICS = (
    "singularity.extract_c_coefficients.calls",
    "singularity.extract_c_coefficients.self_s",
    "singularity.FiberPoint.random.s",
    "singularity.assemble_principal_matrix.s",
    "forms.wedge.calls",
    "forms.wedge.self_s",
    "forms.wedge_power.s",
    "forms.sort_with_sign.calls",
    "forms.exterior_derivative.s",
    "forms.constant_minor_certificate.calls",
    "forms.constant_minor_certificate.s",
    "forms.independent_at_point.calls",
    "forms.independent_at_point.self_s",
    "forms.evaluate_at_point.s",
    "forms.lie_bracket.calls",
    "forms.lie_bracket.s",
    "algebra.Polynomial.__mul__.calls",
    "algebra.Polynomial.__mul__.s",
    "algebra.poly_eval.calls",
    "algebra.poly_eval.s",
    "algebra.poly_diff.calls",
    "algebra.poly_diff.s",
    "linalg.rank.calls",
    "linalg.rank.s",
    "linalg.kernel_basis.calls",
    "linalg.kernel_basis.s",
    "distributions.check_mni.calls",
    "distributions.check_mni.self_s",
    "distributions.has_derived_length_one.calls",
    "distributions.has_derived_length_one.self_s",
    "distributions.derived_flag_at.calls",
    "distributions.derived_flag_at.self_s",
    "distributions.frame_from_coframe.calls",
    "distributions.frame_from_coframe.self_s",
    "distributions.sample_points.s",
    "parser.parse_document.s",
    "constructions.build_example.s",
    "cli.main.self_s",
)


def load_cli():
    sys.path.insert(0, str(ROOT / "src"))
    from nonholonomy import cli

    if Path(cli.__file__).resolve().parents[2] != ROOT:
        raise SystemExit("nonholonomy was imported from %s, not from %s/src" % (cli.__file__, ROOT))
    return cli


def write_documents(workload, jobs):
    """Write each job's document and put its path into the argv."""
    folder = WORK / "docs" / workload
    folder.mkdir(parents=True, exist_ok=True)
    for index, job in enumerate(jobs):
        if job.doc is None:
            continue
        path = folder / ("%d.nh" % index)
        path.write_text(job.doc, encoding="utf-8")
        job.argv = [str(path) if a == joblist.DOC else a for a in job.argv]


def run_job(cli, argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = "crash: %r" % exc
    return code, buf.getvalue()


def run_round(cli, jobs):
    """(wall seconds, per-job (start, end), per-job (exit code, report))."""
    gc.collect()
    spans, outputs = [], []
    start = perf_counter()
    for job in jobs:
        t = perf_counter()
        outputs.append(run_job(cli, job.argv))
        spans.append((t, perf_counter()))
    return perf_counter() - start, spans, outputs


class Tally:
    def __init__(self, jobs, digests):
        self.jobs = jobs
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outputs):
        for job, (code, text) in zip(self.jobs, outputs):
            problems = joblist.verify(job, code, text, self.digests)
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems[: max(0, 20 - len(self.problems))]


def reports(outputs):
    out = []
    for _, text in outputs:
        try:
            out.append(json.loads(text))
        except ValueError:
            out.append({})
    return out


def end_to_end(jobs, rounds, units, meter):
    """Metrics from speed-corrected job times (speed.py): a job's time is
    its median over rounds, wall_s the median over rounds of the round's
    summed job times."""
    corrected = [[meter.correct(*span) for span in spans] for _, spans, _ in rounds]
    walls = [sum(times) for times in corrected]
    per_job = [statistics.median(times[i] for times in corrected) for i in range(len(jobs))]
    ranked = sorted(per_job)
    beyond = min(10, len(ranked) - 1)
    heaviest = [t for job, t in zip(jobs, per_job) if job.heaviest] or [ranked[-1]]
    wall = statistics.median(walls)
    metrics = {
        "wall_s": wall,
        "job_p50_ms": statistics.median(per_job) * 1e3,
        "job_tail_ms": ranked[len(ranked) - 1 - beyond] * 1e3,
        "largest_job_s": heaviest[0],
        "samples_per_s": units / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "rounds": len(rounds),
        "round_walls_s": walls,
        "raw_round_walls_s": [wall for wall, _, _ in rounds],
        "speed_samples": len(meter.durations),
        "mean_slowdown": meter.factor(),
        "jobs_per_round": len(jobs),
        "job_tail_percentile": 100.0 * (len(ranked) - beyond) / len(ranked),
        "jobs_beyond_tail": beyond,
        "work_units_per_round": units,
    }
    return metrics, details


def per_layer(tracer, traced_reports, traced_wall, untraced_wall):
    metrics = {}
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        calls, inclusive, self_time = tracer.stat(span)
        metrics[metric] = {"calls": calls, "s": inclusive, "self_s": self_time}[field]
    drawn = empty = 0
    for report in traced_reports:
        for task in report.get("tasks", []):
            if task.get("task") == "thinness":
                drawn += task["samples"]
                empty += task["empty_fiber_count"]
    searches = tracer.stat("forms.constant_minor_certificate")[0]
    metrics["singularity.useful_fiber_ratio"] = (drawn - empty) / drawn if drawn else 0.0
    metrics["forms.certificate.minors_tried"] = tracer.minors_tried / searches if searches else 0.0
    metrics["forms.certificate.found_ratio"] = tracer.certificates_found / searches if searches else 0.0
    for layer in LAYERS:
        metrics["layer.%s.self_s" % layer] = tracer.layer_self_seconds(layer)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=joblist.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one cheap job per template")
    ap.add_argument("--setup-only", action="store_true", help="time set-up, run nothing")
    args = ap.parse_args(argv)

    meter = speed.SpeedMeter()
    for _ in range(SETUP_PROBES):  # warm-up: a fresh interpreter runs the first probes slowly
        speed.probe()
    for _ in range(SETUP_PROBES):
        meter.sample()
    started = perf_counter()
    cli = load_cli()
    jobs = joblist.build_jobs(args.workload, args.seed, args.smoke)
    write_documents(args.workload, jobs)
    ended = perf_counter()
    for _ in range(SETUP_PROBES):
        meter.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": meter.correct(started, ended), "raw_setup_s": ended - started}))
        return 0

    recorded = Path(__file__).parent / "digests.json"
    digests = json.loads(recorded.read_text()) if recorded.exists() else {}
    tally = Tally(jobs, digests)
    rounds = []
    meter = speed.SpeedMeter()
    meter.start()
    budget_start = perf_counter()
    while True:
        rounds.append(run_round(cli, jobs))
        tally.check(rounds[-1][2])
        if args.trace:
            break
        elapsed = perf_counter() - budget_start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(r[0] for r in rounds) > args.seconds:
            break
    # the speed samples just after the last job
    until = perf_counter() + speed.WINDOW_S
    while perf_counter() < until:
        pass
    meter.stop()
    units = sum(joblist.work_units(r) for r in reports(rounds[0][2]))
    metrics, details = end_to_end(jobs, rounds, units, meter)

    if args.trace:
        tracer = Tracer()
        details["bindings_wrapped"] = tracer.install()
        wall, _, outputs = run_round(cli, jobs)
        tally.check(outputs)
        metrics = per_layer(tracer, reports(outputs), wall, rounds[0][0])
        details["traced_wall_s"] = wall

    details["threads"] = threading.active_count()
    print(json.dumps({
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
