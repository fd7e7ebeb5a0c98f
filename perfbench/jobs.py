"""Seeded job lists for the three benchmark workloads, with known answers.

A workload is a list of templates. A template stands for a family of jobs
that differ only in a variant index 0..POOL-1; the variant fixes the job's
--seed and, for generated documents, the document's coefficients. The
benchmark seed chooses which variants run, so every job any seed can
produce has its report digest recorded in digests.json.

Each job carries three checks that do not come from the code under test:
its exit code, a known answer from the paper's closed forms, and the
SHA-256 of its report as recorded at the reference commit.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

POOL = 16
WORKLOADS = ("probe-sweep", "mni-check", "flag-dlo")


class Job:
    """One in-process `nonholonomy` invocation and its expected outcome.

    argv may hold the placeholder DOC, replaced by the path of the written
    document. answer(report) returns a list of known-answer violations.
    """

    __slots__ = ("key", "argv", "doc", "exit_code", "answer", "heaviest")

    def __init__(self, key, argv, exit_code, answer, doc=None, heaviest=False):
        self.key = key
        self.argv = argv
        self.doc = doc
        self.exit_code = exit_code
        self.answer = answer
        self.heaviest = heaviest


DOC = "<doc>"


class Template:
    __slots__ = ("name", "count", "make", "heaviest", "smoke")

    def __init__(self, name, count, make, heaviest=False, smoke=False):
        self.name = name
        self.count = count
        self.make = make
        self.heaviest = heaviest
        self.smoke = smoke

    def job(self, variant: int) -> Job:
        key = "%s/%d" % (self.name, variant)
        argv, exit_code, answer, doc = self.make(variant, random.Random(key))
        return Job(key, argv, exit_code, answer, doc, self.heaviest)


# -- small helpers -----------------------------------------------------------


def _rational(rng, nonzero=False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if value or not nonzero:
            return value


def _tasks(report):
    return report.get("tasks", [])


def _verdicts_true(report):
    bad = [t["task"] for t in _tasks(report) if "verdict" in t and t["verdict"] is not True]
    return ["verdict not true in %s" % ", ".join(bad)] if bad else []


def _flag(report, expected):
    flags = [t for t in _tasks(report) if t["task"] == "flag"]
    if not flags:
        return ["no flag task"]
    return ["flag %s, expected %s" % (t["ranks"], list(expected))
            for t in flags if t["ranks"] != list(expected)]


def _shape(report, rank, dim):
    return ["%s has rank/dim %s/%s, expected %d/%d" % (t["task"], t["rank"], t["dim"], rank, dim)
            for t in _tasks(report)
            if "rank" in t and "dim" in t and (t["rank"], t["dim"]) != (rank, dim)]


def work_units(report) -> int:
    """Fibers drawn (thinness) plus points checked plus flag points."""
    total = 0
    for task in _tasks(report):
        total += task.get("samples", 0) + task.get("points_checked", 0)
        if task["task"] == "flag":
            total += 1
    return total


# -- probe-sweep -------------------------------------------------------------


def _thinness(n, k, samples):
    def make(variant, rng):
        argv = ["thinness", "--n", str(n), "--k", str(k), "--samples", str(samples),
                "--seed", str(variant)]

        def answer(report):
            (task,) = _tasks(report)
            hist = task["rank_histogram"]
            out = []
            if task["verdict"] == "FAIL":
                out.append("thinness verdict FAIL")
            if hist.get("1"):
                out.append("rank 1 occurs %d times" % hist["1"])
            if sum(hist.values()) + task["empty_fiber_count"] != samples:
                out.append("histogram does not account for every fiber")
            return out

        return argv, 0, answer, None

    return make


def _probe_sweep():
    # (n, k, samples per job, jobs per round); the 12 (8,2) jobs hold the
    # tail percentile, and three samples each keep it steady
    shapes = [
        (5, 1, 8, 8), (6, 1, 4, 6), (6, 2, 8, 6), (7, 2, 4, 8),
        (9, 3, 1, 6), (8, 2, 3, 12),
    ]
    out = [Template("thinness-%d-%d-s%d" % (n, k, s), count, _thinness(n, k, s),
                    smoke=(n <= 6))
           for n, k, s, count in shapes]
    out.append(Template("thinness-10-2-s2", 1, _thinness(10, 2, 2), heaviest=True))
    return out


# -- mni-check ---------------------------------------------------------------


def quadratic_document(n: int, k: int) -> str:
    """The generic quadratic coframe: for i = 0..m-1,
    a_i = dx_{n-m+i+1} + sum_{j <= n-m} x_{(i+j mod n)+1} x_{(2i+j+1 mod n)+1} dx_j.
    Constant rank, dependent MNI tuple."""
    m = n - 2 * k - 1
    lines = ["coords %s;" % " ".join("x%d" % j for j in range(1, n + 1))]
    for i in range(m):
        terms = ["d(x%d)" % (n - m + i + 1)]
        for j in range(1, n - m + 1):
            terms.append("x%d * x%d * d(x%d)" % ((i + j) % n + 1, (2 * i + j + 1) % n + 1, j))
        lines.append("form a%d = %s;" % (i + 1, " + ".join(terms)))
    return "\n".join(lines) + "\n"


def jetlike_document(n: int, k: int, rng) -> str:
    """A jet-like coframe a_i = dy_i - sum_p c_p h_{s_p} dh_{t_p} whose
    derivative da_i is a constant Darboux form on every h but one, h_{r_i},
    with the r_i distinct. Then (da_i)^k is a nonzero multiple of the
    2k-form omitting dh_{r_i}, so the MNI forms are independent everywhere
    and one of their maximal minors is a nonzero constant."""
    m = n - 2 * k - 1
    hs = ["h%d" % j for j in range(1, 2 * k + 2)]
    lines = ["coords %s;" % " ".join(["y%d" % i for i in range(1, m + 1)] + hs)]
    omitted = rng.sample(range(2 * k + 1), m)
    for i in range(m):
        rest = [j for j in range(2 * k + 1) if j != omitted[i]]
        rng.shuffle(rest)
        text = "d(y%d)" % (i + 1)
        for p in range(k):
            c = _rational(rng, nonzero=True)
            text += " %s %s * %s * d(%s)" % ("-" if c > 0 else "+", abs(c),
                                            hs[rest[2 * p]], hs[rest[2 * p + 1]])
        lines.append("form a%d = %s;" % (i + 1, text))
    return "\n".join(lines) + "\n"


def _check_mni(n, k, passing):
    def make(variant, rng):
        doc = jetlike_document(n, k, rng) if passing else quadratic_document(n, k)
        argv = ["check-mni", DOC, "--k", str(k), "--seed", str(variant)]

        def answer(report):
            (task,) = _tasks(report)
            if passing:
                if task["verdict"] is not True or task["certificate"] is not True:
                    return ["jet-like coframe: verdict %r, certificate %r, expected true/true"
                            % (task["verdict"], task["certificate"])]
                return []
            if task["verdict"] is not False or task["failure_count"] == 0:
                return ["quadratic coframe: verdict %r with %d failures, expected false with > 0"
                        % (task["verdict"], task["failure_count"])]
            return []

        return argv, 0 if passing else 1, answer, doc

    return make


def _mni_check():
    # (n, k, jobs per round). The counts put the median job in the middle of
    # the jet-like (6,1) jobs and the tail job in the middle of the quadratic
    # (5,1) ones, rather than at a step between two shapes, where the choice
    # of variants would move them.
    failing = [(4, 1, 4), (5, 1, 7), (6, 1, 2), (6, 2, 2), (7, 2, 1)]
    passing = [(4, 1, 6), (5, 1, 3), (6, 1, 7), (6, 2, 6), (7, 2, 3), (8, 2, 3), (9, 2, 3),
               (10, 2, 3)]
    out = [Template("mni-quadratic-%d-%d" % (n, k), count, _check_mni(n, k, False),
                    smoke=(n <= 5))
           for n, k, count in failing]
    out += [Template("mni-jetlike-%d-%d" % (n, k), count, _check_mni(n, k, True),
                     smoke=(n <= 5))
            for n, k, count in passing]
    out.append(Template("mni-quadratic-8-2", 1, _check_mni(8, 2, False), heaviest=True))
    return out


# -- flag-dlo ----------------------------------------------------------------

# name -> (rank, dim, expected flag), all from the closed forms
_GALLERY = {"contact-%d" % M: (2 * M, 2 * M + 1, (2 * M, 2 * M + 1)) for M in (1, 2, 3, 4)}
_GALLERY.update({"even-contact-%d" % N: (N - 1, N, (N - 1, N)) for N in (4, 6)})
_GALLERY.update({"jet-canonical-%d" % K: (K + 1, 2 * K + 1, (K + 1, 2 * K + 1))
                 for K in (1, 2, 3, 4, 5)})
_GALLERY["example2-r5"] = (4, 5, (4, 5))


def _example(name):
    rank, dim, flag = _GALLERY[name]

    def make(variant, rng):
        argv = ["example", name, "--check", "--seed", str(variant)]

        def answer(report):
            return _verdicts_true(report) + _flag(report, flag) + _shape(report, rank, dim)

        return argv, 0, answer, None

    return make


def contact_document(M: int, rng):
    """dz - sum c_i y_i dx_i with nonzero c_i: a contact form, so the
    kernel has flag (2M, 2M+1) at every point."""
    coords = ["z"] + [v for i in range(1, M + 1) for v in ("x%d" % i, "y%d" % i)]
    text = "d(z)"
    for i in range(1, M + 1):
        c = _rational(rng, nonzero=True)
        text += " %s %s * y%d * d(x%d)" % ("-" if c > 0 else "+", abs(c), i, i)
    return coords, "coords %s;\nform a = %s;\n" % (" ".join(coords), text), (2 * M, 2 * M + 1)


def jet_document(K: int, rng):
    """dy_i - c_i z_i dx: the jet canonical system after rescaling z_i, so
    flag (K+1, 2K+1) at every point."""
    coords = ["x"] + ["y%d" % i for i in range(1, K + 1)] + ["z%d" % i for i in range(1, K + 1)]
    lines = ["coords %s;" % " ".join(coords)]
    for i in range(1, K + 1):
        c = _rational(rng, nonzero=True)
        lines.append("form a%d = d(y%d) %s %s * z%d * d(x);"
                     % (i, i, "-" if c > 0 else "+", abs(c), i))
    return coords, "\n".join(lines) + "\n", (K + 1, 2 * K + 1)


def _generated(kind, size, command):
    build = contact_document if kind == "contact" else jet_document

    def make(variant, rng):
        coords, doc, flag = build(size, rng)
        if command == "flag":
            point = ",".join("%s=%s" % (c, _rational(rng)) for c in coords)
            argv = ["flag", DOC, "--point", point, "--seed", str(variant)]

            def answer(report):
                return _flag(report, flag)
        else:
            argv = ["check-dlo", DOC, "--seed", str(variant)]

            def answer(report):
                return _verdicts_true(report) + _shape(report, flag[0], flag[1])

        return argv, 0, answer, doc

    return make


def _flag_dlo():
    out = [Template("example-%s" % name, 1, _example(name),
                    heaviest=(name == "jet-canonical-5"), smoke=(name == "contact-1"))
           for name in _GALLERY]
    out += [Template("dlo-contact-%d" % M, 1, _generated("contact", M, "check-dlo"))
            for M in (1, 2, 3)]
    out += [Template("dlo-jet-%d" % K, 1, _generated("jet", K, "check-dlo"), smoke=(K == 1))
            for K in (1, 2, 3, 4)]
    out += [Template("flag-contact-%d" % M, 4, _generated("contact", M, "flag"), smoke=(M == 1))
            for M in (1, 2, 3, 4)]
    out += [Template("flag-jet-%d" % K, 4, _generated("jet", K, "flag"), smoke=(K == 1))
            for K in (1, 2, 3, 4, 5)]
    return out


TEMPLATES = {
    "probe-sweep": _probe_sweep,
    "mni-check": _mni_check,
    "flag-dlo": _flag_dlo,
}


def templates(workload: str):
    return TEMPLATES[workload]()


def build_jobs(workload: str, seed: int, smoke: bool = False):
    """The workload's fixed job list for a benchmark seed.

    smoke keeps one job of each cheap template, for the benchmark's own test.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = []
    for template in templates(workload):
        variants = rng.sample(range(POOL), template.count)
        if smoke:
            if not template.smoke:
                continue
            variants = variants[:1]
        jobs += [template.job(v) for v in variants]
    return jobs


def report_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify(job: Job, exit_code, output: str, digests) -> list:
    """Every way this job's outcome differs from the expected one."""
    problems = []
    if exit_code != job.exit_code:
        problems.append("exit code %r, expected %d" % (exit_code, job.exit_code))
    recorded = digests.get(job.key)
    if recorded is None:
        problems.append("no recorded digest")
    elif report_digest(output) != recorded:
        problems.append("report differs from the recorded one")
    try:
        report = json.loads(output)
        problems += job.answer(report)
    except (ValueError, KeyError, TypeError) as exc:
        problems.append("unreadable report: %r" % exc)
    return ["%s: %s" % (job.key, p) for p in problems]
