"""Command-line front end: file loading, one subcommand per checker, JSON
reports with a stable schema, and the exit-code contract
0 = all verdicts true/PASS, 1 = some verdict false, 2 = parse or input
error, 3 = internal consistency failure.

Reports are byte-stable for a fixed input and seed; the optional --timings
flag adds wall-clock fields that are explicitly outside that guarantee.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from math import factorial

from . import __version__
from .algebra import Chart
from .constructions import build_example, verify_prop_ori_identity
from .distributions import (
    Distribution,
    check_almost_mni,
    check_dbasis_condition,
    check_mni,
    derived_flag_at,
    has_derived_length_one,
)
from .errors import ConsistencyError, InputError, ParseError
from .forms import DiffForm
from .parser import parse_document
from .singularity import thinness_probe


def _default_seed() -> int:
    raw = os.environ.get("NONHOLONOMY_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InputError("NONHOLONOMY_SEED must be an integer, got %r" % raw) from None


@functools.cache
def _build_argparser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused: parsing
    leaves it unchanged, so calls of main in one process share it, while a
    one-shot run builds it once as before."""
    top = argparse.ArgumentParser(
        prog="nonholonomy",
        description="Derived flags, non-integrability checks, and the jet-fiber rank probe.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="input document (coords/form/field statements)")
        p.add_argument("--seed", type=int, default=None, help="sampling seed (default: NONHOLONOMY_SEED or 0)")
        p.add_argument("--timings", action="store_true", help="add wall-clock fields (not byte-stable)")

    p = sub.add_parser("flag", help="derived flag at a point")
    common(p)
    p.add_argument("--point", default="", help="comma-separated name=value pairs; missing coordinates are 0")
    p.add_argument("--depth", type=int, default=None, help="flag depth cap (default: none; the flag stops by itself)")

    p = sub.add_parser("check-dlo", help="derived length one on the sample set")
    common(p)

    p = sub.add_parser("check-mni", help="maximal non-integrability of the document's coframe")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("check-amni", help="almost maximal non-integrability with named 2-forms")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--omegas", required=True, help="comma-separated 2-form binding names")

    p = sub.add_parser("thinness", help="rank statistics of the principal system over random fibers")
    common(p, with_file=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)

    p = sub.add_parser("example", help="build a named example and optionally run its checks")
    common(p, with_file=False)
    p.add_argument("name", help="contact-M | even-contact-N | jet-canonical-K | example2-r5 | prop-ori-N-K")
    p.add_argument("--check", action="store_true", help="run the example's advertised checks")

    p = sub.add_parser("verify-ori", help="paired-omission wedge-power identity on a coordinate coframe")
    common(p, with_file=False)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="ambient dimension (default 2k+1)")

    return top


# -- helpers ----------------------------------------------------------------


def _read_document(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    except UnicodeDecodeError:
        raise InputError("cannot read %s: not UTF-8 text" % path) from None
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return parse_document(text), digest


def _document_distribution(doc) -> Distribution:
    coframe = doc.one_forms()
    fields = doc.vector_fields()
    if not (fields or coframe):
        raise InputError("document defines neither 1-forms nor fields")
    return Distribution(doc.chart, frame=fields or None, coframe=coframe or None)


# the input language's number rule; int() enforces its digit limit per part
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_point(chart, text: str):
    values = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            if "=" not in part:
                raise InputError("bad point component %r (expected name=value)" % part)
            name, _, raw = part.partition("=")
            name = name.strip()
            if name not in chart:
                raise InputError("unknown coordinate %r in --point" % name)
            if name in values:
                raise InputError("coordinate %r given twice in --point" % name)
            raw = raw.strip()
            match = _RATIONAL.fullmatch(raw)
            try:
                if match is None:
                    raise ValueError(raw)
                values[name] = Fraction(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):
                raise InputError("bad rational %r in --point" % raw) from None
    return tuple(values.get(name, Fraction(0)) for name in chart.names)


def _point_strings(chart, point):
    return ["%s=%s" % (name, value) for name, value in zip(chart.names, point)]


def _verdict_task(name, verdict, chart, **extra):
    task = {
        "task": name,
        "verdict": verdict.value,
        "points_checked": verdict.checked,
        "certificate": verdict.certificate,
        "failure_count": len(verdict.witnesses),
        "witnesses": [_point_strings(chart, p) for p in verdict.witnesses[:5]],
    }
    task.update(extra)
    return task


def _flag_task(dist, point, depth_cap=None, expected=None):
    flag = derived_flag_at(dist, point, depth_cap)
    task = {
        "task": "flag",
        "point": _point_strings(dist.chart, point),
        "ranks": list(flag.ranks),
        "stabilized": flag.stabilized,
    }
    if expected is not None:
        task["expected"] = list(expected)
        task["verdict"] = flag.ranks == tuple(expected)
    return task


def _ori_task(coframe, k):
    ok, signs = verify_prop_ori_identity(coframe)
    return {
        "task": "verify-ori",
        "k": k,
        "verdict": ok,
        "signs": signs,
        "magnitude": factorial(k),
    }


def _task_failed(task) -> bool:
    verdict = task.get("verdict")
    return verdict is False or verdict == "FAIL"


# -- subcommands ------------------------------------------------------------


# Each runner is a generator of its report's tasks; doc is the parsed input
# document, or None for the fileless subcommands.


def _run_flag(args, seed, doc):
    dist = _document_distribution(doc)
    point = _parse_point(doc.chart, args.point)
    yield _flag_task(dist, point, args.depth)


def _run_check_dlo(args, seed, doc):
    dist = _document_distribution(doc)
    verdict = has_derived_length_one(dist, seed=seed)
    yield _verdict_task("check-dlo", verdict, doc.chart, rank=dist.rank, dim=dist.chart.n)


def _run_check_mni(args, seed, doc):
    coframe = doc.one_forms()
    verdict = check_mni(coframe, args.k, seed=seed)
    yield _verdict_task("check-mni", verdict, doc.chart, k=args.k)


def _run_check_amni(args, seed, doc):
    coframe = doc.one_forms()
    omegas = []
    for name in args.omegas.split(","):
        value = doc.binding(name.strip()).value
        if not isinstance(value, DiffForm) or value.degree != 2:
            raise InputError("binding %r is not a 2-form" % name.strip())
        omegas.append(value)
    verdict = check_almost_mni(coframe, omegas, args.k, seed=seed)
    yield _verdict_task("check-amni", verdict, doc.chart, k=args.k)


def _run_thinness(args, seed, doc):
    report = thinness_probe(args.n, args.k, args.samples, seed)
    task = {"task": "thinness"}
    task.update(report.to_json_dict())
    yield task


def _run_example(args, seed, doc):
    bundle = build_example(args.name)
    dist = bundle.distribution
    describe = {
        "task": "describe",
        "name": bundle.name,
        "chart": list(dist.chart.names),
        "rank": dist.rank,
        "dim": dist.chart.n,
        "coframe": [str(a) for a in bundle.coframe],
    }
    if dist.frame is not None:
        describe["frame"] = [str(f) for f in dist.frame]
    if bundle.omegas is not None:
        describe["omegas"] = [str(w) for w in bundle.omegas]
    yield describe
    if args.check:
        origin = tuple(Fraction(0) for _ in dist.chart.names)
        for claim in bundle.claims:
            if claim == "flag":
                yield _flag_task(dist, origin, expected=bundle.expected_flag)
            elif claim == "check-dlo":
                verdict = has_derived_length_one(dist, seed=seed)
                yield _verdict_task("check-dlo", verdict, dist.chart)
            elif claim == "check-dbasis":
                verdict = check_dbasis_condition(dist, seed=seed)
                yield _verdict_task("check-dbasis", verdict, dist.chart)
            elif claim == "check-mni":
                verdict = check_mni(dist, bundle.k, seed=seed)
                yield _verdict_task("check-mni", verdict, dist.chart, k=bundle.k)
            elif claim == "check-amni":
                verdict = check_almost_mni(dist, bundle.omegas, bundle.k, seed=seed)
                yield _verdict_task("check-amni", verdict, dist.chart, k=bundle.k)
            elif claim == "verify-ori":
                yield _ori_task(bundle.ori_coframe, bundle.k)
            else:
                raise ConsistencyError("unknown claim %r on %s" % (claim, bundle.name))


def _run_verify_ori(args, seed, doc):
    k = args.k
    if k < 1:
        raise InputError("k must be >= 1")
    n = args.n if args.n is not None else 2 * k + 1
    if n < 2 * k + 1:
        raise InputError("need n >= 2k+1 = %d, got %d" % (2 * k + 1, n))
    chart = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    coframe = [DiffForm.basis(chart, j) for j in range(1, 2 * k + 2)]
    task = _ori_task(coframe, k)
    task["n"] = n
    yield task


_RUNNERS = {
    "flag": _run_flag,
    "check-dlo": _run_check_dlo,
    "check-mni": _run_check_mni,
    "check-amni": _run_check_amni,
    "thinness": _run_thinness,
    "example": _run_example,
    "verify-ori": _run_verify_ori,
}


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        seed = args.seed if getattr(args, "seed", None) is not None else _default_seed()
        last = time.perf_counter()
        doc, digest = _read_document(args.file) if "file" in args else (None, None)
        tasks = []
        for task in _RUNNERS[args.command](args, seed, doc):
            if args.timings:  # each task's own time; the first includes reading the input
                now = time.perf_counter()
                task["elapsed_seconds"] = round(now - last, 6)
                last = now
            tasks.append(task)
    except ParseError as exc:
        _emit({"tool_version": __version__, "error": {"kind": "parse", "message": str(exc)}})
        return 2
    except InputError as exc:
        _emit({"tool_version": __version__, "error": {"kind": "input", "message": str(exc)}})
        return 2
    except ConsistencyError as exc:
        _emit({"tool_version": __version__, "error": {"kind": "internal", "message": str(exc)}})
        return 3
    report = {
        "tool_version": __version__,
        "command": args.command,
        "input_digest": digest,
        "seed": seed,
        "tasks": tasks,
    }
    _emit(report)
    return 1 if any(_task_failed(task) for task in tasks) else 0


if __name__ == "__main__":
    sys.exit(main())
