"""Command-line front end: golden reports, exit codes, and seed handling."""

import importlib.util
import json
import os
import random
import time
from collections import Counter
from pathlib import Path

import pytest

import nonholonomy.cli as cli
from nonholonomy import distributions
from nonholonomy.constructions import build_example

from golden_cases import CASES, INTERNAL_ERROR_CASE, forced_internal_error

HERE = os.path.dirname(os.path.abspath(__file__))


def _resolve(argv):
    return [os.path.join(HERE, a) if a.startswith("data/") else a for a in argv]


def _run(capsys, argv):
    code = cli.main(_resolve(argv))
    return code, capsys.readouterr().out


def _golden_text(name):
    with open(os.path.join(HERE, "golden", name), "r", encoding="utf-8") as handle:
        return handle.read()


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_reports(capsys, name, argv, expected_code):
    code, out = _run(capsys, argv)
    assert code == expected_code
    assert out == _golden_text(name)


def test_golden_internal_error(capsys):
    name, argv, expected_code = INTERNAL_ERROR_CASE
    with forced_internal_error():
        code, out = _run(capsys, argv)
    assert code == expected_code == 3
    assert out == _golden_text(name)


def test_exit_codes_cover_all_four():
    codes = {expected for _, _, expected in CASES} | {INTERNAL_ERROR_CASE[2]}
    assert codes == {0, 1, 2, 3}


def _gallery_names():
    """The example names the benchmark's flag-dlo workload runs."""
    path = Path(HERE).parent / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("perfbench_jobs", path)
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return sorted(jobs._GALLERY)


def test_example_check_proves_each_presentation_once(capsys, monkeypatch):
    # every claim of `example NAME --check` runs on the bundle's one
    # Distribution: it builds one kernel frame of the coframe, one set of
    # da_i and one W of them, which the flag, check-dlo and the wedge
    # checks share; prop-ori's check-amni compiles its omegas' W over the
    # same frame
    counts = Counter()

    def count(name):
        original = getattr(distributions, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(distributions, name, counted)

    for name in ("kernel_frame", "_compile_restricted_grid", "exterior_derivative"):
        count(name)
    names = _gallery_names()
    assert len(names) == 12
    for name in names + ["prop-ori-5-1"]:
        m = len(build_example(name).coframe)
        counts.clear()
        assert _run(capsys, ["example", name, "--check"])[0] == 0, name
        compiles = 2 if name == "prop-ori-5-1" else 1
        assert counts == Counter({"kernel_frame": 1, "exterior_derivative": m,
                                  "_compile_restricted_grid": compiles}), name


def test_reports_are_deterministic(capsys):
    first = _run(capsys, ["check-dlo", "data/contact3.nh"])
    second = _run(capsys, ["check-dlo", "data/contact3.nh"])
    assert first == second


def test_parser_is_built_once_per_process(capsys):
    # two subcommands through one parser report what fresh parsers report
    runs = (["check-dlo", "data/contact3.nh"], ["thinness", "--n", "5", "--k", "1", "--samples", "2"])
    cli._build_argparser.cache_clear()
    shared = [_run(capsys, argv) for argv in runs]
    assert cli._build_argparser.cache_info().misses == 1
    fresh = []
    for argv in runs:
        cli._build_argparser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert shared == fresh
    assert [code for code, _ in shared] == [0, 0]


def test_timings_flag_adds_fields_without_breaking_schema(capsys):
    code, out = _run(capsys, ["check-dlo", "data/contact3.nh", "--timings"])
    assert code == 0
    report = json.loads(out)
    assert all("elapsed_seconds" in task for task in report["tasks"])
    stable = _run(capsys, ["check-dlo", "data/contact3.nh"])[1]
    assert json.loads(stable)["tasks"][0].keys() | {"elapsed_seconds"} == \
        report["tasks"][0].keys()


def test_timings_are_per_task(capsys):
    started = time.perf_counter()
    code = cli.main(["example", "jet-canonical-2", "--check", "--timings"])
    wall = time.perf_counter() - started
    tasks = json.loads(capsys.readouterr().out)["tasks"]
    assert code == 0 and len(tasks) == 5
    assert sum(task["elapsed_seconds"] for task in tasks) <= wall


def test_seed_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("NONHOLONOMY_SEED", "42")
    _, out = _run(capsys, ["check-dlo", "data/contact3.nh"])
    assert json.loads(out)["seed"] == 42

    _, out = _run(capsys, ["check-dlo", "data/contact3.nh", "--seed", "5"])
    assert json.loads(out)["seed"] == 5

    monkeypatch.setenv("NONHOLONOMY_SEED", "not-a-number")
    code, out = _run(capsys, ["check-dlo", "data/contact3.nh"])
    assert code == 2
    assert json.loads(out)["error"]["kind"] == "input"


def test_missing_file_is_an_input_error(capsys):
    code, out = _run(capsys, ["check-dlo", "data/no-such-file.nh"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["kind"] == "input"
    assert "cannot read" in payload["error"]["message"]


def test_bad_point_is_an_input_error(capsys):
    code, out = _run(capsys, ["flag", "data/contact3.nh", "--point", "q=1"])
    assert code == 2
    assert "unknown coordinate" in json.loads(out)["error"]["message"]

    code, out = _run(capsys, ["flag", "data/contact3.nh", "--point", "x=1//"])
    assert code == 2
    assert "bad rational" in json.loads(out)["error"]["message"]

    code, out = _run(capsys, ["flag", "data/contact3.nh", "--point", "x=1,x=2"])
    assert code == 2
    assert "coordinate 'x' given twice" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("value", [
    "1e5000", "1e-5000", "1e999999999", "4" * 4000 + "." + "2" * 4000,
    "7" * 5000, "1/" + "3" * 5000, "0.5", "+1", "1/0", "", "\u0663",
])
def test_point_values_follow_the_number_rule(capsys, value):
    # an optional '-', decimal digits, optionally '/' and digits, each part
    # within int's digit limit; anything else is an input error
    code, out = _run(capsys, ["flag", "data/contact3.nh", "--point", "x=" + value])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "bad rational %r in --point" % value


def test_point_fuzz_exits_cleanly(capsys):
    # seeded guard: every --point value either reads or is an input error.
    # Values are runs of up to 4 digits (or 5000 nines) joined by marks, so
    # shapes like 12/34, 5.6 and 7e8999 all occur.
    rng = random.Random(8)
    marks = list("/-+.eE ") + ["\u0663", "\u00b2"]

    def digits():
        return "9" * 5000 if rng.random() < 0.1 else str(rng.randrange(1, 10 ** rng.randint(1, 4)))

    for _ in range(500):
        value = rng.choice(["", "-", "+", " "]) + digits()
        for _ in range(rng.randint(0, 2)):
            value += rng.choice(marks) + digits()
        code, out = _run(capsys, ["flag", "data/contact3.nh", "--point", "x=" + value])
        assert code in (0, 2), value
        json.loads(out)


def test_flag_depth_cap_through_the_cli(capsys):
    code, out = _run(capsys, ["flag", "data/contact3.nh", "--depth", "1"])
    assert code == 0
    task = json.loads(out)["tasks"][0]
    assert task["ranks"] == [2]
    assert task["stabilized"] is False


def test_flag_has_no_default_depth_cap(capsys, tmp_path):
    doc = tmp_path / "vanishing_frame.nh"
    doc.write_text("coords x;\nfield X = x*@x;\n", encoding="utf-8")
    code, out = _run(capsys, ["flag", str(doc)])
    assert code == 0
    task = json.loads(out)["tasks"][0]
    assert task["ranks"] == [0, 0]
    assert task["stabilized"] is True


def test_flag_repeat_with_a_deeper_bracket_is_not_stabilized(capsys, tmp_path):
    doc = tmp_path / "vanishing_bracket.nh"
    doc.write_text("coords x y z;\nfield X = @x;\nfield Y = @z + x*x*@y;\n", encoding="utf-8")
    code, out = _run(capsys, ["flag", str(doc), "--point", "x=0"])
    assert code == 0
    task = json.loads(out)["tasks"][0]
    assert task["ranks"] == [2, 2]
    assert task["stabilized"] is False


def test_non_utf8_document_is_an_input_error(capsys, tmp_path):
    doc = tmp_path / "latin1.nh"
    doc.write_bytes(b"coords x y z;\nform a = d(z) - y*d(x); # \xff\n")
    code, out = _run(capsys, ["check-dlo", str(doc)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "cannot read %s: not UTF-8 text" % doc


def test_non_ascii_digit_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "superscript.nh"
    doc.write_text("coords x y z;\nform a = \u00b2 * d(x);\n", encoding="utf-8")
    code, out = _run(capsys, ["check-dlo", str(doc)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "parse"
    assert error["message"] == "2:10: unexpected character '\u00b2'"


def test_deep_nesting_is_a_parse_error(capsys, tmp_path):
    doc = tmp_path / "deep.nh"
    doc.write_text("coords x y z;\nform a = %sd(x)%s;\n" % ("(" * 300, ")" * 300), encoding="utf-8")
    code, out = _run(capsys, ["check-dlo", str(doc)])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "parse"
    assert error["message"] == "2:110: expression nested too deeply"


def test_thinness_bounds_error(capsys):
    code, out = _run(capsys, ["thinness", "--n", "7", "--k", "1", "--samples", "5"])
    assert code == 2
    assert "ambient dimension" in json.loads(out)["error"]["message"]


def test_thinness_needs_a_sample(capsys):
    # exit 0 says every verdict held; with no fiber sampled none was checked
    code, out = _run(capsys, ["thinness", "--n", "5", "--k", "1", "--samples", "0"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert "at least 1" in error["message"]


def test_unknown_example_is_an_input_error(capsys):
    code, out = _run(capsys, ["example", "moebius-3"])
    assert code == 2
    assert "unknown example" in json.loads(out)["error"]["message"]


def test_missing_required_option_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(_resolve(["check-mni", "data/jetlike5.nh"]))
    assert info.value.code == 2
    capsys.readouterr()


def test_verify_ori_rejects_small_n(capsys):
    code, out = _run(capsys, ["verify-ori", "--k", "2", "--n", "4"])
    assert code == 2
    assert "2k+1" in json.loads(out)["error"]["message"]


def test_amni_rejects_non_two_form_binding(capsys):
    code, out = _run(capsys, ["check-amni", "data/amni5.nh", "--k", "1",
                              "--omegas", "a1,w2"])
    assert code == 2
    assert "not a 2-form" in json.loads(out)["error"]["message"]


def test_amni_unknown_binding_is_an_input_error(capsys):
    code, out = _run(capsys, ["check-amni", "data/amni5.nh", "--k", "1",
                              "--omegas", "nope"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "input"
    assert error["message"] == "no binding named 'nope'"
    assert "0:0" not in error["message"]


def test_report_digest_tracks_file_content(capsys, tmp_path):
    source = os.path.join(HERE, "data", "contact3.nh")
    with open(source, "r", encoding="utf-8") as handle:
        text = handle.read()
    copy = tmp_path / "copy.nh"
    copy.write_text(text, encoding="utf-8")
    _, out_copy = _run(capsys, ["check-dlo", str(copy)])
    _, out_orig = _run(capsys, ["check-dlo", source])
    assert json.loads(out_copy)["input_digest"] == json.loads(out_orig)["input_digest"]

    copy.write_text(text + "# trailing comment\n", encoding="utf-8")
    _, out_changed = _run(capsys, ["check-dlo", str(copy)])
    assert json.loads(out_changed)["input_digest"] != json.loads(out_orig)["input_digest"]
