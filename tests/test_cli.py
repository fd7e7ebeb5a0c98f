"""Command-line front end: golden reports, exit codes, and seed handling."""

import json
import os
import time

import pytest

import nonholonomy.cli as cli
from nonholonomy.errors import ConsistencyError

from golden_cases import CASES, INTERNAL_ERROR_CASE

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


def test_golden_internal_error(capsys, monkeypatch):
    name, argv, expected_code, message = INTERNAL_ERROR_CASE

    def forced(*args, **kwargs):
        raise ConsistencyError(message)

    monkeypatch.setattr(cli, "thinness_probe", forced)
    code, out = _run(capsys, argv)
    assert code == expected_code == 3
    assert out == _golden_text(name)


def test_exit_codes_cover_all_four():
    codes = {expected for _, _, expected in CASES} | {INTERNAL_ERROR_CASE[2]}
    assert codes == {0, 1, 2, 3}


def test_reports_are_deterministic(capsys):
    first = _run(capsys, ["check-dlo", "data/contact3.nh"])
    second = _run(capsys, ["check-dlo", "data/contact3.nh"])
    assert first == second


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
