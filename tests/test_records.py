"""The nine record types: namedtuples with fixed fields, value equality and
no assignment, and a package whose import generates no dataclass code."""

import subprocess
import sys
from pathlib import Path

import pytest

from nonholonomy.algebra import Chart
from nonholonomy.constructions import ExampleBundle
from nonholonomy.distributions import DerivedFlag, Verdict
from nonholonomy.parser import Binding, InputDocument, Token, parse_document
from nonholonomy.singularity import CExtraction, PrincipalSystem, ProbeReport, thinness_probe

SRC = Path(__file__).resolve().parents[1] / "src"

# (record, its field names, its defaults, the arguments of one instance,
# that instance's repr)
RECORDS = [
    (Verdict, ("value", "checked", "witnesses", "certificate"),
     {"witnesses": (), "certificate": False},
     (False, 3, ((0, 1),)),
     "Verdict(value=False, checked=3, witnesses=((0, 1),), certificate=False)"),
    (DerivedFlag, ("point", "ranks", "stabilized"), {"stabilized": True},
     ((0, 1), (2, 3)),
     "DerivedFlag(point=(0, 1), ranks=(2, 3), stabilized=True)"),
    (CExtraction, ("b_first", "cbar", "cmat"), {},
     ({1: 2}, {}, {}),
     "CExtraction(b_first={1: 2}, cbar={}, cmat={})"),
    (PrincipalSystem, ("matrix", "rhs"), {},
     (((1, 0),), (0,)),
     "PrincipalSystem(matrix=((1, 0),), rhs=(0,))"),
    (ProbeReport,
     ("n", "k", "seed", "samples", "rank_histogram", "empty_fiber_count", "verdict"), {},
     (5, 1, 0, 8, {2: 8}, 0, "PASS"),
     "ProbeReport(n=5, k=1, seed=0, samples=8, rank_histogram={2: 8}, "
     "empty_fiber_count=0, verdict='PASS')"),
    (Token, ("kind", "text", "line", "col"), {},
     ("IDENT", "x", 1, 2),
     "Token(kind='IDENT', text='x', line=1, col=2)"),
    (Binding, ("kind", "name", "value"), {},
     ("form", "a", None),
     "Binding(kind='form', name='a', value=None)"),
    (InputDocument, ("coords", "bindings", "chart"), {"chart": None},
     (("x",), ()),
     "InputDocument(coords=('x',), bindings=(), chart=None)"),
    (ExampleBundle,
     ("name", "distribution", "coframe", "omegas", "k", "ori_coframe", "expected_flag",
      "claims"),
     {"omegas": None, "k": None, "ori_coframe": None, "expected_flag": (), "claims": ()},
     ("demo", None, ()),
     "ExampleBundle(name='demo', distribution=None, coframe=(), omegas=None, k=None, "
     "ori_coframe=None, expected_flag=(), claims=())"),
]


def test_a_cold_import_loads_no_dataclass_machinery():
    code = ("import sys; sys.path.insert(0, %r); import nonholonomy.cli; "
            "print('dataclasses' in sys.modules)" % str(SRC))
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"
    for path in sorted((SRC / "nonholonomy").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "dataclass" not in text and "NamedTuple" not in text, path.name


@pytest.mark.parametrize("record,fields,defaults,args,text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(record, fields, defaults, args, text):
    assert record._fields == fields
    assert record._field_defaults == defaults
    value = record(*args)
    assert repr(value) == text
    assert value == record(*args) and not value != record(*args)
    changed = value._replace(**{fields[0]: "other"})
    assert changed != value
    assert isinstance(value, tuple) and len(value) == len(fields)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], "other")
    with pytest.raises(AttributeError):
        value.extra = 1  # __slots__ = (): no instance dict


def test_records_hash_by_value():
    assert hash(Verdict(True, 3)) == hash(Verdict(True, 3))
    assert hash(Token("IDENT", "x", 1, 2)) == hash(Token("IDENT", "x", 1, 2))


def test_verdict_defaults_and_truth():
    verdict = Verdict(True, 3)
    assert verdict.witnesses == () and verdict.certificate is False
    assert bool(verdict) is True
    assert bool(Verdict(False, 3)) is False
    assert DerivedFlag((0,), (1,)).stabilized is True


def test_input_document_keeps_its_methods_and_compares_by_chart_names():
    text = "coords x y; form a = d(x); field X = @y;"
    doc = parse_document(text)
    assert doc == parse_document(text)
    assert doc.chart == Chart(("x", "y")) and doc.coords == ("x", "y")
    assert doc.binding("a").kind == "form"
    assert len(doc.one_forms()) == 1 and len(doc.vector_fields()) == 1


def test_probe_report_json_dict_is_unchanged():
    assert thinness_probe(5, 1, 8, 0).to_json_dict() == {
        "n": 5, "k": 1, "seed": 0, "samples": 8, "rank_histogram": {"2": 8},
        "empty_fiber_count": 0, "verdict": "PASS",
    }

