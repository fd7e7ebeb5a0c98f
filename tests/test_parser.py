"""Input language: lexing, parsing, evaluation, and pretty-printing."""

from fractions import Fraction

from nonholonomy.algebra import Polynomial
from nonholonomy.errors import ParseError
from nonholonomy.forms import DiffForm, VectorField, exterior_derivative, wedge
from nonholonomy.parser import parse_document, pretty_print, tokenize


def _fails_at(text, line, col, fragment):
    try:
        parse_document(text)
        assert False, "expected a parse error"
    except ParseError as err:
        assert (err.line, err.column) == (line, col), str(err)
        assert fragment in str(err)
        assert str(err).startswith("%d:%d: " % (line, col))


def test_tokenize_positions_and_comments():
    tokens = tokenize("coords x;\n# note\nform a = 1/2;")
    kinds = [(t.kind, t.text) for t in tokens]
    assert kinds == [
        ("IDENT", "coords"), ("IDENT", "x"), ("PUNCT", ";"),
        ("IDENT", "form"), ("IDENT", "a"), ("PUNCT", "="),
        ("NUMBER", "1"), ("PUNCT", "/"), ("NUMBER", "2"), ("PUNCT", ";"),
        ("EOF", ""),
    ]
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[3].line, tokens[3].col) == (3, 1)
    try:
        tokenize("coords x $;")
        assert False
    except ParseError as err:
        assert (err.line, err.column) == (1, 10)


def test_parse_basic_form():
    doc = parse_document("coords x y z; form a = d(z) - y*d(x);")
    assert doc.coords == ("x", "y", "z")
    assert len(doc.bindings) == 1
    value = doc.binding("a").value
    chart = doc.chart
    y = Polynomial.coordinate(chart, "y")
    assert value == DiffForm.basis(chart, "z") - y * DiffForm.basis(chart, "x")
    assert doc.one_forms() == [value]


def test_parse_zero_two_form_accepted():
    doc = parse_document("coords x; form a = d(x) ^ d(x);")
    value = doc.binding("a").value
    assert value.degree == 2 and value.is_zero()


def test_parse_degree_mismatch_position():
    _fails_at(
        "coords x y; form a = d(x) + d(x)^d(y);",
        1, 27,
        "cannot combine degree 1 and degree 2 under '+'",
    )


def test_parse_vector_fields():
    doc = parse_document("coords x y z; field X = @x + y*@z; field Y = @y;")
    x_field, y_field = doc.vector_fields()
    chart = doc.chart
    y = Polynomial.coordinate(chart, "y")
    assert x_field == VectorField.basis(chart, "x") + y * VectorField.basis(chart, "z")
    assert y_field == VectorField.basis(chart, "y")


def test_parse_rationals_and_negation():
    doc = parse_document("coords x; form a = -1/2 * d(x); form b = 3 * a;")
    chart = doc.chart
    half = Fraction(-1, 2)
    assert doc.binding("a").value == half * DiffForm.basis(chart, "x")
    assert doc.binding("b").value == (3 * half) * DiffForm.basis(chart, "x")
    _fails_at("coords x; form a = 1/0 * d(x);", 1, 22, "zero denominator")


def test_parse_wedge_and_pow2():
    text = (
        "coords x1 x2 x3 x4 x5;\n"
        "form a = d(x5) - x1 * d(x2) - x3 * d(x4);\n"
        "form w = d(a);\n"
        "form big = pow2(w, 2);\n"
        "form top = a ^ big;\n"
    )
    doc = parse_document(text)
    chart = doc.chart
    a = doc.binding("a").value
    w = doc.binding("w").value
    assert w == exterior_derivative(a)
    assert doc.binding("big").value == wedge(w, w)
    assert doc.binding("top").value.degree == 5
    assert not doc.binding("top").value.is_zero()


def test_parse_type_errors():
    _fails_at("coords x y; form a = d(@x);", 1, 22, "d applies to forms")
    _fails_at("coords x y; form a = pow2(d(x), 2);", 1, 22, "pow2 expects a 2-form")
    _fails_at("coords x y; form a = d(x) * d(y);", 1, 27, "'*' needs a degree-0 factor")
    _fails_at("coords x y; field X = @x ^ @y;", 1, 26, "'^' applies to forms")
    _fails_at("coords x y; form a = d(x) + @y;", 1, 27, "cannot combine")
    _fails_at("coords x y; form a = b + d(x);", 1, 22, "unknown identifier 'b'")
    _fails_at("coords x y; field X = @w;", 1, 23, "unknown coordinate 'w'")


def test_parse_statement_errors():
    _fails_at("form a = d(x);", 1, 1, "coords must be declared before bindings")
    _fails_at("coords x; coords y;", 1, 11, "duplicate coords")
    _fails_at("coords ;", 1, 8, "at least one name")
    _fails_at("coords x; form a = d(x)", 1, 24, "expected ;")
    _fails_at("coords x; widget a = 1;", 1, 11, "unknown statement 'widget'")
    _fails_at("", 1, 1, "no coordinates")
    _fails_at("coords x x;", 1, 1, "distinct")
    _fails_at("coords x; form x = d(x);", 1, 1, "already defined")
    _fails_at("coords x; form a = d(x); form a = d(x);", 1, 1, "already defined")
    _fails_at("coords x; field F = d(x);", 1, 1, "not a vector field")
    _fails_at("coords x; form a = @x;", 1, 1, "evaluates to a vector field")


def test_task_is_not_a_statement():
    _fails_at("coords x; task check_dlo;", 1, 11, "unknown statement 'task'")


def test_pretty_print_round_trip():
    texts = [
        "coords x y z; form a = d(z) - y*d(x); field X = @x + y*@z;",
        "coords x y; form a = (d(x) + d(y)) ^ d(x);",
        "coords x y; form a = -(x + y) * d(x);",
        "coords x1 x2 x3 x4 x5; form w = d(d(x1) - x2*d(x3)); form p = pow2(w, 2);",
    ]
    for text in texts:
        doc = parse_document(text)
        printed = pretty_print(doc)
        again = parse_document(printed)
        assert again.coords == doc.coords
        assert [ (b.kind, b.name, b.expr) for b in again.bindings ] == \
               [ (b.kind, b.name, b.expr) for b in doc.bindings ]
        assert [b.value for b in again.bindings] == [b.value for b in doc.bindings]
        assert pretty_print(again) == printed
        assert printed.endswith("\n")


def test_pretty_print_precedence():
    doc = parse_document("coords x y; form a = -(x + y) * d(x); form b = (d(x) + d(y)) ^ d(y);")
    printed = pretty_print(doc)
    assert "form a = -(x + y) * d(x);" in printed
    assert "form b = (d(x) + d(y)) ^ d(y);" in printed


def test_binding_lookup_missing():
    doc = parse_document("coords x; form a = d(x);")
    try:
        doc.binding("missing")
        assert False
    except ParseError:
        pass
