"""Input language: lexing, and values evaluated as they are parsed.

Errors carry line:column positions; a seeded fuzz guard checks that no
input makes parse_document raise anything but ParseError.
"""

import random
from fractions import Fraction

from nonholonomy.algebra import Polynomial
from nonholonomy.errors import InputError, ParseError
from nonholonomy.forms import DiffForm, VectorField, exterior_derivative, wedge
from nonholonomy.parser import InputDocument, parse_document, tokenize


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
    # int() accepts exactly the str.isdecimal() digits: '٣' is three, '²' is not a digit
    doc = parse_document("coords x; form a = \u0663 * d(x);")
    assert doc.binding("a").value == 3 * DiffForm.basis(doc.chart, "x")
    _fails_at("coords x; form a = \u00b2 * d(x);", 1, 20, "unexpected character '\u00b2'")
    _fails_at("coords x; form a = 1/%s * d(x);" % ("7" * 5000), 1, 22, "too many digits")


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


def test_wedge_of_two_scalars_is_a_scalar():
    # '^' between two degree-0 values is their product, a polynomial, so it
    # adds to a polynomial and scales a form like any other scalar
    doc = parse_document("coords x y z; form a = (x ^ y) + x; form b = (x ^ y) * d(z);")
    x, y = (Polynomial.coordinate(doc.chart, name) for name in ("x", "y"))
    assert isinstance(doc.binding("a").value, Polynomial)
    assert doc.binding("a").value == x * y + x
    assert doc.binding("b").value == (x * y) * DiffForm.basis(doc.chart, "z")


def test_pow2_power_past_the_dimension_is_zero_at_once():
    # w^k vanishes once 2k > n, so a huge power is the zero 2k-form,
    # built without k wedges (or a k-item list, which overflows past 2**63)
    text = "coords x y; form w = d(x) ^ d(y); form z = pow2(w, %d);" % 10**30
    value = parse_document(text).binding("z").value
    assert value == DiffForm.zero(value.chart, 2 * 10**30)


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
    _fails_at("coords x; form x = d(x);", 1, 16, "already defined")
    _fails_at("coords x; form a = d(x); form a = d(x);", 1, 31, "already defined")
    _fails_at("coords x; field F = d(x);", 1, 17, "not a vector field")
    _fails_at("coords x; form a = @x;", 1, 16, "evaluates to a vector field")


def test_task_is_not_a_statement():
    _fails_at("coords x; task check_dlo;", 1, 11, "unknown statement 'task'")


def test_binding_lookup_missing():
    doc = parse_document("coords x; form a = d(x);")
    try:
        doc.binding("missing")
        assert False
    except InputError as err:
        # a lookup after parsing has no source position to report
        assert not isinstance(err, ParseError)
        assert str(err) == "no binding named 'missing'"


def test_first_error_in_reading_order_wins():
    _fails_at("coords x; form a = d(@x) + ;", 1, 20, "d applies to forms")
    _fails_at("coords x x; form a = d(x)", 1, 1, "distinct")
    _fails_at("coords x; form a = d(x) form b = d(x);", 1, 25, "expected ;")


def test_end_of_input_after_a_trailing_comment_is_past_the_comment():
    # a comment on the last line, with no newline after it, still takes
    # columns: the end of input is one past its last character
    _fails_at("coords x;\nform a = d(x) # missing semicolon", 2, 34, "got 'end of input'")
    _fails_at("coords x; form a = d(x) #", 1, 26, "got 'end of input'")
    tokens = tokenize("coords x; # a\n# bc")
    assert (tokens[-1].line, tokens[-1].col) == (2, 5)


def test_deep_nesting_is_a_parse_error():
    # the 101st nesting level is the offending token; the document's own
    # prefix takes columns 1..19
    head = "coords x; form a = "
    _fails_at(head + "(" * 1000 + "d(x)" + ")" * 1000 + ";", 1, 120, "nested too deeply")
    _fails_at(head + "-" * 1000 + "d(x);", 1, 120, "nested too deeply")
    _fails_at(head + "d(" * 1000 + "x" + ")" * 1000 + ";", 1, 220, "nested too deeply")
    # 100 levels stay within the bound: 98 parentheses, then d( and x
    doc = parse_document(head + "(" * 98 + "d(x)" + ")" * 98 + ";")
    assert str(doc.binding("a").value) == "dx"
    doc = parse_document(head + "-" * 99 + "x * d(x);")
    assert str(doc.binding("a").value) == "-x*dx"


_NAMES = ("x", "y", "z", "w")
_EDIT_CHARS = "xyzab d@()+-*^/,;=#\n0123\u00b2\u0663\u00e9\u00df\u216b$"


def _random_expression(rng, coords, names, depth):
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice((
            rng.choice(names),
            str(rng.randint(0, 3)),
            "%d/%d" % (rng.randint(-2, 3), rng.randint(0, 3)),
            "@" + rng.choice(coords),
            "d(%s)" % rng.choice(coords),
        ))
    sub = _random_expression(rng, coords, names, depth - 1)
    pick = rng.randrange(5)
    if pick == 0:
        return "d(%s)" % sub
    if pick == 1:
        return "pow2(%s, %d)" % (sub, rng.randint(0, 2))
    if pick == 2:
        return "-(%s)" % sub
    other = _random_expression(rng, coords, names, depth - 1)
    return "(%s %s %s)" % (sub, rng.choice("+-*^"), other)


def _random_document(rng):
    coords = rng.sample(_NAMES, rng.randint(1, 4))
    names = list(coords)
    lines = ["coords %s;" % " ".join(coords)]
    for index in range(rng.randint(0, 3)):
        name = "b%d" % index
        kind = rng.choice(("form", "form", "field"))
        lines.append("%s %s = %s;" % (kind, name, _random_expression(rng, coords, names, 2)))
        names.append(name)
    text = "\n".join(lines)
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        char = rng.choice(_EDIT_CHARS)
        if edit == 0:
            text = text[:at] + char + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at + 1:]
    return text


def _deep_document(rng):
    # one atom nested in one kind of opener, from shallow to far past the
    # nesting bound, sometimes with an edit
    opener, closer = rng.choice((("(", ")"), ("-", ""), ("d(", ")"), ("pow2(", ", 1)")))
    depth = rng.choice((rng.randint(1, 90), rng.randint(90, 1500)))
    atom = rng.choice(("x", "d(x)", "@x", "d(x) ^ d(y)"))
    text = "coords x y;\nform a = %s%s%s;" % (opener * depth, atom, closer * depth)
    if rng.random() < 0.3:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(_EDIT_CHARS) + text[at + 1:]
    return text


def _parse_outcome(text):
    try:
        result = parse_document(text)
    except ParseError:
        return "rejected"
    assert isinstance(result, InputDocument), text
    return "accepted"


def test_fuzz_parse_returns_document_or_parse_error():
    rng = random.Random(2024)
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(2000):
        outcomes[_parse_outcome(_random_document(rng))] += 1
    # the generator must exercise both paths to guard anything
    assert min(outcomes.values()) > 200, outcomes
    deep = {"accepted": 0, "rejected": 0}
    for _ in range(300):
        deep[_parse_outcome(_deep_document(rng))] += 1
    assert min(deep.values()) > 30, deep
