"""Input language for charts, forms, and fields.

Statements end with ';':

    coords x y z;
    form  a = d(z) - y * d(x);
    field X = @x + y * @z;

Expressions support '+' and '-' on matching degrees, '*' with a scalar
(degree-0) factor, '^' for the exterior product, 'd(...)' for the exterior
derivative, 'pow2(w, k)' for the k-th wedge power of a 2-form, '@name' for
coordinate vector fields, and rationals written 'p/q'. '#' starts a line
comment.

A lexer feeds a one-pass recursive-descent evaluator: each grammar rule
returns the polynomial, form or vector field it read, and no syntax tree is
kept. parse_document therefore returns a document whose named values are
ready to use. Lexical, syntactic and type errors carry a 1-based
line:column position. The whole text is tokenized first, so a lexical
error is reported before any other; past the lexer, the first error in
reading order is the one reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Chart, Polynomial
from .errors import InputError, ParseError
from .forms import DiffForm, VectorField, exterior_derivative, wedge, wedge_power

_PUNCT = set("=;(),+-*^@/")
_MAX_DEPTH = 100


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, NUMBER, PUNCT, EOF
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < size and text[i] != "\n":
                i += 1
                col += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdecimal():
            j = i
            while j < size and text[j].isdecimal():
                j += 1
            tokens.append(Token("NUMBER", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


@dataclass(frozen=True)
class Binding:
    kind: str  # form | field
    name: str
    value: object


@dataclass(frozen=True)
class InputDocument:
    coords: tuple
    bindings: tuple
    chart: Chart = field(default=None, compare=False)

    def binding(self, name: str):
        for b in self.bindings:
            if b.name == name:
                return b
        raise InputError("no binding named %r" % name)

    def one_forms(self):
        """Degree-1 form values in declaration order."""
        return [
            b.value
            for b in self.bindings
            if b.kind == "form" and isinstance(b.value, DiffForm) and b.value.degree == 1
        ]

    def vector_fields(self):
        return [b.value for b in self.bindings if b.kind == "field"]


def _degree_of(value) -> str:
    if isinstance(value, Polynomial):
        return "degree 0"
    if isinstance(value, DiffForm):
        return "degree %d" % value.degree
    return "a vector field"


class _Parser:
    """Recursive descent over the token list. Each expression rule returns
    the value it read, so the chart must exist before any binding."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.chart = None
        self.env = {}
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind, text=None, what=None):
        tok = self.accept(kind, text)
        if tok is None:
            want = what or (text or kind)
            got = self.peek().text or "end of input"
            self.fail("expected %s, got %r" % (want, got))
        return tok

    def integer(self, tok) -> int:
        try:
            return int(tok.text)
        except ValueError:  # longer than sys.get_int_max_str_digits()
            self.fail("number has too many digits", tok)

    def accept_op(self, ops):
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in ops:
            return self.advance()
        return None

    # statements

    def document(self) -> InputDocument:
        bindings = []
        while self.peek().kind != "EOF":
            tok = self.expect("IDENT", what="a statement keyword")
            if tok.text == "coords":
                if self.chart is not None:
                    self.fail("duplicate coords statement", tok)
                names = []
                while self.peek().kind == "IDENT":
                    names.append(self.advance().text)
                if not names:
                    self.fail("coords needs at least one name")
                self.expect("PUNCT", ";")
                try:
                    self.chart = Chart(names)
                except InputError as exc:
                    self.fail(str(exc), tok)
            elif tok.text in ("form", "field"):
                if self.chart is None:
                    self.fail("coords must be declared before bindings", tok)
                name_tok = self.expect("IDENT", what="a binding name")
                name = name_tok.text
                if name in self.chart or name in self.env:
                    self.fail("name %r is already defined" % name, name_tok)
                self.expect("PUNCT", "=")
                value = self.expression()
                self.expect("PUNCT", ";")
                if tok.text == "field" and not isinstance(value, VectorField):
                    self.fail("field %r is not a vector field" % name, name_tok)
                if tok.text == "form" and isinstance(value, VectorField):
                    self.fail("form %r evaluates to a vector field" % name, name_tok)
                self.env[name] = value
                bindings.append(Binding(tok.text, name, value))
            else:
                self.fail("unknown statement %r (expected coords, form, or field)" % tok.text, tok)
        if self.chart is None:
            raise ParseError("document declares no coordinates", 1, 1)
        return InputDocument(self.chart.names, tuple(bindings), self.chart)

    # expressions

    def expression(self):
        value = self.multiplicative()
        while True:
            tok = self.accept_op("+-")
            if tok is None:
                return value
            right = self.multiplicative()
            if type(value) is not type(right) or (
                isinstance(value, DiffForm) and value.degree != right.degree
            ):
                self.fail(
                    "cannot combine %s and %s under %r"
                    % (_degree_of(value), _degree_of(right), tok.text),
                    tok,
                )
            value = value + right if tok.text == "+" else value - right

    def multiplicative(self):
        value = self.unary()
        while True:
            tok = self.accept_op("*^")
            if tok is None:
                return value
            right = self.unary()
            if tok.text == "^":
                if isinstance(value, VectorField) or isinstance(right, VectorField):
                    self.fail("'^' applies to forms", tok)
                both_scalar = isinstance(value, Polynomial) and isinstance(right, Polynomial)
                value = value * right if both_scalar else wedge(value, right)
            elif isinstance(value, Polynomial):
                value = right * value if isinstance(right, (DiffForm, VectorField)) else value * right
            elif isinstance(right, Polynomial):
                value = value * right
            else:
                self.fail("'*' needs a degree-0 factor (use '^' to multiply forms)", tok)

    def unary(self):
        # every nesting ('(', '-', 'd(', 'pow2(') passes through here, so
        # one depth bound keeps the recursion far from Python's limit
        if self.depth == _MAX_DEPTH:
            self.fail("expression nested too deeply")
        self.depth += 1
        value = -self.unary() if self.accept("PUNCT", "-") else self.atom()
        self.depth -= 1
        return value

    def atom(self):
        tok = self.advance()
        if tok.kind == "NUMBER":
            value = Fraction(self.integer(tok))
            if self.accept("PUNCT", "/"):
                denom_tok = self.expect("NUMBER")
                denom = self.integer(denom_tok)
                if denom == 0:
                    self.fail("zero denominator", denom_tok)
                value /= denom
            return Polynomial.constant(self.chart, value)
        if tok.kind == "PUNCT" and tok.text == "@":
            name_tok = self.expect("IDENT", what="a coordinate name after '@'")
            if name_tok.text not in self.chart:
                self.fail("unknown coordinate %r" % name_tok.text, tok)
            return VectorField.basis(self.chart, name_tok.text)
        if tok.kind == "PUNCT" and tok.text == "(":
            value = self.expression()
            self.expect("PUNCT", ")")
            return value
        if tok.kind == "IDENT":
            if tok.text == "d" and self.accept("PUNCT", "("):
                value = self.expression()
                self.expect("PUNCT", ")")
                if isinstance(value, VectorField):
                    self.fail("d applies to forms, not vector fields", tok)
                return exterior_derivative(value)
            if tok.text == "pow2" and self.accept("PUNCT", "("):
                value = self.expression()
                self.expect("PUNCT", ",")
                power_tok = self.expect("NUMBER", what="an integer power")
                self.expect("PUNCT", ")")
                if not isinstance(value, DiffForm) or value.degree != 2:
                    self.fail("pow2 expects a 2-form", tok)
                power = self.integer(power_tok)
                if power < 1:
                    self.fail("pow2 power must be >= 1", tok)
                return wedge_power(value, power)
            if tok.text in self.chart:
                return Polynomial.coordinate(self.chart, tok.text)
            if tok.text in self.env:
                return self.env[tok.text]
            self.fail("unknown identifier %r" % tok.text, tok)
        self.fail("expected an expression", tok)


def parse_document(text: str) -> InputDocument:
    return _Parser(tokenize(text)).document()
