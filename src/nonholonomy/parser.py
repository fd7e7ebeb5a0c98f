"""Input language for charts, forms, and fields.

Statements end with ';':

    coords x y z;
    form  a = d(z) - y * d(x);
    field X = @x + y * @z;

Expressions support '+' and '-' on matching degrees, '*' with a scalar
(degree-0) factor, '^' for the exterior product, 'd(...)' for the exterior
derivative, 'pow2(w, k)' for the k-th wedge power of a 2-form, '@name' for
coordinate vector fields, and rationals written 'p/q'. '#' starts a line
comment. Bindings are evaluated eagerly, so parse_document returns a
document whose named values are ready to use; all lexical, syntactic, and
type errors carry a 1-based line:column position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Chart, Polynomial
from .errors import ParseError
from .forms import DiffForm, VectorField, exterior_derivative, wedge, wedge_power

_PUNCT = set("=;(),+-*^@/")


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
        if ch.isdigit():
            j = i
            while j < size and text[j].isdigit():
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


# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Ref:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BasisField:
    name: str
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Dee:
    operand: object
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pow2:
    operand: object
    power: int
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Binding:
    kind: str  # form | field
    name: str
    expr: object
    value: object = field(default=None, compare=False)


@dataclass(frozen=True)
class InputDocument:
    coords: tuple
    bindings: tuple
    chart: Chart = field(default=None, compare=False)

    def binding(self, name: str):
        for b in self.bindings:
            if b.name == name:
                return b
        raise ParseError("no binding named %r" % name, 0, 0)

    def one_forms(self):
        """Degree-1 form values in declaration order."""
        return [
            b.value
            for b in self.bindings
            if b.kind == "form" and isinstance(b.value, DiffForm) and b.value.degree == 1
        ]

    def vector_fields(self):
        return [b.value for b in self.bindings if b.kind == "field"]


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

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

    # statements

    def document(self):
        coords = None
        bindings = []
        while self.peek().kind != "EOF":
            tok = self.expect("IDENT", what="a statement keyword")
            if tok.text == "coords":
                if coords is not None:
                    self.fail("duplicate coords statement", tok)
                names = []
                while self.peek().kind == "IDENT":
                    names.append(self.advance().text)
                if not names:
                    self.fail("coords needs at least one name")
                self.expect("PUNCT", ";")
                coords = tuple(names)
            elif tok.text in ("form", "field"):
                if coords is None:
                    self.fail("coords must be declared before bindings", tok)
                name_tok = self.expect("IDENT", what="a binding name")
                self.expect("PUNCT", "=")
                expr = self.expression()
                self.expect("PUNCT", ";")
                bindings.append(Binding(tok.text, name_tok.text, expr))
            else:
                self.fail("unknown statement %r (expected coords, form, or field)" % tok.text, tok)
        if coords is None:
            raise ParseError("document declares no coordinates", 1, 1)
        return coords, tuple(bindings)

    # expressions

    def expression(self):
        node = self.multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "+-":
                self.advance()
                right = self.multiplicative()
                node = BinOp(tok.text, node, right, tok.line, tok.col)
            else:
                return node

    def multiplicative(self):
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "PUNCT" and tok.text in "*^":
                self.advance()
                right = self.unary()
                node = BinOp(tok.text, node, right, tok.line, tok.col)
            else:
                return node

    def unary(self):
        tok = self.accept("PUNCT", "-")
        if tok:
            return Neg(self.unary(), tok.line, tok.col)
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            value = Fraction(int(tok.text))
            if self.accept("PUNCT", "/"):
                denom_tok = self.expect("NUMBER")
                denom = int(denom_tok.text)
                if denom == 0:
                    self.fail("zero denominator", denom_tok)
                value = Fraction(int(tok.text), denom)
            return Num(value, tok.line, tok.col)
        if tok.kind == "PUNCT" and tok.text == "@":
            self.advance()
            name_tok = self.expect("IDENT", what="a coordinate name after '@'")
            return BasisField(name_tok.text, tok.line, tok.col)
        if tok.kind == "PUNCT" and tok.text == "(":
            self.advance()
            node = self.expression()
            self.expect("PUNCT", ")")
            return node
        if tok.kind == "IDENT":
            self.advance()
            if tok.text == "d" and self.accept("PUNCT", "("):
                node = self.expression()
                self.expect("PUNCT", ")")
                return Dee(node, tok.line, tok.col)
            if tok.text == "pow2" and self.accept("PUNCT", "("):
                node = self.expression()
                self.expect("PUNCT", ",")
                power_tok = self.expect("NUMBER", what="an integer power")
                self.expect("PUNCT", ")")
                return Pow2(node, int(power_tok.text), tok.line, tok.col)
            return Ref(tok.text, tok.line, tok.col)
        self.fail("expected an expression")


# -- evaluation -------------------------------------------------------------


def _degree_of(value) -> str:
    if isinstance(value, Polynomial):
        return "degree 0"
    if isinstance(value, DiffForm):
        return "degree %d" % value.degree
    return "a vector field"


def _evaluate(node, chart: Chart, env: dict):
    if isinstance(node, Num):
        return Polynomial.constant(chart, node.value)
    if isinstance(node, Ref):
        if node.name in chart:
            return Polynomial.coordinate(chart, node.name)
        if node.name in env:
            return env[node.name]
        raise ParseError("unknown identifier %r" % node.name, node.line, node.col)
    if isinstance(node, BasisField):
        if node.name not in chart:
            raise ParseError("unknown coordinate %r" % node.name, node.line, node.col)
        return VectorField.basis(chart, node.name)
    if isinstance(node, Neg):
        return -_evaluate(node.operand, chart, env)
    if isinstance(node, Dee):
        value = _evaluate(node.operand, chart, env)
        if isinstance(value, VectorField):
            raise ParseError("d applies to forms, not vector fields", node.line, node.col)
        return exterior_derivative(value)
    if isinstance(node, Pow2):
        value = _evaluate(node.operand, chart, env)
        if not isinstance(value, DiffForm) or value.degree != 2:
            raise ParseError("pow2 expects a 2-form", node.line, node.col)
        if node.power < 1:
            raise ParseError("pow2 power must be >= 1", node.line, node.col)
        return wedge_power(value, node.power)
    if isinstance(node, BinOp):
        left = _evaluate(node.left, chart, env)
        right = _evaluate(node.right, chart, env)
        if node.op in "+-":
            if isinstance(left, VectorField) and isinstance(right, VectorField):
                return left + right if node.op == "+" else left - right
            if isinstance(left, Polynomial) and isinstance(right, Polynomial):
                return left + right if node.op == "+" else left - right
            if (
                isinstance(left, DiffForm)
                and isinstance(right, DiffForm)
                and left.degree == right.degree
            ):
                return left + right if node.op == "+" else left - right
            raise ParseError(
                "cannot combine %s and %s under %r"
                % (_degree_of(left), _degree_of(right), node.op),
                node.line,
                node.col,
            )
        if node.op == "*":
            if isinstance(left, Polynomial):
                return right * left if isinstance(right, (DiffForm, VectorField)) else left * right
            if isinstance(right, Polynomial):
                return left * right
            raise ParseError(
                "'*' needs a degree-0 factor (use '^' to multiply forms)",
                node.line,
                node.col,
            )
        if node.op == "^":
            if isinstance(left, (Polynomial, DiffForm)) and isinstance(right, (Polynomial, DiffForm)):
                return wedge(left, right)
            raise ParseError("'^' applies to forms", node.line, node.col)
    raise ParseError("unhandled expression", 0, 0)


def parse_document(text: str) -> InputDocument:
    coords, bindings = _Parser(tokenize(text)).document()
    try:
        chart = Chart(coords)
    except Exception as exc:
        raise ParseError(str(exc), 1, 1) from None
    env = {}
    evaluated = []
    for binding in bindings:
        if binding.name in chart or binding.name in env:
            raise ParseError("name %r is already defined" % binding.name, 1, 1)
        value = _evaluate(binding.expr, chart, env)
        if binding.kind == "field" and not isinstance(value, VectorField):
            raise ParseError("field %r is not a vector field" % binding.name, 1, 1)
        if binding.kind == "form" and isinstance(value, VectorField):
            raise ParseError("form %r evaluates to a vector field" % binding.name, 1, 1)
        env[binding.name] = value
        evaluated.append(Binding(binding.kind, binding.name, binding.expr, value))
    return InputDocument(coords, tuple(evaluated), chart)


# -- pretty printing --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "^": 2}


def _render(node, context: int = 0) -> str:
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Ref):
        return node.name
    if isinstance(node, BasisField):
        return "@" + node.name
    if isinstance(node, Neg):
        text = "-" + _render(node.operand, 3)
        return "(%s)" % text if context >= 3 else text
    if isinstance(node, Dee):
        return "d(%s)" % _render(node.operand)
    if isinstance(node, Pow2):
        return "pow2(%s, %d)" % (_render(node.operand), node.power)
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        text = "%s %s %s" % (
            _render(node.left, prec),
            node.op,
            _render(node.right, prec + 1),
        )
        return "(%s)" % text if context > prec else text
    raise ValueError("unknown node %r" % (node,))


def pretty_print(document: InputDocument) -> str:
    lines = ["coords %s;" % " ".join(document.coords)]
    for binding in document.bindings:
        lines.append("%s %s = %s;" % (binding.kind, binding.name, _render(binding.expr)))
    return "\n".join(lines) + "\n"
