"""Exact scalars and sparse polynomials over a named coordinate chart.

Every scalar is an arbitrary-precision rational (``fractions.Fraction``), so
every rank decision and independence verdict downstream is exact: equality
to zero is equality, not a tolerance. Polynomials are sparse maps from
exponent tuples to nonzero Fractions; the zero polynomial has an empty term
map. IntegerGrid compiles rows of polynomials once and evaluates them in
ints at the integer rows q_1, ..., q_n, D of points q/D, which
_integer_point makes from points of ints and Fractions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm
from operator import mul

from .errors import InputError


def random_rational(rng: random.Random) -> Fraction:
    """A small random rational: numerator in [-9, 9], denominator in {1, 2, 3}."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def signed_sum(parts) -> str:
    """Join rendered terms with " + ", turning a term's leading "-" into
    " - "; "0" when there are no terms."""
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        text += " - " + part[1:] if part.startswith("-") else " + " + part
    return text


class Chart:
    """An ordered tuple of distinct coordinate names.

    Coordinate indices are 1-based everywhere in this package; the chart
    translates between names and indices.
    """

    __slots__ = ("names", "_pos")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise InputError("a chart needs at least one coordinate")
        if len(set(names)) != len(names):
            raise InputError("coordinate names must be distinct: %r" % (names,))
        self.names = names
        self._pos = {name: i + 1 for i, name in enumerate(names)}

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        """1-based index of a coordinate name."""
        try:
            return self._pos[name]
        except KeyError:
            raise InputError("unknown coordinate %r" % name) from None

    def __contains__(self, name):
        return name in self._pos

    def __eq__(self, other):
        return isinstance(other, Chart) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return "Chart(%s)" % ", ".join(self.names)


def _as_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputError("expected an integer or Fraction, got %r" % (value,))


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    ``terms`` maps an exponent tuple (one entry per chart coordinate) to a
    nonzero Fraction. Instances are treated as immutable; all arithmetic
    returns new objects and zero coefficients are dropped on construction.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != chart.n:
                    raise InputError(
                        "exponent tuple %r does not match chart of dimension %d"
                        % (exps, chart.n)
                    )
                if any(e < 0 for e in exps):
                    raise InputError("negative exponent in %r" % (exps,))
                coeff = _as_scalar(coeff)
                if coeff:
                    clean[exps] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls(chart)

    @classmethod
    def constant(cls, chart: Chart, value) -> "Polynomial":
        value = _as_scalar(value)
        if not value:
            return cls(chart)
        return cls(chart, {(0,) * chart.n: value})

    @classmethod
    def coordinate(cls, chart: Chart, name_or_index) -> "Polynomial":
        """The coordinate function x_i as a polynomial."""
        if isinstance(name_or_index, str):
            i = chart.index(name_or_index)
        else:
            i = name_or_index
            if not 1 <= i <= chart.n:
                raise InputError("coordinate index %d out of range 1..%d" % (i, chart.n))
        exps = [0] * chart.n
        exps[i - 1] = 1
        return cls(chart, {tuple(exps): Fraction(1)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.chart.n}

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error otherwise)."""
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise InputError("polynomial %s is not constant" % self)
        return self.terms[(0,) * self.chart.n]

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.chart != self.chart:
                raise InputError("polynomials live on different charts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.chart, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            total = terms.get(exps, 0) + coeff
            if total:
                terms[exps] = total
            else:
                terms.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        out.chart = self.chart
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial.__new__(Polynomial)
        out.chart = self.chart
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = Polynomial.__new__(Polynomial)
            out.chart = self.chart
            out.terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return out
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                total = terms.get(exps, 0) + c1 * c2
                if total:
                    terms[exps] = total
                else:
                    terms.pop(exps, None)
        out = Polynomial.__new__(Polynomial)
        out.chart = self.chart
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputError("polynomial powers take a non-negative integer")
        result = Polynomial.constant(self.chart, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.chart, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- display ----------------------------------------------------------

    def __str__(self):
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[exps]
            factors = []
            for name, e in zip(self.chart.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append("%s^%d" % (name, e))
            if not factors:
                body = str(coeff)
            elif coeff == 1:
                body = "*".join(factors)
            elif coeff == -1:
                body = "-" + "*".join(factors)
            else:
                body = str(coeff) + "*" + "*".join(factors)
            parts.append(body)
        return signed_sum(parts)

    def __repr__(self):
        return "Polynomial(%s)" % self


def poly_eval(p: Polynomial, point) -> Fraction:
    """Evaluate at a point given as a sequence of Fractions in chart order."""
    point = tuple(point)
    if len(point) != p.chart.n:
        raise InputError(
            "point of length %d does not match chart of dimension %d"
            % (len(point), p.chart.n)
        )
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x ** e
        total += value
    return total


def _integer_point(point, n: int):
    """The integers q_1, ..., q_n, D of a point p = q/D given as n ints and
    Fractions, D the lcm of their denominators; InputError for any other
    point."""
    point = tuple(point)
    if len(point) != n:
        raise InputError(
            "point of length %d does not match chart of dimension %d" % (len(point), n)
        )
    try:
        denom = lcm(*[x.denominator for x in point])
        bases = [x.numerator * (denom // x.denominator) for x in point]
    except AttributeError:
        raise InputError("expected integers or Fractions, got %r" % (point,)) from None
    bases.append(denom)
    return bases


class IntegerGrid:
    """Rows of polynomials on one chart, compiled once for exact evaluation
    in integers at many points.

    Every distinct exponent tuple of the grid gets one slot, and each row's
    coefficients become integers over that row's own denominator lcm L_row.
    At a point p = q/D, with q integer and D any positive common
    denominator, each slot's monomial is D^(dmax - deg) * prod_j q_j^e_j,
    dmax the grid's top degree. The powers D^1..D^dmax and q_j^1..q_j^top_j
    are computed first, and the slots are compiled into a trie over their
    factors, the power of D first and then those of q_j in chart order: a
    node is its parent's value times one power, so each node costs one
    multiplication. Row i at p is L_i * D^dmax times the exact values of
    row i: a positive multiple, so ranks and zero tests are those of the
    exact rows, and at two points of one D the rows carry the same factors.
    degree is dmax, so a grid of degree 0 is constant.
    """

    __slots__ = ("degree", "_rows", "_tops", "_levels")

    def __init__(self, chart: Chart, rows):
        rows = [list(row) for row in rows]
        if any(p.chart != chart for row in rows for p in row):
            raise InputError("grid polynomials live on different charts")
        exponents = list(dict.fromkeys(e for row in rows for p in row for e in p.terms))
        self.degree = top = max(map(sum, exponents), default=0)
        # the exponents of D and then of each coordinate, the index of each
        # in a point's integer row, and their powers laid end to end after
        # the empty product 1
        homogenized = [(top - sum(e),) + e for e in exponents]
        tops = [max((h[i] for h in homogenized), default=0) for i in range(chart.n + 1)]
        self._tops = [(j, t) for j, t in zip([chart.n, *range(chart.n)], tops) if t]
        starts = [1]
        for t in tops:
            starts.append(starts[-1] + t)
        factors = [tuple(at + x - 1 for at, x in zip(starts, h) if x) for h in homogenized]
        # a prefix of one factor is that power; the longer prefixes are
        # numbered after the powers, depth by depth, and each depth is kept
        # as the (parent, power) pairs of its nodes in order
        node_of = {(): 0}
        node_of.update(((f,), f) for f in range(1, starts[-1]))
        self._levels = []
        for depth in range(2, max(map(len, factors), default=0) + 1):
            parents, powers = [], []
            for f in factors:
                if len(f) >= depth and f[:depth] not in node_of:
                    node_of[f[:depth]] = len(node_of)
                    parents.append(node_of[f[:depth - 1]])
                    powers.append(f[depth - 1])
            self._levels.append((parents, powers))
        slot_node = {e: node_of[f] for e, f in zip(exponents, factors)}
        self._rows = []
        for row in rows:
            scale = lcm(*(c.denominator for p in row for c in p.terms.values()))
            # an entry is its integer coefficients and the nodes of their monomials
            self._rows.append([
                (tuple(c.numerator * (scale // c.denominator) for c in p.terms.values()),
                 tuple(map(slot_node.__getitem__, p.terms)))
                for p in row
            ])

    def __len__(self):
        return len(self._rows)

    def at(self, q):
        """The integer rows at the point q_1/D, ..., q_n/D, given as the ints
        q_1, ..., q_n, D with D > 0. The monomials are computed at once, and
        each row when it is read."""
        values = [1]
        for j, top in self._tops:
            values += accumulate(repeat(q[j], top), mul)
        get = values.__getitem__
        for parents, powers in self._levels:
            values += list(map(mul, map(get, parents), map(get, powers)))
        return ([sum(map(mul, coeffs, map(get, nodes))) for coeffs, nodes in row]
                for row in self._rows)


def poly_diff(p: Polynomial, index: int) -> Polynomial:
    """Partial derivative with respect to the coordinate with 1-based index."""
    if not 1 <= index <= p.chart.n:
        raise InputError("coordinate index %d out of range 1..%d" % (index, p.chart.n))
    i = index - 1
    terms = {}
    for exps, coeff in p.terms.items():
        e = exps[i]
        if e:
            lowered = exps[:i] + (e - 1,) + exps[i + 1:]
            terms[lowered] = terms.get(lowered, 0) + coeff * e
    return Polynomial(p.chart, terms)
