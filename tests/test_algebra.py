import random
from fractions import Fraction
from math import lcm

import pytest

from nonholonomy.algebra import (
    Chart, IntegerGrid, Polynomial, _integer_point, poly_diff, poly_eval,
)
from nonholonomy.errors import InputError

from conftest import rnd_chart, rnd_poly, rnd_point
from oracles import grid_rows_by_products


def test_chart_basics():
    ch = Chart(("x", "y", "z"))
    assert ch.n == 3
    assert ch.index("x") == 1 and ch.index("z") == 3
    assert "y" in ch and "w" not in ch
    with pytest.raises(InputError):
        ch.index("w")
    with pytest.raises(InputError):
        Chart(())
    with pytest.raises(InputError):
        Chart(("x", "x"))


def test_polynomial_construction_drops_zeros():
    ch = Chart(("x", "y"))
    p = Polynomial(ch, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert (1, 0) not in p.terms
    assert p == 2 * Polynomial.coordinate(ch, "y")
    assert Polynomial.zero(ch).is_zero()
    assert Polynomial.constant(ch, 0).is_zero()
    with pytest.raises(InputError):
        Polynomial(ch, {(1,): 1})
    with pytest.raises(InputError):
        Polynomial(ch, {(-1, 0): 1})


def test_polynomial_arithmetic_example():
    ch = Chart(("x", "y"))
    x = Polynomial.coordinate(ch, "x")
    y = Polynomial.coordinate(ch, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert x ** 0 == 1
    with pytest.raises(InputError):
        x ** -1


def test_ring_axioms_random():
    rng = random.Random(1)
    for _ in range(200):
        ch = rnd_chart(rng, max_n=4)
        p, q, r = (rnd_poly(rng, ch) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == 0
        assert p * 1 == p and p * 0 == 0


def test_eval_is_a_homomorphism():
    rng = random.Random(2)
    for _ in range(200):
        ch = rnd_chart(rng, max_n=4)
        p, q = rnd_poly(rng, ch), rnd_poly(rng, ch)
        pt = rnd_point(rng, ch)
        assert poly_eval(p + q, pt) == poly_eval(p, pt) + poly_eval(q, pt)
        assert poly_eval(p * q, pt) == poly_eval(p, pt) * poly_eval(q, pt)
    with pytest.raises(InputError):
        poly_eval(Polynomial.zero(Chart(("x", "y"))), (Fraction(1),))


def _random_grid(rng, chart):
    """Rows of random polynomials with zero and constant entries mixed in;
    a row may be empty."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        row = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.2:
                row.append(Polynomial.zero(chart))
            elif kind < 0.35:
                row.append(Polynomial.constant(chart, Fraction(rng.randint(-9, 9), rng.randint(1, 6))))
            else:
                row.append(rnd_poly(rng, chart, max_terms=4, max_degree=3))
        rows.append(row)
    return rows


def _random_grid_point(rng, chart):
    # zeros, negatives, plain ints and Fractions with denominators 1-3
    return tuple(rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 3))))
                 for _ in range(chart.n))


def _random_grids():
    """400 (chart, grid, points): random grids on 1 to 4 coordinates, each
    with three random points."""
    rng = random.Random(5)
    for _ in range(400):
        chart = rnd_chart(rng, max_n=4)
        grid = _random_grid(rng, chart)
        yield chart, grid, [_random_grid_point(rng, chart) for _ in range(3)]


def test_integer_grid_rows_are_positive_multiples_of_exact_rows():
    rows_seen = 0
    for chart, grid, points in _random_grids():
        compiled = IntegerGrid(chart, grid)
        top = max((sum(e) for row in grid for p in row for e in p.terms), default=0)
        for point in points:
            values = compiled(point)
            assert len(values) == len(grid)
            denom = lcm(*(Fraction(x).denominator for x in point))
            for row, got in zip(grid, values):
                exact = [poly_eval(p, point) for p in row]
                assert len(got) == len(exact)
                assert all(type(x) is int for x in got)
                # cross-multiplied against the first nonzero exact value,
                # with a positive ratio there; all zero when the row is
                ref = next((j for j, x in enumerate(exact) if x), None)
                if ref is None:
                    assert not any(got)
                    continue
                assert all(g * exact[ref] == x * got[ref] for g, x in zip(got, exact))
                assert (got[ref] > 0) == (exact[ref] > 0)
                # the documented factor: the row's coefficient lcm times D^dmax
                scale = lcm(*(c.denominator for p in row for c in p.terms.values()))
                assert got[ref] == exact[ref] * scale * denom ** top
                rows_seen += 1
    assert rows_seen > 1000


def test_integer_grid_trie_matches_products_of_powers():
    # at the reduced denominator and at multiples of it, the trie's rows
    # equal the product-of-powers oracle's, and a point given as Fractions
    # reads as its reduced integer row
    deepest = 0
    for chart, grid, points in _random_grids():
        compiled = IntegerGrid(chart, grid)
        deepest = max(deepest, len(compiled._levels))
        for point in points:
            reduced = _integer_point(point, chart.n)
            assert compiled(point) == grid_rows_by_products(grid, reduced)
            for c in (2, 3, 6):
                q = [x * c for x in reduced]
                assert list(compiled.at(q)) == grid_rows_by_products(grid, q)
    # degree-3 monomials have up to three factors, q_j powers and one of D,
    # so the trie reaches two levels past the powers
    assert deepest == 2


def test_integer_grid_rejects_bad_points_and_charts():
    chart = Chart(("x", "y"))
    x = Polynomial.coordinate(chart, "x")
    compiled = IntegerGrid(chart, [[x, x * x + Fraction(1, 2)]])
    assert compiled((Fraction(1, 2), 7)) == [[4, 6]]
    for bad in ((Fraction(1),), (1, 2, 3), ()):
        with pytest.raises(InputError):
            compiled(bad)
    with pytest.raises(InputError):
        compiled((0.5, 1))
    with pytest.raises(InputError):
        IntegerGrid(chart, [[Polynomial.coordinate(Chart(("x",)), "x")]])
    # no rows, or no entries: nothing to evaluate, but the length still counts
    assert IntegerGrid(chart, [])((1, 2)) == []
    assert IntegerGrid(chart, [[], []])((1, 2)) == [[], []]
    with pytest.raises(InputError):
        IntegerGrid(chart, [])((1,))


def test_diff_example():
    # d/dx of x^2 y is 2xy
    ch = Chart(("x", "y"))
    p = Polynomial(ch, {(2, 1): Fraction(1)})
    assert poly_diff(p, 1) == Polynomial(ch, {(1, 1): Fraction(2)})
    assert poly_diff(p, 2) == Polynomial(ch, {(2, 0): Fraction(1)})
    assert poly_diff(Polynomial.constant(ch, 5), 1).is_zero()
    with pytest.raises(InputError):
        poly_diff(p, 3)


def test_diff_against_symmetric_quotient():
    # The symmetric difference quotient is exact for degree <= 2 in the
    # differentiated variable, so random quadratics give a true oracle.
    rng = random.Random(3)
    h = Fraction(1, 7)
    checked = 0
    while checked < 200:
        ch = rnd_chart(rng, max_n=3)
        p = rnd_poly(rng, ch, max_terms=4, max_degree=2)
        i = rng.randint(1, ch.n)
        if max((e[i - 1] for e in p.terms), default=0) > 2:
            continue
        pt = list(rnd_point(rng, ch))
        up = list(pt)
        down = list(pt)
        up[i - 1] += h
        down[i - 1] -= h
        quotient = (poly_eval(p, up) - poly_eval(p, down)) / (2 * h)
        assert poly_eval(poly_diff(p, i), pt) == quotient
        checked += 1


def test_diff_product_rule():
    rng = random.Random(4)
    for _ in range(200):
        ch = rnd_chart(rng, max_n=4)
        p, q = rnd_poly(rng, ch), rnd_poly(rng, ch)
        i = rng.randint(1, ch.n)
        assert poly_diff(p * q, i) == poly_diff(p, i) * q + p * poly_diff(q, i)


def test_constant_queries():
    ch = Chart(("x",))
    x = Polynomial.coordinate(ch, "x")
    assert Polynomial.constant(ch, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert Polynomial.zero(ch).constant_value() == 0
    assert not x.is_constant()
    with pytest.raises(InputError):
        x.constant_value()


def test_str_rendering():
    ch = Chart(("x", "y"))
    x = Polynomial.coordinate(ch, "x")
    y = Polynomial.coordinate(ch, "y")
    assert str(x * x * y - y + Fraction(1, 2)) == "x^2*y - y + 1/2"
    assert str(Polynomial.zero(ch)) == "0"
    assert str(-x) == "-x"
