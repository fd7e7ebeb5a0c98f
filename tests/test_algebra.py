import random
from fractions import Fraction
from math import lcm

import pytest

from nonholonomy import algebra
from nonholonomy.algebra import (
    Chart, IntegerGrid, Polynomial, _integer_point, poly_diff, poly_eval, random_rational,
)
from nonholonomy.errors import InputError

from conftest import rnd_chart, rnd_poly, rnd_point
from oracles import fraction_draw, grid_rows_by_products


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


def test_random_rational_takes_the_fraction_draws_rng_calls():
    # the table lookup returns the Fraction a new one would be, from the
    # same two rng calls, over every numerator and denominator
    fast, slow = random.Random(5), random.Random(5)
    seen = set()
    for _ in range(3000):
        value = random_rational(fast)
        assert value == fraction_draw(slow) and type(value) is Fraction
        seen.add(value)
    assert fast.getstate() == slow.getstate()
    assert seen == {Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3)}


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


def test_exact_division_inverts_multiplication():
    # (a*b) // b == a on random polynomials; a scalar divisor divides every
    # coefficient; a non-divisor raises InputError, a zero one
    # ZeroDivisionError
    rng = random.Random(7)
    divided = 0
    while divided < 200:
        ch = rnd_chart(rng, max_n=4)
        a, b = rnd_poly(rng, ch), rnd_poly(rng, ch)
        if not b.is_zero():
            assert (a * b) // b == a and divmod(a * b, b) == (a, 0)
            divided += 1
    ch = Chart(("x", "y"))
    x = Polynomial.coordinate(ch, "x")
    y = Polynomial.coordinate(ch, "y")
    assert (x * x - y * y) // (x - y) == x + y
    assert (2 * x + 4) // 2 == x + 2 and (2 * x) // Fraction(2, 3) == 3 * x
    assert (6 * y) // Polynomial.constant(ch, 3) == 2 * y
    for p, d in ((x, y), (x * x + 1, x), (x * y + 1, x + y), (Polynomial.constant(ch, 1), x)):
        with pytest.raises(InputError):
            p // d
    for zero in (0, Fraction(0), Polynomial.zero(ch)):
        with pytest.raises(ZeroDivisionError):
            x // zero


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


def _rows_at(compiled, chart, point):
    """The grid's integer rows at a point given as ints and Fractions."""
    return list(compiled.at(_integer_point(point, chart.n)))


def test_integer_grid_rows_are_positive_multiples_of_exact_rows():
    rows_seen = 0
    for chart, grid, points in _random_grids():
        compiled = IntegerGrid(chart, grid)
        top = max((sum(e) for row in grid for p in row for e in p.terms), default=0)
        for point in points:
            values = _rows_at(compiled, chart, point)
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
            assert _rows_at(compiled, chart, point) == grid_rows_by_products(grid, reduced)
            for c in (2, 3, 6):
                q = [x * c for x in reduced]
                assert list(compiled.at(q)) == grid_rows_by_products(grid, q)
    # degree-3 monomials have up to three factors, q_j powers and one of D,
    # so the trie reaches two levels past the powers
    assert deepest == 2


def _over_rows(compiled, qs):
    """IntegerGrid.over's rows at each point of qs, as lists, as at gives them."""
    return [[list(row) for row in rows] for rows in compiled.over(qs)]


def test_integer_grid_over_matches_at_and_products_of_powers():
    # the column-wise rows equal at(q) and the product-of-powers oracle int
    # for int, on one list of points that mixes denominators, on random
    # grids with empty grids, empty rows and zero entries among them, and
    # on grids of degree 0; no point gives no rows
    seen = dict.fromkeys(("empty grid", "empty row", "zero entry", "degree 0"), 0)
    rng = random.Random(8)
    constant = [(Chart(("x", "y")), [[Polynomial.constant(Chart(("x", "y")), Fraction(3, 2)),
                                      Polynomial.zero(Chart(("x", "y")))], []],
                 [(1, Fraction(1, 3)), (0, 0)])]
    for chart, grid, points in constant + list(_random_grids()):
        compiled = IntegerGrid(chart, grid)
        reduced = [_integer_point(p, chart.n) for p in points]
        qs = reduced + [[x * c for x in q] for q, c in zip(reduced, (2, 3, 6))]
        rng.shuffle(qs)
        expected = [list(compiled.at(q)) for q in qs]
        assert expected == [grid_rows_by_products(grid, q) for q in qs]
        assert _over_rows(compiled, qs) == expected
        assert all(type(x) is int for rows in compiled.over(qs) for row in rows for x in row)
        assert list(compiled.over([])) == []
        seen["empty grid"] += not grid
        seen["empty row"] += any(not row for row in grid)
        seen["zero entry"] += any(not p for row in grid for p in row)
        seen["degree 0"] += bool(grid) and compiled.degree == 0
    assert min(seen.values()) >= 5, seen


def test_integer_grid_over_holds_at_most_the_node_budget(monkeypatch):
    # blocks are max(1, min(_BLOCK_POINTS, _NODE_VALUES // nodes)) points:
    # a grid of a few hundred trie nodes, as a large W has, takes 32 points
    # a block, and one of more than 2^11 nodes fewer, each block's node
    # values within the budget; both give at's rows at every point
    rng = random.Random(4)
    seen = []
    for n, terms, degree, width in ((8, 40, 5, 4), (12, 150, 8, 6)):
        chart = rnd_chart(rng, max_n=n, min_n=n)
        grid = [[rnd_poly(rng, chart, max_terms=terms, max_degree=degree) for _ in range(width)]
                for _ in range(4)]
        compiled = IntegerGrid(chart, grid)
        qs = [[rng.randint(-9, 9) for _ in range(n)] + [rng.choice((1, 2, 6))]
              for _ in range(100)]
        blocks = []
        columns = IntegerGrid._columns

        def counted(self, block):
            values = columns(self, block)
            blocks.append((len(values), len(block)))
            return values

        monkeypatch.setattr(IntegerGrid, "_columns", counted)
        assert _over_rows(compiled, qs) == [list(compiled.at(q)) for q in qs]
        monkeypatch.undo()
        (nodes,) = {nodes for nodes, _ in blocks}
        size = min(algebra._BLOCK_POINTS, algebra._NODE_VALUES // nodes)
        assert [block for _, block in blocks[:-1]] == [size] * (len(blocks) - 1)
        assert sum(block for _, block in blocks) == len(qs) and len(blocks) > 1
        assert all(nodes * block <= algebra._NODE_VALUES for _, block in blocks)
        seen.append((nodes, size))
    assert seen[0][0] > 300 and seen[0][1] == 32 and seen[1][1] < 32, seen


def test_integer_grid_rejects_bad_points_and_charts():
    chart = Chart(("x", "y"))
    x = Polynomial.coordinate(chart, "x")
    compiled = IntegerGrid(chart, [[x, x * x + Fraction(1, 2)]])
    assert _rows_at(compiled, chart, (Fraction(1, 2), 7)) == [[4, 6]]
    for bad in ((Fraction(1),), (1, 2, 3), ()):
        with pytest.raises(InputError):
            _rows_at(compiled, chart, bad)
    with pytest.raises(InputError):
        _rows_at(compiled, chart, (0.5, 1))
    with pytest.raises(InputError):
        IntegerGrid(chart, [[Polynomial.coordinate(Chart(("x",)), "x")]])
    # no rows, or no entries: nothing to evaluate, but the length still counts
    assert _rows_at(IntegerGrid(chart, []), chart, (1, 2)) == []
    assert _rows_at(IntegerGrid(chart, [[], []]), chart, (1, 2)) == [[], []]
    with pytest.raises(InputError):
        _rows_at(IntegerGrid(chart, []), chart, (1,))


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
