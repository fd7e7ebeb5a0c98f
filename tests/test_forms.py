"""Exterior calculus: operation examples and the algebraic axioms."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import pytest

from nonholonomy import forms as forms_module
from nonholonomy.algebra import Chart, Polynomial, _integer_point, poly_eval
from nonholonomy.constructions import build_prop_ori_omegas, builtin_corpus, jet_canonical
from nonholonomy.distributions import (
    _fraction_point, _integer_sample, check_almost_mni, check_dbasis_condition,
)
from nonholonomy.errors import InputError
from nonholonomy.forms import (
    DiffForm,
    VectorField,
    _constant_minor,
    _grid,
    _poly_det,
    _probe_points,
    constant_minor_certificate,
    dependent_points,
    exterior_derivative,
    lie_bracket,
    sort_with_sign,
    wedge,
    wedge_all,
    wedge_power,
)
from nonholonomy.linalg import det, rank
from nonholonomy.parser import parse_document

from conftest import (
    jetlike_coframe, quadratic_coframe, rnd_chart, rnd_field, rnd_form, rnd_fraction, rnd_point,
    rnd_poly, sample_slice,
)
import oracles
from oracles import (
    evaluate_field, independent_by_fractions, interior_product, laplace_det,
    pivot_subset_by_fractions, squaring_wedge_power,
)

DATA = Path(__file__).resolve().parent / "data"


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _pair(form, fields, point):
    """Pair a p-form with p vector fields at a point: the sum over basis
    monomials of coeff * det(row a = field a, column b = index i_b).

    Independent of the wedge implementation, so it serves as an oracle.
    """
    vectors = [evaluate_field(f, point) for f in fields]
    total = Fraction(0)
    for key, coeff in form.terms.items():
        det = Fraction(0)
        for perm in permutations(range(len(key))):
            prod = Fraction(_perm_sign(perm))
            for a, b in enumerate(perm):
                prod *= vectors[a][key[b] - 1]
            det += prod
        total += poly_eval(coeff, point) * det
    return total


def test_sort_with_sign():
    assert sort_with_sign((1, 2, 3)) == ((1, 2, 3), 1)
    assert sort_with_sign((2, 1)) == ((1, 2), -1)
    assert sort_with_sign((3, 2, 1)) == ((1, 2, 3), -1)
    assert sort_with_sign((2, 3, 1)) == ((1, 2, 3), 1)
    assert sort_with_sign((1, 1)) is None
    assert sort_with_sign((2, 5, 2)) is None
    assert sort_with_sign(()) == ((), 1)
    # oracle: sign is the inversion parity, over every permutation of 1..4
    for perm in permutations(range(1, 5)):
        assert sort_with_sign(perm) == ((1, 2, 3, 4), _perm_sign(perm))


def test_wedge_basis_cases():
    chart = Chart(("x1", "x2", "x3"))
    dx1 = DiffForm.basis(chart, 1)
    dx2 = DiffForm.basis(chart, 2)
    assert wedge(dx1, dx2) == DiffForm(chart, 2, {(1, 2): 1})
    assert wedge(dx1, dx1).is_zero()
    assert wedge(dx2, dx1) == DiffForm(chart, 2, {(1, 2): -1})


def test_wedge_example_xyz():
    chart = Chart(("x", "y", "z"))
    x = Polynomial.coordinate(chart, "x")
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    left = wedge(x * dy, dz - y * dx)
    expected = x * wedge(dy, dz) + (x * y) * wedge(dx, dy)
    assert left == expected
    assert left == DiffForm(chart, 2, {(2, 3): x, (1, 2): x * y})


def test_wedge_matches_pairing_oracle(rng):
    for _ in range(100):
        chart = rnd_chart(rng, max_n=4, min_n=2)
        a = rnd_form(rng, chart, 1)
        b = rnd_form(rng, chart, 1)
        fx = rnd_field(rng, chart)
        fy = rnd_field(rng, chart)
        pt = rnd_point(rng, chart)
        lhs = _pair(wedge(a, b), (fx, fy), pt)
        rhs = _pair(a, (fx,), pt) * _pair(b, (fy,), pt) - _pair(a, (fy,), pt) * _pair(
            b, (fx,), pt
        )
        assert lhs == rhs


def test_graded_anticommutativity(rng):
    for _ in range(300):
        chart = rnd_chart(rng, max_n=6)
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, q)
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert ab == (ba if (p * q) % 2 == 0 else -ba)


def test_wedge_associative_and_bilinear(rng):
    for _ in range(150):
        chart = rnd_chart(rng, max_n=5)
        a = rnd_form(rng, chart, rng.randint(0, 2))
        b = rnd_form(rng, chart, rng.randint(0, 2))
        c = rnd_form(rng, chart, b.degree)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a, b + c) == wedge(a, b) + wedge(a, c)


def test_wedge_degree_zero_is_scalar_multiplication(rng):
    chart = Chart(("x", "y"))
    f = rnd_poly(rng, chart)
    a = rnd_form(rng, chart, 1)
    assert wedge(f, a) == f * a
    assert wedge(a, f) == f * a


def test_wedge_chart_mismatch():
    a = DiffForm.basis(Chart(("x",)), 1)
    b = DiffForm.basis(Chart(("y",)), 1)
    try:
        wedge(a, b)
        assert False
    except InputError:
        pass


def test_wedge_power_identity_and_square():
    chart = Chart(("x1", "x2", "x3", "x4"))
    w = DiffForm(chart, 2, {(1, 2): 1, (3, 4): 1})
    assert wedge_power(w, 1) == w
    assert wedge_power(w, 2) == DiffForm(chart, 4, {(1, 2, 3, 4): 2})


def test_wedge_power_of_paired_constant_coframe():
    # For a constant coframe e_1..e_{2k} and w = sum of e_{2j-1} ^ e_{2j},
    # the k-th power collapses to k! times the full wedge e_1 ^ ... ^ e_{2k}.
    for k in (1, 2, 3):
        n = 2 * k
        chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))
        coframe = []
        for i in range(1, n + 1):
            # unimodular upper-triangular change of basis keeps things honest
            terms = {(i,): 1}
            for j in range(i + 1, n + 1):
                terms[(j,)] = i + j
            coframe.append(DiffForm(chart, 1, terms))
        w = DiffForm.zero(chart, 2)
        for j in range(k):
            w = w + wedge(coframe[2 * j], coframe[2 * j + 1])
        factorial = 1
        for i in range(2, k + 1):
            factorial *= i
        assert wedge_power(w, k) == factorial * wedge_all(coframe)


def test_wedge_power_matches_squaring_on_random_forms(rng):
    # wedge_power sums k-subsets of the form's terms; binary exponentiation
    # wedges whole powers of the form, so it is an independent oracle
    for _ in range(120):
        chart = rnd_chart(rng, max_n=8, min_n=2)
        w = rnd_form(rng, chart, 2, max_terms=rng.choice((4, 8)))
        for k in range(1, 6):  # k = 5 exceeds every such chart: the 2k > n shortcut
            assert wedge_power(w, k) == squaring_wedge_power(w, k)


def test_wedge_power_matches_squaring_on_benchmark_coframes():
    # the da_i of quadratic and jet-like coframes at every mni-check shape
    rng = random.Random(43)
    shapes = {"quadratic": ((4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 2)),
              "jet-like": ((4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 2), (9, 2), (10, 2))}
    for kind, pairs in shapes.items():
        for n, k in pairs:
            coframe = quadratic_coframe(n, k) if kind == "quadratic" else jetlike_coframe(n, k, rng)
            for a in coframe:
                w = exterior_derivative(a)
                assert wedge_power(w, k) == squaring_wedge_power(w, k), (kind, n, k)


def test_wedge_power_matches_squaring_on_paired_omission_forms():
    # the forms verify-ori raises to the k-th power, for k <= 12, on the
    # coordinate coframe (the middle form, whose pairs straddle the omitted
    # index; squaring takes seconds at k = 12) and, for k <= 4, on a
    # unimodular non-coordinate one
    for k in range(1, 13):
        chart = Chart(tuple("x%d" % j for j in range(1, 2 * k + 2)))
        coframe = [DiffForm.basis(chart, j) for j in range(1, 2 * k + 2)]
        w = build_prop_ori_omegas(coframe)[k]
        assert wedge_power(w, k) == squaring_wedge_power(w, k), k
        if k <= 4:
            sheared = [a + (j + 2) * b for j, (a, b) in enumerate(zip(coframe, coframe[1:]))]
            sheared.append(coframe[-1])
            w = build_prop_ori_omegas(sheared)[0]
            assert wedge_power(w, k) == squaring_wedge_power(w, k), k


def test_wedge_power_rejects_bad_arguments():
    chart = Chart(("x", "y"))
    for bad in (DiffForm.basis(chart, 1), DiffForm.zero(chart, 0)):
        try:
            wedge_power(bad, 2)
            assert False
        except InputError:
            pass
    try:
        wedge_power(DiffForm.zero(chart, 2), 0)
        assert False
    except InputError:
        pass


def test_exterior_derivative_examples():
    chart = Chart(("x", "y", "z"))
    x = Polynomial.coordinate(chart, "x")
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    assert exterior_derivative(dx).is_zero()
    assert exterior_derivative(dz - y * dx) == wedge(dx, dy)
    assert exterior_derivative((x * y) * dx + (x * x) * dy) == x * wedge(dx, dy)
    # degree-0 input: d of a polynomial is its differential
    assert exterior_derivative(x * y) == y * dx + x * dy


def test_d_squared_is_zero(rng):
    for _ in range(300):
        chart = rnd_chart(rng)
        a = rnd_form(rng, chart, rng.randint(0, 3))
        assert exterior_derivative(exterior_derivative(a)).is_zero()


def test_d_leibniz(rng):
    for _ in range(200):
        chart = rnd_chart(rng, max_n=5)
        p = rng.randint(0, 2)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, rng.randint(0, 2))
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        term = wedge(a, exterior_derivative(b))
        rhs = rhs + (term if p % 2 == 0 else -term)
        assert lhs == rhs


def test_interior_product_examples():
    chart = Chart(("x1", "x2", "x3"))
    dx12 = DiffForm(chart, 2, {(1, 2): 1})
    assert interior_product(VectorField.basis(chart, 1), dx12) == DiffForm.basis(chart, 2)
    assert interior_product(VectorField.basis(chart, 3), dx12).is_zero()

    xy = Chart(("x", "y"))
    y = Polynomial.coordinate(xy, "y")
    field = y * VectorField.basis(xy, "x")
    assert interior_product(field, DiffForm(xy, 2, {(1, 2): 1})) == y * DiffForm.basis(xy, "y")

    try:
        interior_product(VectorField.basis(chart, 1), DiffForm.zero(chart, 0))
        assert False
    except InputError:
        pass


def test_interior_product_antiderivation(rng):
    for _ in range(200):
        chart = rnd_chart(rng, max_n=5)
        p = rng.randint(1, 2)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, rng.randint(1, 2))
        x = rnd_field(rng, chart)
        lhs = interior_product(x, wedge(a, b))
        rhs = wedge(interior_product(x, a), b)
        term = wedge(a, interior_product(x, b))
        rhs = rhs + (term if p % 2 == 0 else -term)
        assert lhs == rhs


def test_interior_product_linear_in_field(rng):
    for _ in range(100):
        chart = rnd_chart(rng, max_n=4)
        a = rnd_form(rng, chart, rng.randint(1, 3))
        x = rnd_field(rng, chart)
        y = rnd_field(rng, chart)
        f = rnd_poly(rng, chart)
        assert interior_product(x + y, a) == interior_product(x, a) + interior_product(y, a)
        assert interior_product(f * x, a) == f * interior_product(x, a)
        if a.degree >= 2:
            assert interior_product(x, interior_product(x, a)).is_zero()


def test_lie_bracket_examples():
    xy = Chart(("x", "y"))
    assert lie_bracket(VectorField.basis(xy, "x"), VectorField.basis(xy, "y")).is_zero()

    chart = Chart(("x1", "y1", "z"))
    y1 = Polynomial.coordinate(chart, "y1")
    x_field = VectorField.basis(chart, "x1") + y1 * VectorField.basis(chart, "z")
    assert lie_bracket(VectorField.basis(chart, "y1"), x_field) == VectorField.basis(chart, "z")

    x = Polynomial.coordinate(xy, "x")
    y = Polynomial.coordinate(xy, "y")
    bracket = lie_bracket(x * VectorField.basis(xy, "y"), y * VectorField.basis(xy, "x"))
    assert bracket == x * VectorField.basis(xy, "x") - y * VectorField.basis(xy, "y")


def test_lie_bracket_jacobi(rng):
    for _ in range(120):
        chart = rnd_chart(rng, max_n=4)
        x = rnd_field(rng, chart)
        y = rnd_field(rng, chart)
        z = rnd_field(rng, chart)
        total = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert total.is_zero()


def test_lie_bracket_algebra(rng):
    for _ in range(100):
        chart = rnd_chart(rng, max_n=4)
        x = rnd_field(rng, chart)
        y = rnd_field(rng, chart)
        f = rnd_poly(rng, chart)
        assert lie_bracket(x, y) == -lie_bracket(y, x)
        assert lie_bracket(x, f * y) == x.apply(f) * y + f * lie_bracket(x, y)


def test_evaluate_at_point():
    # a form's values at a point are poly_eval of its coefficients, and
    # dependent_points sees the same values through the integer rows
    chart = Chart(("x", "y", "z"))
    x = Polynomial.coordinate(chart, "x")
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    assert list(dependent_points([DiffForm.zero(chart, 1)], [[0, 0, 0, 1]])) == [[0, 0, 0, 1]]
    form = dz - y * dx
    assert {key: poly_eval(c, (5, 1, 2)) for key, c in form.terms.items()} == {(3,): 1, (1,): -1}
    row = _integer_point((5, 1, 2), 3)
    assert list(dependent_points([form, dz - dx], [row])) == [row]
    assert list(dependent_points([form, dz + dx], [row])) == []
    two_form = x * wedge(dy, dz) + (x * y) * wedge(dx, dy)
    values = {key: poly_eval(c, (2, 3, 0)) for key, c in two_form.terms.items()}
    assert values == {(2, 3): 2, (1, 2): 6}
    row = _integer_point((2, 3, 0), 3)
    assert list(dependent_points([two_form, 3 * wedge(dx, dy) + wedge(dy, dz)], [row])) == [row]
    assert independent_by_fractions([two_form, wedge(dx, dy)], (2, 3, 0))


def test_independent_at_point_basics():
    # pointwise independence at points of ints and Fractions: the integer
    # rows of dependent_points, and the Fraction rows of the oracle
    chart = Chart(("x", "y"))
    dx = DiffForm.basis(chart, "x")
    dy = DiffForm.basis(chart, "y")
    points = [(0, 0), (3, Fraction(-1, 2)), (1, 1)]
    rows = [_integer_point(p, 2) for p in points]
    assert rows[1] == [6, -1, 2]
    assert list(dependent_points([dx, dy], rows)) == []
    assert list(dependent_points([dx, 2 * dx], rows)) == rows
    assert list(dependent_points([], rows)) == []
    for p in points:
        assert independent_by_fractions([dx, dy], p)
        assert not independent_by_fractions([dx, 2 * dx], p)
        assert independent_by_fractions([], p)
    with pytest.raises(InputError):
        list(dependent_points([dx, DiffForm.zero(chart, 2)], rows))


def test_independent_at_point_jet_four_forms():
    # canonical rank-3 distribution on 5-space (x, y1, y2, z1, z2):
    # the two 4-forms a1^a2^da1 and a1^a2^da2 are independent at the origin
    chart = Chart(("x", "y1", "y2", "z1", "z2"))
    dx = DiffForm.basis(chart, "x")
    alphas = []
    for i in (1, 2):
        z = Polynomial.coordinate(chart, "z%d" % i)
        alphas.append(DiffForm.basis(chart, "y%d" % i) - z * dx)
    four_forms = [
        wedge_all([alphas[0], alphas[1], exterior_derivative(alphas[i])]) for i in (0, 1)
    ]
    origin = (0, 0, 0, 0, 0)
    assert list(dependent_points(four_forms, [_integer_point(origin, 5)])) == []
    assert independent_by_fractions(four_forms, origin)
    # oracle: at the origin the two forms have disjoint single supports
    for form, key in zip(four_forms, ((1, 2, 3, 4), (1, 2, 3, 5))):
        assert poly_eval(form.terms[key], origin) == 1
        assert all(poly_eval(c, origin) == 0 for other, c in form.terms.items() if other != key)


def _corpus_form_tuples():
    """(name, forms) pairs: the coframes and MNI forms of the built-in
    corpus and the test documents, quadratic and jet-like coframes, and the
    paired-omission forms of amni5."""
    rng = random.Random(6)
    for bundle in builtin_corpus():
        yield bundle.name, bundle.coframe
        if bundle.k is not None:
            omegas = bundle.omegas or [exterior_derivative(a) for a in bundle.coframe]
            yield bundle.name, _mni_forms(bundle.coframe, omegas, bundle.k)
    for path in sorted(DATA.glob("*.nh")):
        if path.name in ("badsyntax.nh", "eof_comment.nh"):  # parse errors
            continue
        doc = parse_document(path.read_text(encoding="utf-8"))
        coframe = doc.one_forms()
        if not coframe:
            continue
        yield path.name, coframe
        yield path.name, [wedge_all(coframe + [exterior_derivative(a)]) for a in coframe]
        if path.name == "amni5.nh":
            omegas = [doc.binding(name).value for name in ("w1", "w2")]
            yield path.name, _mni_forms(coframe, omegas, 1)
    for n, k in ((4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 2)):
        for coframe in (quadratic_coframe(n, k), jetlike_coframe(n, k, rng)):
            yield (n, k), coframe
            yield (n, k), _mni_forms(coframe, [exterior_derivative(a) for a in coframe], k)


def test_dependent_points_matches_fraction_oracle():
    dependent = 0
    for seed, (name, forms) in enumerate(_corpus_form_tuples()):
        points = sample_slice(forms[0].chart, seed, grid=12, randoms=12)
        expected = [p for p in points if not independent_by_fractions(forms, p)]
        rows = [_integer_point(p, forms[0].chart.n) for p in points]
        assert list(map(_fraction_point, dependent_points(forms, rows))) == expected, name
        dependent += len(expected)
    assert dependent > 100


def test_constant_minor_certificate():
    chart = Chart(("x", "y", "z"))
    x = Polynomial.coordinate(chart, "x")
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    assert constant_minor_certificate([dx, dy])
    assert constant_minor_certificate([dz - y * dx, dx, dy])
    assert not constant_minor_certificate([dx, 2 * dx])
    # independent everywhere, but every maximal minor is non-constant:
    # the certificate search comes back empty without contradicting sampling
    stretched = (x * x + 1) * dx
    assert not constant_minor_certificate([stretched])
    points = ((0, 0, 0), (1, 2, 3), (Fraction(-1, 2), 0, 7))
    assert not list(dependent_points([stretched], [_integer_point(pt, 3) for pt in points]))
    assert constant_minor_certificate([])
    try:
        constant_minor_certificate([dx, wedge(dx, dy)])
        assert False
    except InputError:
        pass


def test_dependent_mni_tuples_have_no_certificate():
    # the sampled checks skip the certificate search once they find a
    # witness, as a dependent point rules out a nonzero constant minor; the
    # search agrees on the dependent MNI tuples, and every failing sampled
    # verdict over the corpus and the test documents reports no certificate
    dependent = [(quadratic_coframe(n, k), k)
                 for n, k in ((4, 1), (5, 1), (6, 1), (6, 2), (7, 2), (8, 2))]
    dependent += [(_document_coframe("integrable5.nh"), 1), (jet_canonical(4).coframe, 2)]
    for coframe, k in dependent:
        forms = _mni_forms(coframe, [exterior_derivative(a) for a in coframe], k)
        assert next(dependent_points(forms, _integer_sample(coframe[0].chart.n, 0)), None)
        assert constant_minor_certificate(forms) is False
    inputs = [(b.coframe, b.omegas or [exterior_derivative(a) for a in b.coframe], b.k)
              for b in builtin_corpus()]
    for name in ("integrable5.nh", "jetlike5.nh"):
        coframe = _document_coframe(name)
        inputs.append((coframe, [exterior_derivative(a) for a in coframe], 1))
    doc = parse_document((DATA / "amni5.nh").read_text(encoding="utf-8"))
    inputs.append((doc.one_forms(), [doc.binding(w).value for w in ("w1", "w2")], 1))
    failing = 0
    for coframe, omegas, k in inputs:
        verdicts = [check_dbasis_condition(coframe)]
        if k is not None:
            verdicts.append(check_almost_mni(coframe, omegas, k))
        for verdict in verdicts:
            failing += not verdict.value
            assert verdict.value or verdict.certificate is False
    assert failing == 6


def _symbolic_constant(grid, subset):
    block = [[row[c] for c in subset] for row in grid]
    value = laplace_det(block)
    if value.is_constant() and not value.is_zero():
        return subset, block
    return None


def _minor_value(found):
    # the subset and the constant minor of a search result, by Laplace
    subset, block = found
    return subset, laplace_det(block).constant_value()


def _searched_subsets(grid):
    # the one subset the search tries, the Fraction pivot oracle's, if any;
    # none for a grid with more rows than columns
    if len(grid) > len(grid[0]):
        return []
    pivot = pivot_subset_by_fractions(grid)
    return [pivot] if pivot else []


def _reference_constant_minor(grid):
    # the search without the numeric prefilter: the Laplace determinant of
    # the subset it tries
    for subset in _searched_subsets(grid):
        return _symbolic_constant(grid, subset)
    return None


def _document_coframe(name):
    return parse_document((DATA / name).read_text(encoding="utf-8")).one_forms()


def _mni_forms(coframe, omegas, k):
    base = wedge_all(coframe)
    return [wedge(base, wedge_power(w, k)) for w in omegas]


def _fraction_prefilter_survivors(grid):
    # the subsets the prefilter passed on before integer evaluation: the
    # tried subset when its exact Fraction minors at both probe points are
    # nonzero and equal
    survivors = []
    for subset in _searched_subsets(grid):
        d0, d1 = (det([[poly_eval(row[c], point) for c in subset] for row in grid])
                  for point in _probe_points(grid[0][0].chart.n))
        if d0 and d0 == d1:
            survivors.append(subset)
    return survivors


def _has_polynomial_entry(block):
    return not all(p.is_constant() for row in block for p in row)


def _assert_matches_reference(grid):
    poly_det = forms_module._poly_det
    expanded = []

    def recorded(matrix):
        if len(matrix) == len(grid):
            expanded.append(matrix)
        return poly_det(matrix)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(forms_module, "_poly_det", recorded)
        assert _constant_minor(grid) == _reference_constant_minor(grid)
    # the integer prefilter passes on exactly the subset the Fraction one
    # did, so the same subset comes back; its block is expanded
    # symbolically only if it has a polynomial entry, as a block of
    # constants is proved by the pivot choice
    survivors = _fraction_prefilter_survivors(grid)
    blocks = [[[row[c] for c in s] for row in grid] for s in survivors]
    assert expanded == [b for b in blocks if _has_polynomial_entry(b)]


def test_constant_minor_prefilter_matches_reference_on_corpus_and_mni_forms():
    found = 0
    for bundle in builtin_corpus():
        grid = [[a.coefficient((j,)) for j in range(1, a.chart.n + 1)] for a in bundle.coframe]
        _assert_matches_reference(grid)
        if bundle.k is not None:
            omegas = bundle.omegas or [exterior_derivative(a) for a in bundle.coframe]
            _assert_matches_reference(_grid(_mni_forms(bundle.coframe, omegas, bundle.k), "test"))
    rng = random.Random(4)
    for n, k in ((4, 1), (5, 1), (6, 1), (6, 2)):
        for coframe in (quadratic_coframe(n, k), jetlike_coframe(n, k, rng)):
            grid = _grid(_mni_forms(coframe, [exterior_derivative(a) for a in coframe], k), "test")
            found += _reference_constant_minor(grid) is not None
            _assert_matches_reference(grid)
    assert found == 4  # every jet-like tuple, no quadratic one


def test_constant_minor_prefilter_adversarial_grids(minor_search):
    chart = Chart(("x1", "x2", "x3"))
    x1, x2 = (Polynomial.coordinate(chart, i) for i in (1, 2))
    (a1, a2, _), (b1, _, _) = _probe_points(chart.n)
    zero, one = Polynomial.zero(chart), Polynomial.constant(chart, 1)
    # a non-constant minor that vanishes at the first probe point
    vanishing = [[x1 - a1, (x2 - a2) * x1, Polynomial.constant(chart, 7)]]
    # a non-constant minor with one nonzero value at both probe points, then
    # a constant one: the 2 x 2 minors are 3f, 0 and -3 with
    # f = 5 + (x1 - a1)(x1 - b1), and the search must return the last
    twin = [[5 + (x1 - a1) * (x1 - b1), zero, one], [zero, 3 * one, zero]]
    # all-zero columns around and between the live ones; the one constant
    # minor, over columns 3 and 4, needs the non-constant column 3, and the
    # candidate, columns 1 and 4, has the minor x1
    hollow = [[zero, x1, zero, one, zero], [zero, one, zero, x2, one]]
    # a constant minor in a row whose values are [0, 1] at the first probe
    # point and [1/2, 1] at the second: its integer minors 1 and 2 agree
    # only after the row scales 1 and 2
    scaled = [[(x1 - a1) * Fraction(1, 2 * (b1 - a1)), one]]
    for grid in (vanishing, twin, hollow, scaled):
        _assert_matches_reference(grid)
    assert _minor_value(forms_module._constant_minor(vanishing)) == ((2,), 7)
    assert _minor_value(forms_module._constant_minor(scaled)) == ((1,), 1)
    assert forms_module._constant_minor(hollow) is None
    minor_search.evaluated = 0
    minor_search.dets.clear()
    minor_search.expanded.clear()
    assert _minor_value(forms_module._constant_minor(twin)) == ((1, 2), -3)
    # the pivot candidate, the constant columns 1 and 2, is the only subset
    # tried, so (0, 1), which passes both probes but is not constant, is
    # never expanded; and the candidate is a block of constants, proved by
    # one evaluation of the grid with no determinant at all
    assert minor_search.evaluated == 1
    assert minor_search.dets == [] and minor_search.expanded == []
    # no columns at all: the certificate search finds nothing
    assert not constant_minor_certificate([DiffForm.zero(chart, 1)])


def _random_grid(rng, n):
    """A q x n polynomial grid mixing zeros, constants and polynomials of
    degree up to 2; some rows are a polynomial multiple of another row or
    vanish on a coordinate hyperplane, so the grid can drop rank."""
    chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))
    kinds = ("zero", "constant", "constant", "poly", "poly")
    rows = []
    for _ in range(rng.randint(1, min(4, n))):
        row = []
        for _ in range(n):
            kind = rng.choice(kinds)
            if kind == "zero":
                row.append(Polynomial.zero(chart))
            elif kind == "constant":
                row.append(Polynomial.constant(chart, rnd_fraction(rng)))
            else:
                row.append(rnd_poly(rng, chart))
        rows.append(row)
    if len(rows) > 1 and rng.random() < 0.25:
        factor = rnd_poly(rng, chart)
        rows[-1] = [factor * p for p in rows[0]]
    elif rng.random() < 0.25:
        x = Polynomial.coordinate(chart, rng.randint(1, n))
        rows[-1] = [x * p for p in rows[-1]]
    return rows


def test_pivot_minor_matches_fraction_oracle_on_random_grids(minor_search):
    # the candidate, the one subset tried, is the Fraction oracle's pivot
    # subset: the search returns it exactly when that subset's Laplace minor
    # is a nonzero constant, and expands no other block. Where no subset has
    # a constant minor nothing is found
    rng = random.Random(15)
    found = searched_in_vain = expanded = 0
    for trial in range(240):
        grid = _random_grid(rng, 4 + trial % 5)
        minor_search.expanded.clear()
        result = forms_module._constant_minor(grid)
        subset = pivot_subset_by_fractions(grid)
        assert result == (None if subset is None else _symbolic_constant(grid, subset)), trial
        tried = [] if subset is None else [[[row[c] for c in subset] for row in grid]]
        assert minor_search.expanded in ([], tried), trial
        expanded += bool(minor_search.expanded)
        if result is not None:
            found += 1
            assert _minor_value(result)[1] != 0
        subsets = combinations(range(len(grid[0])), len(grid))
        if not any(_symbolic_constant(grid, s) for s in subsets):
            searched_in_vain += 1
            assert result is None, trial
    assert found > 40 and searched_in_vain > 40 and expanded >= 5


def test_constant_columns_of_full_rank_are_confirmed_at_once(minor_search):
    # the search's guarantee: when the constant columns alone have full
    # rank, the candidate lies among them, and its minor, a nonzero
    # constant, is proved by one evaluation of the grid with no determinant,
    # integer or symbolic, whatever the other columns
    rng = random.Random(23)
    for trial in range(120):
        n = 3 + trial % 6
        chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))
        q = rng.randint(1, min(4, n))
        constant = rng.sample(range(n), rng.randint(q, n))
        block = [[0] * len(constant)]
        while rank(block) < q:
            block = [[rnd_fraction(rng) * (rng.random() < 0.7) for _ in constant]
                     for _ in range(q)]
        grid = [[None] * n for _ in range(q)]
        for row, values in zip(grid, block):
            for c, value in zip(constant, values):
                row[c] = Polynomial.constant(chart, value)
        for c in set(range(n)) - set(constant):
            x = Polynomial.coordinate(chart, rng.randint(1, n))
            for row in grid:
                row[c] = rnd_poly(rng, chart)
            grid[rng.randrange(q)][c] += x * x * rnd_fraction(rng) + x
        minor_search.evaluated = 0
        result = forms_module._constant_minor(grid)
        assert result is not None and minor_search.evaluated == 1, trial
        assert minor_search.dets == [] and minor_search.expanded == [], trial
        subset, value = _minor_value(result)
        assert set(subset) <= set(constant) and value != 0, trial
        assert _symbolic_constant(grid, subset) == result, trial


def _random_block_grid(rng, m, dense, constant):
    """An m x n grid with n = m, m + 1 or m + 2, of constants: each entry a
    rnd_fraction when dense, and 0 with probability 3/5 when sparse. A
    polynomial grid then takes one to three polynomial entries, or, half
    the time, is the square L*U for a constant L of full rank and the
    identity U with one polynomial entry above its diagonal, whose
    determinant det L is constant although a whole column is polynomial."""
    n = m + rng.randint(0, 2)
    chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))

    def constants(rows, cols):
        return [[rnd_fraction(rng) if dense or rng.random() < 0.4 else 0 for _ in range(cols)]
                for _ in range(rows)]

    if not constant and m > 1 and rng.random() < 0.5:
        lower = [[0]]
        while not det(lower):
            lower = constants(m, m)
        i, j = sorted(rng.sample(range(m), 2))
        factor = rnd_poly(rng, chart, max_degree=1)
        grid = [[Polynomial.constant(chart, x) for x in row] for row in lower]
        for row, values in zip(grid, lower):
            row[j] = row[j] + factor * values[i]
        return grid
    grid = [[Polynomial.constant(chart, x) for x in row] for row in constants(m, n)]
    if not constant:
        for _ in range(rng.randint(1, 3)):
            grid[rng.randrange(m)][rng.randrange(n)] = rnd_poly(rng, chart, max_degree=1)
    return grid


def _random_block_grids():
    rng = random.Random(31)
    for m in range(1, 8):
        for dense in (True, False):
            for constant in (True, False):
                for _ in range(3):
                    yield _random_block_grid(rng, m, dense, constant)


def test_constant_minor_matches_the_laplace_reference_on_random_blocks():
    # m <= 7, dense and sparse, constant and polynomial: the search returns
    # the subset and block it tries exactly when laplace_det finds the
    # block's determinant a nonzero constant
    found = Counter()
    for grid in _random_block_grids():
        result = _constant_minor(grid)
        assert result == _reference_constant_minor(grid), grid
        if result is not None:
            block = [[row[c] for c in result[0]] for row in grid]
            found[_has_polynomial_entry(block)] += 1
    assert found[False] > 20 and found[True] > 5, found


def test_poly_det_is_entered_only_for_a_block_with_a_polynomial_entry(minor_search):
    for grid in _random_block_grids():
        forms_module._constant_minor(grid)
        forms_module.kernel_frame(grid)
    entered = list(map(_has_polynomial_entry, minor_search.expanded))
    assert entered and all(entered)


def test_a_dense_constant_block_of_eleven_forms_takes_no_symbolic_determinant(minor_search):
    # a_i = x1*x2*dx_(i mod 3 + 1) + sum_(j >= 4) c_ij dx_j on 14
    # coordinates, with every c_ij in 1..9: Laplace would take 11! products
    # on the block of columns 4 to 14, the pivot choice proves it with none
    m = 11
    chart = Chart(tuple("x%d" % i for i in range(1, m + 4)))
    rng = random.Random(9)
    block = [[0]]
    while not det(block):
        block = [[rng.randint(1, 9) for _ in range(m)] for _ in range(m)]
    x1x2 = Polynomial.coordinate(chart, 1) * Polynomial.coordinate(chart, 2)
    zero = Polynomial.zero(chart)
    grid = [[x1x2 if j == i % 3 else zero for j in range(3)]
            + [Polynomial.constant(chart, c) for c in row] for i, row in enumerate(block)]
    subset, found = forms_module._constant_minor(grid)
    assert subset == tuple(range(3, m + 3))
    assert det([[p.constant_value() for p in row] for row in found]) == det(block)
    frame = forms_module.kernel_frame(grid)
    assert minor_search.dets == [] and minor_search.expanded == [] and len(frame) == 3
    for row in grid:
        for field in frame:
            assert sum((a * x for a, x in zip(row, field.components)), zero).is_zero()


def test_poly_det_matches_laplace_on_random_blocks():
    # 240 blocks of size 1 to 6, entries linear in three coordinates; in
    # every fourth the last row is a polynomial combination of two others,
    # so the block is singular. A row permutation, odd or even, scales the
    # one elimination's determinant by its sign
    rng = random.Random(41)
    chart = Chart(("x", "y", "z"))
    singular, parities = 0, Counter()
    for trial in range(240):
        m = 1 + trial % 6
        block = [[rnd_poly(rng, chart, max_terms=2, max_degree=1) for _ in range(m)]
                 for _ in range(m)]
        if m > 1 and trial % 4 == 0:
            f, g = (rnd_poly(rng, chart, max_terms=2, max_degree=1) for _ in range(2))
            block[-1] = [f * a + g * b for a, b in zip(block[0], block[1 if m > 2 else 0])]
        expected = laplace_det(block)
        assert _poly_det(block) == expected, trial
        singular += expected.is_zero()
        perm = rng.sample(range(m), m)
        sign = _perm_sign(perm)
        assert _poly_det([block[i] for i in perm]) == expected * sign, trial
        parities[sign] += m > 1
    assert singular >= 40 and min(parities.values()) >= 60, (singular, parities)


def test_a_dense_unit_triangular_product_takes_one_elimination(monkeypatch):
    # L unit lower and U unit upper triangular, their off-diagonal entries
    # linear forms in x, y, z: L*U at m = 8 is dense, of degree 2, and of
    # determinant 1. Laplace would take 8! = 40320 products; the one
    # elimination adds each row once and multiplies at most 2 m^3 times
    m = 8
    chart = Chart(("x", "y", "z"))
    rng = random.Random(19)
    one = Polynomial.constant(chart, 1)
    linear = [Polynomial.coordinate(chart, i) for i in (1, 2, 3)] + [one]

    def unit_triangular(lower):
        return [[one if i == j else sum((rnd_fraction(rng) * v for v in linear), 0 * one)
                 if (i > j) == lower else 0 * one for j in range(m)] for i in range(m)]

    L, U = unit_triangular(True), unit_triangular(False)
    block = [[sum((L[i][t] * U[t][j] for t in range(m)), 0 * one) for j in range(m)]
             for i in range(m)]
    assert all(not p.is_constant() for row in block[1:] for p in row[1:])
    added, multiplied = [0], [0]
    add, mul = forms_module.Echelon.add, Polynomial.__mul__

    def counted_add(self, row):
        added[0] += 1
        return add(self, row)

    def counted_mul(self, other):
        multiplied[0] += 1
        return mul(self, other)

    def refused(matrix):
        raise AssertionError("Laplace expansion entered")

    monkeypatch.setattr(forms_module.Echelon, "add", counted_add)
    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counted_mul)
    monkeypatch.setattr(oracles, "laplace_det", refused)
    assert _poly_det(block) == 1
    assert added[0] == m and multiplied[0] <= 2 * m ** 3, (added, multiplied)


def test_form_string_rendering():
    chart = Chart(("x", "y", "z"))
    y = Polynomial.coordinate(chart, "y")
    dx, dz = DiffForm.basis(chart, "x"), DiffForm.basis(chart, "z")
    assert str(dz - y * dx) == "-y*dx + dz"
    assert str(DiffForm.zero(chart, 2)) == "0"
    field = VectorField.basis(chart, "x") + y * VectorField.basis(chart, "z")
    assert str(field) == "@x + y*@z"
