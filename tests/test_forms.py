"""Exterior calculus: operation examples and the algebraic axioms."""

import random
from fractions import Fraction
from itertools import chain, combinations, islice, permutations
from pathlib import Path

import pytest

from nonholonomy import forms as forms_module
from nonholonomy.algebra import Chart, Polynomial, poly_eval
from nonholonomy.constructions import builtin_corpus, jet_canonical
from nonholonomy.distributions import check_almost_mni, check_dbasis_condition, sample_points
from nonholonomy.errors import InputError
from nonholonomy.forms import (
    DiffForm,
    VectorField,
    _constant_minor,
    _grid,
    _pivot_minor,
    _poly_det,
    _probe_points,
    constant_minor_certificate,
    dependent_points,
    evaluate_at_point,
    exterior_derivative,
    independent_at_point,
    lie_bracket,
    sort_with_sign,
    wedge,
    wedge_all,
    wedge_power,
)
from nonholonomy.linalg import det
from nonholonomy.parser import parse_document

from conftest import (
    jetlike_coframe, quadratic_coframe, rnd_chart, rnd_field, rnd_form, rnd_fraction, rnd_point,
    rnd_poly, sample_slice,
)
from oracles import (
    evaluate_field, independent_by_fractions, interior_product, pivot_subset_by_fractions,
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


def test_wedge_power_matches_fold(rng):
    # wedge_power is the left fold; binary exponentiation multiplies in a
    # different order (powers of a 2-form commute), so it is an
    # independent oracle
    def squaring_power(w, k):
        result = None
        base = w
        while k:
            if k & 1:
                result = base if result is None else wedge(result, base)
            k >>= 1
            if k:
                base = wedge(base, base)
        return result

    for _ in range(60):
        chart = rnd_chart(rng, max_n=8, min_n=2)
        w = rnd_form(rng, chart, 2, max_terms=4)
        for k in range(1, 6):
            assert wedge_power(w, k) == squaring_power(w, k)


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
    chart = Chart(("x", "y", "z"))
    x = Polynomial.coordinate(chart, "x")
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    assert evaluate_at_point(DiffForm.zero(chart, 1), (0, 0, 0)) == {}
    assert evaluate_at_point(dz - y * dx, (5, 1, 2)) == {(3,): 1, (1,): -1}
    two_form = x * wedge(dy, dz) + (x * y) * wedge(dx, dy)
    assert evaluate_at_point(two_form, (2, 3, 0)) == {(2, 3): 2, (1, 2): 6}


def test_independent_at_point_basics():
    chart = Chart(("x", "y"))
    dx = DiffForm.basis(chart, "x")
    dy = DiffForm.basis(chart, "y")
    assert independent_at_point([dx, dy], (0, 0))
    assert independent_at_point([dx, dy], (3, Fraction(-1, 2)))
    assert not independent_at_point([dx, 2 * dx], (1, 1))
    assert independent_at_point([], (0, 0))
    try:
        independent_at_point([dx, DiffForm.zero(chart, 2)], (0, 0))
        assert False
    except InputError:
        pass


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
    assert independent_at_point(four_forms, origin)
    # oracle: at the origin the two forms have disjoint single supports
    assert evaluate_at_point(four_forms[0], origin) == {(1, 2, 3, 4): 1}
    assert evaluate_at_point(four_forms[1], origin) == {(1, 2, 3, 5): 1}


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
        if path.name == "badsyntax.nh":
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
        assert dependent_points(forms, points) == expected, name
        for p in points[::6]:
            assert independent_at_point(forms, p) == independent_by_fractions(forms, p), name
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
    for pt in ((0, 0, 0), (1, 2, 3), (Fraction(-1, 2), 0, 7)):
        assert independent_at_point([stretched], pt)
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
        assert dependent_points(forms, sample_points(coframe[0].chart))
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
    value = _poly_det([[row[c] for c in subset] for row in grid])
    if value.is_constant() and not value.is_zero():
        return subset, value.constant_value()
    return None


def _searched_subsets(grid, max_minors):
    # the subset the Fraction pivot oracle proposes, if any, then the
    # subsets in lexicographic order up to the cap; none for a grid with
    # more rows than columns
    if len(grid) > len(grid[0]):
        return []
    pivot = pivot_subset_by_fractions(grid)
    lexicographic = islice(combinations(range(len(grid[0])), len(grid)), max_minors)
    return chain([pivot] if pivot else [], lexicographic)


def _reference_constant_minor(grid, max_minors):
    # the search without the numeric prefilter: the symbolic determinant of
    # every subset it tries, in the same order and under the same cap
    for subset in _searched_subsets(grid, max_minors):
        found = _symbolic_constant(grid, subset)
        if found:
            return found
    return None


def _document_coframe(name):
    return parse_document((DATA / name).read_text(encoding="utf-8")).one_forms()


def _mni_forms(coframe, omegas, k):
    base = wedge_all(coframe)
    return [wedge(base, wedge_power(w, k)) for w in omegas]


def _fraction_prefilter_survivors(grid, max_minors):
    # the subsets the prefilter passed on before integer evaluation: exact
    # Fraction minors at both probe points, nonzero and equal, in the
    # search's order up to the first constant symbolic minor, under the same
    # cap
    values0, values1 = ([[poly_eval(entry, point) for entry in row] for row in grid]
                        for point in _probe_points(grid[0][0].chart.n))

    def passes(subset):
        d0 = det([[row[c] for c in subset] for row in values0])
        return d0 and d0 == det([[row[c] for c in subset] for row in values1])

    survivors = []
    for subset in _searched_subsets(grid, max_minors):
        if not passes(subset):
            continue
        survivors.append(subset)
        if _poly_det([[row[c] for c in subset] for row in grid]).is_constant():
            break
    return survivors


def _assert_matches_reference(grid, caps=(20000,)):
    poly_det = forms_module._poly_det
    for cap in caps:
        expanded = []

        def recorded(matrix):
            if len(matrix) == len(grid):
                expanded.append(matrix)
            return poly_det(matrix)

        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(forms_module, "MAX_MINORS", cap)
            monkeypatch.setattr(forms_module, "_poly_det", recorded)
            assert _constant_minor(grid) == _reference_constant_minor(grid, cap)
        if len(grid) <= len(grid[0]):
            # the integer prefilter passes on exactly the subsets the
            # Fraction one did, so the same subset comes back
            survivors = _fraction_prefilter_survivors(grid, cap)
            assert expanded == [[[row[c] for c in s] for row in grid] for s in survivors]


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
            expected = _reference_constant_minor(grid, 20000)
            found += expected is not None
            _assert_matches_reference(grid, caps=(20000, 1, 2, 3))
    assert found == 4  # every jet-like tuple, no quadratic one


def test_constant_minor_prefilter_adversarial_grids(monkeypatch):
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
    # all-zero columns around and between the live ones; the first
    # constant minor is the last, over columns 3 and 4
    hollow = [[zero, x1, zero, one, zero], [zero, one, zero, x2, one]]
    # a constant minor in a row whose values are [0, 1] at the first probe
    # point and [1/2, 1] at the second: its integer minors 1 and 2 agree
    # only after the row scales 1 and 2
    scaled = [[(x1 - a1) * Fraction(1, 2 * (b1 - a1)), one]]
    for grid in (vanishing, twin, hollow, scaled):
        _assert_matches_reference(grid, caps=(20000, 1, 2, 3, 9, 10))
    assert _constant_minor(vanishing) == ((2,), 7)
    assert _constant_minor(scaled) == ((1,), 1)
    with pytest.MonkeyPatch.context() as capped:
        capped.setattr(forms_module, "MAX_MINORS", 10)
        assert _constant_minor(hollow) == ((3, 4), 1)
        capped.setattr(forms_module, "MAX_MINORS", 9)
        assert _constant_minor(hollow) is None
    calls = []
    poly_det = forms_module._poly_det

    def top_level(matrix):
        if len(matrix) == len(twin):
            calls.append(matrix)
        return poly_det(matrix)

    monkeypatch.setattr(forms_module, "_poly_det", top_level)
    assert _constant_minor(twin) == ((1, 2), -3)
    # the pivot candidate, the constant columns 1 and 2, is expanded first
    # and settles the search, so (0, 1), which passes both probes but is not
    # constant, is never expanded
    assert len(calls) == 1
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


def test_pivot_minor_matches_fraction_oracle_on_random_grids():
    # the candidate is the Fraction oracle's pivot subset whenever that
    # subset's symbolic minor is a nonzero constant, and None otherwise; it
    # finds nothing where no subset has a constant minor
    rng = random.Random(15)
    found = searched_in_vain = 0
    for trial in range(240):
        grid = _random_grid(rng, 4 + trial % 5)
        candidate = _pivot_minor(grid)
        subset = pivot_subset_by_fractions(grid)
        assert candidate == (None if subset is None else _symbolic_constant(grid, subset)), trial
        if candidate is not None:
            found += 1
            value = _poly_det([[row[c] for c in candidate[0]] for row in grid])
            assert value.is_constant() and value.constant_value() == candidate[1] != 0
        subsets = combinations(range(len(grid[0])), len(grid))
        if not any(_symbolic_constant(grid, s) for s in subsets):
            searched_in_vain += 1
            assert candidate is None, trial
    assert found > 40 and searched_in_vain > 40


def test_form_string_rendering():
    chart = Chart(("x", "y", "z"))
    y = Polynomial.coordinate(chart, "y")
    dx, dz = DiffForm.basis(chart, "x"), DiffForm.basis(chart, "z")
    assert str(dz - y * dx) == "-y*dx + dz"
    assert str(DiffForm.zero(chart, 2)) == "0"
    field = VectorField.basis(chart, "x") + y * VectorField.basis(chart, "z")
    assert str(field) == "@x + y*@z"
