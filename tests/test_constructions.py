"""Built-in example constructions and the paired-omission identity."""

from fractions import Fraction
from math import factorial

import pytest

from nonholonomy import constructions, forms
from nonholonomy.algebra import Chart, Polynomial
from nonholonomy.constructions import (
    build_example,
    build_prop_ori_omegas,
    builtin_corpus,
    contact_structure,
    even_contact_structure,
    jet_canonical,
    oriented_pairing,
    single_constraint_r5,
    verify_prop_ori_identity,
)
from nonholonomy.distributions import (
    check_almost_mni,
    check_dbasis_condition,
    check_mni,
    derived_flag_at,
    has_derived_length_one,
    sample_points,
)
from nonholonomy.errors import InputError
from nonholonomy.forms import DiffForm, sort_with_sign, wedge, wedge_all, wedge_power

from conftest import sample_slice


def test_contact_structure_printed_data():
    bundle = contact_structure(1)
    assert bundle.name == "contact-1"
    chart = bundle.distribution.chart
    assert chart.names == ("z", "x1", "y1")
    assert [str(a) for a in bundle.coframe] == ["dz - y1*dx1"]
    assert [str(f) for f in bundle.distribution.frame] == ["y1*@z + @x1", "@y1"]
    assert bundle.expected_flag == (2, 3)

    two = contact_structure(2)
    assert two.distribution.chart.names == ("z", "x1", "y1", "x2", "y2")
    assert two.distribution.rank == 4
    try:
        contact_structure(0)
        assert False
    except InputError:
        pass


def test_jet_canonical_printed_data():
    bundle = jet_canonical(2)
    chart = bundle.distribution.chart
    assert chart.names == ("x", "y1", "y2", "z1", "z2")
    assert [str(a) for a in bundle.coframe] == ["-z1*dx + dy1", "-z2*dx + dy2"]
    frame = bundle.distribution.frame
    assert str(frame[0]) == "@x + z1*@y1 + z2*@y2"
    assert [str(f) for f in frame[1:]] == ["@z1", "@z2"]
    assert bundle.expected_flag == (3, 5)
    assert bundle.k == 1 and "check-mni" in bundle.claims

    odd = jet_canonical(3)
    assert odd.k is None and "check-mni" not in odd.claims


def test_single_constraint_printed_data():
    bundle = single_constraint_r5()
    assert bundle.name == "example2-r5"
    assert bundle.distribution.chart.names == ("x1", "x2", "y", "z1", "z2")
    assert [str(a) for a in bundle.coframe] == ["-z1*dx1 + dy"]
    assert bundle.expected_flag == (4, 5)


def test_even_contact_structure_data():
    bundle = even_contact_structure(4)
    assert bundle.distribution.chart.names == ("z", "x1", "y1", "w")
    assert bundle.k == 1
    assert bundle.expected_flag == (3, 4)
    assert "check-mni" in bundle.claims
    for bad in (3, 5, 2):
        try:
            even_contact_structure(bad)
            assert False
        except InputError:
            pass


def test_build_prop_ori_omegas_coordinate_k1():
    chart = Chart(("x1", "x2", "x3"))
    coframe = [DiffForm.basis(chart, j) for j in (1, 2, 3)]
    omegas = build_prop_ori_omegas(coframe)
    assert omegas[0] == wedge(coframe[1], coframe[2])
    assert omegas[1] == wedge(coframe[0], coframe[2])
    assert omegas[2] == wedge(coframe[0], coframe[1])


def test_build_prop_ori_omegas_coordinate_k2():
    chart = Chart(tuple("x%d" % j for j in range(1, 6)))
    coframe = [DiffForm.basis(chart, j) for j in range(1, 6)]
    omegas = build_prop_ori_omegas(coframe)
    dx = lambda j: DiffForm.basis(chart, j)
    assert omegas[0] == wedge(dx(2), dx(3)) + wedge(dx(4), dx(5))
    assert omegas[1] == wedge(dx(1), dx(3)) + wedge(dx(4), dx(5))


def test_build_prop_ori_omegas_non_coordinate():
    chart = Chart(("x", "y", "z"))
    y = Polynomial.coordinate(chart, "y")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    alpha = dz - y * dx
    omegas = build_prop_ori_omegas([alpha, dx, dy])
    assert omegas[0] == wedge(dx, dy)
    assert omegas[1] == wedge(alpha, dy)
    assert omegas[2] == wedge(alpha, dx)


def test_build_prop_ori_omegas_errors():
    chart = Chart(("x1", "x2", "x3"))
    dx1 = DiffForm.basis(chart, 1)
    dx2 = DiffForm.basis(chart, 2)
    try:
        build_prop_ori_omegas([dx1, dx2])
        assert False
    except InputError as err:
        assert "odd" in str(err)
    try:
        build_prop_ori_omegas([dx1, dx1, dx2])
        assert False
    except InputError as err:
        assert "dependent" in str(err)


def test_build_prop_ori_omegas_stops_at_the_first_dependent_row(monkeypatch):
    # (x1 - 1/2)*dx1, dx2, dx3 has no constant minor and first drops rank at
    # the 76th sample point, (1/2, 0, 0): the guard ranks the coframe at the
    # first 76 points of the 225, and no further
    chart = Chart(("x1", "x2", "x3"))
    x1 = Polynomial.coordinate(chart, "x1")
    dx = [DiffForm.basis(chart, j) for j in (1, 2, 3)]
    ranked = []
    original = forms._independent

    def counted(rows, width):
        ranked.append(width)
        return original(rows, width)

    monkeypatch.setattr(forms, "_independent", counted)
    try:
        build_prop_ori_omegas([(x1 - Fraction(1, 2)) * dx[0], dx[1], dx[2]])
        assert False
    except InputError as err:
        assert "dependent" in str(err)
    assert ranked == [3] * 76
    assert sample_points(chart)[75] == (Fraction(1, 2), 0, 0)


def test_verify_ori_wedge_powers_grow_polynomially_in_k(monkeypatch):
    # the paired-omission power omega_i^k is k wedges of disjoint terms, not
    # a fold through omega_i^j with C(k, j) terms: from k = 6 to k = 10 the
    # exterior monomials sorted grow by less than (10/6)^4
    calls = []

    def counted(indices):
        calls.append(1)
        return sort_with_sign(indices)

    monkeypatch.setattr(forms, "sort_with_sign", counted)
    counts = {}
    for k in (6, 10):
        chart = Chart(tuple("x%d" % j for j in range(1, 2 * k + 2)))
        coframe = [DiffForm.basis(chart, j) for j in range(1, 2 * k + 2)]
        calls.clear()
        assert verify_prop_ori_identity(coframe) == (True, [1] * (2 * k + 1))
        counts[k] = len(calls)
    assert counts[10] < counts[6] * (10 / 6) ** 4, counts


def test_verify_prop_ori_identity_magnitudes():
    for k in (1, 2, 3):
        q = 2 * k + 1
        chart = Chart(tuple("x%d" % j for j in range(1, q + 1)))
        coframe = [DiffForm.basis(chart, j) for j in range(1, q + 1)]
        ok, signs = verify_prop_ori_identity(coframe)
        assert ok
        assert signs == [1] * q
        omegas = build_prop_ori_omegas(coframe)
        omitted = wedge_all(coframe[1:])
        assert wedge_power(omegas[0], k) == factorial(k) * omitted
    try:
        verify_prop_ori_identity(coframe[:4])
        assert False
    except InputError as err:
        assert "odd" in str(err)


def test_verify_prop_ori_identity_non_coordinate():
    chart = Chart(("x", "y", "z"))
    y = Polynomial.coordinate(chart, "y")
    coframe = [
        DiffForm.basis(chart, "z") - y * DiffForm.basis(chart, "x"),
        DiffForm.basis(chart, "x"),
        DiffForm.basis(chart, "y"),
    ]
    ok, signs = verify_prop_ori_identity(coframe)
    assert ok and signs == [1, 1, 1]


def test_oriented_pairing_bundles():
    bundle = oriented_pairing(5, 1)
    assert bundle.name == "prop-ori-5-1"
    chart = bundle.distribution.chart
    assert chart.n == 5 and bundle.distribution.rank == 3
    assert [str(a) for a in bundle.coframe] == ["dx4", "dx5"]
    assert len(bundle.omegas) == 2 and len(bundle.ori_coframe) == 3
    assert check_almost_mni(bundle.coframe, bundle.omegas, 1).value is True

    six = oriented_pairing(6, 1)
    assert len(six.omegas) == 3
    assert check_almost_mni(six.coframe, six.omegas, 1).value is True

    for n, k in ((7, 1), (4, 1), (5, 0)):
        try:
            oriented_pairing(n, k)
            assert False
        except InputError:
            pass


def test_oriented_pairing_distribution_is_integrable():
    bundle = oriented_pairing(5, 1)
    assert has_derived_length_one(bundle.distribution).value is False
    flag = derived_flag_at(bundle.distribution, (0,) * 5)
    assert flag.ranks == bundle.expected_flag == (3, 3)


def test_jet4_fails_mni():
    bundle = jet_canonical(4)
    assert bundle.k == 2 and "check-mni" not in bundle.claims
    pts = sample_slice(bundle.distribution.chart, grid=10, randoms=5)
    verdict = check_mni(bundle.coframe, 2, pts)
    assert verdict.value is False
    assert len(verdict.witnesses) == verdict.checked


def test_build_example_ids():
    for name in ("contact-2", "even-contact-6", "jet-canonical-3", "example2-r5",
                 "prop-ori-6-1"):
        assert build_example(name).name == name
    for bad in ("contact", "contact-x", "unknown-3", "prop-ori-5", "jet-canonical-0"):
        try:
            build_example(bad)
            assert False
        except InputError:
            pass


def test_build_example_keeps_the_builders_messages():
    for name, message in (
            ("contact-0", "contact structure needs m >= 1"),
            ("even-contact-5", "even-contact structure needs even n >= 4"),
            ("jet-canonical-0", "jet construction needs k >= 1"),
            ("prop-ori-4-1", "ambient dimension must be 4k+1 or 4k+2, got n = 4"),
            ("contact-x", "bad example parameter in 'contact-x'")):
        with pytest.raises(InputError) as caught:
            build_example(name)
        assert str(caught.value) == message, name


def test_build_example_reads_parameters_as_ascii_digits():
    # int() would read contact-1_0 as contact-10, contact-+2 as contact-2
    # and an Arabic-Indic or superscript two as 2
    for name in ("contact-1_0", "contact-+2", "contact-\u0662", "contact-\u00b2",
                 "prop-ori-5- 1", "contact-"):
        with pytest.raises(InputError) as caught:
            build_example(name)
        assert str(caught.value) == "bad example parameter in %r" % name


def test_build_example_refuses_a_chart_past_256_coordinates(monkeypatch):
    # contact-128 and jet-canonical-128 have 257 coordinates: refused before
    # any builder runs; contact-127 has 255 and is built
    def refused(*args, **kwargs):
        raise AssertionError("a distribution was built")

    monkeypatch.setattr(constructions, "Distribution", refused)
    for name in ("contact-128", "jet-canonical-128", "even-contact-258", "prop-ori-258-64"):
        with pytest.raises(InputError) as caught:
            build_example(name)
        assert "at most 256" in str(caught.value), name
    monkeypatch.undo()
    assert build_example("contact-127").distribution.chart.n == 255


def test_builtin_corpus_claims_hold():
    corpus = builtin_corpus()
    assert len(corpus) == 12
    assert len({bundle.name for bundle in corpus}) == 12
    for bundle in corpus:
        dist = bundle.distribution
        origin = (0,) * dist.chart.n
        pts = sample_slice(dist.chart, seed=1, grid=30, randoms=10)
        for claim in bundle.claims:
            if claim == "flag":
                assert derived_flag_at(dist, origin).ranks == bundle.expected_flag
            elif claim == "check-dlo":
                assert has_derived_length_one(dist, pts).value is True
            elif claim == "check-dbasis":
                assert check_dbasis_condition(bundle.coframe, pts).value is True
            elif claim == "check-mni":
                assert check_mni(bundle.coframe, bundle.k, pts).value is True
            elif claim == "check-amni":
                assert check_almost_mni(bundle.coframe, bundle.omegas, bundle.k, pts).value is True
            elif claim == "verify-ori":
                ok, _ = verify_prop_ori_identity(bundle.ori_coframe)
                assert ok
            else:
                assert False, "unknown claim %r" % claim
