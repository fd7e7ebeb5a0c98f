"""Distributions: kernels, derived flags, and the non-integrability checks."""

import glob
import hashlib
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

from nonholonomy.algebra import Chart, IntegerGrid, Polynomial, poly_eval
from nonholonomy.constructions import (
    builtin_corpus,
    contact_structure,
    even_contact_structure,
    jet_canonical,
    single_constraint_r5,
)
from nonholonomy.distributions import (
    Distribution,
    check_almost_mni,
    check_dbasis_condition,
    check_mni,
    derived_flag_at,
    dimension_bounds,
    frame_from_coframe,
    has_derived_length_one,
    sample_points,
)
from nonholonomy.errors import DegeneratePresentationError, InputError, ParseError
from nonholonomy import distributions, forms, linalg
from nonholonomy.forms import (
    DiffForm,
    VectorField,
    constant_minor_certificate,
    dependent_points,
    exterior_derivative,
    kernel_frame,
    wedge,
    wedge_all,
    wedge_power,
)
from nonholonomy.linalg import det, rank
from nonholonomy.parser import parse_document

from conftest import (
    jetlike_coframe, quadratic_coframe, rnd_form, rnd_fraction, rnd_point, rnd_poly, sample_slice,
)
from oracles import (
    cramer_kernel_frame, derived_flag_by_fractions, evaluate_field, first_rank_drop_by_fractions,
    flag_route_dlo_verdict, pointwise_kernel, sample_points_by_fractions, witness_first_verdict,
)

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def _chart3():
    return Chart(("x", "y", "z"))


def _contact3():
    chart = _chart3()
    y = Polynomial.coordinate(chart, "y")
    alpha = DiffForm.basis(chart, "z") - y * DiffForm.basis(chart, "x")
    return chart, alpha


def test_sample_points_deterministic_and_exact():
    chart = _chart3()
    pts = sample_points(chart, seed=7)
    assert pts == sample_points(chart, seed=7)
    assert pts != sample_points(chart, seed=8)
    assert all(len(p) == 3 for p in pts)
    assert all(isinstance(v, Fraction) for p in pts for v in p)
    grid = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)}
    head = pts[: 5 ** 3]
    assert all(set(p) <= grid for p in head)
    assert len(pts) == 5 ** 3 + 100
    # large charts keep the grid portion capped
    big = Chart(tuple("x%d" % i for i in range(1, 8)))
    assert len(sample_points(big)) == 200 + 100


def test_sample_points_match_the_fraction_oracle():
    # the integer draw gives the Fraction points of the oracle, and the
    # checks' size formula its length, without drawing
    for n in range(1, 13):
        chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))
        for seed in range(10):
            expected = sample_points_by_fractions(chart, seed)
            assert sample_points(chart, seed) == expected, (n, seed)
            size, rows = distributions._sample_set(chart, None, seed)
            assert size == len(expected), (n, seed)


def test_a_certified_check_draws_one_sample_point(monkeypatch):
    # a jet-like check is certified at its first point and draws no other;
    # a quadratic one, whose first point is a witness, draws every point
    drawn = []
    original = distributions._integer_sample

    def counted(n, seed):
        for q in original(n, seed):
            drawn.append(q)
            yield q

    monkeypatch.setattr(distributions, "_integer_sample", counted)
    for n, k in ((6, 2), (8, 2), (8, 3)):
        coframe = jetlike_coframe(n, k, random.Random(n))
        drawn.clear()
        verdict = check_mni(coframe, k)
        assert verdict.certificate and verdict.checked == 300, (n, k)
        assert len(drawn) == 1, (n, k)
        coframe = quadratic_coframe(n, k)
        drawn.clear()
        verdict = check_mni(coframe, k)
        assert not verdict.certificate and verdict.checked == 300, (n, k)
        assert len(drawn) == 300, (n, k)
        assert verdict.witnesses[0] == (0,) * n


def test_pointwise_kernel_examples():
    chart = _chart3()
    coords = [DiffForm.basis(chart, i) for i in (1, 2, 3)]
    origin = (0, 0, 0)
    assert pointwise_kernel([coords[0], coords[1]], origin) == [(0, 0, 1)]
    assert pointwise_kernel([], origin) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    _, alpha = _contact3()
    basis = pointwise_kernel([alpha], (0, 1, 0))
    assert sorted(basis) == [(0, 1, 0), (1, 0, 1)]
    # every kernel vector annihilates the evaluated coframe
    for v in basis:
        assert -1 * v[0] + v[2] == 0


def test_pointwise_kernel_degenerate():
    chart = _chart3()
    y = Polynomial.coordinate(chart, "y")
    try:
        pointwise_kernel([y * DiffForm.basis(chart, "x")], (1, 0, 0))
        assert False
    except DegeneratePresentationError as err:
        assert err.point == (1, 0, 0)
        assert "1, 0, 0" in str(err)


def test_frame_from_coframe_contact():
    chart, alpha = _contact3()
    frame = frame_from_coframe([alpha])
    assert [str(f) for f in frame] == ["@x + y*@z", "@y"]


def test_frame_from_coframe_matches_corpus_frames():
    """Multi-row (q >= 2) coframes go through the adjugate path."""
    seen = 0
    for bundle in builtin_corpus():
        frame = bundle.distribution.frame
        if frame is None:
            continue
        seen += 1
        assert tuple(frame_from_coframe(bundle.coframe)) == frame, bundle.name
    assert seen >= 9


def test_minor_search_cap():
    # the 2 x 2 minors over columns (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    # are -x2, 0, x1, x2, 1, x1: only the 5th subset is a nonzero constant.
    # The pivot candidate, the constant columns 2 and 4, is that subset
    chart = Chart(("x1", "x2", "x3", "x4"))
    x1, x2 = (Polynomial.coordinate(chart, i) for i in (1, 2))
    dx = [DiffForm.basis(chart, i) for i in range(1, 5)]
    coframe = [x1 * dx[0] + dx[1] + x1 * dx[2], x2 * dx[0] + x2 * dx[2] + dx[3]]
    assert constant_minor_certificate(coframe)
    frame = frame_from_coframe(coframe)
    assert [str(f) for f in frame] == ["@x1 - x1*@x2 - x2*@x4", "-x1*@x2 + @x3 - x2*@x4"]
    # the minors over (1,2), (1,3), (2,3) are x1, 1, -x1*x3^2; the pivot
    # candidate takes the lower-degree columns 1 and 2, whose minor is not
    # constant, and the constant one over (1,3), which needs the
    # non-constant column 3, is not sought
    chart = Chart(("x1", "x2", "x3"))
    x1, x3 = (Polynomial.coordinate(chart, i) for i in (1, 3))
    dx = [DiffForm.basis(chart, i) for i in range(1, 4)]
    coframe = [dx[0] + x3 * x3 * dx[2], x1 * dx[1] + dx[2]]
    assert not constant_minor_certificate(coframe)
    assert frame_from_coframe(coframe) is None
    with pytest.raises(InputError) as caught:
        Distribution(chart, coframe=coframe).spanning_frame()
    assert str(caught.value) == (
        "coframe admits no constant-minor complement; supply an explicit frame")
    verdict = check_dbasis_condition(coframe)
    assert (verdict.value, verdict.checked, len(verdict.witnesses)) == (False, 225, 225)
    assert not verdict.certificate
    # with the frame it used to derive, check-dlo still answers, on the flag
    # route, as the coframe is no longer proved of constant rank
    field = VectorField(chart, [x1 * x3 * x3, 1, -x1])
    given = Distribution(chart, frame=[field], coframe=coframe)
    verdict = has_derived_length_one(given)
    assert (verdict.value, verdict.checked, len(verdict.witnesses)) == (False, 225, 225)
    assert verdict == flag_route_dlo_verdict(given) and given._restricted_grid() is None
    # the same minors as a wedge check's grid: dx4^dx5^w_i on five
    # coordinates has the coefficients of w_i on dx1^dx2, dx1^dx3, dx2^dx3.
    # Its forms are independent everywhere, so the sampled verdict holds,
    # over every point, without a certificate
    five = Chart(tuple("x%d" % j for j in range(1, 6)))
    x1, x3 = (Polynomial.coordinate(five, i) for i in (1, 3))
    d = [None] + [DiffForm.basis(five, i) for i in range(1, 6)]
    omegas = [wedge(d[1], d[2]) + x3 * x3 * wedge(d[2], d[3]),
              x1 * wedge(d[1], d[3]) + wedge(d[2], d[3])]
    verdict = check_almost_mni([d[4], d[5]], omegas, 1)
    assert verdict == distributions.Verdict(True, 300, (), False)


def test_the_cap_message_needs_a_search_that_reached_the_cap(monkeypatch):
    # dx1, ..., dx9 and dx1 again on 20 coordinates: the rows are dependent
    # at the probe point, so the search tries no subset at all
    confirmed = []
    monkeypatch.setattr(forms, "_confirmed", lambda *args: confirmed.append(args))
    chart = Chart(tuple("x%d" % j for j in range(1, 21)))
    coframe = [DiffForm.basis(chart, j) for j in (*range(1, 10), 1)]
    assert frame_from_coframe(coframe) is None and confirmed == []
    with pytest.raises(InputError) as caught:
        Distribution(chart, coframe=coframe).spanning_frame()
    assert str(caught.value) == (
        "coframe admits no constant-minor complement; supply an explicit frame")


def test_the_pivot_candidate_leads_the_minor_search(monkeypatch):
    # quadratic (8,2) has 56 column subsets of 3, and its identity block,
    # columns 6 to 8, is the last of them; the pivot candidate is that block
    # and is confirmed at once. So is the candidate of a jet-like (8,2) MNI
    # grid, which settles its certificate
    confirmed = []
    original = forms._confirmed

    def counted(grid, values, subset):
        confirmed.append(subset)
        return original(grid, values, subset)

    monkeypatch.setattr(forms, "_confirmed", counted)
    coframe = quadratic_coframe(8, 2)
    frame = frame_from_coframe(coframe)
    assert confirmed == [(5, 6, 7)] and len(frame) == 5
    assert all(distributions._pairing(a, f).is_zero() for a in coframe for f in frame)
    coframe = jetlike_coframe(8, 2, random.Random(15))
    base = wedge_all(coframe)
    mni = [wedge(base, wedge_power(exterior_derivative(a), 2)) for a in coframe]
    confirmed.clear()
    assert constant_minor_certificate(mni)
    assert len(confirmed) == 1


def test_check_mni_confirms_one_subset_on_a_jetlike_coframe(monkeypatch):
    # the coframe guard does no minor search: the one subset confirmed is
    # the MNI forms' candidate, which settles their certificate
    confirmed = []
    original = forms._confirmed

    def counted(grid, values, subset):
        confirmed.append(subset)
        return original(grid, values, subset)

    monkeypatch.setattr(forms, "_confirmed", counted)
    verdict = check_mni(jetlike_coframe(8, 2, random.Random(15)), 2)
    assert verdict.value and verdict.certificate
    assert len(confirmed) == 1


def test_pivot_frame_differs_from_the_first_lexicographic_one():
    # the minors of a1 = dx + x*dy, a2 = dy + dz over the columns (x, y),
    # (x, z), (y, z) are 1, 1, x; the lexicographic search would take (x, y)
    # and the field x*@x - @y + @z, while the pivot candidate, the constant
    # columns x and z, gives the same line with the opposite sign
    chart = _chart3()
    x = Polynomial.coordinate(chart, "x")
    dx, dy, dz = (DiffForm.basis(chart, name) for name in ("x", "y", "z"))
    coframe = [dx + x * dy, dy + dz]
    frame = frame_from_coframe(coframe)
    assert [str(f) for f in frame] == ["-x*@x + @y - @z"]
    assert frame == [-VectorField(chart, [x, -1, 1])]
    assert all(distributions._pairing(a, f).is_zero() for a in coframe for f in frame)


def test_frame_from_coframe_without_constant_minor():
    chart = Chart(("x", "y"))
    x = Polynomial.coordinate(chart, "x")
    stretched = (x * x + 1) * DiffForm.basis(chart, "x")
    assert frame_from_coframe([stretched]) is None
    dist = Distribution(chart, coframe=[stretched])
    try:
        dist.spanning_frame()
        assert False
    except InputError as err:
        assert "explicit frame" in str(err)


def test_kernel_frame_matches_the_cramer_oracle():
    # the fields from one inverse of the constant block equal Cramer's rule
    # on seeded coframes with m up to 5 whose block is the identity or a
    # constant mix, on random columns; and on a block with the non-constant
    # column (x4, 1), whose minor is the constant 1 by its zero, so the
    # inverse is taken in polynomials
    rng = random.Random(27)
    for trial in range(60):
        m = 1 + trial % 5
        n = m + rng.randint(1, 4)
        chart = Chart(tuple("x%d" % j for j in range(1, n + 1)))
        block = rng.sample(range(n), m)
        mix = [[int(i == j) for j in range(m)] for i in range(m)]
        while trial % 2 and (mix[0][0] == 1 or not det(mix)):
            mix = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
        grid = [[Polynomial.constant(chart, mix[i][block.index(c)]) if c in block
                 else rnd_poly(rng, chart) for c in range(n)] for i in range(m)]
        fields = kernel_frame(grid)
        assert fields is not None and fields == cramer_kernel_frame(grid), trial
    chart = Chart(("x1", "x2", "x3", "x4"))
    x1, x2, x3, x4 = (Polynomial.coordinate(chart, j) for j in range(1, 5))
    zero, one = Polynomial.zero(chart), Polynomial.constant(chart, 1)
    grid = [[one, x4, x1 * x2, zero], [zero, one, zero, x1 * x3]]
    fields = kernel_frame(grid)
    assert fields == cramer_kernel_frame(grid)
    assert [str(f) for f in fields] == ["-x1*x2*@x1 + @x3", "x1*x3*x4*@x1 - x1*x3*@x2 + @x4"]


def test_derived_flag_integrable_plane_field():
    chart = _chart3()
    dist = Distribution(chart, frame=[VectorField.basis(chart, 1), VectorField.basis(chart, 2)])
    for pt in ((0, 0, 0), (1, Fraction(-1, 2), 3)):
        flag = derived_flag_at(dist, pt)
        assert flag.ranks == (2, 2)
        assert flag.stabilized


def test_repeated_rank_with_new_brackets_is_not_stabilized():
    # [X, Y] = 2x @y vanishes at x = 0, but [X, [X, Y]] = 2 @y does not, so
    # the repeat [2, 2] there must not claim that deeper levels agree
    chart = _chart3()
    x = Polynomial.coordinate(chart, "x")
    second = VectorField.basis(chart, "z") + x * x * VectorField.basis(chart, "y")
    dist = Distribution(chart, frame=[VectorField.basis(chart, "x"), second])
    flag = derived_flag_at(dist, (0, 0, 0))
    assert flag.ranks == (2, 2)
    assert not flag.stabilized
    flag = derived_flag_at(dist, (1, 0, 0))
    assert flag.ranks == (2, 3)
    assert flag.stabilized
    # the rule is conservative on purpose: this involutive frame's bracket
    # [X, Y] = @x is nonzero but lies in its span, so every level has rank 2,
    # yet the repeat is reported as not shown to stabilize
    second = VectorField.basis(chart, "y") + x * VectorField.basis(chart, "x")
    dist = Distribution(chart, frame=[VectorField.basis(chart, "x"), second])
    for point in ((0, 0, 0), (1, 2, 3)):
        flag = derived_flag_at(dist, point)
        assert flag.ranks == (2, 2)
        assert not flag.stabilized
        assert derived_flag_at(dist, point, 3).ranks == (2, 2)


def _unstabilized_repros():
    # the two frames of test_repeated_rank_with_new_brackets_is_not_stabilized
    chart = _chart3()
    x = Polynomial.coordinate(chart, "x")
    dx, dy, dz = (VectorField.basis(chart, name) for name in ("x", "y", "z"))
    return [Distribution(chart, frame=[dx, dz + x * x * dy]),
            Distribution(chart, frame=[dx, dy + x * dx])]


def test_derived_flag_matches_fraction_oracle(rng):
    # the oracle brackets ordered pairs and ranks by the column-scan
    # elimination; derived_flag_at brackets unordered pairs at level 1 and
    # grows one echelon across levels
    dists = [bundle.distribution for bundle in builtin_corpus()] + _unstabilized_repros()
    unstabilized = 0
    for dist in dists:
        chart = dist.chart
        points = sample_slice(chart, seed=3, grid=8, randoms=8)
        points += [(0,) * chart.n, (1,) + (0,) * (chart.n - 1), rnd_point(rng, chart)]
        for point in points:
            for cap in (None, 1, 2, 3):
                flag = derived_flag_at(dist, point, cap)
                assert (flag.ranks, flag.stabilized) == derived_flag_by_fractions(dist, point, cap)
                unstabilized += not flag.stabilized
    assert unstabilized > 0
    for dist in (contact_structure(4).distribution, jet_canonical(5).distribution):
        chart = dist.chart
        points = sample_slice(chart, seed=5, grid=3, randoms=3) + [rnd_point(rng, chart)]
        for point in points:
            for cap in (None, 1, 2):
                flag = derived_flag_at(dist, point, cap)
                assert (flag.ranks, flag.stabilized) == derived_flag_by_fractions(dist, point, cap)


def test_flag_rows_are_evaluated_only_below_rank_n(monkeypatch):
    # contact-M and even-contact-N have a restricted grid W of one row, of
    # rank 1 at every point, so level 1 reads r + 1 = n: over the 300 sample
    # points, derived_flag_at and has_derived_length_one each evaluate W's
    # row once per point and build no bracket level. Their other rows are
    # the probe rows of the constant-minor searches that prove the frame
    # and the coframe
    evaluated = Counter()
    original = IntegerGrid.at

    def counted(self, q):
        for row in original(self, q):
            evaluated[self] += 1
            yield row

    monkeypatch.setattr(IntegerGrid, "at", counted)

    def reads_w_once_per_point(dist, name):
        restricted = dist._restricted_grid()
        assert len(restricted) == 1 and evaluated[restricted] == 300, name
        assert dist._spans is None
        assert sum(evaluated.values()) - 300 == 2 * (dist.rank + 1), name

    for make, size in ((contact_structure, 3), (contact_structure, 4),
                       (even_contact_structure, 6)):
        bundle = make(size)
        dist = bundle.distribution
        evaluated.clear()
        for p in sample_points(dist.chart):
            flag = derived_flag_at(dist, p)
            assert (flag.ranks, flag.stabilized) == (bundle.expected_flag, True)
        reads_w_once_per_point(dist, bundle.name)
        dist = make(size).distribution
        evaluated.clear()
        verdict = has_derived_length_one(dist)
        assert verdict.value and verdict.checked == 300
        reads_w_once_per_point(dist, bundle.name)


def test_a_malformed_point_reads_the_same_in_every_sampled_check():
    # every point is converted by the integer evaluator's own check before
    # anything is ranked, so a certified check, which ranks one point,
    # rejects a malformed later point as the others do
    five, jets, _ = _two_constraints()
    dist = Distribution(five, coframe=jets)
    checks = {
        "derived_flag_at": lambda pts: [derived_flag_at(dist, p) for p in pts],
        "has_derived_length_one": lambda pts: has_derived_length_one(dist, pts),
        "check_dbasis_condition": lambda pts: check_dbasis_condition(jets, pts),
        "check_mni": lambda pts: check_mni(jets, 1, pts),
    }
    good = (1, 2, 3, 4, Fraction(1, 2))
    assert check_mni(jets, 1, [good]).certificate
    for bad, message in (((0, 0), "point of length 2 does not match chart of dimension 5"),
                         ((0, 0, 0, 0, 0.5), "expected integers or Fractions")):
        for name, check in checks.items():
            with pytest.raises(InputError) as caught:
                check([good, bad])
            assert str(caught.value).startswith(message), name


def test_derived_flag_jet_rank3():
    bundle = jet_canonical(2)
    flag = derived_flag_at(bundle.distribution, (0,) * 5)
    assert flag.ranks == (3, 5)


def test_derived_flag_single_constraint():
    bundle = single_constraint_r5()
    flag = derived_flag_at(bundle.distribution, (0,) * 5)
    assert flag.ranks == (4, 5)


def test_derived_flag_depth_cap():
    # rank-2 frame whose flag grows [2, 3, 4]: a cap of 2 cuts it short
    chart = Chart(("x1", "x2", "x3", "x4"))
    x1 = Polynomial.coordinate(chart, "x1")
    x3 = Polynomial.coordinate(chart, "x3")
    second = (
        VectorField.basis(chart, "x2")
        + x1 * VectorField.basis(chart, "x3")
        + x3 * VectorField.basis(chart, "x4")
    )
    dist = Distribution(chart, frame=[VectorField.basis(chart, "x1"), second])
    full = derived_flag_at(dist, (0, 0, 0, 0))
    assert full.ranks == (2, 3, 4)
    cut = derived_flag_at(dist, (0, 0, 0, 0), depth_cap=2)
    assert cut.ranks == (2, 3)
    assert not cut.stabilized
    verdict = has_derived_length_one(dist, [(0, 0, 0, 0)])
    assert verdict.value is False


def test_derived_flag_has_no_default_cap():
    # x*@x vanishes at x = 0, so the flag starts at rank 0 there; with no cap
    # it goes on to level 1, which adds no bracket, and so stabilizes
    chart = Chart(("x",))
    x = Polynomial.coordinate(chart, "x")
    dist = Distribution(chart, frame=[x * VectorField.basis(chart, "x")])
    flag = derived_flag_at(dist, (0,))
    assert (flag.ranks, flag.stabilized) == ((0, 0), True)
    assert derived_flag_by_fractions(dist, (0,)) == ((0, 0), True)
    cut = derived_flag_at(dist, (0,), depth_cap=1)
    assert (cut.ranks, cut.stabilized) == ((0,), False)
    assert derived_flag_at(dist, (1,)).ranks == (1,)


def test_has_derived_length_one_builds_two_levels(monkeypatch):
    # the [2, 3, 4] frame of test_derived_flag_depth_cap: the verdict needs
    # level 1, the one bracket [f_1, f_2], not the brackets level 2 would add
    chart = Chart(("x1", "x2", "x3", "x4"))
    x1 = Polynomial.coordinate(chart, "x1")
    x3 = Polynomial.coordinate(chart, "x3")
    frame = [
        VectorField.basis(chart, "x1"),
        VectorField.basis(chart, "x2") + x1 * VectorField.basis(chart, "x3")
        + x3 * VectorField.basis(chart, "x4"),
    ]
    points = sample_slice(chart, seed=4, grid=10, randoms=10)
    calls = []

    def counted(x, y):
        calls.append(1)
        return forms.lie_bracket(x, y)

    monkeypatch.setattr(distributions, "lie_bracket", counted)
    verdict = has_derived_length_one(Distribution(chart, frame=frame), points)
    assert len(calls) == 1
    full = Distribution(chart, frame=frame)
    expected = tuple(tuple(p) for p in points if derived_flag_at(full, p).ranks != (2, 4))
    assert verdict.value is False
    assert verdict.witnesses == expected and len(expected) == len(points)
    # level 1 brackets each unordered pair of frame fields once
    for bundle in builtin_corpus():
        dist = bundle.distribution
        r = len(dist.spanning_frame())
        level = dist._spanning_sets().level(1)
        assert len(list(level.at((0,) * dist.chart.n + (1,)))) <= r * (r - 1) // 2


def test_flags_monotone_over_corpus():
    for bundle in builtin_corpus():
        dist = bundle.distribution
        pts = sample_slice(dist.chart, seed=3, grid=10, randoms=5)
        for pt in pts:
            flag = derived_flag_at(dist, pt)
            assert all(a <= b for a, b in zip(flag.ranks, flag.ranks[1:]))
            assert flag.ranks[-1] <= dist.chart.n
            if bundle.expected_flag:
                assert flag.ranks == bundle.expected_flag


def test_has_derived_length_one_examples():
    chart, alpha = _contact3()
    contact = Distribution(chart, coframe=[alpha])
    assert has_derived_length_one(contact).value is True

    integrable = Distribution(
        chart, frame=[VectorField.basis(chart, 1), VectorField.basis(chart, 2)]
    )
    verdict = has_derived_length_one(integrable)
    assert verdict.value is False
    assert len(verdict.witnesses) == verdict.checked

    assert has_derived_length_one(jet_canonical(3).distribution).value is True


def test_has_derived_length_one_rejects_rank_drop():
    chart = Chart(("x", "y"))
    x = Polynomial.coordinate(chart, "x")
    dist = Distribution(chart, frame=[x * VectorField.basis(chart, "y")])
    try:
        has_derived_length_one(dist, [(0, 0)])
        assert False
    except DegeneratePresentationError:
        pass


def _identity_block_coframe(rng, n):
    """m random 1-forms a_i = dx_(n-m+i) + sum_(j <= n-m) p_ij dx_j with
    random polynomials p_ij of degree <= 2, 1 <= m <= n-2."""
    m = rng.randint(1, n - 2)
    chart = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    coframe = []
    for i in range(m):
        form = DiffForm.basis(chart, n - m + i + 1)
        for j in range(1, n - m + 1):
            form = form + rnd_poly(rng, chart) * DiffForm.basis(chart, j)
        coframe.append(form)
    return chart, coframe


def _same_dlo_verdict(dist, points=None):
    expected = flag_route_dlo_verdict(dist, points)
    assert has_derived_length_one(dist, points) == expected
    return expected


def test_restricted_grid_matches_the_flag_route_on_the_corpus():
    for bundle in builtin_corpus():
        dist = bundle.distribution
        _same_dlo_verdict(dist)
        assert dist._restricted_grid() is not None and dist._spans is None, bundle.name
    # at rank 1 the restricted grid has no column: every point is a witness
    chart = Chart(("x", "y"))
    x = Polynomial.coordinate(chart, "x")
    line = Distribution(chart, coframe=[DiffForm.basis(chart, "y") - x * DiffForm.basis(chart, "x")])
    assert _same_dlo_verdict(line).witnesses == tuple(sample_points(chart))
    assert line._restricted_grid() is not None


def test_restricted_grid_matches_the_flag_route_on_random_coframes():
    # the frame derived from the coframe, and two frames given with it: a
    # constant mix of the derived one, which keeps a constant minor and so
    # the restricted grid, and one with a field scaled by 1 + x1^2, which
    # has no constant minor and keeps the flag route
    rng = random.Random(22)
    with_witnesses = 0
    for case in range(120):
        chart, coframe = _identity_block_coframe(rng, 3 + case % 5)
        derived = Distribution(chart, coframe=coframe)
        verdict = _same_dlo_verdict(derived)
        with_witnesses += bool(verdict.witnesses)
        assert derived._restricted_grid() is not None
        if case % 4:
            continue
        frame = list(derived.spanning_frame())
        if len(frame) > 1:
            frame[0] = frame[0] + rnd_fraction(rng) * frame[1]
        frame[-1] = -frame[-1]
        mixed = Distribution(chart, frame=frame, coframe=coframe)
        points = sample_slice(chart, case, grid=40, randoms=20)
        assert _same_dlo_verdict(mixed, points) == has_derived_length_one(derived, points)
        assert mixed._restricted_grid() is not None
        x1 = Polynomial.coordinate(chart, 1)
        frame[0] = (x1 * x1 + 1) * frame[0]
        scaled = Distribution(chart, frame=frame, coframe=coframe)
        assert _same_dlo_verdict(scaled, points) == has_derived_length_one(derived, points)
        assert scaled._restricted_grid() is None
    assert with_witnesses >= 80, with_witnesses


def test_derived_flag_reads_level_one_off_the_restricted_grid_as_the_oracle(monkeypatch):
    # identity-block coframes as in the test above, with the derived frame,
    # a constant mix of it and the (1 + x1^2)-scaled frame: where the
    # restricted grid exists and the cap allows level 1, a flag [r, n] is
    # read off r + rank W alone; at the witnesses, under cap 1 and without
    # a grid, the brackets decide
    bracketed = []

    def counted(*args):
        bracketed.append(1)
        return flag_ranks(*args)

    flag_ranks = distributions._flag_ranks
    monkeypatch.setattr(distributions, "_flag_ranks", counted)
    rng = random.Random(26)
    read_off_w = past_level_one = 0
    for case in range(12):
        chart, coframe = _identity_block_coframe(rng, 3 + case % 4)
        derived = Distribution(chart, coframe=coframe)
        frame = list(derived.spanning_frame())
        if len(frame) > 1:
            frame[0] = frame[0] + rnd_fraction(rng) * frame[1]
        mixed = Distribution(chart, frame=frame, coframe=coframe)
        x1 = Polynomial.coordinate(chart, 1)
        frame[0] = (x1 * x1 + 1) * frame[0]
        scaled = Distribution(chart, frame=frame, coframe=coframe)
        points = sample_slice(chart, case, grid=8, randoms=2)
        for dist in (derived, mixed, scaled):
            for point in points:
                for cap in (None, 1, 2, 3):
                    before = len(bracketed)
                    flag = derived_flag_at(dist, point, cap)
                    assert (flag.ranks, flag.stabilized) == derived_flag_by_fractions(
                        dist, point, cap)
                    if cap == 1 or dist is scaled:
                        assert len(bracketed) == before + 1
                    else:
                        read_off_w += len(bracketed) == before
                        past_level_one += len(bracketed) > before
        assert scaled._restricted_grid() is None and mixed._restricted_grid() is not None
    assert read_off_w > 0 and past_level_one > 0, (read_off_w, past_level_one)


def _mni_k(dist):
    """The k of check_mni's dimension bounds for this distribution, or None."""
    k = (dist.rank - 1) // 2
    return k if dist.rank % 2 and k >= 1 and 2 * k + 2 <= dist.chart.n <= 4 * k + 2 else None


def test_a_distribution_and_its_bare_coframe_give_the_same_verdicts(monkeypatch):
    # the wedge checks on a Distribution rank the W of its da_i over the
    # kernel frame it shares with the flag, whatever frame it was given, so
    # their whole Verdicts, certificate included, are those of the bare
    # coframe, whose checks never pair a form with a field; check-dlo still
    # equals the flag route. The corpus, and the random identity-block
    # coframes of the tests above with the derived frame, a constant mix
    # of it and the (1 + x1^2)-scaled frame; and a coframe without a kernel
    # frame, given with a frame, whose wedge checks build W at each point
    paired = []
    pairing = distributions._pairing
    monkeypatch.setattr(distributions, "_pairing", lambda a, f: paired.append(1) or pairing(a, f))
    cases = [(bundle.distribution, None) for bundle in builtin_corpus()]
    rng = random.Random(29)
    for case in range(16):
        chart, coframe = _identity_block_coframe(rng, 3 + case % 5)
        derived = Distribution(chart, coframe=coframe)
        frame = list(derived.spanning_frame())
        if len(frame) > 1:
            frame[0] = frame[0] + rnd_fraction(rng) * frame[1]
        frame[-1] = -frame[-1]
        mixed = Distribution(chart, frame=frame, coframe=coframe)
        x1 = Polynomial.coordinate(chart, 1)
        frame[0] = (x1 * x1 + 1) * frame[0]
        scaled = Distribution(chart, frame=frame, coframe=coframe)
        points = sample_slice(chart, case, grid=20, randoms=10)
        cases += [(dist, points) for dist in (derived, mixed, scaled)]
    chart = _chart3()
    x1, x3 = (Polynomial.coordinate(chart, i) for i in (1, 3))
    dx = [DiffForm.basis(chart, i) for i in range(1, 4)]
    offpivot = Distribution(chart, frame=[VectorField(chart, [x1 * x3 * x3, 1, -x1])],
                            coframe=[dx[0] + x3 * x3 * dx[2], x1 * dx[1] + dx[2]])
    assert offpivot._kernel_frame is None
    cases.append((offpivot, None))
    kinds = Counter()
    for dist, points in cases:
        coframe, k = list(dist.coframe), _mni_k(dist)
        paired.clear()
        bare = [check_dbasis_condition(coframe, points)]
        if k is not None:
            bare.append(check_mni(coframe, k, points))
        assert paired == [], dist
        verdicts = [check_dbasis_condition(dist, points)]
        if k is not None:
            verdicts.append(check_mni(dist, k, points))
        assert verdicts == bare, dist
        kinds.update(map(_kind, verdicts))
        assert has_derived_length_one(dist, points) == flag_route_dlo_verdict(dist, points)
    assert set(kinds) == {"certified", "value True", "value False"}, kinds


def test_the_flag_route_serves_unproved_presentations(monkeypatch):
    # a caller frame without a constant minor, a coframe without one, a
    # frame alone and rank n build no restricted grid; the frame and
    # coframe of contact-3, and the frame derived from a coframe, build
    # no bracket
    built, brackets = [], []

    def compiled(frame, coframe):
        built.append(1)
        return original(frame, coframe)

    def counted(x, y):
        brackets.append(1)
        return forms.lie_bracket(x, y)

    original = distributions._compile_restricted_grid
    monkeypatch.setattr(distributions, "_compile_restricted_grid", compiled)
    monkeypatch.setattr(distributions, "lie_bracket", counted)
    chart = _chart3()
    x = Polynomial.coordinate(chart, "x")
    dx, dy, dz = (VectorField.basis(chart, name) for name in ("x", "y", "z"))
    alpha = DiffForm.basis(chart, "z")
    stretched = Distribution(chart, frame=[x * dx, dy], coframe=[alpha])
    with pytest.raises(DegeneratePresentationError) as caught:
        has_derived_length_one(stretched, [(1, 0, 0), (0, 1, 2)])
    assert str(caught.value) == "frame drops rank at point (0, 1, 2)"
    assert caught.value.point == (0, 1, 2)
    contact = contact_structure(3).distribution
    cases = [
        (Distribution(chart, frame=[dx, dy], coframe=[(x * x + 1) * alpha]), False, 1),
        (Distribution(contact.chart, frame=contact.frame), True, 15),
        (Distribution(chart, frame=[dx, dy, dz]), True, 0),
        (Distribution(chart, frame=[dx, dy, dz], coframe=[]), True, 0),
    ]
    for dist, value, count in cases:
        brackets.clear()
        verdict = has_derived_length_one(dist, sample_slice(dist.chart, grid=20, randoms=5))
        assert (verdict.value, len(brackets)) == (value, count), dist
        assert dist._restricted_grid() is None
    assert built == [] and stretched._restricted_grid() is None
    jet = jet_canonical(2)
    for dist in (contact_structure(3).distribution,
                 Distribution(jet.distribution.chart, coframe=jet.coframe)):
        brackets.clear()
        assert has_derived_length_one(dist).value
        assert brackets == [] and dist._spans is None
    assert built == [1, 1]


def test_a_caller_frame_without_a_constant_minor_costs_one_probe(monkeypatch):
    # the frame (1 + x1^2)*@x_j, j <= 9, with the coframe dx10, ..., dx18:
    # the frame's one candidate, columns 1 to 9, has unequal probe minors 5^9
    # and 10^9, so no symbolic determinant is taken before the flag route
    confirmed, expanded = [], []
    original_confirmed, original_det = forms._confirmed, forms._poly_det

    def counted(grid, values, subset):
        confirmed.append(subset)
        return original_confirmed(grid, values, subset)

    def determinant(matrix):
        expanded.append(len(matrix))
        return original_det(matrix)

    monkeypatch.setattr(forms, "_confirmed", counted)
    monkeypatch.setattr(forms, "_poly_det", determinant)
    chart = Chart(tuple("x%d" % j for j in range(1, 19)))
    x1 = Polynomial.coordinate(chart, 1)
    frame = [(x1 * x1 + 1) * VectorField.basis(chart, j) for j in range(1, 10)]
    coframe = [DiffForm.basis(chart, j) for j in range(10, 19)]
    dist = Distribution(chart, frame=frame, coframe=coframe)
    verdict = has_derived_length_one(dist, [(0,) * 18])
    assert verdict.witnesses == ((0,) * 18,) and dist._restricted_grid() is None
    assert confirmed == [tuple(range(9))] and expanded == []


def test_check_dbasis_condition_examples():
    chart, alpha = _contact3()
    assert check_dbasis_condition([alpha]).value is True
    assert check_dbasis_condition([DiffForm.basis(chart, "z")]).value is False

    five = Chart(("x", "y1", "y2", "z1", "z2"))
    dx = DiffForm.basis(five, "x")
    coframe = [
        DiffForm.basis(five, "y%d" % i) - Polynomial.coordinate(five, "z%d" % i) * dx
        for i in (1, 2)
    ]
    verdict = check_dbasis_condition(coframe, sample_slice(five, grid=5, randoms=5))
    assert verdict.value is True
    assert verdict.certificate


def test_wedge_checks_refuse_presentations_without_a_kernel():
    # n or more 1-forms on n coordinates leave no kernel to rank W on:
    # check-dbasis refuses them up front, with Distribution's message,
    # where four forms on three coordinates used to raise a rank drop at
    # the first point and three forms to fail at every point; check-mni
    # keeps its dimension-bound message. A distribution presented by a
    # frame alone has no coframe for any wedge check
    chart = _chart3()
    d = [DiffForm.basis(chart, name) for name in ("x", "y", "z")]
    for coframe, message in (
            (d + [d[0] + d[1]], "a coframe of 4 1-forms on 3 coordinates leaves no kernel"),
            (d, "a coframe of 3 1-forms on 3 coordinates leaves no kernel")):
        with pytest.raises(InputError) as caught:
            check_dbasis_condition(coframe)
        assert str(caught.value) == message
    with pytest.raises(InputError) as caught:
        check_mni(d, 1)
    assert str(caught.value) == "coframe size 3 does not match n - 2k - 1 = 0"
    contact = contact_structure(1).distribution
    frame_only = Distribution(contact.chart, frame=contact.frame)
    for check in (lambda: check_dbasis_condition(frame_only), lambda: check_mni(frame_only, 1),
                  lambda: check_almost_mni(frame_only, [], 1)):
        with pytest.raises(InputError) as caught:
            check()
        assert str(caught.value) == "expected at least one coframe form"


def test_distribution_names_the_size_of_a_presentation_out_of_range():
    # the message counts the presentation and the coordinates; a coframe
    # takes precedence when both are given (test_wedge_checks_refuse_
    # presentations_without_a_kernel has the coframe alone)
    chart = _chart3()
    d = [DiffForm.basis(chart, name) for name in ("x", "y", "z")]
    fields = [VectorField.basis(chart, i) for i in (1, 2, 3, 1)]
    for kwargs, message in (
            ({"frame": fields}, "a frame of 4 vector fields on 3 coordinates cannot span a "
                                "distribution"),
            ({"frame": []}, "a frame of 0 vector fields on 3 coordinates cannot span a "
                            "distribution"),
            ({"frame": [], "coframe": d}, "a coframe of 3 1-forms on 3 coordinates leaves "
                                          "no kernel")):
        with pytest.raises(InputError) as caught:
            Distribution(chart, **kwargs)
        assert str(caught.value) == message


def test_check_dbasis_degenerate_coframe():
    chart = _chart3()
    y = Polynomial.coordinate(chart, "y")
    try:
        check_dbasis_condition([y * DiffForm.basis(chart, "x")])
        assert False
    except DegeneratePresentationError:
        pass


def test_check_mni_even_contact():
    bundle = even_contact_structure(4)
    verdict = check_mni(bundle.coframe, 1)
    assert verdict.value is True and verdict.certificate


def test_check_mni_integrable_corank2():
    five = Chart(("x", "y", "z", "w", "t"))
    coframe = [DiffForm.basis(five, "z"), DiffForm.basis(five, "w")]
    verdict = check_mni(coframe, 1)
    assert verdict.value is False
    assert verdict.witnesses
    assert not verdict.certificate


def test_check_mni_two_jet_like_constraints():
    five = Chart(("x1", "x2", "y1", "y2", "t"))
    t = Polynomial.coordinate(five, "t")
    coframe = [
        DiffForm.basis(five, "y1") - t * DiffForm.basis(five, "x1"),
        DiffForm.basis(five, "y2") - t * DiffForm.basis(five, "x2"),
    ]
    verdict = check_mni(coframe, 1)
    assert verdict.value is True
    assert verdict.certificate


def test_check_mni_quadratic_at_n9_and_n10():
    # the witnesses settle certificate=False without a search; the full
    # search over 126 and 252 symbolic 4 x 4 and 5 x 5 minors agrees, its
    # numeric prefilter ruling every one of them out
    for n in (9, 10):
        coframe = quadratic_coframe(n, 2)
        points = sample_slice(coframe[0].chart, grid=5, randoms=5)
        verdict = check_mni(coframe, 2, points=points)
        assert verdict.checked == 10
        assert verdict.value is False
        assert verdict.certificate is False
        base = wedge_all(coframe)
        forms = [wedge(base, wedge_power(exterior_derivative(a), 2)) for a in coframe]
        assert constant_minor_certificate(forms) is False


def test_check_mni_quadratic_full_sampling_witnesses():
    # default sampling, 300 points at seed 0; each witness list is pinned by
    # a digest recorded on the one-point-at-a-time Fraction evaluation
    for n, count, digest in ((9, 201, "f1b1ed1351596dc7"), (10, 200, "7c3683e83b4b7562")):
        verdict = check_mni(quadratic_coframe(n, 2), 2)
        assert verdict.checked == 300
        assert len(verdict.witnesses) == count
        text = ";".join(",".join(str(x) for x in p) for p in verdict.witnesses)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_sampled_checks_accept_an_iterator_of_points():
    # each check reads its points more than once: the ranks of the forms,
    # the coframe guard at the points where they vanish, and the count
    bundle = even_contact_structure(4)
    coframe, chart = bundle.coframe, bundle.distribution.chart
    points = [list(p) for p in sample_slice(chart, grid=10, randoms=10)]
    zeros = [DiffForm.zero(chart, 2) for _ in coframe]
    integrable = Distribution(chart, frame=[VectorField.basis(chart, j) for j in (1, 2, 3)])
    checks = [
        lambda pts: check_mni(coframe, 1, pts),
        lambda pts: check_almost_mni(coframe, zeros, 1, pts),
        lambda pts: check_dbasis_condition(coframe, pts),
        lambda pts: has_derived_length_one(bundle.distribution, pts),
        lambda pts: has_derived_length_one(integrable, pts),
    ]
    for check in checks:
        verdict = check(points)
        assert check(iter(points)) == verdict and verdict.checked == 20
    assert [check(points).value for check in checks] == [True, False, True, True, False]


def _random_coframe(rng, n):
    """q random 1-forms on n coordinates. The shapes: a block on random
    columns with 1 (full rank everywhere, a constant minor) or 1 + x^2
    (full rank everywhere, that minor not constant) on its diagonal and 0
    off it; a form scaled by a coordinate (a drop on its zero set); a
    multiple of another form (dependent everywhere); or none of these."""
    chart = Chart(tuple("x%d" % i for i in range(1, n + 1)))
    q = rng.randint(1, 3)
    coframe = [rnd_form(rng, chart, 1) for _ in range(q)]
    shape = rng.choice(("identity", "stretched", "scaled", "multiple", "random"))
    if shape in ("identity", "stretched"):
        block = rng.sample(range(1, n + 1), q)
        x = Polynomial.coordinate(chart, rng.randint(1, n))
        diagonal = 1 if shape == "identity" else 1 + x * x
        coframe = [DiffForm(chart, 1, {**{key: c for key, c in a.terms.items() if key[0] not in block},
                                       (j,): diagonal})
                   for a, j in zip(coframe, block)]
    elif shape == "scaled":
        coframe[-1] = Polynomial.coordinate(chart, rng.randint(1, n)) * coframe[-1]
    elif shape == "multiple" and q > 1:
        coframe[-1] = rnd_poly(rng, chart) * coframe[0]
    return coframe


def _rank_drop_trials():
    """150 (trial, coframe, points): random coframes on 4 to 8 coordinates,
    each with 6 grid points and 6 random points of sample_points."""
    rng = random.Random(15)
    for trial in range(150):
        coframe = _random_coframe(rng, 4 + trial % 5)
        points = sample_points(coframe[0].chart, trial)
        yield trial, coframe, rng.sample(points[:200], 6) + points[200:206]


def test_rank_guard_matches_point_by_point_oracle():
    # the wedge checks raise at the first point where a point-by-point
    # Fraction guard finds the coframe dependent, and only then, although
    # they rank the coframe in the Echelon that builds their pointwise W
    outcomes = {"dropped": 0, "full rank": 0}
    for trial, coframe, points in _rank_drop_trials():
        expected = first_rank_drop_by_fractions(coframe, points)
        try:
            check_dbasis_condition(coframe, points)
            raised = None
        except DegeneratePresentationError as err:
            raised = err.point
        assert raised == expected, trial
        outcomes["full rank" if expected is None else "dropped"] += 1
    assert min(outcomes.values()) >= 15, outcomes


def _verdict_or_drop(verdict, *args):
    try:
        return verdict(*args)
    except DegeneratePresentationError as err:
        return "drop", err.point, str(err)


def _agreed_outcome(coframe, omegas, k, points=None, seed=0):
    """The wedge checks' Verdict or rank drop, which must equal that of
    the witness-first order. Only a coframe that kernel_frame does not
    complete can drop rank, and a drop builds no wedge power. Otherwise
    the wedge powers are built only to seek a certificate, when the first
    point is no witness and W is not compiled and constant."""
    coframe, omegas = list(coframe), list(omegas)
    args = (coframe, omegas, k, points, seed)
    built = []

    def counted(form, power):
        built.append(form)
        return wedge_power(form, power)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distributions, "wedge_power", counted)
        outcome = _verdict_or_drop(distributions._wedge_verdict, *args)
    assert outcome == _verdict_or_drop(witness_first_verdict, *args)
    frame = kernel_frame(distributions._coframe_grid(coframe))
    if _kind(outcome) == "drop":
        assert frame is None and built == []
        return outcome
    first = tuple(points[0]) if points is not None else sample_points(coframe[0].chart, seed)[0]
    constant = (frame is not None
                and distributions._compile_restricted_grid(frame, omegas).degree == 0)
    seeks = not constant and first not in outcome.witnesses
    assert built == (omegas if seeks else [])
    return outcome


def _kind(outcome):
    if not isinstance(outcome, distributions.Verdict):
        return "drop"
    return "certified" if outcome.certificate else "value %s" % outcome.value


def _derivatives(coframe):
    return [exterior_derivative(a) for a in coframe]


def test_certificate_first_matches_witness_first_on_the_corpus():
    # the data documents (the d-basis condition, and the MNI and almost-MNI
    # checks where their sizes admit a k) and every gallery claim of the
    # three wedge checks, at seeds 0 and 3
    cases = []
    for path in sorted(glob.glob(os.path.join(DATA, "*.nh"))):
        with open(path, encoding="utf-8") as handle:
            try:
                doc = parse_document(handle.read())
            except ParseError:
                continue
        coframe = doc.one_forms()
        if not coframe:
            continue
        if len(coframe) >= doc.chart.n:  # no kernel: refused before any point
            with pytest.raises(InputError):
                check_dbasis_condition(coframe)
            continue
        cases.append((coframe, _derivatives(coframe), 1))
        twice_k = doc.chart.n - len(coframe) - 1
        if twice_k >= 2 and twice_k % 2 == 0:
            cases.append((coframe, _derivatives(coframe), twice_k // 2))
            two_forms = [b.value for b in doc.bindings
                         if isinstance(b.value, DiffForm) and b.value.degree == 2]
            if len(two_forms) == len(coframe):
                cases.append((coframe, two_forms, twice_k // 2))
    for bundle in builtin_corpus():
        claimed = {"check-dbasis": (_derivatives(bundle.coframe), 1),
                   "check-mni": (_derivatives(bundle.coframe), bundle.k),
                   "check-amni": (bundle.omegas, bundle.k)}
        cases += [(bundle.coframe,) + claimed[c] for c in bundle.claims if c in claimed]
    kinds = Counter(_kind(_agreed_outcome(coframe, omegas, k, None, seed))
                    for coframe, omegas, k in cases for seed in (0, 3))
    assert set(kinds) == {"certified", "value False", "drop"}, kinds


def test_certificate_first_matches_witness_first_on_benchmark_coframes():
    # every admissible shape with k <= 2, (10,2) the largest, at seeds 0
    # and 3, and (8,3) and (10,3) on a slice of the sample set: the
    # quadratic checks are refuted, the jet-like ones certified, all on the
    # restricted grid
    shapes = [(n, k, seed, None) for k in (1, 2) for n in range(2 * k + 2, 4 * k + 3)
              for seed in (0, 3)]
    for n in (8, 10):
        chart = quadratic_coframe(n, 3)[0].chart
        shapes.append((n, 3, 0, sample_slice(chart, grid=6, randoms=6)))
    for n, k, seed, points in shapes:
        quadratic = quadratic_coframe(n, k)
        outcome = _agreed_outcome(quadratic, _derivatives(quadratic), k, points, seed)
        assert _kind(outcome) == "value False", (n, k, seed)
        jetlike = jetlike_coframe(n, k, random.Random(seed))
        outcome = _agreed_outcome(jetlike, _derivatives(jetlike), k, points, seed)
        assert _kind(outcome) == "certified", (n, k, seed)
        assert kernel_frame(distributions._coframe_grid(quadratic)) is not None
        assert kernel_frame(distributions._coframe_grid(jetlike)) is not None


def test_certificate_first_matches_witness_first_on_random_coframes():
    # the d-basis condition on the rank guard's 150 random coframes, where
    # each of the four outcomes occurs at least 5 times: the identity
    # blocks take the compiled W, the rest the pointwise W
    kinds = Counter()
    for _, coframe, points in _rank_drop_trials():
        route = "grid" if kernel_frame(distributions._coframe_grid(coframe)) else "pointwise"
        kinds[route, _kind(_agreed_outcome(coframe, _derivatives(coframe), 1, points))] += 1
    outcomes = Counter()
    for (_, kind), count in kinds.items():
        outcomes[kind] += count
    assert len(outcomes) == 4 and min(outcomes.values()) >= 5, kinds
    assert {route for route, _ in kinds} == {"grid", "pointwise"}, kinds


def test_the_restricted_grid_route_matches_the_symbolic_oracle():
    # amni5 through check_almost_mni, the corpus through
    # check_dbasis_condition, and seeded random 2-forms on identity-block
    # coframes at k = 1 and 2, every case on the compiled W. The off-pivot
    # coframe, whose only constant minor needs a non-constant column, the
    # quadratic (8,3) and (10,3) scaled by 1 + x1^2, and a coframe whose
    # pivot column moves between points take the pointwise W
    with open(os.path.join(DATA, "amni5.nh"), encoding="utf-8") as handle:
        doc = parse_document(handle.read())
    coframe, omegas = doc.one_forms(), [doc.binding(w).value for w in ("w1", "w2")]
    for seed in (0, 3):
        verdict = check_almost_mni(coframe, omegas, 1, seed=seed)
        assert verdict == witness_first_verdict(coframe, omegas, 1, None, seed)
        assert _agreed_outcome(coframe, omegas, 1, None, seed) == verdict
    for bundle in builtin_corpus():
        verdict = check_dbasis_condition(bundle.coframe)
        assert verdict == witness_first_verdict(bundle.coframe, _derivatives(bundle.coframe), 1,
                                                None, 0), bundle.name
        assert kernel_frame(distributions._coframe_grid(bundle.coframe)) is not None
    rng = random.Random(31)
    kinds = Counter()
    for trial in range(40):
        k = 1 + trial % 2
        m = 1 + trial % 3
        chart = Chart(tuple("x%d" % j for j in range(1, 2 * k + 2 + m)))
        coframe = [DiffForm.basis(chart, 2 * k + 2 + i) for i in range(m)]
        if trial % 4:  # else a constant frame
            coframe = [a + DiffForm(chart, 1, {(j,): rnd_poly(rng, chart)
                                               for j in range(1, 2 * k + 2)})
                       for a in coframe]
        omegas = [rnd_form(rng, chart, 2, max_terms=6) for _ in coframe]
        if trial % 4 < 2:  # constant 2-forms, so with a constant frame a constant W
            omegas = [DiffForm(chart, 2, {key: Polynomial.constant(chart, rnd_fraction(rng))
                                          for key in w.terms}) for w in omegas]
        assert kernel_frame(distributions._coframe_grid(coframe)) is not None
        points = sample_slice(chart, trial, grid=10, randoms=10)
        kinds[_kind(_agreed_outcome(coframe, omegas, k, points))] += 1
    assert set(kinds) == {"certified", "value True", "value False"}, kinds
    with open(os.path.join(DATA, "offpivot3.nh"), encoding="utf-8") as handle:
        offpivot = parse_document(handle.read()).one_forms()
    assert kernel_frame(distributions._coframe_grid(offpivot)) is None
    assert _kind(_agreed_outcome(offpivot, _derivatives(offpivot), 1)) == "value False"
    for n in (8, 10):  # k = 3 ranks a kernel vector of each W_i
        quadratic = quadratic_coframe(n, 3)
        x1 = Polynomial.coordinate(quadratic[0].chart, 1)
        scaled = [(1 + x1 * x1) * a for a in quadratic]
        assert kernel_frame(distributions._coframe_grid(scaled)) is None
        points = sample_slice(scaled[0].chart, grid=6, randoms=6)
        assert _kind(_agreed_outcome(scaled, _derivatives(scaled), 3, points)) == "value False"
    # y dx + (1 + y^2) dy + z dz, whose pivot column at q is x where y != 0
    # and y where y = 0: a^da = -z dx^dy^dz, so the witnesses are z = 0
    chart = Chart(("x", "y", "z", "w"))
    x, y, z = (Polynomial.coordinate(chart, name) for name in "xyz")
    moving = [DiffForm(chart, 1, {(1,): y, (2,): 1 + y * y, (3,): z})]
    assert kernel_frame(distributions._coframe_grid(moving)) is None
    points = sample_slice(chart, grid=30, randoms=10)
    assert {min(j for (j,), c in moving[0].terms.items() if poly_eval(c, p))
            for p in points} == {1, 2}
    outcome = _agreed_outcome(moving, _derivatives(moving), 1, points)
    assert outcome.witnesses == tuple(p for p in points if p[2] == 0)


def _two_constraints():
    """(chart, jets, integrable): dy_i - t dx_i, which is MNI for k = 1, and
    dy_i, which is integrable, for i = 1, 2 on five coordinates."""
    five = Chart(("x1", "x2", "y1", "y2", "t"))
    t = Polynomial.coordinate(five, "t")
    jets = [DiffForm.basis(five, "y%d" % i) - t * DiffForm.basis(five, "x%d" % i)
            for i in (1, 2)]
    return five, jets, [DiffForm.basis(five, "y1"), DiffForm.basis(five, "y2")]


def _sampled_checks():
    five, jets, integrable = _two_constraints()
    zeros = [DiffForm.zero(five, 2)] * 2
    flat = Distribution(five, coframe=integrable)
    return {
        "check_mni": lambda pts: check_mni(integrable, 1, pts),
        "check_almost_mni": lambda pts: check_almost_mni(jets, zeros, 1, pts),
        "check_dbasis_condition": lambda pts: check_dbasis_condition(integrable, pts),
        "has_derived_length_one": lambda pts: has_derived_length_one(flat, pts),
    }


@pytest.mark.parametrize("name", sorted(_sampled_checks()))
def test_an_empty_point_set_is_an_error(name):
    # no point refutes an empty set, so a check on an integrable or zero
    # input would pass vacuously
    check = _sampled_checks()[name]
    assert check([(0,) * 5]).value is False
    with pytest.raises(InputError, match="at least one point"):
        check([])
    with pytest.raises(InputError, match="at least one point"):
        check(iter(()))


@pytest.mark.parametrize("bad", [(0, 0, 0, 0), (0, 0, 0, 0, 0.5)], ids=["length", "float"])
def test_malformed_points_after_the_first_raise_on_every_path(bad):
    # a certified check ranks only its first point, yet a malformed point
    # later on raises the InputError of the integer evaluator, as it does
    # on the uncertified paths: a witness at the first point, or no witness
    # there and no constant minor
    five, jets, integrable = _two_constraints()
    t = Polynomial.coordinate(five, "t")
    stretched = [(1 + t * t) * jets[0], jets[1]]
    points = [(1, 2, 3, 4, 5), (0, 1, 0, 1, Fraction(1, 2)), bad, (0,) * 5]
    for coframe, kind in ((jets, "certified"), (stretched, "value True"),
                          (integrable, "value False")):
        assert _kind(_agreed_outcome(coframe, _derivatives(coframe), 1, points[:2])) == kind
        with pytest.raises(InputError) as caught:
            check_mni(coframe, 1, points)
        with pytest.raises(InputError) as expected:
            witness_first_verdict(coframe, _derivatives(coframe), 1, points, 0)
        assert str(caught.value) == str(expected.value), kind
        assert str(expected.value).startswith(("point of length 4", "expected integers")), kind


def test_rank_guard_reads_past_rank_zero_points_without_a_drop():
    # the last quadratic (8,2) form scaled by x8 - 1/2: every MNI form
    # vanishes at the origin, (0,...,0,1) and (0,...,0,-1), where the
    # coframe keeps its rank, and the coframe drops at (0,...,0,1/2)
    coframe = quadratic_coframe(8, 2)
    x8 = Polynomial.coordinate(coframe[0].chart, 8)
    coframe[-1] = (x8 - Fraction(1, 2)) * coframe[-1]
    points = sample_points(coframe[0].chart)
    expected = first_rank_drop_by_fractions(coframe, points)
    assert expected == (0,) * 7 + (Fraction(1, 2),)
    try:
        check_mni(coframe, 2)
        assert False
    except DegeneratePresentationError as err:
        assert err.point == expected
        assert "coframe drops rank" in str(err)


def test_check_mni_ranks_only_the_mni_forms(monkeypatch):
    # check_mni evaluates one restricted grid W once at each point it
    # ranks, and calls no rank and no dependent_points. On a coframe that
    # kernel_frame completes, W is compiled: a quadratic check, whose first
    # point is a witness, evaluates W at every point and seeks no
    # certificate; a jet-like check, whose W is constant, evaluates W at
    # its first point alone and is certified without a search. A W that is
    # not constant, without a witness at its first point, seeks the
    # certificate once, and then evaluates W at every point. A coframe
    # without the constant minor builds W at every point, pointwise, and
    # the points where every MNI form vanishes are among its witnesses
    grids, pointwise, ranked, guarded, sought = [], [], [], [], []

    class Counted:
        def __init__(self, grid):
            self.grid, self.degree, self.points = grid, grid.degree, []

        def at(self, q):
            self.points.append(distributions._fraction_point(q))
            return self.grid.at(q)

    def compiled(frame, two_forms):
        grids.append(Counted(original(frame, two_forms)))
        return grids[-1]

    def built_at_points(coframe, two_forms):
        at = original_pointwise(coframe, two_forms)
        pointwise.append([])

        def counted_at(q):
            pointwise[-1].append(distributions._fraction_point(q))
            return at(q)

        return counted_at

    def counted_rank(rows):
        ranked.append(len(rows))
        return rank(rows)

    def counted_guard(forms, rows):
        guarded.append(forms)
        return dependent_points(forms, rows)

    def counted_search(forms):
        sought.append(len(forms))
        return constant_minor_certificate(forms)

    original = distributions._compile_restricted_grid
    original_pointwise = distributions._pointwise_restricted_grid
    monkeypatch.setattr(distributions, "_compile_restricted_grid", compiled)
    monkeypatch.setattr(distributions, "_pointwise_restricted_grid", built_at_points)
    for module in (forms, linalg):
        monkeypatch.setattr(module, "rank", counted_rank)
    monkeypatch.setattr(forms, "dependent_points", counted_guard)
    monkeypatch.setattr(distributions, "constant_minor_certificate", counted_search)

    def check(coframe, k, points):
        for calls in (grids, pointwise, ranked, guarded, sought):
            calls.clear()
        verdict = check_mni(coframe, k, points=points)
        assert ranked == [] and guarded == []
        return verdict

    def compiled_check(coframe, k, points):
        verdict = check(coframe, k, points)
        (grid,) = grids
        assert pointwise == []
        return verdict, grid

    rng = random.Random(15)
    for n, k in ((5, 1), (6, 2), (7, 2), (8, 2), (8, 3)):
        coframe = quadratic_coframe(n, k)
        points = sample_slice(coframe[0].chart, grid=5, randoms=5)
        verdict, grid = compiled_check(coframe, k, points)
        assert not verdict.value and verdict.witnesses[0] == points[0], (n, k)
        assert grid.points == points and sought == [], (n, k)

        coframe = jetlike_coframe(n, k, rng)
        points = sample_slice(coframe[0].chart, grid=5, randoms=5)
        verdict, grid = compiled_check(coframe, k, points)
        assert verdict == distributions.Verdict(True, len(points), (), True), (n, k)
        assert grid.degree == 0 and grid.points == points[:1] and sought == [], (n, k)
    chart = Chart(("x", "y", "z", "w"))
    x, y = Polynomial.coordinate(chart, "x"), Polynomial.coordinate(chart, "y")
    stretched = [DiffForm.basis(chart, "w") - (1 + x * x) * y * DiffForm.basis(chart, "x")]
    points = sample_slice(chart, grid=5, randoms=5)
    verdict, grid = compiled_check(stretched, 1, points)
    assert verdict == distributions.Verdict(True, len(points), (), False)
    assert grid.degree == 2 and grid.points == points and sought == [1]

    vanishing = []
    for n, k in ((5, 1), (6, 2), (7, 2)):
        quadratic = quadratic_coframe(n, k)
        chart = quadratic[0].chart
        x1 = Polynomial.coordinate(chart, 1)
        scaled = [(1 + x1 * x1) * a for a in quadratic]
        assert kernel_frame(distributions._coframe_grid(scaled)) is None
        points = sample_slice(chart, grid=5, randoms=5)
        base = wedge_all(scaled)
        mni = [wedge(base, wedge_power(exterior_derivative(a), k)) for a in scaled]
        zeros = [p for p in points
                 if all(poly_eval(c, p) == 0 for f in mni for c in f.terms.values())]
        verdict = check(scaled, k, points)
        assert not verdict.value and set(zeros) <= set(verdict.witnesses), (n, k)
        assert grids == [] and pointwise == [points] and sought == [], (n, k)
        vanishing.append(len(zeros))
    assert min(vanishing) > 0, vanishing


def test_pivot_candidate_proves_the_benchmark_coframes(monkeypatch):
    # the candidate, the first subset that forms._confirmed sees, is the
    # identity block of quadratic_coframe (the last m columns) and of a
    # jet-like coframe (the first m) at every admissible shape with k <= 4
    seen = []
    original = forms._confirmed

    def counted(grid, values, subset):
        seen.append((subset, original(grid, values, subset)))
        return seen[-1][1]

    monkeypatch.setattr(forms, "_confirmed", counted)
    rng = random.Random(15)
    for k in range(1, 5):
        for n in range(2 * k + 2, 4 * k + 3):
            m = n - 2 * k - 1
            for coframe, block in ((quadratic_coframe(n, k), tuple(range(n - m, n))),
                                   (jetlike_coframe(n, k, rng), tuple(range(m)))):
                seen.clear()
                assert forms._constant_minor(forms._grid(coframe, "test")) == (block, 1)
                assert seen == [(block, (block, 1))], (n, k)


def test_check_mni_shape_errors():
    five = Chart(("x", "y", "z", "w", "t"))
    dz = DiffForm.basis(five, "z")
    try:
        check_mni([dz], 1)  # size 1 != 5 - 3
        assert False
    except InputError as err:
        assert "n - 2k - 1" in str(err)
    seven = Chart(tuple("x%d" % i for i in range(1, 8)))
    coframe = [DiffForm.basis(seven, i) for i in (4, 5, 6, 7)]
    try:
        check_mni(coframe, 1)  # n = 7 exceeds 4k + 2 = 6
        assert False
    except InputError as err:
        assert "4 <= n <= 6" in str(err)
    try:
        check_mni([dz, DiffForm.basis(five, "w")], 0)
        assert False
    except InputError:
        pass


def test_check_almost_mni_examples():
    bundle = even_contact_structure(4)
    derivatives = [exterior_derivative(a) for a in bundle.coframe]
    assert check_almost_mni(bundle.coframe, derivatives, 1).value is True

    zeros = [DiffForm.zero(bundle.distribution.chart, 2) for _ in bundle.coframe]
    assert check_almost_mni(bundle.coframe, zeros, 1).value is False

    five = Chart(tuple("x%d" % i for i in range(1, 6)))
    coframe = [DiffForm.basis(five, 4), DiffForm.basis(five, 5)]
    omegas = [
        wedge(DiffForm.basis(five, 2), DiffForm.basis(five, 3)),
        wedge(DiffForm.basis(five, 3), DiffForm.basis(five, 1)),
    ]
    verdict = check_almost_mni(coframe, omegas, 1)
    assert verdict.value is True and verdict.certificate


def test_check_almost_mni_count_mismatch():
    bundle = even_contact_structure(4)
    try:
        check_almost_mni(bundle.coframe, [], 1)
        assert False
    except InputError:
        pass


def test_frame_coframe_span_agreement(rng):
    for bundle in builtin_corpus():
        dist = bundle.distribution
        if dist.frame is None or dist.coframe is None:
            continue
        for _ in range(50):
            pt = rnd_point(rng, dist.chart)
            kernel = pointwise_kernel(dist.coframe, pt)
            rows = [list(evaluate_field(f, pt)) for f in dist.frame]
            rows += [list(v) for v in kernel]
            assert rank(rows) == dist.rank


def test_mni_implies_dlo_and_almost_mni():
    for bundle in builtin_corpus():
        if bundle.k is None or bundle.coframe is None:
            continue
        dist = bundle.distribution
        m = dist.chart.n - 2 * bundle.k - 1
        if len(bundle.coframe) != m:
            continue
        pts = sample_slice(dist.chart, seed=5, grid=20, randoms=10)
        mni = check_mni(bundle.coframe, bundle.k, pts)
        if mni.value is True:
            assert has_derived_length_one(dist, pts).value is True
            derivatives = [exterior_derivative(a) for a in bundle.coframe]
            assert check_almost_mni(bundle.coframe, derivatives, bundle.k, pts).value is True


def test_rank3_equivalence_over_corpus():
    seen = 0
    for bundle in builtin_corpus():
        dist = bundle.distribution
        if dist.rank != 3 or bundle.coframe is None or bundle.k is None:
            continue
        m = dist.chart.n - 2 * bundle.k - 1
        if len(bundle.coframe) != m:
            continue
        seen += 1
        pts = sample_slice(dist.chart, seed=11, grid=20, randoms=10)
        mni = check_mni(bundle.coframe, bundle.k, pts)
        dlo = has_derived_length_one(dist, pts)
        assert mni.value == dlo.value
    assert seen >= 2


def test_dimension_bounds_arithmetic():
    assert dimension_bounds(1) == (4, 6)
    assert dimension_bounds(2) == (6, 10)
    assert dimension_bounds(1, 5, count=2) == (4, 6)
    for k, n, count, fragment in (
        (0, None, None, "k must be"),
        (Fraction(1), None, None, "k must be"),
        (1, 7, None, "ambient dimension"),  # rank 3 never fits in 7-space
        (1, 7, 4, "ambient dimension"),
        (1, 5, 1, "coframe size 1 does not match n - 2k - 1 = 2"),
        (2, 3, 1, "coframe size 1"),  # the size is checked before the range
    ):
        try:
            dimension_bounds(k, n, count)
            assert False
        except InputError as err:
            assert fragment in str(err)


def test_distribution_validation():
    chart = _chart3()
    y = Polynomial.coordinate(chart, "y")
    alpha = DiffForm.basis(chart, "z") - y * DiffForm.basis(chart, "x")
    frame = [VectorField.basis(chart, "x") + y * VectorField.basis(chart, "z"),
             VectorField.basis(chart, "y")]
    both = Distribution(chart, frame=frame, coframe=[alpha])
    assert both.rank == 2

    try:
        Distribution(chart, frame=frame, coframe=[alpha, DiffForm.basis(chart, "x")])
        assert False
    except InputError:
        pass
    try:
        Distribution(
            chart,
            frame=[VectorField.basis(chart, "z"), VectorField.basis(chart, "y")],
            coframe=[alpha],
        )
        assert False
    except InputError as err:
        assert "annihilate" in str(err)
    try:
        Distribution(chart)
        assert False
    except InputError:
        pass


def test_verdict_truthiness():
    chart, alpha = _contact3()
    verdict = check_dbasis_condition([alpha])
    assert verdict
    assert bool(check_dbasis_condition([DiffForm.basis(chart, "z")])) is False
