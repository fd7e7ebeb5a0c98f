"""Fiber coefficient machinery: A, B, C coefficients and the rank probe."""

import ast
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nonholonomy import cli, linalg, singularity
from nonholonomy.algebra import Chart, Polynomial
from nonholonomy.distributions import dimension_bounds
from nonholonomy.errors import ConsistencyError, InputError
from nonholonomy.forms import wedge_power
from nonholonomy.linalg import pfaffian, rank, solve
from nonholonomy.singularity import (
    CExtraction,
    FiberPoint,
    PrincipalSystem,
    assemble_principal_matrix,
    extract_c_coefficients,
    thinness_probe,
)

from conftest import rnd_fraction
from oracles import (
    _perm_sign,
    a_coefficients,
    alpha_form,
    b_coefficients,
    closed_form_multipliers,
    column_scan_kernel_basis,
    dependence_form,
    direct_extraction,
    fiber_by_fractions,
    fiber_chart,
    normalize_primitive,
    omega_form,
    pseudo_symmetry_check,
)


def _b_by_permutation_sum(fp, i):
    """Independent evaluation of the dependence coefficients: sum over
    ordered picks (p_1..p_m) from the complement of r, the remaining 2k
    indices increasing, signed by the arrangement's parity against the
    sorted complement."""
    n, m = fp.n, fp.m
    a_coeffs = a_coefficients(fp, i)
    out = []
    for r in range(1, n + 1):
        complement = tuple(j for j in range(1, n + 1) if j != r)
        total = Fraction(0)
        for picks in permutations(complement, m):
            tail = tuple(sorted(set(complement) - set(picks)))
            coeff = a_coeffs.get(tail)
            if coeff is None:
                continue
            value = _perm_sign(picks + tail) * coeff
            for slot, p in enumerate(picks, start=1):
                value *= fp.a_entry(slot, p)
            total += value
        out.append(total)
    return out


def _symbolic_fiber(n, k):
    """One symbolic 2-form: every z entry of form 1 is a fresh coordinate."""
    pairs = list(combinations(range(1, n + 1), 2))
    chart = Chart(tuple("z%d%d" % (j, l) for j, l in pairs))
    z = {
        (1, j, l): Polynomial.coordinate(chart, "z%d%d" % (j, l))
        for j, l in pairs
    }
    return FiberPoint(n, k, z=z), chart


def _admissible_fiber(n, k, rng):
    """A random fiber of an m=1 slice adjusted so the constant first
    equation vanishes: z_23 of form 1 is solved for, exactly."""
    assert n - 2 * k - 1 == 1
    base = fiber_chart(n)
    helper = Chart(base.names + ("s",))
    while True:
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        z = {key: Polynomial.constant(helper, value) for key, value in fp.z.items()}
        z[(1, 2, 3)] = Polynomial.coordinate(helper, "s")
        a = {key: Polynomial.constant(helper, value) for key, value in fp.a.items()}
        probe = FiberPoint(n, k, a, z)
        poly = dependence_form(probe, 1, chart=helper).coefficient(
            tuple(range(2, n + 1))
        )
        # B_1 = const + slope * s; a nonzero slope lets us land on B_1 = 0
        slope = Fraction(0)
        const = Fraction(0)
        for exps, coeff in poly.terms.items():
            if exps[-1] == 0:
                const += coeff
            elif exps[-1] == 1:
                slope += coeff
        if slope == 0:
            continue
        solved = dict(fp.z)
        solved[(1, 2, 3)] = -const / slope
        return FiberPoint(n, k, dict(fp.a), solved)


def test_validate_dimensions():
    dimension_bounds(1, 4)
    dimension_bounds(1, 6)
    dimension_bounds(2, 10)
    for n, k in ((3, 1), (7, 1), (5, 2), (11, 2)):
        try:
            dimension_bounds(k, n)
            assert False
        except InputError as err:
            assert "ambient dimension" in str(err)
    try:
        dimension_bounds(0, 4)
        assert False
    except InputError:
        pass


def test_fiber_point_entries():
    fp = FiberPoint(5, 1, a={(1, 4): 1, (2, 5): Fraction(1, 2)}, z={(1, 1, 2): 3})
    assert fp.m == 2
    assert fp.a_entry(1, 4) == 1
    assert fp.a_entry(1, 1) == 0
    assert fp.z_entry(1, 1, 2) == 3
    assert fp.z_entry(1, 2, 1) == -3
    assert fp.z_entry(1, 3, 3) == 0
    for bad_a, bad_z in (({(3, 1): 1}, None), (None, {(1, 2, 2): 1}), (None, {(1, 3, 2): 1})):
        try:
            FiberPoint(5, 1, a=bad_a, z=bad_z)
            assert False
        except InputError:
            pass
    try:
        FiberPoint(4, 1, a={(1, 1): "x"})
        assert False
    except InputError:
        pass


def test_fiber_point_keeps_fractions_and_converts_only_ints():
    # a Fraction entry is stored as given, not rebuilt; ints become
    # Fractions, polynomials pass, and floats and strings raise
    half = Fraction(1, 2)
    chart = Chart(("t",))
    t = Polynomial.coordinate(chart, "t")
    fp = FiberPoint(5, 1, a={(1, 4): half, (1, 5): 3, (2, 1): t}, z={(1, 1, 2): half})
    assert fp.a[(1, 4)] is half and fp.z[(1, 1, 2)] is half
    assert type(fp.a[(1, 5)]) is Fraction and fp.a[(1, 5)] == 3
    assert fp.a[(2, 1)] is t
    for bad in (0.5, "x", None):
        try:
            FiberPoint(5, 1, a={(1, 1): bad})
            assert False
        except InputError:
            pass


def test_fiber_point_random_is_seeded():
    one = FiberPoint.random(5, 1, random.Random(9))
    two = FiberPoint.random(5, 1, random.Random(9))
    assert one.a == two.a and one.z == two.z
    bare = FiberPoint.random(5, 1, random.Random(9), include_principal=False)
    assert all(j != 1 for (_, j, _) in bare.z)


def test_fiber_point_random_matches_the_fraction_draw():
    # the table draw, filled straight into a and z, gives every fiber the
    # same entries in the same order as a new Fraction per entry validated
    # by the constructor, and leaves the rng in the same state
    for k in range(1, 6):
        for n in range(2 * k + 2, 4 * k + 3):
            for include_principal in (True, False):
                fast, slow = random.Random(100 * n + k), random.Random(100 * n + k)
                fp = FiberPoint.random(n, k, fast, include_principal)
                reference = fiber_by_fractions(n, k, slow, include_principal)
                assert list(fp.a.items()) == list(reference.a.items())
                assert list(fp.z.items()) == list(reference.z.items())
                assert fast.getstate() == slow.getstate()
    with pytest.raises(InputError):
        FiberPoint.random(5, 2, random.Random(0))


def test_alpha_and_omega_forms():
    fp = FiberPoint(4, 1, a={(1, 4): 1}, z={(1, 1, 2): 1, (1, 3, 4): -2})
    assert str(alpha_form(fp, 1)) == "dx4"
    assert str(omega_form(fp, 1)) == "dx1^dx2 - 2*dx3^dx4"


def test_a_coefficients_k1_is_z():
    rng = random.Random(4)
    fp = FiberPoint.random(6, 1, rng=rng)
    for i in (1, 2, 3):
        coeffs = a_coefficients(fp, i)
        for j, l in combinations(range(1, 7), 2):
            assert coeffs.get((j, l), Fraction(0)) == fp.z_entry(i, j, l)


def test_a_coefficients_k2_frozen_formula():
    # the coefficient on the first four coordinates doubles the 2x2 pairings
    fp, chart = _symbolic_fiber(6, 2)
    coeffs = a_coefficients(fp, 1)
    z = {pair: Polynomial.coordinate(chart, "z%d%d" % pair)
         for pair in combinations(range(1, 7), 2)}
    expected = 2 * (z[(1, 2)] * z[(3, 4)] - z[(1, 3)] * z[(2, 4)] + z[(1, 4)] * z[(2, 3)])
    assert coeffs[(1, 2, 3, 4)] == expected


def test_a_coefficients_zero_fiber():
    fp = FiberPoint(4, 1)
    assert a_coefficients(fp, 1) == {}
    try:
        a_coefficients(fp, 2)
        assert False
    except InputError:
        pass


def test_a_coefficients_match_wedge_power_symbolically():
    for n, k in ((4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (6, 2), (7, 2), (8, 2)):
        fp, chart = _symbolic_fiber(n, k)
        power = wedge_power(omega_form(fp, 1, chart=chart), k)
        assert a_coefficients(fp, 1) == dict(power.terms)


def test_b_coefficients_examples():
    fp = FiberPoint(4, 1, a={(1, 4): 1}, z={(1, 1, 2): 1})
    assert b_coefficients(fp, 1) == [0, 0, 1, 0]

    zero_a = FiberPoint(4, 1, z={(1, 1, 2): 1, (1, 3, 4): 5})
    assert b_coefficients(zero_a, 1) == [0, 0, 0, 0]

    fp5 = FiberPoint(5, 1, a={(1, 4): 1, (2, 5): 1}, z={(1, 1, 2): 1})
    assert b_coefficients(fp5, 1) == [0, 0, 1, 0, 0]


def test_b_coefficients_match_permutation_sum():
    rng = random.Random(21)
    for n, k in ((4, 1), (5, 1), (6, 2)):
        for _ in range(100):
            fp = FiberPoint.random(n, k, rng=rng)
            for i in range(1, fp.m + 1):
                assert b_coefficients(fp, i) == _b_by_permutation_sum(fp, i)


def _probe_steps(fp):
    """The probe's steps the slow way on one fiber: M of forms 1 and 2,
    their b_first as Pfaffians, c in closed form, then C-bar and C of c's
    support alone, taken from extract_c_coefficients; returns b_first, c
    and the extraction (None when c is)."""
    m = fp.m
    matrices, L, scale = singularity._form_matrices(fp, range(1, min(m, 2) + 1))
    b_first = {i: scale * pfaffian([row[1:] for row in M[1:]]) / L ** (len(M) // 2)
               for i, M in matrices.items()}
    c = closed_form_multipliers(b_first, m)
    if c is None:
        return b_first, None, None
    full = extract_c_coefficients(fp)
    assert all(full.b_first[i] == b_first[i] for i in matrices)
    support = {i for i in matrices if c[i - 1]}
    cbar = {key: v for key, v in full.cbar.items() if key[0] in support}
    cmat = {key: v for key, v in full.cmat.items() if key[0] in support}
    return b_first, c, CExtraction(b_first, cbar, cmat)


def test_closed_form_multipliers_are_the_first_kernel_vector():
    # the row (b^1, ..., b^m) has its pivot in its first nonzero column, so
    # its first kernel vector depends on b^1 and b^2 alone
    rng = random.Random(19)
    for m in range(1, 7):
        for zeros in ((), (0,), (1,), tuple(range(2, m)), tuple(range(m))):
            for _ in range(4):
                row = [rnd_fraction(rng) or Fraction(1) for _ in range(m)]
                for index in zeros:
                    if index < m:
                        row[index] = Fraction(0)
                c = closed_form_multipliers(dict(enumerate(row, start=1)), m)
                basis = column_scan_kernel_basis([row], m)
                assert (c is None) == (m == 1 and row[0] != 0) == (not basis)
                if basis:
                    assert c == normalize_primitive(basis[0])


def _oracle_histogram(n, k, samples, seed):
    """The probe's histogram the slow way: _probe_steps, then the assembled
    Fraction system and its rank, on the probe's own draws."""
    rng = random.Random(seed)
    histogram = {}
    for _ in range(samples):
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        _, c, extraction = _probe_steps(fp)
        if c is not None:
            r = rank(assemble_principal_matrix(fp, c, extraction).matrix)
            histogram[r] = histogram.get(r, 0) + 1
    return histogram


def test_probe_steps_replay_the_probe():
    # the probe ranks the integer blocks [Y1^T | Y2^T] of a two-form
    # support; the assembled Fraction system gives the same histogram at
    # every admissible shape with k <= 3, and at (18,4) and (22,5)
    shapes = [(n, k) for k in (1, 2, 3) for n in range(2 * k + 2, 4 * k + 3)]
    for n, k in shapes + [(18, 4), (22, 5)]:
        samples = 4 if k <= 3 else 2
        for seed in (4, 5, 6):
            expected = _oracle_histogram(n, k, samples, seed)
            assert thinness_probe(n, k, samples, seed).rank_histogram == expected, (n, k, seed)


def test_two_form_probe_assembles_no_system(monkeypatch):
    # a two-form support is ranked from the solve's integer blocks alone:
    # no Fraction system is assembled and no C-bar column is solved
    fp = FiberPoint.random(10, 2, rng=random.Random(3), include_principal=False)
    b_first, c, _ = _probe_steps(fp)
    assert b_first[1] and b_first[2] and c[0] and c[1]
    widths = []

    def forbidden(*args):
        raise AssertionError("assemble_principal_matrix called")

    def recording(rows, columns):
        widths.append(len(columns))
        return solve(rows, columns)

    monkeypatch.setattr(singularity, "assemble_principal_matrix", forbidden)
    monkeypatch.setattr(singularity, "solve", recording)
    report = thinness_probe(10, 2, 1, seed=3)
    assert report.rank_histogram == {4: 1}
    assert widths == [9, 9]


def test_probe_one_form_supports_take_the_assembled_system(monkeypatch):
    # fibers with b_first^1 = 0 or b_first^2 = 0 (c = e_1 or e_2), at m = 1
    # and m >= 2, the corank-four fibers and fibers whose 1-forms agree off
    # coordinate 1, fed to the probe itself: it assembles no system, and
    # reads the rank and the emptiness that the assembled system of the
    # direct minors gives
    rng = random.Random(70)
    fibers = [_singular_fiber(n, k, rng, i) for n, k, i in ((4, 1, 1), (6, 2, 1), (8, 2, 1), (8, 2, 2))]
    fibers += [_corank_four_fiber(10, 2, rng, False), _corank_four_fiber(12, 3, rng, True)]
    fibers += [_agreeing_fiber(n, k, rng) for n, k in ((5, 1), (8, 2))]

    def forbidden(*args):
        raise AssertionError("assemble_principal_matrix called")

    monkeypatch.setattr(singularity, "assemble_principal_matrix", forbidden)
    seen = set()
    for fp in fibers:
        b_first, c, _ = _probe_steps(fp)
        assert not all(b_first.values()) and sum(1 for x in c if x) == 1
        system = assemble_principal_matrix(fp, c, direct_extraction(fp))
        expected = rank(system.matrix)
        empty = expected == 0 and any(system.rhs)
        monkeypatch.setattr(FiberPoint, "random", staticmethod(lambda *args, fp=fp, **kw: fp))
        report = thinness_probe(fp.n, fp.k, 2, seed=0)
        assert report.rank_histogram == {expected: 2}, fp
        assert (report.verdict == "AMPLE-BY-EMPTINESS") == empty and report.empty_fiber_count == 0
        seen.add((fp.m == 1, expected, empty))
    assert seen >= {(True, 2, False), (False, 2, False), (False, 0, False), (False, 0, True)}, seen


def test_two_form_rank_other_than_2k_is_a_consistency_error(monkeypatch, capsys):
    # the docstring proves rank 2k for a two-form support; any other rank
    # is an internal failure, and the CLI reports it as one (exit 3)
    monkeypatch.setattr(singularity, "rank", lambda rows: 2)
    with pytest.raises(ConsistencyError, match="not 2k = 4"):
        thinness_probe(10, 2, 1, seed=3)
    code = cli.main(["thinness", "--n", "10", "--k", "2", "--samples", "1", "--seed", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["error"]["kind"] == "internal"
    assert "not 2k = 4" in payload["error"]["message"]


def test_probe_takes_pfaffians_only_where_read(monkeypatch):
    # the probe reads every rank off one solve per M'_i it reads and takes
    # no Pfaffian, counted through linalg: at (10,2), m = 5, a two-form
    # sample solves M'_1 and M'_2; at (6,2), m = 1, one solve of M'_1
    # against no column finds it nonsingular; a singular M'_1 at (8,2) is
    # solved once, M'_2 never, and form 1's rank takes one Echelon beside
    # the solve's, the rank of the principal block of u ^ w
    pfaffians, solved, widths = [], [], []

    class Counted(linalg.Echelon):
        __slots__ = ()

        def __init__(self, n_cols):
            widths.append(n_cols)
            super().__init__(n_cols)

    def counting(rows):
        pfaffians.append(rows)
        return pfaffian(rows)

    def recording(rows, columns):
        solved.append((rows, len(columns)))
        return solve(rows, columns)

    def forbidden(*args):
        raise AssertionError("the probe assembles or extracts")

    monkeypatch.setattr(linalg, "pfaffian", counting)
    monkeypatch.setattr(singularity, "solve", recording)
    for name in ("pfaffian_minors", "extract_c_coefficients", "assemble_principal_matrix"):
        monkeypatch.setattr(singularity, name, forbidden)
    assert thinness_probe(10, 2, 1, seed=3).rank_histogram == {4: 1}
    assert (len(pfaffians), len(solved)) == (0, 2)
    del pfaffians[:], solved[:]
    assert thinness_probe(6, 2, 1, seed=3).empty_fiber_count == 1
    assert (len(pfaffians), [columns for _, columns in solved]) == (0, [0])
    del pfaffians[:], solved[:]
    fp = _singular_fiber(8, 2, random.Random(70))
    monkeypatch.setattr(FiberPoint, "random", staticmethod(lambda *args, **kw: fp))
    monkeypatch.setattr(linalg, "Echelon", Counted)
    assert thinness_probe(8, 2, 1, seed=0).rank_histogram == {2: 1}
    (M1,) = singularity._form_matrices(fp, (1,))[0].values()
    assert solved == [([row[1:] for row in M1[1:]], 7)]
    assert pfaffians == [] and widths == [17, 7]


def test_extraction_takes_one_elimination_and_one_pfaffian_per_form(monkeypatch):
    # where b_first != 0, linalg.pfaffian_minors eliminates L M' beside the
    # identity once and takes its one Pfaffian for the sign of Pf(M')
    eliminations, pfaffians = [], []

    class Counted(linalg.Echelon):
        __slots__ = ()

        def __init__(self, n_cols):
            eliminations.append(n_cols)
            super().__init__(n_cols)

    def counting(rows):
        pfaffians.append(1)
        return pfaffian(rows)

    monkeypatch.setattr(linalg, "Echelon", Counted)
    monkeypatch.setattr(linalg, "pfaffian", counting)
    rng = random.Random(62)
    for n, k in ((6, 1), (10, 2), (14, 4)):
        fp = FiberPoint.random(n, k, rng=rng)
        del eliminations[:], pfaffians[:]
        extraction = extract_c_coefficients(fp)
        assert all(extraction.b_first.values())
        size = 2 * (n - k - 1)  # M' of each form
        assert eliminations == [2 * size] * fp.m and len(pfaffians) == fp.m


def _assert_reconstructs_b(fp, extraction, rng, forms=None):
    # B^i_1 is the constant b_first and B^i_r the affine model, both at the
    # fiber's own principal entries and at freshly drawn ones
    n, k = fp.n, fp.k
    forms = range(1, fp.m + 1) if forms is None else forms
    resampled = dict(fp.z)
    for i in range(1, fp.m + 1):
        for mu in range(2, n + 1):
            resampled[(i, 1, mu)] = rnd_fraction(rng)
    for probe in (fp, FiberPoint(n, k, a=fp.a, z=resampled)):
        for i in forms:
            direct = b_coefficients(probe, i)
            assert direct[0] == extraction.b_first[i]
            for r in range(2, n + 1):
                model = extraction.cbar[(i, r)] + sum(
                    extraction.cmat[(i, r, mu)] * probe.z_entry(i, 1, mu)
                    for mu in range(2, n + 1)
                )
                assert direct[r - 1] == model


def test_extraction_reconstructs_b():
    # cbar + cmat . principal-z reproduces the direct expansion exactly; the
    # k = 3 shapes tell the factor k in the linear part apart from k!
    rng = random.Random(8)
    shapes = ((4, 1, 20), (5, 1, 20), (6, 2, 20), (6, 1, 20), (7, 2, 20), (8, 3, 10), (9, 3, 5))
    for n, k, count in shapes:
        for _ in range(count):
            fp = FiberPoint.random(n, k, rng=rng)
            _assert_reconstructs_b(fp, extract_c_coefficients(fp), rng)


def test_extraction_with_singular_reduced_matrix():
    # b_first = 0 means the matrix without coordinate 1 has Pfaffian 0; the
    # slopes C^i still come out exactly. At n = 4 the only alpha is dx4 and
    # z23 = 0; at n = 6 the only alpha is dx6 and only z23 is off-principal.
    rng = random.Random(84)
    fibers = (
        FiberPoint(4, 1, a={(1, 4): 1}, z={(1, 2, 4): 1, (1, 1, 2): 3, (1, 1, 3): -1}),
        FiberPoint(6, 2, a={(1, 6): 1}, z={(1, 2, 3): 2, (1, 1, 4): 5, (1, 1, 6): -2}),
    )
    for fp in fibers:
        extraction = extract_c_coefficients(fp)
        assert extraction.b_first[1] == 0
        assert any(extraction.cmat.values())
        _assert_reconstructs_b(fp, extraction, rng)


ORACLE_SHAPES = ((4, 1), (5, 1), (6, 1), (7, 2), (8, 2), (9, 3), (10, 2), (11, 3), (14, 4))


def test_extraction_matches_direct_minors():
    # one linalg.pfaffian_minors per form gives exactly the Pfaffian minors
    # taken one by one: on random fibers, where b_first != 0 with both
    # signs, on fibers with b_first^1 = 0 or b_first^2 = 0 (corank 2) and on
    # corank-four fibers; the matrices of some forms, as the probe builds
    # them, are those of the whole extraction
    rng = random.Random(61)
    signs = {True: 0, False: 0}
    fibers = []
    for n, k in ORACLE_SHAPES:
        for include_principal in (False, True, False):
            fp = FiberPoint.random(n, k, rng=rng, include_principal=include_principal)
            fibers.append(fp)
            values = direct_extraction(fp).b_first.values()
            assert all(values)
            for value in values:
                signs[value > 0] += 1
    assert min(signs.values()) >= 5, signs
    singular = [_singular_fiber(n, k, rng, i) for n, k in ((7, 2), (8, 2)) for i in (1, 2)]
    singular += [_corank_four_fiber(10, 2, rng, False), _corank_four_fiber(12, 3, rng, True)]
    assert all(not all(direct_extraction(fp).b_first.values()) for fp in singular)
    for fp in fibers + singular:
        reference = direct_extraction(fp)
        assert extract_c_coefficients(fp) == reference
        matrices, L, scale = singularity._form_matrices(fp, range(1, fp.m + 1))
        for forms in ((), (1,), (fp.m,), tuple(range(1, min(fp.m, 2) + 1))):
            assert singularity._form_matrices(fp, forms) == ({i: matrices[i] for i in forms}, L, scale)


def _singular_fiber(n, k, rng, i=1):
    """A random probe fiber with b_first^i = 0: Pf(M') is affine in the one
    entry z^i_{23}, which is solved for exactly."""
    while True:
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        values = []
        for t in (0, 1):
            z = dict(fp.z)
            z[(i, 2, 3)] = Fraction(t)
            values.append(direct_extraction(FiberPoint(n, k, fp.a, z)).b_first[i])
        slope = values[1] - values[0]
        if slope:
            z = dict(fp.z)
            z[(i, 2, 3)] = -values[0] / slope
            return FiberPoint(n, k, fp.a, z)


def test_singular_first_coefficient_in_the_probe_path():
    # random fibers never reach b_first = 0, where the extraction takes the
    # direct minors instead of the solve; force it on form 1 and run the
    # probe's steps: b_first, then c = e_1, then the support-first
    # extraction and the system
    rng = random.Random(67)
    for n, k in ((7, 2), (8, 2)):
        m = n - 2 * k - 1
        for _ in range(3):
            fp = _singular_fiber(n, k, rng)
            b_first, c, extraction = _probe_steps(fp)
            assert b_first[1] == 0 and b_first[2] != 0
            assert c == (1,) + (0,) * (m - 1)
            system = assemble_principal_matrix(fp, c, extraction)
            assert system == assemble_principal_matrix(fp, c, direct_extraction(fp))
            assert rank(system.matrix) % 2 == 0 and any(system.matrix)
            _assert_reconstructs_b(fp, extraction, rng, forms=[1])


def test_singular_second_coefficient_in_the_probe_path():
    # b_first^2 = 0 with b_first^1 != 0 makes c = e_2: the support is form 2
    # alone, whose b_first is 0, so form 2 takes the direct minors
    rng = random.Random(68)
    for n, k in ((7, 2), (8, 2)):
        m = n - 2 * k - 1
        for _ in range(3):
            fp = _singular_fiber(n, k, rng, i=2)
            b_first, c, extraction = _probe_steps(fp)
            assert b_first[1] != 0 and b_first[2] == 0
            assert c == (0, 1) + (0,) * (m - 2)
            assert {key[0] for key in (*extraction.cbar, *extraction.cmat)} == {2}
            system = assemble_principal_matrix(fp, c, extraction)
            assert system == assemble_principal_matrix(fp, c, direct_extraction(fp))
            assert rank(system.matrix) % 2 == 0 and any(system.matrix)
            _assert_reconstructs_b(fp, extraction, rng, forms=[2])


def _corank_four_fiber(n, k, rng, twist):
    """A random probe fiber whose form-1 2-form, restricted to ker A' (A'
    the 1-forms without coordinate 1, of dimension 2k), is 0 or, with
    twist, gamma ^ delta of rank 2: z^1 on coordinates 2..n is
    sum_t alpha'_t ^ beta_t, plus gamma ^ delta. M'_1 then has corank
    2k - 0 or 2k - 2."""
    fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
    coords = range(2, n + 1)
    pairs = [([fp.a_entry(t, j) for j in coords], [rnd_fraction(rng) for _ in coords])
             for t in range(1, fp.m + 1)]
    if twist:
        pairs.append(([rnd_fraction(rng) for _ in coords], [rnd_fraction(rng) for _ in coords]))
    z = {key: v for key, v in fp.z.items() if key[0] != 1}
    for j, l in combinations(coords, 2):
        z[(1, j, l)] = sum((u[j - 2] * v[l - 2] - u[l - 2] * v[j - 2] for u, v in pairs), Fraction(0))
    return FiberPoint(n, k, fp.a, z)


def _agreeing_fiber(n, k, rng):
    """A random probe fiber, m >= 2, whose 1-forms 1 and 2 agree off
    coordinate 1, with a^2_1 = a^1_1 + 1. Every M'_i then has the kernel
    vector y = e_1 - e_2 on the 1-form coordinates, which is 0 on the
    principal ones, so c = e_1 and the principal block of P is 0, while
    y . M[2.., 1] = L (a^2_1 - a^1_1) = L makes the right-hand side nonzero."""
    fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
    a = {key: v for key, v in fp.a.items() if key[0] != 2}
    a.update({(2, j): fp.a_entry(1, j) for j in range(2, n + 1)})
    a[(2, 1)] = fp.a_entry(1, 1) + 1
    return FiberPoint(n, k, a, fp.z)


def test_fibers_agreeing_off_coordinate_one_miss_the_singular_set(monkeypatch):
    # the rank-0 read of the right-hand side: each such fiber's system is
    # 0 = rhs with rhs != 0, so the probe records rank 0 and counts the
    # fiber as empty-like
    rng = random.Random(72)
    fibers = [_agreeing_fiber(n, k, rng) for n, k in ((5, 1), (6, 1), (7, 2), (8, 2), (10, 2)) for _ in range(6)]
    for fp in fibers:
        monkeypatch.setattr(FiberPoint, "random", staticmethod(lambda *args, fp=fp, **kw: fp))
        report = thinness_probe(fp.n, fp.k, 1, seed=0)
        assert (report.rank_histogram, report.empty_fiber_count, report.verdict) == (
            {0: 1}, 0, "AMPLE-BY-EMPTINESS"), fp


def test_corank_four_fiber_in_the_probe_path():
    # ROADMAP item 4's degenerate fibers: M'_1 of corank 4 has b_first^1 = 0
    # and every pair minor Pf(M'_1 without r, mu) = 0, so c = e_1 and the
    # system is exactly zero
    rng = random.Random(69)
    for n, k, twist in ((10, 2, False), (12, 3, True)):
        m = n - 2 * k - 1
        for _ in range(2):
            fp = _corank_four_fiber(n, k, rng, twist)
            matrices, _, _ = singularity._form_matrices(fp, (1,))
            reduced = [row[1:] for row in matrices[1][1:]]
            assert rank(reduced) == len(reduced) - 4
            b_first, c, extraction = _probe_steps(fp)
            assert b_first[1] == 0
            assert c == (1,) + (0,) * (m - 1)
            system = assemble_principal_matrix(fp, c, extraction)
            assert system == assemble_principal_matrix(fp, c, direct_extraction(fp))
            assert rank(system.matrix) == 0


def test_assemble_reads_only_the_support():
    # a form with c_i = 0 contributes exact zero columns, and its C entries
    # are never looked up
    rng = random.Random(71)
    fp = FiberPoint.random(8, 2, rng=rng, include_principal=False)
    _, c, part = _probe_steps(fp)
    assert c[2] == 0
    assert {key[0] for key in (*part.cbar, *part.cmat)} == {1, 2}
    system = assemble_principal_matrix(fp, c, part)
    assert system == assemble_principal_matrix(fp, c, extract_c_coefficients(fp))
    assert all(x == 0 and isinstance(x, Fraction) for row in system.matrix for x in row[14:])


def test_singularity_does_not_import_forms():
    # the extraction works on numbers only; an import of the exterior
    # algebra would bring back the exponential wedge expansion
    with open(singularity.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add("." * node.level + node.module)
        elif isinstance(node, ast.ImportFrom):
            imported.update("." * node.level + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not imported & {".forms", "nonholonomy.forms"}


def test_extraction_frozen_n4_closed_form():
    # n=4, k=1: C_r(mu) = a_q * (+1 if q > mu else -1), q the leftover index,
    # and B_1 = a2 z34 - a3 z24 + a4 z23
    rng = random.Random(13)
    for _ in range(50):
        fp = FiberPoint.random(4, 1, rng=rng)
        extraction = extract_c_coefficients(fp)
        a = {j: fp.a_entry(1, j) for j in range(1, 5)}
        z = fp.z_entry
        assert extraction.b_first[1] == a[2] * z(1, 3, 4) - a[3] * z(1, 2, 4) + a[4] * z(1, 2, 3)
        for r in range(2, 5):
            for mu in range(2, 5):
                if mu == r:
                    assert extraction.cmat[(1, r, mu)] == 0
                    continue
                q = ({2, 3, 4} - {r, mu}).pop()
                expected = a[q] if q > mu else -a[q]
                assert extraction.cmat[(1, r, mu)] == expected


def test_extraction_structure_and_pseudo_symmetry():
    rng = random.Random(30)
    for n, k in ((4, 1), (5, 1), (6, 1), (6, 2)):
        for _ in range(30):
            fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
            extraction = extract_c_coefficients(fp)
            for i in range(1, fp.m + 1):
                for r in range(2, n + 1):
                    assert extraction.cmat[(i, r, r)] == 0
            ok, signs = pseudo_symmetry_check(extraction.cmat)
            assert ok
            assert set(signs.values()) <= {0, 1, -1}


def test_pseudo_symmetry_zero_and_violation():
    ok, signs = pseudo_symmetry_check({})
    assert ok and signs == {}
    bad = {(1, 2, 3): Fraction(1), (1, 3, 2): Fraction(2)}
    ok, signs = pseudo_symmetry_check(bad)
    assert not ok
    assert signs[(1, 2, 3)] is None


def test_assemble_rejects_bad_multipliers():
    fp = FiberPoint(4, 1, a={(1, 2): 1}, z={(1, 3, 4): 1})  # B_1 = 1
    extraction = extract_c_coefficients(fp)
    try:
        assemble_principal_matrix(fp, (0,), extraction)
        assert False
    except InputError as err:
        assert "vanish" in str(err)
    try:
        assemble_principal_matrix(fp, (1,), extraction)
        assert False
    except InputError as err:
        assert "principal subspace" in str(err)
    try:
        assemble_principal_matrix(fp, (1, 2), extraction)
        assert False
    except InputError:
        pass


def test_assemble_dimensions_and_zero_pattern():
    rng = random.Random(40)
    for n, k in ((5, 1), (6, 1), (6, 2)):
        m = n - 2 * k - 1
        for _ in range(10):
            fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
            extraction = extract_c_coefficients(fp)
            first = [extraction.b_first[i] for i in range(1, m + 1)]
            basis = column_scan_kernel_basis([first], m)
            if not basis:
                continue
            c = normalize_primitive(basis[0])
            system = assemble_principal_matrix(fp, c, extraction=extraction)
            assert len(system.matrix) == n - 1
            assert all(len(row) == (n - 1) * m for row in system.matrix)
            assert len(system.rhs) == n - 1
            for r in range(2, n + 1):
                for i in range(1, m + 1):
                    col = (i - 1) * (n - 1) + (r - 2)
                    assert system.matrix[r - 2][col] == 0


def test_assemble_n4_matrix_shape():
    # m = 1: the 3x3 block has a zero diagonal and mirror-magnitude entries
    fp = FiberPoint(
        4, 1,
        a={(1, 2): 1, (1, 3): 1, (1, 4): 1},
        z={(1, 2, 4): 1, (1, 3, 4): 1},
    )
    system = assemble_principal_matrix(fp, (1,), extract_c_coefficients(fp))
    assert system.matrix == ((0, 1, -1), (1, 0, -1), (1, -1, 0))
    assert system.rhs == (0, 0, 0)
    assert rank(system.matrix) == 2


def test_probe_multipliers_touch_at_most_two_forms():
    # c is the first kernel vector of the single equation sum_i c_i B^i_1 = 0:
    # 1 in its first free column, 0 in the other free ones, so at most two
    # entries are nonzero. Only the forms in c's support enter the principal
    # system, and its rank is the rank of their C columns alone.
    rng = random.Random(23)
    supports = {}
    for n, k in ((6, 1), (8, 2), (10, 2)):
        m = n - 2 * k - 1
        for _ in range(8):
            fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
            extraction = extract_c_coefficients(fp)
            c = closed_form_multipliers(extraction.b_first, m)
            support = tuple(i for i in range(1, m + 1) if c[i - 1])
            assert 1 <= len(support) <= 2
            supports[support] = supports.get(support, 0) + 1
            system = assemble_principal_matrix(fp, c, extraction)
            columns = [
                [extraction.cmat[(i, r, mu)] for i in support for mu in range(2, n + 1)]
                for r in range(2, n + 1)
            ]
            assert rank(system.matrix) == rank(columns)
    # on generic fibers the support is forms 1 and 2
    assert supports == {(1, 2): 24}


def test_skew_structure_and_probe_rank_2k():
    # ROADMAP item 2's identities. S^i = C^i diag((-1)^(mu+1)) over
    # r, mu = 2..n is skew; the sign-twisted alpha rows ((-1)^r a^t_r)
    # annihilate every S^i on the left; so when c has two nonzero entries
    # the probe's system has rank exactly 2k = n - 1 - m.
    rng = random.Random(31)
    shapes = [(n, k) for k in (1, 2, 3) for n in range(2 * k + 2, 4 * k + 3)]
    forms = two_form_systems = 0
    for n, k in shapes:
        m = n - 2 * k - 1
        principal = range(2, n + 1)
        for _ in range(6):
            fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
            extraction = extract_c_coefficients(fp)
            for i in range(1, m + 1):
                S = {(r, mu): extraction.cmat[(i, r, mu)] * (-1) ** (mu + 1)
                     for r in principal for mu in principal}
                assert all(S[r, mu] == -S[mu, r] for r in principal for mu in principal)
                for t in range(1, m + 1):
                    for mu in principal:
                        assert sum((-1) ** r * fp.a_entry(t, r) * S[r, mu] for r in principal) == 0
                forms += 1
            c = closed_form_multipliers(extraction.b_first, m)
            if c is not None and sum(1 for x in c if x) == 2:
                system = assemble_principal_matrix(fp, c, extraction)
                assert rank(system.matrix) == 2 * k, (n, k)
                two_form_systems += 1
    assert forms == 294
    assert two_form_systems == 72


def test_principal_rank_basics():
    zero_fiber = FiberPoint(4, 1)
    system = assemble_principal_matrix(zero_fiber, (1,), extract_c_coefficients(zero_fiber))
    assert rank(system.matrix) == 0
    assert system.rhs == (0, 0, 0)

    fake = PrincipalSystem(matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)), rhs=(0, 0, 0))
    assert rank(fake.matrix) == 3


def test_rank_never_one_on_admissible_fibers():
    rng = random.Random(77)
    for n, k, rounds in ((4, 1, 50), (6, 2, 20)):
        seen = set()
        for _ in range(rounds):
            fp = _admissible_fiber(n, k, rng)
            extraction = extract_c_coefficients(fp)
            assert extraction.b_first[1] == 0
            system = assemble_principal_matrix(fp, (1,), extraction=extraction)
            seen.add(rank(system.matrix))
        assert 1 not in seen
        assert seen - {0, 1}  # the probe actually met nontrivial systems


def test_thinness_probe_small_runs():
    report = thinness_probe(5, 1, 60, seed=2)
    assert report.verdict == "PASS"
    assert 1 not in report.rank_histogram
    assert report.empty_fiber_count + sum(report.rank_histogram.values()) == 60

    again = thinness_probe(5, 1, 60, seed=2)
    assert again == report

    # m = 1 random fibers almost never satisfy the constant equation, so
    # the probe reports the empty-intersection verdict
    empty = thinness_probe(4, 1, 40, seed=3)
    assert empty.verdict == "AMPLE-BY-EMPTINESS"
    assert empty.empty_fiber_count == 40
    assert empty.rank_histogram == {}


def test_thinness_probe_errors_and_schema():
    try:
        thinness_probe(7, 1, 5)
        assert False
    except InputError:
        pass
    # a run over no fibers would report PASS with nothing measured
    for count in (-1, 0):
        try:
            thinness_probe(5, 1, count)
            assert False
        except InputError as err:
            assert "at least 1" in str(err)
    report = thinness_probe(6, 1, 5, seed=1)
    payload = report.to_json_dict()
    assert sorted(payload) == [
        "empty_fiber_count", "k", "n", "rank_histogram", "samples", "seed", "verdict",
    ]
    assert payload["n"] == 6 and payload["k"] == 1 and payload["samples"] == 5
    assert all(isinstance(key, str) for key in payload["rank_histogram"])


def test_thinness_refuses_shapes_past_the_coordinate_limit(monkeypatch, capsys):
    # one sample grows about as n^6, so n above the limit is refused with
    # the size named, before any fiber is drawn; n at the limit is drawn
    class Drawn(Exception):
        pass

    def forbidden(*args, **kw):
        raise Drawn

    monkeypatch.setattr(FiberPoint, "random", forbidden)
    limit = singularity._MAX_PROBE_COORDINATES
    for n, k in ((limit + 1, (limit + 2) // 4), (4002, 1000)):
        dimension_bounds(k, n)  # admissible, so the limit alone refuses it
        with pytest.raises(InputError, match="on %d coordinates is refused" % n):
            thinness_probe(n, k, 1)
    assert cli.main(["thinness", "--n", "4002", "--k", "1000", "--samples", "1"]) == 2
    assert "4002" in json.loads(capsys.readouterr().out)["error"]["message"]
    with pytest.raises(Drawn):
        thinness_probe(limit, (limit - 2) // 4, 1)


def test_extraction_requires_numeric_layout():
    fp = FiberPoint(4, 1, a={(1, 1): 1})
    extraction = extract_c_coefficients(fp)
    assert isinstance(extraction, CExtraction)
    assert extraction.b_first[1] == 0
    # symbolic entries on their own chart, and non-constant entries on the
    # fiber chart, are rejected by both the extraction and the direct B
    symbolic, _ = _symbolic_fiber(4, 1)
    x1 = Polynomial.coordinate(fiber_chart(4), "x1")
    on_fiber_chart = FiberPoint(4, 1, a={(1, 4): 1}, z={(1, 2, 3): x1})
    for fp in (symbolic, on_fiber_chart):
        for call in (extract_c_coefficients, lambda fp: b_coefficients(fp, 1)):
            try:
                call(fp)
                assert False
            except InputError:
                pass
