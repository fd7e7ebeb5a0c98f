"""Acceptance gate: eight release criteria, one verdict line each.

Every check runs with exact rational arithmetic and fixed seeds; the
timed criteria assert their own runtime budgets.  Run

    pytest tests/test_acceptance.py -v -s

to see the printed CRITERION lines alongside the pytest verdicts.
"""

import contextlib
import io
import math
import os
import random
import time
from fractions import Fraction

import nonholonomy.cli as cli
from nonholonomy.algebra import Chart
from nonholonomy.constructions import (
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
    check_mni,
    derived_flag_at,
    has_derived_length_one,
)
from nonholonomy.forms import (
    DiffForm,
    exterior_derivative,
    lie_bracket,
    wedge,
    wedge_power,
)
from nonholonomy.singularity import FiberPoint, extract_c_coefficients, thinness_probe

from conftest import rnd_chart, rnd_field, rnd_form, rnd_fraction, sample_slice
from golden_cases import CASES, INTERNAL_ERROR_CASE, forced_internal_error
from oracles import (
    a_coefficients,
    b_coefficients,
    interior_product,
    omega_form,
    pseudo_symmetry_check,
)
from test_singularity import _b_by_permutation_sum, _symbolic_fiber

HERE = os.path.dirname(os.path.abspath(__file__))


def _verdict(number, message):
    print("CRITERION %d: PASS — %s" % (number, message))


def test_criterion_1_exterior_calculus_axioms():
    started = time.perf_counter()
    rng = random.Random(2026)

    for _ in range(300):
        chart = rnd_chart(rng, max_n=6)
        a = rnd_form(rng, chart, rng.randint(0, 3))
        assert exterior_derivative(exterior_derivative(a)).is_zero()

    for _ in range(300):
        chart = rnd_chart(rng, max_n=6)
        p = rng.randint(0, 3)
        q = rng.randint(0, 3)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, q)
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert ab == (ba if (p * q) % 2 == 0 else -ba)

    for _ in range(300):
        chart = rnd_chart(rng, max_n=6)
        p = rng.randint(0, 3)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, rng.randint(0, 3))
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        term = wedge(a, exterior_derivative(b))
        assert lhs == rhs + (term if p % 2 == 0 else -term)

    for _ in range(300):
        chart = rnd_chart(rng, max_n=6)
        p = rng.randint(1, 3)
        a = rnd_form(rng, chart, p)
        b = rnd_form(rng, chart, rng.randint(1, 3))
        x = rnd_field(rng, chart)
        lhs = interior_product(x, wedge(a, b))
        rhs = wedge(interior_product(x, a), b)
        term = wedge(a, interior_product(x, b))
        assert lhs == rhs + (term if p % 2 == 0 else -term)

    for _ in range(300):
        chart = rnd_chart(rng, max_n=6, min_n=2)
        x, y, z = (rnd_field(rng, chart) for _ in range(3))
        total = (
            lie_bracket(lie_bracket(x, y), z)
            + lie_bracket(lie_bracket(y, z), x)
            + lie_bracket(lie_bracket(z, x), y)
        )
        assert total.is_zero()

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _verdict(1, "exterior-calculus axioms, 300 seeded instances each (%.1fs)" % elapsed)


def test_criterion_2_example_flags_reproduce():
    for m in (1, 2, 3):
        bundle = contact_structure(m)
        flag = derived_flag_at(bundle.distribution, (0,) * (2 * m + 1))
        assert tuple(flag.ranks) == (2 * m, 2 * m + 1) == bundle.expected_flag
        assert flag.stabilized

    for k in (1, 2, 3, 4):
        bundle = jet_canonical(k)
        flag = derived_flag_at(bundle.distribution, (0,) * (2 * k + 1))
        assert tuple(flag.ranks) == (k + 1, 2 * k + 1) == bundle.expected_flag
        assert flag.stabilized

    bundle = single_constraint_r5()
    flag = derived_flag_at(bundle.distribution, (0,) * 5)
    assert tuple(flag.ranks) == (4, 5) == bundle.expected_flag
    assert flag.stabilized

    generic = tuple(Fraction(1, 2) for _ in range(5))
    assert tuple(derived_flag_at(jet_canonical(2).distribution, generic).ranks) == (3, 5)
    _verdict(2, "contact, jet, and single-constraint flags match exactly")


def test_criterion_3_mni_criteria():
    even4 = even_contact_structure(4)
    assert check_mni(even4.coframe, even4.k).value is True

    jet2 = jet_canonical(2)
    assert check_mni(jet2.coframe, 1).value is True

    flat = Chart(("x", "y", "z", "w", "t"))
    integrable = [DiffForm.basis(flat, "z"), DiffForm.basis(flat, "w")]
    verdict = check_mni(integrable, 1)
    assert verdict.value is False
    assert verdict.witnesses

    implications = 0
    for bundle in builtin_corpus():
        if bundle.k is None or bundle.coframe is None:
            continue
        dist = bundle.distribution
        if len(bundle.coframe) != dist.chart.n - 2 * bundle.k - 1:
            continue
        pts = sample_slice(dist.chart, seed=5, grid=20, randoms=10)
        if check_mni(bundle.coframe, bundle.k, pts).value is True:
            implications += 1
            assert has_derived_length_one(dist, pts).value is True
    assert implications >= 2

    rank3 = 0
    for bundle in builtin_corpus():
        dist = bundle.distribution
        if dist.rank != 3 or bundle.coframe is None or bundle.k is None:
            continue
        if len(bundle.coframe) != dist.chart.n - 2 * bundle.k - 1:
            continue
        rank3 += 1
        pts = sample_slice(dist.chart, seed=11, grid=20, randoms=10)
        assert check_mni(bundle.coframe, bundle.k, pts).value == \
            has_derived_length_one(dist, pts).value
    assert rank3 >= 2
    _verdict(3, "MNI verdicts, the implication to derived length one, and the "
                "rank-3 equivalence hold over the corpus")


def test_criterion_4_coefficient_formulas_agree():
    started = time.perf_counter()
    for k in (1, 2):
        for n in range(2 * k + 2, 9):
            fp, chart = _symbolic_fiber(n, k)
            power = wedge_power(omega_form(fp, 1, chart=chart), k)
            assert a_coefficients(fp, 1) == dict(power.terms)

    for n, k in ((4, 1), (5, 1), (6, 1)):
        rng = random.Random(55)
        for _ in range(100):
            fp = FiberPoint.random(n, k, rng=rng)
            for i in range(1, fp.m + 1):
                assert b_coefficients(fp, i) == _b_by_permutation_sum(fp, i)

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _verdict(4, "arrangement sums match wedge powers symbolically and the "
                "dependence coefficients match the permutation oracle (%.1fs)" % elapsed)


def test_criterion_5_extraction_structure():
    shapes = ((4, 1), (5, 1), (6, 1), (6, 2))
    for n, k in shapes:
        rng = random.Random(500 + 10 * n + k)
        for _ in range(200):
            fp = FiberPoint.random(n, k, rng=rng)
            extraction = extract_c_coefficients(fp)
            ok, signs = pseudo_symmetry_check(extraction.cmat)
            assert ok
            assert None not in signs.values()
            for i in range(1, fp.m + 1):
                for r in range(2, n + 1):
                    assert extraction.cmat[(i, r, r)] == 0

            resampled = dict(fp.z)
            for i in range(1, fp.m + 1):
                for mu in range(2, n + 1):
                    resampled[(i, 1, mu)] = rnd_fraction(rng)
            for probe in (fp, FiberPoint(n, k, a=fp.a, z=resampled)):
                for i in range(1, fp.m + 1):
                    direct = b_coefficients(probe, i)
                    assert direct[0] == extraction.b_first[i]
                    for r in range(2, n + 1):
                        model = extraction.cbar[(i, r)] + sum(
                            extraction.cmat[(i, r, mu)] * probe.z_entry(i, 1, mu)
                            for mu in range(2, n + 1)
                        )
                        assert direct[r - 1] == model
    _verdict(5, "first coefficient constant, the rest affine with vanishing "
                "diagonal and pseudo-symmetric slopes, 200 fibers per shape")


def test_criterion_6_thinness_probe_rank_never_one():
    # 1000 fibers per small shape, and every admissible k = 3 shape
    # (8 <= n <= 14), k = 4 shape (10 <= n <= 18) and k = 5 shape
    # (12 <= n <= 22) with fewer, costlier fibers
    shapes = [(4, 1, 1000), (5, 1, 1000), (6, 1, 1000), (6, 2, 1000), (7, 2, 1000)]
    shapes += [(n, 3, 20 if n <= 10 else 5) for n in range(8, 15)]
    shapes += [(n, 4, 6) for n in range(10, 19)]
    shapes += [(n, 5, 4) for n in range(12, 23)]
    worst = 0.0
    total_admissible = 0
    for n, k, samples in shapes:
        started = time.perf_counter()
        report = thinness_probe(n, k, samples, seed=11)
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        worst = max(worst, elapsed)
        assert report.samples == samples
        assert 1 not in report.rank_histogram
        assert report.verdict != "FAIL"
        total_admissible += sum(report.rank_histogram.values())
    assert total_admissible > 0
    fibers = sum(samples for _, _, samples in shapes)
    _verdict(6, "%d probed fibers over %d shapes, no rank-1 system (slowest %.1fs)"
             % (fibers, len(shapes), worst))


def test_criterion_7_oriented_pairing():
    for k in (1, 2, 3):
        chart = Chart(tuple("x%d" % j for j in range(1, 2 * k + 2)))
        coframe = [DiffForm.basis(chart, name) for name in chart.names]
        ok, signs = verify_prop_ori_identity(coframe)
        assert ok
        assert set(signs) <= {1, -1}
        omegas = build_prop_ori_omegas(coframe)
        power = wedge_power(omegas[0], k)
        ((key, coeff),) = power.terms.items()
        assert key == tuple(range(2, 2 * k + 2))
        assert abs(coeff.constant_value()) == math.factorial(k)

    for n in (5, 6):
        bundle = oriented_pairing(n, 1)
        verdict = check_almost_mni(bundle.coframe, bundle.omegas, 1)
        assert verdict.value is True
    _verdict(7, "pairing identity has magnitude k! for k <= 3 and the paired "
                "tuples pass the almost-MNI check in dimensions 5 and 6")


def _run_cli(argv):
    argv = [os.path.join(HERE, a) if a.startswith("data/") else a for a in argv]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def test_criterion_8_cli_goldens():
    covered = set()
    for name, argv, expected_code in CASES:
        code, out = _run_cli(argv)
        assert code == expected_code, name
        with open(os.path.join(HERE, "golden", name), encoding="utf-8") as handle:
            assert out == handle.read(), name
        covered.add(code)

    name, argv, expected_code = INTERNAL_ERROR_CASE
    with forced_internal_error():
        code, out = _run_cli(argv)
    assert code == expected_code
    with open(os.path.join(HERE, "golden", name), encoding="utf-8") as handle:
        assert out == handle.read()
    covered.add(code)

    assert covered == {0, 1, 2, 3}
    _verdict(8, "reports byte-identical to the committed goldens, exit codes "
                "0-3 all exercised")
