import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from nonholonomy import distributions, forms
from nonholonomy.algebra import Chart, IntegerGrid, Polynomial
from nonholonomy.distributions import sample_points
from nonholonomy.forms import DiffForm, VectorField


def rnd_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def rnd_chart(rng, max_n=6, min_n=1):
    n = rng.randint(min_n, max_n)
    return Chart(tuple("x%d" % i for i in range(1, n + 1)))


def rnd_poly(rng, chart, max_terms=3, max_degree=2):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * chart.n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(chart.n)] += 1
        terms[tuple(exps)] = rnd_fraction(rng)
    return Polynomial(chart, terms)


def rnd_form(rng, chart, degree, max_terms=3):
    if degree > chart.n:
        return DiffForm.zero(chart, degree)
    keys = list(combinations(range(1, chart.n + 1), degree))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms_key = keys[rng.randrange(len(keys))]
        terms[terms_key] = rnd_poly(rng, chart)
    return DiffForm(chart, degree, terms)


def rnd_field(rng, chart):
    return VectorField(chart, [rnd_poly(rng, chart) for _ in range(chart.n)])


def rnd_point(rng, chart):
    return tuple(rnd_fraction(rng) for _ in range(chart.n))


def sample_slice(chart, seed=0, *, grid, randoms):
    """A smaller sample set for fast tests: the first `grid` grid points and
    the first `randoms` random points of sample_points(chart, seed), which
    ends in its 100 random points."""
    points = sample_points(chart, seed)
    return points[:-100][:grid] + points[-100:][:randoms]


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def minor_search(monkeypatch):
    """A log of the constant-minor proof's work: found, the result of each
    forms._constant_minor call; evaluated, the IntegerGrid.at calls; dets,
    the integer determinants forms.det takes; expanded, the blocks given to
    forms._poly_det."""
    log = SimpleNamespace(found=[], evaluated=0, dets=[], expanded=[])
    search, at, det, poly_det = forms._constant_minor, IntegerGrid.at, forms.det, forms._poly_det

    def searched(grid):
        log.found.append(search(grid))
        return log.found[-1]

    def evaluated(self, q):
        log.evaluated += 1
        return at(self, q)

    def integer(rows):
        log.dets.append(det(rows))
        return log.dets[-1]

    def symbolic(matrix):
        log.expanded.append(matrix)
        return poly_det(matrix)

    for module in (forms, distributions):
        monkeypatch.setattr(module, "_constant_minor", searched)
    monkeypatch.setattr(IntegerGrid, "at", evaluated)
    monkeypatch.setattr(forms, "det", integer)
    monkeypatch.setattr(forms, "_poly_det", symbolic)
    return log


def quadratic_coframe(n, k):
    """The generic quadratic coframe of the benchmark's check-mni jobs: for
    i = 0..m-1 with m = n - 2k - 1,
    a_i = dx_{n-m+i+1} + sum_{j <= n-m} x_{(i+j mod n)+1} x_{(2i+j+1 mod n)+1} dx_j.
    It has constant rank and a dependent MNI tuple."""
    m = n - 2 * k - 1
    chart = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    x = [Polynomial.coordinate(chart, j) for j in range(1, n + 1)]
    coframe = []
    for i in range(m):
        form = DiffForm.basis(chart, n - m + i + 1)
        for j in range(1, n - m + 1):
            form = form + x[(i + j) % n] * x[(2 * i + j + 1) % n] * DiffForm.basis(chart, j)
        coframe.append(form)
    return coframe


def jetlike_coframe(n, k, rng):
    """a_i = dy_i - sum_p c_p h_s dh_t, where da_i is a constant Darboux form
    on every h but one, a different h for each i: independent MNI forms
    with a constant maximal minor."""
    m = n - 2 * k - 1
    chart = Chart(tuple("y%d" % i for i in range(1, m + 1))
                  + tuple("h%d" % j for j in range(1, 2 * k + 2)))
    coframe = []
    for i, omitted in enumerate(rng.sample(range(2 * k + 1), m)):
        rest = [j for j in range(2 * k + 1) if j != omitted]
        rng.shuffle(rest)
        form = DiffForm.basis(chart, i + 1)
        for p in range(k):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))
            h = Polynomial.coordinate(chart, m + 1 + rest[2 * p])
            form = form - c * h * DiffForm.basis(chart, m + 1 + rest[2 * p + 1])
        coframe.append(form)
    return coframe
