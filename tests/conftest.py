import random
from fractions import Fraction
from itertools import combinations

import pytest

from nonholonomy.algebra import Chart, Polynomial
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


@pytest.fixture
def rng():
    return random.Random(0)


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
