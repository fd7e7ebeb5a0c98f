import random
from fractions import Fraction

import pytest

from nonholonomy.errors import InputError
from nonholonomy.linalg import kernel_basis, normalize_primitive, rank, rref

from conftest import rnd_fraction


def naive_rank(rows):
    # plain fraction Gaussian elimination, used as the oracle for Bareiss
    M = [[Fraction(x) for x in row] for row in rows]
    if not M or not M[0]:
        return 0
    r = 0
    for c in range(len(M[0])):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c] / M[r][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        r += 1
    return r


def test_rank_known_cases():
    assert rank([]) == 0
    assert rank([[Fraction(0), Fraction(0)]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]) == 1
    assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1)]]) == 2
    with pytest.raises(InputError):
        rank([[1, 2], [1]])


def test_rank_matches_naive_elimination():
    rng = random.Random(10)
    for _ in range(300):
        n_rows = rng.randint(1, 5)
        n_cols = rng.randint(1, 5)
        rows = [[rnd_fraction(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        # sprinkle exact dependencies to exercise rank deficiency
        if n_rows >= 2 and rng.random() < 0.5:
            s = rnd_fraction(rng)
            rows[-1] = [s * x for x in rows[0]]
        assert rank(rows) == naive_rank(rows)


def test_kernel_basis_properties():
    rng = random.Random(11)
    for _ in range(200):
        n_rows = rng.randint(0, 4)
        n_cols = rng.randint(1, 5)
        rows = [[rnd_fraction(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        basis = kernel_basis(rows, n_cols)
        assert len(basis) == n_cols - rank(rows)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        if basis:
            assert rank(basis) == len(basis)


def test_kernel_of_empty_matrix_is_everything():
    basis = kernel_basis([], 3)
    assert len(basis) == 3
    assert rank(basis) == 3


def test_rref_pivots():
    M, pivots = rref([[0, 1, 2], [0, 2, 4]])
    assert pivots == [1]
    assert M[0] == [Fraction(0), Fraction(1), Fraction(2)]


def test_normalize_primitive():
    assert normalize_primitive([Fraction(1, 2), Fraction(-1, 2)]) == (1, -1)
    assert normalize_primitive([Fraction(-2), Fraction(4)]) == (1, -2)
    assert normalize_primitive([Fraction(0), Fraction(0)]) == (0, 0)
    assert normalize_primitive([Fraction(2, 3), Fraction(4, 3)]) == (1, 2)
