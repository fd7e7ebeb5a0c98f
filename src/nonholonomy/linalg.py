"""Exact linear algebra over the rationals.

Rank and determinant (det) share one fraction-free (Bareiss) elimination on
denominator-cleared integer rows, and pfaffian runs its skew analogue, so
intermediate entries stay integers and never lose exactness. Kernel bases
come from Gauss-Jordan over Fractions. Everything here is deterministic:
pivots are chosen first-come in row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def integer_rows(rows):
    """Copy rows of ints and Fractions with denominators cleared row by row.

    Returns (integer_rows, scale), scale being the product of the row
    scales, so any maximal minor of the integer rows is scale times the
    same minor of the given rows.
    """
    out = []
    scale = 1
    for row in rows:
        row = list(row)
        row_scale = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (row_scale // x.denominator) for x in row])
        scale *= row_scale
    return out, scale


def _bareiss(M):
    """Fraction-free elimination of integer rows, in place.

    Returns (rank, last pivot times the sign of the row swaps). Each pivot
    is a minor of the original rows, so for a square matrix of full rank the
    signed last pivot is its determinant.
    """
    n_rows, n_cols = len(M), len(M[0])
    r = 0
    prev = 1
    sign = 1
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if M[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            M[r], M[piv] = M[piv], M[r]
            sign = -sign
        for i in range(r + 1, n_rows):
            row_i, row_r = M[i], M[r]
            head = row_i[c]
            for j in range(c + 1, n_cols):
                row_i[j] = (row_i[j] * row_r[c] - head * row_r[j]) // prev
            row_i[c] = 0
        prev = M[r][c]
        r += 1
        if r == n_rows:
            break
    return r, sign * prev


def pfaffian(rows) -> Fraction:
    """Pfaffian of a skew-symmetric matrix given as an iterable of rows.

    One denominator L is cleared over the whole matrix, as clearing row by
    row would break skew symmetry; this scales the Pfaffian by L^(size/2).
    Then, as in _bareiss but on 2x2 pivot blocks, each trailing entry is
    the Pfaffian of a bordered minor, so the division by the previous pivot
    is exact. Odd sizes give 0.
    """
    rows = [list(row) for row in rows]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise InputError("Pfaffian needs a square matrix")
    if size % 2:
        return Fraction(0)
    scale = lcm(*(x.denominator for row in rows for x in row))
    M = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    prev = 1
    sign = 1
    while M:
        piv = next((c for c in range(1, len(M)) if M[0][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != 1:
            M[1], M[piv] = M[piv], M[1]
            for row in M:
                row[1], row[piv] = row[piv], row[1]
            sign = -sign
        row0, row1 = M[0], M[1]
        p = row0[1]
        M = [
            [(p * row[l] + row1[j] * row0[l] - row0[j] * row1[l]) // prev for l in range(2, len(row))]
            for j, row in enumerate(M[2:], start=2)
        ]
        prev = p
    return Fraction(sign * prev, scale ** (size // 2))


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of equal-length rows."""
    M, _ = integer_rows(rows)
    if not M or not M[0]:
        return 0
    if any(len(row) != len(M[0]) for row in M):
        raise InputError("rows have unequal lengths")
    return _bareiss(M)[0]


def det(rows) -> Fraction:
    """Determinant of a square matrix given as an iterable of rows."""
    M, scale = integer_rows(rows)
    if any(len(row) != len(M) for row in M):
        raise InputError("determinant needs a square matrix")
    if not M:
        return Fraction(1)
    r, pivot = _bareiss(M)
    return Fraction(pivot, scale) if r == len(M) else Fraction(0)


def rref(rows):
    """Reduced row echelon form over Fractions.

    Returns (matrix, pivot_columns) with 0-based pivot column indices.
    """
    M = [[Fraction(x) for x in row] for row in rows]
    if not M or not M[0]:
        return M, []
    n_rows, n_cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(n_rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return M, pivots


def kernel_basis(rows, n_cols: int):
    """Basis of {v : A v = 0} for the matrix with the given rows.

    An empty row list means the zero map, whose kernel is all of Q^n_cols.
    Basis vectors are tuples of Fractions, one per free column, in column
    order; this makes the result deterministic.
    """
    rows = [list(row) for row in rows]
    for row in rows:
        if len(row) != n_cols:
            raise InputError("row of length %d does not match %d columns" % (len(row), n_cols))
    M, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            v[p] = -M[r_idx][free]
        basis.append(tuple(v))
    return basis


def normalize_primitive(vec):
    """Scale a rational vector to integers with gcd 1 and first nonzero entry
    positive. The zero vector comes back as integer zeros."""
    vec = [Fraction(x) for x in vec]
    if not any(vec):
        return tuple(0 for _ in vec)
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)
