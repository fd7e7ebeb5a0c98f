"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) elimination serves rank, det and kernel_basis:
each clears the denominators of its rows itself, so intermediate entries
stay integers and never lose exactness, and kernel_basis back-substitutes
through the echelon rows it leaves. pfaffian runs its skew analogue.
Everything here is deterministic: pivots are chosen first-come in row order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def _integer_rows(rows):
    """Copy rows of ints and Fractions with denominators cleared row by row.

    Returns (integer rows, scale), scale being the product of the row
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
    """Fraction-free elimination of integer rows, in place, to echelon form.

    Returns (pivot columns, last pivot times the sign of the row swaps).
    Each pivot is a minor of the original rows, so for a square matrix of
    full rank the signed last pivot is its determinant.
    """
    n_rows, n_cols = len(M), len(M[0])
    pivots = []
    prev = 1
    sign = 1
    for c in range(n_cols):
        r = len(pivots)
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
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    return pivots, sign * prev


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
    M, _ = _integer_rows(rows)
    if not M or not M[0]:
        return 0
    if any(len(row) != len(M[0]) for row in M):
        raise InputError("rows have unequal lengths")
    return len(_bareiss(M)[0])


def det(rows) -> Fraction:
    """Determinant of a square matrix given as an iterable of rows."""
    M, scale = _integer_rows(rows)
    if any(len(row) != len(M) for row in M):
        raise InputError("determinant needs a square matrix")
    if not M:
        return Fraction(1)
    pivots, pivot = _bareiss(M)
    return Fraction(pivot, scale) if len(pivots) == len(M) else Fraction(0)


def kernel_basis(rows, n_cols: int):
    """Basis of {v : A v = 0} for the matrix with the given rows.

    An empty row list means the zero map, whose kernel is all of Q^n_cols.
    Basis vectors are tuples of Fractions, one per free column, in column
    order: the one for a free column has 1 there and 0 in the other free
    columns, and its pivot entries are back-substituted bottom-up through
    the echelon rows, in integers over one common denominator. The pivot
    columns, and so the basis, depend only on the matrix, which makes the
    result deterministic.
    """
    M, _ = _integer_rows(rows)
    for row in M:
        if len(row) != n_cols:
            raise InputError("row of length %d does not match %d columns" % (len(row), n_cols))
    pivots = _bareiss(M)[0] if M and n_cols else []
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [0] * n_cols
        v[free] = denom = 1
        for row, p in reversed(list(zip(M, pivots))):
            total = sum(row[j] * v[j] for j in range(p + 1, n_cols))
            v = [x * row[p] for x in v]
            v[p] = -total
            denom *= row[p]
        basis.append(tuple(Fraction(x, denom) for x in v))
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
