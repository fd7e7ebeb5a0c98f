"""Exact linear algebra over the rationals.

One fraction-free (Bareiss) reduction, Echelon, serves rank, det, solve
and the independence test _independent, and forms' symbolic determinant
and kernel frame. It takes rows one at a time, each reduced against the
rows held so far, so a caller whose rows come in batches, as the derived
flag's levels do, extends one elimination instead of starting again. Its
rows are integers, or polynomials, whose exact division
(algebra.Polynomial //) takes the same steps, each exact by Sylvester's
identity. rank and det clear the denominators of their rows themselves,
so intermediate entries stay integers and never lose exactness. A held
row is kept at full width, zero before its pivot and at the pivots of the
rows held before it, so Echelon.kernel, the one kernel routine, and solve
share one back-substitution: per held row, a dot product over the row
from its pivot on and an exact division by the pivot.
solve takes a skew A and reads its scale |Pf(A)| off the same elimination,
whose last pivot is +-det(A) = +-Pf(A)^2, or else a basis of ker A. The
fraction-free pfaffian is the elimination's skew analogue, on rationals
or polynomials. pfaffian_minors takes the minors one order below the top
on solve's elimination and at most one pfaffian, by corank.

Everything here is deterministic, and the pivot columns do not depend on
the order of the rows: a held row is zero before its pivot, its first
nonzero column, so sorted by pivot the held rows form an echelon form of
the rows given, and every echelon form of a matrix has the same pivot
columns, the lexicographically first column basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import mul

from .errors import ConsistencyError, InputError


def _integer_rows(rows):
    """Copy rows of ints and Fractions with denominators cleared row by row.

    Returns (integer rows, scale), scale being the product of the row
    scales, so any maximal minor of the integer rows is scale times the
    same minor of the given rows. A row of ints, such as an IntegerGrid
    row, is copied as it is.
    """
    out = []
    scale = 1
    for row in rows:
        row = list(row)
        if all(type(x) is int for x in row):
            out.append(row)
            continue
        row_scale = lcm(*(x.denominator for x in row)) if row else 1
        out.append([x.numerator * (row_scale // x.denominator) for x in row])
        scale *= row_scale
    return out, scale


class Echelon:
    """Integer rows of n_cols columns in fraction-free echelon form, grown
    one row at a time.

    add reduces a new row against the held rows in the order they were
    added, row <- (row * p_k - row[c_k] * held_k) / p_(k-1), with c_k the
    pivot column of held row k, p_k its entry there and p_(-1) = 1, and
    holds it if anything is left. This is Bareiss's step on one row: every
    entry left is the minor of the held rows' originals and this row on the
    columns c_0, ..., c_(k-1) and its own, so by Sylvester's identity each
    division is exact. A held row is kept at full width: p_k at c_k, and
    zero before c_k and at the pivots of the rows held before it, as each
    step clears column c_k of the row.

    pivots lists the held rows' pivot columns in the order they were added;
    its length is the rank of the rows added.
    """

    __slots__ = ("pivots", "_rows", "_heads", "_n_cols")

    def __init__(self, n_cols: int):
        self.pivots = []
        self._rows = []  # held row k at full width
        self._heads = []  # held row k's pivot entry p_k
        self._n_cols = n_cols

    def add(self, row) -> bool:
        """Reduce an integer row and hold what is left, its pivot being its
        first nonzero column; returns False, holding nothing, when the row
        lies in the span of the held rows."""
        row = list(row)
        prev = 1
        for held, c, p in zip(self._rows, self.pivots, self._heads):
            head = row[c]
            if head:
                row = [(x * p - head * y) // prev for x, y in zip(row, held)]
            else:
                row = [x * p // prev for x in row]
            prev = p
        for c, x in enumerate(row):
            if x:
                self._rows.append(row)
                self._heads.append(x)
                self.pivots.append(c)
                return True
        return False

    def last_pivot(self) -> int:
        """The minor of the held rows' originals on the pivot columns, taken
        in the order pivots lists them; 1 when nothing is held."""
        return self._heads[-1] if self._heads else 1

    def kernel_vector(self, free: int, scale: int):
        """The vector v with A v = 0 that has scale in the non-pivot column
        free and 0 in the others, A being the rows added.

        Its pivot entries are solved through the held rows in reverse order
        of addition, each by one dot product and one division by its pivot:
        v[c_k] = -(held_k . v) / p_k, as v is still 0 at c_k and at the
        pivots of the rows held before k, and known everywhere else by then.
        held_k is 0 before c_k, and v at the non-pivot columns but free
        (such as solve's other right-hand sides), so the dot product runs
        over the held row from its pivot on to the last pivot column, top,
        and at free. The division is exact whenever the whole vector is
        integral, as the caller's scale ensures; else ConsistencyError.
        """
        v = [0] * self._n_cols
        v[free] = scale
        top = max(self.pivots, default=-1) + 1
        past = scale if free >= top else 0  # v[free] when the band misses it
        for held, p, c in zip(*map(reversed, (self._rows, self._heads, self.pivots))):
            dot = sum(map(mul, held[c + 1:top], v[c + 1:top])) + held[free] * past
            value, remainder = divmod(-dot, p)
            if remainder:
                raise ConsistencyError("back-substitution scale leaves a fraction")
            v[c] = value
        return v

    def kernel(self):
        """A basis of the kernel of the rows added: for each non-pivot
        column in order, the kernel_vector with the last pivot there,
        integral as its pivot entries are then minors by Cramer's rule."""
        last = self.last_pivot()
        return [self.kernel_vector(free, last) for free in range(self._n_cols)
                if free not in self.pivots]


def _independent(vectors, width: int) -> bool:
    """Whether these integer vectors of width entries are linearly
    independent: one Echelon, which stops at the first vector in the span
    of those before it."""
    return all(map(Echelon(width).add, vectors))


def pfaffian(rows):
    """Pfaffian of a skew-symmetric matrix given as an iterable of rows.

    One denominator L is cleared over a whole matrix of ints and
    Fractions, as clearing row by row would break skew symmetry; this
    scales the Pfaffian by L^(size/2). Then, as in Echelon but on 2x2
    pivot blocks, each trailing entry is the Pfaffian of a bordered minor,
    so the division by the previous pivot is exact. A matrix of
    polynomials, told by its first entry, takes the same steps by exact
    division (algebra.Polynomial //) and gives a polynomial. Odd sizes give
    0.
    """
    rows = [list(row) for row in rows]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise InputError("Pfaffian needs a square matrix")
    if size % 2:
        return Fraction(0)
    numbers = not rows or isinstance(rows[0][0], (int, Fraction))
    scale = lcm(*(x.denominator for row in rows for x in row)) if numbers else 1
    M = [[x.numerator * (scale // x.denominator) for x in row] for row in rows] if numbers else rows
    prev = 1
    sign = 1
    while M:
        piv = next((c for c in range(1, len(M)) if M[0][c]), None)
        if piv is None:
            return Fraction(0) if numbers else M[0][0]  # the zero diagonal
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
    return Fraction(sign * prev, scale ** (size // 2)) if numbers else sign * prev


def pfaffian_minors(A):
    """The Pfaffian minors one order below the top of a skew matrix A, a
    list of rows of ints or polynomials: at odd size the vector of
    (-1)^a Pf(A without a), at even size the skew P of
    (-1)^(a+b) Pf(A without a, b), a < b, so that A P = Pf(A) I.

    By corank, on solve's one elimination, of [A | I] at even size and of A
    at odd size, and at most one pfaffian: p = Pf(A[S, S]) on A's pivot
    columns S, nonzero as a column basis of a skew matrix is a row basis,
    signed by (-1)^(sum of the free columns). Corank 0: S is everything,
    and the kernel vectors with p at a column of I are the rows of
    P = p A^-1. Coranks 1 and 2: the kernel vectors of A with the last
    pivot d at one free column and 0 at the others, (v) at f, and the
    minors are p v / d; or (u, w) at f < g, and as A P = 0 the columns of
    P lie in ker A, so P = p (u ^ w) / d^2. Higher coranks give 0.
    """
    size = len(A)
    identity = [[int(a == b) for a in range(size)] for b in range(size)]
    echelon, free = _skew_echelon(A, [] if size % 2 else identity)
    if len(free) > 2:  # entries 0, or the zero polynomial
        return [0 * A[0][0]] * size if size % 2 else [[0 * A[0][0]] * size for _ in A]
    keep = [c for c in range(size) if c not in free]
    p = (-1) ** sum(free) * pfaffian([[A[a][b] for b in keep] for a in keep])
    if not free:
        return [echelon.kernel_vector(size + j, p)[:size] for j in range(size)]
    d = echelon.last_pivot()
    u, *w = (echelon.kernel_vector(f, d)[:size] for f in free)
    if not w:
        return [p * x // d for x in u]
    return [[p * (x * y - u[b] * w[0][a]) // (d * d) for b, y in enumerate(w[0])] for a, x in enumerate(u)]


def rank(rows) -> int:
    """Rank of a matrix given as an iterable of equal-length rows."""
    M, _ = _integer_rows(rows)
    n_cols = len(M[0]) if M else 0
    if any(len(row) != n_cols for row in M):
        raise InputError("rows have unequal lengths")
    if not n_cols:
        return 0
    echelon = Echelon(n_cols)
    for row in M:
        echelon.add(row)
        if len(echelon.pivots) == n_cols:
            break
    return len(echelon.pivots)


def det(rows) -> Fraction:
    """Determinant of a square matrix given as an iterable of rows: the
    signed last pivot of one Echelon of its integer rows, over the product
    of their row scales."""
    M, scale = _integer_rows(rows)
    if any(len(row) != len(M) for row in M):
        raise InputError("determinant needs a square matrix")
    echelon = Echelon(len(M))
    for row in M:
        if not echelon.add(row):
            return Fraction(0)
    return Fraction(_signed_last_pivot(echelon), scale)


def _signed_last_pivot(echelon):
    """The determinant of a square matrix whose rows are all held: the last
    pivot, the minor in pivot order, signed by that order's parity."""
    pivots = echelon.pivots
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    last = echelon.last_pivot()
    return -last if inversions % 2 else last


def _skew_echelon(rows, columns):
    """solve's one Echelon of [A | B], and the free columns of A."""
    size = len(rows)
    if any(len(row) != size for row in rows) or any(len(col) != size for col in columns):
        raise InputError("a skew system needs a square matrix and columns of its size")
    if [[-x for x in col] for col in zip(*rows)] != [list(row) for row in rows]:
        raise InputError("a skew system needs a skew-symmetric matrix")
    echelon = Echelon(size + len(columns))
    for a, row in enumerate(rows):
        echelon.add(list(row) + [col[a] for col in columns])
    return echelon, [c for c in range(size) if c not in echelon.pivots]


def solve(rows, columns):
    """(p, X) with p = |Pf(A)| and X the columns of p * A^-1 * B, in
    integers; (0, K) when A is singular, K a basis of ker A.

    rows is a skew-symmetric integer matrix A and columns the integer
    columns of B. One elimination of [A | B] serves every column: A is
    nonsingular exactly when each of its columns is a pivot, and its last
    pivot is then +-det(A) = +-Pf(A)^2; p * A^-1 * B is integral, as
    Pf(A) * A^-1 is the skew matrix of signed Pfaffian minors of A. Else a
    held row whose pivot lies in B's columns is zero on A's, so K, the
    kernel vectors with the last pivot at one free column of A and 0 at
    the others, is 0 on B and spans ker A. A non-square or non-skew A
    raises InputError.
    """
    size = len(rows)
    echelon, free = _skew_echelon(rows, columns)
    if free:
        return 0, [echelon.kernel_vector(f, echelon.last_pivot())[:size] for f in free]
    square = abs(echelon.last_pivot())
    p = isqrt(square)
    if p * p != square:
        raise ConsistencyError("determinant of a skew matrix is not a square")
    return p, [echelon.kernel_vector(size + j, -p)[:size] for j in range(len(columns))]
