import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from nonholonomy.algebra import Chart, Polynomial
from nonholonomy.errors import ConsistencyError, InputError
from nonholonomy.linalg import (
    Echelon, _integer_rows, det, pfaffian, pfaffian_minors, rank, solve,
)

from conftest import rnd_fraction, rnd_poly
from oracles import (
    column_scan_bareiss,
    column_scan_det,
    column_scan_kernel_basis,
    column_scan_rank,
    column_scan_solve,
    direct_pfaffian_minors,
    normalize_primitive,
)


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


def test_rank_checks_every_row_length():
    # an empty first row used to skip the check: [[], [1]] read rank 0
    # while [[1], []] raised
    assert rank([[]]) == rank([[], []]) == 0
    for rows in ([[], [1]], [[1], []], [[], [0, 0]], [[0], [0], [0, 0]]):
        with pytest.raises(InputError, match="unequal lengths"):
            rank(rows)


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


def permutation_det(rows):
    # the Leibniz sum over permutations, used as the oracle for Bareiss det
    size = len(rows)
    total = Fraction(0)
    for perm in permutations(range(size)):
        term = Fraction(1)
        for i in range(size):
            term *= rows[i][perm[i]]
            for j in range(i + 1, size):
                if perm[i] > perm[j]:
                    term = -term
        total += term
    return total


def test_det_known_cases():
    assert det([]) == 1
    assert det([[Fraction(3, 4)]]) == Fraction(3, 4)
    assert det([[1, 2], [3, 4]]) == -2
    # each needs row swaps, and the sign must follow them
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det([[0, 2, 1], [0, 1, 3], [5, 1, 1]]) == 25
    # singular: proportional rows, a zero row, a zero column
    assert det([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]) == 0
    assert det([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0
    assert det([[1, 0, 3], [2, 0, 6], [4, 0, 5]]) == 0
    with pytest.raises(InputError):
        det([[1, 2]])
    with pytest.raises(InputError):
        det([[1, 2], [3]])


def test_det_matches_permutation_expansion():
    rng = random.Random(12)
    for trial in range(400):
        size = rng.randint(1, 5)
        rows = [[rnd_fraction(rng) for _ in range(size)] for _ in range(size)]
        if trial % 4 == 1:
            # zeros on and below the diagonal force row swaps
            for i in range(size):
                for j in range(i + 1):
                    if rng.random() < 0.6:
                        rows[i][j] = Fraction(0)
        elif trial % 4 == 2 and size >= 2:
            s = rnd_fraction(rng)
            rows[-1] = [s * x for x in rows[0]]
        elif trial % 4 == 3:
            rng.shuffle(rows)
        value = det(rows)
        assert value == permutation_det(rows)
        assert (value != 0) == (rank(rows) == size)


def matching_pfaffian(rows, free=None):
    # the perfect-matching expansion: pair the first free index with each
    # later one in turn, the sign alternating with the partner's position
    free = list(range(len(rows))) if free is None else free
    if not free:
        return Fraction(1)
    first, rest = free[0], free[1:]
    total = Fraction(0)
    for pos, partner in enumerate(rest):
        if rows[first][partner]:
            others = rest[:pos] + rest[pos + 1:]
            term = rows[first][partner] * matching_pfaffian(rows, others)
            total += -term if pos % 2 else term
    return total


def sparse_skew(rng, size):
    # at least half of the entries above the diagonal are zero
    pairs = list(combinations(range(size), 2))
    nonzero = rng.sample(pairs, rng.randint(len(pairs) // 4, len(pairs) // 2))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i, j in nonzero:
        value = Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 12))
        rows[i][j], rows[j][i] = value, -value
    return rows


def test_pfaffian_known_cases():
    assert pfaffian([]) == 1
    assert pfaffian([[0, Fraction(2, 3)], [Fraction(-2, 3), 0]]) == Fraction(2, 3)
    # the pivot sits in column 2, so indices 1 and 2 swap and the sign flips
    rows = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    assert pfaffian(rows) == -1
    assert pfaffian([[0, 0], [0, 0]]) == 0
    assert pfaffian([[0]]) == 0
    assert pfaffian([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]) == 0
    with pytest.raises(InputError):
        pfaffian([[0, 1]])
    with pytest.raises(InputError):
        pfaffian([[0, 1], [-1]])


def test_pfaffian_matches_matching_expansion():
    rng = random.Random(31)
    swaps = zeros = 0
    for size in range(0, 9, 2):
        for _ in range(60):
            rows = sparse_skew(rng, size)
            value = pfaffian(rows)
            assert value == matching_pfaffian(rows)
            assert value ** 2 == det(rows)
            zeros += value == 0
            swaps += size >= 4 and rows[0][1] == 0 and value != 0
    for size in range(1, 9, 2):
        for _ in range(10):
            assert pfaffian(sparse_skew(rng, size)) == 0
    # both the pivot swap and a vanishing Pfaffian are exercised
    assert swaps > 0 and zeros > 0


def test_pfaffian_of_polynomials_matches_matching_expansion():
    # polynomial entries take the same steps by exact division and give a
    # polynomial; a zero row gives 0
    rng = random.Random(7)
    chart = Chart(("x", "y"))
    zero = Polynomial.zero(chart)
    nonzero = 0
    for size in (2, 4, 6):
        for trial in range(6):
            rows = [[zero] * size for _ in range(size)]
            for i, j in combinations(range(size), 2):
                if trial == 5 and 0 in (i, j):
                    continue
                value = rnd_poly(rng, chart, max_terms=2, max_degree=1)
                rows[i][j], rows[j][i] = value, -value
            value = pfaffian(rows)
            assert value == matching_pfaffian(rows), (size, trial)
            if trial == 5:
                assert value == 0, size
            else:
                assert isinstance(value, Polynomial), (size, trial)
                nonzero += not value.is_constant()
    assert nonzero >= 5, nonzero


def random_skew(rng, size, bound=5):
    """A dense skew integer matrix, entries above the diagonal in
    -bound..bound."""
    A = [[0] * size for _ in range(size)]
    for i, j in combinations(range(size), 2):
        A[i][j] = rng.randint(-bound, bound)
        A[j][i] = -A[i][j]
    return A


def low_rank_skew(rng, size, pairs):
    """sum over pairs of u ^ v, a skew integer matrix of rank at most
    2 * pairs."""
    A = [[0] * size for _ in range(size)]
    for _ in range(pairs):
        u = [rng.randint(-3, 3) for _ in range(size)]
        v = [rng.randint(-3, 3) for _ in range(size)]
        for i in range(size):
            for j in range(size):
                A[i][j] += u[i] * v[j] - u[j] * v[i]
    return A


def test_solve_scales_the_inverse():
    # p = |Pf(A)| makes every solution integral: A x = p b exactly, and
    # p^2 = |det A|
    rng = random.Random(47)
    solved = 0
    for size in range(2, 9, 2):
        for _ in range(25):
            A = random_skew(rng, size)
            D = det(A)
            if D == 0:
                continue
            columns = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(2)]
            scale, X = solve(A, columns)
            assert scale * scale == abs(D)
            for x, b in zip(X, columns):
                assert all(type(v) is int for v in x)
                assert [sum(p * q for p, q in zip(row, x)) for row in A] == [scale * v for v in b]
            solved += 1
    assert solved > 80


def test_solve_with_pfaffian_scale_gives_pfaffian_minors():
    # for a skew A and 0-based a < b, (Pf(A) A^-1)_ab = (-1)^(a+b) Pf(A
    # without a, b): the identity behind the thinness extraction. solve
    # returns |Pf(A)| A^-1, so its columns carry the sign of Pf(A)
    rng = random.Random(53)
    checked = 0
    for size in (2, 4, 6, 8):
        for _ in range(15):
            rows = sparse_skew(rng, size)
            A, _ = _integer_rows([[x * 27720 for x in row] for row in rows])
            pf = pfaffian(A)
            if pf == 0:
                assert solve(A, []) is None
                continue
            identity = [[int(a == b) for a in range(size)] for b in range(size)]
            scale, X = solve(A, identity)
            assert scale == abs(pf)
            sign = 1 if pf > 0 else -1
            for a, b in combinations(range(size), 2):
                keep = [c for c in range(size) if c not in (a, b)]
                minor = pfaffian([[A[p][q] for q in keep] for p in keep])
                assert sign * X[b][a] == (-1) ** (a + b) * minor
                assert X[a][b] == -X[b][a]
            checked += 1
    assert checked > 10


def _wedge_pairs(rng, size, pairs):
    """The integer skew matrix sum of x y^T - y x^T over pairs random
    integer vector pairs x, y: of rank at most 2 pairs."""
    A = [[0] * size for _ in range(size)]
    for _ in range(pairs):
        x = [rng.randint(-3, 3) for _ in range(size)]
        y = [rng.randint(-3, 3) for _ in range(size)]
        for a in range(size):
            for b in range(size):
                A[a][b] += x[a] * y[b] - y[a] * x[b]
    return A


def test_pfaffian_minors_match_the_direct_minors_at_every_corank():
    # skew integer matrices of sizes 1 to 11 and every corank 0 to 4 of
    # their parity: the routine equals the oracle's one Pfaffian per minor,
    # in ints, and A P = Pf(A) I for even size
    rng = random.Random(54)
    met = set()
    for size in range(1, 12):
        for corank in range(size % 2, min(size, 4) + 1, 2):
            for _ in range(6):
                A = _wedge_pairs(rng, size, (size - corank) // 2)
                got = pfaffian_minors(A)
                assert got == direct_pfaffian_minors(A), (size, corank)
                met.add((size % 2, size - rank(A)))
                if size % 2:
                    assert all(type(x) is int for x in got)
                    continue
                assert all(type(x) is int for row in got for x in row)
                pf = pfaffian(A)
                assert [[sum(A[a][j] * got[j][b] for j in range(size)) for b in range(size)]
                        for a in range(size)] == [[pf * (a == b) for b in range(size)]
                                                  for a in range(size)], (size, corank)
    assert met >= {(0, 0), (0, 2), (0, 4), (1, 1), (1, 3)}, met
    assert pfaffian_minors([]) == [] and pfaffian_minors([[0]]) == [1]
    assert pfaffian_minors([[0, 3], [-3, 0]]) == [[0, -1], [1, 0]]


def test_solve_rejects_bad_input(monkeypatch):
    for rows, columns in (([[0, 1]], []), ([[0, 1], [-1, 0]], [[1]]),
                          ([[1, 2], [3, 4]], [[1, 0]]), ([[2]], [[1]]), ([[0, 1], [1, 0]], [])):
        with pytest.raises(InputError):
            solve(rows, columns)
    assert solve([[0]], [[1]]) is None
    assert solve([[0, 0], [0, 0]], [[1, 0]]) is None
    assert solve([], []) == (1, [])
    assert solve([[0, 2], [-2, 0]], [[1, 0]]) == (2, [[0, 1]])
    # a skew determinant is a square, so its check cannot fail on real
    # pivots, and |Pf| makes the back-substitution integral; each failure
    # is a ConsistencyError
    monkeypatch.setattr(Echelon, "last_pivot", lambda self: 8)
    with pytest.raises(ConsistencyError, match="not a square"):
        solve([[0, 2], [-2, 0]], [[1, 0]])
    monkeypatch.setattr(Echelon, "last_pivot", lambda self: 1)
    with pytest.raises(ConsistencyError, match="fraction"):
        solve([[0, 2], [-2, 0]], [[1, 0]])


def test_skew_solve_matches_column_scan_at_the_pfaffian_scale():
    # solve against the column scan's back-substitution at scale |Pf(A)|,
    # the Pfaffian taken by linalg.pfaffian: dense, sparse and conjugated
    # skew matrices up to size 14, whose pivots come out permuted (row 0 of
    # a skew matrix has its pivot past column 0); None exactly when A is
    # singular, at odd sizes and at even sizes of corank 2 or more
    rng = random.Random(79)
    seen = dict.fromkeys(("solved", "permuted pivots", "odd size", "even corank", "odd corank > 1"), 0)
    for trial in range(240):
        size = rng.randint(1, 14)
        kind = trial % 4
        if kind == 0:
            A = random_skew(rng, size, 4)
        elif kind == 1:
            A, _ = _integer_rows([[x * 27720 for x in row] for row in sparse_skew(rng, size)])
        elif kind == 2:  # conjugate by a permutation: rows and columns reordered alike
            B = random_skew(rng, size, 3)
            order = rng.sample(range(size), size)
            A = [[B[a][b] for b in order] for a in order]
        else:
            A = low_rank_skew(rng, size, rng.randint(0, max(0, size // 2 - 1)))
        columns = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(rng.randint(0, size + 2))]
        pf = int(pfaffian(A))
        result = solve(A, columns)
        if not pf:
            assert result is None
            assert column_scan_solve(A, columns, 1) is None
            corank = size - rank(A)
            seen["odd size"] += size % 2
            seen["even corank"] += size % 2 == 0 and corank >= 2
            seen["odd corank > 1"] += corank >= 3 and corank % 2 == 1
            continue
        assert result == (abs(pf), column_scan_solve(A, columns, abs(pf)))
        echelon = Echelon(size)
        for row in A:
            echelon.add(row)
        seen["solved"] += 1
        seen["permuted pivots"] += echelon.pivots != sorted(echelon.pivots)
    assert all(count >= 5 for count in seen.values()), seen


def test_integer_rows_scale():
    rows, scale = _integer_rows([[Fraction(1, 2), Fraction(1, 3)], [3, Fraction(-5, 4)]])
    assert rows == [[3, 2], [12, -5]]
    assert scale == 24


# Echelon.kernel of the rows, each vector divided by the last pivot
def echelon_kernel(rows, n_cols):
    echelon = Echelon(n_cols)
    for row in _integer_rows(rows)[0]:
        echelon.add(row)
    return [tuple(Fraction(x, echelon.last_pivot()) for x in v) for v in echelon.kernel()]


def test_kernel_basis_properties():
    rng = random.Random(11)
    for _ in range(200):
        n_rows = rng.randint(0, 4)
        n_cols = rng.randint(1, 5)
        rows = [[rnd_fraction(rng) for _ in range(n_cols)] for _ in range(n_rows)]
        basis = echelon_kernel(rows, n_cols)
        assert len(basis) == n_cols - rank(rows)
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0
        if basis:
            assert rank(basis) == len(basis)


def test_kernel_of_empty_matrix_is_everything():
    basis = echelon_kernel([], 3)
    assert len(basis) == 3
    assert rank(basis) == 3


def reference_kernel_basis(rows, n_cols):
    # Gauss-Jordan to reduced row echelon form over Fractions, then one
    # vector per free column read off the reduced rows: the oracle for
    # back-substitution on the Bareiss echelon rows
    M = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[r])]
        pivots.append(c)
    basis = []
    for free in range(n_cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * n_cols
        v[free] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -M[r][free]
        basis.append(tuple(v))
    return basis


def test_kernel_basis_matches_reduced_echelon_reference():
    # a zero first column and a proportional second row: one pivot, in
    # column 1, and free columns 0 and 2
    assert echelon_kernel([[0, 1, 2], [0, 2, 4]], 3) == [
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(-2), Fraction(1)),
    ]
    rng = random.Random(13)
    deficient = empty = 0
    for _ in range(3000):
        n_rows = rng.randint(0, 6)
        n_cols = rng.randint(1, 7)
        # about 40% zero entries, so zero columns and dependent rows occur
        rows = [[Fraction(0) if rng.random() < 0.4 else rnd_fraction(rng) for _ in range(n_cols)]
                for _ in range(n_rows)]
        basis = echelon_kernel(rows, n_cols)
        assert basis == reference_kernel_basis(rows, n_cols)
        assert all(type(x) is Fraction for v in basis for x in v)
        deficient += len(basis) > max(n_cols - n_rows, 0)
        empty += not rows
    assert deficient > 0 and empty > 0


def _oracle_matrix(rng, kind):
    """A seeded matrix of the given kind, as Fraction rows."""
    def entry():
        return Fraction(0) if rng.random() < 0.3 else rnd_fraction(rng)

    n_cols = rng.randint(1, 6)
    if kind == "square":
        n_rows = n_cols
    elif kind == "tall":
        n_rows = n_cols + rng.randint(1, 3)
    else:
        n_rows = rng.randint(0, 6)
    rows = [[entry() for _ in range(n_cols)] for _ in range(n_rows)]
    if kind == "zero rows" and rows:
        for i in rng.sample(range(n_rows), rng.randint(1, n_rows)):
            rows[i] = [Fraction(0)] * n_cols
    elif kind == "deficient" and n_rows >= 2:
        # the last row is a combination of two earlier ones
        a, b = rnd_fraction(rng), rnd_fraction(rng)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[rng.randrange(n_rows - 1)])]
    elif kind == "out of order":
        # the rows start at distinct columns in random order, so the pivots
        # come out of column order and det's sign depends on it
        starts = rng.sample(range(n_cols), min(n_rows, n_cols))
        starts += [0] * (n_rows - len(starts))
        rows = [[Fraction(0)] * c + [rnd_fraction(rng) or Fraction(1)]
                + [entry() for _ in range(n_cols - c - 1)] for c in starts]
    return rows


def test_elimination_matches_column_scan_oracle():
    # the row-at-a-time reduction against the whole-matrix column scan it
    # replaced: equal ranks, determinants, kernel bases and solutions, and
    # the same pivot columns whatever order the rows come in
    rng = random.Random(61)
    kinds = ("zero rows", "deficient", "tall", "square", "out of order", "integer")
    seen = dict.fromkeys(("deficient", "unordered pivots", "negative sign", "singular solve"), 0)
    for trial in range(3000):
        kind = kinds[trial % len(kinds)]
        rows = _oracle_matrix(rng, kind)
        if kind == "integer":
            rows = _integer_rows(rows)[0]
        n_cols = len(rows[0]) if rows else rng.randint(1, 4)
        assert rank(rows) == column_scan_rank(rows)
        assert echelon_kernel(rows, n_cols) == column_scan_kernel_basis(rows, n_cols)
        seen["deficient"] += rank(rows) < min(len(rows), n_cols)
        M, _ = _integer_rows(rows)
        echelon = Echelon(n_cols)
        for row in M:
            echelon.add(row)
        expected = column_scan_bareiss([list(row) for row in M])[0] if M else []
        assert sorted(echelon.pivots) == expected
        seen["unordered pivots"] += echelon.pivots != expected
        if len(rows) != n_cols:
            continue
        value = det(rows)
        assert value == column_scan_det(rows)
        seen["negative sign"] += value != 0 and echelon.pivots != sorted(echelon.pivots)
        # solve takes the skew part M - M^T, at the scale |Pf| it reads
        # off its own last pivot
        S = [[x - y for x, y in zip(row, col)] for row, col in zip(M, zip(*M))]
        pf = abs(int(pfaffian(S)))
        columns = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(rng.randint(1, 2))]
        expected = column_scan_solve(S, columns, pf)
        if expected is None:
            assert solve(S, columns) is None
            seen["singular solve"] += 1
        else:
            assert solve(S, columns) == (pf, expected)
    assert all(count > 20 for count in seen.values()), seen


def test_back_substitution_band_matches_column_scan_oracle():
    # kernel_vector's dot product runs over each held row from its pivot to
    # the last pivot column, plus the free column when it lies past them;
    # against the column scan's full-width back-substitution: kernels of
    # rank-deficient and wide integer matrices, rows ordered so that a
    # later row takes an earlier pivot column, and solves with up to
    # 2 * size columns at the Pfaffian scale
    rng = random.Random(71)
    seen = dict.fromkeys(("deficient", "wide", "earlier pivot", "free past the pivots"), 0)
    for trial in range(600):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 8)
        # a product through inner columns has rank at most inner
        inner = rng.randint(0, min(n_rows, n_cols)) if trial % 2 else max(n_rows, n_cols)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(n_rows)]
        right = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(inner)]
        rows = [[sum(a * r[j] for a, r in zip(row, right)) for j in range(n_cols)] for row in left]
        if trial % 3 == 0:  # by leading column, last first
            rows.sort(key=lambda row: next((j for j, x in enumerate(row) if x), n_cols), reverse=True)
        echelon = Echelon(n_cols)
        for row in rows:
            echelon.add(row)
        assert echelon_kernel(rows, n_cols) == column_scan_kernel_basis(rows, n_cols)
        pivots = echelon.pivots
        seen["deficient"] += len(pivots) < min(n_rows, n_cols)
        seen["wide"] += n_rows < n_cols
        seen["earlier pivot"] += pivots != sorted(pivots)
        seen["free past the pivots"] += max(pivots, default=-1) < n_cols - 1
    solved = 0
    for size in (2, 4, 6, 8):
        for _ in range(20):
            A = random_skew(rng, size, 4)
            pf = abs(int(pfaffian(A)))
            if not pf:
                continue
            columns = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(rng.randint(1, 2 * size))]
            assert solve(A, columns) == (pf, column_scan_solve(A, columns, pf))
            if pf > 1:
                # A^-1 is integral only when det A = Pf(A)^2 is 1, so at
                # scale 1 some unit column leaves a remainder
                units = [[int(a == b) for a in range(size)] for b in range(size)]
                echelon = Echelon(3 * size)
                for a, row in enumerate(A):
                    echelon.add(row + [col[a] for col in units * 2])
                with pytest.raises(ConsistencyError):
                    for j in range(2 * size):
                        echelon.kernel_vector(size + j, -1)
            solved += 1
    assert solved > 40 and all(count > 30 for count in seen.values()), (solved, seen)


def test_echelon_grows_by_rows():
    # a row in the span of the held rows is not held, and the pivots are
    # each row's first column left nonzero
    echelon = Echelon(3)
    assert echelon.add([0, 2, 4])
    assert not echelon.add([0, 1, 2])
    assert not echelon.add([0, 0, 0])
    assert echelon.add([3, 1, 0])
    assert echelon.pivots == [1, 0]
    assert echelon.add([1, 1, 1])
    assert not echelon.add([5, -7, 11])
    assert echelon.pivots == [1, 0, 2]
    # the last pivot is the determinant with the columns in pivot order
    assert echelon.last_pivot() == -det([[0, 2, 4], [3, 1, 0], [1, 1, 1]])
    assert Echelon(2).last_pivot() == 1


def test_held_rows_are_full_width_echelon_rows():
    # the back-substitution's dot product relies on each held row being
    # full width, zero before its pivot and at the pivots held before it;
    # tall, wide and rank-deficient matrices, rows added in shuffled order
    rng = random.Random(24)
    shapes = {"tall": 0, "wide": 0, "deficient": 0}
    for trial in range(600):
        n_rows, n_cols = rng.randint(1, 7), rng.randint(1, 7)
        # a product through inner columns has rank at most inner
        inner = rng.randint(0, min(n_rows, n_cols) - 1) if trial % 3 == 0 else max(n_rows, n_cols)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(n_rows)]
        right = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(inner)]
        rows = [[sum(a * r[j] for a, r in zip(row, right)) for j in range(n_cols)] for row in left]
        rng.shuffle(rows)
        echelon = Echelon(n_cols)
        for row in rows:
            echelon.add(row)
        shapes["tall"] += n_rows > n_cols
        shapes["wide"] += n_rows < n_cols
        shapes["deficient"] += len(echelon.pivots) < min(n_rows, n_cols)
        for k, (held, c, p) in enumerate(zip(echelon._rows, echelon.pivots, echelon._heads)):
            assert len(held) == n_cols
            assert held[c] == p != 0
            assert not any(held[:c])
            assert not any(held[j] for j in echelon.pivots[:k])
        free_columns = [j for j in range(n_cols) if j not in echelon.pivots]
        scale = echelon.last_pivot()
        kernel = echelon.kernel()  # kernel_vector with the last pivot at each free column
        assert len(kernel) == len(free_columns)
        for free, v in zip(free_columns, kernel):
            assert [v[j] for j in free_columns] == [scale if j == free else 0 for j in free_columns]
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in rows)
    assert all(count > 50 for count in shapes.values()), shapes


def test_normalize_primitive():
    assert normalize_primitive([Fraction(1, 2), Fraction(-1, 2)]) == (1, -1)
    assert normalize_primitive([Fraction(-2), Fraction(4)]) == (1, -2)
    assert normalize_primitive([Fraction(0), Fraction(0)]) == (0, 0)
    assert normalize_primitive([Fraction(2, 3), Fraction(4, 3)]) == (1, 2)
