"""Reference formulas and operations that only the tests use.

The jet-fiber formulas expand the dependence forms
alpha_1 ^ ... ^ alpha_m ^ omega_i^k through the exterior algebra (wedge,
wedge_power) and by arrangement sums, independently of the Pfaffian
extraction in nonholonomy.singularity; the tests and the acceptance
criteria check the fast path against them. direct_extraction takes every
Pfaffian minor of that extraction one by one, the direct-minor loop that
one linalg.pfaffian_minors per form replaced for every value of b_first,
and direct_pfaffian_minors takes the minors one order below the top of
any skew matrix, of either parity, one linalg.pfaffian each: the oracle
for pfaffian_minors at every corank. closed_form_multipliers takes the
probe's c from the values of b_first, which the probe reads only as zero
or not, off its solves. interior_product is the
contraction behind the Leibniz-rule axiom of criterion 1, and
pointwise_kernel the exact pointwise kernel that symbolic frames are
cross-checked against; it and evaluate_field, independent_by_fractions
and derived_flag_by_fractions evaluate one point at a time in Fractions,
through poly_eval, the path that the compiled integer evaluation replaced.
first_rank_drop_by_fractions is the point-by-point rank guard that the
wedge checks now run only where their forms vanish;
witness_first_verdict is the wedge checks' earlier order, which ranked
every point before it sought the certificate, and flag_route_dlo_verdict
decides derived length one by brackets, the route that the restricted
grid replaced where the presentation is proved of constant rank;
pivot_subset_by_fractions proposes the columns of the pivot-guided
constant minor by Fraction ranks; laplace_det expands a polynomial
determinant by cofactors, the m! products that forms._poly_det's one
elimination replaced; and cramer_kernel_frame solves the kernel frame's
slots by Cramer's rule on laplace_det, the r * m symbolic determinants
that one elimination of [G_S | I] replaced. sample_points_by_fractions builds the
sample set as Fraction points, the path that the lazy integer draw
replaced; fiber_by_fractions draws a fiber with a new Fraction per entry,
the path that the table of small rationals replaced; and
grid_rows_by_products evaluates an IntegerGrid's rows with
each monomial a product of powers, the evaluation that its trie replaced.
column_scan_bareiss is the whole-matrix elimination that linalg.Echelon's
row-at-a-time reduction replaced, with the rank, det, kernel basis and
solve built on it; the derived-flag oracle ranks with it, and
pointwise_kernel takes its kernel basis, a reference for Echelon.kernel.
"""

import random
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import factorial, gcd, lcm, prod

from nonholonomy.algebra import Chart, IntegerGrid, Polynomial, _integer_point, poly_eval
from nonholonomy.distributions import (
    Verdict, _SpanningSets, _check_coframe, _flag_ranks, _fraction_point, _rank_drop, _sample_set,
)
from nonholonomy.errors import InputError
from nonholonomy.forms import (
    DiffForm,
    VectorField,
    _constant_minor,
    _grid,
    _probe_points,
    constant_minor_certificate,
    dependent_points,
    lie_bracket,
    wedge,
    wedge_all,
    wedge_power,
)
from nonholonomy.linalg import _integer_rows, pfaffian, rank
from nonholonomy.singularity import CExtraction, FiberPoint


def interior_product(field: VectorField, a: DiffForm) -> DiffForm:
    """Contraction of a form with a vector field in the first slot."""
    if isinstance(a, Polynomial) or a.degree == 0:
        raise InputError("interior product needs a form of degree >= 1")
    if field.chart != a.chart:
        raise InputError("field and form live on different charts")
    out = DiffForm.zero(a.chart, a.degree - 1)
    for key, coeff in a.terms.items():
        for slot, idx in enumerate(key):
            comp = field.components[idx - 1]
            if comp.is_zero():
                continue
            contrib = coeff * comp
            if slot % 2:
                contrib = -contrib
            new_key = key[:slot] + key[slot + 1:]
            total = out.terms.get(new_key)
            total = contrib if total is None else total + contrib
            if total.is_zero():
                out.terms.pop(new_key, None)
            else:
                out.terms[new_key] = total
    return out


def pointwise_kernel(coframe, point):
    """Exact basis of the joint kernel of the coframe at a point.

    An empty coframe means no constraints: the full coordinate basis. A
    coframe that drops rank at the point raises
    DegeneratePresentationError.
    """
    coframe = list(coframe)
    if not coframe:
        chart_n = len(tuple(point))
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(chart_n))
                for i in range(chart_n)]
    coframe, chart = _check_coframe(coframe)
    point = tuple(point)
    zero = Polynomial.zero(chart)
    rows = [[poly_eval(form.terms.get((j,), zero), point) for j in range(1, chart.n + 1)]
            for form in coframe]
    if rank(rows) != len(coframe):
        raise _rank_drop("coframe", point)
    return column_scan_kernel_basis(rows, chart.n)


def column_scan_bareiss(M):
    """Fraction-free elimination of integer rows, in place, to echelon form,
    one pivot column at a time with row swaps.

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


def column_scan_rank(rows) -> int:
    M, _ = _integer_rows(rows)
    return len(column_scan_bareiss(M)[0]) if M and M[0] else 0


def column_scan_det(rows) -> Fraction:
    M, scale = _integer_rows(rows)
    if not M:
        return Fraction(1)
    pivots, pivot = column_scan_bareiss(M)
    return Fraction(pivot, scale) if len(pivots) == len(M) else Fraction(0)


def _column_scan_back_substitute(M, pivots, n_cols, free, scale):
    # bottom-up through the echelon rows; the caller's scale makes it exact
    v = [0] * n_cols
    v[free] = scale
    for row, p in reversed(list(zip(M, pivots))):
        value, remainder = divmod(-sum(row[j] * v[j] for j in range(p + 1, n_cols)), row[p])
        assert not remainder
        v[p] = value
    return v


def column_scan_kernel_basis(rows, n_cols: int):
    M, _ = _integer_rows(rows)
    pivots, last = column_scan_bareiss(M) if M and n_cols else ([], 1)
    return [
        tuple(Fraction(x, last) for x in _column_scan_back_substitute(M, pivots, n_cols, free, last))
        for free in range(n_cols)
        if free not in pivots
    ]


def column_scan_solve(rows, columns, scale: int):
    """The columns of scale * A^-1 * B, or None for a singular A."""
    size = len(rows)
    M = [list(row) + [col[a] for col in columns] for a, row in enumerate(rows)]
    pivots = column_scan_bareiss(M)[0] if M else []
    if pivots != list(range(size)):
        return None
    n_cols = size + len(columns)
    return [_column_scan_back_substitute(M, pivots, n_cols, size + j, -scale)[:size]
            for j in range(len(columns))]


def evaluate_field(field: VectorField, point):
    """The components of a field at a point, as Fractions."""
    return tuple(poly_eval(c, point) for c in field.components)


def independent_by_fractions(forms, point) -> bool:
    """Same-degree forms independent at the point, by poly_eval of each
    coefficient and the rank of the Fraction rows."""
    forms = list(forms)
    if not forms:
        return True
    columns = sorted(set().union(*(f.terms.keys() for f in forms)))
    if not columns:
        return False
    zero = Polynomial.zero(forms[0].chart)
    rows = [[poly_eval(form.terms.get(c, zero), point) for c in columns] for form in forms]
    return rank(rows) == len(forms)


def squaring_wedge_power(form, k):
    """The k-th wedge power of a 2-form by binary exponentiation: whole
    powers of the form wedged together, the form^(2^j) by squaring."""
    result = None
    base = form
    while k:
        if k & 1:
            result = base if result is None else wedge(result, base)
        k >>= 1
        if k:
            base = wedge(base, base)
    return result


def first_rank_drop_by_fractions(forms, points):
    """The first point, as a tuple, at which same-degree forms are
    dependent, testing one point at a time by independent_by_fractions;
    None when there is none."""
    return next((tuple(p) for p in points if not independent_by_fractions(forms, p)), None)


GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


def sample_points_by_fractions(chart, seed=0):
    """The sample set as a list of tuples of Fractions: the first 200 points
    of the grid over GRID_VALUES in lexicographic order, then 100 points of
    fraction_draw coordinates seeded by seed."""
    points = list(islice(product(GRID_VALUES, repeat=chart.n), 200))
    rng = random.Random(seed)
    for _ in range(100):
        points.append(tuple(fraction_draw(rng) for _ in range(chart.n)))
    return points


def grid_rows_by_products(grid, q):
    """The rows of IntegerGrid(chart, grid) at the integer row
    q_1, ..., q_n, D of the point q/D: each row's coefficients cleared by the
    lcm of their denominators, and each monomial the product of the powers
    q_j^e_j and D^(dmax - deg), dmax the grid's top degree."""
    top = max((sum(e) for row in grid for p in row for e in p.terms), default=0)
    out = []
    for row in grid:
        scale = lcm(*(c.denominator for p in row for c in p.terms.values()))
        out.append([sum(c.numerator * (scale // c.denominator)
                        * prod(x ** e for x, e in zip(q, exps + (top - sum(exps),)))
                        for exps, c in p.terms.items())
                    for p in row])
    return out


def direct_pfaffian_minors(A):
    """The Pfaffian minors one order below the top of the skew matrix A, each
    by linalg.pfaffian: for odd size the vector of (-1)^a Pf(A without a),
    for even size the skew matrix of (-1)^(a+b) Pf(A without a, b), a < b.
    The path that linalg.pfaffian_minors's elimination by corank replaced,
    in the extraction's one-form branch and for the certificate's minors
    of a polynomial W_i at k >= 3."""
    size = len(A)
    zero = 0 * A[0][0] if A else 0

    def pf(*omit):
        keep = [c for c in range(size) if c not in omit]
        return pfaffian([[A[a][b] for b in keep] for a in keep])

    if size % 2:
        return [(-1) ** a * pf(a) for a in range(size)]
    P = [[zero] * size for _ in range(size)]
    for a, b in combinations(range(size), 2):
        P[a][b] = (-1) ** (a + b) * pf(a, b)
        P[b][a] = -P[a][b]
    return P


def witness_first_verdict(coframe, omegas, k, points, seed):
    """The wedge checks' verdict by the earlier order: rank the forms
    a_1^...^a_q^(omega_i)^k at every point, guard the coframe at the rank-0
    points, and seek the certificate only when no point is a witness."""
    chart = coframe[0].chart
    if points is None:
        points = sample_points_by_fractions(chart, seed)
    points = [tuple(p) for p in points]
    base = wedge_all(coframe)
    forms = [wedge(base, wedge_power(w, k)) for w in omegas]
    grid = IntegerGrid(chart, _grid(forms, "independence check"))
    rows = [_integer_point(p, chart.n) for p in points]
    ranks = [rank(list(grid.at(q))) for q in rows]
    dropped = list(dependent_points(coframe, [q for q, r in zip(rows, ranks) if not r]))
    if dropped:
        raise _rank_drop("coframe", _fraction_point(dropped[0]))
    witnesses = tuple(p for p, r in zip(points, ranks) if r < len(forms))
    certificate = not witnesses and constant_minor_certificate(forms)
    return Verdict(not witnesses, len(points), witnesses, certificate)


def flag_route_dlo_verdict(dist, points=None, seed=0):
    """has_derived_length_one by the first two levels of the derived flag,
    built afresh from the spanning frame: a point is a witness unless its
    flag reads [r, n] ([n] at rank n), and a first level below r raises."""
    size, rows = _sample_set(dist.chart, points, seed)
    spans = _SpanningSets(dist.spanning_frame())
    n = dist.chart.n
    expected = (n,) if dist.rank == n else (dist.rank, n)
    witnesses = []
    for q in rows:
        ranks, _ = _flag_ranks(spans, n, q, 2)
        if ranks[0] < dist.rank:
            raise _rank_drop("frame", _fraction_point(q))
        if ranks != expected:
            witnesses.append(_fraction_point(q))
    return Verdict(not witnesses, size, tuple(witnesses))


def pivot_subset_by_fractions(grid):
    """The column subset, sorted, that the pivot-guided constant-minor
    candidate proposes for a polynomial grid: the columns in order of the
    top total degree of their entries (constants first, ties by index), each
    kept when it raises the column-scan rank of the kept Fraction columns at
    the first probe point. None when fewer than len(grid) columns are kept."""
    point = _probe_points(grid[0][0].chart.n)[0]
    values = [[poly_eval(p, point) for p in row] for row in grid]

    def degree(c):
        return max((sum(e) for row in grid for e in row[c].terms), default=-1)

    kept = []
    for c in sorted(range(len(grid[0])), key=lambda c: (degree(c), c)):
        if column_scan_rank([[row[j] for j in kept + [c]] for row in values]) > len(kept):
            kept.append(c)
    return tuple(sorted(kept)) if len(kept) == len(grid) else None


def laplace_det(matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials by Laplace expansion
    along the first row, m! products: the path that forms._poly_det's one
    elimination replaced."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].chart)
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        cofactor = entry * laplace_det(minor)
        total = total + (cofactor if col % 2 == 0 else -cofactor)
    return total


def cramer_kernel_frame(grid):
    """forms.kernel_frame by Cramer's rule: with the block G_S of constant
    determinant that forms._constant_minor finds, the field of a column j
    outside S has 1 in slot j and -det(G_S with column s replaced by column
    j) / det G_S in each slot s of S, every determinant by laplace_det.
    None when there is no such block."""
    found = _constant_minor(grid)
    if found is None:
        return None
    subset, block = found
    det_value = laplace_det(block).constant_value()
    chart = grid[0][0].chart
    n = len(grid[0])
    fields = []
    for j in (j for j in range(n) if j not in subset):
        comps = [Polynomial.zero(chart)] * n
        comps[j] = Polynomial.constant(chart, 1)
        for col in subset:
            replaced = [[row[j] if c == col else row[c] for c in subset] for row in grid]
            comps[col] = laplace_det(replaced) * Fraction(-1, det_value)
        fields.append(VectorField(chart, comps))
    return fields


def derived_flag_by_fractions(dist, point, depth_cap=None):
    """(ranks, stabilized) of the derived flag at a point, with the rule of
    derived_flag_at: each level's new brackets, over ordered pairs, are
    evaluated in Fractions and all rows ranked by the column scan, until the
    rank is n, repeats (stabilized only if the level added no bracket) or
    the cap, if one is given, is reached."""
    n = dist.chart.n
    frame = list(dist.spanning_frame())
    added, rows, ranks = frame, [], []
    while True:
        rows += [evaluate_field(f, point) for f in added]
        ranks.append(column_scan_rank(rows))
        if ranks[-1] == n:
            return tuple(ranks), True
        if len(ranks) > 1 and ranks[-1] == ranks[-2]:
            return tuple(ranks), not added
        if depth_cap is not None and len(ranks) >= depth_cap:
            return tuple(ranks), False
        added = [b for g in frame for f in added if not (b := lie_bracket(g, f)).is_zero()]


_fiber_charts = {}


def fiber_chart(n: int) -> Chart:
    """The base chart x1..xn the fiber forms live on."""
    if n not in _fiber_charts:
        _fiber_charts[n] = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    return _fiber_charts[n]


def fraction_draw(rng):
    """random_rational's draw with a new Fraction built from its two rng
    calls, the path that the table of small rationals replaced."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def fiber_by_fractions(n, k, rng, include_principal=True):
    """FiberPoint.random as it was before it filled a and z itself: every
    entry a fraction_draw, the whole fiber validated by the constructor."""
    m = n - 2 * k - 1
    a = {(i, j): fraction_draw(rng) for i in range(1, m + 1) for j in range(1, n + 1)}
    z = {}
    for i in range(1, m + 1):
        for j, l in combinations(range(1, n + 1), 2):
            if j == 1 and not include_principal:
                continue
            z[(i, j, l)] = fraction_draw(rng)
    return FiberPoint(n, k, a, z)


def alpha_form(fp: FiberPoint, i: int, chart: Chart = None) -> DiffForm:
    """The i-th 1-form sum_j a^i_j dx_j on the fiber chart."""
    terms = {(j,): fp.a_entry(i, j) for j in range(1, fp.n + 1)}
    return DiffForm(chart or fiber_chart(fp.n), 1, terms)


def omega_form(fp: FiberPoint, i: int, chart: Chart = None) -> DiffForm:
    """The i-th 2-form sum_{j<l} z^i_{jl} dx_j ^ dx_l."""
    terms = {(j, l): fp.z_entry(i, j, l) for j, l in combinations(range(1, fp.n + 1), 2)}
    return DiffForm(chart or fiber_chart(fp.n), 2, terms)


def _perm_sign(seq) -> int:
    inversions = 0
    for s, t in combinations(range(len(seq)), 2):
        if seq[s] > seq[t]:
            inversions += 1
    return -1 if inversions % 2 else 1


def a_coefficients(fp: FiberPoint, i: int):
    """Wedge-power coefficients A^i over increasing 2k-tuples.

    A^i_J sums sign(L) * z^i_{l1 l2} ... z^i_{l(2k-1) l(2k)} over all
    arrangements L of J whose consecutive pairs ascend (l1 < l2, l3 < l4,
    ...). This equals the coefficient of dx_J in wedge_power(omega_i, k),
    multiplicity k! included; the equality is pinned in the test suite.
    Zero coefficients are dropped.
    """
    if not 1 <= i <= fp.m:
        raise InputError("form index %d out of range 1..%d" % (i, fp.m))
    out = {}
    width = 2 * fp.k
    for subset in combinations(range(1, fp.n + 1), width):
        total = Fraction(0)
        for arrangement in permutations(subset):
            if any(arrangement[t] > arrangement[t + 1] for t in range(0, width, 2)):
                continue
            value = _perm_sign(arrangement)
            for t in range(0, width, 2):
                entry = fp.z_entry(i, arrangement[t], arrangement[t + 1])
                if entry == 0:
                    value = 0
                    break
                value = value * entry
            if value == 0:
                continue
            total = total + value
        if total != 0:
            out[subset] = total
    return out


def dependence_form(fp: FiberPoint, i: int, chart: Chart = None) -> DiffForm:
    """alpha_1 ^ ... ^ alpha_m ^ (omega_i)^k as an (n-1)-form."""
    chart = chart or fiber_chart(fp.n)
    factors = [alpha_form(fp, j, chart) for j in range(1, fp.m + 1)]
    factors.append(wedge_power(omega_form(fp, i, chart), fp.k))
    return wedge_all(factors)


def b_coefficients(fp: FiberPoint, i: int):
    """B^i_r, r = 1..n: the coefficient of the monomial omitting dx_r in the
    dependence form. Computed by direct exterior expansion; the permutation
    formula lives in the test suite as the independent cross-check. The
    fiber must be numeric: a coefficient that is not a constant raises
    InputError."""
    form = dependence_form(fp, i)
    out = []
    for r in range(1, fp.n + 1):
        key = tuple(j for j in range(1, fp.n + 1) if j != r)
        out.append(form.coefficient(key).constant_value())
    return out


def direct_extraction(fp: FiberPoint) -> CExtraction:
    """extract_c_coefficients(fp) with every Pfaffian minor of each form's
    M = [[Z, A^T], [-A, 0]] (principal entries w = 0) taken directly, in
    Fractions: b_first = s Pf(M without 1), C-bar_r = s Pf(M without r),
    and for 2 <= r < mu, with P = Pf(M without 1, r, mu), C_r(mu) =
    (-1)^(mu+1) s P and C_mu(r) = (-1)^r s P."""
    n, k, m = fp.n, fp.k, fp.m
    scale = (-1) ** (m * (m - 1) // 2) * factorial(k)
    principal = range(2, n + 1)
    b_first = {}
    cbar = {}
    cmat = {}
    for i in range(1, m + 1):
        M = [[Fraction(0)] * (n + m) for _ in range(n + m)]
        for (f, j, l), value in fp.z.items():
            if f == i and j != 1:
                M[j - 1][l - 1], M[l - 1][j - 1] = value, -value
        for (t, j), value in fp.a.items():
            M[j - 1][n + t - 1], M[n + t - 1][j - 1] = value, -value

        def pf(*omit):
            keep = [c for c in range(n + m) if c + 1 not in omit]
            return scale * pfaffian([[M[a][b] for b in keep] for a in keep])

        b_first[i] = pf(1)
        for r in principal:
            cbar[(i, r)] = pf(r)
            cmat[(i, r, r)] = Fraction(0)
        for r, mu in combinations(principal, 2):
            value = pf(1, r, mu)
            cmat[(i, r, mu)] = -value if mu % 2 == 0 else value
            cmat[(i, mu, r)] = -value if r % 2 else value
    return CExtraction(b_first, cbar, cmat)


def normalize_primitive(vec):
    """Scale a rational vector to integers with gcd 1 and first nonzero entry
    positive. The zero vector comes back as integer zeros."""
    vec = [Fraction(x) for x in vec]
    if not any(vec):
        return tuple(0 for _ in vec)
    scale = lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def closed_form_multipliers(b_first, m):
    """c, the first kernel vector of the row (b_first^1, ..., b_first^m),
    whose pivot is its first nonzero column: e_1 when b_first^1 == 0, else
    the primitive (-b_first^2, b_first^1, 0, ...), or None when m = 1. The
    probe's choice of c, read here from the values of b_first that the
    probe itself reads only as zero or not."""
    if not b_first[1]:
        return (1,) + (0,) * (m - 1)
    if m == 1:
        return None
    return normalize_primitive((-b_first[2], b_first[1]) + (0,) * (m - 2))


def pseudo_symmetry_check(cmat):
    """True iff C^i_r(mu) = ±C^i_mu(r) exactly for every i and r != mu; the
    realized sign table maps (i, r, mu) with r < mu to +1, -1, or 0 for a
    zero pair."""
    indices = sorted(cmat)
    ok = True
    signs = {}
    seen_i = sorted({i for (i, _, _) in indices})
    rs = sorted({r for (_, r, _) in indices})
    for i in seen_i:
        for r, mu in combinations(rs, 2):
            left = cmat.get((i, r, mu), Fraction(0))
            right = cmat.get((i, mu, r), Fraction(0))
            if left == right == 0:
                signs[(i, r, mu)] = 0
            elif left == right:
                signs[(i, r, mu)] = 1
            elif left == -right:
                signs[(i, r, mu)] = -1
            else:
                signs[(i, r, mu)] = None
                ok = False
    return ok, signs
