"""Sparse exterior calculus on a coordinate chart.

A differential form of degree p stores a map from strictly increasing
1-based index tuples of length p to polynomial coefficients; the tuple
(i1, ..., ip) stands for dx_{i1} ^ ... ^ dx_{ip}. Vector fields store one
polynomial component per coordinate. All coefficients are exact rationals,
so independence checks below are decisions, not estimates.

Pointwise checks compile a form's coefficient grid once into an
algebra.IntegerGrid and take the fraction-free rank of its integer rows at
each point, itself given as the integer row q_1, ..., q_n, D of q/D;
evaluate_at_point is the plain Fraction evaluation. A nonzero constant
maximal minor of the grid proves independence at every point at once. One
search looks for it (_constant_minor), and tries one column subset: the
pivot candidate, proposed by one elimination. It finds a constant minor
whenever the grid's constant columns alone have full rank, as they do for
a coframe with an identity block; a constant minor that needs a
non-constant column, by cancellation, is not sought.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import Chart, IntegerGrid, Polynomial, _integer_point, poly_diff, poly_eval, signed_sum
from .errors import InputError
from .linalg import Echelon, det, rank


def sort_with_sign(indices):
    """Sort an index tuple, returning (sorted_tuple, sign of the permutation).

    Returns None when an index repeats: the exterior monomial vanishes.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return tuple(idx), sign


def _as_poly(chart: Chart, value) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.chart != chart:
            raise InputError("coefficient lives on a different chart")
        return value
    return Polynomial.constant(chart, value)


class DiffForm:
    """A differential form of fixed degree with polynomial coefficients."""

    __slots__ = ("chart", "degree", "terms")

    def __init__(self, chart: Chart, degree: int, terms=None):
        if degree < 0:
            raise InputError("form degree must be non-negative")
        self.chart = chart
        self.degree = degree
        clean = {}
        if terms:
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != degree:
                    raise InputError("index tuple %r has wrong length for degree %d" % (key, degree))
                if any(not 1 <= i <= chart.n for i in key):
                    raise InputError("index out of range in %r" % (key,))
                if any(a >= b for a, b in zip(key, key[1:])):
                    raise InputError("index tuple %r is not strictly increasing" % (key,))
                coeff = _as_poly(chart, coeff)
                if not coeff.is_zero():
                    clean[key] = coeff
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, chart: Chart, degree: int) -> "DiffForm":
        return cls(chart, degree)

    @classmethod
    def from_polynomial(cls, poly: Polynomial) -> "DiffForm":
        return cls(poly.chart, 0, {(): poly})

    @classmethod
    def basis(cls, chart: Chart, *indices) -> "DiffForm":
        """dx_{i1} ^ ... ^ dx_{ip} for names or 1-based indices."""
        resolved = tuple(chart.index(i) if isinstance(i, str) else i for i in indices)
        packed = sort_with_sign(resolved)
        if packed is None:
            return cls(chart, len(resolved))
        key, sign = packed
        return cls(chart, len(key), {key: Polynomial.constant(chart, sign)})

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Polynomial:
        return self.terms.get(tuple(key), Polynomial.zero(self.chart))

    # -- arithmetic -------------------------------------------------------

    def _check_mate(self, other):
        if self.chart != other.chart:
            raise InputError("forms live on different charts")
        if self.degree != other.degree:
            raise InputError(
                "cannot add forms of degrees %d and %d" % (self.degree, other.degree)
            )

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_mate(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key)
            total = coeff if total is None else total + coeff
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total
        out = DiffForm.__new__(DiffForm)
        out.chart, out.degree, out.terms = self.chart, self.degree, terms
        return out

    def __neg__(self):
        out = DiffForm.__new__(DiffForm)
        out.chart, out.degree = self.chart, self.degree
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_mate(other)
        return self + (-other)

    def __mul__(self, other):
        """Multiplication by a scalar or polynomial."""
        if isinstance(other, DiffForm):
            return NotImplemented
        factor = _as_poly(self.chart, other)
        out = DiffForm.__new__(DiffForm)
        out.chart, out.degree = self.chart, self.degree
        out.terms = {}
        for key, coeff in self.terms.items():
            prod = coeff * factor
            if not prod.is_zero():
                out.terms[key] = prod
        return out

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        return (
            self.chart == other.chart
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.chart, self.degree, frozenset(self.terms.items())))

    def __str__(self):
        parts = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            basis = "^".join("d" + self.chart.names[i - 1] for i in key)
            if not basis:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(basis)
            elif coeff == -1:
                parts.append("-" + basis)
            elif len(coeff.terms) > 1:
                parts.append("(%s)*%s" % (coeff, basis))
            else:
                parts.append("%s*%s" % (coeff, basis))
        return signed_sum(parts)

    def __repr__(self):
        return "DiffForm(%s)" % self


class VectorField:
    """A vector field as a tuple of polynomial components, one per coordinate."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, components):
        components = tuple(_as_poly(chart, c) for c in components)
        if len(components) != chart.n:
            raise InputError(
                "%d components do not match chart of dimension %d"
                % (len(components), chart.n)
            )
        self.chart = chart
        self.components = components

    @classmethod
    def basis(cls, chart: Chart, name_or_index) -> "VectorField":
        i = chart.index(name_or_index) if isinstance(name_or_index, str) else name_or_index
        if not 1 <= i <= chart.n:
            raise InputError("index %d out of range 1..%d" % (i, chart.n))
        comps = [Polynomial.zero(chart)] * chart.n
        comps[i - 1] = Polynomial.constant(chart, 1)
        return cls(chart, comps)

    def apply(self, p: Polynomial) -> Polynomial:
        """Directional derivative X(p) = sum_i X_i dp/dx_i."""
        if p.chart != self.chart:
            raise InputError("polynomial lives on a different chart")
        total = Polynomial.zero(self.chart)
        for i, comp in enumerate(self.components, start=1):
            if not comp.is_zero():
                total = total + comp * poly_diff(p, i)
        return total

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if other.chart != self.chart:
            raise InputError("fields live on different charts")
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.components])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, VectorField):
            return NotImplemented
        factor = _as_poly(self.chart, other)
        return VectorField(self.chart, [c * factor for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self.components == other.components

    def __str__(self):
        parts = []
        for name, comp in zip(self.chart.names, self.components):
            if comp.is_zero():
                continue
            if comp == 1:
                parts.append("@" + name)
            elif comp == -1:
                parts.append("-@" + name)
            elif len(comp.terms) > 1:
                parts.append("(%s)*@%s" % (comp, name))
            else:
                parts.append("%s*@%s" % (comp, name))
        return signed_sum(parts)

    def __repr__(self):
        return "VectorField(%s)" % self


# -- operations -----------------------------------------------------------


def _wedge_into(terms, a_terms, b_terms):
    """Add the exterior product of two term maps, given as (key,
    coefficient) pairs, into the term map terms, in place."""
    for key_a, coeff_a in a_terms:
        for key_b, coeff_b in b_terms:
            packed = sort_with_sign(key_a + key_b)
            if packed is None:
                continue
            key, sign = packed
            contrib = coeff_a * coeff_b
            if sign < 0:
                contrib = -contrib
            total = terms.get(key)
            total = contrib if total is None else total + contrib
            if total.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = total


def wedge(a, b) -> DiffForm:
    """Exterior product. Polynomial arguments count as degree-0 forms."""
    if isinstance(a, Polynomial):
        a = DiffForm.from_polynomial(a)
    if isinstance(b, Polynomial):
        b = DiffForm.from_polynomial(b)
    if a.chart != b.chart:
        raise InputError("forms live on different charts")
    out = DiffForm.zero(a.chart, a.degree + b.degree)
    _wedge_into(out.terms, a.terms.items(), b.terms.items())
    return out


def wedge_all(forms) -> DiffForm:
    """Left fold of wedge over a non-empty sequence."""
    forms = list(forms)
    if not forms:
        raise InputError("wedge_all needs at least one form")
    result = forms[0]
    if isinstance(result, Polynomial):
        result = DiffForm.from_polynomial(result)
    for form in forms[1:]:
        result = wedge(result, form)
    return result


def wedge_power(form: DiffForm, k: int) -> DiffForm:
    """k-th wedge power of a 2-form: k! times the k-th elementary symmetric
    form e_k of its terms, which commute and square to zero (Macdonald,
    Symmetric Functions and Hall Polynomials, I.2).

    One pass over the terms t_a adds e_(j-1) ^ t_a into e_j, j descending,
    skipping each j that the terms left cannot raise to k; e_0 is k!, so
    e_k comes out as the power. On k disjoint terms, such as those of a
    paired-omission form, that is k products. Squaring is the test suite's
    cross-check. A power of degree 2k > n is zero and built directly, so
    any k returns at once.
    """
    if not isinstance(form, DiffForm) or form.degree != 2:
        raise InputError("wedge_power expects a 2-form")
    if not isinstance(k, int) or k < 1:
        raise InputError("wedge power expects an integer k >= 1")
    if k == 1:
        return form
    if 2 * k > form.chart.n:
        return DiffForm.zero(form.chart, 2 * k)
    terms = list(form.terms.items())
    sums = [{(): Polynomial.constant(form.chart, factorial(k))}] + [{} for _ in range(k)]
    for a, term in enumerate(terms):
        for j in range(min(k, a + 1), max(0, k - len(terms) + a), -1):
            _wedge_into(sums[j], sums[j - 1].items(), (term,))
    out = DiffForm.zero(form.chart, 2 * k)
    out.terms = sums[k]
    return out


def exterior_derivative(a) -> DiffForm:
    """d on polynomials (as degree-0 forms) and on forms of any degree."""
    if isinstance(a, Polynomial):
        a = DiffForm.from_polynomial(a)
    chart = a.chart
    out = DiffForm.zero(chart, a.degree + 1)
    for key, coeff in a.terms.items():
        for i in range(1, chart.n + 1):
            partial = poly_diff(coeff, i)
            if partial.is_zero():
                continue
            packed = sort_with_sign((i,) + key)
            if packed is None:
                continue
            new_key, sign = packed
            contrib = partial if sign > 0 else -partial
            total = out.terms.get(new_key)
            total = contrib if total is None else total + contrib
            if total.is_zero():
                out.terms.pop(new_key, None)
            else:
                out.terms[new_key] = total
    return out


def lie_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = X Y - Y X acting on functions.

    With this convention [@a, f*@b] = X_a(f)*@b for a coordinate field @a.
    """
    if x.chart != y.chart:
        raise InputError("fields live on different charts")
    comps = [x.apply(cy) - y.apply(cx) for cx, cy in zip(x.components, y.components)]
    return VectorField(x.chart, comps)


# -- pointwise evaluation and independence ---------------------------------


def evaluate_at_point(a: DiffForm, point):
    """Numeric coefficients at a point: a map from index tuples to
    Fractions, zero values dropped."""
    out = {}
    for key, coeff in a.terms.items():
        value = poly_eval(coeff, point)
        if value:
            out[key] = value
    return out


def _grid(forms, what):
    """The coefficient grid of these forms, which must share one degree and
    one chart: a row per form, a column per index tuple any of them uses,
    in sorted order."""
    chart = forms[0].chart
    degree = forms[0].degree
    for form in forms:
        if form.chart != chart or form.degree != degree:
            raise InputError("%s needs forms of one degree on one chart" % what)
    columns = sorted(set().union(*(f.terms.keys() for f in forms)))
    zero = Polynomial.zero(chart)
    return [[form.terms.get(c, zero) for c in columns] for form in forms]


def dependent_points(forms, rows):
    """Yield, in order, the integer rows q_1, ..., q_n, D of points q/D at
    which these same-degree forms are linearly dependent, ranking each row
    only when the next dependent one is asked for.

    The coefficient grid is compiled once into an IntegerGrid, and its
    integer rows at each point, positive multiples of the exact ones, go
    to the fraction-free rank.
    """
    forms = list(forms)
    if not forms:
        return
    grid = IntegerGrid(forms[0].chart, _grid(forms, "independence check"))
    yield from (q for q in rows if rank(list(grid.at(q))) < len(forms))


def independent_at_point(forms, point) -> bool:
    """Are these same-degree forms independent at a point of ints and Fractions?"""
    forms = list(forms)
    if not forms:
        return True
    q = _integer_point(point, forms[0].chart.n)
    return next(dependent_points(forms, [q]), None) is None


def _poly_det(matrix) -> Polynomial:
    """Determinant of a square matrix of polynomials, by Laplace expansion."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    chart = matrix[0][0].chart
    total = Polynomial.zero(chart)
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        cofactor = entry * _poly_det(minor)
        total = total + (cofactor if col % 2 == 0 else -cofactor)
    return total


def _probe_points(n: int):
    """The two fixed integer points of an n-coordinate chart at which the
    constant-minor code evaluates its grid: (2, 3, ..., n+1) and
    (-3, 5, -7, 9, ...)."""
    return (tuple(range(2, n + 2)),
            tuple((-1) ** j * (2 * j + 1) for j in range(1, n + 1)))


def _confirmed(grid, values, subset):
    """(subset, constant) when the grid's maximal minor on the column subset
    is a nonzero constant, else None.

    A nonzero constant minor has the same nonzero value at every point, so
    the symbolic _poly_det is taken only if the subset's integer minors at
    the two probe points (values, integer rows there) are nonzero and equal.
    """
    d0 = det([[row[c] for c in subset] for row in values[0]])
    if not d0 or d0 != det([[row[c] for c in subset] for row in values[1]]):
        return None
    value = _poly_det([[row[c] for c in subset] for row in grid])
    return (subset, value.constant_value()) if value.is_constant() else None


def _constant_minor(grid):
    """(subset, constant) for the pivot candidate's column subset when
    _confirmed finds its maximal minor to be a nonzero constant, else None.

    The candidate, the only subset tried, is the first column basis of the
    integer rows at the first probe point, from one linalg.Echelon, with the
    columns ordered by the top total degree of their entries, constants
    first and ties by index. When the constant columns alone have full rank
    the candidate lies among them, so its minor is a nonzero constant and is
    found, as for a coframe with an identity block or the jet-like MNI
    forms. A constant minor that needs a non-constant column is not sought.
    Rows dependent at the probe point have no nonzero maximal minor there,
    and then nothing is tried.
    """
    if len(grid) > len(grid[0]):
        return None

    def degree(c):  # -1 for a column of zeros
        return max((sum(e) for row in grid for e in row[c].terms), default=-1)

    order = sorted(range(len(grid[0])), key=lambda c: (degree(c), c))
    chart = grid[0][0].chart
    compiled = IntegerGrid(chart, grid)
    # both probe points are integer, so these rows are the exact rows times
    # one factor per row, the same at both points: the integer minors are
    # the exact ones times one positive constant, and decide the same way
    values = [list(compiled.at(p + (1,))) for p in _probe_points(chart.n)]
    echelon = Echelon(len(order))
    for row in values[0]:
        echelon.add([row[c] for c in order])
    if len(echelon.pivots) < len(grid):  # every maximal minor vanishes there
        return None
    return _confirmed(grid, values, tuple(sorted(order[p] for p in echelon.pivots)))


def constant_minor_certificate(forms) -> bool:
    """Look for a maximal minor of the symbolic coefficient matrix that is a
    nonzero constant.

    Such a minor certifies pointwise independence at every point of the
    chart, upgrading a sampled verdict to a proof. The sampled checks ask
    for it after ranking their first sample point, unless that point is a
    witness: at a dependent point every maximal minor vanishes, so a
    witness already rules out a certificate. A certificate found spares
    the check every other point.
    Only the pivot candidate is tried (see _constant_minor): it is found
    whenever the constant columns alone have full rank, and a constant
    minor that needs a non-constant column is not sought, so False means
    "no certificate found", not "dependent". The candidate is expanded
    symbolically only if its exact minors at two fixed probe points are
    nonzero and equal: a nonzero constant minor takes one value at both, so
    this prefilter never rules out a certificate.
    """
    forms = list(forms)
    if not forms:
        return True
    return _constant_minor(_grid(forms, "certificate")) is not None


def _adjugate(block):
    """N with A^-1 = (-1)^(q+1) N / ((q-1)! det A), for a q x q matrix A
    of Fractions or polynomials: Faddeev-LeVerrier without its divisions.
    N_1 = I and N_(j+1) = j A N_j - tr(A N_j) I give N_j = (j-1)! M_j for
    its M_j, and N = N_q. Nothing is divided, so where det A is a nonzero
    constant, A^-1 of a polynomial A is a polynomial matrix."""
    size = len(block)
    N = [[int(i == c) for c in range(size)] for i in range(size)]
    for j in range(1, size):
        N = [[sum((a * N[t][c] for t, a in enumerate(row) if a and N[t][c]), 0)
              for c in range(size)] for row in block]
        trace = sum(N[i][i] for i in range(size))
        N = [[j * x - trace if i == c else j * x for c, x in enumerate(row)]
             for i, row in enumerate(N)]
    return N


def kernel_frame(grid):
    """Vector fields spanning the kernel of a q x n polynomial grid at every
    point, or None.

    Built from the constant maximal minor det G_S that _constant_minor
    finds: each column g_j outside S gets the field with 1 in slot j and
    -G_S^-1 g_j in the slots of S, so the fields have constant rank.
    G_S^-1 is taken once (_adjugate): in Fractions when G_S is constant, as
    it is whenever the grid's constant columns have full rank, and in
    polynomials when the minor takes a non-constant column.
    """
    found = _constant_minor(grid)
    if found is None:
        return None
    subset, det_value = found
    chart = grid[0][0].chart
    q = len(grid)
    block = [[row[c] for c in subset] for row in grid]
    if all(p.is_constant() for row in block for p in row):
        block = [[p.constant_value() for p in row] for row in block]
    factor = Fraction((-1) ** q, factorial(q - 1) * det_value)
    solve = [[x * factor for x in row] for row in _adjugate(block)]  # -G_S^-1
    n = len(grid[0])
    zero = Polynomial.zero(chart)
    one = Polynomial.constant(chart, 1)
    fields = []
    for j in range(n):
        if j in subset:
            continue
        comps = [zero] * n
        comps[j] = one
        for col, coeffs in zip(subset, solve):
            comps[col] = sum((a * row[j] for a, row in zip(coeffs, grid) if a and row[j]), zero)
        fields.append(VectorField(chart, comps))
    return fields
