"""Tangent distributions on a chart: presentations, derived flags, and the
pointwise non-integrability checks.

"Pointwise at every point" is realized as a deterministic grid plus seeded
random rational points, together with a constant-minor certificate that
upgrades the verdict to one valid at every chart point. Exact sampling
refutes; the certificate proves.

Points are evaluated in integers. The sample set is drawn as integer rows
q_1, ..., q_n, D of the points q/D (D = 2 on the grid, 6 at the random
points), lazily: its size is known without drawing it, and a certified
check draws one point. A wedge check draws and ranks its first point,
seeks its certificate, and only without one draws the rest of the set at
once; the derived-length-one check draws one point at a time as it ranks
them. A caller's points become such rows up front, and only witnesses and
rank-drop points become tuples of Fractions again. A check's restricted
grid, and each level of a derived flag's bracket fields, are compiled once
into an algebra.IntegerGrid, whose rows at q are positive multiples of the
exact values at q/D, for any D, and go straight to the fraction-free
rank: IntegerGrid.at evaluates one point, and IntegerGrid.over the rest
of an uncertified wedge check's sample, column-wise.

The checks share a restricted grid W. For X, Y in D = ker(a_1, ..., a_m),
a_i([X, Y]) = X(a_i(Y)) - Y(a_i(X)) - da_i(X, Y) = -da_i(X, Y), the
curvature, or Levi bracket, L^2 D -> TM/D. So over a basis X_1, ..., X_r
of D, D + [D, D] = TM at p exactly when the m rows
W_i = (da_i(X_a, X_b))_{a<b} are independent there, and the wedge checks
rank the Pfaffian minors of the W_i of their 2-forms, and seek their
certificate on the minors of W's polynomial rows, so no check builds a
wedge form. A Distribution proves its presentation once, and
_restricted_test chooses each check's route.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, partial
from itertools import combinations, islice, product
from math import comb

from .algebra import Chart, IntegerGrid, Polynomial, _integer_point
from .errors import ConsistencyError, DegeneratePresentationError, InputError
from .forms import (
    DiffForm,
    VectorField,
    _constant_minor,
    exterior_derivative,
    kernel_frame,
    lie_bracket,
)
from .linalg import Echelon, _independent, pfaffian_minors

_GRID_NUMERATORS = (0, 2, -2, 1, -1)  # over D = 2: 0, 1, -1, 1/2, -1/2


def _integer_sample(n: int, seed: int):
    """The sample set's points, drawn as a caller reads them, as integer
    rows q_1, ..., q_n, D of the points q/D: the first 200 points of the
    grid over {0, +-1, +-1/2} in lexicographic order with D = 2 (all 5^n of
    them when n <= 3), then 100 random points with D = 6, each coordinate
    drawn as random_rational draws it."""
    for q in islice(product(_GRID_NUMERATORS, repeat=n), 200):
        yield q + (2,)
    rng = random.Random(seed)
    for _ in range(100):
        yield tuple(rng.randint(-9, 9) * (6 // rng.choice((1, 2, 3))) for _ in range(n)) + (6,)


def _fraction_point(q):
    """The point q_1/D, ..., q_n/D of an integer row q_1, ..., q_n, D."""
    return tuple(Fraction(x, q[-1]) for x in q[:-1])


def sample_points(chart: Chart, seed: int = 0):
    """Deterministic sample set, as a list of tuples of Fractions: the first
    200 points of the grid over {0, +-1, +-1/2} in lexicographic order (all
    5^n of them when n <= 3), then 100 random rational points, each
    coordinate a random_rational of a generator seeded by seed."""
    return [_fraction_point(q) for q in _integer_sample(chart.n, seed)]


def _sample_set(chart: Chart, points, seed: int):
    """(size, rows) for a sampled check: the integer rows of
    sample_points(chart, seed), drawn only as they are read, when points is
    None, else those of the caller's points, all converted here, so that a
    malformed point raises InputError before anything is ranked. An empty
    set raises InputError too: with no point, every verdict would hold
    vacuously."""
    if points is None:
        return min(5 ** chart.n, 200) + 100, _integer_sample(chart.n, seed)
    rows = [_integer_point(p, chart.n) for p in points]
    if not rows:
        raise InputError("a sampled check needs at least one point")
    return len(rows), rows


def _pairing(form: DiffForm, vector_field: VectorField) -> Polynomial:
    """alpha(X) for a 1-form and a field, as a polynomial."""
    total = Polynomial.zero(form.chart)
    for (idx,), coeff in form.terms.items():
        total = total + coeff * vector_field.components[idx - 1]
    return total


def _annihilate(coframe, frame, error=ConsistencyError,
                message="complement field fails to annihilate the coframe"):
    """Raise error(message) unless the coframe annihilates the frame."""
    if any(not _pairing(a, f).is_zero() for a in coframe for f in frame):
        raise error(message)


def _check_coframe(coframe):
    coframe = list(coframe)
    if not coframe:
        raise InputError("expected at least one coframe form")
    chart = coframe[0].chart
    for form in coframe:
        if not isinstance(form, DiffForm) or form.degree != 1:
            raise InputError("coframe entries must be 1-forms")
        if form.chart != chart:
            raise InputError("coframe forms live on different charts")
    return coframe, chart


class Verdict(namedtuple("Verdict", "value checked witnesses certificate",
                          defaults=((), False))):
    """Outcome of a sampled pointwise check.

    certificate=True marks a True that a constant-minor certificate proves
    at every chart point; the wedge checks then draw and rank only the
    first sample point. Otherwise value is decided by ranking every sample
    point, and a False value always comes with certificate=False. checked
    is the size of the sample set either way, for a certificate the set it
    covers, whose other points are never drawn. A Verdict is a tuple, but
    its truth is value, not its length.
    """

    __slots__ = ()

    def __bool__(self):
        return self.value


class DerivedFlag(namedtuple("DerivedFlag", "point ranks stabilized", defaults=(True,))):
    """Pointwise ranks of the iterated-bracket spans at one point, as a
    tuple (point, ranks, stabilized)."""

    __slots__ = ()


class Distribution:
    """A constant-rank distribution presented by a frame, a coframe, or both.

    It proves its presentation once: the kernel frame of its coframe,
    which it spans with when no frame is given, and the W of its da_i over
    that frame are each built at most once and shared by every check on
    it. Where nothing proves the rank, it is validated at the queried
    points; a violation raises rather than silently recording garbage.
    """

    def __init__(self, chart: Chart, frame=None, coframe=None):
        if frame is None and coframe is None:
            raise InputError("a distribution needs a frame or a coframe")
        self.chart = chart
        self.frame = tuple(frame) if frame is not None else None
        self.coframe = tuple(coframe) if coframe is not None else None
        counts = set()
        if self.frame is not None:
            for f in self.frame:
                if not isinstance(f, VectorField) or f.chart != chart:
                    raise InputError("frame entries must be vector fields on the chart")
            counts.add(len(self.frame))
        if self.coframe is not None:
            for a in self.coframe:
                if not isinstance(a, DiffForm) or a.degree != 1 or a.chart != chart:
                    raise InputError("coframe entries must be 1-forms on the chart")
            counts.add(chart.n - len(self.coframe))
        if len(counts) != 1:
            raise InputError("frame size and coframe corank disagree: %s" % sorted(counts))
        self.rank = counts.pop()
        if not 1 <= self.rank <= chart.n:
            if self.coframe is not None:
                raise InputError("a coframe of %d 1-forms on %d coordinates leaves no kernel"
                                 % (len(self.coframe), chart.n))
            raise InputError("a frame of %d vector fields on %d coordinates cannot span a "
                             "distribution" % (len(self.frame), chart.n))
        if self.frame is not None and self.coframe is not None:
            _annihilate(self.coframe, self.frame, InputError,
                        "coframe does not annihilate the frame")

    def spanning_frame(self):
        """A polynomial frame: the given one, or else the coframe's kernel
        frame, which must exist."""
        return self.frame if self.frame is not None else self._derived_frame

    @cached_property
    def _derived_frame(self):
        if self._kernel_frame is None:
            raise InputError(
                "coframe admits no constant-minor complement; supply an explicit frame")
        _annihilate(self.coframe, self._kernel_frame)
        return tuple(self._kernel_frame)

    @cached_property
    def _spans(self):
        return _SpanningSets(self.spanning_frame())

    @cached_property
    def _kernel_frame(self):
        """The coframe's kernel frame (forms.kernel_frame), or None."""
        return kernel_frame(_coframe_grid(self.coframe)) if self.coframe else None

    @cached_property
    def _derivatives(self):
        return [exterior_derivative(a) for a in self.coframe]

    @cached_property
    def _curvature(self):
        """The restricted grid W of the da_i over the kernel frame, shared by
        every check on the distribution."""
        return _compile_restricted_grid(self._kernel_frame, self._derivatives)

    @cached_property
    def _proved(self):
        return bool(self.coframe) and (
            self.spanning_frame() is not None if self.frame is None
            else _constant_minor([list(f.components) for f in self.frame]) is not None
            and self._kernel_frame is not None)

    def _restricted_grid(self):
        """W of the da_i where has_derived_length_one and derived_flag_at may
        read it, else None: the coframe needs its kernel frame, which a
        coframe-only distribution spans with, and a given frame a constant
        r x r minor of its own, so that it spans ker a everywhere and W over
        it has the rank of W over the kernel frame."""
        return self._curvature if self._proved else None

    def __repr__(self):
        return "Distribution(rank %d on %r)" % (self.rank, self.chart)


def _rank_drop(what, point):
    point = tuple(point)
    return DegeneratePresentationError(
        "%s drops rank at point (%s)" % (what, ", ".join(str(x) for x in point)), point=point
    )


def _coframe_grid(coframe):
    """The m x n grid of the coframe's coefficients, a row per form."""
    chart = coframe[0].chart
    zero = Polynomial.zero(chart)
    return [[form.terms.get((j,), zero) for j in range(1, chart.n + 1)] for form in coframe]


def _restricted_rows(frame, two_forms, zero):
    """Rows w_i(X_a, X_b), a < b, with w_i(X, Y) = sum c_jl (X^j Y^l - X^l Y^j)
    for w_i = sum c_jl dx_j^dx_l (j < l), from the fields' components and
    the forms' terms ((j, l), c_jl), polynomials or integers at a point.
    No product with a zero component is formed."""
    pairs = [(x, y) for a, x in enumerate(frame) for y in frame[a + 1:]]
    rows = []
    for terms in two_forms:
        terms = [(j - 1, l - 1, c) for (j, l), c in terms]
        row = []
        for x, y in pairs:
            entry = zero
            for j, l, c in terms:
                cross = x[j] * y[l] if x[j] and y[l] else zero
                if x[l] and y[j]:
                    cross = cross - x[l] * y[j]
                if cross:
                    entry = entry + c * cross
            row.append(entry)
        rows.append(row)
    return rows


def _compile_restricted_grid(frame, two_forms) -> IntegerGrid:
    """The rows of _restricted_rows on a polynomial frame, compiled once."""
    chart = two_forms[0].chart
    return IntegerGrid(chart, _restricted_rows([f.components for f in frame],
                                               [w.terms.items() for w in two_forms],
                                               Polynomial.zero(chart)))


def _pointwise_restricted_grid(coframe, two_forms):
    """W for a coframe without a kernel frame, as a function of an integer
    row q: the rows of _restricted_rows over the basis Echelon.kernel gives
    of ker a(q), where a row of a in the span of those before it raises the
    coframe's rank drop. Each row of W is a positive multiple of the exact
    one, as the rows of a and the 2-forms' coefficients at q are."""
    chart = coframe[0].chart
    keys = [list(w.terms) for w in two_forms]
    grid = IntegerGrid(chart, _coframe_grid(coframe) + [list(w.terms.values()) for w in two_forms])

    def at(q):
        rows = grid.at(q)
        echelon = Echelon(chart.n)
        for row in islice(rows, len(coframe)):
            if not echelon.add(row):
                raise _rank_drop("coframe", _fraction_point(q))
        return _restricted_rows(echelon.kernel(), map(zip, keys, rows), 0)

    return at


def _pfaffian_minors(r: int, k: int):
    """(width, minors): minors maps a row of a restricted grid on r fields,
    w(X_a, X_b) for a < b, to a vector of width = C(r, 2k) entries whose
    independence, across rows, is that of the Pfaffian minors of the skew
    r x r matrix W = (w(X_a, X_b)) over the 2k-subsets of the fields, the
    coordinates of (w|_D)^k / k! in the frame. For k = 1 the minors are
    the row itself, and for k = 2 each is the closed form
    W_ab W_cd - W_ac W_bd + W_ad W_bc, which at r = 5 costs a small
    fraction of the 5 x 5 echelon of a kernel vector. For k >= 3, where
    r = 2k + 1, the signed minors (-1)^a Pf(W without a) span ker W at rank
    2k and vanish below it. On integer rows minors gives W's kernel line,
    one Echelon's kernel vector: the minors times a nonzero factor, which
    changes no rank, so no sampled point takes a Pfaffian. On polynomial
    rows, where that factor is a polynomial, which would hide a constant
    minor from the certificate, it gives linalg.pfaffian_minors(W).
    """
    if k == 1:
        return comb(r, 2), list
    at = {pair: i for i, pair in enumerate(combinations(range(r), 2))}
    if k == 2:
        picks = [(at[a, b], at[c, d], at[a, c], at[b, d], at[a, d], at[b, c])
                 for a, b, c, d in combinations(range(r), 4)]
        return len(picks), lambda row: [
            row[ab] * row[cd] - row[ac] * row[bd] + row[ad] * row[bc]
            for ab, cd, ac, bd, ad, bc in picks]
    if r != 2 * k + 1:
        raise ConsistencyError("a kernel vector stands in for the minors only at r = 2k + 1")

    def minors(row):
        zero = 0 * row[0]  # 0, or the zero polynomial on polynomial rows
        skew = [[row[at[a, b]] if a < b else -row[at[b, a]] if b < a else zero
                 for b in range(r)] for a in range(r)]
        if not isinstance(zero, int):
            return pfaffian_minors(skew)
        echelon = Echelon(r)
        for line in skew:
            echelon.add(line)
        kernel = echelon.kernel()
        return kernel[0] if len(kernel) == 1 else [0] * r

    return r, minors


def _restricted_test(dist: Distribution, omegas=None, k=1, flag=False):
    """(independent, each, certified): independent(q) tells whether the
    Pfaffian minors of the W of the omegas (by default the da_i) are
    independent at an integer row q, each(qs) yields the same for each
    integer row of the list qs in turn, and certified tells whether a
    constant minor proves them independent at every point, given that they
    are at one. The route is chosen here: W over the kernel frame, compiled
    once, which independent reads by IntegerGrid.at and each column-wise by
    IntegerGrid.over; W built at each point for a wedge check without one,
    which no certificate covers; or, for the flag (flag=True) unproved,
    (None, None, None): brackets.

    Over the kernel frame, certified runs _constant_minor on the Pfaffian
    minors of W's polynomial rows, the signed minors themselves at every k:
    a nonzero constant maximal minor of theirs proves them independent at
    every point. A W of degree 0, independent at one point, is its own
    certificate.
    """
    if flag and dist._restricted_grid() is None:
        return None, None, None
    width, minors = _pfaffian_minors(dist.rank, k)
    if dist._kernel_frame is None:
        two_forms = dist._derivatives if omegas is None else omegas
        at, certified = _pointwise_restricted_grid(dist.coframe, two_forms), lambda: False
        over = partial(map, at)
    else:
        compiled = (dist._curvature if omegas is None
                    else _compile_restricted_grid(dist._kernel_frame, omegas))
        at, over = compiled.at, compiled.over

        def certified():
            if compiled.degree == 0:
                return True
            return _constant_minor([minors(row) for row in compiled.polynomials]) is not None

    return ((lambda q: _independent(map(minors, at(q)), width)),
            (lambda qs: (_independent(map(minors, rows), width) for rows in over(qs))),
            certified)


def frame_from_coframe(coframe):
    """The polynomial kernel frame, of constant rank everywhere, that a
    coframe-only Distribution proves and spans with; None without the pivot
    candidate's constant minor, as for dx1 + x3^2*dx3, x1*dx2 + dx3. A
    coframe of n or more 1-forms on n coordinates raises InputError."""
    coframe, chart = _check_coframe(coframe)
    dist = Distribution(chart, coframe=coframe)
    return None if dist._kernel_frame is None else list(dist.spanning_frame())


class _SpanningSets:
    """Bracket-generated spanning families, built lazily and shared across
    sample points. Level 0 is the frame, level 1 the nonzero brackets
    [f_i, f_j] of frame fields with i < j, and level l > 1 adds the nonzero
    brackets of the frame with the fields level l-1 added; levels 0..l span
    the (l+1)-st derived space. The fields each level adds are compiled into
    one IntegerGrid when the level is built."""

    def __init__(self, frame):
        self.frame = list(frame)
        self._frontier = self.frame
        self.grids = [self._compile(self.frame)]

    def _compile(self, fields):
        return IntegerGrid(self.frame[0].chart, (f.components for f in fields))

    def level(self, l: int) -> IntegerGrid:
        """The compiled components of the fields level l adds."""
        while len(self.grids) <= l:
            if len(self.grids) == 1:  # [f_j, f_i] = -[f_i, f_j] and [f_i, f_i] = 0
                pairs = [(g, f) for i, g in enumerate(self.frame) for f in self.frame[i + 1:]]
            else:
                pairs = [(g, f) for g in self.frame for f in self._frontier]
            new = [b for g, f in pairs if not (b := lie_bracket(g, f)).is_zero()]
            self.grids.append(self._compile(new))
            self._frontier = new
        return self.grids[l]


def _flag_ranks(spans: _SpanningSets, n: int, q, depth_cap):
    """(ranks, stabilized) of the derived flag at the integer row q, by the
    rule of derived_flag_at; a depth_cap of None sets no cap."""
    echelon = Echelon(n)
    ranks = []
    while True:
        level = spans.level(len(ranks))
        for row in level.at(q):
            echelon.add(row)
            if len(echelon.pivots) == n:
                break
        r = len(echelon.pivots)
        ranks.append(r)
        if r == n:
            return tuple(ranks), True
        if len(ranks) > 1 and r == ranks[-2]:
            return tuple(ranks), not level
        if depth_cap is not None and len(ranks) >= depth_cap:
            return tuple(ranks), False


def derived_flag_at(dist: Distribution, point, depth_cap=None) -> DerivedFlag:
    """Pointwise derived flag: ranks of the iterated-bracket spans at the
    point.

    Where the distribution has a restricted grid W (see
    Distribution._restricted_grid) and the cap allows level 1, W's m rows
    are ranked at the point first: level 0 is r by the constant minors
    that proved the frame, and level 1 is r + rank W(p), since a(p)
    identifies TM/D_p with Q^m. When that is n, the flag is [r, n],
    stabilized, and no bracket is built. Otherwise, and for every other
    distribution, one linalg.Echelon is extended level by level with the
    integer rows of each level's IntegerGrid, each row evaluated only while
    the rank is below n, so no row is evaluated past rank n or eliminated
    twice. As the echelon only grows, the ranks never decrease.

    Stops when the rank hits n, repeats, or the depth cap, if one is given,
    is reached. Until it stops the ranks strictly increase, so at most
    n + 1 levels are built even with no cap. "Stabilized" means every
    deeper level has the same rank: the rank is n, or it repeated at a
    level that added no nonzero bracket. After any other repeat it is
    False, which means only "not shown": a bracket that vanishes at the
    point can have a deeper one that does not (X = @x, Y = @z + x*x*@y at
    x = 0 reads [2, 2], yet [X, [X, Y]] = 2*@y has rank 3 there), but the
    involutive frame X = @x, Y = @y + x*@x, whose bracket @x is nonzero and
    in its span, reads [2, 2] unstabilized at every point too.
    """
    point = tuple(point)
    n = dist.chart.n
    q = _integer_point(point, n)
    if depth_cap is not None and depth_cap < 1:
        raise InputError("depth cap must be at least 1")
    if depth_cap is None or depth_cap > 1:
        independent, _, _ = _restricted_test(dist, flag=True)
        if independent is not None and independent(q):
            return DerivedFlag(point, (dist.rank, n), True)
    ranks, stabilized = _flag_ranks(dist._spans, n, q, depth_cap)
    return DerivedFlag(point, ranks, stabilized)


def has_derived_length_one(dist: Distribution, points=None, seed: int = 0) -> Verdict:
    """True iff the flag is [r, n] at every sample point.

    Where the presentation is proved (Distribution._restricted_grid), no
    bracket is built: the flag is [r, n] at a point exactly when W has
    rank m there, and the frame cannot drop rank. Otherwise only the first
    two levels of the flag are built: a full flag differs from [r, n]
    exactly when its first two levels do. A first-level rank below the
    distribution's rank is a presentation failure, not integrability
    information, and raises.
    """
    size, rows = _sample_set(dist.chart, points, seed)
    holds, _, _ = _restricted_test(dist, flag=True)
    if holds is None:
        spans, n = dist._spans, dist.chart.n
        expected = (n,) if dist.rank == n else (dist.rank, n)

        def holds(q):
            ranks, _ = _flag_ranks(spans, n, q, 2)
            if ranks[0] < dist.rank:
                raise _rank_drop("frame", _fraction_point(q))
            return ranks == expected

    witnesses = tuple(_fraction_point(q) for q in rows if not holds(q))
    return Verdict(not witnesses, size, witnesses)


def _wedge_verdict(dist, omegas, k, points, seed) -> Verdict:
    """Test the forms a_1^...^a_m^(omega_i)^k for pointwise independence
    at the sample points; dist is the Distribution that _wedge_distribution
    built, and omegas None stands for its da_i.

    Each point ranks the restricted grid W of the omegas over a basis
    X_1, ..., X_r of ker a: one early-stopping Echelon takes, for each i,
    the vector of 2k x 2k Pfaffian minors of W_i over the 2k-subsets T of
    the basis. Where a has rank m, take S with det G_S != 0 and the basis
    whose field for t outside S is e_t plus a vector on S: the coefficient
    of a_1^...^a_m^b on dx_S^dx_T is +-det(G_S) b(X_T), as a(X_t) = 0, and
    (omega_i^k)(X_T) = k! Pf(W_i on T), so the forms are dependent exactly
    when the vectors are, over this basis and so over any. _restricted_test
    gives the test; a point where the coframe drops rank, so that every
    form vanishes, raises.

    The first point is drawn and ranked alone, with W read by
    IntegerGrid.at. Unless it is a witness, where every maximal minor
    vanishes, _restricted_test's certificate is sought before any other
    point is drawn: over the kernel frame the columns dx_S^dx_T of the
    forms are the constant +-k! det(G_S) times W's Pfaffian minors, so a
    constant maximal minor of those is one of the forms' grid, and no form
    is built. Without a certificate the rest of the sample is drawn at once
    and every point ranked, with certificate=False: over the kernel frame
    W is read at all of them by one IntegerGrid.over, column-wise a block
    of points at a time, and pointwise W is built at each point in turn.
    """
    size, rows = _sample_set(dist.chart, points, seed)
    rows = iter(rows)
    first = next(rows)
    independent, each, certified = _restricted_test(dist, omegas, k)
    witnesses = [] if independent(first) else [first]
    if not witnesses and certified():
        return Verdict(True, size, (), True)
    rest = list(rows)
    witnesses += [q for q, holds in zip(rest, each(rest)) if not holds]
    return Verdict(not witnesses, size, tuple(map(_fraction_point, witnesses)))


def _wedge_distribution(coframe, omegas=None, k=None) -> Distribution:
    """A wedge check's first argument, a Distribution or a bare coframe, as
    a Distribution. Its coframe passes _check_coframe, then, given k, the
    omegas' checks and dimension_bounds, before a bare coframe is wrapped."""
    dist = coframe if isinstance(coframe, Distribution) else None
    coframe, chart = _check_coframe(coframe if dist is None else dist.coframe or ())
    if omegas is not None:
        if len(omegas) != len(coframe):
            raise InputError(
                "expected %d two-forms to match the coframe, got %d" % (len(coframe), len(omegas))
            )
        for w in omegas:
            if not isinstance(w, DiffForm) or w.degree != 2 or w.chart != chart:
                raise InputError("omega entries must be 2-forms on the coframe's chart")
    if k is not None:
        dimension_bounds(k, chart.n, len(coframe))
    return dist if dist is not None else Distribution(chart, coframe=coframe)


def check_dbasis_condition(coframe, points=None, seed: int = 0) -> Verdict:
    """Pointwise independence of the q forms a_1^...^a_q^da_i (degree q+2),
    for a Distribution with a coframe or a bare coframe."""
    return _wedge_verdict(_wedge_distribution(coframe), None, 1, points, seed)


def dimension_bounds(k: int, n=None, count=None):
    """The ambient dimensions (2k+2, 4k+2) admissible for rank 2k+1.

    Raises InputError unless k is an integer >= 1; given n, also unless a
    given coframe size count equals n - 2k - 1 and 2k+2 <= n <= 4k+2,
    checked in that order.
    """
    if not isinstance(k, int) or k < 1:
        raise InputError("k must be an integer >= 1")
    if count is not None and count != n - 2 * k - 1:
        raise InputError(
            "coframe size %d does not match n - 2k - 1 = %d" % (count, n - 2 * k - 1)
        )
    lo, hi = 2 * k + 2, 4 * k + 2
    if n is not None and not lo <= n <= hi:
        raise InputError(
            "rank 2k+1 = %d needs ambient dimension %d <= n <= %d, got n = %d"
            % (2 * k + 1, lo, hi, n)
        )
    return lo, hi


def check_mni(coframe, k: int, points=None, seed: int = 0) -> Verdict:
    """Maximal non-integrability: the n-2k-1 forms a_1^...^a_m^(da_i)^k,
    each of degree n-1, are pointwise linearly independent, for a
    Distribution with a coframe or a bare coframe."""
    return _wedge_verdict(_wedge_distribution(coframe, k=k), None, k, points, seed)


def check_almost_mni(coframe, omegas, k: int, points=None, seed: int = 0) -> Verdict:
    """Almost maximal non-integrability: like check_mni, for a Distribution
    or a bare coframe, but with arbitrary 2-forms omega_i in place of the
    derivatives da_i, their W compiled over the same kernel frame."""
    omegas = list(omegas)
    return _wedge_verdict(_wedge_distribution(coframe, omegas, k), omegas, k, points, seed)
