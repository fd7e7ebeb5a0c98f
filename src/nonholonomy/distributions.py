"""Tangent distributions on a chart: presentations, derived flags, and the
pointwise non-integrability checks.

"Pointwise at every point" is realized as a deterministic grid plus seeded
random rational points, together with a constant-minor certificate, sought
when no point refutes, that upgrades the sampled verdict to one valid at
every chart point. Exact sampling refutes; the certificate proves. The
wedge checks guard their coframe's rank with the same samples: where the
coframe drops rank, a_1^...^a_q and so every wedge form vanishes, so the
coframe is ranked only at the points where the forms' grid has rank 0.

Points are evaluated in integers: the forms of a check, and each level of
a derived flag's bracket fields, are compiled once into an
algebra.IntegerGrid, whose rows at a point are positive multiples of the
exact values and go straight to the fraction-free rank.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from math import comb

from . import forms as _forms
from .algebra import Chart, IntegerGrid, Polynomial, random_rational
from .errors import ConsistencyError, DegeneratePresentationError, InputError
from .forms import (
    DiffForm,
    VectorField,
    _grid,
    constant_minor_certificate,
    dependent_points,
    exterior_derivative,
    kernel_frame,
    lie_bracket,
    wedge,
    wedge_all,
    wedge_power,
)
from .linalg import Echelon, rank

GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


def sample_points(chart: Chart, seed: int = 0):
    """Deterministic sample set, as a list of tuples: the first 200 points
    of the grid over {0, ±1, ±1/2} in lexicographic order (all 5^n of them
    when n <= 3), then 100 random rational points seeded by seed."""
    points = list(islice(product(GRID_VALUES, repeat=chart.n), 200))
    rng = random.Random(seed)
    for _ in range(100):
        points.append(tuple(random_rational(rng) for _ in range(chart.n)))
    return points


def _pairing(form: DiffForm, vector_field: VectorField) -> Polynomial:
    """alpha(X) for a 1-form and a field, as a polynomial."""
    total = Polynomial.zero(form.chart)
    for (idx,), coeff in form.terms.items():
        total = total + coeff * vector_field.components[idx - 1]
    return total


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


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled pointwise check.

    value is decided by the samples. certificate=True marks a True that a
    constant-minor certificate extends to every chart point; the wedge
    checks seek a certificate only when the samples hold no witness, so a
    False value always comes with certificate=False.
    """

    value: bool
    checked: int
    witnesses: tuple = ()
    certificate: bool = False

    def __bool__(self):
        return self.value


@dataclass(frozen=True)
class DerivedFlag:
    """Pointwise ranks of the iterated-bracket spans at one point."""

    point: tuple
    ranks: tuple
    stabilized: bool = True


class Distribution:
    """A constant-rank distribution presented by a frame, a coframe, or both.

    The rank is validated lazily at queried points; a violation raises
    rather than silently recording garbage.
    """

    def __init__(self, chart: Chart, frame=None, coframe=None):
        if frame is None and coframe is None:
            raise InputError("a distribution needs a frame or a coframe")
        self.chart = chart
        self.frame = tuple(frame) if frame is not None else None
        self.coframe = tuple(coframe) if coframe is not None else None
        if self.frame is not None:
            for f in self.frame:
                if not isinstance(f, VectorField) or f.chart != chart:
                    raise InputError("frame entries must be vector fields on the chart")
        if self.coframe is not None:
            for a in self.coframe:
                if not isinstance(a, DiffForm) or a.degree != 1 or a.chart != chart:
                    raise InputError("coframe entries must be 1-forms on the chart")
        counts = set()
        if self.frame is not None:
            counts.add(len(self.frame))
        if self.coframe is not None:
            counts.add(chart.n - len(self.coframe))
        if len(counts) != 1:
            raise InputError("frame size and coframe corank disagree: %s" % sorted(counts))
        self.rank = counts.pop()
        if not 1 <= self.rank <= chart.n:
            raise InputError("rank %d out of range 1..%d" % (self.rank, chart.n))
        if self.frame is not None and self.coframe is not None:
            for a in self.coframe:
                for f in self.frame:
                    if not _pairing(a, f).is_zero():
                        raise InputError("coframe does not annihilate the frame")
        self._derived_frame = None
        self._spans = None

    def spanning_frame(self):
        """A polynomial frame: the given one, or a symbolic complement of the
        coframe when one with constant-coefficient structure exists."""
        if self.frame is not None:
            return self.frame
        if self._derived_frame is None:
            built = frame_from_coframe(self.coframe)
            if built is None:
                if comb(self.chart.n, len(self.coframe)) > _forms.MAX_MINORS:
                    raise InputError(
                        "constant-minor search stopped at its cap of %d column subsets "
                        "without a complement; supply an explicit frame" % _forms.MAX_MINORS
                    )
                raise InputError(
                    "coframe admits no constant-minor complement; supply an explicit frame"
                )
            self._derived_frame = tuple(built)
        return self._derived_frame

    def _spanning_sets(self):
        if self._spans is None:
            self._spans = _SpanningSets(self.spanning_frame())
        return self._spans

    def __repr__(self):
        return "Distribution(rank %d on %r)" % (self.rank, self.chart)


def _rank_drop(what, point):
    point = tuple(point)
    return DegeneratePresentationError(
        "%s drops rank at point (%s)" % (what, ", ".join(str(x) for x in point)), point=point
    )


def frame_from_coframe(coframe):
    """Complete a coframe to a polynomial frame of its kernel, or None.

    Searches (the pivot candidate first, then at most forms.MAX_MINORS
    subsets in lexicographic order) for a column subset whose minor is a
    nonzero constant; the complementary columns then carry an identity block, so
    the frame has constant rank everywhere. Coframes without such a subset
    get None: the caller must supply a frame.
    """
    coframe, chart = _check_coframe(coframe)
    zero = Polynomial.zero(chart)
    grid = [[form.terms.get((j,), zero) for j in range(1, chart.n + 1)] for form in coframe]
    fields = kernel_frame(grid)
    if fields is None:
        return None
    for form in coframe:
        for f in fields:
            if not _pairing(form, f).is_zero():
                raise ConsistencyError("complement field fails to annihilate the coframe")
    return fields


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


def derived_flag_at(dist: Distribution, point, depth_cap=None) -> DerivedFlag:
    """Pointwise derived flag: ranks of the iterated-bracket spans at the
    point. One linalg.Echelon is extended level by level with the integer
    rows of each level's IntegerGrid, and takes no more rows once the rank
    is n, so no row is eliminated twice. As the echelon only grows, the
    ranks never decrease.

    Stops when the rank hits n, repeats, or the depth cap is reached, so at
    most n levels are built. "Stabilized" means every deeper level has the
    same rank: the rank is n, or it repeated at a level that added no
    nonzero bracket. After any other repeat it is False, which means only
    "not shown": a bracket that vanishes at the point can have a deeper one
    that does not (X = @x, Y = @z + x*x*@y at x = 0 reads [2, 2], yet
    [X, [X, Y]] = 2*@y has rank 3 there), but the involutive frame X = @x,
    Y = @y + x*@x, whose bracket @x is nonzero and in its span, reads
    [2, 2] unstabilized at every point too.
    """
    point = tuple(point)
    if len(point) != dist.chart.n:
        raise InputError("point has wrong dimension")
    depth_cap = dist.chart.n if depth_cap is None else depth_cap
    if depth_cap < 1:
        raise InputError("depth cap must be at least 1")
    spans = dist._spanning_sets()
    n = dist.chart.n
    echelon = Echelon(n)
    ranks = []
    while True:
        added = spans.level(len(ranks))(point)
        for row in added:
            if len(echelon.pivots) == n:
                break
            echelon.add(row)
        r = len(echelon.pivots)
        ranks.append(r)
        if r == n:
            return DerivedFlag(point, tuple(ranks), True)
        if len(ranks) > 1 and r == ranks[-2]:
            return DerivedFlag(point, tuple(ranks), not added)
        if len(ranks) >= depth_cap:
            return DerivedFlag(point, tuple(ranks), False)


def has_derived_length_one(dist: Distribution, points=None, seed: int = 0) -> Verdict:
    """True iff the flag is [r, n] at every sample point.

    Only the first two levels are built: a full flag differs from [r, n]
    exactly when its first two levels do. A first-level rank below the
    distribution's rank is a presentation failure, not integrability
    information, and raises.
    """
    points = sample_points(dist.chart, seed) if points is None else [tuple(p) for p in points]
    n = dist.chart.n
    expected = (n,) if dist.rank == n else (dist.rank, n)
    witnesses = []
    for point in points:
        ranks = derived_flag_at(dist, point, 2).ranks
        if ranks[0] < dist.rank:
            raise _rank_drop("frame", point)
        if ranks != expected:
            witnesses.append(point)
    return Verdict(not witnesses, len(points), tuple(witnesses))


def _wedge_verdict(coframe, omegas, k, points, seed) -> Verdict:
    """Test the forms a_1^...^a_q^(omega_i)^k for pointwise independence at
    the sample points, guarding the coframe's rank on the way.

    The forms' grid is compiled once and ranked once per point; rank below
    the number of forms makes a witness. Where the coframe drops rank,
    a_1^...^a_q vanishes and with it every form, so the coframe is ranked
    only at the rank-0 points, and the first drop among them, the first
    among all points, raises. The certificate is sought only without a
    witness: at a witness every maximal minor vanishes, so none is a
    nonzero constant, and certificate=False is proved.
    """
    chart = coframe[0].chart
    points = sample_points(chart, seed) if points is None else [tuple(p) for p in points]
    base = wedge_all(coframe)
    forms = [wedge(base, wedge_power(w, k)) for w in omegas]
    grid = IntegerGrid(chart, _grid(forms, "independence check"))
    ranks = [rank(grid(p)) for p in points]
    dropped = dependent_points(coframe, [p for p, r in zip(points, ranks) if not r])
    if dropped:
        raise _rank_drop("coframe", dropped[0])
    witnesses = tuple(p for p, r in zip(points, ranks) if r < len(forms))
    certificate = not witnesses and constant_minor_certificate(forms)
    return Verdict(not witnesses, len(points), witnesses, certificate)


def check_dbasis_condition(coframe, points=None, seed: int = 0) -> Verdict:
    """Pointwise independence of the q forms a_1^...^a_q^da_i (degree q+2)."""
    coframe, _ = _check_coframe(coframe)
    return _wedge_verdict(coframe, [exterior_derivative(a) for a in coframe], 1, points, seed)


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
    each of degree n-1, are pointwise linearly independent."""
    coframe, _ = _check_coframe(coframe)
    return check_almost_mni(coframe, [exterior_derivative(a) for a in coframe], k, points, seed)


def check_almost_mni(coframe, omegas, k: int, points=None, seed: int = 0) -> Verdict:
    """Almost maximal non-integrability: like check_mni but with arbitrary
    2-forms omega_i in place of the derivatives da_i."""
    coframe, chart = _check_coframe(coframe)
    omegas = list(omegas)
    if len(omegas) != len(coframe):
        raise InputError(
            "expected %d two-forms to match the coframe, got %d" % (len(coframe), len(omegas))
        )
    for w in omegas:
        if not isinstance(w, DiffForm) or w.degree != 2 or w.chart != chart:
            raise InputError("omega entries must be 2-forms on the coframe's chart")
    dimension_bounds(k, chart.n, len(coframe))
    return _wedge_verdict(coframe, omegas, k, points, seed)
