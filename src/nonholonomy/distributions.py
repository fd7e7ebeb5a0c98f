"""Tangent distributions on a chart: presentations, derived flags, and the
pointwise non-integrability checks.

"Pointwise at every point" is realized as a deterministic grid plus seeded
random rational points, together with a constant-minor certificate that,
when it fires, upgrades the sampled verdict to one valid at every chart
point. Exact sampling refutes; the certificate proves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product

from .algebra import Chart, Polynomial, random_rational
from .errors import ConsistencyError, DegeneratePresentationError, InputError
from .forms import (
    DiffForm,
    VectorField,
    constant_minor_certificate,
    evaluate_at_point,
    exterior_derivative,
    independent_at_point,
    kernel_frame,
    lie_bracket,
    wedge,
    wedge_all,
    wedge_power,
)
from .linalg import kernel_basis, rank

GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))


def sample_points(chart: Chart, seed: int = 0, grid_cap: int = 200, random_count: int = 100):
    """Deterministic sample set: a truncated grid over {0, ±1, ±1/2} plus
    seeded random rational points."""
    points = [p for p in islice(product(GRID_VALUES, repeat=chart.n), grid_cap)]
    rng = random.Random(seed)
    for _ in range(random_count):
        points.append(tuple(random_rational(rng) for _ in range(chart.n)))
    return points


def _pairing(form: DiffForm, vector_field: VectorField) -> Polynomial:
    """alpha(X) for a 1-form and a field, as a polynomial."""
    total = Polynomial.zero(form.chart)
    for (idx,), coeff in form.terms.items():
        total = total + coeff * vector_field.components[idx - 1]
    return total


def _check_coframe(coframe, chart=None):
    coframe = list(coframe)
    if not coframe:
        raise InputError("expected at least one coframe form")
    chart = chart or coframe[0].chart
    for form in coframe:
        if not isinstance(form, DiffForm) or form.degree != 1:
            raise InputError("coframe entries must be 1-forms")
        if form.chart != chart:
            raise InputError("coframe forms live on different charts")
    return coframe, chart


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled pointwise check.

    value True/False is decided by the samples; None means indeterminate
    (a depth cap cut a flag short). certificate=True marks a True that a
    constant-minor certificate extends to every chart point.
    """

    value: object
    checked: int
    witnesses: tuple = ()
    certificate: bool = False

    def __bool__(self):
        return self.value is True


@dataclass(frozen=True)
class DerivedFlag:
    """Pointwise ranks of the iterated-bracket spans at one point."""

    point: tuple
    ranks: tuple
    stabilized: bool = True


class Distribution:
    """A constant-rank distribution presented by a frame, a coframe, or both.

    The declared rank is validated lazily at queried points; a violation
    raises rather than silently recording garbage.
    """

    def __init__(self, chart: Chart, frame=None, coframe=None, rank=None):
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
        if rank is not None:
            counts.add(rank)
        if len(counts) != 1:
            raise InputError("frame size, coframe corank, and declared rank disagree: %s" % sorted(counts))
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

    @classmethod
    def from_frame(cls, fields) -> "Distribution":
        fields = list(fields)
        if not fields:
            raise InputError("empty frame")
        return cls(fields[0].chart, frame=fields)

    @classmethod
    def from_coframe(cls, forms) -> "Distribution":
        forms, chart = _check_coframe(forms)
        return cls(chart, coframe=forms)

    def spanning_frame(self):
        """A polynomial frame: the given one, or a symbolic complement of the
        coframe when one with constant-coefficient structure exists."""
        if self.frame is not None:
            return self.frame
        if self._derived_frame is None:
            built = frame_from_coframe(self.coframe)
            if built is None:
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


def pointwise_kernel(coframe, point):
    """Exact basis of the joint kernel of the coframe at a point.

    An empty coframe means no constraints: the full coordinate basis.
    """
    coframe = list(coframe)
    if not coframe:
        chart_n = len(tuple(point))
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(chart_n))
                for i in range(chart_n)]
    coframe, chart = _check_coframe(coframe)
    point = tuple(point)
    rows = []
    for form in coframe:
        values = evaluate_at_point(form, point)
        rows.append([values.get((j,), Fraction(0)) for j in range(1, chart.n + 1)])
    if rank(rows) != len(coframe):
        raise _rank_drop("coframe", point)
    return kernel_basis(rows, chart.n)


def frame_from_coframe(coframe, max_minors: int = 20000):
    """Complete a coframe to a polynomial frame of its kernel, or None.

    Searches (in lexicographic order) for a column subset whose minor is a
    nonzero constant; the complementary columns then carry an identity
    block, so the frame has constant rank everywhere. Coframes without such
    a subset get None: the caller must supply a frame.
    """
    coframe, chart = _check_coframe(coframe)
    zero = Polynomial.zero(chart)
    grid = [[form.terms.get((j,), zero) for j in range(1, chart.n + 1)] for form in coframe]
    fields = kernel_frame(grid, max_minors)
    if fields is None:
        return None
    for form in coframe:
        for f in fields:
            if not _pairing(form, f).is_zero():
                raise ConsistencyError("complement field fails to annihilate the coframe")
    return fields


class _SpanningSets:
    """Cumulative bracket-generated spanning families, built lazily and
    shared across sample points. Level l spans the (l+1)-st derived space."""

    def __init__(self, frame):
        self.frame = list(frame)
        self.levels = [list(frame)]
        self._frontier = list(frame)

    def level(self, l: int):
        while len(self.levels) <= l:
            new = []
            for g in self.frame:
                for f in self._frontier:
                    b = lie_bracket(g, f)
                    if not b.is_zero():
                        new.append(b)
            self.levels.append(self.levels[-1] + new)
            self._frontier = new
        return self.levels[l]


def derived_flag_at(dist: Distribution, point, depth_cap=None) -> DerivedFlag:
    """Pointwise derived flag: ranks of evaluated iterated-bracket spans.

    Stops when the rank hits n, repeats, or the depth cap is reached; the
    default cap n guarantees termination with a stabilized flag.
    """
    point = tuple(point)
    if len(point) != dist.chart.n:
        raise InputError("point has wrong dimension")
    if depth_cap is None:
        depth_cap = dist.chart.n
    if depth_cap < 1:
        raise InputError("depth cap must be at least 1")
    spans = dist._spanning_sets()
    n = dist.chart.n
    rows = []
    seen = 0
    ranks = []
    level = 0
    while True:
        fields = spans.level(level)
        for f in fields[seen:]:
            rows.append(f.evaluate(point))
        seen = len(fields)
        r = rank(rows)
        ranks.append(r)
        if len(ranks) > 1 and ranks[-1] < ranks[-2]:
            raise ConsistencyError("derived flag decreased")
        if r == n or (len(ranks) > 1 and ranks[-1] == ranks[-2]):
            return DerivedFlag(point, tuple(ranks), True)
        if len(ranks) >= depth_cap:
            return DerivedFlag(point, tuple(ranks), False)
        level += 1


def has_derived_length_one(dist: Distribution, points=None, seed: int = 0) -> Verdict:
    """True iff the flag is [r, n] at every sample point.

    A first-level rank below the declared one is a presentation failure,
    not integrability information, and raises.
    """
    if points is None:
        points = sample_points(dist.chart, seed)
    n = dist.chart.n
    expected = (n,) if dist.rank == n else (dist.rank, n)
    witnesses = []
    indeterminate = False
    for point in points:
        flag = derived_flag_at(dist, point)
        if flag.ranks[0] < dist.rank:
            raise _rank_drop("frame", point)
        if not flag.stabilized:
            indeterminate = True
        elif flag.ranks != expected:
            witnesses.append(tuple(point))
    if indeterminate and not witnesses:
        return Verdict(None, len(points), ())
    return Verdict(not witnesses, len(points), tuple(witnesses))


def _independence_verdict(forms, points) -> Verdict:
    certificate = constant_minor_certificate(forms)
    witnesses = [tuple(p) for p in points if not independent_at_point(forms, p)]
    if certificate and witnesses:
        raise ConsistencyError("constant-minor certificate contradicts a sampled dependence")
    return Verdict(not witnesses, len(points), tuple(witnesses), certificate)


def _wedge_verdict(coframe, omegas, k, points, seed) -> Verdict:
    """Sample, guard the coframe rank, then test the forms
    a_1^...^a_q^(omega_i)^k for pointwise independence."""
    if points is None:
        points = sample_points(coframe[0].chart, seed)
    for point in points:
        if not independent_at_point(coframe, point):
            raise _rank_drop("coframe", point)
    base = wedge_all(coframe)
    forms = [wedge(base, wedge_power(w, k)) for w in omegas]
    return _independence_verdict(forms, points)


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


@dataclass(frozen=True)
class TypeReport:
    """Type (r, n) of a derived-length-one distribution, with the odd-rank
    ambient-dimension bound when it applies."""

    rank: int
    dim: int
    k: object = None
    bounds: object = None
    bounds_ok: object = None


def type_of(dist: Distribution, points=None, seed: int = 0) -> TypeReport:
    verdict = has_derived_length_one(dist, points, seed)
    if verdict.value is not True:
        raise InputError(
            "type is defined only for derived length one; flag mismatch at %d of %d sample points"
            % (len(verdict.witnesses), verdict.checked)
        )
    r, n = dist.rank, dist.chart.n
    if r % 2 == 1 and r >= 3:
        k = (r - 1) // 2
        lo, hi = dimension_bounds(k)
        return TypeReport(r, n, k, (lo, hi), lo <= n <= hi)
    return TypeReport(r, n)
