"""Jet-fiber coefficient machinery behind the thinness argument.

A fiber point carries the coefficients of a tuple of 1-forms (a^i_j) and
2-forms (z^i_{jl}, j < l). From these we compute the wedge-power
coefficients A, the dependence coefficients B, and the split of B over the
principal subspace into constant parts C-bar and linear parts C(mu) in the
principal entries z^i_{1mu}. The split is read off numeric forms through
the closed form of omega^k in those entries (see extract_c_coefficients).
The probe then measures the exact rank of the assembled linear system
across seeded random fibers; the classification argument needs that rank
to never be 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .algebra import Chart, Polynomial, random_rational
from .distributions import dimension_bounds
from .errors import InputError
from .forms import DiffForm, sort_with_sign, wedge, wedge_all, wedge_power
from .linalg import kernel_basis, normalize_primitive, rank

_fiber_charts = {}


def fiber_chart(n: int) -> Chart:
    """The base chart x1..xn the fiber forms live on."""
    if n not in _fiber_charts:
        _fiber_charts[n] = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    return _fiber_charts[n]


def _entry_value(value):
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, Polynomial):
        return value
    raise InputError("fiber entries must be rationals or polynomials, got %r" % (value,))


class FiberPoint:
    """Coefficients of m 1-forms and m 2-forms at one fiber of the 1-jet space.

    a maps (i, j) to a^i_j for i in 1..m, j in 1..n; z maps (i, j, l) with
    j < l to z^i_{jl}. Missing entries are zero. Entries are Fractions for
    numeric fibers; formula-level work may store polynomial entries instead.
    check_bounds=False skips the classification bound (the coefficient
    formulas themselves are defined for any m >= 0).
    """

    __slots__ = ("n", "k", "a", "z")

    def __init__(self, n: int, k: int, a=None, z=None, check_bounds: bool = True):
        lo, _ = dimension_bounds(k, n if check_bounds else None)
        if n < lo:
            raise InputError("need n >= 2k + 2 so at least one form exists")
        self.n = n
        self.k = k
        m = self.m
        self.a = {}
        for (i, j), value in (a or {}).items():
            if not (1 <= i <= m and 1 <= j <= n):
                raise InputError("a index (%d, %d) out of range" % (i, j))
            value = _entry_value(value)
            if value != 0:
                self.a[(i, j)] = value
        self.z = {}
        for (i, j, l), value in (z or {}).items():
            if not (1 <= i <= m and 1 <= j < l <= n):
                raise InputError("z index (%d, %d, %d) out of range (need j < l)" % (i, j, l))
            value = _entry_value(value)
            if value != 0:
                self.z[(i, j, l)] = value

    @property
    def m(self) -> int:
        return self.n - 2 * self.k - 1

    def a_entry(self, i: int, j: int):
        return self.a.get((i, j), Fraction(0))

    def z_entry(self, i: int, j: int, l: int):
        """Antisymmetric access: z^i_{jl} for any j != l, zero on the diagonal."""
        if j == l:
            return Fraction(0)
        if j < l:
            return self.z.get((i, j, l), Fraction(0))
        value = self.z.get((i, l, j), Fraction(0))
        return -value

    @classmethod
    def random(cls, n, k, rng=None, seed=None, include_principal=True, check_bounds=True):
        """A fiber with every entry drawn from the small-rational sampler.

        include_principal=False leaves the z^i_{1mu} slots empty, matching
        the probe's setup where those are the unknowns.
        """
        if rng is None:
            rng = random.Random(seed)
        m = n - 2 * k - 1
        a = {(i, j): random_rational(rng) for i in range(1, m + 1) for j in range(1, n + 1)}
        z = {}
        for i in range(1, m + 1):
            for j, l in combinations(range(1, n + 1), 2):
                if j == 1 and not include_principal:
                    continue
                z[(i, j, l)] = random_rational(rng)
        return cls(n, k, a, z, check_bounds=check_bounds)

    def __repr__(self):
        return "FiberPoint(n=%d, k=%d, %d a-entries, %d z-entries)" % (
            self.n, self.k, len(self.a), len(self.z),
        )


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


def dependence_multipliers(betas):
    """A nonzero normalized kernel vector c with sum c_i beta_i = 0, or None
    when the beta vectors are independent."""
    betas = [list(b) for b in betas]
    if not betas:
        raise InputError("need at least one beta vector")
    length = len(betas[0])
    if any(len(b) != length for b in betas):
        raise InputError("beta vectors have unequal lengths")
    rows = [[b[r] for b in betas] for r in range(length)]
    basis = kernel_basis(rows, len(betas))
    if not basis:
        return None
    return normalize_primitive(basis[0])


@dataclass(frozen=True)
class CExtraction:
    """Symbolic split of the dependence coefficients over the principal
    subspace: B^i_r = cbar[(i,r)] + sum_mu cmat[(i,r,mu)] * z^i_{1mu} for
    r >= 2, while b_first[i] = B^i_1 carries no symbol at all."""

    n: int
    k: int
    b_first: dict
    cbar: dict
    cmat: dict


def extract_c_coefficients(fp: FiberPoint) -> CExtraction:
    """Compute the constant and linear parts of each B^i_r in the principal
    entries z^i_{1mu}, mu = 2..n.

    The (1, mu) entries stored on the fiber are ignored: over the principal
    subspace they are the free coordinates. Write omega_i = omega0 +
    dx1 ^ eta(w) with eta(w) = sum_mu w_mu dx_mu, where omega0 drops the
    (1, mu) terms. Since (dx1 ^ eta)^2 = 0 and 2-forms commute,

        omega_i^k = omega0^k + k * omega0^(k-1) ^ dx1 ^ eta(w),

    so with A = alpha_1 ^ ... ^ alpha_m and L = A ^ omega0^(k-1) (L = A for
    k = 1) the dependence form is L ^ omega0 + k * sum_mu w_mu L ^ dx1 ^ dx_mu.
    B^i_1 and C-bar are read off L ^ omega0. Each coefficient of L ^ dx1
    sits on a key that contains 1 and misses exactly one pair {r, mu} of
    2..n; wedging on dx_mu (or dx_r) gives C^i_r(mu) (or C^i_mu(r)).

    The structural facts the argument leans on hold by construction, with
    nothing left to check at run time:
    - B is affine in the principal entries: w enters only through eta, once;
    - B^i_1 is constant: every w term carries dx1, so it never lands on the
      monomial omitting dx1;
    - C^i_r(r) = 0: every w_r term carries dx_r, so it never lands on the
      monomial omitting dx_r;
    - pseudo-symmetry C^i_r(mu) = +-C^i_mu(r): both come from the same
      coefficient of L ^ dx1, up to the sign of sorting in mu or r;
    - no base coordinate enters: every form is built from the fiber's
      numbers, and a coefficient that is not a constant (a polynomial
      fiber entry) raises InputError.
    """
    n, k, m = fp.n, fp.k, fp.m
    if m < 1:
        raise InputError("extraction needs at least one form (m >= 1)")
    chart = fiber_chart(n)
    dx1 = DiffForm.basis(chart, 1)
    indices = tuple(range(1, n + 1))
    principal = range(2, n + 1)
    b_first = {}
    cbar = {}
    cmat = {}
    a_wedge = wedge_all([alpha_form(fp, j, chart) for j in range(1, m + 1)])
    for i in range(1, m + 1):
        omega = omega_form(fp, i, chart)
        omega0 = DiffForm(chart, 2, {key: c for key, c in omega.terms.items() if key[0] != 1})
        l_wedge = a_wedge if k == 1 else wedge(a_wedge, wedge_power(omega0, k - 1))
        constant = wedge(l_wedge, omega0)
        b_first[i] = constant.coefficient(indices[1:]).constant_value()
        for r in principal:
            key = tuple(j for j in indices if j != r)
            cbar[(i, r)] = constant.coefficient(key).constant_value()
            for mu in principal:
                cmat[(i, r, mu)] = Fraction(0)
        for key, coeff in wedge(l_wedge, dx1).terms.items():
            value = k * coeff.constant_value()
            r, mu = (j for j in principal if j not in key)
            cmat[(i, r, mu)] = sort_with_sign(key + (mu,))[1] * value
            cmat[(i, mu, r)] = sort_with_sign(key + (r,))[1] * value
    return CExtraction(n, k, b_first, cbar, cmat)


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


@dataclass(frozen=True)
class PrincipalSystem:
    """The linear system cutting Sigma out of one principal subspace: rows
    indexed by r = 2..n, columns by (form index i, symbol index mu)."""

    n: int
    k: int
    c: tuple
    extraction: CExtraction
    matrix: tuple
    rhs: tuple

    @property
    def m(self) -> int:
        return self.n - 2 * self.k - 1


def assemble_principal_matrix(fp: FiberPoint, c, extraction: CExtraction = None) -> PrincipalSystem:
    """Assemble the (n-1) x ((n-1) m) system c_i C^i_r(mu) * z^i_{1mu} = rhs_r.

    c must be nonzero and satisfy the constant first equation
    sum_i c_i B^i_1 = 0; otherwise the singular set misses this principal
    subspace entirely and there is nothing to assemble.
    """
    n, m = fp.n, fp.m
    c = tuple(Fraction(x) for x in c)
    if len(c) != m:
        raise InputError("expected %d multipliers, got %d" % (m, len(c)))
    if not any(c):
        raise InputError("dependence multipliers must not all vanish")
    if extraction is None:
        extraction = extract_c_coefficients(fp)
    first = sum((c[i - 1] * extraction.b_first[i] for i in range(1, m + 1)), Fraction(0))
    if first != 0:
        raise InputError(
            "multipliers violate the constant first equation; the singular set "
            "does not meet this principal subspace"
        )
    matrix = []
    rhs = []
    for r in range(2, n + 1):
        row = []
        for i in range(1, m + 1):
            ci = c[i - 1]
            for mu in range(2, n + 1):
                row.append(ci * extraction.cmat[(i, r, mu)])
        matrix.append(tuple(row))
        rhs.append(-sum((c[i - 1] * extraction.cbar[(i, r)] for i in range(1, m + 1)), Fraction(0)))
    return PrincipalSystem(n, fp.k, c, extraction, tuple(matrix), tuple(rhs))


@dataclass(frozen=True)
class ProbeReport:
    n: int
    k: int
    seed: int
    samples: int
    rank_histogram: dict
    empty_fiber_count: int
    verdict: str

    def to_json_dict(self):
        return {
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "samples": self.samples,
            "rank_histogram": {str(r): self.rank_histogram[r] for r in sorted(self.rank_histogram)},
            "empty_fiber_count": self.empty_fiber_count,
            "verdict": self.verdict,
        }


def thinness_probe(n: int, k: int, sample_count: int, seed: int = 0) -> ProbeReport:
    """Rank statistics of the principal system over seeded random fibers.

    Each sample draws a fiber (principal slots left free), takes the first
    normalized kernel vector of the constant first equation as c — fibers
    with no nonzero c never meet the singular set and are only counted —
    assembles the system, and records its exact rank.

    Verdict FAIL iff some rank equals 1 (the argument needs codimension
    >= 2 everywhere, never 1). When every sample misses the singular set
    (skipped, or rank 0 with an inconsistent right-hand side), the verdict
    is AMPLE-BY-EMPTINESS; otherwise PASS.
    """
    dimension_bounds(k, n)
    if sample_count < 0:
        raise InputError("sample count must be non-negative")
    rng = random.Random(seed)
    m = n - 2 * k - 1
    histogram = {}
    empty = 0
    empty_like = 0
    for _ in range(sample_count):
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        extraction = extract_c_coefficients(fp)
        c = dependence_multipliers([(extraction.b_first[i],) for i in range(1, m + 1)])
        if c is None:
            empty += 1
            empty_like += 1
            continue
        system = assemble_principal_matrix(fp, c, extraction=extraction)
        r = rank(system.matrix)
        histogram[r] = histogram.get(r, 0) + 1
        if r == 0 and any(system.rhs):
            empty_like += 1
    if histogram.get(1):
        verdict = "FAIL"
    elif sample_count > 0 and empty_like == sample_count:
        verdict = "AMPLE-BY-EMPTINESS"
    else:
        verdict = "PASS"
    return ProbeReport(n, k, seed, sample_count, histogram, empty, verdict)
