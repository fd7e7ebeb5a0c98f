"""Jet-fiber coefficient machinery behind the thinness argument.

A fiber point carries the coefficients of m 1-forms (a^i_j) and m 2-forms
(z^i_{jl}, j < l). The dependence coefficients B^i of
alpha_1 ^ ... ^ alpha_m ^ omega_i^k split over the principal subspace into
constant parts C-bar and linear parts C(mu) in the principal entries
z^i_{1mu}; every one of them is a Pfaffian of one skew matrix per form (see
extract_c_coefficients). The probe measures the exact rank of the assembled
linear system across seeded random fibers; the classification argument
needs that rank never to be 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .algebra import Polynomial, random_rational
from .distributions import dimension_bounds
from .errors import InputError
from .linalg import kernel_basis, normalize_primitive, pfaffian, rank


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
    k must be an integer >= 1 and n >= 2k+2, so that there is at least one
    form (m >= 1). The upper bound n <= 4k+2 of the classification is not
    imposed here: the coefficient formulas hold for any such n, and
    thinness_probe checks the full range.
    """

    __slots__ = ("n", "k", "a", "z")

    def __init__(self, n: int, k: int, a=None, z=None):
        lo, _ = dimension_bounds(k)
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
    def random(cls, n, k, rng, include_principal=True):
        """A fiber with every entry drawn by the small-rational sampler from rng.

        include_principal=False leaves the z^i_{1mu} slots empty, matching
        the probe's setup where those are the unknowns.
        """
        m = n - 2 * k - 1
        a = {(i, j): random_rational(rng) for i in range(1, m + 1) for j in range(1, n + 1)}
        z = {}
        for i in range(1, m + 1):
            for j, l in combinations(range(1, n + 1), 2):
                if j == 1 and not include_principal:
                    continue
                z[(i, j, l)] = random_rational(rng)
        return cls(n, k, a, z)

    def __repr__(self):
        return "FiberPoint(n=%d, k=%d, %d a-entries, %d z-entries)" % (
            self.n, self.k, len(self.a), len(self.z),
        )


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

    b_first: dict
    cbar: dict
    cmat: dict


def extract_c_coefficients(fp: FiberPoint) -> CExtraction:
    """Compute the constant and linear parts of each B^i_r in the principal
    entries z^i_{1mu}, mu = 2..n, as Pfaffians of one skew matrix per form.

    The (1, mu) entries stored on the fiber are ignored: over the principal
    subspace they are the free coordinates w_mu. With one extra coordinate
    e_t per 1-form, M = [[Z, A^T], [-A, 0]] is the matrix of the 2-form
    omega_i + sum_t alpha_t ^ e_t, Z having w = 0. Expanding its (k+m)-th
    power, Pf(M without r) is B^i_r / s with s = (-1)^(m(m-1)/2) k!, and
    since w enters only row 1, expanding along that row splits B^i_r
    exactly (coordinates of M are 1-based):
    - B^i_1 = s Pf(M without 1) and C-bar_r = s Pf(M without r);
    - for 2 <= r < mu, with P = Pf(M without 1, r, mu), C^i_r(mu) =
      (-1)^(mu+1) s P and C^i_mu(r) = (-1)^r s P (pseudo-symmetry), while
      C^i_r(r) = 0. A polynomial fiber entry raises InputError.

    FiberPoint guarantees m >= 1, so every form has a matrix to expand.
    """
    n, k, m = fp.n, fp.k, fp.m
    if not all(isinstance(v, Fraction) for v in (*fp.a.values(), *fp.z.values())):
        raise InputError("extraction needs numeric fiber entries")
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


@dataclass(frozen=True)
class PrincipalSystem:
    """The linear system cutting Sigma out of one principal subspace: rows
    indexed by r = 2..n, columns by (form index i, symbol index mu)."""

    matrix: tuple
    rhs: tuple


def assemble_principal_matrix(fp: FiberPoint, c, extraction: CExtraction) -> PrincipalSystem:
    """Assemble the (n-1) x ((n-1) m) system c_i C^i_r(mu) * z^i_{1mu} = rhs_r.

    extraction is extract_c_coefficients(fp). c must be nonzero and satisfy
    the constant first equation sum_i c_i B^i_1 = 0; otherwise the singular
    set misses this principal subspace entirely and there is nothing to
    assemble.
    """
    n, m = fp.n, fp.m
    c = tuple(Fraction(x) for x in c)
    if len(c) != m:
        raise InputError("expected %d multipliers, got %d" % (m, len(c)))
    if not any(c):
        raise InputError("dependence multipliers must not all vanish")
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
    return PrincipalSystem(tuple(matrix), tuple(rhs))


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
        system = assemble_principal_matrix(fp, c, extraction)
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
