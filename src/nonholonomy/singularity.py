"""Jet-fiber coefficient machinery behind the thinness argument.

A fiber point carries the coefficients of m 1-forms (a^i_j) and m 2-forms
(z^i_{jl}, j < l). The dependence coefficients B^i of
alpha_1 ^ ... ^ alpha_m ^ omega_i^k split over the principal subspace into
constant parts C-bar and linear parts C(mu) in the principal entries
z^i_{1mu}; every one of them is a Pfaffian of one skew matrix M per form (see
extract_c_coefficients, where linalg.pfaffian_minors of M', M without
coordinate 1, gives them all, and B^i_1 = b_first = s Pf(M')).

The probe measures the exact rank of the principal system c_i C^i_r(mu)
across seeded random fibers; the classification argument needs that rank
never to be 1. c is the first kernel vector of the row (b_first^i)_i:
supported on forms 1 and 2 when b_first^1 != 0 != b_first^2, else e_i for
the first i with b_first^i = 0; at m = 1 a nonzero b_first^1 leaves no c.
So the probe reads b_first^1 and b_first^2 only as zero or not, each off
one solve of L M'_i, M'_2 only when M'_1 is nonsingular: against the
principal unit columns at m >= 2, against none at m = 1.
- A nonsingular M'_i gives Y_i = |Pf(L M'_i)| (L M'_i)^-1 on those columns,
  the scale read off its last pivot +-Pf(L M'_i)^2. As C^i_r(mu) =
  +-(-1)^(r+1) s Y_i[mu-2][r-2] / L^(n-k-2), the sign being that of
  Pf(M'_i), the system of a two-form c is [Y_1^T | Y_2^T] up to nonzero
  row and column scales. Its rank is 2k (below), else ConsistencyError,
  so the right-hand side, which matters only at rank 0, is not solved.
- A singular M'_i makes c = e_i, and solve gives a basis of its kernel,
  where the columns of the signed minors P of L M'_i lie: P = lambda u ^ w,
  lambda != 0, at corank 2 with (u, w) the basis, and P = 0 above. C^i is
  the principal (n-1)-block of P up to nonzero row and column scales, so
  the rank is that of the block of u ^ w, and the right-hand side
  -C-bar^i, read at rank 0, is 0 where the principal part of
  P b = lambda (u (w . b) - w (u . b)) is, b = L M[2.., 1].
So the probe takes no Pfaffian and assembles no system.

Why the rank is never 1, with S^i = C^i diag((-1)^(mu+1)) over r, mu = 2..n:
- S^i is skew, S^i_(r, mu) = s Pf(M' without r, mu) for r < mu, so rank
  C^i is even.
- The rows ((-1)^r a^t_r) annihilate every S^i from the left: M' adj =
  Pf(M') I for adj the skew matrix of signed minors Pf(M' without a, b),
  and the row of M' for e_t is (-alpha_t, 0). So where A' has rank m,
  [c_1 C^1 | c_2 C^2] has rank at most n - 1 - m = 2k.
- When Pf(M') != 0, S^i is s Pf(M') M'^-1 on its top-left (n-1)-block, up
  to sign diagonals. By the nullity theorem (Gustafson 1984; Strang-Nguyen,
  SIAM Review 46, 2004) that block has the nullity m of the complementary
  zero block of M', so rank C^i = 2k; and A' has rank m.
- c is (-b_first^2, b_first^1, 0, ...) or e_1 by construction: supported
  on forms 1 and 2 with b_first^1 c_1 != 0, and the rank is 2k; or one
  e_i with b_first^i = 0, and the rank is that of S^i, even.
test_skew_structure_and_probe_rank_2k pins the first three steps.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm
from operator import mul

from .algebra import Polynomial, random_rational
from .distributions import dimension_bounds
from .errors import ConsistencyError, InputError
from .linalg import pfaffian_minors, rank, solve


_MAX_PROBE_COORDINATES = 46  # one sample takes about 1.5 s at n = 46, growing as n^6


def _entry_value(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
        the probe's setup where those are the unknowns. The constructor checks
        n and k; the draws fill a and z in order, zeros left out, unchecked.
        """
        fp = cls(n, k)
        forms = range(1, fp.m + 1)
        a_keys = ((i, j) for i in forms for j in range(1, n + 1))
        z_keys = ((i, j, l) for i in forms for j, l in combinations(range(1, n + 1), 2)
                  if include_principal or j != 1)
        fp.a = {key: v for key in a_keys if (v := random_rational(rng))}
        fp.z = {key: v for key in z_keys if (v := random_rational(rng))}
        return fp

    def __repr__(self):
        return "FiberPoint(n=%d, k=%d, %d a-entries, %d z-entries)" % (
            self.n, self.k, len(self.a), len(self.z),
        )


class CExtraction(namedtuple("CExtraction", "b_first cbar cmat")):
    """Symbolic split of the dependence coefficients over the principal
    subspace: B^i_r = cbar[(i,r)] + sum_mu cmat[(i,r,mu)] * z^i_{1mu} for
    r >= 2, while b_first[i] = B^i_1 carries no symbol at all. A tuple
    (b_first, cbar, cmat) of three dicts."""

    __slots__ = ()


def _form_matrices(fp: FiberPoint, forms):
    """The extraction's and the probe's first step: M = [[Z, A^T], [-A, 0]]
    of each form in forms, principal entries w = 0, as integer rows scaled
    by one common denominator L of the fiber's other entries; returns
    ({i: M}, L, s). A polynomial entry raises InputError."""
    if not all(isinstance(v, Fraction) for v in (*fp.a.values(), *fp.z.values())):
        raise InputError("extraction needs numeric fiber entries")
    n, z = fp.n, fp.z
    size = n + fp.m
    values = [v for (_, j, _), v in z.items() if j != 1] + list(fp.a.values())
    L = lcm(*(v.denominator for v in values))

    def put(M, j, l, v):
        M[j - 1][l - 1] = x = v.numerator * (L // v.denominator)
        M[l - 1][j - 1] = -x

    base = [[0] * size for _ in range(size)]
    for (t, j), v in fp.a.items():
        put(base, j, n + t, v)
    matrices = {}
    for i in forms:
        matrices[i] = M = [row[:] for row in base]
        for j, l in combinations(range(2, n + 1), 2):
            if (i, j, l) in z:
                put(M, j, l, z[i, j, l])
    return matrices, L, (-1) ** (fp.m * (fp.m - 1) // 2) * factorial(fp.k)


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
    - B^i_1 = s Pf(M') and C-bar_r = s Pf(M without r), M' being M without
      coordinate 1, of even size 2n - 2k - 2;
    - for 2 <= r < mu, with P = Pf(M without 1, r, mu), C^i_r(mu) =
      (-1)^(mu+1) s P and C^i_mu(r) = (-1)^r s P (pseudo-symmetry), while
      C^i_r(r) = 0.
    In integers, M scaled by the common denominator L, the skew matrix
    P = linalg.pfaffian_minors(L M') of (-1)^(a+b) Pf(L M' without a, b),
    0-based a < b, gives all of these whatever b_first, as
    L M' P = Pf(L M') I: C^i_r(mu) = (-1)^(r+1) s P_(r-2, mu-2) / L^(n-k-2),
    C-bar_r = (-1)^r s (P L M[2.., 1])_(r-2) / L^(n-k-1), expanding
    Pf(M without r) along coordinate 1, and b_first =
    s (L M' P)_(0,0) / L^(n-k-1). Where b_first != 0, P = Pf(L M') (L M')^-1
    takes one elimination and one Pfaffian.

    The probe shares the step _form_matrices and reads the rank of these
    parts off linalg.solve instead (thinness_probe). A polynomial entry
    raises InputError.
    """
    n = fp.n
    matrices, L, scale = _form_matrices(fp, range(1, fp.m + 1))
    low = L ** (n - fp.k - 2)
    b_first, cbar, cmat = {}, {}, {}
    for i, M in matrices.items():
        P = pfaffian_minors([row[1:] for row in M[1:]])
        for r in range(2, n + 1):
            sign = scale if r % 2 else -scale  # (-1)^(r+1) s
            cbar[(i, r)] = Fraction(-sign * sum(map(mul, P[r - 2], (row[0] for row in M[1:]))), low * L)
            for mu in range(2, n + 1):
                cmat[(i, r, mu)] = Fraction(sign * P[r - 2][mu - 2], low)
        b_first[i] = Fraction(scale * sum(map(mul, M[1][1:], (row[0] for row in P))), low * L)
    return CExtraction(b_first, cbar, cmat)


class PrincipalSystem(namedtuple("PrincipalSystem", "matrix rhs")):
    """The linear system cutting Sigma out of one principal subspace: rows
    indexed by r = 2..n, columns by (form index i, symbol index mu). A
    tuple (matrix, rhs)."""

    __slots__ = ()


def assemble_principal_matrix(fp: FiberPoint, c, extraction: CExtraction) -> PrincipalSystem:
    """Assemble the (n-1) x ((n-1) m) system c_i C^i_r(mu) * z^i_{1mu} = rhs_r.

    extraction is extract_c_coefficients(fp) or, at least, carries C-bar
    and C for every form with c_i != 0: only those forms are read, and the
    columns of the others are exact zeros. c must be nonzero and satisfy
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
    support = [(i, c[i - 1]) for i in range(1, m + 1) if c[i - 1]]
    first = sum((ci * extraction.b_first[i] for i, ci in support), Fraction(0))
    if first != 0:
        raise InputError(
            "multipliers violate the constant first equation; the singular set "
            "does not meet this principal subspace"
        )
    principal = range(2, n + 1)
    zeros = [Fraction(0)] * (n - 1)
    matrix = []
    rhs = []
    for r in principal:
        row = []
        for i, ci in enumerate(c, start=1):
            row += [ci * extraction.cmat[(i, r, mu)] for mu in principal] if ci else zeros
        matrix.append(tuple(row))
        rhs.append(-sum((ci * extraction.cbar[(i, r)] for i, ci in support), Fraction(0)))
    return PrincipalSystem(tuple(matrix), tuple(rhs))


class ProbeReport(namedtuple(
        "ProbeReport", "n k seed samples rank_histogram empty_fiber_count verdict")):
    """thinness_probe's result, a tuple of its seven fields."""

    __slots__ = ()

    def to_json_dict(self):
        payload = self._asdict()
        payload["rank_histogram"] = {str(r): count for r, count in self.rank_histogram.items()}
        return payload


def thinness_probe(n: int, k: int, sample_count: int, seed: int = 0) -> ProbeReport:
    """Rank statistics of the principal system over seeded random fibers.

    Each sample draws a fiber (principal slots left free), builds M of
    forms 1 and 2 alone, and solves L M'_1, then L M'_2 if M'_1 is
    nonsingular. Fibers with no nonzero c, M'_1 nonsingular at m = 1,
    never meet the singular set and are only counted. Otherwise it records
    the exact rank of the principal system, read off the solves as the
    module docstring shows: of [Y_1^T | Y_2^T] for c on forms 1 and 2,
    which must be 2k, else ConsistencyError; of the principal block of
    u ^ w for c = e_i.
    sample_count must be at least 1 and n at most _MAX_PROBE_COORDINATES;
    a larger n raises InputError before any fiber is drawn.

    Verdict FAIL iff some rank equals 1 (the argument needs codimension
    >= 2 everywhere, never 1). When every sample misses the singular set
    (skipped, or rank 0 with an inconsistent right-hand side), the verdict
    is AMPLE-BY-EMPTINESS; otherwise PASS.
    """
    dimension_bounds(k, n)
    if n > _MAX_PROBE_COORDINATES:
        raise InputError("thinness on %d coordinates is refused; at most %d are probed"
                         % (n, _MAX_PROBE_COORDINATES))
    if sample_count < 1:
        raise InputError("sample count must be at least 1")
    rng = random.Random(seed)
    m = n - 2 * k - 1
    principal = range(n - 1)
    units = [[int(a == b) for a in range(n + m - 1)] for b in principal] if m > 1 else []
    histogram = {}
    empty = 0
    empty_like = 0
    for _ in range(sample_count):
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        solved = []
        for M in _form_matrices(fp, range(1, min(m, 2) + 1))[0].values():
            p, X = solve([row[1:] for row in M[1:]], units)
            if p:  # b_first^i != 0
                solved.append(X)
                continue
            # c = e_i, X a basis of ker M'_i: P = lambda u ^ w at corank 2, else 0
            r = 0
            if len(X) == 2:
                u, w = X
                r = rank([[u[a] * w[b] - u[b] * w[a] for b in principal] for a in principal])
                if r == 0:
                    ub, wb = (sum(map(mul, v, (row[0] for row in M[1:]))) for v in X)
                    empty_like += any(u[a] * wb - w[a] * ub for a in principal)
            break
        else:
            if m == 1:  # b_first^1 != 0: no c
                empty += 1
                empty_like += 1
                continue
            Y1, Y2 = solved  # c is supported on forms 1 and 2
            r = rank([[y[a] for y in Y1] + [y[a] for y in Y2] for a in principal])
            if r != 2 * k:
                raise ConsistencyError(
                    "two-form principal system has rank %d, not 2k = %d" % (r, 2 * k)
                )
        histogram[r] = histogram.get(r, 0) + 1
    if histogram.get(1):
        verdict = "FAIL"
    elif empty_like == sample_count:
        verdict = "AMPLE-BY-EMPTINESS"
    else:
        verdict = "PASS"
    return ProbeReport(n, k, seed, sample_count, histogram, empty, verdict)
