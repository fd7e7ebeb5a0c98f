"""Jet-fiber coefficient machinery behind the thinness argument.

A fiber point carries the coefficients of m 1-forms (a^i_j) and m 2-forms
(z^i_{jl}, j < l). The dependence coefficients B^i of
alpha_1 ^ ... ^ alpha_m ^ omega_i^k split over the principal subspace into
constant parts C-bar and linear parts C(mu) in the principal entries
z^i_{1mu}; every one of them is a Pfaffian of one skew matrix M per form (see
extract_c_coefficients, whose solve gives them all when B^i_1 = b_first =
s Pf(M') is nonzero, M' being M without coordinate 1).

The probe measures the exact rank of the principal system c_i C^i_r(mu)
across seeded random fibers; the classification argument needs that rank
never to be 1. It takes b_first of forms 1 and 2 alone and c from them in
closed form. When c is supported on both (b_first^1 != 0 != b_first^2),
each C^i is one solve: C^i_r(mu) = (-1)^(r+1) s Y_i[mu-2][r-2] /
L^(n-k-2), Y_i[mu-2] being Pf(L M') (L M')^-1 applied to the unit column
of coordinate mu. So the system is the integer (n-1) x 2(n-1) matrix
whose row r-2 is (Y_1[mu-2][r-2])_mu followed by (Y_2[mu-2][r-2])_mu,
with row r-2 scaled by (-1)^(r+1) s and column block i by c_i /
L^(n-k-2), all nonzero; the probe ranks that matrix, assembling nothing.
The right-hand side, and with it C-bar, matters only at rank 0, and this
rank is 2k (below), so C-bar is not solved for; any other rank raises
ConsistencyError. Otherwise c = e_i with b_first^i = 0: C-bar and C of
form i come from the direct minors, and assemble_principal_matrix builds
the system, reading no other form.

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

from .algebra import Polynomial, random_rational
from .distributions import dimension_bounds
from .errors import ConsistencyError, InputError
from .linalg import normalize_primitive, pfaffian, rank, solve


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
    """The extraction's first step: M = [[Z, A^T], [-A, 0]] of each form in
    forms, principal entries w = 0, as integer rows scaled by one common
    denominator L of the fiber's other entries, and b_first = s Pf(M');
    returns ({i: M}, L, {i: b_first}, s). A polynomial entry raises
    InputError."""
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
    scale = (-1) ** (fp.m * (fp.m - 1) // 2) * factorial(fp.k)
    return matrices, L, {i: scale * _minor_pfaffian(M, L, {0}) for i, M in matrices.items()}, scale


def _minor_pfaffian(M, L, omit):
    """Pf of the rational matrix M / L without the 0-based coordinates omit."""
    keep = [c for c in range(len(M)) if c not in omit]
    return pfaffian([[M[a][b] for b in keep] for a in keep]) / L ** (len(keep) // 2)


def _principal_solve(fp: FiberPoint, M, L, b_first, scale, *extra):
    """Y = Pf(L M') (L M')^-1 applied to the n - 1 unit columns of the
    principal coordinates 2..n, then to the integer columns extra: one
    linalg.solve with M', b_first != 0 being s Pf(M')."""
    size = len(M) - 1
    pf = (b_first * L ** (size // 2) / scale).numerator  # Pf(L M'), an integer
    columns = [[int(a == b) for a in range(size)] for b in range(fp.n - 1)]
    return solve([row[1:] for row in M[1:]], columns + list(extra), pf)


def _form_parts(fp: FiberPoint, i, M, L, b_first, scale, cbar, cmat):
    """The extraction's second step: C-bar and C of form i into cbar and
    cmat, from _form_matrices' M, L, b_first and s. One solve with M' when
    b_first != 0, the Pfaffian minors one by one when b_first == 0."""
    n = fp.n
    principal = range(2, n + 1)
    if b_first:
        Y = _principal_solve(fp, M, L, b_first, scale, [row[0] for row in M[1:]])
        low = L ** (n - fp.k - 2)
        for r in principal:
            sign = scale if r % 2 else -scale
            cbar[(i, r)] = Fraction(-sign * Y[-1][r - 2], low * L)
            for mu in principal:
                cmat[(i, r, mu)] = Fraction(sign * Y[mu - 2][r - 2], low)
        return
    for r in principal:
        cbar[(i, r)] = scale * _minor_pfaffian(M, L, {r - 1})
        cmat[(i, r, r)] = Fraction(0)
    for r, mu in combinations(principal, 2):
        value = scale * _minor_pfaffian(M, L, {0, r - 1, mu - 1})
        cmat[(i, r, mu)] = -value if mu % 2 == 0 else value
        cmat[(i, mu, r)] = -value if r % 2 else value


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
    When b_first != 0 one exact solve with M' gives all of these: for
    0-based a < b, Pf(M' without a, b) = (-1)^(a+b) Pf(M') (M'^-1)_ab with
    a = r - 2, b = mu - 2, and with x = -M'^-1 M[2.., 1], C-bar_r =
    (-1)^(r-1) b_first x_(r-2). In integers, M scaled by the common
    denominator L, that is one linalg.solve with scale Pf(L M'): with
    Y = Pf(L M') (L M')^-1, C^i_r(mu) = (-1)^(r+1) s Y_(r-2, mu-2) /
    L^(n-k-2), and C-bar_r = (-1)^r s (Y L M[2.., 1])_(r-2) / L^(n-k-1).
    When b_first == 0 the minors are taken directly.

    This runs the steps _form_matrices and _form_parts for every form; the
    probe runs them for c's support alone. A polynomial entry raises
    InputError.
    """
    matrices, L, b_first, scale = _form_matrices(fp, range(1, fp.m + 1))
    cbar, cmat = {}, {}
    for i, M in matrices.items():
        _form_parts(fp, i, M, L, b_first[i], scale, cbar, cmat)
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


def _multipliers(b_first, m):
    """c, the first kernel vector of the row (b_first^1, ..., b_first^m),
    whose pivot is its first nonzero column: e_1 when b_first^1 == 0, else
    the primitive (-b_first^2, b_first^1, 0, ...), or None when m = 1."""
    if not b_first[1]:
        return (1,) + (0,) * (m - 1)
    if m == 1:
        return None
    return normalize_primitive((-b_first[2], b_first[1]) + (0,) * (m - 2))


def thinness_probe(n: int, k: int, sample_count: int, seed: int = 0) -> ProbeReport:
    """Rank statistics of the principal system over seeded random fibers.

    Each sample draws a fiber (principal slots left free), builds M and
    b_first of forms 1 and 2 alone, and takes c in closed form — fibers with
    no nonzero c never meet the singular set and are only counted. Then it
    records the exact rank of the principal system:
    - c on forms 1 and 2 (both b_first nonzero): the rank of the integer
      matrix [Y_1^T | Y_2^T], Y_i from one solve with M'_i on the n - 1
      principal unit columns. The system is this matrix with row r-2
      scaled by (-1)^(r+1) s and column block i by c_i / L^(n-k-2), so the
      ranks agree. That rank is 2k (module docstring), so the right-hand
      side, which only rank 0 reads, and its C-bar column are never
      solved; a rank other than 2k raises ConsistencyError.
    - c = e_i with b_first^i = 0: C-bar and C of form i from the direct
      minors, and the rank of the assembled system.
    sample_count must be at least 1.

    Verdict FAIL iff some rank equals 1 (the argument needs codimension
    >= 2 everywhere, never 1). When every sample misses the singular set
    (skipped, or rank 0 with an inconsistent right-hand side), the verdict
    is AMPLE-BY-EMPTINESS; otherwise PASS.
    """
    dimension_bounds(k, n)
    if sample_count < 1:
        raise InputError("sample count must be at least 1")
    rng = random.Random(seed)
    m = n - 2 * k - 1
    histogram = {}
    empty = 0
    empty_like = 0
    for _ in range(sample_count):
        fp = FiberPoint.random(n, k, rng=rng, include_principal=False)
        matrices, L, b_first, scale = _form_matrices(fp, range(1, min(m, 2) + 1))
        c = _multipliers(b_first, m)
        if c is None:
            empty += 1
            empty_like += 1
            continue
        if all(b_first.values()):  # c is supported on forms 1 and 2
            Y1, Y2 = (_principal_solve(fp, M, L, b_first[i], scale) for i, M in matrices.items())
            r = rank([[y[a] for y in Y1] + [y[a] for y in Y2] for a in range(n - 1)])
            if r != 2 * k:
                raise ConsistencyError(
                    "two-form principal system has rank %d, not 2k = %d" % (r, 2 * k)
                )
        else:
            cbar, cmat = {}, {}
            for i, M in matrices.items():
                if c[i - 1]:
                    _form_parts(fp, i, M, L, b_first[i], scale, cbar, cmat)
            system = assemble_principal_matrix(fp, c, CExtraction(b_first, cbar, cmat))
            r = rank(system.matrix)
            if r == 0 and any(system.rhs):
                empty_like += 1
        histogram[r] = histogram.get(r, 0) + 1
    if histogram.get(1):
        verdict = "FAIL"
    elif empty_like == sample_count:
        verdict = "AMPLE-BY-EMPTINESS"
    else:
        verdict = "PASS"
    return ProbeReport(n, k, seed, sample_count, histogram, empty, verdict)
