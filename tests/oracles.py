"""Slow reference formulas for the jet-fiber coefficients.

These expand the dependence forms alpha_1 ^ ... ^ alpha_m ^ omega_i^k
through the exterior algebra (wedge, wedge_power) and by arrangement sums,
independently of the Pfaffian extraction in nonholonomy.singularity. The
tests and the acceptance criteria check the fast path against them.
"""

from fractions import Fraction
from itertools import combinations, permutations

from nonholonomy.algebra import Chart
from nonholonomy.errors import InputError
from nonholonomy.forms import DiffForm, wedge_all, wedge_power
from nonholonomy.singularity import FiberPoint

_fiber_charts = {}


def fiber_chart(n: int) -> Chart:
    """The base chart x1..xn the fiber forms live on."""
    if n not in _fiber_charts:
        _fiber_charts[n] = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    return _fiber_charts[n]


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
