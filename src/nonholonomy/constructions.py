"""Built-in distributions and form constructions used as the verification
corpus, plus the oriented-pairing identity verifier.

Each builder returns an ExampleBundle whose claims field lists the checks
the construction is expected to pass; the CLI's `example --check` runs
exactly that set. Expected-false behaviour (an integrable construction
failing check_mni, say) is exercised in the test suite instead.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .algebra import Chart, Polynomial
from .distributions import Distribution, _check_coframe, _integer_sample
from .errors import InputError
from .forms import (
    DiffForm,
    VectorField,
    constant_minor_certificate,
    dependent_points,
    wedge,
    wedge_all,
    wedge_power,
)


class ExampleBundle(namedtuple(
        "ExampleBundle",
        "name distribution coframe omegas k ori_coframe expected_flag claims",
        defaults=(None, None, None, (), ()))):
    """A named construction: the distribution, its defining coframe, an
    optional omega-tuple, and the advertised (expected-true) checks, as a
    tuple of those eight fields."""

    __slots__ = ()


def _contact_form(m: int, extra=()):
    """Chart (z, x1, y1, ..., xm, ym, *extra), the 1-form dz - sum y_i dx_i,
    and the frame of its kernel over the contact coordinates."""
    names = ["z"]
    for i in range(1, m + 1):
        names += ["x%d" % i, "y%d" % i]
    chart = Chart(names + list(extra))
    alpha = DiffForm.basis(chart, "z")
    fields = []
    for i in range(1, m + 1):
        y = Polynomial.coordinate(chart, "y%d" % i)
        alpha = alpha - y * DiffForm.basis(chart, "x%d" % i)
        fields += [
            VectorField.basis(chart, "x%d" % i) + y * VectorField.basis(chart, "z"),
            VectorField.basis(chart, "y%d" % i),
        ]
    return chart, alpha, fields


def contact_structure(m: int) -> ExampleBundle:
    """The contact structure on R^(2m+1): kernel of dz - sum y_i dx_i."""
    if m < 1:
        raise InputError("contact structure needs m >= 1")
    chart, alpha, fields = _contact_form(m)
    dist = Distribution(chart, frame=fields, coframe=[alpha])
    return ExampleBundle(
        name="contact-%d" % m,
        distribution=dist,
        coframe=(alpha,),
        expected_flag=(2 * m, 2 * m + 1),
        claims=("flag", "check-dlo", "check-dbasis"),
    )


def even_contact_structure(n: int) -> ExampleBundle:
    """The even-contact structure on R^n, n even: same 1-form as the contact
    structure on one dimension less, with a spare coordinate w."""
    if n < 4 or n % 2:
        raise InputError("even-contact structure needs even n >= 4")
    k = (n - 2) // 2
    chart, alpha, fields = _contact_form(k, ["w"])
    fields.append(VectorField.basis(chart, "w"))
    dist = Distribution(chart, frame=fields, coframe=[alpha])
    return ExampleBundle(
        name="even-contact-%d" % n,
        distribution=dist,
        coframe=(alpha,),
        k=k,
        expected_flag=(n - 1, n),
        claims=("flag", "check-dlo", "check-dbasis", "check-mni"),
    )


def jet_canonical(k: int) -> ExampleBundle:
    """The canonical distribution on the 1-jet space of maps R -> R^k:
    chart (x, y_1..y_k, z_1..z_k), coframe dy_i - z_i dx."""
    if k < 1:
        raise InputError("jet construction needs k >= 1")
    names = ["x"] + ["y%d" % i for i in range(1, k + 1)] + ["z%d" % i for i in range(1, k + 1)]
    chart = Chart(names)
    coframe = []
    x_field = VectorField.basis(chart, "x")
    for i in range(1, k + 1):
        z = Polynomial.coordinate(chart, "z%d" % i)
        coframe.append(DiffForm.basis(chart, "y%d" % i) - z * DiffForm.basis(chart, "x"))
        x_field = x_field + z * VectorField.basis(chart, "y%d" % i)
    fields = [x_field] + [VectorField.basis(chart, "z%d" % i) for i in range(1, k + 1)]
    dist = Distribution(chart, frame=fields, coframe=coframe)
    claims = ["flag", "check-dlo", "check-dbasis"]
    mni_k = None
    if k % 2 == 0:
        # rank k+1 = 2(k/2)+1 is odd; the derivatives dx^dz_i square to zero,
        # so check_mni only holds for the k=2 slice where one power suffices
        mni_k = k // 2
        if k == 2:
            claims.append("check-mni")
    return ExampleBundle(
        name="jet-canonical-%d" % k,
        distribution=dist,
        coframe=tuple(coframe),
        k=mni_k,
        expected_flag=(k + 1, 2 * k + 1),
        claims=tuple(claims),
    )


def single_constraint_r5() -> ExampleBundle:
    """Rank-4 kernel of the single 1-form dy - z1 dx1 on a 5-dimensional chart."""
    chart = Chart(("x1", "x2", "y", "z1", "z2"))
    z1 = Polynomial.coordinate(chart, "z1")
    alpha = DiffForm.basis(chart, "y") - z1 * DiffForm.basis(chart, "x1")
    dist = Distribution(chart, coframe=[alpha])
    return ExampleBundle(
        name="example2-r5",
        distribution=dist,
        coframe=(alpha,),
        expected_flag=(4, 5),
        claims=("flag", "check-dlo", "check-dbasis"),
    )


def build_prop_ori_omegas(coframe):
    """The paired-omission 2-forms over a tuple of 2k+1 independent 1-forms.

    omega_i wedges the omitted-index covectors in increasing pairs:
    omega_i = sum_j X*_{p_{2j-1}} ^ X*_{p_{2j}} with (p_1, ..., p_{2k}) the
    increasing arrangement of {1, ..., 2k+1} minus {i}.
    """
    coframe, chart = _check_coframe(coframe)
    q = len(coframe)
    if q < 3 or q % 2 == 0:
        raise InputError("expected an odd number 2k+1 >= 3 of 1-forms, got %d" % q)
    if not constant_minor_certificate(coframe):
        if next(dependent_points(coframe, _integer_sample(chart.n, 0)), None) is not None:
            raise InputError("the 1-forms are dependent at a sample point")
    k = (q - 1) // 2
    omegas = []
    for i in range(1, q + 1):
        p = [j for j in range(1, q + 1) if j != i]
        omega = DiffForm.zero(chart, 2)
        for j in range(k):
            omega = omega + wedge(coframe[p[2 * j] - 1], coframe[p[2 * j + 1] - 1])
        omegas.append(omega)
    return omegas


def verify_prop_ori_identity(coframe):
    """Check (omega_i)^k == ±k! * (wedge of the coframe with entry i omitted)
    for every i, where the coframe has 2k+1 entries; returns
    (all_hold, signs) with one sign per i."""
    coframe = list(coframe)
    omegas = build_prop_ori_omegas(coframe)
    q = len(coframe)
    k = (q - 1) // 2
    fact = Fraction(factorial(k))
    signs = []
    ok = True
    for i in range(1, q + 1):
        power = wedge_power(omegas[i - 1], k)
        omitted = wedge_all([coframe[j - 1] for j in range(1, q + 1) if j != i])
        if power == omitted * fact:
            signs.append(1)
        elif power == omitted * (-fact):
            signs.append(-1)
        else:
            signs.append(0)
            ok = False
    return ok, signs


def oriented_pairing(n: int, k: int) -> ExampleBundle:
    """A trivial rank-(2k+1) subbundle of R^n with the paired-omission
    omega-tuple: the constructive configuration for almost maximal
    non-integrability in ambient dimension n in {4k+1, 4k+2}.

    The distribution itself is integrable (all brackets vanish), so no
    derived-length claim is advertised; the content is the omega-tuple.
    """
    if k < 1:
        raise InputError("oriented pairing needs k >= 1")
    if n not in (4 * k + 1, 4 * k + 2):
        raise InputError("ambient dimension must be 4k+1 or 4k+2, got n = %d" % n)
    chart = Chart(tuple("x%d" % j for j in range(1, n + 1)))
    coframe = [DiffForm.basis(chart, j) for j in range(1, 2 * k + 2)]
    defining = [DiffForm.basis(chart, j) for j in range(2 * k + 2, n + 1)]
    dist = Distribution(chart, coframe=defining)
    m = n - 2 * k - 1
    omegas = build_prop_ori_omegas(coframe)[:m]
    return ExampleBundle(
        name="prop-ori-%d-%d" % (n, k),
        distribution=dist,
        coframe=tuple(defining),
        omegas=tuple(omegas),
        k=k,
        ori_coframe=tuple(coframe),
        expected_flag=(2 * k + 1, 2 * k + 1),
        claims=("flag", "check-amni", "verify-ori"),
    )


def build_example(example_id: str) -> ExampleBundle:
    """Resolve a stable example identifier like 'contact-2' or 'prop-ori-5-1'."""
    parts = example_id.strip().split("-")
    try:
        if parts[0] == "contact" and len(parts) == 2:
            return contact_structure(int(parts[1]))
        if parts[:2] == ["even", "contact"] and len(parts) == 3:
            return even_contact_structure(int(parts[2]))
        if parts[:2] == ["jet", "canonical"] and len(parts) == 3:
            return jet_canonical(int(parts[2]))
        if example_id == "example2-r5":
            return single_constraint_r5()
        if parts[:2] == ["prop", "ori"] and len(parts) == 4:
            return oriented_pairing(int(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise InputError("bad example parameter in %r" % example_id) from exc
    raise InputError(
        "unknown example %r; expected contact-M, even-contact-N, jet-canonical-K, "
        "example2-r5, or prop-ori-N-K" % example_id
    )


def builtin_corpus():
    """Every construction exercised by the verification suite."""
    return [
        contact_structure(1),
        contact_structure(2),
        contact_structure(3),
        even_contact_structure(4),
        even_contact_structure(6),
        jet_canonical(1),
        jet_canonical(2),
        jet_canonical(3),
        jet_canonical(4),
        single_constraint_r5(),
        oriented_pairing(5, 1),
        oriented_pairing(6, 1),
    ]
