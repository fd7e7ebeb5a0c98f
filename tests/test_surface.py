"""The package's public surface: the exported names, the parameters that
were folded into constants, and the README's library tour."""

import ast
import contextlib
import inspect
import io
import re
from fractions import Fraction
from pathlib import Path

import nonholonomy
from nonholonomy import algebra, constructions, distributions, forms, linalg, singularity

README = Path(__file__).resolve().parents[1] / "README.md"
PACKAGE = Path(nonholonomy.__file__).resolve().parent

EXPORTED = [
    "Chart", "ConsistencyError", "DegeneratePresentationError", "DerivedFlag",
    "DiffForm", "Distribution", "FiberPoint", "InputDocument", "InputError",
    "ParseError", "Polynomial", "VectorField", "Verdict",
    "assemble_principal_matrix", "build_example", "build_prop_ori_omegas",
    "builtin_corpus", "check_almost_mni", "check_dbasis_condition",
    "check_mni", "derived_flag_at",
    "exterior_derivative", "extract_c_coefficients", "frame_from_coframe",
    "has_derived_length_one", "lie_bracket", "parse_document", "poly_diff",
    "poly_eval", "sample_points", "thinness_probe", "verify_prop_ori_identity",
    "wedge", "wedge_all", "wedge_power",
]

# (function, parameter): options that every production caller set to one
# value, now fixed inside the function, or that no production caller set.
REMOVED_PARAMETERS = [
    (forms.constant_minor_certificate, "max_minors"),
    (forms._constant_minor, "max_minors"),
    (forms.kernel_frame, "max_minors"),
    (distributions.frame_from_coframe, "max_minors"),
    (distributions.Distribution, "rank"),
    (singularity.FiberPoint, "check_bounds"),
    (singularity.FiberPoint.random, "check_bounds"),
    (singularity.FiberPoint.random, "seed"),
    (constructions.oriented_pairing, "coframe"),
    (constructions.verify_prop_ori_identity, "k"),
    (distributions.sample_points, "grid_cap"),
    (distributions.sample_points, "random_count"),
    (singularity.extract_c_coefficients, "forms"),
    (singularity.extract_c_coefficients, "b_first"),
]


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 35
    assert sorted(nonholonomy.__all__) == EXPORTED
    for name in EXPORTED:
        assert hasattr(nonholonomy, name)


def test_test_only_entry_points_stay_out_of_the_package():
    # the slow references live in tests/oracles.py
    assert not hasattr(forms, "interior_product")
    assert not hasattr(distributions, "pointwise_kernel")
    for module in (nonholonomy, distributions):
        assert not hasattr(module, "type_of")
        assert not hasattr(module, "TypeReport")
    # pointwise checks evaluate integer rows and take kernels from
    # Echelon.kernel; the Fraction-point helpers are gone
    assert not hasattr(forms, "evaluate_at_point")
    assert not hasattr(forms, "independent_at_point")
    assert not hasattr(linalg, "kernel_basis")


def test_every_module_function_is_exported_or_called():
    # a module-level function of the package is named in __all__ or
    # referenced, as a name or an attribute, from its code; docstrings and
    # imports do not count
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((node.name, path.stem) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted("%s.%s" % (module, name) for name, module in defined.items()
                    if name not in nonholonomy.__all__ and name not in referenced)
    assert unused == []


def test_removed_parameters_stay_removed():
    for function, parameter in REMOVED_PARAMETERS:
        assert parameter not in inspect.signature(function).parameters, function
    extraction = inspect.signature(singularity.assemble_principal_matrix).parameters["extraction"]
    assert extraction.default is inspect.Parameter.empty
    # the constant-minor search tries only its pivot candidate: no cap
    assert not hasattr(forms, "MAX_MINORS")
    assert not hasattr(forms, "_search_capped")


def test_single_caller_helpers_stay_folded():
    assert list(inspect.signature(distributions._check_coframe).parameters) == ["coframe"]
    assert not hasattr(distributions, "_independence_verdict")
    assert not hasattr(distributions.Distribution, "from_frame")
    assert not hasattr(distributions.Distribution, "from_coframe")
    # the minor prefilter compares exact minors; row scaling is private to linalg
    assert not hasattr(forms, "_probe_rows")
    assert not hasattr(forms, "_probe_values")
    assert not hasattr(forms, "integer_rows")
    assert not hasattr(linalg, "integer_rows")
    # Echelon.kernel back-substitutes on the Bareiss echelon rows; the
    # Gauss-Jordan reference lives in tests/test_linalg.py
    assert not hasattr(linalg, "rref")


def test_rank_guard_has_one_idiom():
    # the wedge checks find a coframe's rank drop in the Echelon that
    # builds their pointwise W, and rank no symbolic grid; the
    # paired-omission construction seeks a constant minor and ranks its
    # 1-forms through dependent_points only without one
    assert not hasattr(distributions, "_first_drop")
    assert not hasattr(forms, "_pivot_minor")
    assert not hasattr(forms, "_minor_search")
    for name in ("rank", "dependent_points", "_grid"):
        assert not hasattr(distributions, name), name
    source = inspect.getsource(constructions.build_prop_ori_omegas)
    assert 0 <= source.find("constant_minor_certificate(") < source.find("dependent_points(")


def test_the_wedge_checks_build_no_symbolic_wedge_forms():
    # the certificate is sought on W's Pfaffian minors, so distributions
    # imports no wedge, wedge power or symbolic certificate, and the wedge
    # verdict has no search of its own
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(distributions)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    for name in ("wedge", "wedge_all", "wedge_power", "constant_minor_certificate"):
        assert name not in imported and not hasattr(distributions, name), name
    assert "def certified(" not in inspect.getsource(distributions._wedge_verdict)


def test_a_coframe_frame_has_one_proof():
    # frame_from_coframe returns the frame a coframe-only Distribution
    # proves, and neither builds nor checks one of its own
    source = inspect.getsource(distributions.frame_from_coframe)
    assert "kernel_frame(" not in source and "_annihilate(" not in source
    assert "Distribution(" in source


def test_integer_rows_are_the_only_point_type_below_the_api():
    # IntegerGrid has two entries, at(q) on one integer row and over(qs) on
    # a list of them; a sample set is (size, rows), and its witnesses are
    # made from the rows, not looked up among the caller's points
    chart = algebra.Chart(("x", "y"))
    assert not callable(algebra.IntegerGrid(chart, []))
    assert [name for name, value in vars(algebra.IntegerGrid).items()
            if callable(value) and not name.startswith("_")] == ["at", "over"]
    assert list(inspect.signature(algebra.IntegerGrid.over).parameters) == ["self", "qs"]
    assert not hasattr(distributions, "_sample_point")
    size, rows = distributions._sample_set(chart, [(0, Fraction(1, 2))], 0)
    assert (size, rows) == (1, [[0, 1, 2]])
    assert len(distributions._sample_set(chart, None, 0)) == 2
    assert inspect.isgeneratorfunction(forms.dependent_points)
    assert list(inspect.signature(forms.dependent_points).parameters) == ["forms", "rows"]


def test_linalg_has_one_elimination_and_its_skew_analogue():
    # the column-scan elimination lives in tests/oracles.py; every exact
    # division by a previous pivot is in Echelon.add or pfaffian
    assert not hasattr(linalg, "_bareiss")
    # held rows are kept at full width, with no column bookkeeping
    assert not {"_local", "_free"} & set(linalg.Echelon.__slots__)
    own = {name: obj for name, obj in vars(linalg).items()
           if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == linalg.__name__}
    assert sorted(name for name, obj in own.items() if "// prev" in inspect.getsource(obj)) == [
        "Echelon", "pfaffian"]
    for name in ("rank", "det", "_skew_echelon", "_independent"):
        assert "Echelon(" in inspect.getsource(own[name]), name
    # solve and pfaffian_minors share one elimination of [A | B]
    assert all("_skew_echelon(" in inspect.getsource(f) for f in (linalg.solve, linalg.pfaffian_minors))
    # one back-substitution, Echelon.kernel_vector, behind Echelon.kernel and solve
    assert [name for name, obj in own.items() if "divmod(" in inspect.getsource(obj)] == ["Echelon"]
    assert all("kernel_vector(" in inspect.getsource(f) for f in (linalg.Echelon.kernel, linalg.solve))


def test_the_presentation_proof_runs_on_one_elimination():
    # Laplace expansion lives in tests/oracles.py as laplace_det; the
    # symbolic determinant, the minor search and the kernel frame's inverse
    # each take one linalg.Echelon, and the Faddeev-LeVerrier adjugate, the
    # separate confirmation step and its block builder are gone
    for name in ("_adjugate", "_confirmed", "_block"):
        assert not hasattr(forms, name), name
    for function in (forms._poly_det, forms._constant_minor, forms.kernel_frame):
        assert "Echelon(" in inspect.getsource(function), function.__name__
    assert inspect.getsource(forms._poly_det).count("_poly_det(") == 1
    assert "_signed_last_pivot(" in inspect.getsource(linalg.det)


def test_readme_library_tour_runs():
    # every print in the README's python block shows its output in a
    # trailing comment
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    expected = [line.rsplit("# ", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["(2, 3)", "True", "['@x + y*@z', '@y']"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
