"""Exact exterior calculus, derived flags, and maximal non-integrability
checks for tangent distributions, with the jet-fiber rank probe behind the
derived-length-one classification."""

__version__ = "0.1.0"

from .algebra import Chart, Polynomial, poly_diff, poly_eval
from .errors import (
    ConsistencyError,
    DegeneratePresentationError,
    InputError,
    ParseError,
)
from .forms import (
    DiffForm,
    VectorField,
    exterior_derivative,
    lie_bracket,
    wedge,
    wedge_all,
    wedge_power,
)
from .distributions import (
    DerivedFlag,
    Distribution,
    Verdict,
    check_almost_mni,
    check_dbasis_condition,
    check_mni,
    derived_flag_at,
    frame_from_coframe,
    has_derived_length_one,
    sample_points,
)
from .singularity import (
    FiberPoint,
    assemble_principal_matrix,
    extract_c_coefficients,
    thinness_probe,
)
from .constructions import (
    build_example,
    build_prop_ori_omegas,
    builtin_corpus,
    verify_prop_ori_identity,
)
from .parser import InputDocument, parse_document

__all__ = [
    "Chart",
    "Polynomial",
    "poly_diff",
    "poly_eval",
    "ConsistencyError",
    "DegeneratePresentationError",
    "InputError",
    "ParseError",
    "DiffForm",
    "VectorField",
    "exterior_derivative",
    "lie_bracket",
    "wedge",
    "wedge_all",
    "wedge_power",
    "DerivedFlag",
    "Distribution",
    "Verdict",
    "check_almost_mni",
    "check_dbasis_condition",
    "check_mni",
    "derived_flag_at",
    "frame_from_coframe",
    "has_derived_length_one",
    "sample_points",
    "FiberPoint",
    "assemble_principal_matrix",
    "extract_c_coefficients",
    "thinness_probe",
    "build_example",
    "build_prop_ori_omegas",
    "builtin_corpus",
    "verify_prop_ori_identity",
    "InputDocument",
    "parse_document",
]
