"""Shared table of golden CLI invocations.

Each entry is (golden file name, argv with data paths relative to this
directory, expected exit code). Regenerate the goldens with
`python3 tests/make_goldens.py` after an intentional output change.
"""

import contextlib

import nonholonomy.cli as cli
from nonholonomy.errors import ConsistencyError

CASES = [
    ("flag_contact3.json",
     ["flag", "data/contact3.nh", "--point", "x=0,y=1/2,z=-1"], 0),
    ("flag_martinet3_y0.json",
     ["flag", "data/martinet3.nh", "--point", "y=0"], 0),
    ("flag_integrable3.json",
     ["flag", "data/integrable3.nh", "--point", "x=1"], 0),
    ("dlo_contact3.json",
     ["check-dlo", "data/contact3.nh"], 0),
    ("dlo_integrable3.json",
     ["check-dlo", "data/integrable3.nh"], 1),
    ("dlo_offpivot3.json",
     ["check-dlo", "data/offpivot3.nh"], 2),
    ("dlo_oversized3.json",
     ["check-dlo", "data/oversized3.nh"], 2),
    ("mni_jetlike5.json",
     ["check-mni", "data/jetlike5.nh", "--k", "1"], 0),
    ("mni_integrable5.json",
     ["check-mni", "data/integrable5.nh", "--k", "1"], 1),
    ("mni_drop5.json",
     ["check-mni", "data/drop5.nh", "--k", "1"], 2),
    ("amni5.json",
     ["check-amni", "data/amni5.nh", "--k", "1", "--omegas", "w1,w2"], 0),
    ("thinness_4_1.json",
     ["thinness", "--n", "4", "--k", "1", "--samples", "25", "--seed", "7"], 0),
    ("thinness_5_1.json",
     ["thinness", "--n", "5", "--k", "1", "--samples", "25", "--seed", "7"], 0),
    ("thinness_12_3.json",
     ["thinness", "--n", "12", "--k", "3", "--samples", "2", "--seed", "7"], 0),
    ("thinness_14_4.json",
     ["thinness", "--n", "14", "--k", "4", "--samples", "2", "--seed", "7"], 0),
    ("example_jet2.json",
     ["example", "jet-canonical-2", "--check"], 0),
    ("example_prop_ori.json",
     ["example", "prop-ori-5-1", "--check"], 0),
    ("verify_ori_k2.json",
     ["verify-ori", "--k", "2"], 0),
    ("verify_ori_k12.json",
     ["verify-ori", "--k", "12"], 0),
    ("parse_error.json",
     ["check-dlo", "data/badsyntax.nh"], 2),
    ("parse_error_eof_comment.json",
     ["check-dlo", "data/eof_comment.nh"], 2),
    ("input_error.json",
     ["check-mni", "data/contact3.nh", "--k", "1"], 2),
]

# Run under forced_internal_error(), which makes the probe raise.
INTERNAL_ERROR_CASE = (
    "internal_error.json",
    ["thinness", "--n", "5", "--k", "1", "--samples", "1"],
    3,
)


@contextlib.contextmanager
def forced_internal_error():
    """Replace the CLI's thinness probe by one that raises ConsistencyError,
    so that INTERNAL_ERROR_CASE exits 3; the probe is restored on exit."""
    original = cli.thinness_probe

    def forced(*args, **kwargs):
        raise ConsistencyError("forced failure for the golden test")

    cli.thinness_probe = forced
    try:
        yield
    finally:
        cli.thinness_probe = original
