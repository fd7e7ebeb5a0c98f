"""The benchmark's traced run names package functions; keep those names.

perfbench's tracer reads per-layer spans by "<module>.<name>[.<attr>]" and
binds forms._poly_det and forms.constant_minor_certificate directly. A
rename would make a span read 0 or crash the traced run, so this test
resolves every span named in BENCHMARK.json, except the retired spans of
deleted functions, which the tracer finds nothing to wrap for and so
reads as 0 calls.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
NAMED = {
    name.rsplit(".", 1)[0]
    for name in (m["name"] for m in SPEC["per_layer"])
    if not name.startswith("layer.") and name.rsplit(".", 1)[1] in ("calls", "s", "self_s")
}
# spans of functions deleted for want of a caller
RETIRED = ("forms.evaluate_at_point", "forms.independent_at_point", "linalg.kernel_basis")
SPANS = sorted(NAMED - set(RETIRED))


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves(span):
    module_name, *path = span.split(".")
    module = importlib.import_module("nonholonomy." + module_name)
    obj = module
    for attr in path:
        obj = getattr(obj, attr)
    assert callable(obj)
    if len(path) == 1:
        # the tracer names a function after the module that defines it
        assert inspect.isfunction(obj) and obj.__module__ == module.__name__


def test_tracer_bindings_exist():
    forms = importlib.import_module("nonholonomy.forms")
    assert inspect.isfunction(forms._poly_det)
    assert inspect.isfunction(forms.constant_minor_certificate)


@pytest.mark.parametrize("span", RETIRED)
def test_retired_span_is_named_but_deleted(span):
    # the tracer finds nothing to wrap, so the span reads 0 calls; drop it
    # from RETIRED once BENCHMARK.json stops naming it
    assert span in NAMED
    module_name, name = span.split(".")
    assert not hasattr(importlib.import_module("nonholonomy." + module_name), name)
