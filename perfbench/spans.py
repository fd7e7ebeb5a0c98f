"""Per-layer spans recorded from outside the package.

install() wraps the public functions of each nonholonomy module, plus the
few methods the per-layer metrics name, and rebinds every module global and
class attribute that refers to an original. `from .forms import wedge`
leaves a second binding in distributions and singularity; patching only the
defining module would miss the calls made through it.

Each wrapper counts calls and keeps two times: the inclusive time of the
outermost activation (`s`) and the self time, span minus the spans of
wrapped callees (`self_s`). Spans live in memory; stat() reads them.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "parser", "constructions", "distributions", "singularity", "forms", "algebra", "linalg")

# (layer, class, attribute): methods wrapped besides the module functions
METHODS = (
    ("algebra", "Polynomial", "__mul__"),
    ("singularity", "FiberPoint", "random"),
)


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds, active depth]
        self.stats = {}
        self._children = []  # child-time accumulator per open span
        self.minors_tried = 0
        self.certificates_found = 0

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        children = self._children

        def wrapper(*args, **kwargs):
            stat[0] += 1
            stat[3] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stat[3] -= 1
                if not stat[3]:
                    stat[1] += span
                stat[2] += span - children.pop()
                if children:
                    children[-1] += span

        return wrapper

    def install(self):
        """Wrap and rebind; returns the number of bindings replaced."""
        import nonholonomy  # noqa: F401  (loads every layer module)

        modules = {layer: sys.modules["nonholonomy." + layer] for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap("%s.%s" % (layer, name), obj)
        forms = modules["forms"]
        wrappers[forms.constant_minor_certificate] = self._count_found(
            wrappers[forms.constant_minor_certificate])
        wrappers[forms._poly_det] = self._count_minors(forms._poly_det)

        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "nonholonomy" and not mod_name.startswith("nonholonomy."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                    replaced += 1

        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[attr]
            name = "%s.%s.%s" % (layer, cls_name, attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                replaced += 1
                continue
            wrapped = self.wrap(name, raw)
            for alias, value in list(cls.__dict__.items()):  # __rmul__ = __mul__
                if value is raw:
                    setattr(cls, alias, wrapped)
                    replaced += 1
        return replaced

    def _count_found(self, search):
        def wrapper(*args, **kwargs):
            found = search(*args, **kwargs)
            self.certificates_found += bool(found)
            return found

        return wrapper

    def _count_minors(self, det):
        """Counts determinants entered from the certificate search itself,
        not the Laplace recursion's sub-determinants."""
        search = self.stats["forms.constant_minor_certificate"]
        depth = [0]

        def wrapper(matrix):
            if search[3] and not depth[0]:
                self.minors_tried += 1
            depth[0] += 1
            try:
                return det(matrix)
            finally:
                depth[0] -= 1

        return wrapper

    def stat(self, name):
        calls, inclusive, self_time, _ = self.stats.get(name, (0, 0.0, 0.0, 0))
        return calls, inclusive, self_time

    def layer_self_seconds(self, layer):
        prefix = layer + "."
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))
