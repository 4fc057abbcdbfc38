"""Per-layer tracing from outside the program: wrappers around public names.

``install()`` wraps each traced function or method where it is defined and
everywhere else it is looked up by name: ``transforms`` imports
``verify_equality`` from ``analysis``, ``scalars`` imports ``solve`` from
``ratmath``, and a wrapper on the defining module alone would miss those
calls.  Coarse layers (``cli``, ``transforms``, ``hull``, ``analysis`` and
``project_points``) keep one span per call: name, start, end and the span
that caused it.  Hot leaf layers (``scalars``, ``internal_space``,
``windows.contains``, ``scheme.direct`` and ``scheme.star``) and the rarely
called helpers keep only a call count and self time, so memory stays bounded
however many calls a workload makes.

Self time is a call's duration minus the time of the traced calls made
inside it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, owner class or None, attribute names, keeps spans)
TARGETS = (
    ("cli.main", "cli", None, ("main",), True),
    ("scheme.project_points", "scheme", "CutProjectScheme", ("project_points",), True),
    ("scheme.direct", "scheme", "CutProjectScheme", ("direct",), False),
    ("scheme.star", "scheme", "CutProjectScheme", ("star",), False),
    ("scheme.star_kernel_witness", "scheme", "CutProjectScheme", ("star_kernel_witness",), False),
    ("scheme.lattice_coords_of", "scheme", "CutProjectScheme", ("lattice_coords_of",), False),
    ("scheme.is_commensurate", "scheme", "CutProjectScheme", ("is_commensurate",), False),
    ("windows.contains", "windows", "Window", ("contains",), False),
    ("windows.translate", "windows", "Window", ("translate",), False),
    ("windows.enum_pieces", "windows", "Window", ("enum_pieces",), False),
    ("internal_space.add", "internal_space", "InternalSpace", ("add",), False),
    ("internal_space.scale", "internal_space", "InternalSpace", ("scale",), False),
    ("scalars.add", "scalars", "Scalar", ("__add__", "__radd__"), False),
    ("scalars.mul", "scalars", "Scalar", ("__mul__", "__rmul__"), False),
    ("scalars.sign", "scalars", "Scalar", ("sign",), False),
    ("scalars.floor", "scalars", "Scalar", ("floor",), False),
    ("scalars.eq", "scalars", "Scalar", ("__eq__",), False),
    ("scalars.hash", "scalars", "Scalar", ("__hash__",), False),
    ("transforms.translate_cps", "transforms", None, ("translate_cps",), True),
    ("transforms.extend_injective", "transforms", None, ("extend_injective",), True),
    ("transforms.almost_to_model", "transforms", None, ("almost_to_model",), True),
    ("transforms.reverify_certificate", "transforms", None, ("reverify_certificate",), True),
    ("transforms.star_injectivity_exhaustive", "transforms", None,
     ("star_injectivity_exhaustive",), True),
    ("transforms.certify_generic_diagonal", "transforms", None, ("certify_generic_diagonal",), True),
    ("transforms.certified_box", "transforms", None, ("certified_box",), True),
    ("hull.witness_init", "hull", "AlmostModelSetWitness", ("__init__",), True),
    ("hull.limit_patch_check", "hull", None, ("limit_patch_check",), True),
    ("hull.generic_shift", "hull", None, ("generic_shift",), True),
    ("analysis.empirical_density", "analysis", None, ("empirical_density",), True),
    ("analysis.fourier_bohr", "analysis", None, ("fourier_bohr",), True),
    ("analysis.equidistribution_check", "analysis", None, ("equidistribution_check",), True),
    ("analysis.repetitivity_check", "analysis", None, ("repetitivity_check",), True),
    ("analysis.verify_equality", "analysis", None, ("verify_equality",), True),
    ("relations.certify_independent", "relations", None, ("certify_independent",), False),
    ("ratmath.kernel", "ratmath", None, ("kernel",), False),
    ("ratmath.solve", "ratmath", None, ("solve",), False),
    ("linalg.solve_exact", "linalg", None, ("solve_exact",), False),
    ("fibonacci.derive_fibonacci_window", "fibonacci", None, ("derive_fibonacci_window",), False),
)

CALL_METRICS = (
    "scheme.project_points", "scheme.direct", "scheme.star",
    "windows.contains", "windows.translate", "windows.enum_pieces",
    "internal_space.add", "internal_space.scale",
    "scalars.add", "scalars.mul", "scalars.sign", "scalars.floor", "scalars.eq", "scalars.hash",
)

STARS = "transforms.star_injectivity_exhaustive.stars"

MODULES = (
    "scalars", "ratmath", "linalg", "internal_space", "windows", "scheme", "substitution",
    "fibonacci", "relations", "analysis", "transforms", "hull", "cli",
)


class Tracer:
    def __init__(self):
        # open calls, innermost last: [child seconds, name, own span, nearest span]
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # [name, start, end, parent span index or None]
        self.spans = []
        self.points = 0
        self.stars = 0

    def wrap(self, name, fn, keep_span):
        stack, calls, self_s, spans = self.stack, self.calls, self.self_s, self.spans
        clock = time.perf_counter
        tracer = self
        counts_points = name == "scheme.project_points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nearest = stack[-1][3] if stack else None
            own = None
            if keep_span:
                own = len(spans)
                spans.append([name, 0.0, 0.0, nearest])
            frame = [0.0, name, own, own if keep_span else nearest]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
                if keep_span:
                    spans[own][1] = start
                    spans[own][2] = start + elapsed
            if counts_points:
                tracer.points += len(result)
            return result

        return wrapper

    def wrap_star_walk(self, gen_fn):
        """Count the images ``star_injectivity_exhaustive`` walks."""
        stack = self.stack
        tracer = self

        @functools.wraps(gen_fn)
        def walk(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if stack and stack[-1][1] == "transforms.star_injectivity_exhaustive":
                    tracer.stars += 1
                yield item

        return walk

    def enum_share(self) -> float:
        """Share of analysis time spent inside ``project_points``."""
        spans = self.spans

        def under_analysis(index):
            while index is not None:
                if spans[index][0].startswith("analysis."):
                    return True
                index = spans[index][3]
            return False

        total = sum(
            end - start
            for name, start, end, parent in spans
            if name.startswith("analysis.") and not under_analysis(parent)
        )
        inside = sum(
            end - start
            for name, start, end, parent in spans
            if name == "scheme.project_points" and under_analysis(parent)
        )
        return inside / total if total else 0.0

    def report(self) -> dict:
        from cutproject import scalars

        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in CALL_METRICS:
            out[f"{name}.calls"] = self.calls.get(name, 0)
        out["scheme.project_points.points"] = self.points
        direct = self.calls.get("scheme.direct", 0)
        out["scheme.accept_ratio"] = self.points / direct if direct else 0.0
        out[STARS] = self.stars
        out["analysis.enum_share"] = self.enum_share()
        out["scalars.enclosure_cache_entries"] = len(scalars._ENCLOSURES) + len(scalars._MONO_INT)
        out["spans"] = len(self.spans)
        return out


def _replace_everywhere(original, replacement):
    """Rebind every module-level name in the package that refers to ``original``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "cutproject" or module_name.startswith("cutproject."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _classes(module, base_name):
    base = getattr(module, base_name)
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, base)
    ]


def install() -> Tracer:
    """Import the package and wrap every traced name; returns the tracer."""
    modules = {name: importlib.import_module(f"cutproject.{name}") for name in MODULES}
    importlib.import_module("cutproject")
    tracer = Tracer()
    for name, module_name, owner, attrs, keep_span in TARGETS:
        module = modules[module_name]
        if owner is None:
            for attr in attrs:
                original = getattr(module, attr)
                _replace_everywhere(original, tracer.wrap(name, original, keep_span))
            continue
        # a method is looked up on its class, so wrap it in every class of
        # the module that defines it (Window subclasses each define contains)
        for cls in _classes(module, owner):
            for attr in attrs:
                if attr in cls.__dict__:
                    setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], keep_span))
    transforms = modules["transforms"]
    _replace_everywhere(
        transforms.iter_lattice_stars, tracer.wrap_star_walk(transforms.iter_lattice_stars)
    )
    return tracer
