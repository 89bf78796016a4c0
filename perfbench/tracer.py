"""Span and counter tracing of orbimorse's layers, from outside the program.

install() wraps public functions and methods of the package's modules.
Modules import each other's names with ``from .x import y``, so a function
is replaced in every module attribute bound to the same function object, and
a method on its class.  Each wrapped call is a span; a layer's self time is
the span's duration minus the part its child spans cover.  Counters record
work at the same boundaries.  uninstall() puts every original back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _matmul_cells(args, result):
    a, b = args[0], args[1]
    return {"chaincx.matmul_cells": a.rows * a.cols * b.cols}


def _elim_cells(args, result):
    m = args[0]
    return {"chaincx.elim_cells": m.rows * m.cols}


def _closure_elements(args, result):
    return {"groups.closure_elements": result.order}


def _validate(args, result):
    return {"quotient.validate_calls": 1,
            "quotient.violations": len(result.violations)}


def _simplices(args, result):
    return {"simplicial.simplices": sum(args[0].counts())}


#: (module, attribute path, span name, counter).  Span "X" reports "X_s".
SPANS = [
    ("cli", "load_instance", "cli.load", None),
    ("cli", "build_global", "cli.build", None),
    ("cli", "build_intrinsic", "cli.build", None),
    ("cli", "build_simplicial", "cli.build", None),
    ("groups", "generate_group", "groups.closure", _closure_elements),
    ("groups", "orbits", "groups.orbit", None),
    ("groups", "stabilizer", "groups.orbit", None),
    ("quotient", "EquivariantMorseSystem.from_generator_data",
     "quotient.system", None),
    ("quotient", "EquivariantMorseSystem.manifold_complex",
     "quotient.manifold_complex", None),
    ("quotient", "validate_system", "quotient.validate", _validate),
    ("quotient", "classify", "quotient.classify", None),
    ("quotient", "orbit_of", "quotient.classify", None),
    ("quotient", "discarded_orbits", "quotient.classify", None),
    ("quotient", "derive_intrinsic", "quotient.derive", None),
    ("quotient", "invariant_boundary", "quotient.invariant_boundary", None),
    ("intrinsic", "boundary_plus", "intrinsic.boundary", None),
    ("intrinsic", "boundary_minus", "intrinsic.boundary", None),
    ("chaincx", "RationalMatrix.__mul__", "chaincx.matmul", _matmul_cells),
    ("chaincx", "RationalMatrix.rank", "chaincx.elim", _elim_cells),
    ("chaincx", "RationalMatrix.nullspace", "chaincx.elim", _elim_cells),
    ("chaincx", "verify_complex", "chaincx.verify", None),
    ("chaincx", "verify_chain_map", "chaincx.verify", None),
    ("chaincx", "betti", "chaincx.betti", None),
    ("simplicial", "SimplicialComplex.__init__", "simplicial.complex", _simplices),
    ("simplicial", "SimplicialComplex.chain_complex", "simplicial.complex", None),
    ("simplicial", "barycentric_subdivide", "simplicial.subdivide", None),
    ("simplicial", "GSimplicialComplex.subdivided", "simplicial.subdivide", None),
    ("simplicial", "GSimplicialComplex.__init__", "simplicial.gcheck", None),
    ("simplicial", "is_regular", "simplicial.gcheck", None),
    ("simplicial", "quotient", "simplicial.quotient", None),
    ("simplicial", "invariant_homology", "simplicial.invariant_homology", None),
]

#: Called far too often for a span each; counted only.
COUNTED = [("simplicial", "SimplicialComplex.has", "simplicial.has_calls")]

#: The root span of one operation; its self time belongs to no layer.
ROOT = ("cli", "main", "op")

PACKAGE = "orbimorse"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for _, _, span, _ in SPANS:
        if span + "_s" not in names:
            names.append(span + "_s")
    names += ["chaincx.matmul_cells", "chaincx.elim_cells",
              "groups.closure_elements", "quotient.validate_calls",
              "quotient.violations", "simplicial.simplices"]
    names += [name for _, _, name in COUNTED]
    return names


def is_count(metric: str) -> bool:
    return not metric.endswith("_s")


class Tracer:
    """Spans and counters of one process; reset() starts a new window."""

    def __init__(self):
        self._saved: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.recording = False
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []

    # -- wrapping --------------------------------------------------------

    def _span(self, fn, name, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            frame = [start, 0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][2] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if name != ROOT[2]:
                    self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if self.recording:
                    self.spans.append((frame[2], parent, name, start, end))
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _replace(self, module, path, make):
        mod = sys.modules["%s.%s" % (PACKAGE, module)]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)
            return
        fn = getattr(mod, path)
        wrapper = make(fn)
        for name, other in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(other).items()):
                if value is fn:
                    self._saved.append((other, attr, fn))
                    setattr(other, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, name, counter in SPANS + [ROOT + (None,)]:
            self._replace(module, path,
                          lambda fn, n=name, c=counter: self._span(fn, n, c))
        for module, path, name in COUNTED:
            self._replace(module, path, lambda fn, n=name: self._counted(fn, n))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
