"""Morse systems on the quotient: weighted critical points and flow classes.

A system is point and flow columns, indexed by number: the points' labels,
index, iso_order and orientable flag, and the flows' flow_labels, src and
dst (point numbers), flow_iso and sign.  Flow signs are taken verbatim;
there is no orientation data left to re-gauge at this level.  Two boundary
conventions are supported:

    plus:   coefficient of q in d(p) sums  sign * iso(q) / iso(flow)
    minus:  coefficient of q in d(p) sums  sign * iso(p) / iso(flow)

Multiplication by the isotropy orders (psi, tests/paper_identities.py)
intertwines the two, so they always share Betti numbers.  A system builds
each convention's complex once and keeps it, with the entries of its square.
"""

from __future__ import annotations

from typing import NamedTuple

from .chaincx import GradedComplex, flow_complex
from .errors import (
    DivisibilityViolation,
    IndexOutOfRange,
    MalformedSystem,
)


def require_unique(labels, what) -> None:
    """A label given twice is malformed; the first one seen again is named."""
    if len(set(labels)) < len(labels):
        seen = set()    # the first label seen before: add() returns None
        x = next(x for x in labels if x in seen or seen.add(x))
        raise MalformedSystem(f"duplicate {what} {x!r}")


class OrbifoldMorseSystem:
    """Critical points and flow classes with isotropy weights.

    points is the columns (labels, index, iso_order, orientable) and flows
    the columns (flow_labels, src, dst, flow_iso, sign); an endpoint that is
    not a point number is a label no point has.  Non-orientable points may
    be stored for provenance; they contribute no chain generators and no
    flow may touch them.
    """

    def __init__(self, ambient_dim: int, points, flows):
        self.ambient_dim = int(ambient_dim)
        self.labels, self.index, self.iso_order, self.orientable = points
        self.flow_labels, self.src, self.dst, self.flow_iso, self.sign = flows
        self._complexes = {}
        require_unique(self.labels, "point")
        require_unique(self.flow_labels, "flow")
        labels, index, iso = self.labels, self.index, self.iso_order
        for p, k, n in zip(labels, index, iso):
            if not (0 <= k <= self.ambient_dim):
                raise IndexOutOfRange(
                    f"critical point {p!r} has index {k}, "
                    f"ambient dimension is {self.ambient_dim}")
            if n < 1:
                raise MalformedSystem(f"iso_order of {p!r} must be positive")
        for f, a, b, n, e in zip(self.flow_labels, self.src, self.dst,
                                 self.flow_iso, self.sign):
            for end in (a, b):
                if type(end) is not int:
                    raise MalformedSystem(
                        f"flow {f!r} references unknown point {end!r}")
            if not self.orientable[a] or not self.orientable[b]:
                raise MalformedSystem(
                    f"flow {f!r} touches a non-orientable point")
            if index[a] != index[b] + 1:
                raise MalformedSystem(
                    f"flow {f!r} does not drop index by one "
                    f"({index[a]} -> {index[b]})")
            if e not in (1, -1):
                raise MalformedSystem(f"flow {f!r} has sign {e}")
            if n < 1:
                raise MalformedSystem(f"iso_order of flow {f!r} must be positive")
            for end in (a, b):
                if iso[end] % n != 0:
                    raise DivisibilityViolation(
                        f"iso_order {n} of flow {f!r} does not "
                        f"divide iso_order {iso[end]} of {labels[end]!r}")


def _boundary(s: OrbifoldMorseSystem, convention: str) -> GradedComplex:
    """The complex of a convention, built on first use and kept: the
    orientable points of each index, a flow weighted by the isotropy order
    of its target (plus) or source (minus) over its own."""
    if convention not in s._complexes:
        iso = s.iso_order
        ends = s.dst if convention == "plus" else s.src
        s._complexes[convention] = flow_complex(
            s.ambient_dim, s.labels, s.index, s.src, s.dst,
            [e * iso[q] // n for q, e, n in zip(ends, s.sign, s.flow_iso)],
            s.orientable)
    return s._complexes[convention]


def boundary_plus(s: OrbifoldMorseSystem) -> GradedComplex:
    """Boundary weighting each flow by the target isotropy order."""
    return _boundary(s, "plus")


def boundary_minus(s: OrbifoldMorseSystem) -> GradedComplex:
    """Boundary weighting each flow by the source isotropy order."""
    return _boundary(s, "minus")


class DSquaredReport(NamedTuple):
    ok: bool
    witnesses: tuple  # (convention, top_label, bottom_label, value)


def verify_d_squared(s: OrbifoldMorseSystem) -> DSquaredReport:
    """The nonzero entries of both conventions' squares, plus first."""
    witnesses = tuple((convention, top, bottom, v)
                      for convention in ("plus", "minus")
                      for _, bottom, top, v in _boundary(s, convention).squared)
    return DSquaredReport(ok=not witnesses, witnesses=witnesses)
