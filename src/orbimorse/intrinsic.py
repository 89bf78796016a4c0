"""Morse systems on the quotient: weighted critical points and flow classes.

A system carries critical points (label, index, isotropy order, orientable
flag) and flow classes (label, endpoints, isotropy order, sign).  Flow signs
are taken verbatim; there is no orientation data left to re-gauge at this
level.  Two boundary conventions are supported:

    plus:   coefficient of q in d(p) sums  sign * iso(q) / iso(flow)
    minus:  coefficient of q in d(p) sums  sign * iso(p) / iso(flow)

Multiplication by the isotropy orders (psi, tests/paper_identities.py)
intertwines the two, so they always share Betti numbers.  A system builds
each convention's complex once and keeps it, with its d^2 verdict.
"""

from __future__ import annotations

from typing import NamedTuple

from .chaincx import GradedComplex, square_entries
from .errors import (
    DivisibilityViolation,
    IndexOutOfRange,
    MalformedSystem,
)


def label_map(labels, items, what) -> dict:
    """Label -> item, zipped; a label given twice is malformed."""
    out = dict(zip(labels, items))
    if len(out) < len(labels):
        seen = set()    # the first label seen before: add() returns None
        x = next(x for x in labels if x in seen or seen.add(x))
        raise MalformedSystem(f"duplicate {what} {x!r}")
    return out


class IntrinsicPoint(NamedTuple):
    label: str
    index: int
    iso_order: int
    orientable: bool = True


class IntrinsicFlow(NamedTuple):
    label: str
    src: str
    dst: str
    iso_order: int
    sign: int


class OrbifoldMorseSystem:
    """Critical points and flow classes with isotropy weights.

    Non-orientable points may be stored for provenance; they contribute no
    chain generators and no flow may touch them.
    """

    def __init__(self, ambient_dim: int, crit_points, flows):
        self.ambient_dim = int(ambient_dim)
        self.crit = tuple(crit_points)
        self.flows = tuple(flows)
        self._complexes = {}
        self._by_label = label_map([p.label for p in self.crit], self.crit,
                                   "point")
        label_map([f.label for f in self.flows], self.flows, "flow")
        for p in self.crit:
            if not (0 <= p.index <= self.ambient_dim):
                raise IndexOutOfRange(
                    f"critical point {p.label!r} has index {p.index}, "
                    f"ambient dimension is {self.ambient_dim}")
            if p.iso_order < 1:
                raise MalformedSystem(f"iso_order of {p.label!r} must be positive")
        for f in self.flows:
            for end in (f.src, f.dst):
                if end not in self._by_label:
                    raise MalformedSystem(
                        f"flow {f.label!r} references unknown point {end!r}")
            s, d = self._by_label[f.src], self._by_label[f.dst]
            if not s.orientable or not d.orientable:
                raise MalformedSystem(
                    f"flow {f.label!r} touches a non-orientable point")
            if s.index != d.index + 1:
                raise MalformedSystem(
                    f"flow {f.label!r} does not drop index by one "
                    f"({s.index} -> {d.index})")
            if f.sign not in (1, -1):
                raise MalformedSystem(f"flow {f.label!r} has sign {f.sign}")
            if f.iso_order < 1:
                raise MalformedSystem(f"iso_order of flow {f.label!r} must be positive")
            for end in (s, d):
                if end.iso_order % f.iso_order != 0:
                    raise DivisibilityViolation(
                        f"iso_order {f.iso_order} of flow {f.label!r} does not "
                        f"divide iso_order {end.iso_order} of {end.label!r}")

    def point(self, label: str) -> IntrinsicPoint:
        return self._by_label[label]

    def generators(self, k: int) -> list:
        """Orientable critical points of index k, in declaration order."""
        return [p for p in self.crit if p.index == k and p.orientable]


def _boundary(s: OrbifoldMorseSystem, convention: str) -> GradedComplex:
    """The complex of a convention, built on first use and kept."""
    if convention not in s._complexes:
        labels = [[p.label for p in s.generators(k)]
                  for k in range(s.ambient_dim + 1)]
        entries = []
        for f in s.flows:
            iso = s.point(f.dst if convention == "plus" else f.src).iso_order
            entries.append((s.point(f.src).index, f.dst, f.src,
                            f.sign * iso // f.iso_order))
        s._complexes[convention] = GradedComplex.from_entries(labels, entries)
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
    """Square the boundary under both conventions; collect nonzero entries."""
    witnesses = tuple((convention, top, bottom, v)
                      for convention in ("plus", "minus")
                      for _, bottom, top, v in square_entries(_boundary(s, convention)))
    return DSquaredReport(ok=not witnesses, witnesses=witnesses)
