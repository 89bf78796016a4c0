"""Morse systems on the quotient: weighted critical points and flow classes.

A system carries critical points (label, index, isotropy order, orientable
flag) and flow classes (label, endpoints, isotropy order, sign).  Flow signs
are taken verbatim; there is no orientation data left to re-gauge at this
level.  Two boundary conventions are supported:

    plus:   coefficient of q in d(p) sums  sign * iso(q) / iso(flow)
    minus:  coefficient of q in d(p) sums  sign * iso(p) / iso(flow)

Multiplication by the isotropy orders (psi) intertwines the two, so they
always share Betti numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chaincx import (ChainMap, GradedComplex, RationalMatrix, square_entries,
                      verify_chain_map)
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


@dataclass(frozen=True)
class IntrinsicPoint:
    label: str
    index: int
    iso_order: int
    orientable: bool = True


@dataclass(frozen=True)
class IntrinsicFlow:
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
    labels = [[p.label for p in s.generators(k)]
              for k in range(s.ambient_dim + 1)]
    entries = []
    for f in s.flows:
        iso = s.point(f.dst if convention == "plus" else f.src).iso_order
        entries.append((s.point(f.src).index, f.dst, f.src,
                        f.sign * iso // f.iso_order))
    return GradedComplex.from_entries(labels, entries)


def boundary_plus(s: OrbifoldMorseSystem) -> GradedComplex:
    """Boundary weighting each flow by the target isotropy order."""
    return _boundary(s, "plus")


def boundary_minus(s: OrbifoldMorseSystem) -> GradedComplex:
    """Boundary weighting each flow by the source isotropy order."""
    return _boundary(s, "minus")


def psi(s: OrbifoldMorseSystem) -> ChainMap:
    """Diagonal map p -> iso(p) * p from the minus complex to the plus complex.

    A chain map and an isomorphism over the rationals, so the two conventions
    have the same homology.
    """
    minus, plus = boundary_minus(s), boundary_plus(s)
    mats = []
    for k in range(s.ambient_dim + 1):
        mats.append(RationalMatrix.diagonal(
            [p.iso_order for p in s.generators(k)]))
    f = ChainMap(source=minus, target=plus, matrices=tuple(mats))
    ok, witness = verify_chain_map(f)
    assert ok, f"psi fails to commute with the boundaries at {witness}"
    return f


@dataclass(frozen=True)
class DSquaredReport:
    ok: bool
    witnesses: tuple  # (convention, top_label, bottom_label, value)


def verify_d_squared(s: OrbifoldMorseSystem) -> DSquaredReport:
    """Square the boundary under both conventions; collect nonzero entries."""
    witnesses = tuple((convention, top, bottom, v)
                      for convention in ("plus", "minus")
                      for _, bottom, top, v in square_entries(_boundary(s, convention)))
    return DSquaredReport(ok=not witnesses, witnesses=witnesses)


def reverse(s: OrbifoldMorseSystem, n: int | None = None) -> OrbifoldMorseSystem:
    """System of the negated function: index k becomes n - k, flows turn around.

    Signs and isotropy orders are carried over verbatim; this is the
    convention used by the pairing identities.
    """
    if n is None:
        n = s.ambient_dim
    for p in s.crit:
        if p.index > n:
            raise IndexOutOfRange(
                f"index {p.index} of {p.label!r} exceeds ambient dimension {n}")
    crit = [IntrinsicPoint(label=p.label, index=n - p.index,
                           iso_order=p.iso_order, orientable=p.orientable)
            for p in s.crit]
    flows = [IntrinsicFlow(label=f.label, src=f.dst, dst=f.src,
                           iso_order=f.iso_order, sign=f.sign)
             for f in s.flows]
    return OrbifoldMorseSystem(ambient_dim=n, crit_points=crit, flows=flows)


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    rows: tuple   # (p, q, convention, left, middle, right)
    witnesses: tuple


def pairing_check(s: OrbifoldMorseSystem, n: int | None = None) -> PairingReport:
    """Adjointness of the two boundaries under the diagonal pairings.

    With <p,p> = 1/iso(p): pairing d_plus(p) against q equals the bare sum of
    sign/iso(flow) over flows p -> q, and equals pairing p against the
    reversed system's plus-boundary of q.  With <p,p>' = iso(p) the same holds
    for the minus-boundaries.  Checked for every flow-connected pair.
    """
    rev = reverse(s, n)
    pairs = sorted({(f.src, f.dst) for f in s.flows})
    rows, witnesses = [], []
    for p, q in pairs:
        iso_p = Fraction(s.point(p).iso_order)
        iso_q = Fraction(s.point(q).iso_order)
        middle = sum((Fraction(f.sign, f.iso_order)
                      for f in s.flows if (f.src, f.dst) == (p, q)),
                     Fraction(0))
        n_plus = sum((Fraction(f.sign * s.point(q).iso_order, f.iso_order)
                      for f in s.flows if (f.src, f.dst) == (p, q)), Fraction(0))
        n_plus_rev = sum((Fraction(f.sign * rev.point(p).iso_order, f.iso_order)
                          for f in rev.flows if (f.src, f.dst) == (q, p)),
                         Fraction(0))
        left, right = n_plus / iso_q, n_plus_rev / iso_p
        rows.append((p, q, "plus", left, middle, right))
        if not (left == middle == right):
            witnesses.append((p, q, "plus", left, middle, right))
        n_minus = sum((Fraction(f.sign * s.point(p).iso_order, f.iso_order)
                       for f in s.flows if (f.src, f.dst) == (p, q)), Fraction(0))
        n_minus_rev = sum((Fraction(f.sign * rev.point(q).iso_order, f.iso_order)
                           for f in rev.flows if (f.src, f.dst) == (q, p)),
                          Fraction(0))
        leftu, rightu = n_minus * iso_q, n_minus_rev * iso_p
        midu = middle * iso_p * iso_q
        rows.append((p, q, "minus", leftu, midu, rightu))
        if not (leftu == midu == rightu):
            witnesses.append((p, q, "minus", leftu, midu, rightu))
    return PairingReport(ok=not witnesses, rows=tuple(rows),
                         witnesses=tuple(witnesses))
