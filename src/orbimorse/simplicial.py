"""Simplicial complexes with group actions: subdivision, quotients, homology.

Simplices are stored as tuples sorted by label; boundary orientations come
from that global order.  Barycentric subdivision labels its vertices by the
simplices they subdivide (tuples), so a group action on the original vertices
extends canonically.

Regularity here means: a group element fixing a simplex setwise fixes it
vertex-wise.  That predicate alone does not guarantee a simplicial quotient
(distinct orbits can land on one vertex set, or a simplex can collapse), so
quotient() also rejects those collisions, and regularize() subdivides until
the quotient goes through; two subdivisions always suffice.

Invariant homology needs no regularity: it is the homology of the orbit sums
of simplices (chaincx.orbit_sum_complex, shared with the Morse side), where
an orbit flipped by its stabilizer cancels like a non-orientable critical
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from typing import Optional

from .chaincx import GradedComplex, betti as complex_betti, orbit_sum_complex
from .errors import (
    ActionNotSimplicial,
    NotASubcomplex,
    NotRegular,
)
from .groups import FiniteGroup, GroupAction, orbits


def _close_downward(maximal):
    simplices = set()
    for s in maximal:
        t = tuple(sorted(set(s)))
        if len(t) != len(s):
            raise ActionNotSimplicial(f"simplex {s!r} repeats a vertex")
        for mask in range(1, 1 << len(t)):
            face = tuple(t[i] for i in range(len(t)) if mask >> i & 1)
            simplices.add(face)
    return simplices


def _faces(s, skip):
    """Codimension-one faces of an oriented simplex outside skip, with signs."""
    faces = ((s[:i] + s[i + 1:], (-1) ** i) for i in range(len(s)))
    return [(face, sign) for face, sign in faces if face not in skip]


class SimplicialComplex:
    """Finite abstract simplicial complex, downward closed by construction."""

    def __init__(self, vertices, maximal_simplices):
        self.vertices = tuple(sorted(set(vertices)))
        closed = _close_downward(maximal_simplices)
        declared = set(self.vertices)
        for s in closed:
            for vtx in s:
                if vtx not in declared:
                    raise NotASubcomplex(
                        f"simplex {s!r} uses undeclared vertex {vtx!r}")
        closed.update((vtx,) for vtx in self.vertices)
        self._closed = frozenset(closed)
        self.by_dim: dict[int, tuple] = {}
        top = max((len(s) - 1 for s in closed), default=0)
        for k in range(top + 1):
            self.by_dim[k] = tuple(sorted(s for s in closed if len(s) == k + 1))

    @property
    def dim(self) -> int:
        return max(self.by_dim)

    def simplices(self, k: int) -> tuple:
        return self.by_dim.get(k, ())

    def all_simplices(self):
        for k in sorted(self.by_dim):
            yield from self.by_dim[k]

    def has(self, s) -> bool:
        return tuple(sorted(s)) in self._closed

    def contains(self, other: "SimplicialComplex") -> bool:
        return all(self.has(s) for s in other.all_simplices())

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.by_dim[k]) for k in sorted(self.by_dim))

    def chain_complex(self, sub: Optional["SimplicialComplex"] = None) -> GradedComplex:
        """Simplicial chain complex, relative to sub when given."""
        if sub is not None and not self.contains(sub):
            raise NotASubcomplex("relative part is not a subcomplex")
        in_sub = set(sub.all_simplices()) if sub is not None else set()
        labels = [[s for s in self.simplices(k) if s not in in_sub]
                  for k in range(self.dim + 1)]
        return GradedComplex.from_entries(labels, (
            (k, face, s, sign) for k in range(1, self.dim + 1)
            for s in labels[k] for face, sign in _faces(s, in_sub)))


def homology(K: SimplicialComplex,
             sub: Optional[SimplicialComplex] = None) -> tuple[int, ...]:
    """Betti numbers of K, or of the pair (K, sub)."""
    return complex_betti(K.chain_complex(sub))


def barycentric_subdivide(K: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision; vertices are the simplices of K."""
    maximal = []
    top = K.dim
    covered = set()
    for k in range(top, -1, -1):
        for s in K.simplices(k):
            if s in covered:
                continue
            # s is maximal: enumerate its full flags.
            for order in permutations(s):
                flag = tuple(tuple(sorted(order[:i + 1])) for i in range(len(s)))
                maximal.append(flag)
            for mask in range(1, 1 << len(s)):
                covered.add(tuple(s[i] for i in range(len(s)) if mask >> i & 1))
    return SimplicialComplex(vertices=list(K.all_simplices()),
                             maximal_simplices=maximal)


class GSimplicialComplex:
    """Simplicial complex with a vertex action mapping simplices to simplices."""

    def __init__(self, complex_: SimplicialComplex, group: FiniteGroup,
                 vertex_action: GroupAction):
        if vertex_action.points != complex_.vertices:
            raise ActionNotSimplicial(
                "vertex action must act on the complex's vertex list")
        self.complex = complex_
        self.group = group
        self.vertex_action = vertex_action
        for g in group:
            for s in complex_.all_simplices():
                img = tuple(sorted(vertex_action.image(g, vtx) for vtx in s))
                if len(set(img)) != len(s) or not complex_.has(img):
                    raise ActionNotSimplicial(
                        f"g={list(g)} sends simplex {s!r} to {img!r}")

    def simplex_image(self, g, s) -> tuple:
        return tuple(sorted(self.vertex_action.image(g, vtx) for vtx in s))

    def subdivided(self) -> "GSimplicialComplex":
        sd = barycentric_subdivide(self.complex)
        idx = {vtx: i for i, vtx in enumerate(sd.vertices)}
        images = {}
        for g in self.group:
            images[g] = tuple(idx[self.simplex_image(g, vtx)]
                              for vtx in sd.vertices)
        action = GroupAction(self.group, sd.vertices, images)
        return GSimplicialComplex(sd, self.group, action)


def is_regular(gk: GSimplicialComplex) -> bool:
    """True when every setwise-fixed simplex is fixed vertex-wise."""
    for g in gk.group:
        for s in gk.complex.all_simplices():
            img = gk.simplex_image(g, s)
            if img == s and any(gk.vertex_action.image(g, vtx) != vtx
                                for vtx in s):
                return False
    return True


def _require_invariant_sub(gk, sub) -> None:
    """Reject a relative part that is not an invariant subcomplex."""
    if sub is None:
        return
    if not gk.complex.contains(sub):
        raise NotASubcomplex("relative part is not a subcomplex")
    for g in gk.group:
        for s in sub.all_simplices():
            if not sub.has(gk.simplex_image(g, s)):
                raise NotASubcomplex(
                    f"relative part is not invariant: g={list(g)} moves {s!r} out")


@dataclass
class QuotientComplex:
    """Quotient simplicial complex with a representative per simplex orbit."""

    complex: SimplicialComplex
    provenance: dict = field(default_factory=dict)
    sub: Optional[SimplicialComplex] = None


def quotient(gk: GSimplicialComplex,
             sub: Optional[SimplicialComplex] = None) -> QuotientComplex:
    """Quotient by the action; simplices are orbits, faces via representatives.

    Raises NotRegular when a setwise-fixed simplex moves vertex-wise, when a
    simplex collapses in the quotient (two vertices sharing an orbit), or when
    two distinct orbits land on the same quotient vertex set.
    """
    if not is_regular(gk):
        raise NotRegular("a setwise-fixed simplex is moved vertex-wise")
    _require_invariant_sub(gk, sub)

    vertex_label = {}
    for orb in orbits(gk.vertex_action):
        for vtx in orb:
            vertex_label[vtx] = orb[0]

    seen: dict[tuple, tuple] = {}
    maximal = []
    for s in gk.complex.all_simplices():
        down = tuple(sorted({vertex_label[vtx] for vtx in s}))
        if len(down) != len(s):
            raise NotRegular(
                f"simplex {s!r} collapses onto {down!r} in the quotient")
        orbit = min(gk.simplex_image(g, s) for g in gk.group)
        if down in seen and seen[down] != orbit:
            raise NotRegular(
                f"orbits of {seen[down]!r} and {orbit!r} share the quotient "
                f"vertex set {down!r}")
        seen[down] = orbit
        maximal.append(down)
    qc = SimplicialComplex(vertices=sorted({vertex_label[v] for v in gk.complex.vertices}),
                           maximal_simplices=maximal)

    qsub = None
    if sub is not None:
        qsub = SimplicialComplex(
            vertices=sorted({vertex_label[v] for v in sub.vertices}),
            maximal_simplices=[tuple(sorted({vertex_label[v] for v in s}))
                               for s in sub.all_simplices()])
    return QuotientComplex(complex=qc, provenance=dict(seen), sub=qsub)


def regularize(gk: GSimplicialComplex, sub: Optional[SimplicialComplex] = None,
               max_rounds: int = 2):
    """Subdivide until the quotient is simplicial; returns (gk, sub, rounds, q).

    One round is usually enough, two always are.
    """
    rounds = 0
    current, cur_sub = gk, sub
    while True:
        try:
            q = quotient(current, cur_sub)
            return current, cur_sub, rounds, q
        except NotRegular:
            if rounds >= max_rounds:
                raise
        current = current.subdivided()
        if cur_sub is not None:
            cur_sub = barycentric_subdivide(cur_sub)
        rounds += 1


def _perm_sign(values) -> int:
    inversions = sum(a > b for a, b in combinations(values, 2))
    return -1 if inversions % 2 else 1


def invariant_homology(gk: GSimplicialComplex,
                       sub: Optional[SimplicialComplex] = None) -> tuple[int, ...]:
    """Dimensions of the invariant part of (relative) homology.

    Over Q, H(C)^G = H(C^G), and C^G has a basis of orbit sums: g carries
    the oriented simplex s to sign * g.s, sign being that of the permutation
    sorting the vertex images.  An orbit whose stabilizer flips its simplices
    sums to zero, as the paper's critical points whose isotropy reverses the
    orientation of their unstable manifold are discarded.
    """
    _require_invariant_sub(gk, sub)
    in_sub = set(sub.all_simplices()) if sub is not None else set()
    levels = []
    for k in range(gk.complex.dim + 1):
        seen, level = set(), []
        for s in gk.complex.simplices(k):
            if s in seen or s in in_sub:
                continue
            members, orientable = {}, True
            for g in gk.group:
                raw = [gk.vertex_action.image(g, vtx) for vtx in s]
                sign = _perm_sign(raw)
                orientable &= members.setdefault(tuple(sorted(raw)), sign) == sign
            seen.update(members)
            level.append((members, orientable))
        levels.append(level)
    return complex_betti(orbit_sum_complex(levels, lambda s: _faces(s, in_sub)))


@dataclass(frozen=True)
class CompareReport:
    morse_betti: tuple[int, ...]
    quotient_betti: tuple[int, ...]
    rounds: int
    equal: bool


def compare(system, gk: GSimplicialComplex) -> CompareReport:
    """Betti numbers of the invariant Morse complex against the quotient space."""
    from .quotient import invariant_boundary

    morse = complex_betti(invariant_boundary(system))
    _, _, rounds, q = regularize(gk)
    simp = homology(q.complex)
    width = max(len(morse), len(simp))
    morse_p = tuple(morse) + (0,) * (width - len(morse))
    simp_p = tuple(simp) + (0,) * (width - len(simp))
    return CompareReport(morse_betti=morse_p, quotient_betti=simp_p,
                         rounds=rounds, equal=morse_p == simp_p)
