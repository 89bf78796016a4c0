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
point.  A G-complex is its complex and one vertex image array per ground
generator; the constructor walks each simplex orbit once, breadth first
through the generators, checking that the action is simplicial, and keeps
the rows as the complex's orbit table; regularity, the quotient, the
invariance of a relative part and invariant homology read that table.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Optional

from .chaincx import GradedComplex, betti as complex_betti, orbit_sum_complex
from .errors import ActionNotSimplicial, NotASubcomplex, NotRegular
from .groups import gather, is_perm
from .intrinsic import boundary_plus
from .quotient import derive_intrinsic


def _close_downward(maximal):
    """Every face of the given simplices.  A simplex already in the set came
    with all of its faces and is skipped, so hand them over longest first."""
    simplices = set()
    for s in maximal:
        t = tuple(sorted(set(s)))
        if len(t) != len(s):
            raise ActionNotSimplicial(f"simplex {s!r} repeats a vertex")
        if t not in simplices:
            for r in range(1, len(t) + 1):
                simplices.update(combinations(t, r))
    return simplices


_SIGNS = (1, -1) * 32  # (-1)**i; _close_downward lists all 2**n faces, so n < 64


def _faces(s, skip):
    """Codimension-one faces of an oriented simplex outside skip, with signs."""
    faces = [(s[:i] + s[i + 1:], sign) for i, sign in zip(range(len(s)), _SIGNS)]
    return [f for f in faces if f[0] not in skip] if skip else faces


class SimplicialComplex:
    """Finite abstract simplicial complex, downward closed by construction."""

    def __init__(self, vertices, maximal_simplices):
        self.vertices = tuple(sorted(set(vertices)))
        maximal_simplices = list(maximal_simplices)
        closed = _close_downward(maximal_simplices)
        declared = set(self.vertices)
        for s in maximal_simplices:
            if not declared.issuperset(s):
                raise NotASubcomplex(
                    "simplex %r uses undeclared vertex %r"
                    % (tuple(sorted(s)), min(set(s) - declared)))
        closed.update((vtx,) for vtx in self.vertices)
        # each simplex maps to itself, so an image can share the stored tuple
        self._closed = dict(zip(closed, closed))
        by_len: dict[int, list] = {}
        for s in closed:
            by_len.setdefault(len(s), []).append(s)
        self.by_dim = {k: tuple(sorted(by_len.get(k + 1, ())))
                       for k in range(max(by_len, default=1))}

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
    """First barycentric subdivision; vertices are the simplices of K, and the
    maximal simplices are the full flags of those of K (no facet of another)."""
    facets = {s[:i] + s[i + 1:] for s in K.all_simplices() for i in range(len(s))}
    flags = [tuple(tuple(sorted(order[:i + 1])) for i in range(len(s)))
             for s in K.all_simplices() if s not in facets
             for order in permutations(s)]
    return SimplicialComplex(vertices=list(K.all_simplices()),
                             maximal_simplices=flags)


class GSimplicialComplex:
    """Simplicial complex with a vertex action mapping simplices to simplices,
    kept as rows (g, image array over the vertex list), one per ground
    generator g, which names the row in witnesses."""

    def __init__(self, complex_: SimplicialComplex, rows):
        self.complex, self.rows = complex_, tuple(rows)
        if not all(is_perm(arr, len(complex_.vertices)) for _, arr in self.rows):
            raise ActionNotSimplicial(
                "vertex action must act on the complex's vertex list")
        self.orbit_table = tuple(_orbit_scan(self))

    def subdivided(self) -> "GSimplicialComplex":
        """Each row lifted to the subdivision: g sends the vertex s to g.s."""
        sd, index = barycentric_subdivide(self.complex), _index(self.complex)
        position = {tuple([index[vtx] for vtx in s]): i
                    for i, s in enumerate(sd.vertices)}
        gathers = list(map(gather, position))
        return GSimplicialComplex(sd, [
            (g, tuple([position[tuple(sorted(at(arr)))] for at in gathers]))
            for g, arr in self.rows])


def _index(K: SimplicialComplex) -> dict:
    return {vtx: i for i, vtx in enumerate(K.vertices)}


def _perm_sign(values) -> int:
    return -1 if sum(a > b for a, b in combinations(values, 2)) % 2 else 1


def _orbit_scan(gk: GSimplicialComplex):
    """(s, members, flipped, irregular) per simplex orbit, by dimension and
    least member s, walked breadth first through the generators from the
    vertex-index tuple of s.  members maps the simplex of each tuple t
    reached to the sign of the permutation sorting t; flipped: a simplex is
    reached with both signs, so Stab(s) reverses s; irregular: more tuples
    than simplices are reached, so Stab(s) moves a vertex.  Raises
    ActionNotSimplicial naming a generator, a reached simplex and its image."""
    closed, points, index = gk.complex._closed, gk.complex.vertices, _index(gk.complex)
    seen = set()
    for s in gk.complex.all_simplices():
        if s in seen:
            continue
        members, flipped = {s: 1}, False
        queue = [tuple([index[vtx] for vtx in s])]
        reached = set(queue)
        for t in queue:  # breadth first: the queue grows behind the loop
            at = gather(t)
            for g, arr in gk.rows:
                u = at(arr)
                if u in reached:
                    continue
                img = tuple([points[i] for i in sorted(u)])
                if img not in closed:
                    raise ActionNotSimplicial(
                        f"g={list(g)} sends simplex "
                        f"{tuple([points[i] for i in sorted(t)])!r} to {img!r}")
                sign = _perm_sign(u)
                # closed[img]: the table keeps the complex's own tuple
                flipped |= members.setdefault(closed[img], sign) != sign
                reached.add(u)
                queue.append(u)
        seen.update(members)
        yield s, members, flipped, len(reached) > len(members)


def is_regular(gk: GSimplicialComplex) -> bool:
    """True when every setwise-fixed simplex is fixed vertex-wise."""
    return not any(irregular for *_, irregular in gk.orbit_table)


def _require_invariant_sub(gk, sub) -> None:
    """Reject a relative part that is not an invariant subcomplex, one that
    a generator moves; the witness is the least such generator and the
    first simplex it moves out."""
    if sub is None:
        return
    if not gk.complex.contains(sub):
        raise NotASubcomplex("relative part is not a subcomplex")
    points, index = gk.complex.vertices, _index(gk.complex)
    for g, arr in sorted(gk.rows):
        for s in sub.all_simplices():
            if tuple(sorted([points[arr[index[vtx]]] for vtx in s])) not in sub._closed:
                raise NotASubcomplex(
                    f"relative part is not invariant: g={list(g)} moves {s!r} out")


class QuotientComplex(NamedTuple):
    """Quotient simplicial complex with a representative per simplex orbit."""

    complex: SimplicialComplex
    sub: Optional[SimplicialComplex] = None


def quotient(gk: GSimplicialComplex,
             sub: Optional[SimplicialComplex] = None) -> QuotientComplex:
    """Quotient by the action; simplices are orbits, faces via representatives.

    Raises NotRegular when a setwise-fixed simplex moves vertex-wise, when a
    simplex collapses in the quotient (two vertices sharing an orbit), or when
    two distinct orbits land on the same quotient vertex set; the first of
    these before NotASubcomplex for a relative part, the others after it.
    """
    if not is_regular(gk):
        raise NotRegular("a setwise-fixed simplex is moved vertex-wise")
    # an orbit is labelled by its least member, the representative of its row
    vertex_label = {vtx: s[0] for s, members, *_ in gk.orbit_table
                    if len(s) == 1 for (vtx,) in members}
    seen, reason = {}, None
    for s, *_ in gk.orbit_table:
        down = tuple(sorted({vertex_label[vtx] for vtx in s}))
        if len(down) != len(s):
            reason = f"simplex {s!r} collapses onto {down!r} in the quotient"
            break
        if down in seen:
            reason = (f"orbits of {seen[down]!r} and {s!r} share the quotient "
                      f"vertex set {down!r}")
            break
        seen[down] = s
    _require_invariant_sub(gk, sub)
    if reason is not None:
        # raised, not kept: an exception in a local of this frame would tie
        # the frame, and the complex, into a cycle through its traceback
        raise NotRegular(reason)
    qc = SimplicialComplex(vertices=sorted({vertex_label[v] for v in gk.complex.vertices}),
                           maximal_simplices=reversed(seen))  # longest first
    qsub = None if sub is None else SimplicialComplex(
        vertices=sorted({vertex_label[v] for v in sub.vertices}),
        maximal_simplices=[tuple(sorted({vertex_label[v] for v in s}))
                           for k in sorted(sub.by_dim, reverse=True)
                           for s in sub.by_dim[k]])
    return QuotientComplex(complex=qc, sub=qsub)


#: Subdivision rounds regularize tries; one is usually enough, two always are.
MAX_ROUNDS = 2


def regularize(gk: GSimplicialComplex, sub: Optional[SimplicialComplex] = None):
    """Subdivide until the quotient is simplicial; returns (rounds, q), q the
    quotient of the complex (and sub) subdivided that many times."""
    rounds = 0
    current, cur_sub = gk, sub
    while True:
        try:
            return rounds, quotient(current, cur_sub)
        except NotRegular:
            if rounds >= MAX_ROUNDS:
                raise
        current = current.subdivided()
        if cur_sub is not None:
            cur_sub = barycentric_subdivide(cur_sub)
        rounds += 1


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
    in_sub = sub._closed if sub is not None else {}
    levels = [[] for _ in range(gk.complex.dim + 1)]
    for s, members, flipped, _ in gk.orbit_table:
        if s not in in_sub:
            levels[len(s) - 1].append((members, not flipped))
    return complex_betti(orbit_sum_complex(levels, lambda s: _faces(s, in_sub)))


class CompareReport(NamedTuple):
    morse_betti: tuple[int, ...]
    quotient_betti: tuple[int, ...]
    rounds: int
    equal: bool


def compare(system, gk: GSimplicialComplex) -> CompareReport:
    """Betti numbers of the invariant Morse complex against the quotient space.

    The Morse side is the plus complex of the derived quotient system: the
    orientable orbits weighted by their isotropy orders.
    """
    morse = complex_betti(boundary_plus(derive_intrinsic(system)))
    rounds, q = regularize(gk)
    simp = homology(q.complex)
    width = max(len(morse), len(simp))
    morse_p = tuple(morse) + (0,) * (width - len(morse))
    simp_p = tuple(simp) + (0,) * (width - len(simp))
    return CompareReport(morse_betti=morse_p, quotient_betti=simp_p,
                         rounds=rounds, equal=morse_p == simp_p)
