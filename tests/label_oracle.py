"""The label-keyed simplicial complexes the id-numbered ones replaced, kept
as an oracle for them, as dense_oracle.py keeps the dense kernel.

Simplices are tuples sorted by label; barycentric subdivision labels its
vertices by the simplices they subdivide (tuples nested once per round).
The orbit scan keeps, per orbit, its least member s, a dict from each
member to its sign, and whether the orbit is flipped or irregular; the
orbit sums are keyed by those labels.  Every witness text is the package's.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Optional

from orbimorse.chaincx import GradedComplex, RationalMatrix, betti
from orbimorse.errors import (ActionNotSimplicial, CancellationFailure,
                              InvarianceFailure, NotASubcomplex, NotRegular)
from orbimorse.groups import gather, is_perm


def complex_of_entries(labels, entries) -> GradedComplex:
    """Complex with bases labels[k] from (k, row_label, col_label, coeff)
    entries, coeff times row_label in the boundary of col_label; repeated
    cells are summed and zeros dropped."""
    labels = [tuple(level) for level in labels]
    pos = [{lab: i for i, lab in enumerate(level)} for level in labels]
    columns = [[{} for _ in labels[k]] for k in range(1, len(labels))]
    for k, row, col, coeff in entries:
        column, i = columns[k - 1][pos[k][col]], pos[k - 1][row]
        column[i] = column.get(i, 0) + coeff
    return GradedComplex.build(labels, [
        RationalMatrix.of_columns(len(labels[k - 1]), (
            {i: v for i, v in col.items() if v} for col in cols))
        for k, cols in enumerate(columns, 1)])


def orbit_sum_complex(orbits, faces) -> GradedComplex:
    """Complex on the orbit sums of the orientable orbits of a signed action.

    orbits[k] lists the degree-k orbits as (members, orientable) pairs;
    members maps each cell to its sign relative to the first member, the
    representative, which labels the orbit sum.  faces(cell) yields (face,
    coeff).  Over Q the orbit sums span the invariant chains C^G, and
    H(C^G) = H(C)^G.  The boundary of an orbit sum must vanish on
    non-orientable orbits (CancellationFailure), and sign times its
    coefficient must be constant on each face orbit (InvarianceFailure).
    """
    rep_of, info = {}, {}
    for k, level in enumerate(orbits):
        for members, orientable in level:
            rep = next(iter(members))
            info[rep] = (k, members, orientable)
            rep_of.update(dict.fromkeys(members, rep))
    labels = [[next(iter(members)) for members, orientable in level if orientable]
              for level in orbits]
    entries = []
    for k in range(1, len(orbits)):
        for rep in labels[k]:
            coeff: dict = {}
            for cell, sign in info[rep][1].items():
                for face, c in faces(cell):
                    coeff[face] = coeff.get(face, 0) + sign * c
            for frep in dict.fromkeys(rep_of[q] for q in coeff):
                fk, members, orientable = info[frep]
                vals = {coeff.get(q, 0) * sign for q, sign in members.items()}
                if not orientable and vals != {0}:
                    q = next(q for q in members if coeff.get(q, 0))
                    raise CancellationFailure(
                        f"boundary of the orbit sum of {rep!r} has "
                        f"coefficient {coeff[q]} at non-orientable point {q!r}")
                if len(vals) != 1:
                    raise InvarianceFailure(
                        f"boundary of the orbit sum of {rep!r} is not "
                        f"constant on the orbit of {frep!r}: {sorted(vals)}")
                if orientable and fk == k - 1 and vals != {0}:
                    entries.append((k, frep, rep, vals.pop()))
    return complex_of_entries(labels, entries)


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
        return complex_of_entries(labels, (
            (k, face, s, sign) for k in range(1, self.dim + 1)
            for s in labels[k] for face, sign in _faces(s, in_sub)))


def homology(K: SimplicialComplex,
             sub: Optional[SimplicialComplex] = None) -> tuple[int, ...]:
    """Betti numbers of K, or of the pair (K, sub)."""
    return betti(K.chain_complex(sub))


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
    return betti(orbit_sum_complex(levels, lambda s: _faces(s, in_sub)))
