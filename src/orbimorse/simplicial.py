"""Simplicial complexes with group actions: subdivision, quotients, homology.

A complex keeps its sorted vertex labels once and each cell as a sorted
tuple of vertex ranks, numbered per dimension in lexicographic order (rank
order is label order, so bases, signs and witnesses are the labels'), and
the faces of the k-cells as one flat list, k + 1 per cell, face i (vertex i
dropped) with sign (-1)**i.  A subdivision numbers each vertex by the rank
of the cell it subdivides; labels, nested once per round, are built only
where a message or a reader asks.  Regularity (an element fixing a simplex
setwise fixes it vertex-wise) is not enough for a simplicial quotient, so
quotient() also rejects shared vertex sets and collapses.  Where it fails,
regularize() does not subdivide the G-complex twice: once no edge has both
ends in one vertex orbit (after at most one round, as a subdivision's
vertices are labelled by dimension), the orbits form a regular cell complex,
and the chains of its face poset are the quotient of the next subdivision
(Bredon, Introduction to Compact Transformation Groups, 1972, ch. III 1).
That quotient numbers its vertices by dimension, not by label; only its
Betti numbers are read.  Invariant homology is that of the orbit sums
(chaincx.orbit_sum_complex), where an orbit its stabilizer flips cancels
like a non-orientable critical point.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from itertools import combinations, starmap, zip_longest
from math import factorial
from operator import gt, itemgetter
from typing import NamedTuple, Optional

from .chaincx import (GradedComplex, RationalMatrix, betti as complex_betti,
                      orbit_sum_complex)
from .errors import ActionNotSimplicial, ClosureExceedsCap, NotASubcomplex, NotRegular
from .groups import CELL_CAP, gather, is_perm
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


_SIGNS = (1, -1) * 32  # (-1)**i; CELL_CAP admits no simplex on 64 vertices


def _cap(sizes, label) -> None:
    """Count the (simplex, cells) pairs a closure is about to list: 2^n - 1
    faces of an n-vertex simplex, times n! flags when it is subdivided."""
    total = 0
    for s, cells in sizes:
        if (total := total + cells) > CELL_CAP:
            raise ClosureExceedsCap(
                f"closure passes the cap of {CELL_CAP} cells at simplex {label(s)!r}")


def _labels(parent, cells, pick=tuple) -> tuple:
    """pick of each cell's vertex labels, from a parent's (or its partial)."""
    points = parent() if callable(parent) else parent
    return tuple(pick([points[r] for r in c]) for c in cells)


def _ids(cells) -> list:
    """cell -> id per dimension."""
    return [dict(zip(level, range(len(level)))) for level in cells]


class SimplicialComplex:
    """Finite abstract simplicial complex, downward closed by construction;
    ranked: by labels in rank order (or a partial) and cells by dimension.
    No cell -> id dict outlives the step that reads it: has and part search
    the sorted cells."""

    def __init__(self, vertices, maximal_simplices, ranked=False):
        if not ranked:  # by labels: checked, counted, then closed on ranks
            declared, maximal = set(vertices), list(maximal_simplices)
            for s in (s for s in maximal if len(set(s)) != len(s)):  # the first
                raise ActionNotSimplicial(f"simplex {s!r} repeats a vertex")
            for s in (s for s in maximal if not declared.issuperset(s)):
                raise NotASubcomplex("simplex %r uses undeclared vertex %r"
                                     % (tuple(sorted(s)), min(set(s) - declared)))
            _cap(((s, 2 ** len(s) - 1) for s in maximal), tuple)
            vertices = tuple(sorted(declared))
            rank = dict(zip(vertices, range(len(vertices))))
            closed = _close_downward([[rank[v] for v in s] for s in maximal]
                                     + [[i] for i in range(len(vertices))])
            maximal_simplices = [sorted(c for c in closed if len(c) == n)
                                 for n in range(1, max(map(len, closed), default=1) + 1)]
        self._names, self.cells = vertices, maximal_simplices
        index = _ids(self.cells)
        drops = [list(map(gather, combinations(range(k + 1), k)))[::-1]  # face i drops i
                 for k in range(len(self.cells))]
        self.faces = [[]] + [[index[k - 1][d(c)] for c in self.cells[k]
                              for d in drops[k]] for k in range(1, len(self.cells))]

    def _has_cell(self, c) -> bool:
        cells = self.cells[len(c) - 1] if 0 < len(c) <= len(self.cells) else ()
        i = bisect_left(cells, c)
        return i < len(cells) and cells[i] == c

    @cached_property
    def vertices(self) -> tuple:  # built from the parent's when first read
        return self._names() if callable(self._names) else self._names

    def label(self, cell) -> tuple:
        return tuple([self.vertices[r] for r in cell])

    @property
    def dim(self) -> int:
        return len(self.cells) - 1

    def simplices(self, k: int) -> tuple:
        return tuple(map(self.label, self.cells[k])) if 0 <= k <= self.dim else ()

    def all_simplices(self):
        return (s for k in range(self.dim + 1) for s in self.simplices(k))

    @cached_property
    def _rank(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    def has(self, s) -> bool:
        return self._has_cell(tuple(sorted(self._rank.get(v, -1) for v in s)))

    def contains(self, other: "SimplicialComplex") -> bool:
        return all(self.has(s) for s in other.all_simplices())

    def counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.cells))

    def part(self, sub) -> frozenset:
        """A relative part's cells: sub by labels, or already a set of cells."""
        if sub is None or isinstance(sub, frozenset):
            return sub or frozenset()
        rank = self._rank
        part = frozenset(tuple(sorted(rank.get(v, -1) for v in s))
                         for s in sub.all_simplices())
        if not all(map(self._has_cell, part)):
            raise NotASubcomplex("relative part is not a subcomplex")
        return part

    def chain_complex(self, sub=None) -> GradedComplex:
        """Simplicial chain complex, relative to sub (see part); bases number cells."""
        part, matrices = self.part(sub), []
        kept = [[j for j, c in enumerate(cells) if c not in part] if part
                else range(len(cells)) for cells in self.cells]
        rows = [dict(zip(ids, range(len(ids)))) if part else ids for ids in kept]
        for k in range(1, len(kept)):
            groups, row = enumerate(zip(*[iter(self.faces[k])] * (k + 1))), rows[k - 1]
            matrices.append(RationalMatrix.of_columns(len(row), [
                {row[f]: sign for f, sign in zip(faces, _SIGNS) if f in row} if part
                else dict(zip(faces, _SIGNS)) for j, faces in groups if j in rows[k]]))
        return GradedComplex.build(kept, matrices)


def homology(K: SimplicialComplex, sub=None) -> tuple[int, ...]:
    """Betti numbers of K, or of the pair (K, sub)."""
    return complex_betti(K.chain_complex(sub))


def barycentric_subdivide(K: SimplicialComplex) -> SimplicialComplex:
    """First barycentric subdivision: vertices are K's cells in lexicographic
    order (kept as _lex), cells their chains, each a shorter one extended past
    its greatest vertex by one comparable with all its own, so each comes sorted."""
    faces_of = [set(f) for f in K.faces[1:]] + [set()]
    _cap(((c, factorial(len(c)) * (2 ** len(c) - 1)) for k, cells in enumerate(K.cells)
          for j, c in enumerate(cells) if j not in faces_of[k]), K.label)
    lex = sorted(c for cells in K.cells for c in cells)
    number = dict(zip(lex, range(len(lex))))
    up, below = [[] for _ in lex], [set() for _ in lex]
    for v, c in enumerate(lex):
        for w in (number[t] for r in range(1, len(c)) for t in combinations(c, r)):
            up[min(v, w)].append(max(v, w))
            below[max(v, w)].add(min(v, w))
    cells, up = [[(v,) for v in range(len(lex))]], [sorted(above) for above in up]
    for _ in range(K.dim):
        cells.append([p + (w,) for p in cells[-1] for w in up[p[-1]]
                      if below[w].issuperset(p[:-1])])
    sd = SimplicialComplex(partial(_labels, K._names, lex), cells, ranked=True)
    sd._lex = lex
    return sd


class GSimplicialComplex:
    """Simplicial complex with a vertex action mapping simplices to simplices,
    kept as rows (g, image array over the vertex ranks), one per ground
    generator g, which names the row in witnesses; see _orbit_scan."""

    def __init__(self, complex_: SimplicialComplex, rows):
        self.complex, self.rows = complex_, tuple(rows)
        if not all(is_perm(arr, len(complex_.cells[0])) for _, arr in self.rows):
            raise ActionNotSimplicial(
                "vertex action must act on the complex's vertex list")
        self.orbit, self.sign, self.orbits, self.irregular = _orbit_scan(self)

    def subdivided(self) -> "GSimplicialComplex":
        """Each row lifted to the subdivision: g sends the vertex s to g.s."""
        sd = barycentric_subdivide(self.complex)
        number = dict(zip(sd._lex, range(len(sd._lex))))
        return GSimplicialComplex(sd, [
            (g, tuple([number[tuple(sorted([arr[r] for r in c]))] for c in sd._lex]))
            for g, arr in self.rows])


def _orbit_scan(gk: GSimplicialComplex):
    """The orbit table: orbit[k] and sign[k] per k-cell, (k, members,
    orientable) and irregular per orbit, walked from its least member through
    the generators over the rank tuples t reached.  t's cell gets t's parity;
    both parities make the orbit flipped, more tuples than cells irregular."""
    def parity(u):  # the sign of the permutation sorting u
        return -1 if sum(starmap(gt, combinations(u, 2))) % 2 else 1
    K, orbits, irregular = gk.complex, [], []
    index = _ids(K.cells)
    orbit, sign = [[-1] * len(c) for c in K.cells], [[1] * len(c) for c in K.cells]
    for k, cells in enumerate(K.cells):
        ids, number, signs = index[k], orbit[k], sign[k]
        for j in (j for j in range(len(cells)) if number[j] < 0):
            o = number[j] = len(orbits)
            members, flipped, queue, reached = [j], False, [cells[j]], {cells[j]}
            for t in queue:  # breadth first: the queue grows behind the loop
                at = gather(t)
                for g, arr in gk.rows:
                    if (u := at(arr)) in reached:
                        continue
                    if (i := ids.get(tuple(sorted(u)))) is None:
                        raise ActionNotSimplicial(
                            f"g={list(g)} sends simplex {K.label(sorted(t))!r} "
                            f"to {K.label(sorted(u))!r}")
                    if number[i] < 0:
                        number[i], signs[i] = o, parity(u)
                        members.append(i)
                    else:
                        flipped |= signs[i] != parity(u)
                    reached.add(u)
                    queue.append(u)
            orbits.append((k, members, not flipped))
            irregular.append(len(reached) > len(members))
    return orbit, sign, orbits, irregular


def is_regular(gk: GSimplicialComplex) -> bool:
    """True when every setwise-fixed simplex is fixed vertex-wise."""
    return not any(gk.irregular)


def _invariant_part(gk, sub) -> frozenset:
    """The cells of a relative part, unless a generator moves one out: then
    the least such generator and the first such cell are the witness."""
    part = gk.complex.part(sub)
    for g, arr in sorted(gk.rows):
        for c in sorted(part, key=lambda c: (len(c), c)):
            if tuple(sorted([arr[r] for r in c])) not in part:
                raise NotASubcomplex(f"relative part is not invariant: "
                                     f"g={list(g)} moves {gk.complex.label(c)!r} out")
    return part


class QuotientComplex(NamedTuple):
    """Quotient complex, and its relative part as cells (None without)."""
    complex: SimplicialComplex
    part: Optional[frozenset] = None

    @property
    def sub(self) -> Optional[SimplicialComplex]:
        label = self.complex.label
        return None if self.part is None else SimplicialComplex(
            {v for c in self.part for v in label(c)}, map(label, self.part))


def quotient(gk: GSimplicialComplex, sub=None) -> QuotientComplex:
    """Quotient by the action; simplices are orbits, faces via representatives.
    Raises NotRegular when a setwise-fixed simplex moves vertex-wise (before
    NotASubcomplex for a relative part), or after it when a simplex collapses
    or two orbits land on one quotient vertex set."""
    if not is_regular(gk):
        raise NotRegular("a setwise-fixed simplex is moved vertex-wise")
    K, label = gk.complex, gk.complex.label
    rep = [gk.orbits[o][1][0] for o in gk.orbit[0]]  # least vertex of each orbit
    seen, reason = {}, None
    for k, members, _ in gk.orbits:
        s = K.cells[k][members[0]]
        down = tuple(sorted({rep[v] for v in s}))
        if len(down) != len(s):
            reason = (f"simplex {label(s)!r} collapses onto {label(down)!r} "
                      "in the quotient")
            break
        if down in seen:
            reason = (f"orbits of {label(seen[down])!r} and {label(s)!r} share "
                      f"the quotient vertex set {label(down)!r}")
            break
        seen[down] = s
    part = _invariant_part(gk, sub)
    if reason is not None:
        # raised, not kept: an exception in a local of this frame would tie
        # the frame, and the complex, into a cycle through its traceback
        raise NotRegular(reason)
    reps = sorted(set(rep))
    new, cells = dict(zip(reps, range(len(reps)))), [[] for _ in K.cells]
    for down in seen:
        cells[len(down) - 1].append(tuple([new[r] for r in down]))
    names = partial(_labels, K._names, [(r,) for r in reps], itemgetter(0))
    qc = SimplicialComplex(names, [sorted(level) for level in cells], ranked=True)
    return QuotientComplex(qc, None if sub is None else frozenset(
        tuple(sorted({new[rep[v]] for v in c})) for c in part))


def _multiplicity_free(gk: GSimplicialComplex) -> bool:
    """True when no edge has both ends in one vertex orbit.  Then no two
    faces of a simplex share an orbit, and gk is regular."""
    orbit = gk.orbit[0]  # a vertex's id is its rank
    return all(orbit[u] != orbit[v]
               for edges in gk.complex.cells[1:2] for u, v in edges)


def _orbit_chains(gk: GSimplicialComplex, part=None) -> QuotientComplex:
    """The quotient of gk's subdivision, gk multiplicity-free, as the order
    complex of its orbit poset: orbit b lies above orbit a when a face of b's
    representative (its least member) is in a.  (s0 < ... < sk) -> ([s0] <
    ... < [sk]) maps the subdivision's orbits one-to-one onto these chains.
    An orbit is labelled as its representative's vertex in the subdivision,
    and numbered as in the orbit table, by dimension: so every orbit above a
    chain's last extends it, and each level comes sorted.  The chains are
    counted first, the ones ending at b 1 plus those ending below it, against
    CELL_CAP."""
    K, reps = gk.complex, [gk.complex.cells[k][m[0]] for k, m, _ in gk.orbits]
    below, chains = [set() for _ in reps], [1] * len(reps)
    for b, (k, members, _) in enumerate(gk.orbits):
        for f in K.faces[k][members[0] * (k + 1):(members[0] + 1) * (k + 1)]:
            a = gk.orbit[k - 1][f]
            below[b].add(a)
            below[b] |= below[a]
        chains[b] += sum(map(chains.__getitem__, below[b]))
    _cap(zip(reps, chains), K.label)
    above = [[] for _ in reps]
    for b, under in enumerate(below):
        for a in under:
            above[a].append(b)  # b ascending: each list comes sorted
    cells = [[(b,) for b in range(len(reps))]]
    for _ in range(K.dim):
        cells.append([c + (b,) for c in cells[-1] for b in above[c[-1]]])
    oc = SimplicialComplex(partial(_labels, K._names, reps), cells, ranked=True)
    if part is None:
        return QuotientComplex(oc)
    inside = {b for b, r in enumerate(reps) if r in part}
    return QuotientComplex(oc, frozenset(c for level in cells for c in level
                                         if inside.issuperset(c)))


def regularize(gk: GSimplicialComplex, sub=None):
    """(rounds, q): q the quotient of gk (and sub, as cells: chains of cells)
    subdivided that many times.  0 rounds when quotient() goes through; else
    1 when gk is multiplicity-free, q its orbit chains; else gk is subdivided
    once (multiplicity-free, as its vertices are labelled by dimension), and
    1 round if its quotient goes through, 2 with its orbit chains if not."""
    part = None if sub is None else gk.complex.part(sub)
    try:
        return 0, quotient(gk, part)
    except NotRegular:  # not kept: see quotient
        pass
    if _multiplicity_free(gk):
        return 1, _orbit_chains(gk, part)
    gk = gk.subdivided()
    if part is not None:
        part = frozenset(c for cells in gk.complex.cells for c in cells
                         if all(gk.complex._lex[v] in part for v in c))
    try:
        return 1, quotient(gk, part)
    except NotRegular:
        pass
    return 2, _orbit_chains(gk, part)


def invariant_homology(gk: GSimplicialComplex, sub=None) -> tuple[int, ...]:
    """Dimensions of the invariant part of (relative) homology.

    Over Q, H(C)^G = H(C^G), and C^G has a basis of orbit sums: g carries
    the oriented simplex s to sign * g.s, sign being that of the permutation
    sorting the vertex images.  An orbit whose stabilizer flips its simplices
    sums to zero, as the paper's critical points whose isotropy reverses the
    orientation of their unstable manifold are discarded.
    """
    K, part = gk.complex, _invariant_part(gk, sub)

    def faces(k, j):
        pairs = zip(K.faces[k][j * (k + 1):j * (k + 1) + k + 1], _SIGNS)
        return [p for p in pairs if K.cells[k - 1][p[0]] not in part] if part else pairs
    return complex_betti(orbit_sum_complex(
        [(-1 if K.cells[k][m[0]] in part else k, m, ok)  # a relative part left out
         for k, m, ok in gk.orbits],
        gk.orbit, gk.sign, faces, K.cells))


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
    morse_p, simp_p = zip(*zip_longest(morse, homology(q.complex), fillvalue=0))
    return CompareReport(morse_betti=morse_p, quotient_betti=simp_p,
                         rounds=rounds, equal=morse_p == simp_p)
