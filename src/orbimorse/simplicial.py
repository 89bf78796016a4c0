"""Simplicial complexes with group actions: subdivision, quotients, homology.

A complex keeps its sorted vertex labels once and each cell as a sorted
tuple of vertex ranks, numbered per dimension in lexicographic order (rank
order is label order, so bases, signs and witnesses are the labels'), and
the faces of the k-cells as one flat list, k + 1 per cell, face i (vertex i
dropped) with sign (-1)**i.  A subdivision numbers each vertex by the rank
of the cell it subdivides; labels, nested once per round, are built only
where a message or a reader asks.  The orbit table walks each orbit's
members once, through the generators: by Schreier's lemma the stabilizer
of a member is generated by what the walk's edges do to it, so the edges
alone tell whether it moves or reverses the member's vertices, and the
group is never closed.  When no edge has both ends in one vertex orbit
(the complex is multiplicity-free), ordering each simplex's vertices by
vertex orbit is G-invariant, and |K|/G is a Delta-complex with one cell per
orbit, whose boundaries the orbit table holds (_delta_complex); a
subdivision is multiplicity-free, as its vertices are labelled by
dimension, so regularize() subdivides at most once.  quotient() keeps the
stricter test of a simplicial quotient: regular (an element fixing a
simplex setwise fixes it vertex-wise), no simplex collapsing onto fewer
vertex orbits, no two orbits on one vertex-orbit set.  Invariant homology
is that of the orbit sums (chaincx.orbit_sum_complex), where an orbit its
stabilizer flips cancels like a non-orientable critical point.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, partial
from itertools import combinations, repeat, starmap, zip_longest
from math import factorial
from operator import gt, itemgetter
from typing import NamedTuple, Optional

from .chaincx import (GradedComplex, RationalMatrix, betti as complex_betti,
                      orbit_sum_complex)
from .errors import ActionNotSimplicial, ClosureExceedsCap, NotASubcomplex, NotRegular
from .groups import CELL_CAP, gather, is_perm
from .intrinsic import boundary_plus
from .quotient import derive_intrinsic


_SIGNS = (1, -1) * 32  # (-1)**i; CELL_CAP admits no simplex on 64 vertices


def _past_cap(s, label) -> ClosureExceedsCap:
    return ClosureExceedsCap(
        f"closure passes the cap of {CELL_CAP} cells at simplex {label(s)!r}")


def _cap(sizes, label) -> None:
    """Count the (simplex, cells) pairs a closure is about to list: 2^n - 1
    faces of an n-vertex simplex, times n! flags when it is subdivided."""
    total = 0
    for s, cells in sizes:
        if (total := total + cells) > CELL_CAP:
            raise _past_cap(s, label)


def rank_simplices(vertices, simplices) -> tuple:
    """(sorted vertex labels, levels): each simplex, read one at a time, as
    the sorted tuple of its vertex ranks, those of n vertices in levels[n-1].
    Refused, in this order: the first simplex that repeats a vertex, the
    first with an undeclared vertex, the first at which the count of faces
    so far passes CELL_CAP (see _cap)."""
    names = tuple(sorted(set(vertices)))
    rank, levels = dict(zip(names, range(len(names)))).get, []
    undeclared = past = None
    total = 0
    for s in simplices:
        t = tuple(sorted(map(rank, s, repeat(-1))))  # -1: undeclared
        if len(set(t)) < len(t) and len(set(s)) < len(s):
            raise ActionNotSimplicial(f"simplex {s!r} repeats a vertex")
        if undeclared is None and t and t[0] < 0:
            undeclared = s
        if past is None and (total := total + 2 ** len(t) - 1) > CELL_CAP:
            past = s
        while len(levels) < len(t):
            levels.append([])
        if t:
            levels[len(t) - 1].append(t)
    if undeclared is not None:
        raise NotASubcomplex("simplex %r uses undeclared vertex %r" % (
            tuple(sorted(undeclared)), min(set(undeclared) - set(names))))
    if past is not None:
        raise _past_cap(past, tuple)
    return names, levels


def _drops(n) -> list:
    """drops[i] sends an n-tuple to its facet without position i."""
    return [gather([j for j in range(n) if j != i]) for i in range(n)]


def _level(given, above) -> list:
    """The sorted cells of one dimension: those given and the facets of the
    cells above, listed in one pass per dropped position.  The set dies as
    this returns."""
    level = set(given)
    for drop in _drops(len(above[0])) if above else ():
        level.update(map(drop, above))
    return sorted(level)


def closure(n, levels) -> list:
    """The cells, by dimension, of the complex on n vertices spanned by the
    rank tuples of levels (see rank_simplices), closed one dimension at a
    time from the top."""
    above, cells = [], []
    for given in reversed(levels[1:]):
        above = _level(given, above)
        cells.append(above)
    return [[(v,) for v in range(n)]] + cells[::-1]


def _labels(parent, cells) -> tuple:
    """Each cell's vertex labels, from a parent's (or its partial)."""
    points = parent() if callable(parent) else parent
    return tuple(tuple([points[r] for r in c]) for c in cells)


class SimplicialComplex:
    """Finite abstract simplicial complex, downward closed by construction;
    ranked: by labels in rank order (or a partial) and cells by dimension,
    each level sorted (see closure).  No cell -> id dict outlives the step
    that reads it: has and part search the sorted cells."""

    def __init__(self, vertices, maximal_simplices, ranked=False):
        if not ranked:  # by labels: checked and ranked, then closed
            vertices, levels = rank_simplices(vertices, maximal_simplices)
            maximal_simplices = closure(len(vertices), levels)
        self._names, self.cells = vertices, maximal_simplices
        self.faces = [[]]
        for k in range(1, len(self.cells)):  # one pass per face position
            cells, faces = self.cells[k], [0] * (len(self.cells[k]) * (k + 1))
            if k == 1:  # a vertex's id is its rank
                faces[0::2] = map(itemgetter(1), cells)
                faces[1::2] = map(itemgetter(0), cells)
            else:
                index = dict(zip(self.cells[k - 1], range(len(self.cells[k - 1]))))
                for i, drop in enumerate(_drops(k + 1)):
                    faces[i::k + 1] = map(index.__getitem__, map(drop, cells))
            self.faces.append(faces)

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
    orientable) and irregular per orbit.  Each orbit's members are walked
    once, breadth first from its least member through the generators, each
    in the vertex order (a rank tuple) it was first reached in, which gives
    its sign.  Every element of the least member's stabilizer is a product
    of what the walk's edges do to it (Schreier's lemma), so an edge that
    reaches a member in another order makes the orbit irregular, and in an
    order of the other parity, flipped; walking another order of a member
    reaches no cell its first order does not."""
    def parity(u):  # the sign of the permutation sorting u
        return -1 if sum(starmap(gt, combinations(u, 2))) % 2 else 1
    K, orbits, irregular = gk.complex, [], []
    orbit, sign = [[-1] * len(c) for c in K.cells], [[1] * len(c) for c in K.cells]
    for k, cells in enumerate(K.cells):
        ids, number, signs = dict(zip(cells, range(len(cells)))), orbit[k], sign[k]
        for j in (j for j in range(len(cells)) if number[j] < 0):
            o = number[j] = len(orbits)
            members, flipped, moved = [j], False, False
            queue, reached = [cells[j]], {cells[j]}  # each member's first order
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
                        reached.add(u)
                        queue.append(u)
                    else:
                        moved, flipped = True, flipped or signs[i] != parity(u)
            orbits.append((k, members, not flipped))
            irregular.append(moved)
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


def _refusal(gk: GSimplicialComplex) -> Optional[tuple]:
    """Why a regular gk has no simplicial quotient, or None.  Each orbit's
    representative s (its least member) goes down to the least vertices of
    its vertices' orbits: (s, down, None) for the first that collapses onto
    fewer vertices, (s, down, r) for the first whose down an earlier
    representative r has."""
    K, seen = gk.complex, {}
    rep = [gk.orbits[o][1][0] for o in gk.orbit[0]]  # least vertex of each orbit
    for k, members, _ in gk.orbits:
        s = K.cells[k][members[0]]
        down = tuple(sorted({rep[v] for v in s}))
        if len(down) != len(s):
            return s, down, None
        if down in seen:
            return s, down, seen[down]
        seen[down] = s
    return None


def _delta_complex(gk: GSimplicialComplex, part=frozenset()) -> GradedComplex:
    """The chain complex of |K|/G for a multiplicity-free gk, relative to the
    invariant cells part.  Ordering each simplex's vertices by vertex orbit
    is G-invariant, so |K|/G is a Delta-complex with one cell per orbit
    (Hatcher, Algebraic Topology, 2002, 2.1): the boundary of an orbit is
    the sum over j of (-1)**j times the orbit of its representative's face
    without its j-th vertex in that order.  Bases are orbit numbers."""
    K, orbits, vertex_orbit = gk.complex, gk.orbits, gk.orbit[0]
    basis = [[] for _ in K.cells]
    for o, (k, members, _) in enumerate(orbits):
        if not part or K.cells[k][members[0]] not in part:
            basis[k].append(o)
    row, matrices = {o: i for level in basis for i, o in enumerate(level)}, []
    for k in range(1, len(basis)):
        faces, down, columns = K.faces[k], gk.orbit[k - 1], []
        for o in basis[k]:
            j = orbits[o][1][0]
            at, key = faces[j * (k + 1):(j + 1) * (k + 1)], [
                vertex_orbit[v] for v in K.cells[k][j]]
            columns.append({row[f]: sign for f, sign in zip(
                [down[at[i]] for i in sorted(range(k + 1), key=key.__getitem__)],
                _SIGNS) if f in row})
        matrices.append(RationalMatrix.of_columns(len(basis[k - 1]), columns))
    return GradedComplex.build(basis, matrices)


def quotient(gk: GSimplicialComplex, sub=None) -> tuple:
    """(C, C_rel): the chain complexes of the simplicial quotient K/G and of
    the pair (K/G, sub/G), None without sub.  Raises NotRegular when a
    setwise-fixed simplex moves vertex-wise (before NotASubcomplex for a
    relative part), or after it when a simplex collapses or two orbits land
    on one quotient vertex set (see _refusal)."""
    if not is_regular(gk):
        raise NotRegular("a setwise-fixed simplex is moved vertex-wise")
    part, label = _invariant_part(gk, sub), gk.complex.label
    if (refused := _refusal(gk)) is not None:
        s, down, earlier = refused
        raise NotRegular(
            f"simplex {label(s)!r} collapses onto {label(down)!r} in the quotient"
            if earlier is None else f"orbits of {label(earlier)!r} and "
            f"{label(s)!r} share the quotient vertex set {label(down)!r}")
    return _delta_complex(gk), None if sub is None else _delta_complex(gk, part)


def _multiplicity_free(gk: GSimplicialComplex) -> bool:
    """True when no edge has both ends in one vertex orbit.  Then no two
    faces of a simplex share an orbit, and gk is regular."""
    orbit = gk.orbit[0]  # a vertex's id is its rank
    return all(orbit[u] != orbit[v]
               for edges in gk.complex.cells[1:2] for u, v in edges)


def regularize(gk: GSimplicialComplex, sub=None) -> tuple:
    """(rounds, C, C_rel): the chain complexes of |K|/G and of the pair
    (|K|/G, |sub|/G), None without sub, as quotient() reads them off the
    orbit table of gk, or of its subdivision when gk is not
    multiplicity-free (the subdivision is: its vertices are labelled by
    dimension).  rounds counts the subdivisions a simplicial quotient
    takes: that one, and one more when two orbits share their vertex
    orbits.  A relative part that is not invariant is named in gk's labels
    when gk is regular, as quotient() names it, else in the subdivision's."""
    part, rounds = None if sub is None else gk.complex.part(sub), 0
    if not _multiplicity_free(gk):
        if part is not None and is_regular(gk):
            _invariant_part(gk, part)
        gk, rounds = gk.subdivided(), 1
        if part is not None:
            part = frozenset(c for cells in gk.complex.cells for c in cells
                             if all(gk.complex._lex[v] in part for v in c))
    rel = None if part is None else _delta_complex(gk, _invariant_part(gk, part))
    return rounds + (_refusal(gk) is not None), _delta_complex(gk), rel


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
    rounds, quotient_complex, _ = regularize(gk)
    morse_p, simp_p = zip(*zip_longest(morse, complex_betti(quotient_complex),
                                       fillvalue=0))
    return CompareReport(morse_betti=morse_p, quotient_betti=simp_p,
                         rounds=rounds, equal=morse_p == simp_p)
