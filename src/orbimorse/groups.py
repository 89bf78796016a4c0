"""Finite permutation groups and group actions.

Permutations are 0-based image tuples: g maps i to g[i].  Composition is
function composition, (g h)[i] = g[h[i]].  Groups store their full
element table with the identity at index 0; element order is the breadth-first
closure order from the generators with lexicographic tie-break, so every
construction is deterministic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence

from .errors import (
    ActionNotWellDefined,
    ClosureExceedsCap,
    MalformedPermutation,
    UnknownPoint,
)

Perm = tuple[int, ...]

#: Largest group the closure routine will build unless told otherwise.
DEFAULT_CAP = 10080
#: Most cells a simplicial closure may count (see simplicial._cap).
CELL_CAP = 2_000_000


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def gather(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The map seq -> tuple(seq[i] for i in idx), gathering in C.

    operator.itemgetter returns a bare item for one index and refuses none,
    so those two lengths get their own small functions.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i = idx[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def is_perm(p: Sequence[int], degree: int) -> bool:
    """True when p is a 0-based image array of integers of the given degree."""
    return (len(p) == degree and all(type(x) is int for x in p)
            and sorted(p) == list(range(degree)))


def check_perm(p: Sequence[int], degree: int) -> Perm:
    t = tuple(p)
    if not is_perm(t, degree):
        raise MalformedPermutation(
            f"not a 0-based image array of degree {degree}: {list(p)!r}")
    return t


class FiniteGroup:
    """Permutation group of fixed degree with its full element table.

    elements[0] is the identity.  Closure under composition and inverse is
    guaranteed by the generate_group constructor.  Equal, and hashed, by
    degree and element table.
    """

    __slots__ = ("degree", "elements")

    def __init__(self, degree: int, elements: tuple[Perm, ...]):
        self.degree, self.elements = degree, elements

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return self.elements[0]

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return (self.degree, self.elements) == (other.degree, other.elements)

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"FiniteGroup(degree={self.degree!r}, elements={self.elements!r})"


def check_generators(generators: Iterable[Sequence[int]],
                     degree: int | None = None) -> tuple[list[Perm], int]:
    """The generators as checked permutations, and their common degree,
    which is read off the first generator when not given."""
    gens = [tuple(g) for g in generators]
    if degree is None:
        if not gens:
            raise MalformedPermutation("degree required for an empty generator list")
        degree = len(gens[0])
    return [check_perm(g, degree) for g in gens], degree


def generate_group(generators: Iterable[Sequence[int]], *,
                   degree: int | None = None,
                   cap: int = DEFAULT_CAP) -> FiniteGroup:
    """Close a generator list under composition.

    Breadth-first from the identity, each level sorted lexicographically, so
    the element order is reproducible.  In a finite group the semigroup
    closure equals the subgroup closure, so inverses come for free.
    """
    gens, degree = check_generators(generators, degree)
    right_multiply = [gather(g) for g in gens]

    ident = identity_perm(degree)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        step = set()
        for x in frontier:
            for times_g in right_multiply:
                y = times_g(x)
                if y not in seen:
                    step.add(y)
        frontier = sorted(step)
        seen.update(step)
        order.extend(frontier)
        if len(order) > cap:
            raise ClosureExceedsCap(
                f"group exceeds cap of {cap} elements (degree {degree})")
    return FiniteGroup(degree=degree, elements=tuple(order))


def base_points(group: FiniteGroup) -> list[int]:
    """Points whose images tell the elements of G apart, kept greedily when
    they split the elements further (at most log2 |G| of them)."""
    base, told = [], 1
    for b in range(group.degree):
        if told == group.order:
            break
        n = len(set(map(gather(base + [b]), group.elements)))
        if n > told:
            base, told = base + [b], n
    return base


class GroupAction:
    """Action of a FiniteGroup on a finite labeled set.

    Stored as one image array over the point list per group element, taken
    as given.
    """

    def __init__(self, group: FiniteGroup, points: Sequence[Hashable],
                 images: dict[Perm, tuple[int, ...]]):
        self.group = group
        self.points = tuple(points)
        self.index_of = {x: i for i, x in enumerate(self.points)}
        if len(self.index_of) != len(self.points):
            raise ActionNotWellDefined("duplicate points in acted-on set")
        self._images = images

    def image_array(self, g: Perm) -> tuple[int, ...]:
        return self._images[tuple(g)]


def stabilizer(action: GroupAction, x: Hashable) -> FiniteGroup:
    """Subgroup fixing x, in the parent element order."""
    if x not in action.index_of:
        raise UnknownPoint(f"{x!r} is not an acted-on point")
    i = action.index_of[x]
    elems = tuple(g for g in action.group if action._images[g][i] == i)
    return FiniteGroup(degree=action.group.degree, elements=elems)


def orbits(action: GroupAction) -> list[list[Hashable]]:
    """Orbit partition; each orbit sorted, orbits sorted by least member."""
    remaining = set(range(len(action.points)))
    out = []
    while remaining:
        seed = min(remaining)
        orb = {action._images[g][seed] for g in action.group}
        remaining -= orb
        out.append(sorted(action.points[i] for i in orb))
    out.sort(key=lambda o: o[0])
    return out

