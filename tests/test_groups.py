"""Group closure, actions, orbits, stabilizers, and the counting identity."""

import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from orbimorse.errors import (
    ClosureExceedsCap,
    MalformedPermutation,
    UnknownPoint,
)
from orbimorse.groups import (
    FiniteGroup,
    base_points,
    generate_group,
    identity_perm,
    orbits,
    stabilizer,
)

from reference_validator import (compose, generating_set, image,
                                 natural_action)


def averaged(act, weight):
    """Burnside's side of a weighted orbit count: the sum of weight(x)
    |Stab(x)| over the points, over |G|."""
    return Fraction(sum(weight[x] * stabilizer(act, x).order
                        for x in act.points), act.group.order)


def verify_group(group):
    """Exhaustive closure, inverse and identity check."""
    elems = set(group.elements)
    assert len(elems) == len(group.elements), "duplicate elements"
    assert group.elements[0] == identity_perm(group.degree)
    for g in group.elements:
        assert sorted(g) == list(range(group.degree))
        products = {compose(g, h) for h in group.elements}
        assert products <= elems, f"a product of {g} missing"
        assert group.identity in products, f"inverse of {g} missing"


def test_symmetric_group_closure_matches_itertools():
    g = generate_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], degree=5)
    assert g.order == 120
    assert set(g.elements) == set(permutations(range(5)))
    verify_group(g)


def test_identity_is_first_element():
    g = generate_group([(1, 2, 0)], degree=3)
    assert g.elements[0] == identity_perm(3)
    assert g.order == 3


def test_trivial_group_from_no_generators():
    g = generate_group([], degree=4)
    assert g.order == 1
    assert g.identity == (0, 1, 2, 3)


def test_closure_cap_enforced():
    with pytest.raises(ClosureExceedsCap):
        generate_group([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], degree=5, cap=100)


@pytest.mark.parametrize("bad", [(0, 0, 1), (0, 3, 1), (0,) * 0])
def test_malformed_permutations_rejected(bad):
    with pytest.raises(MalformedPermutation):
        generate_group([bad], degree=3)


def test_compose_and_invert_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = tuple(rng.sample(range(n), n))
        h = tuple(rng.sample(range(n), n))
        inverse = g  # the power of g before the identity
        while compose(inverse, g) != identity_perm(n):
            inverse = compose(inverse, g)
        assert compose(g, inverse) == identity_perm(n)
        # composition acts right-to-left
        x = rng.randrange(n)
        assert compose(g, h)[x] == g[h[x]]


def test_natural_action_orbits_and_stabilizers():
    g = generate_group([(1, 0, 2, 3), (0, 1, 3, 2)], degree=4)
    act = natural_action(g)
    assert orbits(act) == [[0, 1], [2, 3]]
    st = stabilizer(act, 0)
    assert st.order == 2
    with pytest.raises(UnknownPoint):
        stabilizer(act, 99)


def test_orbit_stabilizer_theorem_randomized():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(2, 7)
        gens = [tuple(rng.sample(range(n), n))
                for _ in range(rng.randrange(1, 3))]
        g = generate_group(gens, degree=n, cap=5040)
        act = natural_action(g)
        for orb in orbits(act):
            assert len(orb) * stabilizer(act, orb[0]).order == g.order


def test_stabilizers_along_an_orbit_are_conjugate():
    g = generate_group([(1, 2, 0, 3), (0, 1, 3, 2)], degree=4)
    act = natural_action(g)
    orb = next(o for o in orbits(act) if len(o) > 1)
    x, y = orb[0], orb[1]
    mover = next(e for e in g if image(act, e, x) == y)
    inverse = next(h for h in g if compose(mover, h) == g.identity)
    conj = {compose(compose(mover, e), inverse)
            for e in stabilizer(act, x)}
    assert conj == set(stabilizer(act, y).elements)


def test_burnside_identity_small_example():
    # rotation of a square: orbits of vertex pairs under the 4 rotations
    g = generate_group([(1, 2, 3, 0)], degree=4)
    act = natural_action(g)
    assert averaged(act, {i: Fraction(1) for i in range(4)}) == 1 == len(orbits(act))


def test_burnside_identity_randomized():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(2, 7)
        gens = [tuple(rng.sample(range(n), n))
                for _ in range(rng.randrange(1, 3))]
        g = generate_group(gens, degree=n, cap=5040)
        act = natural_action(g)
        weight = {}
        for orb in orbits(act):
            w = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
            for x in orb:
                weight[x] = w
        total = averaged(act, weight)
        by_hand = sum(weight[orb[0]] for orb in orbits(act))
        assert total == by_hand


def _cycle(n):
    return tuple(range(1, n)) + (0,)


def _stabilizer_of_s5():
    s5 = generate_group([(1, 0, 2, 3, 4), _cycle(5)], degree=5)
    return stabilizer(natural_action(s5), 4)


GROUPS = pytest.mark.parametrize("group", [
    generate_group([_cycle(48)], degree=48),
    generate_group([_cycle(24), tuple((-i) % 24 for i in range(24))],
                   degree=24),
    generate_group([(1, 0, 2, 3, 4, 5, 6), _cycle(7)], degree=7),
    _stabilizer_of_s5(),
], ids=["Z48", "D24", "S7", "stabilizer"])


@GROUPS
def test_generating_set_generates_with_few_elements(group):
    gens = generating_set(group)
    assert set(gens) <= set(group.elements)
    closed = generate_group(gens, degree=group.degree, cap=group.order)
    assert set(closed.elements) == set(group.elements)
    assert len(gens) <= math.log2(group.order)


def test_generating_set_of_trivial_group_is_empty():
    assert generating_set(generate_group([], degree=3)) == ()


@GROUPS
def test_base_points_tell_the_elements_apart(group):
    base = base_points(group)
    assert len({tuple(g[b] for b in base) for g in group}) == group.order
    assert len(base) <= math.log2(group.order)


def test_base_points_skip_points_every_element_fixes():
    assert base_points(generate_group([(0, 2, 1, 4, 3)], degree=5)) == [1]
    assert base_points(generate_group([], degree=3)) == []


def test_groups_are_equal_by_degree_and_elements():
    g = generate_group([(1, 2, 0)], degree=3)
    twin = FiniteGroup(degree=3, elements=g.elements)
    assert g == twin and hash(g) == hash(twin)
    assert repr(g) == repr(twin) == (
        "FiniteGroup(degree=3, elements=((0, 1, 2), (1, 2, 0), (2, 0, 1)))")
    assert list(g) == list(g.elements)
    assert g != FiniteGroup(degree=4, elements=g.elements)
    assert g != generate_group([(1, 0, 2)], degree=3)
