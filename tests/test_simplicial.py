"""Subdivision, quotients, and invariant homology of simplicial actions."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from orbimorse import (
    ActionNotSimplicial,
    GSimplicialComplex,
    GroupAction,
    NotASubcomplex,
    NotRegular,
    SimplicialComplex,
    barycentric_subdivide,
    compare,
    generate_group,
    homology,
    invariant_homology,
    is_regular,
    quotient,
    regularize,
)

from conftest import grid_torus


def gcomplex(vertices, maximal, gens):
    """Action given as index permutations of the sorted vertex list."""
    K = SimplicialComplex(vertices, maximal)
    group = generate_group(gens, degree=len(K.vertices))
    act = GroupAction(group, K.vertices, {g: g for g in group.elements})
    return GSimplicialComplex(K, group, act)


def tetra_boundary():
    return SimplicialComplex("abcd", list(combinations("abcd", 3)))


def octahedron():
    tris = [(a, b, c) for a in "Xx" for b in "Yy" for c in "Zz"]
    return gcomplex("XYZxyz", tris, [[3, 4, 2, 0, 1, 5]])


def test_triangle_subdivision_counts():
    K = SimplicialComplex("abc", [("a", "b", "c")])
    assert K.counts() == (3, 3, 1)
    sd = barycentric_subdivide(K)
    assert sd.counts() == (7, 12, 6)
    assert ("a",) in sd.vertices and ("a", "b", "c") in sd.vertices
    assert homology(sd) == homology(K) == (1, 0, 0)


def test_thrice_subdivided_torus_homology():
    t = grid_torus(4)
    gk = gcomplex(t["vertices"], t["maximal"], t["generators"])
    for _ in range(3):
        gk = gk.subdivided()
    assert gk.complex.counts() == (3456, 10368, 6912)
    assert homology(gk.complex) == (1, 2, 1)
    assert invariant_homology(gk) == (1, 0, 1)


def test_subdivision_preserves_homology_randomized():
    rng = random.Random(3)
    verts = ["v%d" % i for i in range(5)]
    for _ in range(10):
        maximal = [rng.sample(verts, rng.randrange(1, 4))
                   for _ in range(rng.randrange(1, 5))]
        K = SimplicialComplex(sorted({v for s in maximal for v in s}), maximal)
        sd = barycentric_subdivide(K)
        got, want = homology(sd), homology(K)
        width = max(len(got), len(want))
        assert got + (0,) * (width - len(got)) \
            == want + (0,) * (width - len(want))


def test_repeated_vertex_rejected():
    with pytest.raises(ActionNotSimplicial, match="repeats"):
        SimplicialComplex("ab", [("a", "a")])


def test_tetrahedron_boundary_and_relative_face():
    K = tetra_boundary()
    assert K.counts() == (4, 6, 4)
    assert K.dim == 2 and K.has(("a", "c")) and not K.has(("a", "b", "c", "d"))
    assert homology(K) == (1, 0, 1)
    face = SimplicialComplex("abc", [("a", "b", "c")])
    assert K.contains(face)
    assert homology(K, face) == (0, 0, 1)
    solid = SimplicialComplex("abcd", [tuple("abcd")])
    with pytest.raises(NotASubcomplex):
        K.chain_complex(solid)


def test_flipped_edge_needs_one_subdivision():
    gk = gcomplex("ab", [("a", "b")], [[1, 0]])
    assert not is_regular(gk)
    with pytest.raises(NotRegular, match="vertex-wise"):
        quotient(gk)
    sd = gk.subdivided()
    assert is_regular(sd)
    _, _, rounds, q = regularize(gk)
    assert rounds == 1
    assert q.complex.counts() == (2, 1)
    assert homology(q.complex) == (1, 0)


def test_octahedron_quotient_needs_one_subdivision():
    gk = octahedron()
    # regular, yet two edge orbits share a quotient vertex set
    assert is_regular(gk)
    with pytest.raises(NotRegular, match="share"):
        quotient(gk)
    _, _, rounds, q = regularize(gk)
    assert rounds == 1
    assert homology(q.complex) == (1, 0, 1)
    assert invariant_homology(gk) == (1, 0, 1)


def test_cycle_rotation_needs_two_subdivisions():
    gk = gcomplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                  [[1, 2, 3, 0]])
    with pytest.raises(NotRegular, match="collapses"):
        quotient(gk)
    _, _, rounds, q = regularize(gk)
    assert rounds == 2
    assert homology(q.complex) == (1, 1)
    assert invariant_homology(gk) == (1, 1)


def test_cycle_reflection_quotients_to_a_path():
    gk = gcomplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                  [[0, 3, 2, 1]])
    assert is_regular(gk)
    _, _, rounds, q = regularize(gk)
    assert rounds == 0
    assert q.complex.counts() == (3, 2)
    assert homology(q.complex) == (1, 0)
    assert invariant_homology(gk) == (1, 0)


def test_relative_quotient_of_a_folded_path():
    gk = gcomplex("abc", [("a", "b"), ("b", "c")], [[2, 1, 0]])
    ends = SimplicialComplex("ac", [("a",), ("c",)])
    assert homology(gk.complex, ends) == (0, 1)
    assert invariant_homology(gk, ends) == (0, 0)
    _, _, rounds, q = regularize(gk, ends)
    assert rounds == 0
    assert q.sub is not None and q.sub.vertices == ("a",)
    assert homology(q.complex, q.sub) == (0, 0)
    assert q.provenance[("a", "b")] == ("a", "b")


def test_non_invariant_relative_part_rejected():
    gk = gcomplex("abc", [("a", "b"), ("b", "c")], [[2, 1, 0]])
    one_end = SimplicialComplex("a", [("a",)])
    with pytest.raises(NotASubcomplex, match="invariant"):
        quotient(gk, one_end)
    with pytest.raises(NotASubcomplex, match="invariant"):
        invariant_homology(gk, one_end)


def test_action_must_send_simplices_to_simplices():
    with pytest.raises(ActionNotSimplicial):
        gcomplex("abc", [("a", "b"), ("b", "c")], [[1, 0, 2]])


def test_compare_against_triangulations(heart):
    sphere = gcomplex("abcd", list(combinations("abcd", 3)), [])
    report = compare(heart, sphere)
    assert report.equal and report.rounds == 0
    assert report.morse_betti == report.quotient_betti == (1, 0, 1)

    circle = gcomplex("abc", [("a", "b"), ("b", "c"), ("a", "c")], [])
    report = compare(heart, circle)
    assert not report.equal
    assert report.quotient_betti == (1, 1, 0)


@st.composite
def symmetric_complexes(draw):
    """A polygon, the cone over it or its suspension, acted on by a cyclic or
    dihedral group (for suspensions also the swap of the poles), with its
    vertices relabelled at random, and an invariant subcomplex or None.

    Suspensions skip the rotation of full order: their quotients need two
    subdivisions, whose dense homology takes seconds."""
    shape = draw(st.sampled_from(["polygon", "cone", "suspension"]))
    n = draw(st.integers(3, 6 if shape == "polygon" else 4))
    top = n - 1 if shape == "suspension" else n
    k = draw(st.sampled_from([d for d in range(1, top + 1) if n % d == 0]))
    rim = [(i, (i + 1) % n) for i in range(n)]
    poles = {"polygon": [], "cone": [n], "suspension": [n, n + 1]}[shape]
    maximal = [(p,) + e for p in poles for e in rim] or rim
    gens = [lambda v: (v + n // k) % n if v < n else v]
    if draw(st.booleans()):
        # a reflection, flipping one rim edge when n is odd
        gens.append(lambda v: -v % n if v < n else v)
    if shape == "suspension" and draw(st.booleans()):
        gens.append(lambda v: v if v < n else 2 * n + 1 - v)
    subs = [None, [(i,) for i in range(0, n, n // k)]]
    subs += {"polygon": [], "cone": [rim], "suspension": [[(n,), (n + 1,)]]}[shape]
    sub = draw(st.sampled_from(subs))

    count = n + len(poles)
    label = draw(st.permutations(range(count)))
    vertices = sorted(label)
    idx = {lab: i for i, lab in enumerate(vertices)}
    perms = [[0] * count for _ in gens]
    for perm, gen in zip(perms, gens):
        for v in range(count):
            perm[idx[label[v]]] = idx[label[gen(v)]]
    gk = gcomplex(vertices, [[label[v] for v in s] for s in maximal], perms)
    if sub is None:
        return gk, None
    return gk, SimplicialComplex({label[v] for s in sub for v in s},
                                 [[label[v] for v in s] for s in sub])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symmetric_complexes())
def test_invariant_homology_equals_quotient_homology(case):
    gk, sub = case
    _, _, _, q = regularize(gk, sub)
    assert invariant_homology(gk) == homology(q.complex)
    if sub is not None:
        assert invariant_homology(gk, sub) == homology(q.complex, q.sub)
