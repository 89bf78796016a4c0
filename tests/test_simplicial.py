"""Subdivision, quotients, and invariant homology of simplicial actions."""

import random
import re
from ast import literal_eval
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from orbimorse import (
    ActionNotSimplicial,
    GSimplicialComplex,
    NotASubcomplex,
    NotRegular,
    OrbimorseError,
    SimplicialComplex,
    barycentric_subdivide,
    compare,
    generate_group,
    invariant_homology,
    is_regular,
    quotient,
    regularize,
)
from orbimorse import simplicial
from orbimorse.chaincx import betti
from orbimorse.simplicial import homology

import label_oracle as oracle
from conftest import corpus_tool, grid_torus
from reference_validator import compose


def gcomplex(vertices, maximal, gens):
    """Action given as index permutations of the sorted vertex list."""
    return GSimplicialComplex(SimplicialComplex(vertices, maximal),
                              [(g, g) for g in gens])


def cells(c):
    """A chain complex's cells per dimension."""
    return tuple(map(len, c.basis_labels))


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
    rounds, q, _ = regularize(gk)
    assert rounds == 1
    assert cells(q) == (2, 1)
    assert betti(q) == (1, 0)


def test_octahedron_quotient_needs_one_subdivision():
    gk = octahedron()
    # regular, yet two edge orbits share a quotient vertex set
    assert is_regular(gk)
    with pytest.raises(NotRegular, match="share"):
        quotient(gk)
    rounds, q, _ = regularize(gk)
    assert rounds == 1
    assert betti(q) == (1, 0, 1)
    assert invariant_homology(gk) == (1, 0, 1)


def test_cycle_rotation_needs_two_subdivisions():
    gk = gcomplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                  [[1, 2, 3, 0]])
    with pytest.raises(NotRegular, match="collapses"):
        quotient(gk)
    rounds, q, _ = regularize(gk)
    assert rounds == 2
    assert betti(q) == (1, 1)
    assert invariant_homology(gk) == (1, 1)


def test_cycle_reflection_quotients_to_a_path():
    gk = gcomplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                  [[0, 3, 2, 1]])
    assert is_regular(gk)
    rounds, q, _ = regularize(gk)
    assert rounds == 0
    assert cells(q) == (3, 2)
    assert betti(q) == (1, 0)
    assert invariant_homology(gk) == (1, 0)


def test_relative_quotient_of_a_folded_path():
    gk = gcomplex("abc", [("a", "b"), ("b", "c")], [[2, 1, 0]])
    ends = SimplicialComplex("ac", [("a",), ("c",)])
    assert homology(gk.complex, ends) == (0, 1)
    assert invariant_homology(gk, ends) == (0, 0)
    rounds, q, q_rel = regularize(gk, ends)
    assert rounds == 0
    # the orbit of the ends is left out: the vertex b and the edge remain
    assert (cells(q), cells(q_rel)) == ((2, 1), (1, 1))
    assert betti(q_rel) == (0, 0)


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
def symmetric_actions(draw, bad=False):
    """A polygon, the cone over it or its suspension, acted on by a cyclic or
    dihedral group (for suspensions also the swap of the poles), with its
    vertices relabelled at random, and an invariant subcomplex or None; as
    (vertices, maximal simplices, generators, subcomplex simplices).

    Suspensions skip the rotation of full order, whose quotients need two
    subdivisions.  With bad, the generators are sometimes replaced by a
    transposition of two vertices, alone or with the reflection: often not
    simplicial, or flipping an edge; and the subcomplex may be one vertex
    or one rim edge, often not invariant."""
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
    sub = draw(st.sampled_from(subs + [[(0,)], [(0, 1)]] * bad))

    count = n + len(poles)
    label = draw(st.permutations(range(count)))
    if bad and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2,
                             unique=True))
        gens = [lambda v: b if v == a else a if v == b else v] + gens[1:2]
    vertices = sorted(label)
    idx = {lab: i for i, lab in enumerate(vertices)}
    perms = [[0] * count for _ in gens]
    for perm, gen in zip(perms, gens):
        for v in range(count):
            perm[idx[label[v]]] = idx[label[gen(v)]]
    relabel = lambda simplices: [[label[v] for v in s] for s in simplices]
    return (vertices, relabel(maximal), perms,
            None if sub is None else relabel(sub))


@st.composite
def symmetric_complexes(draw):
    """A G-complex from symmetric_actions() and its subcomplex or None."""
    vertices, maximal, perms, sub = draw(symmetric_actions())
    gk = gcomplex(vertices, maximal, perms)
    if sub is None:
        return gk, None
    return gk, SimplicialComplex({v for s in sub for v in s}, sub)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(symmetric_complexes())
def test_invariant_homology_equals_quotient_homology(case):
    gk, sub = case
    _, q, q_rel = regularize(gk, sub)
    assert invariant_homology(gk) == betti(q)
    if sub is not None:
        assert invariant_homology(gk, sub) == betti(q_rel)


def pipeline(mod, case):
    """What the commands read off a symmetric_actions() case through the
    module mod: regularity, quotient and invariant Betti numbers, absolute
    and relative, rounds, and every error as its class and text.  The
    oracle's regularize builds the simplicial quotient of the cover
    subdivided up to twice; the package reads a Delta-complex of orbits off
    the cover or its one subdivision.  Cells per dimension are compared
    where both are the simplicial quotient: from quotient(), and from
    regularize at 0 rounds."""
    vertices, maximal, perms, sub = case
    K = mod.SimplicialComplex(vertices, maximal)
    if sub is not None:
        sub = mod.SimplicialComplex({v for s in sub for v in s}, sub)
    gk = outcome(mod.GSimplicialComplex, K, [(g, g) for g in perms])
    if not isinstance(gk, mod.GSimplicialComplex):
        return gk

    def read(q):
        """Betti numbers of a quotient and its pair, and its cells."""
        if isinstance(q, oracle.QuotientComplex):  # as the package's complexes
            q = q.complex.chain_complex(), q.sub and q.complex.chain_complex(q.sub)
        return betti(q[0]), q[1] is not None and betti(q[1]), cells(q[0])

    def regularized(sub):
        rounds, *q = mod.regularize(gk, sub)
        absolute, relative, counts = read(q if len(q) == 2 else q[0])
        return rounds, absolute, relative, rounds == 0 and counts

    sd_sub = sub and mod.barycentric_subdivide(sub)
    return [mod.is_regular(gk),
            outcome(lambda: read(mod.quotient(gk, sub))),
            outcome(regularized, None), outcome(regularized, sub),
            outcome(mod.invariant_homology, gk),
            outcome(mod.invariant_homology, gk, sub),
            outcome(lambda: read(mod.quotient(gk.subdivided(), sd_sub)))]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(symmetric_actions(bad=True))
def test_cell_ids_match_the_label_keyed_oracle(case):
    assert pipeline(simplicial, case) == pipeline(oracle, case)


@st.composite
def lens_spaces(draw):
    """The join of two p-gons, p <= 5, under the free rotation whose quotient
    is the lens space L(p, q), and the invariant circle on the first p-gon."""
    p = draw(st.integers(3, 5))
    q = draw(st.sampled_from([q for q in range(1, p) if gcd(p, q) == 1]))
    system = corpus_tool().lens_simplicial(p, q)
    vertices = system["vertices"]
    return (vertices, system["maximal"], system["generators"],
            [[vertices[i], vertices[(i + 1) % p]] for i in range(p)])


def lens_quotient(mod, case):
    """What mod.regularize makes of a lens space, with the circle as its
    relative part: rounds, then the quotient."""
    vertices, maximal, perms, circle = case
    gk = mod.GSimplicialComplex(mod.SimplicialComplex(vertices, maximal),
                                [(g, g) for g in perms])
    return mod.regularize(gk, mod.SimplicialComplex(
        {v for s in circle for v in s}, circle))


# each example costs the oracle's two label-keyed rounds: 0.3 s at p = 3,
# 0.5 s at p = 4
@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(lens_spaces())
def test_lens_spaces_regularize_like_the_two_round_oracle(case):
    # Betti numbers against those every L(p, q) has, absolute and relative
    # to the circle; rounds against the oracle; cells per dimension are the
    # orbits of the join's subdivision: the join of two p-gons has 2p
    # vertices, p^2 + 2p edges, 2p^2 triangles and p^2 tetrahedra, and the
    # rotation is free, so (24, 144, 240, 120) at p = 5
    rounds, q, q_rel = lens_quotient(simplicial, case)
    assert betti(q) == (1, 0, 0, 1)
    assert betti(q_rel) == (0, 0, 1, 1)
    p = len(case[0]) // 2
    assert cells(q) == (4 + 4 * p, 4 + 28 * p, 48 * p, 24 * p)
    rounds_oracle, _ = lens_quotient(oracle, case)
    assert rounds == rounds_oracle == 2


def test_lens_labels_sort_in_rotation_order():
    # two-digit labels stopped sorting in rotation order past p = 100
    for p in (101, 128):
        vertices = corpus_tool().lens_simplicial(p, 1)["vertices"]
        assert sorted(vertices) == vertices


# -- the full G x N scans the orbit scan replaced, kept as oracles ---------------
#
# act maps each element g of G, in generate_group's order, to the map from
# each vertex of the complex to its image (element_action).

def element_arrays(gk, group):
    """Each g in G with its vertex image array, composed from gk's rows along
    the closure: g = x s gets the array of x after the row of s.  On the
    input complex these are the ground permutations themselves."""
    arrays = {group.identity: tuple(range(len(gk.complex.vertices)))}
    for x in group:
        for s, arr in gk.rows:
            arrays.setdefault(compose(x, s), compose(arrays[x], arr))
    return {g: arrays[g] for g in group}


def element_action(gk, arrays):
    points = gk.complex.vertices
    return {g: dict(zip(points, [points[i] for i in arr]))
            for g, arr in arrays.items()}


def full_bad_image(K, group):
    """First (g, s, image) with an image off K, g-major over G x simplices,
    g acting on K's vertex list as it stands."""
    for g in group:
        for s in K.all_simplices():
            img = tuple(sorted(K.vertices[g[K.vertices.index(vtx)]] for vtx in s))
            if len(set(img)) != len(s) or not K.has(img):
                return g, s, img
    return None


def full_image(image, s):
    return tuple(sorted(image[vtx] for vtx in s))


def full_is_regular(gk, act):
    return not any(full_image(image, s) == s
                   and any(image[vtx] != vtx for vtx in s)
                   for image in act.values()
                   for s in gk.complex.all_simplices())


def full_require_invariant_sub(gk, act, sub):
    if sub is None:
        return
    if not gk.complex.contains(sub):
        raise NotASubcomplex("relative part is not a subcomplex")
    for g, image in act.items():
        for s in sub.all_simplices():
            if not sub.has(full_image(image, s)):
                raise NotASubcomplex(
                    f"relative part is not invariant: g={list(g)} moves {s!r} out")


def full_quotient(gk, act, sub):
    """Quotient complex and relative part, orbits by min over G."""
    if not full_is_regular(gk, act):
        raise NotRegular("a setwise-fixed simplex is moved vertex-wise")
    full_require_invariant_sub(gk, act, sub)
    label = {vtx: min(image[vtx] for image in act.values())
             for vtx in gk.complex.vertices}
    seen, maximal = {}, []
    for s in gk.complex.all_simplices():
        down = tuple(sorted({label[vtx] for vtx in s}))
        if len(down) != len(s):
            raise NotRegular(
                f"simplex {s!r} collapses onto {down!r} in the quotient")
        orbit = min(full_image(image, s) for image in act.values())
        if down in seen and seen[down] != orbit:
            raise NotRegular(
                f"orbits of {seen[down]!r} and {orbit!r} share the quotient "
                f"vertex set {down!r}")
        seen[down] = orbit
        maximal.append(down)
    qc = SimplicialComplex(sorted(set(label.values())), maximal)
    qsub = None if sub is None else SimplicialComplex(
        {label[v] for v in sub.vertices},
        [tuple(sorted({label[v] for v in s})) for s in sub.all_simplices()])
    return qc, qsub


def full_invariant_homology(gk, act, sub=None):
    """Orbit sums with one permutation sign per g and simplex."""
    full_require_invariant_sub(gk, act, sub)
    in_sub = set(sub.all_simplices()) if sub is not None else set()
    levels = []
    for k in range(gk.complex.dim + 1):
        seen, level = set(), []
        for s in gk.complex.simplices(k):
            if s in seen or s in in_sub:
                continue
            members, orientable = {}, True
            for image in act.values():
                raw = [image[vtx] for vtx in s]
                inversions = sum(a > b for a, b in combinations(raw, 2))
                sign = -1 if inversions % 2 else 1
                orientable &= members.setdefault(tuple(sorted(raw)), sign) == sign
            seen.update(members)
            level.append((members, orientable))
        levels.append(level)
    return betti(oracle.orbit_sum_complex(levels, lambda s: [
        (s[:i] + s[i + 1:], (-1) ** i) for i in range(len(s))
        if s[:i] + s[i + 1:] not in in_sub]))


def outcome(fn, *args):
    """fn's result, or its exception's class and message."""
    try:
        return fn(*args)
    except OrbimorseError as e:
        return type(e), str(e)


def named(c, name):
    """A chain complex as {cell: {face: coefficient}}, name(k, basis label)
    naming each k-cell."""
    out = {name(0, b): {} for b in c.basis_labels[0]}
    for k in range(1, c.max_degree + 1):
        faces = c.basis_labels[k - 1]
        for b, column in zip(c.basis_labels[k], c.boundary[k - 1].columns):
            out[name(k, b)] = {name(k - 1, faces[i]): v for i, v in column.items()}
    return out


def scanned_quotient(gk, sub):
    """quotient()'s complexes, named as full_quotient names their cells:
    an orbit by the least vertices of its representative's vertex orbits."""
    K = gk.complex
    least = [K.vertices[gk.orbits[o][1][0]] for o in gk.orbit[0]]
    names = [tuple(sorted(least[v] for v in K.cells[k][members[0]]))
             for k, members, _ in gk.orbits]
    return tuple(c and named(c, lambda k, o: names[o]) for c in quotient(gk, sub))


def full_quotient_complexes(gk, act, sub):
    qc, qsub = full_quotient(gk, act, sub)
    name = lambda k, j: qc.label(qc.cells[k][j])
    return (named(qc.chain_complex(), name),
            qsub and named(qc.chain_complex(qsub), name))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(symmetric_actions(bad=True))
def test_orbit_scan_matches_full_scans(case):
    vertices, maximal, perms, sub_simplices = case
    K = SimplicialComplex(vertices, maximal)
    group = generate_group(perms, degree=len(K.vertices))
    bad = full_bad_image(K, group)
    if bad is not None:
        with pytest.raises(ActionNotSimplicial) as err:
            gcomplex(vertices, maximal, perms)
        g, s, img = (literal_eval(x) for x in re.fullmatch(
            r"g=(\[.*\]) sends simplex (\(.*\)) to (\(.*\))", str(err.value)).groups())
        assert K.has(s) and not K.has(img) and g in perms
        assert img == tuple(sorted(K.vertices[g[K.vertices.index(vtx)]]
                                   for vtx in s))
        return
    gk = gcomplex(vertices, maximal, perms)
    sub = None if sub_simplices is None else SimplicialComplex(
        {v for s in sub_simplices for v in s}, sub_simplices)
    arrays = element_arrays(gk, group)
    assert arrays == {g: g for g in group}
    act = element_action(gk, arrays)
    matches_full_scans(gk, act, sub)
    # each subdivision's rows, lifted from the last, compose to the action
    # of every g on the simplices of the complex before it
    for _ in range(2):
        sd = gk.subdivided()
        sd_act = element_action(sd, element_arrays(sd, group))
        assert all(sd_act[g][v] == full_image(image, v)
                   for g, image in act.items() for v in sd.complex.vertices)
        sub = None if sub is None else barycentric_subdivide(sub)
        matches_full_scans(sd, sd_act, sub)
        gk, act = sd, sd_act


def matches_full_scans(gk, act, sub):
    """The orbit table partitions the simplices into their G-orbits, and
    what is read from it agrees with the full scans."""
    simplices = [gk.complex.simplices(k) for k in range(gk.complex.dim + 1)]
    rows = [[simplices[k][m] for m in members] for k, members, _ in gk.orbits]
    assert sorted(m for members in rows for m in members) \
        == sorted(gk.complex.all_simplices())
    assert all(set(members) == {full_image(image, members[0])
                                for image in act.values()} for members in rows)
    assert is_regular(gk) == full_is_regular(gk, act)
    assert outcome(scanned_quotient, gk, sub) \
        == outcome(full_quotient_complexes, gk, act, sub)
    assert invariant_homology(gk) == full_invariant_homology(gk, act)
    if sub is not None:
        assert outcome(invariant_homology, gk, sub) \
            == outcome(full_invariant_homology, gk, act, sub)


def test_witnesses_name_g_the_simplex_and_its_image():
    with pytest.raises(ActionNotSimplicial) as err:
        gcomplex("abc", [("a", "b"), ("b", "c")], [[1, 0, 2]])
    assert str(err.value) == "g=[1, 0, 2] sends simplex ('b', 'c') to ('a', 'c')"
    gk = gcomplex("abc", [("a", "b"), ("b", "c")], [[2, 1, 0]])
    one_end = SimplicialComplex("a", [("a",)])
    for fn in (quotient, invariant_homology):
        with pytest.raises(NotASubcomplex) as err:
            fn(gk, one_end)
        assert str(err.value) == \
            "relative part is not invariant: g=[2, 1, 0] moves ('a',) out"
    # both generators move a; the witness is the least, as in G's order
    gk = gcomplex("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                  [[2, 1, 0, 3], [1, 2, 3, 0]])
    with pytest.raises(NotASubcomplex) as err:
        invariant_homology(gk, one_end)
    assert str(err.value) == \
        "relative part is not invariant: g=[1, 2, 3, 0] moves ('a',) out"


def test_irregularity_is_reported_before_a_bad_relative_part():
    gk = gcomplex("ab", [("a", "b")], [[1, 0]])
    with pytest.raises(NotRegular, match="vertex-wise"):
        quotient(gk, SimplicialComplex("a", [("a",)]))


def bitmask_closure(maximal):
    simplices = set()
    for s in maximal:
        t = tuple(sorted(set(s)))
        if len(t) != len(s):
            raise ActionNotSimplicial(f"simplex {s!r} repeats a vertex")
        for mask in range(1, 1 << len(t)):
            simplices.add(tuple(t[i] for i in range(len(t)) if mask >> i & 1))
    return simplices


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True),
                max_size=8), st.data())
def test_closure_matches_bitmask_reference(simplices, data):
    """Faces listed before their cofaces, repeated simplices, and sometimes
    a simplex that repeats a vertex."""
    faces = [s[:data.draw(st.integers(1, len(s)))] for s in simplices]
    ordered = faces + simplices + simplices[:2]
    if simplices and data.draw(st.integers(0, 3)) == 0:
        ordered.append(simplices[-1] + simplices[-1][:1])
    for given_ in (ordered, data.draw(st.permutations(ordered))):
        assert outcome(label_closure, given_) \
            == outcome(bitmask_closure, given_)


def label_closure(maximal):
    """Every simplex of the complex the label constructor closes: ranked
    (rank_simplices), then closed one dimension at a time (closure)."""
    K = SimplicialComplex({v for s in maximal for v in s}, maximal)
    return set(K.all_simplices())
