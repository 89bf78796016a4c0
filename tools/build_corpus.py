"""Regenerate the packaged instance corpus.

Every instance is constructed here, checked against its expected results,
and written in canonical form to src/orbimorse/corpus/.  Run from the
repository root:

    python3 tools/build_corpus.py
"""

import json
import pathlib
import sys

from orbimorse import cli

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbimorse" / "corpus"


def crit(label, index, value=None):
    d = {"label": label, "index": index}
    if value is not None:
        d["value"] = value
    return d


def flow(label, src, dst, sign):
    return {"label": label, "src": src, "dst": dst, "sign": sign}


def ipoint(label, index, iso, orientable=True):
    return {"label": label, "index": index, "iso_order": iso,
            "orientable": orientable}


def iflow(label, src, dst, iso, sign):
    return {"label": label, "src": src, "dst": dst, "iso_order": iso,
            "sign": sign}


def gq_doc(name, desc, expected, **system):
    return {"kind": "global_quotient",
            "metadata": {"name": name, "description": desc,
                         "expected": expected},
            "system": system}


def heart_system():
    return dict(
        ambient_dim=2, degree=2, generators=[[1, 0]],
        crit_points=[crit("p", 2, "2"), crit("q", 2, "2"),
                     crit("r", 1, "1"), crit("s", 0, "0")],
        crit_images=[[1, 0, 2, 3]], crit_signs=[[1, 1, -1, 1]],
        flows=[flow("g1", "p", "r", 1), flow("g2", "q", "r", -1),
               flow("d1", "r", "s", 1), flow("d2", "r", "s", -1)],
        flow_images=[[1, 0, 3, 2]])


def dented_system():
    return dict(
        ambient_dim=2, degree=2, generators=[[1, 0]],
        crit_points=[crit("M", 2), crit("r1", 1), crit("r2", 1),
                     crit("b1", 0), crit("b2", 0), crit("B", 0)],
        crit_images=[[0, 2, 1, 4, 3, 5]], crit_signs=[[1, 1, 1, 1, 1, 1]],
        flows=[flow("u1", "M", "r1", 1), flow("u2", "M", "r1", -1),
               flow("u3", "M", "r2", 1), flow("u4", "M", "r2", -1),
               flow("w1", "r1", "b1", 1), flow("w2", "r1", "B", -1),
               flow("w3", "r2", "b2", 1), flow("w4", "r2", "B", -1)],
        flow_images=[[2, 3, 0, 1, 6, 7, 4, 5]])


def torus_system():
    return dict(
        ambient_dim=2, degree=2, generators=[[1, 0]],
        crit_points=[crit("M", 2), crit("r1", 1), crit("r2", 1),
                     crit("b", 0)],
        crit_images=[[0, 1, 2, 3]], crit_signs=[[1, -1, -1, 1]],
        flows=[flow("u1", "M", "r1", 1), flow("u2", "M", "r1", -1),
               flow("u3", "M", "r2", 1), flow("u4", "M", "r2", -1),
               flow("w1", "r1", "b", 1), flow("w2", "r1", "b", -1),
               flow("w3", "r2", "b", 1), flow("w4", "r2", "b", -1)],
        flow_images=[[1, 0, 3, 2, 5, 4, 7, 6]])


def football_system(p):
    return dict(
        ambient_dim=2, degree=p, generators=[list(range(1, p)) + [0]],
        crit_points=[crit("n", 2), crit("s", 0)],
        crit_images=[[0, 1]], crit_signs=[[1, 1]],
        flows=[], flow_images=[[]])


def sphere_trivial_system():
    return dict(
        ambient_dim=2, degree=1, generators=[],
        crit_points=[crit("n", 2), crit("s", 0)],
        crit_images=[], crit_signs=[], flows=[], flow_images=[])


def wedge_system():
    return dict(
        ambient_dim=2, degree=2, generators=[[1, 0]],
        crit_points=[crit("p", 2), crit("q1", 1), crit("q2", 1),
                     crit("q3", 1), crit("r", 0)],
        crit_images=[[0, 1, 3, 2, 4]], crit_signs=[[1, 1, 1, 1, 1]],
        flows=[flow("a1", "p", "q1", 1), flow("a2", "p", "q1", 1),
               flow("b1", "p", "q2", 1), flow("b2", "p", "q3", 1),
               flow("c1", "q1", "r", 1),
               flow("d1", "q2", "r", -1), flow("d2", "q3", "r", -1)],
        flow_images=[[0, 1, 3, 2, 4, 6, 5]])


def wheel_simplicial(k):
    """Wheel over a 3k-gon with the order k rotation; rim as subcomplex."""
    n = 3 * k
    rim = ["v%02d" % i for i in range(n)]
    return {
        "vertices": ["c"] + rim,
        "maximal": [["c", rim[i], rim[(i + 1) % n]] for i in range(n)],
        "generators": [[0] + [1 + ((i + 3) % n) for i in range(n)]],
        "subcomplex": {
            "vertices": rim,
            "maximal": [[rim[i], rim[(i + 1) % n]] for i in range(n)],
        },
    }


def octahedron_simplicial():
    verts = ["X", "Y", "Z", "x", "y", "z"]
    tris = [[a, b, c] for a in ("x", "X") for b in ("y", "Y")
            for c in ("z", "Z")]
    # half turn about the z axis on the sorted vertex list X Y Z x y z
    return {"vertices": verts, "maximal": tris,
            "generators": [[3, 4, 2, 0, 1, 5]]}


def torus_grid_simplicial():
    def v(i, j):
        return "%d%d" % (i % 4, j % 4)
    tris = []
    for i in range(4):
        for j in range(4):
            tris.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            tris.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    verts = [v(i, j) for i in range(4) for j in range(4)]
    neg = [4 * ((4 - i) % 4) + (4 - j) % 4 for i in range(4) for j in range(4)]
    return {"vertices": verts, "maximal": tris, "generators": [neg]}


def bipyramid_simplicial(p):
    n = 3 * p
    rim = ["v%02d" % i for i in range(n)]
    tris = [["n", rim[i], rim[(i + 1) % n]] for i in range(n)] + \
           [["s", rim[i], rim[(i + 1) % n]] for i in range(n)]
    return {"vertices": ["n", "s"] + rim, "maximal": tris,
            "generators": [[0, 1] + [2 + ((i + 3) % n) for i in range(n)]]}


def tetrahedron_simplicial():
    return {"vertices": ["a", "b", "c", "d"],
            "maximal": [["a", "b", "c"], ["a", "b", "d"],
                        ["a", "c", "d"], ["b", "c", "d"]],
            "generators": []}


def lens_simplicial(p, q):
    """The join of two p-gons, S^3, under (a_i, b_j) -> (a_i+1, b_j+q): a
    free action whose quotient is the lens space L(p, q)."""
    a, b = ["a%02d" % i for i in range(p)], ["b%02d" % j for j in range(p)]
    return {"vertices": a + b,
            "maximal": [[a[i], a[(i + 1) % p], b[j], b[(j + 1) % p]]
                        for i in range(p) for j in range(p)],
            "generators": [[(i + 1) % p for i in range(p)]
                           + [p + (j + q) % p for j in range(p)]]}


def instances():
    docs = {}

    docs["heart"] = gq_doc(
        "heart",
        "two humps swapped by an involution; the saddle orbit is "
        "non-orientable and drops out of the quotient complex",
        {"valid": True, "betti_manifold": [1, 0, 1],
         "betti_invariant": [1, 0, 1], "orientable_orbits": 2,
         "discarded": 1},
        **heart_system())

    docs["heart_naive"] = {
        "kind": "intrinsic",
        "metadata": {
            "name": "heart_naive",
            "description": "every heart orbit kept as a generator with no "
                           "flows; the spurious middle betti number shows why "
                           "non-orientable orbits must be discarded",
            "expected": {"dsq_ok": True, "betti_plus": [1, 1, 1]}},
        "system": {"ambient_dim": 2,
                   "points": [ipoint("p", 2, 1), ipoint("r", 1, 2),
                              ipoint("s", 0, 2)],
                   "flows": []}}

    for p in (2, 3, 5):
        docs["football_p%d" % p] = gq_doc(
            "football_p%d" % p,
            "sphere with two fixed poles under a rotation of order %d" % p,
            {"valid": True, "betti_manifold": [1, 0, 1],
             "betti_invariant": [1, 0, 1], "orientable_orbits": 2,
             "discarded": 0},
            **football_system(p))

    docs["sphere_trivial"] = gq_doc(
        "sphere_trivial",
        "height function on the sphere with the trivial group",
        {"valid": True, "betti_manifold": [1, 0, 1],
         "betti_invariant": [1, 0, 1], "orientable_orbits": 2,
         "discarded": 0},
        **sphere_trivial_system())

    docs["torus_z2"] = gq_doc(
        "torus_z2",
        "standard torus Morse data with the negation involution; both "
        "saddles are fixed with reversed orientation and are discarded",
        {"valid": True, "betti_manifold": [1, 2, 1],
         "betti_invariant": [1, 0, 1], "orientable_orbits": 2,
         "discarded": 2},
        **torus_system())

    docs["dented_sphere_z2"] = gq_doc(
        "dented_sphere_z2",
        "sphere with a symmetric dent: free saddle and minimum pairs plus "
        "fixed extrema, all orbits orientable",
        {"valid": True, "betti_manifold": [1, 0, 1],
         "betti_invariant": [1, 0, 1], "orientable_orbits": 4,
         "discarded": 0},
        **dented_system())

    docs["wedge_z2"] = gq_doc(
        "wedge_z2",
        "abstract system with one fixed and one free middle orbit whose "
        "broken flow weights are nonzero and cancel",
        {"valid": True, "betti_manifold": [0, 1, 0],
         "betti_invariant": [0, 0, 0], "orientable_orbits": 4,
         "discarded": 0},
        **wedge_system())

    docs["dsq_fail"] = {
        "kind": "intrinsic",
        "metadata": {
            "name": "dsq_fail",
            "description": "three points chained by two positive flows; the "
                           "boundary does not square to zero",
            "expected": {"dsq_ok": False}},
        "system": {"ambient_dim": 2,
                   "points": [ipoint("p", 2, 1), ipoint("q", 1, 1),
                              ipoint("r", 0, 1)],
                   "flows": [iflow("f1", "p", "q", 1, 1),
                             iflow("f2", "q", "r", 1, 1)]}}

    for k in (2, 3, 4):
        docs["disc_rot_%d" % k] = {
            "kind": "simplicial",
            "metadata": {
                "name": "disc_rot_%d" % k,
                "description": "disc relative to its rim under a rotation "
                               "of order %d; the relative class survives" % k,
                "expected": {"regular": True, "rounds": 0,
                             "betti": [1, 0, 0], "betti_rel": [0, 0, 1],
                             "betti_invariant": [1, 0, 0],
                             "betti_invariant_rel": [0, 0, 1]}},
            "system": wheel_simplicial(k)}

    rim4 = ["v%02d" % i for i in range(4)]
    reflect = {
        "vertices": ["c"] + rim4,
        "maximal": [["c", rim4[i], rim4[(i + 1) % 4]] for i in range(4)],
        # swap v01 and v03 on the sorted vertex list c v00 v01 v02 v03
        "generators": [[0, 1, 4, 3, 2]],
        "subcomplex": {
            "vertices": rim4,
            "maximal": [[rim4[i], rim4[(i + 1) % 4]] for i in range(4)],
        },
    }
    docs["disc_reflect"] = {
        "kind": "simplicial",
        "metadata": {
            "name": "disc_reflect",
            "description": "disc relative to its rim under a reflection; "
                           "the relative class dies",
            "expected": {"regular": True, "rounds": 0,
                         "betti": [1, 0, 0], "betti_rel": [0, 0, 0],
                         "betti_invariant": [1, 0, 0],
                         "betti_invariant_rel": [0, 0, 0]}},
        "system": reflect}

    docs["disc_reflect_d1"] = {
        "kind": "simplicial",
        "metadata": {
            "name": "disc_reflect_d1",
            "description": "interval relative to its endpoints under the "
                           "end swap",
            "expected": {"regular": True, "rounds": 0,
                         "betti": [1, 0], "betti_rel": [0, 0],
                         "betti_invariant": [1, 0],
                         "betti_invariant_rel": [0, 0]}},
        "system": {
            "vertices": ["a", "b", "c"],
            "maximal": [["a", "b"], ["b", "c"]],
            "generators": [[2, 1, 0]],
            "subcomplex": {"vertices": ["a", "c"],
                           "maximal": [["a"], ["c"]]}}}

    for p, q in ((5, 1), (5, 2)):
        docs["lens_%d_%d" % (p, q)] = {
            "kind": "simplicial",
            "metadata": {
                "name": "lens_%d_%d" % (p, q),
                "description": "join of two %d-gons, S^3, under a free "
                               "rotation; the quotient is the lens space "
                               "L(%d, %d)" % (p, p, q),
                "expected": {"regular": True, "rounds": 2,
                             "betti": [1, 0, 0, 1],
                             "betti_invariant": [1, 0, 0, 1]}},
            "system": lens_simplicial(p, q)}

    def cmp_doc(name, desc, morse, tri, rounds):
        return {"kind": "comparison",
                "metadata": {"name": name, "description": desc,
                             "expected": {"equal": True, "rounds": rounds,
                                          "betti": [1, 0, 1]}},
                "morse": morse, "triangulation": tri}

    docs["compare_heart"] = cmp_doc(
        "compare_heart",
        "heart quotient against the octahedron under the half turn",
        heart_system(), octahedron_simplicial(), rounds=1)
    docs["compare_dented_z2"] = cmp_doc(
        "compare_dented_z2",
        "dented sphere quotient against the octahedron under the half turn",
        dented_system(), octahedron_simplicial(), rounds=1)
    for p in (2, 3, 5):
        docs["compare_football_p%d" % p] = cmp_doc(
            "compare_football_p%d" % p,
            "football quotient against the bipyramid over a %d-gon" % (3 * p),
            football_system(p), bipyramid_simplicial(p), rounds=0)
    docs["compare_sphere_trivial"] = cmp_doc(
        "compare_sphere_trivial",
        "trivial quotient against the tetrahedron",
        sphere_trivial_system(), tetrahedron_simplicial(), rounds=0)
    docs["compare_torus_z2"] = cmp_doc(
        "compare_torus_z2",
        "torus negation quotient against a 4x4 grid torus",
        torus_system(), torus_grid_simplicial(), rounds=0)

    return docs


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    failures = []
    for name, doc in sorted(instances().items()):
        inst = cli.instance_from_dict(doc, ctx=name)
        fails = cli.run_expectations(inst)
        if fails:
            failures.append((name, fails))
            print(f"{name}: FAIL {fails}")
            continue
        text = cli.instance_to_text(inst)
        assert json.loads(text) == {"kind": doc["kind"],
                                    "metadata": doc["metadata"],
                                    **inst.body}
        (OUT / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: ok")
    if failures:
        return 1
    print(f"wrote {len(instances())} instances to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
