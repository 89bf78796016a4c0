"""Instance families, seeded transforms and the three workloads.

Every instance is built here from its construction, together with the
answer that construction implies (``Case.expect``); nothing is read back from
the program.  The seed changes only what cannot change the answer: ground-set
labels, the order and labels of critical points, flows and vertices, and a
random re-gauge of the unstable-manifold orientations.  Sizes are fixed.

Families
  zp_sphere(p)   S^2 with two polar maxima N, S, and an equatorial ring of p
                 saddles r_k and p minima m_k, under the rotation of order p.
                 Every orbit is orientable.  2p+2 critical points, 4p flows.
  dp_sphere(p)   the same sphere under the orientation-preserving dihedral
                 group D_p (order 2p): rotations plus half-turns about
                 horizontal axes.  A half-turn fixes each saddle and reverses
                 its unstable manifold, so the saddle orbit is discarded.
  polygon(m, k)  the (m*k)-gon under the rotation of order k; its quotient is
                 a circle after 2, 1, 0 subdivision rounds for m = 1, 2, >=3.
  wheel(k)       disc coned over a 3k-gon, relative to its rim, under the
                 rotation of order k.
  bipyramid(p)   suspension of a 3p-gon under the rotation of order p.
  torus(n)       n x n grid torus under negation (x -> -x).
  octahedron()   octahedron under a half-turn; needs one subdivision round.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random
from dataclasses import dataclass

S2 = [1, 0, 1]
CIRCLE = [1, 1]


@dataclass
class Case:
    """One operation of a workload: a CLI command on one instance file."""

    name: str
    command: str                 # validate | homology | compare
    doc: dict                    # the instance, after the seeded transform
    expect: dict                 # what the construction implies (see oracles)
    path: str = ""               # set when the instance file is written

    def argv(self) -> list[str]:
        return [self.command, self.path]


# -- global-quotient families ---------------------------------------------------

def _gq(degree, generators, points, images, signs, flows, flow_images):
    return {
        "ambient_dim": 2, "degree": degree, "generators": generators,
        "crit_points": [{"label": lab, "index": idx} for lab, idx in points],
        "crit_images": images, "crit_signs": signs,
        "flows": [{"label": lab, "src": s, "dst": d, "sign": e}
                  for lab, s, d, e in flows],
        "flow_images": flow_images,
    }


def _ring_sphere(p, gens):
    """Critical points and flows of the two-maxima ring sphere.

    gens lists (ground permutation, point map, point sign map, flow map) with
    maps on labels.  Orientations: N and S carry the sphere's orientation,
    r_k is oriented by increasing angle, so d N = sum r_k, d S = -sum r_k and
    d r_k = m_k - m_(k-1).
    """
    points = [("N", 2), ("S", 2)] + [("r%d" % k, 1) for k in range(p)] + \
             [("m%d" % k, 0) for k in range(p)]
    flows = []
    for k in range(p):
        flows.append(("a%d" % k, "N", "r%d" % k, 1))
        flows.append(("b%d" % k, "S", "r%d" % k, -1))
        flows.append(("c%d" % k, "r%d" % k, "m%d" % k, 1))
        flows.append(("e%d" % k, "r%d" % k, "m%d" % ((k - 1) % p), -1))
    pidx = {lab: i for i, (lab, _) in enumerate(points)}
    fidx = {f[0]: i for i, f in enumerate(flows)}
    images, signs, fimages = [], [], []
    for _, pmap, smap, fmap in gens:
        images.append([pidx[pmap(lab)] for lab, _ in points])
        signs.append([smap(lab) for lab, _ in points])
        fimages.append([fidx[fmap(f[0])] for f in flows])
    return _gq(p, [g for g, *_ in gens], points, images, signs, flows, fimages)


def _shift(lab, p, step):
    return lab[0] + str((int(lab[1:]) + step) % p)


def zp_sphere(p: int) -> dict:
    """Ring sphere under the rotation of order p (p >= 2)."""
    rho = list(range(1, p)) + [0]

    def pmap(lab):
        return lab if lab in ("N", "S") else _shift(lab, p, 1)

    return _ring_sphere(p, [(rho, pmap, lambda lab: 1,
                             lambda f: _shift(f, p, 1))])


def dp_sphere(p: int) -> dict:
    """Ring sphere under D_p (p >= 3): rotation rho and half-turn sigma.

    sigma fixes angle 0, so it sends r_k to r_(-k) with reversed orientation,
    m_k to m_(-k-1), swaps N and S, and maps a_k <-> b_(-k), c_k <-> e_(-k).
    """
    rho = list(range(1, p)) + [0]
    sigma = [(-i) % p for i in range(p)]

    def rho_p(lab):
        return lab if lab in ("N", "S") else _shift(lab, p, 1)

    def sigma_p(lab):
        if lab in ("N", "S"):
            return "S" if lab == "N" else "N"
        k = int(lab[1:])
        return "r%d" % (-k % p) if lab[0] == "r" else "m%d" % ((-k - 1) % p)

    def sigma_f(lab):
        k = -int(lab[1:]) % p
        return {"a": "b", "b": "a", "c": "e", "e": "c"}[lab[0]] + str(k)

    return _ring_sphere(p, [
        (rho, rho_p, lambda lab: 1, lambda f: _shift(f, p, 1)),
        (sigma, sigma_p, lambda lab: -1 if lab[0] == "r" else 1, sigma_f),
    ])


def plant(system: dict, defect: str) -> dict:
    """One planted defect on the flow c0 = r0 -> m0 of a ring sphere.

    flip: its sign is negated.  endpoint: it is re-aimed at m1 while its
    images under the group stay as they were.
    """
    out = copy.deepcopy(system)
    f = next(f for f in out["flows"] if f["label"] == "c0")
    if defect == "flip":
        f["sign"] = -f["sign"]
    elif defect == "endpoint":
        f["dst"] = "m1"
    else:
        raise ValueError(defect)
    return out


def ring_orbits(p: int, dihedral: bool) -> list:
    """(members, index, isotropy order, orientable) of a ring sphere."""
    r = ["r%d" % k for k in range(p)]
    m = ["m%d" % k for k in range(p)]
    if dihedral:
        return [(["N", "S"], 2, p, True), (r, 1, 2, False), (m, 0, 2, True)]
    return [(["N"], 2, p, True), (["S"], 2, p, True),
            (r, 1, 1, True), (m, 0, 1, True)]


def ring_violations(order: int, defect: str) -> dict:
    """Violations the validator must report for a planted defect.

    The orbit of c0 is free (|G| flows), so the pairs (g, f) with g != e and
    f = c0 or g.f = c0 number 2(|G| - 1), each breaking the law the defect
    touches.  d^2 N becomes -2 m0 (flip) or m1 - m0 (endpoint); the
    square-zero check reports its first witness only.
    """
    law = {"flip": "sign_equivariance",
           "endpoint": "endpoint_equivariance"}[defect]
    return {law: 2 * (order - 1), "manifold_d_squared": 1}


# -- simplicial families ---------------------------------------------------------

def _rot(n, step, fixed=0):
    """Rotation of an n-cycle by step, after `fixed` leading fixed labels."""
    return list(range(fixed)) + [fixed + (i + step) % n for i in range(n)]


def polygon(m: int, k: int) -> dict:
    n = m * k
    rim = ["v%03d" % i for i in range(n)]
    return {"vertices": rim,
            "maximal": [[rim[i], rim[(i + 1) % n]] for i in range(n)],
            "generators": [_rot(n, m)]}


def wheel(k: int) -> dict:
    n = 3 * k
    rim = ["v%03d" % i for i in range(n)]
    return {"vertices": ["c"] + rim,
            "maximal": [["c", rim[i], rim[(i + 1) % n]] for i in range(n)],
            "generators": [_rot(n, 3, fixed=1)],
            "subcomplex": {"vertices": rim,
                           "maximal": [[rim[i], rim[(i + 1) % n]]
                                       for i in range(n)]}}


def bipyramid(p: int) -> dict:
    n = 3 * p
    rim = ["v%03d" % i for i in range(n)]
    return {"vertices": ["n", "s"] + rim,
            "maximal": [[pole, rim[i], rim[(i + 1) % n]]
                        for pole in ("n", "s") for i in range(n)],
            "generators": [_rot(n, 3, fixed=2)]}


def torus(n: int) -> dict:
    def v(i, j):
        return "t%02d_%02d" % (i % n, j % n)
    tris = []
    for i in range(n):
        for j in range(n):
            tris.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            tris.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    verts = sorted(v(i, j) for i in range(n) for j in range(n))
    pos = {x: a for a, x in enumerate(verts)}
    neg = [pos[v(-i, -j)] for i in range(n) for j in range(n)]
    return {"vertices": verts, "maximal": tris, "generators": [neg]}


def octahedron() -> dict:
    verts = ["X", "Y", "Z", "x", "y", "z"]
    tris = [[a, b, c] for a in ("x", "X") for b in ("y", "Y") for c in ("z", "Z")]
    return {"vertices": verts, "maximal": tris,
            "generators": [[3, 4, 2, 0, 1, 5]]}


# -- seeded transforms ---------------------------------------------------------------

def _fresh_labels(rng, prefix, count):
    """count distinct labels of varying length, in random order."""
    picks = rng.sample(range(10 * count + 10), count)
    return [prefix + str(x) for x in picks]


def transform_gq(system: dict, rng: random.Random, keep=()):
    """Re-gauge, relabel and reorder a global-quotient payload.

    Returns (payload, label map).  The ground set is conjugated by a random
    permutation, the orientation of each critical point not named in keep is
    flipped with probability 1/2 (tau and the flow signs follow), and points
    and flows get fresh labels in a random order.
    """
    d = system["degree"]
    pts = system["crit_points"]
    flows = system["flows"]
    c, nf = len(pts), len(flows)
    label_pos = {p["label"]: j for j, p in enumerate(pts)}

    pi = list(range(d))
    rng.shuffle(pi)
    gens = []
    for g in system["generators"]:
        h = [0] * d
        for i in range(d):
            h[pi[i]] = pi[g[i]]
        gens.append(h)

    sigma = [1 if p["label"] in keep else rng.choice((1, -1)) for p in pts]
    ppos = list(range(c))
    rng.shuffle(ppos)
    fpos = list(range(nf))
    rng.shuffle(fpos)
    new_pl = _fresh_labels(rng, "p", c)
    new_fl = _fresh_labels(rng, "f", nf)
    lmap = {p["label"]: new_pl[j] for j, p in enumerate(pts)}
    lmap.update({f["label"]: new_fl[j] for j, f in enumerate(flows)})

    new_pts = [None] * c
    for j, p in enumerate(pts):
        q = dict(p)
        q["label"] = lmap[p["label"]]
        new_pts[ppos[j]] = q
    new_flows = [None] * nf
    for j, f in enumerate(flows):
        s, t = label_pos[f["src"]], label_pos[f["dst"]]
        new_flows[fpos[j]] = {"label": lmap[f["label"]], "src": lmap[f["src"]],
                              "dst": lmap[f["dst"]],
                              "sign": sigma[s] * sigma[t] * f["sign"]}
    images, signs, fimages = [], [], []
    for img, sgn, fimg in zip(system["crit_images"], system["crit_signs"],
                              system["flow_images"]):
        a, b, e = [0] * c, [0] * c, [0] * nf
        for j in range(c):
            a[ppos[j]] = ppos[img[j]]
            b[ppos[j]] = sigma[img[j]] * sgn[j] * sigma[j]
        for j in range(nf):
            e[fpos[j]] = fpos[fimg[j]]
        images.append(a)
        signs.append(b)
        fimages.append(e)
    out = dict(system)
    out.update(generators=gens, crit_points=new_pts, crit_images=images,
               crit_signs=signs, flows=new_flows, flow_images=fimages)
    return out, lmap


def transform_simplicial(system: dict, rng: random.Random) -> dict:
    """Relabel and reorder vertices and simplices; generators follow."""
    old = sorted(system["vertices"])
    new = _fresh_labels(rng, "w", len(old))
    lmap = dict(zip(old, new))
    new_sorted = sorted(new)
    npos = {x: i for i, x in enumerate(new_sorted)}

    def simplices(ms):
        out = []
        for s in ms:
            t = [lmap[x] for x in s]
            rng.shuffle(t)
            out.append(t)
        rng.shuffle(out)
        return out

    gens = []
    for g in system.get("generators", []):
        img = {old[i]: old[g[i]] for i in range(len(old))}
        inv = {lmap[x]: lmap[y] for x, y in img.items()}
        gens.append([npos[inv[x]] for x in new_sorted])
    verts = list(new)
    rng.shuffle(verts)
    out = {"vertices": verts, "maximal": simplices(system["maximal"]),
           "generators": gens}
    if system.get("subcomplex") is not None:
        sub = system["subcomplex"]
        sverts = [lmap[x] for x in sub["vertices"]]
        rng.shuffle(sverts)
        out["subcomplex"] = {"vertices": sverts,
                             "maximal": simplices(sub["maximal"])}
    return out


# -- the corpus, with answers derived from its constructions ---------------------

#: Global-quotient corpus instances: (manifold betti, invariant betti, orbits).
#: Orbits are (members, index, isotropy order, orientable), read off the
#: construction in tools/build_corpus.py.
GQ_CORPUS = {
    "sphere_trivial": (S2, S2, [(["n"], 2, 1, True), (["s"], 0, 1, True)]),
    "football_p2": (S2, S2, [(["n"], 2, 2, True), (["s"], 0, 2, True)]),
    "football_p3": (S2, S2, [(["n"], 2, 3, True), (["s"], 0, 3, True)]),
    "football_p5": (S2, S2, [(["n"], 2, 5, True), (["s"], 0, 5, True)]),
    # the involution swaps the humps and reverses the saddle's unstable arc
    "heart": (S2, S2, [(["p", "q"], 2, 1, True), (["r"], 1, 2, False),
                       (["s"], 0, 2, True)]),
    # negation fixes all four points and reverses both saddles
    "torus_z2": ([1, 2, 1], S2, [(["M"], 2, 2, True), (["r1"], 1, 2, False),
                                 (["r2"], 1, 2, False), (["b"], 0, 2, True)]),
    "dented_sphere_z2": (S2, S2, [(["M"], 2, 2, True),
                                  (["r1", "r2"], 1, 1, True),
                                  (["b1", "b2"], 0, 1, True),
                                  (["B"], 0, 2, True)]),
    # d p = 2 q1 + q2 + q3, d q1 = r, d q2 = d q3 = -r
    "wedge_z2": ([0, 1, 0], [0, 0, 0], [(["p"], 2, 2, True),
                                        (["q1"], 1, 2, True),
                                        (["q2", "q3"], 1, 1, True),
                                        (["r"], 0, 2, True)]),
}

_DISC = {"rounds": 0, "betti": [1, 0, 0], "betti_invariant": [1, 0, 0]}

#: Simplicial corpus instances and their expected homology output.  A
#: rotation keeps the disc's relative class; a reflection reverses it, and the
#: quotient pair (half-disc, arc) is acyclic.
SIMPLICIAL_CORPUS = {
    "disc_rot_2": dict(_DISC, betti_rel=[0, 0, 1], betti_invariant_rel=[0, 0, 1]),
    "disc_rot_3": dict(_DISC, betti_rel=[0, 0, 1], betti_invariant_rel=[0, 0, 1]),
    "disc_rot_4": dict(_DISC, betti_rel=[0, 0, 1], betti_invariant_rel=[0, 0, 1]),
    "disc_reflect": dict(_DISC, betti_rel=[0, 0, 0], betti_invariant_rel=[0, 0, 0]),
    "disc_reflect_d1": {"rounds": 0, "betti": [1, 0], "betti_invariant": [1, 0],
                        "betti_rel": [0, 0], "betti_invariant_rel": [0, 0]},
}

#: Comparison corpus instances: the subdivision rounds the triangulation
#: needs.  Every quotient is S^2.  The heart and the dented sphere are compared
#: with the octahedron under a half-turn, which has two triangle orbits on one
#: quotient vertex set and needs one round; bipyramids, the tetrahedron and
#: the 4x4 torus are already regular with a simplicial quotient.
COMPARISON_CORPUS = {
    "compare_sphere_trivial": 0, "compare_football_p2": 0,
    "compare_football_p3": 0, "compare_football_p5": 0,
    "compare_heart": 1, "compare_dented_z2": 1, "compare_torus_z2": 0,
}


def corpus_doc(root: pathlib.Path, name: str) -> dict:
    return json.loads((root / (name + ".json")).read_text(encoding="utf-8"))


# -- workloads ------------------------------------------------------------------------

ZP_SIZES = (2, 4, 8, 16, 32, 48)
DP_SIZES = (3, 6, 12, 24)


def _gq_case(name, command, system, rng, expect, keep=()):
    payload, lmap = transform_gq(system, rng, keep)
    doc = {"kind": "global_quotient", "metadata": {"name": name},
           "system": payload}
    return Case(name, command, doc, _relabel_expect(expect, lmap))


def _relabel_expect(expect, lmap):
    out = dict(expect)
    if "orbits" in out:
        out["orbits"] = [([lmap[m] for m in members], idx, iso, ori)
                         for members, idx, iso, ori in out["orbits"]]
    if "flow" in out:
        out["flow"] = lmap[out["flow"]]
    if "tops" in out:
        out["tops"] = [lmap[x] for x in out["tops"]]
    return out


def _ring_families():
    """(name, system, |G|, orbits, defect) per ring sphere, small to large.

    The defect planted for gq-diagnose alternates along each family, so both
    kinds occur on both groups at small and large sizes.
    """
    fams = [("zp%d" % p, zp_sphere(p), p, ring_orbits(p, False),
             ("flip", "endpoint")[i % 2]) for i, p in enumerate(ZP_SIZES)]
    fams += [("dp%d" % p, dp_sphere(p), 2 * p, ring_orbits(p, True),
              ("endpoint", "flip")[i % 2]) for i, p in enumerate(DP_SIZES)]
    # validation visits |G|^2 * (critical points) cocycle triples
    fams.sort(key=lambda t: t[2] ** 2 * len(t[1]["crit_points"]))
    return fams


def gq_sphere(rng, corpus_root) -> list[Case]:
    """homology on the corpus and the ring spheres, by |G|^2 * (points)."""
    keyed = []
    for name, (bm, bi, orbs) in GQ_CORPUS.items():
        doc = corpus_doc(corpus_root, name)
        order = 1
        for members, _, iso, _ in orbs:
            order = max(order, len(members) * iso)
        crit = sum(len(m) for m, *_ in orbs)
        keyed.append((order * order * crit, _gq_case(
            name, "homology", doc["system"], rng,
            {"betti_manifold": bm, "betti_invariant": bi, "orbits": orbs})))
    for name, system, order, orbs, _ in _ring_families():
        keyed.append((order * order * len(system["crit_points"]), _gq_case(
            name, "homology", system, rng,
            {"betti_manifold": S2, "betti_invariant": S2, "orbits": orbs})))
    keyed.sort(key=lambda t: t[0])
    return [case for _, case in keyed]


def diagnose_case(name, system, order, defect, rng):
    """validate on a ring sphere of group order `order` with a planted defect."""
    expect = {"violations": ring_violations(order, defect), "flow": "c0",
              "tops": ["N", "S"]}
    # A re-aimed flow is checked against tau at its new endpoint m1, so the
    # sign law counts it as broken or not depending on the relative
    # orientation of m0 and m1; keeping the minima unflipped holds the count
    # at its canonical-gauge value.
    keep = [p["label"] for p in system["crit_points"] if p["index"] == 0] \
        if defect == "endpoint" else ()
    return _gq_case("%s_%s" % (name, defect), "validate", plant(system, defect),
                    rng, expect, keep)


def gq_diagnose(rng, corpus_root) -> list[Case]:
    return [diagnose_case(name, system, order, defect, rng)
            for name, system, order, _, defect in _ring_families()]


def _simplicial_case(name, system, rng, expect):
    doc = {"kind": "simplicial", "metadata": {"name": name},
           "system": transform_simplicial(system, rng)}
    return Case(name, "homology", doc, expect)


#: tri-quotient's instances, small to large by a static estimate of their
#: cost: the cube of the size of each complex that gets eliminated (the
#: quotient after its subdivision rounds, and for homology the original
#: complex too).  The first instance gives smallest_ms, the last largest_s.
TRI_ORDER = (
    "disc_reflect_d1", "polygon_1x3", "polygon_1x6", "polygon_2x3",
    "compare_sphere_trivial", "disc_reflect", "compare_football_p3",
    "compare_football_p5", "compare_zp16", "compare_zp4", "compare_zp8",
    "polygon_3x3", "compare_football_p2", "polygon_2x6", "disc_rot_2",
    "polygon_3x6", "disc_rot_3", "wheel_3", "bipyramid_2", "compare_torus_z2",
    "disc_rot_4", "bipyramid_3", "wheel_5", "compare_dented_z2",
    "compare_heart", "octahedron", "torus_4x4",
)


def tri_quotient(rng, corpus_root) -> list[Case]:
    """Simplicial homology and comparisons, in TRI_ORDER."""
    specs = []   # (name, system or comparison payloads, expect)
    for m, rounds in ((1, 2), (2, 1), (3, 0)):
        for k in (3, 6):
            specs.append(("polygon_%dx%d" % (m, k), polygon(m, k),
                          {"rounds": rounds, "betti": CIRCLE,
                           "betti_invariant": CIRCLE}))
    for k in (3, 5):
        specs.append(("wheel_%d" % k, wheel(k),
                      dict(_DISC, betti_rel=[0, 0, 1],
                           betti_invariant_rel=[0, 0, 1])))
    for p in (2, 3):
        specs.append(("bipyramid_%d" % p, bipyramid(p),
                      {"rounds": 0, "betti": S2, "betti_invariant": S2}))
    specs.append(("octahedron", octahedron(),
                  {"rounds": 1, "betti": S2, "betti_invariant": S2}))
    specs.append(("torus_4x4", torus(4),
                  {"rounds": 0, "betti": S2, "betti_invariant": S2}))
    for name, exp in SIMPLICIAL_CORPUS.items():
        specs.append((name, corpus_doc(corpus_root, name)["system"], exp))
    for p in (4, 8, 16):
        specs.append(("compare_zp%d" % p,
                      {"morse": zp_sphere(p), "triangulation": bipyramid(p)},
                      {"rounds": 0}))
    for name, rounds in COMPARISON_CORPUS.items():
        doc = corpus_doc(corpus_root, name)
        specs.append((name, {"morse": doc["morse"],
                             "triangulation": doc["triangulation"]},
                      {"rounds": rounds}))

    cases = {}
    for name, system, expect in specs:
        if "morse" not in system:
            cases[name] = _simplicial_case(name, system, rng, expect)
            continue
        morse, _ = transform_gq(system["morse"], rng)
        doc = {"kind": "comparison", "metadata": {"name": name},
               "morse": morse,
               "triangulation": transform_simplicial(system["triangulation"], rng)}
        cases[name] = Case(name, "compare", doc,
                           dict(expect, betti_morse=S2, betti_quotient=S2))
    return [cases[name] for name in TRI_ORDER]


WORKLOADS = {
    "gq-sphere": gq_sphere,
    "gq-diagnose": gq_diagnose,
    "tri-quotient": tri_quotient,
}


def build(workload: str, seed: int, corpus_root: pathlib.Path) -> list[Case]:
    """The workload's cases for this seed, smallest first."""
    rng = random.Random("%s:%d" % (workload, seed))
    return WORKLOADS[workload](rng, corpus_root)
