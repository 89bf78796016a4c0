"""Shared instance builders used across the test modules."""

from fractions import Fraction

import pytest

from orbimorse.quotient import EquivariantMorseSystem


def make_heart():
    """Two humps swapped by an involution, non-orientable saddle."""
    return EquivariantMorseSystem.from_generator_data(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, Fraction(2)), ("q", 2, Fraction(2)),
                     ("r", 1, Fraction(1)), ("s", 0, Fraction(0))],
        crit_images=[[1, 0, 2, 3]], crit_signs=[[1, 1, -1, 1]],
        flows=[("g1", "p", "r", 1), ("g2", "q", "r", -1),
               ("d1", "r", "s", 1), ("d2", "r", "s", -1)],
        flow_images=[[1, 0, 3, 2]], ambient_dim=2)


def make_torus():
    """Torus under negation; both saddles fixed with reversed orientation."""
    return EquivariantMorseSystem.from_generator_data(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b", 0, None)],
        crit_images=[[0, 1, 2, 3]], crit_signs=[[1, -1, -1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", 1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b", 1), ("w2", "r1", "b", -1),
               ("w3", "r2", "b", 1), ("w4", "r2", "b", -1)],
        flow_images=[[1, 0, 3, 2, 5, 4, 7, 6]], ambient_dim=2)


def make_dented():
    """Sphere with a symmetric dent; every orbit orientable."""
    return EquivariantMorseSystem.from_generator_data(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b1", 0, None), ("b2", 0, None), ("B", 0, None)],
        crit_images=[[0, 2, 1, 4, 3, 5]], crit_signs=[[1, 1, 1, 1, 1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", 1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b1", 1), ("w2", "r1", "B", -1),
               ("w3", "r2", "b2", 1), ("w4", "r2", "B", -1)],
        flow_images=[[2, 3, 0, 1, 6, 7, 4, 5]], ambient_dim=2)


def make_wedge():
    """One fixed and one free middle orbit; broken weights are +-1."""
    return EquivariantMorseSystem.from_generator_data(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, None), ("q1", 1, None), ("q2", 1, None),
                     ("q3", 1, None), ("r", 0, None)],
        crit_images=[[0, 1, 3, 2, 4]], crit_signs=[[1, 1, 1, 1, 1]],
        flows=[("a1", "p", "q1", 1), ("a2", "p", "q1", 1),
               ("b1", "p", "q2", 1), ("b2", "p", "q3", 1),
               ("c1", "q1", "r", 1),
               ("d1", "q2", "r", -1), ("d2", "q3", "r", -1)],
        flow_images=[[0, 1, 3, 2, 4, 6, 5]], ambient_dim=2)


def make_football(p):
    return EquivariantMorseSystem.from_generator_data(
        generators=[tuple(list(range(1, p)) + [0])], degree=p,
        crit_points=[("n", 2, None), ("s", 0, None)],
        crit_images=[[0, 1]], crit_signs=[[1, 1]],
        flows=[], flow_images=[[]], ambient_dim=2)


def make_ring_sphere(p, defect=None):
    """S^2 with maxima N, S and a ring of p saddles r_k and p minima m_k
    under the rotation of order p; every orbit is free or fixed and
    orientable.  defect "flip" negates the sign of c0 = r0 -> m0,
    "endpoint" re-aims it at m1 while its images stay as they were."""
    def shift(lab):
        return lab if lab in ("N", "S") else lab[0] + str((int(lab[1:]) + 1) % p)
    points = [("N", 2, None), ("S", 2, None)]
    points += [("r%d" % k, 1, None) for k in range(p)]
    points += [("m%d" % k, 0, None) for k in range(p)]
    flows = []
    for k in range(p):
        flows += [("a%d" % k, "N", "r%d" % k, 1), ("b%d" % k, "S", "r%d" % k, -1),
                  ("c%d" % k, "r%d" % k, "m%d" % k, 1),
                  ("e%d" % k, "r%d" % k, "m%d" % ((k - 1) % p), -1)]
    pidx = {lab: i for i, (lab, _, _) in enumerate(points)}
    fidx = {f[0]: i for i, f in enumerate(flows)}
    crit_images = [[pidx[shift(lab)] for lab, _, _ in points]]
    flow_images = [[fidx[shift(f[0])] for f in flows]]
    c0 = fidx["c0"]
    if defect == "flip":
        flows[c0] = ("c0", "r0", "m0", -1)
    elif defect == "endpoint":
        flows[c0] = ("c0", "r0", "m1", 1)
    return EquivariantMorseSystem.from_generator_data(
        generators=[tuple(range(1, p)) + (0,)], degree=p,
        crit_points=points, crit_images=crit_images,
        crit_signs=[[1] * len(points)], flows=flows, flow_images=flow_images,
        ambient_dim=2)


def grid_torus(n):
    """Simplicial payload of the n x n grid torus (two triangles per square)
    under the negation (i, j) -> (-i, -j); generators permute the sorted
    vertex list."""
    def v(i, j):
        return "t%d_%d" % (i % n, j % n)
    tris = [t for i in range(n) for j in range(n)
            for t in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                      [v(i, j), v(i, j + 1), v(i + 1, j + 1)])]
    negate = {v(i, j): v(-i, -j) for i in range(n) for j in range(n)}
    verts = sorted(negate)
    pos = {x: a for a, x in enumerate(verts)}
    return {"vertices": verts, "maximal": tris,
            "generators": [[pos[negate[x]] for x in verts]]}


@pytest.fixture
def heart():
    return make_heart()


@pytest.fixture
def torus():
    return make_torus()


@pytest.fixture
def dented():
    return make_dented()


@pytest.fixture
def wedge():
    return make_wedge()
