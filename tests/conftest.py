"""Shared instance builders used across the test modules."""

import functools
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from orbimorse import cli
from orbimorse.quotient import EquivariantMorseSystem


def build_global(payload):
    """cli.build_global of a global_quotient payload, read first as the
    commands read it; likewise the two below."""
    return cli.build_global(cli.read_global(payload))


def build_intrinsic(payload):
    return cli.build_intrinsic(cli.read_intrinsic(payload))


def build_simplicial(payload):
    return cli.build_simplicial(cli.read_simplicial(payload))


def columns(crit_points, flows, widths=(3, 4), **rest) -> dict:
    """System arguments from point and flow rows: crit_points and flows
    become the point and flow columns a system keeps, a list per field
    (widths gives each row's fields, for an empty list), with each flow's
    endpoints, its fields 1 and 2, as point numbers; an unknown endpoint
    stays its label, as the readers leave it.  The rest pass through."""
    number = {p[0]: i for i, p in enumerate(crit_points)}
    flows = [(f[0], number.get(f[1], f[1]), number.get(f[2], f[2]), *f[3:])
             for f in flows]
    points, flows = (tuple(map(list, zip(*rows)))
                     or tuple([] for _ in range(width))
                     for rows, width in zip((crit_points, flows), widths))
    return dict(rest, points=points, flows=flows)


def make_heart():
    """Two humps swapped by an involution, non-orientable saddle."""
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, Fraction(2)), ("q", 2, Fraction(2)),
                     ("r", 1, Fraction(1)), ("s", 0, Fraction(0))],
        crit_images=[[1, 0, 2, 3]], crit_signs=[[1, 1, -1, 1]],
        flows=[("g1", "p", "r", 1), ("g2", "q", "r", -1),
               ("d1", "r", "s", 1), ("d2", "r", "s", -1)],
        flow_images=[[1, 0, 3, 2]], ambient_dim=2))


def make_torus():
    """Torus under negation; both saddles fixed with reversed orientation."""
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b", 0, None)],
        crit_images=[[0, 1, 2, 3]], crit_signs=[[1, -1, -1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", 1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b", 1), ("w2", "r1", "b", -1),
               ("w3", "r2", "b", 1), ("w4", "r2", "b", -1)],
        flow_images=[[1, 0, 3, 2, 5, 4, 7, 6]], ambient_dim=2))


def make_dented():
    """Sphere with a symmetric dent; every orbit orientable."""
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b1", 0, None), ("b2", 0, None), ("B", 0, None)],
        crit_images=[[0, 2, 1, 4, 3, 5]], crit_signs=[[1, 1, 1, 1, 1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", 1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b1", 1), ("w2", "r1", "B", -1),
               ("w3", "r2", "b2", 1), ("w4", "r2", "B", -1)],
        flow_images=[[2, 3, 0, 1, 6, 7, 4, 5]], ambient_dim=2))


def make_wedge():
    """One fixed and one free middle orbit; broken weights are +-1."""
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, None), ("q1", 1, None), ("q2", 1, None),
                     ("q3", 1, None), ("r", 0, None)],
        crit_images=[[0, 1, 3, 2, 4]], crit_signs=[[1, 1, 1, 1, 1]],
        flows=[("a1", "p", "q1", 1), ("a2", "p", "q1", 1),
               ("b1", "p", "q2", 1), ("b2", "p", "q3", 1),
               ("c1", "q1", "r", 1),
               ("d1", "q2", "r", -1), ("d2", "q3", "r", -1)],
        flow_images=[[0, 1, 3, 2, 4, 6, 5]], ambient_dim=2))


def make_football(p):
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[tuple(list(range(1, p)) + [0])], degree=p,
        crit_points=[("n", 2, None), ("s", 0, None)],
        crit_images=[[0, 1]], crit_signs=[[1, 1]],
        flows=[], flow_images=[[]], ambient_dim=2))


def make_ring_sphere(p, defect=None, flow="c0", reflect=False):
    """S^2 with maxima N, S and a ring of p saddles r_k and p minima m_k
    under the rotation of order p; every orbit is free or fixed and
    orientable.  defect "flip" negates the sign of `flow` (c0 = r0 -> m0 by
    default), "endpoint" re-aims c0 at m1 while its images stay as they
    were.

    With reflect, G is D_p, generated by the rotation and the reflection
    in the plane through N, S and r0: it fixes N, S, r0 and a0 = N -> r0,
    sends r_k to r_-k and m_k to m_(-k-1), and reverses the orientation of
    the sphere and of the equator, so tau is -1 at N, S and the saddles.
    Then the orbit of a0 has p flows, not |G|, and the orbits of N, S and
    r0 are discarded."""
    def shift(lab):
        return lab if lab in ("N", "S") else lab[0] + str((int(lab[1:]) + 1) % p)

    def mirror(lab):
        if lab in ("N", "S"):
            return lab
        kind = {"c": "e", "e": "c"}.get(lab[0], lab[0])
        return kind + str((-int(lab[1:]) - (kind == "m")) % p)

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
    maps = [(tuple(range(1, p)) + (0,), shift, lambda lab: 1)]
    if reflect:
        maps.append((tuple(-i % p for i in range(p)), mirror,
                     lambda lab: 1 if lab[0] == "m" else -1))
    j = fidx[flow]
    if defect == "flip":
        flows[j] = flows[j][:3] + (-flows[j][3],)
    elif defect == "endpoint":
        flows[j] = ("c0", "r0", "m1", 1)
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[g for g, _, _ in maps], degree=p,
        crit_points=points,
        crit_images=[[pidx[act(lab)] for lab, _, _ in points] for _, act, _ in maps],
        crit_signs=[[sign(lab) for lab, _, _ in points] for _, _, sign in maps],
        flows=flows,
        flow_images=[[fidx[act(f[0])] for f in flows] for _, act, _ in maps],
        ambient_dim=2))


@functools.cache
def corpus_tool():
    """tools/build_corpus.py, the packaged corpus's builders."""
    path = Path(__file__).resolve().parent.parent / "tools" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.fixture
def instances(monkeypatch):
    """perfbench/instances.py, the benchmark's instance builders."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module
