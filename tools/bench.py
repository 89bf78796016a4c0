"""Scaling rows for homology and validate on global quotients and simplicial
G-complexes.

    python3 tools/bench.py

Each row is one in-process ``orbimorse`` command on an instance built by
perfbench/instances.py (the lens spaces by tools/build_corpus.py): the
median wall time of 5 runs without tracing,
with the fastest and slowest beside it, then the peak traced heap of one
more run under tracemalloc.  Every run must print what the construction
implies.  The program is imported from the src/ next to this directory,
and each family's rows are written to a JSON file at the repository root,
with the Python version and the CPU count of the host.

BENCH_gq.json   homology on the ring sphere under Z_p (order p) or D_p
                (order 2p), for p in 50, 100, 200, 400 and 800; sphere and
                quotient have Betti numbers 1,0,1.  validate on the same
                spheres with one planted defect, the flow c0 re-aimed
                (Z_p, "endpoint") or its sign flipped (D_p, "flip"), for
                the same p and p = 2500: exit 2 and the violation counts
                of instances.ring_violations.
BENCH_tri.json  homology on torus(n) under negation, n in 8, 16, 24, 32, 40
                (torus labels carry two-digit coordinates, so they sort
                in order past 1,000 vertices), and
                bipyramid(p) under the rotation of order p, p in 32, 64,
                128: no subdivision, quotient S^2; polygon(1, k) under the
                rotation of order k, k in 30, 60, 120, 240, 480, and past
                1,000 vertices, k in 1,200, 3,000 and 12,000, labelled
                v00000, v00001, ... so they sort in order (_polygon):
                rounds 2, quotient S^1; wheel(k), a disc under the
                rotation of order k, relative to its rim, k in 20, 40, 80:
                no subdivision, quotient a disc, relative Betti numbers
                0,0,1; lens(p), the join of two p-gons under the free
                rotation of order p whose quotient is the lens space
                L(p, 1), p in 8, 16, 32, 64: rounds 2, Betti numbers
                1,0,0,1.  rounds 2 is one subdivision, whose orbits are the
                cells of the quotient, and one more that a simplicial
                quotient would take, as two of them share their vertex
                orbits.
                Every other bipyramid, polygon and wheel has fewer than
                1,000 vertices: instances.py labels them v000, v001, ..., so
                beyond that the sorted vertex list no longer follows the
                rotation; lens labels a00 ... b63 sort in order too.
                Then the library calls on subdivided G-complexes:
                subdivided() (the round that makes it), homology and
                invariant_homology of torus(4) under negation after 0 to 5
                rounds (Betti numbers 1,2,1 and 1,0,1), and of bipyramid(48)
                after 3 rounds (1,0,1 both).  These rows repeat while the
                runs take under 10 s in all, so the largest run two or
                three times, and record no heap peak.

Host speed changes between sittings by up to 1.5x, so before each row a
fixed pure-Python loop is timed (reference_s, the best of three) and
written beside the walls: compare rows of two sittings by wall_s /
reference_s.
"""

import contextlib
import functools
import importlib.util
import io
import json
import os
import pathlib
import platform
import sys
import tempfile
import tracemalloc
from collections import Counter
from statistics import median
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbimorse import (GSimplicialComplex, SimplicialComplex, cli,  # noqa: E402
                       invariant_homology)
from orbimorse.simplicial import homology  # noqa: E402

#: Timed runs per row; a row records their median, fastest and slowest.
RUNS = 5
#: A subdivision row stops repeating once its runs take this long.
BUDGET_S = 10

GQ_SIZES = (50, 100, 200, 400, 800)
#: validate also runs at the size the diagnosis targets are stated for.
DIAGNOSE_SIZES = GQ_SIZES + (2500,)
SPHERE = ["betti_manifold: 1,0,1", "betti_invariant: 1,0,1"]


def _tail(expect):
    """homology: exit 0, and the report ends with these rows."""
    return lambda code, text: (code == 0
                               and text.splitlines()[-len(expect):] == expect)


def _violations(expect):
    """validate: exit 2, and each law broken as often as expect says."""
    def check(code, text):
        got = Counter(line.split(": ")[1] for line in text.splitlines()
                      if line.startswith("violation: "))
        return code == 2 and got == expect
    return check


def _polygon(k):
    """instances.polygon(1, k) with five-digit labels, which sort in
    rotation order up to 100,000 vertices."""
    rim = ["v%05d" % i for i in range(k)]
    return {"vertices": rim, "maximal": [[rim[i], rim[(i + 1) % k]] for i in range(k)],
            "generators": [[(i + 1) % k for i in range(k)]]}


def _quotient_rows(rounds, betti, rel=None):
    """The homology rows of a simplicial instance whose quotient and
    invariant part both have these Betti numbers."""
    rows = [f"rounds: {rounds}", f"betti: {betti}", f"betti_invariant: {betti}"]
    if rel is not None:
        rows += [f"betti_rel: {rel}", f"betti_invariant_rel: {rel}"]
    return _tail(rows)


#: (label, kind, [(family, command, build, answer, sizes)]):
#: build(instances, size) gives the system, answer(instances, size) its
#: group order and the check of the command's exit code and output.
BENCHES = (
    ("gq", "global_quotient", [
        ("zp", "homology", lambda i, p: i.zp_sphere(p),
         lambda i, p: (p, _tail(SPHERE)), GQ_SIZES),
        ("dp", "homology", lambda i, p: i.dp_sphere(p),
         lambda i, p: (2 * p, _tail(SPHERE)), GQ_SIZES),
        ("zp_endpoint", "validate",
         lambda i, p: i.plant(i.zp_sphere(p), "endpoint"),
         lambda i, p: (p, _violations(i.ring_violations(p, "endpoint"))),
         DIAGNOSE_SIZES),
        ("dp_flip", "validate", lambda i, p: i.plant(i.dp_sphere(p), "flip"),
         lambda i, p: (2 * p, _violations(i.ring_violations(2 * p, "flip"))),
         DIAGNOSE_SIZES),
    ]),
    ("tri", "simplicial", [
        ("torus", "homology", lambda i, n: i.torus(n),
         lambda i, n: (2, _quotient_rows(0, "1,0,1")), (8, 16, 24, 32, 40)),
        ("bipyramid", "homology", lambda i, p: i.bipyramid(p),
         lambda i, p: (p, _quotient_rows(0, "1,0,1")), (32, 64, 128)),
        ("polygon", "homology", lambda i, k: i.polygon(1, k),
         lambda i, k: (k, _quotient_rows(2, "1,1")), (30, 60, 120, 240, 480)),
        ("polygon", "homology", lambda i, k: _polygon(k),
         lambda i, k: (k, _quotient_rows(2, "1,1")), (1200, 3000, 12000)),
        ("wheel", "homology", lambda i, k: i.wheel(k),
         lambda i, k: (k, _quotient_rows(0, "1,0,0", "0,0,1")), (20, 40, 80)),
        ("lens", "homology", lambda i, p: _load("build_corpus").lens_simplicial(p, 1),
         lambda i, p: (p, _quotient_rows(2, "1,0,0,1")), (8, 16, 32, 64)),
    ]),
)


#: (family, size, system, rounds timed, Betti numbers of the complex and of
#: its invariant part) for the rows of library calls on subdivisions.
SUBDIVIDED = (
    ("torus", 4, lambda i: i.torus(4), range(6), ((1, 2, 1), (1, 0, 1))),
    ("bipyramid", 48, lambda i: i.bipyramid(48), (3,), ((1, 0, 1), (1, 0, 1))),
)


def reference_s() -> float:
    """Seconds a fixed loop of tuple keys, dict updates and int arithmetic
    (the program's inner loops in miniature) takes, the best of three."""
    best = float("inf")
    for _ in range(3):
        start, acc = perf_counter(), {}
        for i in range(200_000):
            key = (i & 1023, i % 7)
            acc[key] = acc.get(key, 0) + i
        best = min(best, perf_counter() - start)
    return best


@functools.cache
def _load(name, where="tools"):
    """The module name.py in the directory where of the repository."""
    spec = importlib.util.spec_from_file_location(name, ROOT / where / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _run(command, path, check) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([command, path])
    if not check(code, out.getvalue()):
        raise SystemExit(f"{command} {path}: exit {code}\n{out.getvalue()}")


def row(kind, family, command, system, order, check, size, workdir) -> dict:
    path = str(workdir / f"{family}{size}.json")
    reference = reference_s()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "metadata": {"name": f"{family}{size}"},
                   "system": system}, fh)
    walls = []
    for _ in range(RUNS):
        start = perf_counter()
        _run(command, path, check)
        walls.append(perf_counter() - start)
    tracemalloc.start()
    try:
        _run(command, path, check)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = {"family": family, "command": command,
           "p" if kind == "global_quotient" else "n": size, "order": order}
    if kind == "global_quotient":
        out.update(points=len(system["crit_points"]), flows=len(system["flows"]))
    else:
        out.update(vertices=len(system["vertices"]),
                   maximal=len(system["maximal"]))
    out.update(_walls(walls), peak_heap_mb=round(peak / 1e6, 2),
               reference_s=round(reference, 4))
    return out


def _walls(walls) -> dict:
    return {"wall_s": round(median(walls), 4), "wall_min_s": round(min(walls), 4),
            "wall_max_s": round(max(walls), 4)}


def _repeated(call, want=None):
    """(walls, result) of call, repeated up to RUNS times while the runs
    take under BUDGET_S in all; the result must be want unless want is None."""
    walls = []
    while len(walls) < RUNS and sum(walls) < BUDGET_S:
        start = perf_counter()
        result = call()
        walls.append(perf_counter() - start)
        if want is not None and result != want:
            raise SystemExit(f"{call}: {result}, expected {want}")
    return walls, result


def subdivision_rows(instances) -> list:
    """Rows of subdivided() (the round that made the complex), homology and
    invariant_homology for each timed round."""
    rows = []
    for family, size, build, timed, (betti, invariant) in SUBDIVIDED:
        system = build(instances)
        gk = GSimplicialComplex(SimplicialComplex(system["vertices"], system["maximal"]),
                                [(g, g) for g in system["generators"]])
        for rounds in range(max(timed) + 1):
            calls = [("homology", lambda: homology(gk.complex), betti),
                     ("invariant_homology", lambda: invariant_homology(gk), invariant)]
            if rounds not in timed:
                gk = gk.subdivided() if rounds else gk
                continue
            if rounds:
                calls.insert(0, ("subdivided", gk.subdivided, None))
            for command, call, want in calls:
                reference = reference_s()
                walls, result = _repeated(call, want)
                gk = result if command == "subdivided" else gk
                rows.append({"family": family, "command": command, "n": size,
                             "rounds": rounds, "cells": list(gk.complex.counts()),
                             "runs": len(walls), **_walls(walls),
                             "reference_s": round(reference, 4)})
                print(json.dumps(rows[-1]))
    return rows


def main() -> int:
    instances = _load("instances", "perfbench")
    # cli builds its argument parser once per process; build it untimed
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["corpus", "list"])
    with tempfile.TemporaryDirectory() as tmp:
        for label, kind, families in BENCHES:
            rows = []
            for family, command, build, answer, sizes in families:
                for size in sizes:
                    rows.append(row(kind, family, command,
                                    build(instances, size),
                                    *answer(instances, size), size,
                                    pathlib.Path(tmp)))
                    print(json.dumps(rows[-1]))
            if label == "tri":
                rows += subdivision_rows(instances)
            doc = {"runs": RUNS, "python": platform.python_version(),
                   "cpus": os.cpu_count(), "rows": rows}
            (ROOT / f"BENCH_{label}.json").write_text(
                json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
