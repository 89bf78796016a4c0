"""Scaling rows for homology on global quotients and simplicial G-complexes.

    python3 tools/bench.py

Each row is one in-process ``orbimorse homology`` on an instance built by
perfbench/instances.py: the wall time of one run without tracing, then the
peak traced heap of a separate run under tracemalloc.  Both runs must print
the rows that the construction implies.  The program is imported from the
src/ next to this directory, and each family's rows are written to a JSON
file at the repository root, with the Python version and the CPU count of
the host.

BENCH_gq.json   the ring sphere under Z_p (order p) or D_p (order 2p), for
                p in 50, 100, 200, 400 and 800; sphere and quotient have
                Betti numbers 1,0,1.
BENCH_tri.json  torus(n) under negation, n in 8, 16, 24, and bipyramid(p)
                under the rotation of order p, p in 32, 64, 128: no
                subdivision, quotient S^2; polygon(1, k) under the rotation
                of order k, k in 30, 60, 120: two subdivision rounds,
                quotient S^1; wheel(k), a disc under the rotation of order
                k, relative to its rim, k in 20, 40, 80: no subdivision,
                quotient a disc, relative Betti numbers 0,0,1.
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import sys
import tempfile
import tracemalloc
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbimorse import cli  # noqa: E402

SPHERE = ["betti_manifold: 1,0,1", "betti_invariant: 1,0,1"]


def _quotient_rows(rounds, betti, rel=None):
    """The homology rows of a simplicial instance whose quotient and
    invariant part both have these Betti numbers."""
    rows = [f"rounds: {rounds}", f"betti: {betti}", f"betti_invariant: {betti}"]
    if rel is not None:
        rows += [f"betti_rel: {rel}", f"betti_invariant_rel: {rel}"]
    return rows


#: (label, kind, [(family, build, answer, sizes)]): build(instances, size)
#: gives the system, answer(size) its group order and the tail of its
#: homology output.
BENCHES = (
    ("gq", "global_quotient", [
        ("zp", lambda i, p: i.zp_sphere(p), lambda p: (p, SPHERE),
         (50, 100, 200, 400, 800)),
        ("dp", lambda i, p: i.dp_sphere(p), lambda p: (2 * p, SPHERE),
         (50, 100, 200, 400, 800)),
    ]),
    ("tri", "simplicial", [
        ("torus", lambda i, n: i.torus(n),
         lambda n: (2, _quotient_rows(0, "1,0,1")), (8, 16, 24)),
        ("bipyramid", lambda i, p: i.bipyramid(p),
         lambda p: (p, _quotient_rows(0, "1,0,1")), (32, 64, 128)),
        ("polygon", lambda i, k: i.polygon(1, k),
         lambda k: (k, _quotient_rows(2, "1,1")), (30, 60, 120)),
        ("wheel", lambda i, k: i.wheel(k),
         lambda k: (k, _quotient_rows(0, "1,0,0", "0,0,1")), (20, 40, 80)),
    ]),
)


def _instances():
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _homology(path, expect) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["homology", path])
    if code != 0 or out.getvalue().splitlines()[-len(expect):] != expect:
        raise SystemExit(f"{path}: exit {code}\n{out.getvalue()}")


def row(kind, family, system, order, expect, size, workdir) -> dict:
    path = str(workdir / f"{family}{size}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "metadata": {"name": f"{family}{size}"},
                   "system": system}, fh)
    start = perf_counter()
    _homology(path, expect)
    wall = perf_counter() - start
    tracemalloc.start()
    try:
        _homology(path, expect)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = {"family": family, "p" if kind == "global_quotient" else "n": size,
           "order": order}
    if kind == "global_quotient":
        out.update(points=len(system["crit_points"]), flows=len(system["flows"]))
    else:
        out.update(vertices=len(system["vertices"]),
                   maximal=len(system["maximal"]))
    out.update(wall_s=round(wall, 4), peak_heap_mb=round(peak / 1e6, 2))
    return out


def main() -> int:
    instances = _instances()
    # cli builds its argument parser once per process; build it untimed
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["corpus", "list"])
    with tempfile.TemporaryDirectory() as tmp:
        for label, kind, families in BENCHES:
            rows = []
            for family, build, answer, sizes in families:
                for size in sizes:
                    rows.append(row(kind, family, build(instances, size),
                                    *answer(size), size, pathlib.Path(tmp)))
                    print(json.dumps(rows[-1]))
            doc = {"command": "homology", "python": platform.python_version(),
                   "cpus": os.cpu_count(), "rows": rows}
            (ROOT / f"BENCH_{label}.json").write_text(
                json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
