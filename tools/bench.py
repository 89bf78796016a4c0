"""Scaling rows for global-quotient homology on the ring spheres.

    python3 tools/bench.py

Each row is one in-process ``orbimorse homology`` on the ring sphere of
perfbench/instances.py under Z_p (order p) or D_p (order 2p), for
p in 50, 100, 200, 400 and 800: the wall time of one run without tracing,
then the peak traced heap of a separate run under tracemalloc.  Both runs
must print Betti numbers 1,0,1 for the sphere and its quotient.  The program
is imported from the src/ next to this directory, and the rows are written
to BENCH_gq.json at the repository root, with the Python version and the
CPU count of the host.
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

SIZES = (50, 100, 200, 400, 800)
FAMILIES = (("zp", "zp_sphere", 1), ("dp", "dp_sphere", 2))
SPHERE = ["betti_manifold: 1,0,1", "betti_invariant: 1,0,1"]


def _instances():
    spec = importlib.util.spec_from_file_location(
        "perfbench_instances", ROOT / "perfbench" / "instances.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _homology(path) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["homology", path])
    if code != 0 or out.getvalue().splitlines()[-2:] != SPHERE:
        raise SystemExit(f"{path}: exit {code}\n{out.getvalue()}")


def row(family, build, per_p, p, workdir) -> dict:
    system = build(p)
    path = str(workdir / f"{family}{p}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"kind": "global_quotient",
                   "metadata": {"name": f"{family}{p}"}, "system": system}, fh)
    start = perf_counter()
    _homology(path)
    wall = perf_counter() - start
    tracemalloc.start()
    try:
        _homology(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"family": family, "p": p, "order": per_p * p,
            "points": len(system["crit_points"]), "flows": len(system["flows"]),
            "wall_s": round(wall, 4), "peak_heap_mb": round(peak / 1e6, 2)}


def main() -> int:
    instances = _instances()
    # cli builds its argument parser once per process; build it untimed
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["corpus", "list"])
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for family, name, per_p in FAMILIES:
            for p in SIZES:
                rows.append(row(family, getattr(instances, name), per_p, p,
                                pathlib.Path(tmp)))
                print(json.dumps(rows[-1]))
    doc = {"command": "homology", "python": platform.python_version(),
           "cpus": os.cpu_count(), "rows": rows}
    (ROOT / "BENCH_gq.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
