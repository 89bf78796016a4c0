"""A digest of every command's output on a fixed set of instances.

    python3 tools/outputs.py > outputs.txt
    python3 tools/outputs.py --write

Prints one line per run: the command, the instance, the exit code and a
sha256 of the run's stdout, its stderr and the file ``derive`` writes.  Two
checkouts print the same lines exactly when every run gives the same bytes
and exit code, so checking that a change keeps the output of its parent is
a ``diff`` of two runs.  With --write the lines go to tests/outputs.txt
instead, after a header naming the Python and Hypothesis versions that made
them; tests/test_outputs.py compares a fresh run with that file.  A change
that alters output on purpose regenerates it.

The instances are every corpus file; every gq-sphere, gq-diagnose and
tri-quotient instance of seeds 1-3, built by perfbench/instances.py; the
ring sphere under Z_800 with the flow c0 re-aimed and under D_800 with c0's
sign flipped; ring spheres with several defects (multi_defects); an
intrinsic system with a flow that skips an index (index_jump); the edge
under its flip, with and without a relative part, three simplicial actions
whose quotients take each path of simplicial.regularize, and the Z_8 ring
sphere with one point's index or value moved off its orbit (paths); Morse
documents with malformed entries (malformed); and the documents
tests/test_fuzz.py draws.  Every instance gets each command
below; one that does not apply to the instance's kind exits 4 with a
message, which is digested too.  Each run is one in-process
``orbimorse`` call in a temporary directory, on relative file names, so no
path of the host reaches the output.  The program is imported from the src/
next to this directory.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import platform
import sys
import tempfile

import hypothesis

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from orbimorse import cli  # noqa: E402

INSTANCE, DERIVED = "instance.json", "derived.json"
DIGEST = ROOT / "tests" / "outputs.txt"

COMMANDS = (
    ["validate", INSTANCE],
    ["validate", INSTANCE, "--format", "csv"],
    ["homology", INSTANCE],
    ["homology", INSTANCE, "--convention", "minus"],
    ["compare", INSTANCE],
    ["derive", INSTANCE, DERIVED],
)

SEEDS = (1, 2, 3)


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class _Recorder:
    """Stands in for the fuzz test's instance file: keeps each text written."""

    def __init__(self):
        self.texts = []

    def write_text(self, text, encoding=None):
        self.texts.append(text)

    def __str__(self):
        return INSTANCE


def fuzz_documents() -> list:
    """The documents test_fuzz.py's test draws, in its order.  The test runs
    as written, with its command line replaced by one that exits 0, so
    Hypothesis derives the same seed from it and draws the same examples."""
    fuzz = _module("test_fuzz", ROOT / "tests" / "test_fuzz.py")
    fuzz.main = lambda argv: 0
    recorder = _Recorder()
    fuzz.test_mutated_instances_exit_with_a_documented_code(
        instance_path=recorder)
    # the test writes each document once, then runs its commands on it
    return recorder.texts


def instances():
    """(name, instance file text) of every instance, in a fixed order."""
    corpus = ROOT / "src" / "orbimorse" / "corpus"
    for path in sorted(corpus.glob("*.json")):
        yield f"corpus/{path.stem}", path.read_text(encoding="utf-8")
    bench = _module("perfbench_instances", ROOT / "perfbench" / "instances.py")
    for workload in ("gq-sphere", "gq-diagnose", "tri-quotient"):
        for seed in SEEDS:
            for case in bench.build(workload, seed, corpus):
                yield (f"{workload}/{seed}/{case.name}",
                       json.dumps(case.doc, indent=2, sort_keys=True) + "\n")
    for name, system in (
            ("zp800_endpoint", bench.plant(bench.zp_sphere(800), "endpoint")),
            ("dp800_flip", bench.plant(bench.dp_sphere(800), "flip")),
            *multi_defects(bench)):
        yield f"planted/{name}", json.dumps(
            {"kind": "global_quotient", "metadata": {"name": name},
             "system": system})
    yield "planted/index_jump", json.dumps(
        {"kind": "intrinsic", "metadata": {"name": "index_jump"},
         "system": index_jump()})
    for name, doc in paths(bench):
        yield f"planted/{name}", json.dumps(doc)
    heart = json.loads((corpus / "heart.json").read_text(encoding="utf-8"))
    for name, doc in malformed(heart):
        yield f"malformed/{name}", json.dumps(doc)
    for i, text in enumerate(fuzz_documents()):
        yield f"fuzz/{i:03d}", text


def _edit(system, **changes):
    """A copy of a ring sphere with flows edited: label -> "flip" negates
    the sign, label -> point label re-aims the flow there."""
    out = json.loads(json.dumps(system))
    for f in out["flows"]:
        change = changes.get(f["label"])
        if change == "flip":
            f["sign"] = -f["sign"]
        elif change is not None:
            f["dst"] = change
    return out


def multi_defects(bench):
    """(name, system) of ring spheres with several defects: two in the
    orbit of c0, the flows c0 and c1 = rho.c0 flipped together (so the least
    flow of the orbit that no generator flags is itself a defect), the
    least-label flow a0 flipped, and a flip beside a re-aimed flow of the
    same orbit (c and e flows share one under D_p)."""
    zp, dp = bench.zp_sphere(60), bench.dp_sphere(30)
    return (("zp60_c0_c7", _edit(zp, c0="flip", c7="m9")),
            ("zp60_c0_c1", _edit(zp, c0="flip", c1="flip")),
            ("dp30_a0", _edit(dp, a0="flip")),
            ("dp30_c0_e2", _edit(dp, c0="flip", e2="m5")))


def index_jump():
    """An intrinsic system whose one flow goes from index 2 to index 0, so
    it does not drop its index by one."""
    return {"ambient_dim": 2,
            "points": [{"label": "n", "index": 2, "iso_order": 1},
                       {"label": "s", "index": 0, "iso_order": 1}],
            "flows": [{"label": "f", "src": "n", "dst": "s", "iso_order": 1,
                       "sign": 1}]}


def paths(bench):
    """(name, document) of instances reaching paths no other instance here
    does: the edge {a, b} under the swap, which needs a subdivision round,
    with and without the relative part {a}; the triangle's boundary under
    its rotation, regular but with an edge inside a vertex orbit, relative
    to the edge {v0, v1}, which the rotation moves out; the hexagon under
    its rotation of order 3, relative to the vertex orbit of v000; the join
    of a 5-simplex with a square whose opposite corners are swapped, where
    two edge orbits share their vertex orbits; and the Z_8 ring sphere with
    r0's index set to 0, and with its value set to 7/2."""
    edge = {"vertices": ["a", "b"], "maximal": [["a", "b"]],
            "generators": [[1, 0]]}
    relative = dict(edge, subcomplex={"vertices": ["a"], "maximal": [["a"]]})
    triangle = {"vertices": ["v0", "v1", "v2"],
                "maximal": [["v0", "v1"], ["v1", "v2"], ["v0", "v2"]],
                "generators": [[1, 2, 0]],
                "subcomplex": {"vertices": ["v0", "v1"],
                               "maximal": [["v0", "v1"]]}}
    orbit = ["v000", "v002", "v004"]
    hexagon = dict(bench.polygon(2, 3), subcomplex={
        "vertices": orbit, "maximal": [[v] for v in orbit]})
    base = ["a%d" % i for i in range(6)]
    square = {"x": "x'", "y": "y'", "x'": "x", "y'": "y"}
    vertices = sorted(base + list(square))
    join = {"vertices": vertices,
            "maximal": [base + [u, v] for u in ("x", "x'") for v in ("y", "y'")],
            "generators": [[vertices.index(square.get(v, v)) for v in vertices]]}
    yield from ((name, {"kind": "simplicial", "metadata": {"name": name},
                        "system": system})
                for name, system in (("flipped_edge", edge),
                                     ("flipped_edge_rel", relative),
                                     ("rotated_triangle_rel", triangle),
                                     ("hexagon_rot2_rel", hexagon),
                                     ("join_square", join)))
    for name, field, value in (("zp8_r0_index", "index", 0),
                               ("zp8_r0_value", "value", "7/2")):
        system = bench.zp_sphere(8)
        next(p for p in system["crit_points"] if p["label"] == "r0")[field] = value
        yield name, {"kind": "global_quotient", "metadata": {"name": name},
                     "system": system}


#: Each Morse entry list: its kind, its key, an entry that is not an
#: object, and for each field a value of a wrong type.
ENTRY_LISTS = (
    ("global_quotient", "crit_points", [],
     {"label": 7, "index": True, "value": 1.5}),
    ("global_quotient", "flows", "p",
     {"label": 1, "src": None, "dst": 0, "sign": 1.0}),
    ("intrinsic", "points", None,
     {"label": [], "index": "1", "iso_order": None, "orientable": "false"}),
    ("intrinsic", "flows", 2,
     {"label": 3, "src": 1, "dst": [], "iso_order": "1", "sign": "x"}),
)


def segment():
    """An intrinsic circle: the flows f and g from a to b, both points of
    isotropy 2."""
    return {"ambient_dim": 1,
            "points": [{"label": "a", "index": 1, "iso_order": 2},
                       {"label": "b", "index": 0, "iso_order": 2,
                        "orientable": True}],
            "flows": [{"label": "f", "src": "a", "dst": "b", "iso_order": 1,
                       "sign": 1},
                      {"label": "g", "src": "a", "dst": "b", "iso_order": 2,
                       "sign": -1}]}


GONE = object()     # an edit's value that deletes the field


def malformed(heart):
    """(name, document) of Morse documents with bad entries, each edited
    from the corpus heart or segment(): for each field of each entry list,
    the field left out and of a wrong type; an entry that is not an object;
    values with an exponent, a decimal point, no number, a zero denominator
    and null, which reads as no value, and a null orientable flag, which is
    refused; and documents bad in two places, whose message names the
    first bad field of the first bad entry.  An edit (key, i, field, value)
    sets the field of entry i of the list key, or the whole entry where
    field is None."""
    base = {"global_quotient": heart["system"], "intrinsic": segment()}

    def doc(kind, *edits):
        system = json.loads(json.dumps(base[kind]))
        for key, i, field, value in edits:
            if field is None:
                system[key][i] = value
            elif value is GONE:
                del system[key][i][field]
            else:
                system[key][i][field] = value
        return {"kind": kind, "metadata": {"name": "malformed"},
                "system": system}

    for kind, key, other, wrong in ENTRY_LISTS:
        for field, value in wrong.items():
            yield f"{kind}_{key}_{field}_missing", doc(kind, (key, 1, field, GONE))
            yield f"{kind}_{key}_{field}_type", doc(kind, (key, 1, field, value))
        yield f"{kind}_{key}_not_an_object", doc(kind, (key, 1, None, other))
    for i, value in enumerate(("1e5", "0.5", "x", "3/0", None)):
        yield f"value_{i}", doc("global_quotient",
                                ("crit_points", 2, "value", value))
    yield "orientable_null", doc("intrinsic", ("points", 0, "orientable", None))
    for i, edits in enumerate((
            [("crit_points", 1, "label", 7), ("crit_points", 2, "index", "x")],
            [("crit_points", 1, "index", True),
             ("crit_points", 3, "label", None)],
            [("crit_points", 0, "value", "1e5"),
             ("crit_points", 1, "label", 3)],
            [("flows", 0, "sign", "x"), ("crit_points", 3, "value", "x")],
            [("flows", 1, "label", 1), ("flows", 2, "src", 2)],
            [("flows", 0, "src", None), ("flows", 1, "label", None)],
            [("flows", 2, "dst", 0), ("flows", 3, "sign", "-")],
            [("flows", 1, "sign", 1.0), ("flows", 2, "dst", [])],
            [("crit_points", 2, "index", GONE), ("flows", 0, "label", GONE)],
            [("flows", 1, "src", GONE), ("flows", 3, "label", GONE)],
            [("crit_points", 3, "label", "q"), ("flows", 0, "label", "g2")],
            [("flows", 0, "dst", "ghost"), ("flows", 2, "label", "g1")],
            [("flows", 1, "dst", "ghost"), ("flows", 2, "src", "nowhere")],
            [("flows", 1, "sign", 2), ("flows", 2, "src", "ghost")],
            [("flows", 1, "sign", 2), ("flows", 1, "dst", "ghost")])):
        yield f"global_quotient_two_{i:02d}", doc("global_quotient", *edits)
    for i, edits in enumerate((
            [("points", 1, "orientable", "no"), ("points", 1, "index", "x")],
            [("points", 0, "iso_order", "2"), ("flows", 0, "label", 1)],
            [("flows", 0, "sign", "x"), ("flows", 0, "iso_order", "y")],
            [("flows", 0, "dst", "ghost"), ("flows", 0, "sign", 2)])):
        yield f"intrinsic_two_{i:02d}", doc("intrinsic", *edits)


def run(argv) -> tuple:
    """(exit code, sha256 of stdout, stderr and the derived file)."""
    if os.path.exists(DERIVED):
        os.remove(DERIVED)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as e:  # a traceback is an outcome to compare too
            code = f"raised-{type(e).__name__}"
            err.write(repr(e))
    digest = hashlib.sha256()
    for part in (out.getvalue(), err.getvalue()):
        digest.update(part.encode("utf-8", "surrogatepass") + b"\0")
    if os.path.exists(DERIVED):
        digest.update(pathlib.Path(DERIVED).read_bytes())
    return code, digest.hexdigest()


def header() -> list:
    """The digest file's first lines: how to remake it, and the versions the
    fuzz documents and the parse errors quoting json depend on."""
    return ["# made by: python3 tools/outputs.py --write",
            f"# python {platform.python_version()}",
            f"# hypothesis {hypothesis.__version__}"]


def lines():
    """The digest, one line per run, then the number of runs."""
    runs = 0
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, text in instances():
            pathlib.Path(INSTANCE).write_text(text, encoding="utf-8")
            for argv in COMMANDS:
                code, digest = run(argv)
                command = " ".join(a for a in argv
                                   if a not in (INSTANCE, DERIVED))
                yield f"{command}\t{name}\t{code}\t{digest}"
                runs += 1
    yield f"runs\t{runs}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Digest of every command's "
                                     "output on a fixed set of instances.")
    parser.add_argument("--write", action="store_true",
                        help="write tests/outputs.txt, with its header")
    if parser.parse_args(argv).write:
        text = "\n".join([*header(), *lines()]) + "\n"
        DIGEST.write_text(text, encoding="utf-8")
        return 0
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
