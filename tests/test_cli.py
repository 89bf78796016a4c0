"""CLI subcommands, instance files, exit codes, and the packaged corpus."""

import functools
import gc
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import types
import weakref
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

import orbimorse
from orbimorse.cli import (
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    corpus_names,
    instance_from_dict,
    instance_to_text,
    load_corpus,
    load_instance,
    main,
)
from orbimorse import betti, boundary_plus, chaincx
from orbimorse.groups import orbits
from orbimorse.intrinsic import OrbifoldMorseSystem
from orbimorse.quotient import EquivariantMorseSystem
from orbimorse.simplicial import SimplicialComplex

from conftest import build_intrinsic, corpus_tool, grid_torus
from reference_validator import reference_classify, tables


def corpus_doc(name):
    return json.loads(instance_to_text(load_corpus(name)))


def write_doc(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def corpus_file(tmp_path, name):
    return write_doc(tmp_path, name + ".json", corpus_doc(name))


def simplicial_file(tmp_path, name, system):
    return write_doc(tmp_path, name + ".json", {
        "kind": "simplicial", "metadata": {"name": name}, "system": system})


def test_corpus_files_round_trip_canonically():
    from orbimorse.cli import _corpus_root
    names = corpus_names()
    assert len(names) >= 20 and "heart" in names
    for name in names:
        raw = _corpus_root().joinpath(name + ".json").read_text(encoding="utf-8")
        assert instance_to_text(load_corpus(name)) == raw


def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "heart: global_quotient:" in out
    assert "dsq_fail: intrinsic:" in out
    assert "compare_torus_z2: comparison:" in out


def test_corpus_run_single(capsys):
    assert main(["corpus", "run", "heart"]) == EXIT_OK
    assert capsys.readouterr().out == "heart: pass\n"


def test_corpus_tool_builds_the_packaged_corpus_and_every_instance_passes(
        capsys):
    from orbimorse.cli import _corpus_root
    docs = corpus_tool().instances()
    assert sorted(docs) == corpus_names()
    for name, doc in docs.items():
        packaged = _corpus_root().joinpath(name + ".json").read_text(encoding="utf-8")
        assert instance_to_text(instance_from_dict(doc, ctx=name)) == packaged, name

    assert main(["corpus", "run"]) == EXIT_OK
    assert capsys.readouterr().out == "".join(
        f"{name}: pass\n" for name in corpus_names())


def _package_namespaces():
    """Each orbimorse module and each class it defines, by name, with a copy
    of its attribute dict."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "orbimorse" or name.startswith("orbimorse."):
            out[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_benchmark_tracer_wraps_every_named_function_and_restores_it():
    tracer_path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", tracer_path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t[:2] for t in tracer.SPANS + tracer.COUNTED + [tracer.ROOT]]
    before = _package_namespaces()
    t = tracer.Tracer()
    try:
        t.install()
        during = _package_namespaces()
        for module, path in targets:
            *cls, attr = path.split(".")
            owner = ".".join([f"orbimorse.{module}", *cls])
            assert during[owner][attr] is not before[owner][attr], (module, path)
    finally:
        t.uninstall()
    assert _package_namespaces() == before


def _code_objects(cls):
    """The code of each function, method and property defined on cls."""
    for value in vars(cls).values():
        value = getattr(value, "__func__", value)
        value = getattr(value, "fget", None) or getattr(value, "func", value)
        if isinstance(value, types.FunctionType):
            yield value.__code__


def test_every_export_is_reached_by_a_command(tmp_path, capsys):
    # the heart with a flow sign flipped, for a violation, and the flipped
    # edge, for a subdivision round, then the corpus until every export has
    # been entered; the digest of tools/outputs.py runs every command on
    # every corpus instance
    flipped = corpus_doc("heart")
    flipped["system"]["flows"][0]["sign"] *= -1
    paths = [write_doc(tmp_path, "flipped.json", flipped),
             flipped_edge_file(tmp_path)]
    paths += [corpus_file(tmp_path, name) for name in corpus_names()]
    derived = str(tmp_path / "derived.json")
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    def missed():
        out = []
        for name in orbimorse.__all__:
            obj = getattr(orbimorse, name)
            if isinstance(obj, type) and not issubclass(obj, BaseException):
                if entered.isdisjoint(_code_objects(obj)):
                    out.append(name)
            elif isinstance(obj, types.FunctionType) and obj.__code__ not in entered:
                out.append(name)
        return out

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for path in paths:
            for argv in (["validate", path], ["homology", path],
                         ["homology", path, "--convention", "minus"],
                         ["compare", path], ["derive", path, derived]):
                main(argv)
            if not missed():
                break
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert not missed(), f"exported, reached by no command: {missed()}"


def test_validate_heart(tmp_path, capsys):
    assert main(["validate", corpus_file(tmp_path, "heart")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "valid: yes" in out
    assert "self_indexing: yes" in out


def test_validate_dsq_fail(tmp_path, capsys):
    assert main(["validate", corpus_file(tmp_path, "dsq_fail")]) == EXIT_INVALID
    out = capsys.readouterr().out
    assert "valid: no" in out
    assert "witness: plus: boundary squared sends p to 1 * r" in out


def test_validate_csv_is_stable(tmp_path, capsys):
    path = corpus_file(tmp_path, "heart")
    assert main(["validate", path, "--format", "csv"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["validate", path, "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0] == "key,value"
    assert "valid,yes" in lines


def test_homology_of_heart(tmp_path, capsys):
    path = corpus_file(tmp_path, "heart")
    assert main(["homology", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "orbit: p index=2 iso=1 orientable" in out
    assert "orbit: r index=1 iso=2 discarded" in out
    assert "betti_manifold: 1,0,1" in out
    assert "betti_invariant: 1,0,1" in out
    assert main(["homology", path, "--convention", "minus"]) == EXIT_OK
    assert "betti_invariant: 1,0,1" in capsys.readouterr().out


def test_global_homology_squares_each_boundary_pair_once(
        tmp_path, capsys, monkeypatch):
    # validate_system and betti both check the manifold complex; the
    # square kept on the complex makes that one product per degree
    squared, manifold = [], []
    square_cells = chaincx._square_cells
    manifold_complex = EquivariantMorseSystem.manifold_complex

    def counted(c, k):
        squared.append((c, k))
        return square_cells(c, k)

    def recorded(s):
        manifold.append(manifold_complex(s))
        return manifold[-1]

    monkeypatch.setattr(chaincx, "_square_cells", counted)
    monkeypatch.setattr(EquivariantMorseSystem, "manifold_complex", recorded)
    assert main(["homology", corpus_file(tmp_path, "heart")]) == EXIT_OK
    assert "betti_manifold: 1,0,1" in capsys.readouterr().out
    counts = Counter((id(c), k) for c, k in squared)
    assert set(counts.values()) == {1}
    m = manifold[0]
    assert {id(c) for c in manifold} == {id(m)}
    assert [counts[id(m), k] for k in range(2, m.max_degree + 1)] == [1] * (
        m.max_degree - 1)
    assert len(counts) == 2  # the manifold and the invariant plus complex


def test_intrinsic_homology_squares_each_convention_once(
        tmp_path, capsys, monkeypatch):
    # the system keeps its plus and minus complexes: homology squares each
    # once for verify_d_squared, and betti reads the square kept on plus
    squared = []
    square_cells = chaincx._square_cells

    def counted(c, k):
        squared.append(c)
        return square_cells(c, k)

    monkeypatch.setattr(chaincx, "_square_cells", counted)
    assert main(["homology", corpus_file(tmp_path, "heart_naive")]) == EXIT_OK
    assert "betti: 1,1,1" in capsys.readouterr().out
    assert len(squared) == 2 and squared[0] is not squared[1]


def test_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path, capsys):
    from orbimorse.cli import _build_parser
    path = corpus_file(tmp_path, "heart")
    assert main(["homology", path, "--convention", "minus"]) == EXIT_OK
    assert "convention: minus" in capsys.readouterr().out
    assert main(["homology", path]) == EXIT_OK
    assert "convention: plus" in capsys.readouterr().out
    assert main(["validate", path, "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("key,value\nkind,global_quotient\n")
    assert main(["validate", path]) == EXIT_OK
    assert capsys.readouterr().out.startswith("kind: global_quotient\n")
    assert _build_parser.cache_info().misses == 1


def flipped_edge_file(tmp_path):
    """The edge {a, b} under the swap, relative to the vertex a."""
    return write_doc(tmp_path, "e.json", {
        "kind": "simplicial", "metadata": {"name": "flipped_edge"},
        "system": {"vertices": ["a", "b"], "maximal": [["a", "b"]],
                   "generators": [[1, 0]],
                   "subcomplex": {"vertices": ["a"], "maximal": [["a"]]}}})


def test_validate_reports_irregularity_before_a_bad_relative_part(tmp_path, capsys):
    assert main(["validate", flipped_edge_file(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().out == (
        "kind: simplicial\nname: flipped_edge\nregular: no\n"
        "quotient: needs subdivision: a setwise-fixed simplex is moved "
        "vertex-wise\n")


def test_relative_part_moved_after_a_subdivision_round_is_named(tmp_path, capsys):
    # the edge is flipped, so the invariance of {a} is first checked on the
    # subdivision, whose vertex (a,) the generator, printed as given, moves
    assert main(["homology", flipped_edge_file(tmp_path)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: relative part is not invariant: "
                            "g=[1, 0] moves (('a',),) out\n")


def test_homology_of_relative_simplicial(tmp_path, capsys):
    path = corpus_file(tmp_path, "disc_reflect_d1")
    assert main(["homology", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "betti_rel: 0,0" in out
    assert "betti_invariant_rel: 0,0" in out


def test_closures_past_the_cell_cap_exit_2_within_a_second(tmp_path, capsys):
    # one simplex on 40 vertices counts 2^40 - 1 faces; one on 10 vertices
    # under a swap of two is irregular, and its subdivision round counts
    # 10! flags of 2^10 - 1 faces each; one on 12 vertices under S_12 (a
    # swap and a 12-cycle) too, whose group is not closed
    labels = ["v%02d" % i for i in range(40)]
    for name, vertices, gens in (("simplex_40", labels, []),
                                 ("swapped_10", labels[:10],
                                  [[1, 0] + list(range(2, 10))]),
                                 ("symmetric_12", labels[:12], symmetric(12))):
        path = simplicial_file(tmp_path, name, {
            "vertices": vertices, "maximal": [vertices], "generators": gens})
        start = perf_counter()
        assert main(["homology", path]) == EXIT_INVALID, name
        assert perf_counter() - start < 1, name
        assert capsys.readouterr().err == (
            "error: closure passes the cap of 2000000 cells at simplex "
            f"{tuple(vertices)!r}\n")


def symmetric(n):
    """Generators of S_n: a swap and an n-cycle."""
    return [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]]


def test_a_simplex_under_its_symmetric_group_validates_within_a_second(
        tmp_path, capsys):
    # |S_12| = 479,001,600: the orbit table walks the 4,095 faces once each
    vertices = ["v%02d" % i for i in range(12)]
    path = simplicial_file(tmp_path, "symmetric_12", {
        "vertices": vertices, "maximal": [vertices], "generators": symmetric(12)})
    start = perf_counter()
    assert main(["validate", path]) == EXIT_OK
    assert perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "regular: no", "quotient: needs subdivision: "
        "a setwise-fixed simplex is moved vertex-wise"]


def test_join_sharing_vertex_orbits_exits_0_within_a_second(tmp_path, capsys):
    # the join of a 5-simplex with a square whose opposite corners are
    # swapped: no edge joins a vertex to its image, yet two edge orbits share
    # their vertex orbits, so a simplicial quotient would take a round; the
    # quotient, the join of a 5-simplex with a circle, is contractible
    base = ["a%d" % i for i in range(6)]
    square = {"x": "x'", "y": "y'", "x'": "x", "y'": "y"}
    vertices = sorted(base + list(square))
    path = simplicial_file(tmp_path, "join", {
        "vertices": vertices,
        "maximal": [base + [u, v] for u in ("x", "x'") for v in ("y", "y'")],
        "generators": [[vertices.index(square.get(v, v)) for v in vertices]]})
    start = perf_counter()
    assert main(["homology", path]) == EXIT_OK
    assert perf_counter() - start < 1
    assert capsys.readouterr().out.splitlines()[2:4] == [
        "rounds: 1", "betti: 1,0,0,0,0,0,0,0"]


def test_homology_of_five_by_five_torus(tmp_path, capsys):
    doc = {"kind": "simplicial", "metadata": {"name": "torus_5x5"},
           "system": grid_torus(5)}
    assert main(["homology", write_doc(tmp_path, "t.json", doc)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rounds: 2" in out
    assert "betti: 1,0,1" in out


def test_parse_failures_exit_4(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_PARSE

    assert main(["validate", str(tmp_path / "missing.json")]) == EXIT_PARSE

    assert main(["validate", write_doc(tmp_path, "kind.json",
                                       {"kind": "nonsense"})]) == EXIT_PARSE

    doc = corpus_doc("heart")
    del doc["system"]
    assert main(["validate", write_doc(tmp_path, "nosys.json", doc)]) \
        == EXIT_PARSE

    doc = corpus_doc("heart")
    doc["system"]["flows"][0]["src"] = "ghost"
    assert main(["validate", write_doc(tmp_path, "ghost.json", doc)]) \
        == EXIT_PARSE
    assert "ghost" in capsys.readouterr().err

    assert main(["corpus", "run", "nosuch"]) == EXIT_PARSE
    capsys.readouterr()

    # json refuses an integer beyond 4,300 digits and bad UTF-8 with a plain
    # ValueError, deep nesting with RecursionError
    doc = corpus_doc("heart")
    doc["system"]["ambient_dim"] = "DIM"
    long_int = tmp_path / "long_int.json"
    long_int.write_text(json.dumps(doc).replace('"DIM"', "9" * 5000),
                        encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kind": "\xe9"}')
    for path in (long_int, deep, latin):
        assert main(["validate", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid JSON")


def test_malformed_entries_are_named(tmp_path, capsys):
    docs = []
    for key, what, label in (("crit_points", "critical point", "p"),
                             ("flows", "flow", "g1")):
        doc = corpus_doc("heart")
        doc["system"][key][1]["label"] = label
        docs.append((doc, f"global_quotient system: duplicate {what} {label!r}"))
    doc = segment_doc()
    doc["system"]["points"][1]["label"] = "a"
    docs.append((doc, "intrinsic system: duplicate point 'a'"))
    doc = segment_doc()
    doc["system"]["flows"] *= 2
    docs.append((doc, "intrinsic system: duplicate flow 'f'"))
    docs.append((segment_doc(sign="x"), "flow 'f': sign: expected an integer"))
    doc = segment_doc()
    doc["system"]["points"][1]["iso_order"] = None
    docs.append((doc, "point 'b': iso_order: expected an integer"))
    for doc, message in docs:
        assert main(["validate", write_doc(tmp_path, "bad.json", doc)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"error: {message}"), message

    # heart bad in two places: the message names the first bad record,
    # points before flows, and in it the first bad field; label checks come
    # before endpoints, and a flow's endpoints before its sign
    gone = object()     # the key is deleted
    for edits, message in (
            ([("crit_points", 1, "label", 7), ("crit_points", 2, "index", "x")],
             "critical point label: expected a string, got 7"),
            ([("crit_points", 1, "index", True),
              ("crit_points", 3, "label", None)],
             "point 'q': index: expected an integer, got True"),
            ([("crit_points", 0, "value", "1e5"),
              ("crit_points", 1, "label", 3)],
             "point 'p': value: '1e5' is not a rational"),
            ([("flows", 0, "sign", "x"), ("crit_points", 3, "value", "x")],
             "point 's': value: 'x' is not a rational"),
            ([("flows", 1, "label", 1), ("flows", 2, "src", 2)],
             "flow label: expected a string, got 1"),
            ([("flows", 0, "src", None), ("flows", 1, "label", None)],
             "flow 'g1': src: expected a string, got None"),
            ([("flows", 2, "dst", 0), ("flows", 3, "sign", "-")],
             "flow 'd1': dst: expected a string, got 0"),
            ([("flows", 1, "sign", 1.0), ("flows", 2, "dst", [])],
             "flow 'g2': sign: expected an integer, got 1.0"),
            ([("crit_points", 2, "index", gone), ("flows", 0, "label", gone)],
             "point 'r': missing 'index'"),
            ([("flows", 1, "src", gone), ("flows", 3, "label", gone)],
             "flow 'g2': missing 'src'"),
            ([("crit_points", 3, "label", "q"), ("flows", 0, "label", "g2")],
             "global_quotient system: duplicate critical point 'q'"),
            ([("flows", 0, "dst", "ghost"), ("flows", 2, "label", "g1")],
             "global_quotient system: duplicate flow 'g1'"),
            ([("flows", 1, "dst", "ghost"), ("flows", 2, "src", "nowhere")],
             "global_quotient system: flow 'g2' references unknown point "
             "'ghost'"),
            ([("flows", 1, "sign", 2), ("flows", 2, "src", "ghost")],
             "global_quotient system: flow 'g2' has sign 2"),
            ([("flows", 1, "sign", 2), ("flows", 1, "dst", "ghost")],
             "global_quotient system: flow 'g2' references unknown point "
             "'ghost'")):
        doc = corpus_doc("heart")
        for key, i, field, value in edits:
            if value is gone:
                del doc["system"][key][i][field]
            else:
                doc["system"][key][i][field] = value
        assert main(["validate", write_doc(tmp_path, "bad.json", doc)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n", message

    # endpoints become point numbers as they are read, and an unknown one
    # stays its label without raising: the reader's own errors come first,
    # then the system's checks, flow by flow and in their order
    heart = corpus_doc("heart")
    heart["system"]["flows"][1]["dst"] = "ghost"
    heart["system"]["crit_images"].append([0, 1, 2, 3])
    later = segment_doc(sign=2)
    later["system"]["flows"].append(
        {"label": "g", "src": "a", "dst": "ghost", "iso_order": 1, "sign": 1})
    dead = segment_doc()
    dead["system"]["points"][1]["orientable"] = False
    for doc, message in (
            (heart, "global_quotient system: crit_images needs one entry per "
                    "generator"),
            (later, "intrinsic system: flow 'f' has sign 2"),
            (dead, "intrinsic system: flow 'f' touches a non-orientable point")):
        assert main(["validate", write_doc(tmp_path, "bad.json", doc)]) \
            == EXIT_PARSE
        assert capsys.readouterr().err == f"error: {message}\n", message

    # the generators are closed before the complex is built, so a bad
    # generator wins over a bad simplex
    for simplex in (["a", "b", "z"], ["a", "b", "b"]):
        path = simplicial_file(tmp_path, "bad", {
            "vertices": ["a", "b", "c"], "maximal": [simplex],
            "generators": [[0, 0, 1]]})
        assert main(["validate", path]) == EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: simplicial system: not a 0-based image array of degree 3: "
            "[0, 0, 1]\n")


def segment_doc(**flow):
    """Intrinsic interval: a flow from a to b, both of isotropy 2; the keys
    given replace those of the flow."""
    flow = dict({"label": "f", "src": "a", "dst": "b", "iso_order": 1,
                 "sign": 1}, **flow)
    return {"kind": "intrinsic", "metadata": {}, "system": {
        "ambient_dim": 1, "flows": [flow], "points": [
            {"label": "a", "index": 1, "iso_order": 2},
            {"label": "b", "index": 0, "iso_order": 2}]}}


def test_malformed_values_exit_4(tmp_path, capsys):
    docs = {}
    for key, value in (("crit_images", [["x", 1, 2, 3]]),
                       ("crit_signs", [[1]]), ("generators", [1]),
                       ("crit_signs", [[True, True, -1, True]])):
        name = f"heart_{key}_{len(docs)}"
        docs[name] = corpus_doc("heart")
        docs[name]["system"][key] = value
    orientable = {"kind": "intrinsic", "metadata": {}, "system": {
        "ambient_dim": 2, "flows": [], "points": [
            {"label": "p", "index": 2, "iso_order": 1},
            {"label": "r", "index": 1, "iso_order": 2, "orientable": "false"},
            {"label": "s", "index": 0, "iso_order": 2}]}}
    docs["orientable"] = orientable
    for key, value in (("generators", [["x", 0]]), ("generators", 1),
                       ("vertices", [0, "a"])):
        docs[f"simplicial_{len(docs)}"] = {
            "kind": "simplicial", "metadata": {}, "system": {
                "vertices": ["a", "b"], "maximal": [["a", "b"]], key: value}}
    docs["intrinsic_sign"] = segment_doc(sign=2)
    docs["intrinsic_iso_order"] = segment_doc(iso_order=0)
    docs["intrinsic_duplicate_flow"] = segment_doc()
    docs["intrinsic_duplicate_flow"]["system"]["flows"] *= 2
    # an exponent or a decimal point: a value with 4,300 fractional digits
    # has a denominator too long to print in a witness
    for i, value in enumerate(("1e5000", "1e10000000", "0.5",
                               "0." + "0" * 4299 + "1")):
        docs[f"heart_value_{i}"] = corpus_doc("heart")
        docs[f"heart_value_{i}"]["system"]["crit_points"][0]["value"] = value
    for name, doc in docs.items():
        assert main(["homology", write_doc(tmp_path, name + ".json", doc)]) \
            == EXIT_PARSE, name
        assert capsys.readouterr().err.startswith("error: "), name

    orientable["system"]["points"][1]["orientable"] = False
    assert main(["homology", write_doc(tmp_path, "ok.json", orientable)]) \
        == EXIT_OK
    assert "betti: 1,0,1" in capsys.readouterr().out


def test_intrinsic_laws_exit_2(tmp_path, capsys):
    assert main(["homology", write_doc(tmp_path, "ok.json", segment_doc())]) \
        == EXIT_OK
    assert "betti: 0,0" in capsys.readouterr().out
    index = segment_doc()
    index["system"]["points"][0]["index"] = 2
    for name, doc in (("index", index), ("divides", segment_doc(iso_order=4))):
        for command in ("validate", "homology"):
            path = write_doc(tmp_path, name + ".json", doc)
            assert main([command, path]) == EXIT_INVALID, (command, name)
            assert capsys.readouterr().err.startswith("error: "), name


@pytest.mark.parametrize("argv", [["homology", "heart"],
                                  ["compare", "compare_heart"]])
def test_each_system_is_validated_once(argv, tmp_path, monkeypatch):
    # the package attribute "quotient" is the simplicial function
    quotient = importlib.import_module("orbimorse.quotient")
    made, real = [], quotient.ValidationReport
    monkeypatch.setattr(quotient, "ValidationReport",
                        lambda **kw: made.append(kw) or real(**kw))
    assert main([argv[0], corpus_file(tmp_path, argv[1])]) == EXIT_OK
    assert len(made) == 1


@pytest.mark.parametrize("command, name, scans", [
    ("homology", "disc_rot_2", 1), ("validate", "disc_rot_2", 1),
    ("homology", "polygon_1x3", 2), ("compare", "compare_heart", 1)])
def test_each_simplicial_complex_is_scanned_once(
        command, name, scans, tmp_path, monkeypatch, instances):
    # one orbit scan per complex: the input and the subdivision of the cover,
    # made only when an edge joins two vertices of one orbit (polygon_1x3;
    # compare_heart's octahedron goes straight to its orbit chains)
    simplicial = importlib.import_module("orbimorse.simplicial")
    real, calls = simplicial._orbit_scan, []
    monkeypatch.setattr(simplicial, "_orbit_scan",
                        lambda gk: calls.append(gk) or real(gk))
    path = (simplicial_file(tmp_path, name, instances.polygon(1, 3))
            if name == "polygon_1x3" else corpus_file(tmp_path, name))
    assert main([command, path]) == EXIT_OK
    assert len(calls) == scans


def test_simplicial_commands_leave_no_cyclic_garbage(
        tmp_path, capsys, instances):
    # a NotRegular kept in a frame's local would hold each complex that
    # needs subdivision in a reference cycle until the next gc pass
    octahedron = simplicial_file(tmp_path, "octahedron", instances.octahedron())
    heart = corpus_file(tmp_path, "compare_heart")
    gc.collect()
    gc.disable()
    try:
        assert main(["homology", octahedron]) == EXIT_OK
        assert main(["validate", octahedron]) == EXIT_OK
        assert main(["compare", heart]) == EXIT_OK
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert "needs subdivision: orbits of" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["homology", "corpus"])
def test_manifold_complex_is_built_once(command, tmp_path, monkeypatch):
    # validation's d^2 check and betti_manifold share one complex
    quotient = importlib.import_module("orbimorse.quotient")
    built, real = [], quotient.flow_complex
    monkeypatch.setattr(quotient, "flow_complex",
                        lambda *a: built.append(a) or real(*a))
    argv = (["homology", corpus_file(tmp_path, "heart")]
            if command == "homology" else ["corpus", "run", "heart"])
    assert main(argv) == EXIT_OK
    assert len(built) == 1


@pytest.mark.parametrize("command", ["validate", "homology"])
def test_valid_global_quotients_close_the_ground_group_once(
        command, tmp_path, monkeypatch):
    # one closure, of the ground generators at the instance's degree, and one
    # walk of the Cayley graph, carrying the least member of each point orbit
    # (signed +1) and of each flow orbit: no law needs a per-element table
    quotient = importlib.import_module("orbimorse.quotient")
    real = importlib.import_module("orbimorse.groups").generate_group
    closures, walks = [], []

    def closure(gens, **kw):
        closures.append(kw.get("degree"))
        return real(gens, **kw)
    for name, module in list(sys.modules.items()):
        if name.startswith("orbimorse") and vars(module).get("generate_group") is real:
            monkeypatch.setattr(module, "generate_group", closure)
    real_walk = quotient.EquivariantMorseSystem._walk

    def walk(s, starts):
        walks.append((s, list(starts)))
        return real_walk(s, starts)
    monkeypatch.setattr(quotient.EquivariantMorseSystem, "_walk", walk)
    checked = 0
    for name in corpus_names():
        inst = load_corpus(name)
        if inst.kind != "global_quotient":
            continue
        closures.clear()
        walks.clear()
        assert main([command, corpus_file(tmp_path, name)]) == EXIT_OK
        assert closures == [inst.body["system"]["degree"]], name
        [(s, starts)] = walks
        point_at = {p: i for i, p in enumerate(s.labels)}
        flow_at = {f: j for j, f in enumerate(s.flow_labels)}
        assert starts == [2 * point_at[o.rep] for o in reference_classify(s)] + [
            2 * len(s.labels) + flow_at[o[0]] for o in orbits(tables(s)[2])], name
        checked += 1
    assert checked >= 8


def test_dihedral_ring_sphere_of_order_800_stays_small(
        tmp_path, capsys, instances):
    # D_400 acting on a sphere with 802 critical points and 1,600 flows
    doc = {"kind": "global_quotient", "metadata": {"name": "dp400"},
           "system": instances.dp_sphere(400)}
    instance = write_doc(tmp_path, "dp400.json", doc)
    tracemalloc.start()
    try:
        code = main(["homology", instance])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    rows = sorted((min(members), index, iso, "orientable" if ok else "discarded")
                  for members, index, iso, ok in instances.ring_orbits(400, True))
    assert capsys.readouterr().out.splitlines()[2:] == [
        "orbit: %s index=%d iso=%d %s" % row for row in rows] + [
        "convention: plus", "betti_manifold: 1,0,1", "betti_invariant: 1,0,1"]
    assert peak < 10e6


def test_dihedral_ring_sphere_of_order_400_diagnoses_small(
        tmp_path, capsys, monkeypatch, instances):
    # D_200 with the flow c0 flipped: c0 is the defect set of its orbit, so
    # after the construction's orbit scan one walk carries c0 and its two
    # endpoints, not the 400 flows of the orbit and their endpoints
    quotient = importlib.import_module("orbimorse.quotient")
    real_walk, walks = quotient.EquivariantMorseSystem._walk, []

    def walk(s, starts):
        walks.append(len(starts))
        return real_walk(s, starts)
    monkeypatch.setattr(quotient.EquivariantMorseSystem, "_walk", walk)
    doc = {"kind": "global_quotient", "metadata": {"name": "dp200_flip"},
           "system": instances.plant(instances.dp_sphere(200), "flip")}
    instance = write_doc(tmp_path, "dp200_flip.json", doc)
    tracemalloc.start()
    try:
        code = main(["validate", instance])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INVALID
    laws = Counter(line.split(": ")[1]
                   for line in capsys.readouterr().out.splitlines()
                   if line.startswith("violation: "))
    assert laws == instances.ring_violations(400, "flip")
    assert len(walks) == 2 and walks[1] <= 3
    assert peak < 5e6


def test_the_document_is_dropped_before_anything_is_built(
        tmp_path, monkeypatch, capsys):
    """Each command reads the instance file into rows and drops every JSON
    object of it before the first constructor runs.  The objects are made
    as a dict subclass, which can be weakly referenced."""
    class Node(dict):
        pass

    nodes, live = [], []

    def node(d):
        d = Node(d)
        nodes.append(weakref.ref(d))
        return d
    monkeypatch.setattr(json, "loads", functools.partial(json.loads, object_hook=node))
    for cls in (EquivariantMorseSystem, OrbifoldMorseSystem, SimplicialComplex):
        def init(self, *args, _real=cls.__init__, **kwargs):
            live.append(sum(ref() is not None for ref in nodes))
            _real(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    for name, command in (("heart", "validate"), ("heart_naive", "homology"),
                          ("disc_rot_2", "homology"), ("compare_heart", "compare")):
        path = corpus_file(tmp_path, name)
        nodes.clear()
        live.clear()
        assert main([command, path]) == EXIT_OK, name
        assert nodes and live and not any(live), (name, len(nodes), live)
    capsys.readouterr()


def test_group_cap_environment_variable(tmp_path, monkeypatch, capsys):
    path = corpus_file(tmp_path, "football_p2")
    monkeypatch.setenv("ORBIMORSE_GROUP_CAP", "1")
    assert main(["validate", path]) == EXIT_INVALID
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("ORBIMORSE_GROUP_CAP", "x")
    assert main(["validate", path]) == EXIT_PARSE
    monkeypatch.delenv("ORBIMORSE_GROUP_CAP")
    assert main(["validate", path]) == EXIT_OK


def test_group_cap_bounds_no_simplicial_group(tmp_path, monkeypatch, capsys):
    # disc_rot_4's rotation generates Z_4, which is never closed; the rows
    # are the corpus's expected ones
    monkeypatch.setenv("ORBIMORSE_GROUP_CAP", "2")
    assert main(["homology", corpus_file(tmp_path, "disc_rot_4")]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2:] == [
        "rounds: 0", "betti: 1,0,0", "betti_invariant: 1,0,0",
        "betti_rel: 0,0,1", "betti_invariant_rel: 0,0,1"]


def test_a_thousand_vertex_polygon_stays_small(tmp_path, capsys):
    # Z_1200 on a 1200-gon labelled in rotation order: two subdivision
    # rounds, and no table of the group's 1,200 elements
    rim = ["v%04d" % i for i in range(1200)]
    path = simplicial_file(tmp_path, "polygon_1200", {
        "vertices": rim, "maximal": [[rim[i - 1], v] for i, v in enumerate(rim)],
        "generators": [[(i + 1) % 1200 for i in range(1200)]]})
    tracemalloc.start()
    try:
        code = main(["homology", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[2:] == [
        "rounds: 2", "betti: 1,1", "betti_invariant: 1,1"]
    assert peak < 4e6


def test_derive_writes_canonical_intrinsic(tmp_path, capsys):
    out_path = str(tmp_path / "heart_derived.json")
    code = main(["derive", corpus_file(tmp_path, "heart"), out_path])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert f"written: {out_path}" in out
    assert "points: 2" in out and "flows: 0" in out
    assert "discarded: r index=1 iso=2" in out

    assert load_instance(out_path)[:2] == ("intrinsic", "heart_derived")
    raw = (tmp_path / "heart_derived.json").read_text(encoding="utf-8")
    inst = instance_from_dict(json.loads(raw))
    derived = build_intrinsic(inst.body["system"])
    assert betti(boundary_plus(derived)) == (1, 0, 1)
    assert instance_to_text(inst) == raw


def test_derive_rejects_other_kinds(tmp_path):
    path = corpus_file(tmp_path, "dsq_fail")
    assert main(["derive", path, str(tmp_path / "x.json")]) == EXIT_PARSE


def test_compare_bundle_and_mismatch(tmp_path, capsys):
    assert main(["compare", corpus_file(tmp_path, "compare_heart")]) == EXIT_OK
    assert "equal: yes" in capsys.readouterr().out

    doc = corpus_doc("compare_heart")
    doc["triangulation"] = {
        "vertices": ["a", "b", "c"],
        "maximal": [["a", "b"], ["b", "c"], ["a", "c"]],
        "generators": [],
    }
    path = write_doc(tmp_path, "skew.json", doc)
    assert main(["compare", path]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "betti_quotient: 1,1,0" in out
    assert "equal: no" in out

    assert main(["compare", corpus_file(tmp_path, "heart")]) == EXIT_PARSE


def run_child(argv, **environ):
    """Run argv as a separate process that imports the orbimorse under test,
    with environ added to its environment.

    The directory holding the imported package goes first on PYTHONPATH, so
    the child finds this code whatever the working directory and whether or
    not some other copy is installed.
    """
    package_parent = str(Path(orbimorse.__file__).resolve().parent.parent)
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_parent, env.get("PYTHONPATH")]))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def console_script_argv():
    """Command that starts the declared `orbimorse` console entry point.

    An installed script on PATH is used as is. Otherwise the
    `[project.scripts]` target is read from pyproject.toml and called the
    way the generated wrapper calls it, so a stale declaration still fails.
    """
    installed = shutil.which("orbimorse")
    if installed:
        return [installed]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["orbimorse"]
    module, _, func = target.partition(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_smoke():
    proc = run_child(console_script_argv() + ["corpus", "run", "heart"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "heart: pass\n"


def test_python_m_smoke():
    proc = run_child([sys.executable, "-m", "orbimorse",
                      "corpus", "run", "heart"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "heart: pass\n"


def test_undeclared_vertex_error_is_the_same_under_every_hash_seed(tmp_path):
    path = write_doc(tmp_path, "stray.json", {
        "kind": "simplicial", "metadata": {"name": "stray"},
        "system": {"vertices": ["a", "b"],
                   "maximal": [["a", "b", "z"], ["b", "z", "y"]],
                   "generators": []}})
    runs = [run_child([sys.executable, "-m", "orbimorse", "validate", path],
                      PYTHONHASHSEED=str(seed)) for seed in (1, 2, 3)]
    assert [proc.returncode for proc in runs] == [EXIT_INVALID] * 3
    assert runs[0].stderr == runs[1].stderr == runs[2].stderr
    assert "('a', 'b', 'z') uses undeclared vertex 'z'" in runs[0].stderr
