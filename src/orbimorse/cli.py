"""Command line front end and the JSON instance format.

An instance file is a single JSON object:

    {"kind": ..., "metadata": {...}, ...payload...}

Kinds and their payload keys; the table KINDS says how the subcommands
build, validate and take the homology of each kind:

  global_quotient   "system": ground generators of a permutation group plus
                    critical points, per-generator images and cocycle signs,
                    and flows with their images
  intrinsic         "system": weighted critical points and flow classes
  simplicial        "system": vertices, maximal simplices, generator
                    permutations of the sorted vertex list, and an optional
                    "subcomplex" for relative homology
  comparison        "morse": a global_quotient system, "triangulation": a
                    simplicial system

Rational values are strings like "3/2" (or plain integers), no exponent
and no decimal point.
A command holds only what its next step reads: load_instance reads each
payload with its kind's reader (a Morse system's appends each entry to the
point and flow columns the system keeps, endpoints as point numbers; a
simplicial one ranks each simplex into a tuple of vertex ranks) and
returns the kind, the name and what was read, so the document is dropped
before anything is built; the builders make the objects from that.
Serialization is canonical: sorted keys, two-space indent, trailing
newline, so instance files round-trip byte for byte.

Exit codes: 0 success, 2 validation failure, 3 theorem or expectation
mismatch, 4 unreadable or malformed input, malformed values included.  The
environment variable ORBIMORSE_GROUP_CAP bounds the closure of a global
quotient's group; a simplicial group is never closed, as its orbit table
reads the generators alone.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from itertools import chain
from typing import Callable, NamedTuple

from .chaincx import betti, verify_complex
from .errors import (
    MalformedPermutation,
    MalformedSystem,
    OrbimorseError,
    ParseError,
)
from .groups import DEFAULT_CAP, check_generators
from .intrinsic import (
    OrbifoldMorseSystem,
    boundary_minus,
    boundary_plus,
    verify_d_squared,
)
from .quotient import (
    EquivariantMorseSystem,
    classify,
    derive_intrinsic,
    discarded_orbits,
    validate_system,
)
from .simplicial import (
    GSimplicialComplex,
    NotRegular,
    SimplicialComplex,
    closure,
    compare,
    homology,
    invariant_homology,
    is_regular,
    quotient,
    rank_simplices,
    regularize,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_PARSE = 4


# -- low level parsing helpers ---------------------------------------------

def _where(ctx, args):
    """The context of a parse error; formatted only when one is raised."""
    return ctx % args if args else ctx

def _req(d, key, ctx, *args):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{_where(ctx, args)}: missing {key!r}")
    return d[key]

def _as_int(v, ctx, *args):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{_where(ctx, args)}: expected an integer, got {v!r}")
    return v

def _as_str(v, ctx, *args):
    if not isinstance(v, str):
        raise ParseError(f"{_where(ctx, args)}: expected a string, got {v!r}")
    return v

def _as_list(v, ctx, *args):
    if not isinstance(v, list):
        raise ParseError(f"{_where(ctx, args)}: expected a list")
    return v

def _as_fraction(v, ctx, *args):
    """An integer or a string such as "3/2" or "-7"; an exponent is refused,
    since Fraction("1e10000000") alone takes seconds, and so is a decimal
    point, since a long decimal gives a denominator too long to print."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            if isinstance(v, str) and ("e" in v.lower() or "." in v):
                raise ValueError(v)
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{_where(ctx, args)}: {v!r} is not a rational") from None
    raise ParseError(f"{_where(ctx, args)}: expected a rational, got {v!r}")

def _group_cap() -> int:
    raw = os.environ.get("ORBIMORSE_GROUP_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(
            f"ORBIMORSE_GROUP_CAP={raw!r} is not an integer") from None
    if cap < 1:
        raise ParseError("ORBIMORSE_GROUP_CAP must be positive")
    return cap

@contextlib.contextmanager
def _parsing(ctx):
    """A malformed value is malformed input, like a missing key."""
    try:
        yield
    except (MalformedPermutation, MalformedSystem) as e:
        raise ParseError(f"{ctx}: {e}") from None


# -- instance files ----------------------------------------------------------

class InstanceFile(NamedTuple):
    """An instance document: its kind, metadata and payload objects by key."""
    kind: str
    metadata: dict
    body: dict

    @property
    def name(self) -> str:
        return self.metadata.get("name", "?")

class Instance(NamedTuple):
    """What a command keeps of an instance file: its kind, its name and each
    payload as the kind's reader reads it."""
    kind: str
    name: str
    payloads: list

#: The one kind each of these commands takes.
ACCEPTS = {"compare": "comparison", "derive": "global_quotient"}

def instance_from_dict(doc, ctx="instance") -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: top level must be an object")
    kind = _req(doc, "kind", ctx)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ParseError(f"{ctx}: unknown kind {kind!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{ctx}: metadata must be an object")
    body = {}
    for key in KINDS[kind].payload:
        payload = _req(doc, key, f"{ctx} ({kind})")
        if not isinstance(payload, dict):
            raise ParseError(f"{ctx}: {key!r} must be an object")
        body[key] = payload
    return InstanceFile(kind=kind, metadata=metadata, body=body)

def read_payloads(inst: InstanceFile) -> list:
    """Each payload of the instance as its kind's reader reads it."""
    return [read(inst.body[key]) for key, read in KINDS[inst.kind].payload.items()]

def load_instance(path, command=None) -> Instance:
    """The instance file at path read by its readers, after a command named in
    ACCEPTS has refused any other kind.  The document is dropped when this
    returns, so no command holds it while it builds; the file is closed, and
    its text dropped, as soon as each is read."""
    fh = open(path, "r", encoding="utf-8")
    try:
        with fh:
            text = fh.read()
        doc = json.loads(text)
        del text
    # ValueError also covers bad UTF-8 and integers beyond 4,300 digits
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{path}: not valid JSON ({e})") from None
    inst = instance_from_dict(doc, ctx=str(path))
    want = ACCEPTS.get(command, inst.kind)
    if inst.kind != want:
        raise ParseError(f"{command} expects a {want} instance")
    return Instance(inst.kind, inst.name, read_payloads(inst))

def instance_to_text(inst: InstanceFile) -> str:
    doc = {"kind": inst.kind, "metadata": inst.metadata}
    doc.update(inst.body)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

def save_instance(inst: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(inst))


# -- readers: payload dict -> columns or rows; builders: those -> objects -----

def _point(c) -> tuple:
    """A critical point entry read field by field: (label, index, value), or
    the parse error of its first bad field."""
    label = _as_str(_req(c, "label", "critical point"), "critical point label")
    index = _as_int(_req(c, "index", "point %r", label), "point %r: index", label)
    value = None
    if c.get("value") is not None:
        value = _as_fraction(c["value"], "point %r: value", label)
    return label, index, value

def _flow(f) -> tuple:
    """A flow entry read field by field: (label, src, dst, sign), or the
    parse error of its first bad field."""
    label = _as_str(_req(f, "label", "flow"), "flow label")
    src = _as_str(_req(f, "src", "flow %r", label), "flow %r: src", label)
    dst = _as_str(_req(f, "dst", "flow %r", label), "flow %r: dst", label)
    sign = _as_int(_req(f, "sign", "flow %r", label), "flow %r: sign", label)
    return label, src, dst, sign

def read_global(payload) -> dict:
    """The keyword arguments of EquivariantMorseSystem.from_generator_data
    in a global_quotient payload.  Each entry is appended to the point
    columns (labels, index, value) or the flow columns (flow_labels, src,
    dst, sign), an endpoint as its point number, or as its label where no
    point has it, for the system to name; _point and _flow name the first
    bad field of an entry."""
    ctx = "global_quotient system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    degree = _as_int(_req(payload, "degree", ctx), f"{ctx}: degree")
    gens = [tuple(_as_list(g, "%s: generator", ctx)) for g in
            _as_list(_req(payload, "generators", ctx), f"{ctx}: generators")]

    labels, index, value = points = [], [], []
    for c in _as_list(_req(payload, "crit_points", ctx), f"{ctx}: crit_points"):
        if (type(c) is dict and type(label := c.get("label")) is str
                and type(k := c.get("index")) is int):
            if (v := c.get("value")) is not None:
                v = _as_fraction(v, "point %r: value", label)
        else:
            label, k, v = _point(c)
        labels.append(label)
        index.append(k)
        value.append(v)

    number = dict(zip(labels, range(len(labels)))).get
    flow_labels, src, dst, sign = flows = [], [], [], []
    for f in _as_list(_req(payload, "flows", ctx), f"{ctx}: flows"):
        if not (type(f) is dict and type(label := f.get("label")) is str
                and type(a := f.get("src")) is str
                and type(b := f.get("dst")) is str
                and type(e := f.get("sign")) is int):
            label, a, b, e = _flow(f)
        flow_labels.append(label)
        src.append(number(a, a))
        dst.append(number(b, b))
        sign.append(e)

    def per_generator(key):
        arr = _as_list(_req(payload, key, ctx), f"{ctx}: {key}")
        if len(arr) != len(gens):
            raise ParseError(f"{ctx}: {key} needs one entry per generator")
        return [tuple(_as_list(a, "%s: %s[%d]", ctx, key, i)) for i, a in enumerate(arr)]

    return dict(generators=gens, degree=degree, points=points,
                crit_images=per_generator("crit_images"),
                crit_signs=per_generator("crit_signs"), flows=flows,
                flow_images=per_generator("flow_images"), ambient_dim=ambient)

def build_global(args) -> EquivariantMorseSystem:
    with _parsing("global_quotient system"):
        return EquivariantMorseSystem.from_generator_data(
            cap=_group_cap(), **args)

def read_intrinsic(payload) -> dict:
    """The keyword arguments of OrbifoldMorseSystem in an intrinsic payload:
    the point and flow columns, endpoints resolved as read_global does."""
    ctx = "intrinsic system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    labels, index, iso_order, orientable = points = [], [], [], []
    for p in _as_list(_req(payload, "points", ctx), f"{ctx}: points"):
        label = _as_str(_req(p, "label", "point"), "point label")
        ok = p.get("orientable", True)
        if not isinstance(ok, bool):
            raise ParseError(
                f"point {label!r}: orientable must be true or false, got {ok!r}")
        labels.append(label)
        index.append(_as_int(_req(p, "index", "point %r", label),
                             "point %r: index", label))
        iso_order.append(_as_int(_req(p, "iso_order", "point %r", label),
                                 "point %r: iso_order", label))
        orientable.append(ok)
    number = dict(zip(labels, range(len(labels)))).get
    flow_labels, src, dst, flow_iso, sign = flows = [], [], [], [], []
    for f in _as_list(_req(payload, "flows", ctx), f"{ctx}: flows"):
        label = _as_str(_req(f, "label", "flow"), "flow label")
        a = _as_str(_req(f, "src", "flow %r", label), "flow %r: src", label)
        b = _as_str(_req(f, "dst", "flow %r", label), "flow %r: dst", label)
        flow_labels.append(label)
        src.append(number(a, a))
        dst.append(number(b, b))
        flow_iso.append(_as_int(_req(f, "iso_order", "flow %r", label),
                                "flow %r: iso_order", label))
        sign.append(_as_int(_req(f, "sign", "flow %r", label),
                            "flow %r: sign", label))
    return dict(ambient_dim=ambient, points=points, flows=flows)

def build_intrinsic(args) -> OrbifoldMorseSystem:
    with _parsing("intrinsic system"):
        return OrbifoldMorseSystem(**args)

def intrinsic_payload(s: OrbifoldMorseSystem) -> dict:
    labels = s.labels
    return {"ambient_dim": s.ambient_dim,
            "points": [{"label": p, "index": k, "iso_order": n, "orientable": ok}
                       for p, k, n, ok in zip(labels, s.index, s.iso_order,
                                              s.orientable)],
            "flows": [{"label": f, "src": labels[a], "dst": labels[b],
                       "iso_order": n, "sign": e}
                      for f, a, b, n, e in zip(s.flow_labels, s.src, s.dst,
                                               s.flow_iso, s.sign)]}

def _vertex_lists(payload, ctx, known=()):
    """Vertices and maximal simplices, labels all integers or all strings.
    For a subcomplex, each label known has becomes known's own object, so
    the document's copies die with it."""
    vertices = _as_list(_req(payload, "vertices", ctx), f"{ctx}: vertices")
    maximal = _as_list(_req(payload, "maximal", ctx), f"{ctx}: maximal")
    for s in maximal:
        _as_list(s, "%s: simplex", ctx)
    kinds = {*map(type, known), *map(type, vertices),
             *map(type, chain.from_iterable(maximal))}
    if len(kinds) > 1 or not kinds <= {int, str}:
        raise ParseError(f"{ctx}: vertex labels must be all integers or all strings")
    if not known:
        return vertices, maximal
    own = dict(zip(known, known)).get
    return list(map(own, vertices, vertices)), [tuple(map(own, s, s)) for s in maximal]

def read_simplicial(payload) -> tuple:
    """(sorted vertex labels, the simplices as rank tuples by size, checked
    generators, the subcomplex's vertices and maximal simplices or None) of
    a simplicial payload; see simplicial.rank_simplices.  The subcomplex's
    simplices are checked when it is built."""
    ctx = "simplicial system"
    vertices, maximal = _vertex_lists(payload, ctx)
    gens = [_as_list(g, "%s: generator", ctx)
            for g in _as_list(payload.get("generators", []), f"{ctx}: generators")]
    sub = None
    if payload.get("subcomplex") is not None:
        sub = _vertex_lists(payload["subcomplex"], "subcomplex", vertices)
    with _parsing(ctx):
        gens, _ = check_generators(gens, len(set(vertices)))
    return (*rank_simplices(vertices, map(tuple, maximal)), gens, sub)

def build_simplicial(lists):
    """Returns (GSimplicialComplex, subcomplex or None).  The group is not
    closed: the orbit table reads the generators alone."""
    names, levels, gens, sub = lists
    K = SimplicialComplex(names, closure(len(names), levels), ranked=True)
    gk = GSimplicialComplex(K, [(g, g) for g in gens])
    return gk, None if sub is None else SimplicialComplex(*sub)


# -- the packaged corpus ------------------------------------------------------

def _corpus_root():
    return resources.files("orbimorse").joinpath("corpus")

def corpus_names() -> list[str]:
    return sorted(p.name[:-5] for p in _corpus_root().iterdir()
                  if p.name.endswith(".json"))

def load_corpus(name: str) -> InstanceFile:
    f = _corpus_root().joinpath(name + ".json")
    if not f.is_file():
        raise ParseError(f"no corpus instance named {name!r}")
    try:
        doc = json.loads(f.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:
        raise ParseError(f"corpus {name!r}: not valid JSON ({e})") from None
    return instance_from_dict(doc, ctx=f"corpus {name!r}")


# -- reports ------------------------------------------------------------------

class Report:
    """Ordered key/value rows, printable as text lines or CSV.  Values keep
    their types until printed: booleans print as yes/no and Betti tuples as
    comma-joined numbers; rows are formatted one at a time as written."""

    def __init__(self, *rows):
        self.rows: list[tuple[str, object]] = list(rows)

    def add(self, key, value):
        self.rows.append((key, value))

    @staticmethod
    def text(value) -> str:
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, tuple):
            return ",".join(str(x) for x in value)
        return str(value)

    def emit(self, fmt: str):
        rows = ((k, self.text(v)) for k, v in self.rows)
        if fmt == "csv":
            out = csv.writer(sys.stdout, lineterminator="\n")
            out.writerow(("key", "value"))
            out.writerows(rows)
        else:
            sys.stdout.writelines(f"{k}: {v}\n" for k, v in rows)


# -- the kinds: build, validate, homology ---------------------------------------

def _invalid(rep, key, value) -> int:
    rep.add("valid", False)
    rep.add(key, value)
    return EXIT_INVALID

def _witness(conv, top, bot, val) -> str:
    return f"{conv}: boundary squared sends {top} to {val} * {bot}"

def _boundary(s: OrbifoldMorseSystem, conv: str):
    return boundary_plus(s) if conv == "plus" else boundary_minus(s)

def _validate_global(rep, s, self_indexing=True) -> int:
    r = validate_system(s)
    rep.add("valid", r.ok)
    if self_indexing and r.self_indexing is not None:
        rep.add("self_indexing", r.self_indexing)
    for v in r.violations:
        rep.add("violation", v)
    return EXIT_OK if r.ok else EXIT_INVALID

def _homology_global(rep, conv, s) -> int:
    r = validate_system(s)
    if not r.ok:
        return _invalid(rep, "detail", r.summary())
    for o in classify(s):
        status = "orientable" if o.orientable else "discarded"
        rep.add("orbit", f"{o.rep} index={o.index} iso={o.iso_order} {status}")
    rep.add("convention", conv)
    rep.add("betti_manifold", betti(s.manifold_complex()))
    rep.add("betti_invariant", betti(_boundary(derive_intrinsic(s), conv)))
    return EXIT_OK

def _validate_intrinsic(rep, s) -> int:
    d = verify_d_squared(s)
    rep.add("valid", d.ok)
    for w in d.witnesses:
        rep.add("witness", _witness(*w))
    return EXIT_OK if d.ok else EXIT_INVALID

def _homology_intrinsic(rep, conv, s) -> int:
    """Each convention's kept complex is squared once, for its verdict here
    and for betti; the first witness is verify_d_squared's first."""
    for c in ("plus", "minus"):
        ok, witness = verify_complex(_boundary(s, c))
        if not ok:
            _, bot, top, val = witness
            return _invalid(rep, "witness", _witness(c, top, bot, val))
    rep.add("convention", conv)
    rep.add("betti", betti(_boundary(s, conv)))
    return EXIT_OK

def _validate_simplicial(rep, gk, sub) -> int:
    rep.add("regular", is_regular(gk))
    try:
        quotient(gk, sub)
        rep.add("quotient", "simplicial")
    except NotRegular as e:
        rep.add("quotient", f"needs subdivision: {e}")
    return EXIT_OK

def _homology_simplicial(rep, conv, gk, sub) -> int:
    rounds, q = regularize(gk, sub)
    rep.add("rounds", rounds)
    rep.add("betti", homology(q.complex))
    rep.add("betti_invariant", invariant_homology(gk))
    if sub is not None:
        rep.add("betti_rel", homology(q.complex, q.part))
        rep.add("betti_invariant_rel", invariant_homology(gk, sub))
    return EXIT_OK

def _validate_comparison(rep, s, gk) -> int:
    code = _validate_global(rep, s, self_indexing=False)
    rep.add("triangulation", "ok")
    return code

def _homology_comparison(rep, conv, s, gk) -> int:
    r = validate_system(s)
    if not r.ok:
        return _invalid(rep, "detail", r.summary())
    cr = compare(s, gk)
    rep.add("betti_morse", cr.morse_betti)
    rep.add("betti_quotient", cr.quotient_betti)
    rep.add("rounds", cr.rounds)
    rep.add("equal", cr.equal)
    return EXIT_OK if cr.equal else EXIT_MISMATCH

def _orbit_counts(rows) -> dict:
    status = [v.rsplit(" ", 1)[1] for k, v in rows if k == "orbit"]
    return {"orientable_orbits": status.count("orientable"),
            "discarded": status.count("discarded")}

class Kind(NamedTuple):
    payload: dict         # key of each JSON object an instance carries -> reader
    build: Callable       # one read payload per payload key -> tuple of objects
    validate: Callable    # (report, *objects) -> exit code
    homology: Callable    # (report, convention, *objects) -> exit code
    aliases: dict = {}    # corpus expectation key -> report row key
    counts: Callable = lambda rows: {}  # report rows -> counted expectations

# The builders are looked up as module globals at call time, so rebinding
# one (as perfbench/tracer.py does) reaches every kind that uses it.
KINDS = {
    "global_quotient": Kind(
        {"system": read_global}, lambda r: (build_global(r),),
        _validate_global, _homology_global, counts=_orbit_counts),
    "intrinsic": Kind(
        {"system": read_intrinsic}, lambda r: (build_intrinsic(r),),
        _validate_intrinsic, _homology_intrinsic,
        {"dsq_ok": "valid", "betti_plus": "betti"}),
    "simplicial": Kind(
        {"system": read_simplicial}, lambda r: build_simplicial(r),
        _validate_simplicial, _homology_simplicial),
    "comparison": Kind(
        {"morse": read_global, "triangulation": read_simplicial},
        lambda m, t: (build_global(m), build_simplicial(t)[0]),
        _validate_comparison, _homology_comparison,
        {"betti": "betti_quotient"}),
}


# -- subcommands ---------------------------------------------------------------

def _built(path, command=None) -> tuple:
    """(kind, name, built objects) of the instance file at path.  The
    document is dropped as load_instance returns, and the read payloads as
    this does."""
    kind, name, payloads = load_instance(path, command)
    return kind, name, KINDS[kind].build(*payloads)

def cmd_report(args) -> int:
    """validate, homology and compare (homology of comparisons only): build
    the instance once, run the step its kind gives and print the rows."""
    kind, name, objs = _built(args.path, args.command)
    rep = Report(("kind", kind), ("name", name))
    code = (KINDS[kind].validate(rep, *objs) if args.command == "validate" else
            KINDS[kind].homology(rep, getattr(args, "convention", "plus"), *objs))
    rep.emit(args.format)
    return code

def cmd_derive(args) -> int:
    _, name, (s,) = _built(args.path, "derive")
    r = validate_system(s)
    if not r.ok:
        print(f"error: {r.summary()}", file=sys.stderr)
        return EXIT_INVALID
    derived = derive_intrinsic(s)
    out = InstanceFile(
        kind="intrinsic",
        metadata={"name": f"{name}_derived",
                  "description": f"invariant system of {name}"},
        body={"system": intrinsic_payload(derived)})
    save_instance(out, args.out)
    rep = Report(("written", args.out), ("points", len(derived.labels)),
                 ("flows", len(derived.flow_labels)))
    for o in discarded_orbits(s):
        rep.add("discarded", f"{o.rep} index={o.index} iso={o.iso_order}")
    rep.emit(args.format)
    return EXIT_OK

def run_expectations(inst: InstanceFile) -> list[str]:
    """Check the instance's expected results against the rows validate and
    homology (plus convention) report for it; returns failure strings."""
    kind = KINDS[inst.kind]
    objs = kind.build(*read_payloads(inst))
    rep = Report()
    kind.validate(rep, *objs)
    kind.homology(rep, "plus", *objs)
    got = dict(rep.rows, **kind.counts(rep.rows))
    fails = []
    for key, want in inst.metadata.get("expected", {}).items():
        value = got.get(kind.aliases.get(key, key))
        value = list(value) if isinstance(value, tuple) else value
        if value != want:
            fails.append(f"{key}: expected {want}, got {value}")
    return fails

def cmd_corpus(args) -> int:
    if args.action == "list":
        for name in corpus_names():
            inst = load_corpus(name)
            desc = inst.metadata.get("description", "")
            print(f"{name}: {inst.kind}: {desc}")
        return EXIT_OK

    names = [args.name] if args.name else corpus_names()
    failed = False
    for name in names:
        inst = load_corpus(name)
        fails = run_expectations(inst)
        if fails:
            failed = True
            print(f"{name}: FAIL ({'; '.join(fails)})")
        else:
            print(f"{name}: pass")
    return EXIT_MISMATCH if failed else EXIT_OK


# -- entry point ----------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orbimorse",
        description="Exact homology of quotient and intrinsic orbifold "
                    "Morse systems.")
    sub = p.add_subparsers(dest="command", required=True)
    commands = (
        ("validate", cmd_report, "check an instance against the laws", ()),
        ("homology", cmd_report, "betti numbers of an instance", ()),
        ("derive", cmd_derive,
         "write the derived intrinsic system of a quotient", ("out",)),
        ("compare", cmd_report,
         "invariant Morse homology against a triangulated quotient", ()))
    for name, func, help_, extra in commands:
        sp = sub.add_parser(name, help=help_)
        for arg in ("path", *extra):
            sp.add_argument(arg)
        if name == "homology":
            sp.add_argument("--convention", choices=("plus", "minus"),
                            default="plus",
                            help="boundary weighting (default plus)")
        sp.add_argument("--format", choices=("text", "csv"), default="text",
                        help="report format (default text)")
        sp.set_defaults(func=func)
    k = sub.add_parser("corpus", help="list or run the packaged instances")
    k.add_argument("action", choices=("list", "run"))
    k.add_argument("name", nargs="?")
    k.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OrbimorseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
