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
payload with its kind's reader (a Morse system's reads each entry list a
column at a time, as one field table says, into the columns the system
keeps, endpoints as point numbers, and derive writes from the same tables;
a simplicial one ranks each simplex into a tuple of vertex ranks) and
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
from operator import itemgetter, methodcaller
from typing import Callable, NamedTuple

from .chaincx import betti
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

def _as_bool(v, ctx, *args):
    if not isinstance(v, bool):
        raise ParseError(f"{_where(ctx, args)} must be true or false, got {v!r}")
    return v

def _as_fraction(v, ctx, *args):
    """None, for no value, an integer or a string such as "3/2" or "-7"; an
    exponent is refused, since Fraction("1e10000000") alone takes seconds,
    and so is a decimal point, since a long decimal gives a denominator too
    long to print."""
    if v is None:
        return v
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

def load_instance(path, command=None) -> tuple:
    """(kind, name, payloads) of the instance file at path, each payload
    read by its kind's reader, after a command named in ACCEPTS has refused
    any other kind.  The document is dropped when this returns, so no
    command holds it while it builds; the file is closed, and its text
    dropped, as soon as each is read."""
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
    return inst.kind, inst.metadata.get("name", "?"), [
        read(inst.body[key]) for key, read in KINDS[inst.kind].payload.items()]

def instance_to_text(inst: InstanceFile) -> str:
    doc = {"kind": inst.kind, "metadata": inst.metadata}
    doc.update(inst.body)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- readers: payload dict -> columns or rows; builders: those -> objects -----

# The entry lists of the Morse payloads: the list's key, the nouns its
# messages use for a label and for an entry, and its fields in the order
# they are checked, each (key, reader) or (key, reader, default) where it
# may be left out.  The first field is the label.
CRIT_POINTS = ("crit_points", "critical point", "point", (
    ("label", _as_str), ("index", _as_int), ("value", _as_fraction, None)))
GLOBAL_FLOWS = ("flows", "flow", "flow", (
    ("label", _as_str), ("src", _as_str), ("dst", _as_str), ("sign", _as_int)))
POINTS = ("points", "point", "point", (
    ("label", _as_str), ("orientable", _as_bool, True), ("index", _as_int),
    ("iso_order", _as_int)))
FLOWS = ("flows", "flow", "flow", (
    ("label", _as_str), ("src", _as_str), ("dst", _as_str),
    ("iso_order", _as_int), ("sign", _as_int)))

#: The value types each reader passes as they are; a column holding any
#: other type is read value by value, which converts it or raises.
_TYPES = {_as_str: {str}, _as_int: {int}, _as_bool: {bool},
          _as_fraction: {type(None)}}

def _entries(payload, ctx, table) -> list:
    """The columns of table's entry list in payload, one per field, each
    read whole.  Where one fails, the entries are walked one at a time,
    fields in order, and the parse error of the first bad field of the first
    bad entry is raised."""
    key, noun, what, fields = table
    entries = _as_list(_req(payload, key, ctx), f"{ctx}: {key}")
    try:
        columns = []
        for name, read, *default in fields:
            column = list(map(methodcaller("get", name, *default) if default
                              else itemgetter(name), entries))
            if not {*map(type, column)} <= _TYPES[read]:
                column = [read(v, name) for v in column]
            columns.append(column)
        return columns
    except (LookupError, TypeError, AttributeError, ParseError):
        pass   # an entry is not an object, or a field is missing or bad
    (key, read), *rest = fields
    for e in entries:
        label = read(_req(e, key, noun), f"{noun} {key}")
        for name, check, *default in rest:
            check(e.get(name, *default) if default else
                  _req(e, name, "%s %r", what, label), "%s %r: %s", what, label, name)

def _numbered(labels, flows) -> list:
    """The flow columns with src and dst as point numbers; an endpoint no
    point has stays its label, for the system to name."""
    number = dict(zip(labels, range(len(labels)))).get
    src, dst = flows[1:3]
    flows[1:3] = list(map(number, src, src)), list(map(number, dst, dst))
    return flows

def read_global(payload) -> dict:
    """The keyword arguments of EquivariantMorseSystem.from_generator_data
    in a global_quotient payload: the point columns (labels, index, value)
    of CRIT_POINTS and the flow columns (flow_labels, src, dst, sign) of
    GLOBAL_FLOWS, endpoints as point numbers."""
    ctx = "global_quotient system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    degree = _as_int(_req(payload, "degree", ctx), f"{ctx}: degree")
    gens = [tuple(_as_list(g, "%s: generator", ctx)) for g in
            _as_list(_req(payload, "generators", ctx), f"{ctx}: generators")]
    points = _entries(payload, ctx, CRIT_POINTS)
    flows = _numbered(points[0], _entries(payload, ctx, GLOBAL_FLOWS))

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
    the point columns of POINTS and the flow columns of FLOWS, endpoints as
    point numbers."""
    ctx = "intrinsic system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    labels, orientable, index, iso_order = _entries(payload, ctx, POINTS)
    return dict(ambient_dim=ambient, points=(labels, index, iso_order, orientable),
                flows=_numbered(labels, _entries(payload, ctx, FLOWS)))

def build_intrinsic(args) -> OrbifoldMorseSystem:
    with _parsing("intrinsic system"):
        return OrbifoldMorseSystem(**args)

def _dicts(table, *columns) -> list:
    """The entries of table's list from its columns, keyed by its fields."""
    keys = [field[0] for field in table[3]]
    return [dict(zip(keys, entry)) for entry in zip(*columns)]

def intrinsic_payload(s: OrbifoldMorseSystem) -> dict:
    """The intrinsic payload of s, its entries keyed as POINTS and FLOWS
    read them."""
    labels = s.labels
    return {"ambient_dim": s.ambient_dim,
            "points": _dicts(POINTS, labels, s.orientable, s.index, s.iso_order),
            "flows": _dicts(FLOWS, s.flow_labels, [labels[a] for a in s.src],
                            [labels[b] for b in s.dst], s.flow_iso, s.sign)}

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
    """Each kept complex is squared once, for verify_d_squared and betti."""
    d = verify_d_squared(s)
    if not d.ok:
        return _invalid(rep, "witness", _witness(*d.witnesses[0]))
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
    rounds, quotient_complex, relative = regularize(gk, sub)
    rep.add("rounds", rounds)
    rep.add("betti", betti(quotient_complex))
    rep.add("betti_invariant", invariant_homology(gk))
    if sub is not None:
        rep.add("betti_rel", betti(relative))
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
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(out))
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
    objs = kind.build(*(read(inst.body[key]) for key, read in kind.payload.items()))
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
