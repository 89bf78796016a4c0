"""Command line front end and the JSON instance format.

An instance file is a single JSON object:

    {"kind": ..., "metadata": {...}, ...payload...}

Kinds and their payload keys:

  global_quotient   "system": ground generators of a permutation group plus
                    critical points, per-generator images and cocycle signs,
                    and flows with their images
  intrinsic         "system": weighted critical points and flow classes
  simplicial        "system": vertices, maximal simplices, generator
                    permutations of the sorted vertex list, and an optional
                    "subcomplex" for relative homology
  comparison        "morse": a global_quotient system, "triangulation": a
                    simplicial system

Rational values are strings like "3/2" (or plain integers).  Serialization
is canonical: sorted keys, two-space indent, trailing newline, so instance
files round-trip byte for byte.

Exit codes: 0 success, 2 validation failure, 3 theorem or expectation
mismatch, 4 unreadable or malformed input.  The environment variable
ORBIMORSE_GROUP_CAP bounds group closure sizes.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .chaincx import betti
from .errors import (
    MalformedPermutation,
    MalformedSystem,
    OrbimorseError,
    ParseError,
    SystemNotValid,
)
from .groups import DEFAULT_CAP, GroupAction, generate_group
from .intrinsic import (
    IntrinsicFlow,
    IntrinsicPoint,
    OrbifoldMorseSystem,
    boundary_minus,
    boundary_plus,
    verify_d_squared,
)
from .quotient import (
    CritPoint,
    EquivariantMorseSystem,
    Flow,
    classify,
    derive_intrinsic,
    discarded_orbits,
    invariant_boundary,
    validate_system,
)
from .simplicial import (
    GSimplicialComplex,
    NotRegular,
    SimplicialComplex,
    compare,
    homology,
    invariant_homology,
    is_regular,
    quotient,
    regularize,
)

KINDS = ("global_quotient", "intrinsic", "simplicial", "comparison")

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MISMATCH = 3
EXIT_PARSE = 4


# -- low level parsing helpers ---------------------------------------------

def _req(d, key, ctx):
    if not isinstance(d, dict) or key not in d:
        raise ParseError(f"{ctx}: missing {key!r}")
    return d[key]

def _as_int(v, ctx):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{ctx}: expected an integer, got {v!r}")
    return v

def _as_str(v, ctx):
    if not isinstance(v, str):
        raise ParseError(f"{ctx}: expected a string, got {v!r}")
    return v

def _as_list(v, ctx):
    if not isinstance(v, list):
        raise ParseError(f"{ctx}: expected a list")
    return v

def _as_fraction(v, ctx):
    if isinstance(v, bool):
        raise ParseError(f"{ctx}: expected a rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{ctx}: {v!r} is not a rational") from None
    raise ParseError(f"{ctx}: expected a rational, got {v!r}")

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


# -- instance files ----------------------------------------------------------

@dataclass
class InstanceFile:
    kind: str
    metadata: dict
    body: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.metadata.get("name", "?")

_PAYLOAD_KEYS = {
    "global_quotient": ("system",),
    "intrinsic": ("system",),
    "simplicial": ("system",),
    "comparison": ("morse", "triangulation"),
}

def instance_from_dict(doc, ctx="instance") -> InstanceFile:
    if not isinstance(doc, dict):
        raise ParseError(f"{ctx}: top level must be an object")
    kind = _req(doc, "kind", ctx)
    if kind not in KINDS:
        raise ParseError(f"{ctx}: unknown kind {kind!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{ctx}: metadata must be an object")
    body = {}
    for key in _PAYLOAD_KEYS[kind]:
        payload = _req(doc, key, f"{ctx} ({kind})")
        if not isinstance(payload, dict):
            raise ParseError(f"{ctx}: {key!r} must be an object")
        body[key] = payload
    return InstanceFile(kind=kind, metadata=metadata, body=body)

def load_instance(path) -> InstanceFile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path}: not valid JSON ({e})") from None
    return instance_from_dict(doc, ctx=str(path))

def instance_to_text(inst: InstanceFile) -> str:
    doc = {"kind": inst.kind, "metadata": inst.metadata}
    doc.update(inst.body)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

def save_instance(inst: InstanceFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(instance_to_text(inst))


# -- builders: payload dict -> objects ---------------------------------------

def build_global(payload) -> EquivariantMorseSystem:
    ctx = "global_quotient system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    degree = _as_int(_req(payload, "degree", ctx), f"{ctx}: degree")
    gens = [tuple(_as_list(g, f"{ctx}: generator")) for g in
            _as_list(_req(payload, "generators", ctx), f"{ctx}: generators")]

    crit, labels = [], set()
    for c in _as_list(_req(payload, "crit_points", ctx), f"{ctx}: crit_points"):
        label = _as_str(_req(c, "label", "critical point"), "critical point label")
        if label in labels:
            raise ParseError(f"{ctx}: duplicate critical point {label!r}")
        labels.add(label)
        index = _as_int(_req(c, "index", f"point {label!r}"), f"point {label!r}: index")
        value = None
        if c.get("value") is not None:
            value = _as_fraction(c["value"], f"point {label!r}: value")
        crit.append(CritPoint(label=label, index=index, value=value))

    flows, flow_labels = [], set()
    for f in _as_list(_req(payload, "flows", ctx), f"{ctx}: flows"):
        label = _as_str(_req(f, "label", "flow"), "flow label")
        if label in flow_labels:
            raise ParseError(f"{ctx}: duplicate flow {label!r}")
        flow_labels.add(label)
        src = _as_str(_req(f, "src", f"flow {label!r}"), f"flow {label!r}: src")
        dst = _as_str(_req(f, "dst", f"flow {label!r}"), f"flow {label!r}: dst")
        for end in (src, dst):
            if end not in labels:
                raise ParseError(f"flow {label!r}: unknown endpoint {end!r}")
        sign = _as_int(_req(f, "sign", f"flow {label!r}"), f"flow {label!r}: sign")
        flows.append(Flow(label=label, src=src, dst=dst, sign=sign))

    def per_generator(key):
        arr = _as_list(_req(payload, key, ctx), f"{ctx}: {key}")
        if len(arr) != len(gens):
            raise ParseError(f"{ctx}: {key} needs one entry per generator")
        return [tuple(_as_list(a, f"{ctx}: {key}[{i}]")) for i, a in enumerate(arr)]

    crit_images = per_generator("crit_images")
    crit_signs = per_generator("crit_signs")
    flow_images = per_generator("flow_images")
    try:
        return EquivariantMorseSystem.from_generator_data(
            generators=gens, degree=degree,
            cap=_group_cap(), crit_points=crit, crit_images=crit_images,
            crit_signs=crit_signs, flows=flows, flow_images=flow_images,
            ambient_dim=ambient)
    except (MalformedPermutation, MalformedSystem) as e:
        raise ParseError(f"{ctx}: {e}") from None

def build_intrinsic(payload) -> OrbifoldMorseSystem:
    ctx = "intrinsic system"
    ambient = _as_int(_req(payload, "ambient_dim", ctx), f"{ctx}: ambient_dim")
    points, labels = [], set()
    for p in _as_list(_req(payload, "points", ctx), f"{ctx}: points"):
        label = _as_str(_req(p, "label", "point"), "point label")
        if label in labels:
            raise ParseError(f"{ctx}: duplicate point {label!r}")
        labels.add(label)
        orientable = p.get("orientable", True)
        if not isinstance(orientable, bool):
            raise ParseError(
                f"point {label!r}: orientable must be true or false, got {orientable!r}")
        points.append(IntrinsicPoint(
            label=label,
            index=_as_int(_req(p, "index", f"point {label!r}"), "index"),
            iso_order=_as_int(_req(p, "iso_order", f"point {label!r}"), "iso_order"),
            orientable=orientable))
    flows = []
    for f in _as_list(_req(payload, "flows", ctx), f"{ctx}: flows"):
        label = _as_str(_req(f, "label", "flow"), "flow label")
        src = _as_str(_req(f, "src", f"flow {label!r}"), "src")
        dst = _as_str(_req(f, "dst", f"flow {label!r}"), "dst")
        for end in (src, dst):
            if end not in labels:
                raise ParseError(f"flow {label!r}: unknown endpoint {end!r}")
        flows.append(IntrinsicFlow(
            label=label, src=src, dst=dst,
            iso_order=_as_int(_req(f, "iso_order", f"flow {label!r}"), "iso_order"),
            sign=_as_int(_req(f, "sign", f"flow {label!r}"), "sign")))
    return OrbifoldMorseSystem(ambient_dim=ambient, crit_points=points,
                               flows=flows)

def intrinsic_payload(s: OrbifoldMorseSystem) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "points": [{"label": p.label, "index": p.index,
                    "iso_order": p.iso_order, "orientable": p.orientable}
                   for p in s.crit],
        "flows": [{"label": f.label, "src": f.src, "dst": f.dst,
                   "iso_order": f.iso_order, "sign": f.sign}
                  for f in s.flows],
    }

def _vertex_lists(payload, ctx, known=()):
    """Vertices and maximal simplices, labels all integers or all strings."""
    vertices = _as_list(_req(payload, "vertices", ctx), f"{ctx}: vertices")
    maximal = [tuple(_as_list(s, f"{ctx}: simplex"))
               for s in _as_list(_req(payload, "maximal", ctx), f"{ctx}: maximal")]
    kinds = {type(x) for x in [*known, *vertices, *(x for s in maximal for x in s)]}
    if len(kinds) > 1 or not kinds <= {int, str}:
        raise ParseError(f"{ctx}: vertex labels must be all integers or all strings")
    return vertices, maximal

def build_simplicial(payload):
    """Returns (GSimplicialComplex, subcomplex or None)."""
    ctx = "simplicial system"
    vertices, maximal = _vertex_lists(payload, ctx)
    K = SimplicialComplex(vertices, maximal)
    gens = [tuple(_as_list(g, f"{ctx}: generator"))
            for g in _as_list(payload.get("generators", []), f"{ctx}: generators")]
    try:
        group = generate_group(gens, degree=len(K.vertices), cap=_group_cap())
    except MalformedPermutation as e:
        raise ParseError(f"{ctx}: {e}") from None
    action = GroupAction(group, K.vertices, {g: g for g in group.elements})
    gk = GSimplicialComplex(K, group, action)
    sub = None
    if payload.get("subcomplex") is not None:
        sub = SimplicialComplex(
            *_vertex_lists(payload["subcomplex"], "subcomplex", vertices))
    return gk, sub


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
    except json.JSONDecodeError as e:
        raise ParseError(f"corpus {name!r}: not valid JSON ({e})") from None
    return instance_from_dict(doc, ctx=f"corpus {name!r}")


# -- reports ------------------------------------------------------------------

class Report:
    """Ordered key/value rows, printable as text lines or CSV."""

    def __init__(self):
        self.rows: list[tuple[str, str]] = []

    def add(self, key, value):
        self.rows.append((str(key), str(value)))

    def emit(self, fmt: str, out=None):
        out = out or sys.stdout
        if fmt == "csv":
            w = csv.writer(out, lineterminator="\n")
            w.writerow(["key", "value"])
            w.writerows(self.rows)
        else:
            for k, v in self.rows:
                out.write(f"{k}: {v}\n")

def _fmt_betti(b) -> str:
    return ",".join(str(x) for x in b)


# -- subcommands ---------------------------------------------------------------

def cmd_validate(args) -> int:
    inst = load_instance(args.path)
    rep = Report()
    rep.add("kind", inst.kind)
    rep.add("name", inst.name)
    code = EXIT_OK

    if inst.kind == "global_quotient":
        s = build_global(inst.body["system"])
        r = validate_system(s)
        rep.add("valid", "yes" if r.ok else "no")
        if r.self_indexing is not None:
            rep.add("self_indexing", "yes" if r.self_indexing else "no")
        for v in r.violations:
            rep.add("violation", f"{v.law}: {v.detail}")
        code = EXIT_OK if r.ok else EXIT_INVALID
    elif inst.kind == "intrinsic":
        s = build_intrinsic(inst.body["system"])
        d = verify_d_squared(s)
        rep.add("valid", "yes" if d.ok else "no")
        for conv, top, bot, val in d.witnesses:
            rep.add("witness",
                    f"{conv}: boundary squared sends {top} to {val} * {bot}")
        code = EXIT_OK if d.ok else EXIT_INVALID
    elif inst.kind == "simplicial":
        gk, sub = build_simplicial(inst.body["system"])
        rep.add("regular", "yes" if is_regular(gk) else "no")
        try:
            quotient(gk, sub)
            rep.add("quotient", "simplicial")
        except NotRegular as e:
            rep.add("quotient", f"needs subdivision: {e}")
    else:
        s = build_global(inst.body["morse"])
        r = validate_system(s)
        rep.add("valid", "yes" if r.ok else "no")
        for v in r.violations:
            rep.add("violation", f"{v.law}: {v.detail}")
        build_simplicial(inst.body["triangulation"])
        rep.add("triangulation", "ok")
        code = EXIT_OK if r.ok else EXIT_INVALID

    rep.emit(args.format)
    return code


def cmd_homology(args) -> int:
    inst = load_instance(args.path)
    conv = args.convention
    rep = Report()
    rep.add("kind", inst.kind)
    rep.add("name", inst.name)

    if inst.kind == "global_quotient":
        s = build_global(inst.body["system"])
        r = validate_system(s)
        if not r.ok:
            rep.add("valid", "no")
            rep.add("detail", r.summary())
            rep.emit(args.format)
            return EXIT_INVALID
        for o in classify(s):
            status = "orientable" if o.orientable else "discarded"
            rep.add("orbit", f"{o.rep} index={o.index} iso={o.iso_order} {status}")
        derived = derive_intrinsic(s)
        cx = boundary_plus(derived) if conv == "plus" else boundary_minus(derived)
        rep.add("convention", conv)
        rep.add("betti_manifold", _fmt_betti(betti(s.manifold_complex())))
        rep.add("betti_invariant", _fmt_betti(betti(cx)))
    elif inst.kind == "intrinsic":
        s = build_intrinsic(inst.body["system"])
        d = verify_d_squared(s)
        if not d.ok:
            rep.add("valid", "no")
            conv0, top, bot, val = d.witnesses[0]
            rep.add("witness",
                    f"{conv0}: boundary squared sends {top} to {val} * {bot}")
            rep.emit(args.format)
            return EXIT_INVALID
        cx = boundary_plus(s) if conv == "plus" else boundary_minus(s)
        rep.add("convention", conv)
        rep.add("betti", _fmt_betti(betti(cx)))
    elif inst.kind == "simplicial":
        gk, sub = build_simplicial(inst.body["system"])
        _, _, rounds, q = regularize(gk, sub)
        rep.add("rounds", rounds)
        rep.add("betti", _fmt_betti(homology(q.complex)))
        rep.add("betti_invariant", _fmt_betti(invariant_homology(gk)))
        if sub is not None:
            rep.add("betti_rel", _fmt_betti(homology(q.complex, q.sub)))
            rep.add("betti_invariant_rel", _fmt_betti(invariant_homology(gk, sub)))
    else:
        return _compare_instance(inst, args.format)

    rep.emit(args.format)
    return EXIT_OK


def cmd_derive(args) -> int:
    inst = load_instance(args.path)
    if inst.kind != "global_quotient":
        raise ParseError("derive expects a global_quotient instance")
    s = build_global(inst.body["system"])
    r = validate_system(s)
    if not r.ok:
        print(f"error: {r.summary()}", file=sys.stderr)
        return EXIT_INVALID
    derived = derive_intrinsic(s)
    out = InstanceFile(
        kind="intrinsic",
        metadata={"name": f"{inst.name}_derived",
                  "description": f"invariant system of {inst.name}"},
        body={"system": intrinsic_payload(derived)})
    save_instance(out, args.out)
    rep = Report()
    rep.add("written", args.out)
    rep.add("points", len(derived.crit))
    rep.add("flows", len(derived.flows))
    for o in discarded_orbits(s):
        rep.add("discarded", f"{o.rep} index={o.index} iso={o.iso_order}")
    rep.emit(args.format)
    return EXIT_OK


def _compare_instance(inst: InstanceFile, fmt: str) -> int:
    s = build_global(inst.body["morse"])
    r = validate_system(s)
    rep = Report()
    rep.add("kind", inst.kind)
    rep.add("name", inst.name)
    if not r.ok:
        rep.add("valid", "no")
        rep.add("detail", r.summary())
        rep.emit(fmt)
        return EXIT_INVALID
    gk, _ = build_simplicial(inst.body["triangulation"])
    cr = compare(s, gk)
    rep.add("betti_morse", _fmt_betti(cr.morse_betti))
    rep.add("betti_quotient", _fmt_betti(cr.quotient_betti))
    rep.add("rounds", cr.rounds)
    rep.add("equal", "yes" if cr.equal else "no")
    rep.emit(fmt)
    return EXIT_OK if cr.equal else EXIT_MISMATCH


def cmd_compare(args) -> int:
    inst = load_instance(args.path)
    if inst.kind != "comparison":
        raise ParseError("compare expects a comparison instance")
    return _compare_instance(inst, args.format)


def run_expectations(inst: InstanceFile) -> list[str]:
    """Evaluate the instance's expected results; returns failure strings."""
    exp = inst.metadata.get("expected", {})
    fails: list[str] = []

    def chk(key, actual):
        if key not in exp:
            return
        want = exp[key]
        got = list(actual) if isinstance(actual, tuple) else actual
        if got != want:
            fails.append(f"{key}: expected {want}, got {got}")

    if inst.kind == "global_quotient":
        s = build_global(inst.body["system"])
        r = validate_system(s)
        chk("valid", r.ok)
        if r.ok:
            chk("betti_manifold", betti(s.manifold_complex()))
            chk("betti_invariant", betti(invariant_boundary(s)))
            chk("orientable_orbits",
                sum(1 for o in classify(s) if o.orientable))
            chk("discarded", len(discarded_orbits(s)))
    elif inst.kind == "intrinsic":
        s = build_intrinsic(inst.body["system"])
        d = verify_d_squared(s)
        chk("dsq_ok", d.ok)
        if d.ok:
            chk("betti_plus", betti(boundary_plus(s)))
    elif inst.kind == "simplicial":
        gk, sub = build_simplicial(inst.body["system"])
        chk("regular", is_regular(gk))
        _, _, rounds, q = regularize(gk, sub)
        chk("rounds", rounds)
        chk("betti", homology(q.complex))
        chk("betti_invariant", invariant_homology(gk))
        if sub is not None:
            chk("betti_rel", homology(q.complex, q.sub))
            chk("betti_invariant_rel", invariant_homology(gk, sub))
    else:
        s = build_global(inst.body["morse"])
        gk, _ = build_simplicial(inst.body["triangulation"])
        cr = compare(s, gk)
        chk("equal", cr.equal)
        chk("rounds", cr.rounds)
        chk("betti", cr.quotient_betti)
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

    def common(sp):
        sp.add_argument("--format", choices=("text", "csv"), default="text",
                        help="report format (default text)")

    v = sub.add_parser("validate", help="check an instance against the laws")
    v.add_argument("path")
    common(v)
    v.set_defaults(func=cmd_validate)

    h = sub.add_parser("homology", help="betti numbers of an instance")
    h.add_argument("path")
    h.add_argument("--convention", choices=("plus", "minus"), default="plus",
                   help="boundary weighting (default plus)")
    common(h)
    h.set_defaults(func=cmd_homology)

    d = sub.add_parser("derive",
                       help="write the derived intrinsic system of a quotient")
    d.add_argument("path")
    d.add_argument("out")
    common(d)
    d.set_defaults(func=cmd_derive)

    c = sub.add_parser("compare",
                       help="invariant Morse homology against a triangulated "
                            "quotient")
    c.add_argument("path")
    common(c)
    c.set_defaults(func=cmd_compare)

    k = sub.add_parser("corpus", help="list or run the packaged instances")
    k.add_argument("action", choices=("list", "run"))
    k.add_argument("name", nargs="?")
    k.set_defaults(func=cmd_corpus)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except SystemNotValid as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OrbimorseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
