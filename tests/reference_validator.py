"""Full scans of the per-element tables: the references the generator-row
code of orbimorse.quotient must match.

tables(s) gives a system's point action, tau table and flow action over
every element of G: a TableSystem's hand-written ones, or else the rows
composed along generate_group's right multiplications, (gs).x = g.(s.x) and
tau(gs, x) = tau(g, s.x) tau(s, x), never through the package's walk.

reference_violations checks index, endpoint, sign and value equivariance
for every g in G, with no gating, and compatibility and the cocycle law on
the generators of the system's rows times G.  It lists violations in the order
orbimorse.quotient.validate_system promises: law by law, and within a law
in the order of the element table, then of the points or flows.

reference_classify, reference_gauge and reference_derive compute the orbit
classification, the canonical gauge and the derived system by scanning
stabilizers and the element table: the oracle for the orbit scan of
orbimorse.quotient.  They read the system's points and flows as records,
CritPoint and Flow, rebuilt from its columns by points(s) and flows(s);
tests build systems from the same rows, through conftest.columns.
reference_derive gives the derived system as IntrinsicPoint and
IntrinsicFlow records, which intrinsic_rows reads off a derived system's
columns.  compose(g, h) is g after h; natural_action and image are the
group actions the tests read.

TableSystem is a system given by point and flow rows and hand-written
per-element tables, which nothing in the package builds; its rows come from
generating_set, and its walk reads the tables.
"""

from fractions import Fraction
from typing import NamedTuple, Optional

from orbimorse.chaincx import verify_complex
from orbimorse.errors import MalformedSystem
from orbimorse.groups import (GroupAction, gather, generate_group, orbits,
                              stabilizer)
from orbimorse.quotient import (
    CriticalOrbit,
    EquivariantMorseSystem,
    Violation,
    _is_sign,
)

from conftest import columns


class CritPoint(NamedTuple):
    """A critical point row of a system's input."""
    label: str
    index: int
    value: Optional[Fraction] = None


class Flow(NamedTuple):
    """A flow row of a system's input; src and dst are point labels."""
    label: str
    src: str
    dst: str
    sign: int


class IntrinsicPoint(NamedTuple):
    """A critical point row of an intrinsic system."""
    label: str
    index: int
    iso_order: int
    orientable: bool = True


class IntrinsicFlow(NamedTuple):
    """A flow class row of an intrinsic system; src and dst are labels."""
    label: str
    src: str
    dst: str
    iso_order: int
    sign: int


def compose(g, h):
    """g after h: (g h)[i] = g[h[i]]."""
    return gather(h)(g)


def natural_action(group) -> GroupAction:
    """The group acting on [0, degree) by its own permutations."""
    return GroupAction(group, range(group.degree),
                       {g: g for g in group.elements})


def image(action, g, x):
    """g.x for a point x of the action."""
    return action.points[action.image_array(g)[action.index_of[x]]]


def points(s) -> list:
    """The system's critical points as CritPoint records, by number."""
    return [CritPoint(*p) for p in zip(s.labels, s.index, s.value)]


def flows(s) -> list:
    """The system's flows as Flow records, endpoints by label, by number."""
    return [Flow(f, s.labels[a], s.labels[b], e)
            for f, a, b, e in zip(s.flow_labels, s.src, s.dst, s.sign)]


def intrinsic_rows(s) -> tuple:
    """An intrinsic system's points and flows as IntrinsicPoint and
    IntrinsicFlow records, by number, endpoints by label."""
    return (tuple(map(IntrinsicPoint, s.labels, s.index, s.iso_order,
                      s.orientable)),
            tuple(IntrinsicFlow(f, s.labels[a], s.labels[b], n, e)
                  for f, a, b, n, e in zip(s.flow_labels, s.src, s.dst,
                                           s.flow_iso, s.sign)))


def generating_set(group) -> tuple:
    """A generating set of at most log2 |G| elements, in element order.

    Walks the element table and keeps each element the kept ones do not yet
    generate, re-closing after each.  Every kept element at least doubles
    the generated subgroup, hence the bound.  The trivial group gives ().
    """
    gens = []
    reached = {group.identity}
    for g in group.elements:
        if g not in reached:
            gens.append(g)
            reached = set(generate_group(gens, degree=group.degree,
                                         cap=group.order).elements)
    return tuple(gens)


def tables(s):
    """(point action, tau table, flow action) over every element of G."""
    if isinstance(s, TableSystem):
        return s.tables
    e = s.group.identity
    pts, taus = {e: tuple(range(len(s.labels)))}, {e: (1,) * len(s.labels)}
    flws = {e: tuple(range(len(s.flow_labels)))}
    frontier = [e]
    while frontier:
        step = []
        for g in frontier:
            for h, ah, th, fh in s.rows:
                gh = compose(g, h)
                if gh not in pts:
                    pts[gh] = tuple(pts[g][x] for x in ah)
                    taus[gh] = tuple(taus[g][x] * t for x, t in zip(ah, th))
                    flws[gh] = tuple(flws[g][x] for x in fh)
                    step.append(gh)
        frontier = step
    assert set(pts) == set(s.group.elements)
    return (GroupAction(s.group, s.labels, pts), taus,
            GroupAction(s.group, s.flow_labels, flws))


def _action_witness(g, h, labels, agh, ag, ah, what):
    i = next(i for i in range(len(labels)) if agh[i] != ag[ah[i]])
    return Violation(
        "action_compatibility",
        f"g={list(g)}, h={list(h)}: gh sends {what} {labels[i]!r} to "
        f"{labels[agh[i]]!r}, g after h sends it to {labels[ag[ah[i]]]!r}")


def action_laws(s):
    """Action compatibility and the cocycle law, checked for g in the rows'
    generating set against every h, on the per-element tables."""
    G, (pa, tau, fa) = s.group, tables(s)
    labels, flow_labels = pa.points, fa.points
    compat, cocycle = [], []
    for g, ag, tg, fg in s.rows:
        for h in G:
            gh = compose(g, h)
            ah, th = pa.image_array(h), tau[h]
            agh, tgh = pa.image_array(gh), tau[gh]
            if agh != tuple(ag[x] for x in ah):
                compat.append(_action_witness(g, h, labels, agh, ag, ah, "point"))
            fh, fgh = fa.image_array(h), fa.image_array(gh)
            if fgh != tuple(fg[x] for x in fh):
                compat.append(_action_witness(g, h, flow_labels, fgh, fg, fh,
                                              "flow"))
            for i, x in enumerate(ah):
                if tgh[i] != tg[x] * th[i]:
                    cocycle.append(Violation(
                        "cocycle",
                        f"tau(gh, {labels[i]!r}) != tau(g, {labels[x]!r}) "
                        f"tau(h, {labels[i]!r}) for g={list(g)}, h={list(h)}"))
    return compat, cocycle


class TableSystem(EquivariantMorseSystem):
    """A system given by hand-written per-element tables, trusted to be
    neither an action nor a cocycle: its rows are those of generating_set(G),
    or the identity's for the trivial group, and validate_system checks
    action compatibility and the cocycle law on them (action_laws)."""

    def __init__(self, group, crit_points, point_action, tau_table, flows,
                 flow_action, ambient_dim):
        self._setup(group, rows=(), ambient_dim=ambient_dim,
                    **columns(crit_points, flows))
        if point_action.points != tuple(self.labels):
            raise MalformedSystem("point action must act on the critical labels in order")
        if flow_action.points != tuple(self.flow_labels):
            raise MalformedSystem("flow action must act on the flow labels in order")
        tau = {tuple(g): tuple(row) for g, row in tau_table.items()}
        if set(tau) != set(group.elements):
            raise MalformedSystem("tau table must cover every group element")
        for row in tau.values():
            if len(row) != len(self.labels) or not all(map(_is_sign, row)):
                raise MalformedSystem("tau rows must be +-1 per critical point")
        self.tables = (point_action, tau, flow_action)
        self.rows = tuple((g, point_action.image_array(g), tau[g],
                           flow_action.image_array(g))
                          for g in generating_set(group) or (group.identity,))

    def _action_laws(self):
        return action_laws(self)

    def _walk(self, starts):
        """The start columns' images read off the tables, which extend the
        rows to an action exactly when action_laws finds nothing."""
        (pa, tau, fa), c, images = self.tables, len(self.labels), []
        for g in self.group:
            moves = [2 * y + ((t < 0) ^ e)
                     for y, t in zip(pa.image_array(g), tau[g]) for e in (0, 1)]
            moves += [2 * c + h for h in fa.image_array(g)]
            images.append(tuple(moves[x] for x in starts))
        return images, not any(self._action_laws())


def reference_violations(s) -> list:
    v = []
    G, (pa, tau, fa) = s.group, tables(s)
    labels, flow_labels = pa.points, fa.points
    crit, flws = points(s), flows(s)
    index = [p.index for p in crit]
    src = [pa.index_of[f.src] for f in flws]
    dst = [pa.index_of[f.dst] for f in flws]

    for p in crit:
        if not (0 <= p.index <= s.ambient_dim):
            v.append(Violation("index_range",
                               f"point {p.label!r} has index {p.index}, "
                               f"ambient dimension {s.ambient_dim}"))

    for g in G:
        ag = pa.image_array(g)
        for i, q in enumerate(ag):
            if index[q] != index[i]:
                v.append(Violation(
                    "index_equivariance",
                    f"g={list(g)} sends {labels[i]!r} (index {index[i]}) to "
                    f"{labels[q]!r} (index {index[q]})"))

    for f, a, b in zip(flws, src, dst):
        if index[a] != index[b] + 1:
            v.append(Violation(
                "flow_index_step",
                f"flow {f.label!r} goes from index {index[a]} to index {index[b]}"))

    for g in G:
        ag, fg = pa.image_array(g), fa.image_array(g)
        for j, k in enumerate(fg):
            if src[k] != ag[src[j]] or dst[k] != ag[dst[j]]:
                v.append(Violation(
                    "endpoint_equivariance",
                    f"g={list(g)} sends flow {flow_labels[j]!r} to "
                    f"{flow_labels[k]!r} but the endpoints do not match"))

    compat, cocycle = action_laws(s)
    v += compat + cocycle

    for g in G:
        fg, tg = fa.image_array(g), tau[g]
        for j, f in enumerate(flws):
            want = tg[src[j]] * tg[dst[j]] * f.sign
            gf = flws[fg[j]]
            if gf.sign != want:
                v.append(Violation(
                    "sign_equivariance",
                    f"g={list(g)}: flow {f.label!r} maps to {gf.label!r} with "
                    f"sign {gf.sign}, expected {want}"))

    if not any(x.law in ("index_range", "flow_index_step") for x in v):
        ok, witness = verify_complex(s.manifold_complex())
        if not ok:
            k, row, col, val = witness
            v.append(Violation(
                "manifold_d_squared",
                f"boundary squared has entry {val} from {col!r} to {row!r}"))

    values_present = [i for i, p in enumerate(crit) if p.value is not None]
    value = [p.value for p in crit]
    for g in G:
        ag = pa.image_array(g)
        for i in values_present:
            q = ag[i]
            if value[q] != value[i]:
                v.append(Violation(
                    "value_equivariance",
                    f"g={list(g)} sends {labels[i]!r} (value {value[i]}) to "
                    f"{labels[q]!r} (value {value[q]})"))
    return v


# -- classification and gauge by scanning the per-element tables ---------------

def reference_classify(s) -> tuple:
    """Orbits of the point table; an orbit is orientable when tau is +1 on
    the stabilizer of its least member, whose negative part is empty or
    exactly half by the cocycle law."""
    (pa, tau, _), crit, out = tables(s), points(s), []
    for members in orbits(pa):
        rep = members[0]
        stab = stabilizer(pa, rep)
        r = pa.index_of[rep]
        neg = [g for g in stab if tau[g][r] == -1]
        assert len(neg) in (0, stab.order // 2), \
            f"tau is not a homomorphism on the stabilizer of {rep!r}"
        out.append(CriticalOrbit(members=tuple(members),
                                 index=crit[r].index,
                                 iso_order=stab.order, orientable=not neg))
    return tuple(out)


def reference_gauge(s):
    """(sigma, eps, flow orbits) of the canonical gauge, from the tables.

    Each member m of an orientable orbit takes tau(g, rep) for the first g
    in element order with g.rep = m, checked invariant against every g;
    then the residual sign per orbit is fixed along the spanning forest of
    the orbit adjacency graph, as quotient._normalize documents."""
    cls = reference_classify(s)
    orbit_of = {m: orb for orb in cls for m in orb.members}
    pa, tau, fa = tables(s)
    crit, by_label = points(s), {f.label: f for f in flows(s)}
    sig = [1] * len(crit)
    for orb in cls:
        if not orb.orientable:
            continue
        r = pa.index_of[orb.rep]
        orient = {}
        for g in s.group:
            orient.setdefault(pa.image_array(g)[r], tau[g][r])
        members = [pa.index_of[m] for m in orb.members]
        for m in members:
            sig[m] = orient.get(m, 1)
        for g in s.group:
            ag, tg = pa.image_array(g), tau[g]
            assert all(sig[ag[m]] * tg[m] * sig[m] == 1 for m in members)
    sigma = dict(zip(pa.points, sig))
    eps = {f.label: sigma[f.src] * sigma[f.dst] * f.sign
           for f in by_label.values()}

    flow_orbits = tuple(tuple(o) for o in orbits(fa))
    classes = {}
    for members in flow_orbits:
        f = by_label[members[0]]
        a, b = orbit_of[f.src], orbit_of[f.dst]
        if a.orientable and b.orientable:
            assert len({eps[m] for m in members}) == 1
            classes.setdefault(tuple(sorted((a.rep, b.rep))), []).append(members[0])
    adjacency = {}
    for (a, b), reps in classes.items():
        if a != b:
            adjacency.setdefault(a, {})[b] = min(reps)
            adjacency.setdefault(b, {})[a] = min(reps)
    shift, seen = {o.rep: 1 for o in cls if o.orientable}, set()
    for orb in cls:
        if not orb.orientable or orb.rep in seen:
            continue
        seen.add(orb.rep)
        queue = [orb.rep]
        while queue:
            u = queue.pop(0)
            for v in sorted(adjacency.get(u, {})):
                if v not in seen:
                    seen.add(v)
                    shift[v] = eps[adjacency[u][v]] * shift[u]
                    queue.append(v)
    final = {p.label: sigma[p.label] * (shift[orbit_of[p.label].rep]
                                        if orbit_of[p.label].orientable else 1)
             for p in crit}
    eps = {f.label: final[f.src] * final[f.dst] * f.sign
           for f in by_label.values()}
    return final, eps, flow_orbits


def reference_derive(s):
    """(points, flows) of the derived quotient system, from the tables: the
    isotropy of a flow class is the order of its least member's stabilizer."""
    cls = reference_classify(s)
    orbit_of = {m: orb for orb in cls for m in orb.members}
    _, eps, flow_orbits = reference_gauge(s)
    fa, by_label = tables(s)[2], {f.label: f for f in flows(s)}
    crit = [IntrinsicPoint(o.rep, o.index, o.iso_order, True)
            for o in cls if o.orientable]
    classes = []
    for members in flow_orbits:
        f = by_label[members[0]]
        a, b = orbit_of[f.src], orbit_of[f.dst]
        if a.orientable and b.orientable:
            classes.append(IntrinsicFlow(
                f.label, a.rep, b.rep,
                stabilizer(fa, f.label).order, eps[f.label]))
    return tuple(crit), tuple(classes)
