"""Equivariant Morse systems on a manifold with a finite group action.

The system records critical points, an orientation cocycle tau with values in
{+1, -1}, signed flows, and the induced actions on both.  tau(g, p) compares
the pushed-forward orientation of the unstable manifold at p with the chosen
orientation at g.p; the cocycle law tau(gh, p) = tau(g, h.p) tau(h, p) and the
sign-equivariance law eps(g.flow) = tau(g, src) tau(g, dst) eps(flow) tie the
data together.

Validation reads the integer image arrays and tau rows.  The cocycle law is
checked for g in a generating set of G only, against every h; by induction
on the word length of g this covers all of G x G once the tables form an
action, (gh).x = g.(h.x), which is checked on the same pairs because the
direct constructor accepts any image tables.

Orbit classification: an orbit is orientable when tau(g, p) = +1 for every g
in the stabilizer of one (hence any) member.  Orientable orbits carry the
quotient chain generators; non-orientable orbits are discarded, and the
boundary of an orbit sum provably cancels on them.

Canonical gauge.  Orientation choices can be re-gauged (flip any subset of
unstable-manifold orientations, transforming tau and eps accordingly) without
changing the geometry.  All derived quantities here are computed in a
canonical gauge so they are literal functions of the gauge class: first the
orientations over each orientable orbit are made G-invariant by propagation
from the least member, then the leftover one-sign-per-orbit freedom is fixed
along a deterministic spanning forest of the orbit adjacency graph (the
lexicographically least flow class on each forest edge gets sign +1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .chaincx import GradedComplex, orbit_sum_complex, verify_complex
from .errors import (
    ActionNotWellDefined,
    ClosureExceedsCap,
    GaugeFailure,
    IndexMismatch,
    MalformedSystem,
    SignNotOrbitConstant,
    SystemNotValid,
    UnknownPoint,
)
from .groups import (
    DEFAULT_CAP,
    FiniteGroup,
    GroupAction,
    check_generators,
    compose,
    gather,
    generate_group,
    generating_set,
    is_perm,
    orbits,
    stabilizer,
)
from .intrinsic import IntrinsicFlow, IntrinsicPoint, OrbifoldMorseSystem


def _is_sign(x) -> bool:
    """True for the integers +1 and -1 only (a JSON true is not +1)."""
    return type(x) is int and x in (1, -1)


@dataclass(frozen=True)
class CritPoint:
    label: str
    index: int
    value: Optional[Fraction] = None


@dataclass(frozen=True)
class Flow:
    label: str
    src: str
    dst: str
    sign: int


@dataclass(frozen=True)
class Violation:
    law: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    self_indexing: Optional[bool]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "ok"
        first = self.violations[0]
        return f"{len(self.violations)} violation(s), first: {first.law}: {first.detail}"


@dataclass(frozen=True)
class CriticalOrbit:
    members: tuple[str, ...]
    index: int
    iso_order: int
    orientable: bool

    @property
    def rep(self) -> str:
        return self.members[0]


class EquivariantMorseSystem:
    """Critical points, flows, orientation cocycle, and the group actions.

    Construction checks structure only (labels resolve, signs are +-1, the
    tau table covers the group).  The geometric laws are the validator's job,
    so defective systems can be built and diagnosed.
    """

    def __init__(self, group: FiniteGroup, crit_points, point_action: GroupAction,
                 tau_table: dict, flows, flow_action: GroupAction,
                 ambient_dim: int):
        self.group = group
        self.crit = tuple(crit_points)
        self.point_action = point_action
        self.flows = tuple(flows)
        self.flow_action = flow_action
        self.ambient_dim = int(ambient_dim)
        self._crit_by_label = {p.label: p for p in self.crit}
        self._flow_by_label = {f.label: f for f in self.flows}
        self._tau = {tuple(g): tuple(row) for g, row in tau_table.items()}
        self._cache: dict = {}

        if len(self._crit_by_label) != len(self.crit):
            raise MalformedSystem("duplicate critical point labels")
        if len(self._flow_by_label) != len(self.flows):
            raise MalformedSystem("duplicate flow labels")
        if point_action.points != tuple(p.label for p in self.crit):
            raise MalformedSystem("point action must act on the critical labels in order")
        if flow_action.points != tuple(f.label for f in self.flows):
            raise MalformedSystem("flow action must act on the flow labels in order")
        for f in self.flows:
            for end in (f.src, f.dst):
                if end not in self._crit_by_label:
                    raise MalformedSystem(
                        f"flow {f.label!r} references unknown point {end!r}")
            if not _is_sign(f.sign):
                raise MalformedSystem(f"flow {f.label!r} has sign {f.sign!r}")
        if set(self._tau) != set(group.elements):
            raise MalformedSystem("tau table must cover every group element")
        for g, row in self._tau.items():
            if len(row) != len(self.crit) or not all(map(_is_sign, row)):
                raise MalformedSystem("tau rows must be +-1 per critical point")

    # -- construction from generator data --------------------------------

    @classmethod
    def from_generator_data(cls, *, generators, degree=None, cap=DEFAULT_CAP,
                            crit_points, crit_images, crit_signs,
                            flows, flow_images, ambient_dim):
        """Build the full tables from per-generator data.

        The cocycle is extended by closing signed permutations: a critical
        label with a sign is a point of a doubled set, so plain permutation
        closure realizes exactly the cocycle composition law.  That one
        closure also gives G, as the ground parts of its elements.  The data
        is consistent exactly when those are distinct; the projection is then
        an isomorphism onto the group the generators close to, mapping
        breadth-first levels onto levels, so G keeps generate_group's element
        order.  Inconsistent generator data raises ActionNotWellDefined, and
        a group beyond the cap ClosureExceedsCap.
        """
        gens, d = check_generators(generators, degree)
        c, nf = len(crit_points), len(flows)
        n = d + 2 * c + nf
        combined = []
        for gi, g in enumerate(gens):
            imgs = list(crit_images[gi])
            sgns = list(crit_signs[gi])
            if (not is_perm(imgs, c) or len(sgns) != c
                    or not all(map(_is_sign, sgns))):
                raise MalformedSystem(
                    f"generator {gi}: bad critical images or signs")
            fimgs = list(flow_images[gi])
            if not is_perm(fimgs, nf):
                raise MalformedSystem(f"generator {gi}: bad flow images")
            perm = list(g)
            for j in range(c):
                k, s = imgs[j], sgns[j]
                perm.append(d + 2 * k + (0 if s == 1 else 1))
                perm.append(d + 2 * k + (1 if s == 1 else 0))
            for j in range(nf):
                perm.append(d + 2 * c + fimgs[j])
            combined.append(tuple(perm))

        inconsistent = "cocycle or action data inconsistent across group words"
        try:
            big = generate_group(combined, degree=n, cap=cap)
        except ClosureExceedsCap:
            generate_group(gens, degree=d, cap=cap)
            raise ActionNotWellDefined(inconsistent) from None
        ground = gather(range(d))
        elements = tuple(map(ground, big.elements))
        if len(set(elements)) != len(elements):
            raise ActionNotWellDefined(inconsistent)
        group = FiniteGroup(degree=d, elements=elements)

        # Decoding tables: position d + 2k + (0 or 1) of an element holds
        # the image of point k, and which slot it lands in holds the sign.
        point_of = [0] * d + [k for k in range(c) for _ in (1, -1)] + [0] * nf
        sign_of = [0] * d + [1, -1] * c + [0] * nf
        flow_of = [0] * (d + 2 * c) + list(range(nf))
        point_slots = gather(range(d, d + 2 * c, 2))
        flow_slots = gather(range(d + 2 * c, n))
        point_images, tau_table, flow_images_full = {}, {}, {}
        for g, e in zip(elements, big.elements):
            decode = gather(point_slots(e))
            point_images[g] = decode(point_of)
            tau_table[g] = decode(sign_of)
            flow_images_full[g] = gather(flow_slots(e))(flow_of)
        crit = tuple(CritPoint(*p) if not isinstance(p, CritPoint) else p
                     for p in crit_points)
        flws = tuple(Flow(*f) if not isinstance(f, Flow) else f for f in flows)
        pa = GroupAction(group, [p.label for p in crit], point_images)
        fa = GroupAction(group, [f.label for f in flws], flow_images_full)
        return cls(group, crit, pa, tau_table, flws, fa, ambient_dim)

    # -- access -----------------------------------------------------------

    def tau(self, g, label: str) -> int:
        if label not in self._crit_by_label:
            raise UnknownPoint(f"{label!r} is not a critical point")
        return self._tau[tuple(g)][self.point_action.index_of[label]]

    def crit_point(self, label: str) -> CritPoint:
        return self._crit_by_label[label]

    def flow(self, label: str) -> Flow:
        return self._flow_by_label[label]

    def manifold_complex(self) -> GradedComplex:
        """Chain complex of the ambient manifold's Morse data (no quotient),
        built once per system."""
        if "manifold" not in self._cache:
            n = self.ambient_dim
            labels = [[p.label for p in self.crit if p.index == k]
                      for k in range(n + 1)]
            index = {p.label: p.index for p in self.crit}
            self._cache["manifold"] = GradedComplex.from_entries(labels, (
                (index[f.src], f.dst, f.src, f.sign) for f in self.flows
                if 1 <= index[f.src] <= n and index[f.dst] == index[f.src] - 1))
        return self._cache["manifold"]


# -- validation -----------------------------------------------------------

def _action_witness(g, h, labels, agh, ag, ah, what):
    i = next(i for i in range(len(labels)) if agh[i] != ag[ah[i]])
    return Violation(
        "action_compatibility",
        f"g={list(g)}, h={list(h)}: gh sends {what} {labels[i]!r} to "
        f"{labels[agh[i]]!r}, g after h sends it to {labels[ag[ah[i]]]!r}")


def validate_system(s: EquivariantMorseSystem) -> ValidationReport:
    """Check every law, reporting each violation with a witness; never raises.
    The report is cached on the system.

    The laws read the integer image arrays and tau rows.  The cocycle law is
    checked for g in a generating set S of G only, against every h:
    action_compatibility checks (gh).x = g.(h.x) on the same pairs, on points
    and flows, and given it the law for (s, h) with s in S gives the law for
    every (g, h) by induction on the word length of g.  Without
    compatibility that induction fails, so the direct constructor's image
    tables are not trusted to be an action.  The trivial group has no
    generators; its identity is checked instead.

    Index, endpoint, sign and value equivariance are checked on the rows
    g in S first.  When those, compatibility and the cocycle law all hold,
    the same induction covers every g in G: the law for s and for h gives it
    for sh, the sign law using the endpoint and cocycle laws on the way.
    Otherwise they are checked for every g in G, so every witness of a
    failing law is listed, in the order of the element table.
    """
    if "report" in s._cache:
        return s._cache["report"]
    G = s.group
    pa, fa, tau = s.point_action, s.flow_action, s._tau
    labels, flow_labels = pa.points, fa.points
    index = [p.index for p in s.crit]
    value = [p.value for p in s.crit]
    values_present = [i for i, v in enumerate(value) if v is not None]
    src = [pa.index_of[f.src] for f in s.flows]
    dst = [pa.index_of[f.dst] for f in s.flows]
    eps = [f.sign for f in s.flows]

    index_range = [
        Violation("index_range",
                  f"point {p.label!r} has index {p.index}, "
                  f"ambient dimension {s.ambient_dim}")
        for p in s.crit if not (0 <= p.index <= s.ambient_dim)]
    index_step = [
        Violation("flow_index_step",
                  f"flow {f.label!r} goes from index {index[a]} to index {index[b]}")
        for f, a, b in zip(s.flows, src, dst) if index[a] != index[b] + 1]

    gens = generating_set(G) or (G.identity,)
    compat: list[Violation] = []
    cocycle: list[Violation] = []
    for g in gens:
        ag, fg, tg = pa.image_array(g), fa.image_array(g), tau[g]
        for h in G:
            gh = compose(g, h)
            ah, th = pa.image_array(h), tau[h]
            agh, tgh = pa.image_array(gh), tau[gh]
            if agh != gather(ah)(ag):
                compat.append(_action_witness(g, h, labels, agh, ag, ah, "point"))
            fh, fgh = fa.image_array(h), fa.image_array(gh)
            if fgh != gather(fh)(fg):
                compat.append(_action_witness(g, h, flow_labels, fgh, fg, fh,
                                              "flow"))
            for i, x in enumerate(ah):
                if tgh[i] != tg[x] * th[i]:
                    cocycle.append(Violation(
                        "cocycle",
                        f"tau(gh, {labels[i]!r}) != tau(g, {labels[x]!r}) "
                        f"tau(h, {labels[i]!r}) for g={list(g)}, h={list(h)}"))

    def per_element(rows):
        index_eq, endpoint_eq, sign_eq, value_eq = [], [], [], []
        for g in rows:
            ag, fg, tg = pa.image_array(g), fa.image_array(g), tau[g]
            for i, q in enumerate(ag):
                if index[q] != index[i]:
                    index_eq.append(Violation(
                        "index_equivariance",
                        f"g={list(g)} sends {labels[i]!r} (index {index[i]}) to "
                        f"{labels[q]!r} (index {index[q]})"))
            for j, k in enumerate(fg):
                if src[k] != ag[src[j]] or dst[k] != ag[dst[j]]:
                    endpoint_eq.append(Violation(
                        "endpoint_equivariance",
                        f"g={list(g)} sends flow {flow_labels[j]!r} to "
                        f"{flow_labels[k]!r} but the endpoints do not match"))
                want = tg[src[j]] * tg[dst[j]] * eps[j]
                if eps[k] != want:
                    sign_eq.append(Violation(
                        "sign_equivariance",
                        f"g={list(g)}: flow {flow_labels[j]!r} maps to "
                        f"{flow_labels[k]!r} with sign {eps[k]}, "
                        f"expected {want}"))
            for i in values_present:
                q = ag[i]
                if value[q] != value[i]:
                    value_eq.append(Violation(
                        "value_equivariance",
                        f"g={list(g)} sends {labels[i]!r} (value {value[i]}) to "
                        f"{labels[q]!r} (value {value[q]})"))
        return index_eq, endpoint_eq, sign_eq, value_eq

    laws = per_element(gens)
    if compat or cocycle or any(laws):
        laws = per_element(G)
    index_eq, endpoint_eq, sign_eq, value_eq = laws

    d_squared = []
    if not (index_range or index_step):
        ok, witness = verify_complex(s.manifold_complex())
        if not ok:
            k, row, col, val = witness
            d_squared.append(Violation(
                "manifold_d_squared",
                f"boundary squared has entry {val} from {col!r} to {row!r}"))

    self_indexing: Optional[bool] = None
    if values_present:
        self_indexing = (len(values_present) == len(s.crit)
                         and all(p.value == p.index for p in s.crit))

    v = (index_range + index_eq + index_step + endpoint_eq + compat + cocycle
         + sign_eq + d_squared + value_eq)
    report = ValidationReport(violations=tuple(v), self_indexing=self_indexing)
    s._cache["report"] = report
    return report


def _require_valid(s: EquivariantMorseSystem, check_valid: bool = True) -> None:
    if check_valid:
        report = validate_system(s)
        if not report.ok:
            raise SystemNotValid(report)


# -- classification ---------------------------------------------------------

def classify(s: EquivariantMorseSystem) -> tuple[CriticalOrbit, ...]:
    """Orbit classification, ordered by least member label.

    An orbit is orientable when tau is +1 on the stabilizer of its least
    member; by the cocycle law the negative part of a stabilizer is empty or
    exactly half, which is asserted.  The map from each label to its orbit
    is cached beside the result, for orbit_of.
    """
    if "classify" in s._cache:
        return s._cache["classify"]
    out = []
    for members in orbits(s.point_action):
        rep = members[0]
        stab = stabilizer(s.point_action, rep)
        r = s.point_action.index_of[rep]
        neg = [g for g in stab if s._tau[g][r] == -1]
        assert len(neg) in (0, stab.order // 2), \
            f"tau is not a homomorphism on the stabilizer of {rep!r}"
        out.append(CriticalOrbit(
            members=tuple(members),
            index=s._crit_by_label[rep].index,
            iso_order=stab.order,
            orientable=not neg))
    result = tuple(out)
    s._cache["classify"] = result
    s._cache["orbit_of"] = {m: orb for orb in result for m in orb.members}
    return result


def orbit_of(s: EquivariantMorseSystem, label: str) -> CriticalOrbit:
    classify(s)
    orb = s._cache["orbit_of"].get(label)
    if orb is None:
        raise UnknownPoint(f"{label!r} is not a critical point")
    return orb


# -- canonical gauge ----------------------------------------------------------

@dataclass(frozen=True)
class _Gauge:
    sigma: dict          # point label -> +-1
    eps: dict            # flow label -> canonical sign
    flow_orbits: tuple   # tuple of tuples of flow labels


def _flow_orbit_endpoints(s, members):
    f = s._flow_by_label[members[0]]
    return orbit_of(s, f.src), orbit_of(s, f.dst)


def _normalize(s: EquivariantMorseSystem) -> _Gauge:
    if "gauge" in s._cache:
        return s._cache["gauge"]
    cls = classify(s)

    # G-invariant orientations over each orientable orbit: each member m
    # takes tau(g, rep) for the first g in element order with g.rep = m.
    pa = s.point_action
    sig = [1] * len(s.crit)
    for orb in cls:
        if not orb.orientable:
            continue
        r = pa.index_of[orb.rep]
        orient: dict = {}
        for g in s.group:
            orient.setdefault(pa.image_array(g)[r], s._tau[g][r])
        members = [pa.index_of[m] for m in orb.members]
        for m in members:
            sig[m] = orient.get(m, 1)
        for g in s.group:
            ag, tg = pa.image_array(g), s._tau[g]
            for m in members:
                if sig[ag[m]] * tg[m] * sig[m] != 1:
                    raise GaugeFailure(
                        f"no G-invariant orientation on orbit of {orb.rep!r}; "
                        f"witness g={list(g)}, p={pa.points[m]!r}")
    sigma = dict(zip(pa.points, sig))

    eps = {f.label: sigma[f.src] * sigma[f.dst] * f.sign for f in s.flows}

    flow_orbits = tuple(tuple(o) for o in orbits(s.flow_action))
    orientable_classes = {}
    for members in flow_orbits:
        src_orb, dst_orb = _flow_orbit_endpoints(s, members)
        if not (src_orb.orientable and dst_orb.orientable):
            continue
        signs = {eps[m] for m in members}
        if len(signs) != 1:
            raise SignNotOrbitConstant(
                f"flow orbit of {members[0]!r} carries signs {sorted(signs)} "
                f"after orientation normalization")
        pair = tuple(sorted((src_orb.rep, dst_orb.rep)))
        orientable_classes.setdefault(pair, []).append(members[0])

    # Fix the residual one-sign-per-orbit freedom along a spanning forest.
    adjacency: dict = {}
    for (a, b), reps in orientable_classes.items():
        if a == b:
            continue
        adjacency.setdefault(a, {})[b] = min(reps)
        adjacency.setdefault(b, {})[a] = min(reps)
    shift = {orb.rep: 1 for orb in cls if orb.orientable}
    seen = set()
    for orb in cls:
        if not orb.orientable or orb.rep in seen:
            continue
        seen.add(orb.rep)
        queue = [orb.rep]
        while queue:
            u = queue.pop(0)
            for vtx in sorted(adjacency.get(u, {})):
                if vtx in seen:
                    continue
                seen.add(vtx)
                anchor = adjacency[u][vtx]
                shift[vtx] = eps[anchor] * shift[u]
                queue.append(vtx)

    sigma_final = {}
    for p in s.crit:
        orb = s._cache["orbit_of"][p.label]
        sigma_final[p.label] = sigma[p.label] * (
            shift[orb.rep] if orb.orientable else 1)
    eps_final = {f.label: sigma_final[f.src] * sigma_final[f.dst] * f.sign
                 for f in s.flows}

    gauge = _Gauge(sigma=sigma_final, eps=eps_final, flow_orbits=flow_orbits)
    s._cache["gauge"] = gauge
    return gauge


def regauge(s: EquivariantMorseSystem, sigma: dict) -> EquivariantMorseSystem:
    """Flip unstable-manifold orientations by sigma; transforms tau and eps.

    The result describes the same geometry in a different gauge; used by the
    invariance test suites.
    """
    sg = {p.label: sigma.get(p.label, 1) for p in s.crit}
    tau_table = {}
    for g in s.group:
        row = []
        for p in s.crit:
            gp = s.point_action.image(g, p.label)
            row.append(sg[gp] * s.tau(g, p.label) * sg[p.label])
        tau_table[g] = tuple(row)
    flows = [Flow(label=f.label, src=f.src, dst=f.dst,
                  sign=sg[f.src] * sg[f.dst] * f.sign) for f in s.flows]
    return EquivariantMorseSystem(s.group, s.crit, s.point_action, tau_table,
                                  flows, s.flow_action, s.ambient_dim)


# -- derived complexes --------------------------------------------------------

def invariant_boundary(s: EquivariantMorseSystem, *,
                       check_valid: bool = True) -> GradedComplex:
    """Boundary on the orbit sums of orientable orbits, in the canonical gauge.

    The canonical gauge makes the signed action trivial on orientable
    orbits, so every sign is +1 and the faces of a point are its flows with
    canonical signs.  CancellationFailure and InvarianceFailure from
    orbit_sum_complex signal inconsistent input data.
    """
    _require_valid(s, check_valid)
    gauge = _normalize(s)
    orbit_levels = [[(dict.fromkeys(o.members, 1), o.orientable)
                     for o in classify(s) if o.index == k]
                    for k in range(s.ambient_dim + 1)]
    out_flows: dict = {}
    for f in s.flows:
        if 0 <= s.crit_point(f.dst).index <= s.ambient_dim:
            out_flows.setdefault(f.src, []).append((f.dst, gauge.eps[f.label]))
    out = orbit_sum_complex(orbit_levels, lambda p: out_flows.get(p, ()))
    if check_valid:
        ok, witness = verify_complex(out)
        assert ok, f"invariant boundary fails to square to zero at {witness}"
    return out


def derive_intrinsic(s: EquivariantMorseSystem) -> OrbifoldMorseSystem:
    """Quotient system: orientable orbits become weighted critical points.

    Raises SystemNotValid unless the system passes validate_system.
    Orientations are first normalized to the canonical gauge; flow orbits
    whose endpoints are both orientable become flow classes with the
    stabilizer order of their least member, |G| / |orbit| by the
    orbit-stabilizer theorem, and its canonical sign.
    """
    _require_valid(s)
    gauge = _normalize(s)
    cls = classify(s)
    crit = [IntrinsicPoint(label=o.rep, index=o.index, iso_order=o.iso_order,
                           orientable=True)
            for o in cls if o.orientable]
    flows = []
    for members in gauge.flow_orbits:
        src_orb, dst_orb = _flow_orbit_endpoints(s, members)
        if not (src_orb.orientable and dst_orb.orientable):
            continue
        rep = members[0]
        flows.append(IntrinsicFlow(label=rep, src=src_orb.rep,
                                   dst=dst_orb.rep,
                                   iso_order=s.group.order // len(members),
                                   sign=gauge.eps[rep]))
    return OrbifoldMorseSystem(ambient_dim=s.ambient_dim,
                               crit_points=crit, flows=flows)


def discarded_orbits(s: EquivariantMorseSystem) -> tuple[CriticalOrbit, ...]:
    """Non-orientable orbits, the ones carrying no quotient generator."""
    return tuple(o for o in classify(s) if not o.orientable)


# -- broken flow weights ------------------------------------------------------

def broken_weight(s: EquivariantMorseSystem, p: str, q: str, r: str, *,
                  check_valid: bool = True) -> Fraction:
    """Weight of the broken flows through the middle orbit, canonical gauge.

    Arguments name the three orbits by any member.  With a fixed
    representative m of the middle orbit, the weight is

        (1 / iso(m)) * sum(eps over flows top -> m) * sum(eps over m -> bottom)

    The result is recomputed at every representative and asserted equal.
    When the middle orbit is orientable the result is asserted to match the
    flow-class formula sum nu(a) nu(b) / iso(middle); when it is not, the
    result is asserted to be zero.
    """
    _require_valid(s, check_valid)
    P, Q, R = orbit_of(s, p), orbit_of(s, q), orbit_of(s, r)
    if not (P.index == Q.index + 1 == R.index + 2):
        raise IndexMismatch(
            f"orbit indices {P.index}, {Q.index}, {R.index} are not consecutive")
    if not P.orientable or not R.orientable:
        raise IndexMismatch("top and bottom orbits must be orientable")
    gauge = _normalize(s)

    results = []
    for m in Q.members:
        into = sum(gauge.eps[f.label] for f in s.flows
                   if f.dst == m and f.src in P.members)
        outof = sum(gauge.eps[f.label] for f in s.flows
                    if f.src == m and f.dst in R.members)
        results.append(Fraction(into * outof, Q.iso_order))
    assert len(set(results)) == 1, \
        f"broken weight depends on the representative: {results}"
    w = results[0]

    if Q.orientable:
        nu_in, nu_out = Fraction(0), Fraction(0)
        for members in gauge.flow_orbits:
            src_orb, dst_orb = _flow_orbit_endpoints(s, members)
            iso = stabilizer(s.flow_action, members[0]).order
            nu = Fraction(gauge.eps[members[0]] * Q.iso_order, iso)
            if src_orb.rep == P.rep and dst_orb.rep == Q.rep:
                nu_in += nu
            elif src_orb.rep == Q.rep and dst_orb.rep == R.rep:
                nu_out += nu
        expected = nu_in * nu_out / Q.iso_order
        assert w == expected, (w, expected)
    else:
        assert w == 0, f"weight through non-orientable orbit is {w}, not 0"
    return w


def admissible_triples(s: EquivariantMorseSystem):
    """All (top, middle, bottom) orbit triples broken_weight accepts."""
    cls = classify(s)
    out = []
    for P in cls:
        if not P.orientable:
            continue
        for R in cls:
            if not R.orientable or R.index != P.index - 2:
                continue
            for Q in cls:
                if Q.index == P.index - 1:
                    out.append((P, Q, R))
    return out
