"""Equivariant Morse systems on a manifold with a finite group action.

The system records critical points, an orientation cocycle tau with values in
{+1, -1}, signed flows, and the induced actions on both.  tau(g, p) compares
the pushed-forward orientation of the unstable manifold at p with the chosen
orientation at g.p; the cocycle law tau(gh, p) = tau(g, h.p) tau(h, p) and the
sign-equivariance law eps(g.flow) = tau(g, src) tau(g, dst) eps(flow) tie the
data together.

A system's state is columns and rows: the points' labels, index and value
and the flows' flow_labels, src and dst (point numbers) and sign, indexed by
number, and per generator s of G its ground permutation, the point images,
tau(s, .) and the flow images; G is the closure of the ground generators.
The reader fills these columns and the system keeps them; derive_intrinsic
writes the quotient system's columns from the scan's numbers.
Construction scans the Cayley graph of G (edges g -> sg) for one member x
of each orbit of signed points (k, +-1) and of flows, carrying g.x along
the edges: the rows extend to an action of G, with tau a cocycle, exactly
when every edge agrees, so those two laws hold by construction.  The scan
also gives the orbits.  A point orbit is
orientable when (k, +1) and (k, -1) lie in different signed orbits, that is
when no element of the stabilizer of k reverses its orientation, and then
the signs on the orbit of (rep, +1) are a G-invariant orientation.
Orientable orbits carry the quotient chain generators; non-orientable orbits
are discarded, and the boundary of an orbit sum provably cancels on them.
The other laws are checked on the rows (validate_system); where a
generator breaks one, the same walk carries the defect sets of the failing
orbits, the members that differ from a reference the orbit implies, and
every witness is listed from their images.  A witness is kept as numbers,
(element, point or flow, its image, expected sign), and its text, which
names the element as g=[...], is made only when it is read or written.

Canonical gauge.  Orientation choices can be re-gauged (flip any subset of
unstable-manifold orientations, transforming tau and eps accordingly) without
changing the geometry.  All derived quantities here are computed in a
canonical gauge so they are literal functions of the gauge class, read off
the orbit scan: first the orientations over each orientable orbit are the
scan's invariant ones, +1 at the least member, then the leftover
one-sign-per-orbit freedom is fixed along a deterministic spanning forest of
the orbit adjacency graph (the lexicographically least flow class on each
forest edge gets sign +1).  A consistent scan makes the first step
invariant under every generator, so nothing is re-checked on the rows.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, compress, count, repeat
from typing import NamedTuple, Optional

from .chaincx import GradedComplex, flow_complex, orbit_sum_complex, verify_complex
from .errors import (
    ActionNotWellDefined,
    GaugeFailure,
    MalformedSystem,
    SignNotOrbitConstant,
    SystemNotValid,
    UnknownPoint,
)
from .groups import (
    DEFAULT_CAP,
    FiniteGroup,
    base_points,
    check_generators,
    gather,
    generate_group,
    is_perm,
)
from .intrinsic import OrbifoldMorseSystem, require_unique


def _is_sign(x) -> bool:
    """True for the integers +1 and -1 only (a JSON true is not +1)."""
    return type(x) is int and x in (1, -1)


class Violation:
    """A broken law and its witness.  The detail is text, or a formatter and
    the witness tuple it turns into text each time the detail is read, so a
    report of many witnesses holds numbers until it is written.  Equality
    and hash go by (law, detail) either way."""

    __slots__ = ("law", "_detail", "_witness")

    def __init__(self, law: str, detail, witness=None):
        self.law, self._detail, self._witness = law, detail, witness

    @property
    def detail(self) -> str:
        w = self._witness
        return self._detail if w is None else self._detail(*w)

    def __str__(self):
        w = self._witness   # detail, inlined: emit writes each row through here
        return f"{self.law}: {self._detail if w is None else self._detail(*w)}"

    def __repr__(self):
        return f"Violation(law={self.law!r}, detail={self.detail!r})"

    def __eq__(self, other):
        if not isinstance(other, Violation):
            return NotImplemented
        return (self.law, self.detail) == (other.law, other.detail)

    def __hash__(self):
        return hash((self.law, self.detail))


class ValidationReport(NamedTuple):
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


class CriticalOrbit(NamedTuple):
    members: tuple[str, ...]
    index: int
    iso_order: int
    orientable: bool

    @property
    def rep(self) -> str:
        return self.members[0]


class EquivariantMorseSystem:
    """Critical points, flows, orientation cocycle, and the group actions.

    points is the columns (labels, index, value) and flows the columns
    (flow_labels, src, dst, sign) of the module docstring, kept as given; an
    endpoint that is not a point number is a label no point has.  rows
    holds (g, point images, tau(g, .), flow images) per generator g of G.
    Construction raises ActionNotWellDefined unless the rows extend to an
    action of G (the orbit scan) and otherwise checks structure only
    (labels unique, endpoints known, signs +-1).  The remaining laws are
    the validator's job, so defective systems can be built and diagnosed.
    """

    def __init__(self, group: FiniteGroup, points, flows, rows,
                 ambient_dim: int):
        self._setup(group, points, flows, rows, ambient_dim)
        if not _scan(self).consistent:
            raise ActionNotWellDefined(
                "cocycle or action data inconsistent across group words")

    def _setup(self, group, points, flows, rows, ambient_dim):
        """Keep the columns and check their structure: labels unique, then
        flow by flow both endpoints known and the sign +-1."""
        self.group, self.rows, self._cache = group, tuple(rows), {}
        self.ambient_dim = int(ambient_dim)
        self.labels, self.index, self.value = points
        self.flow_labels, self.src, self.dst, self.sign = flows
        require_unique(self.labels, "critical point")
        require_unique(self.flow_labels, "flow")
        if not ({*map(type, self.src), *map(type, self.dst),
                 *map(type, self.sign)} <= {int} and {*self.sign} <= {1, -1}):
            for f, a, b, e in zip(self.flow_labels, self.src, self.dst,
                                  self.sign):
                for end in (a, b):
                    if type(end) is not int:
                        raise MalformedSystem(
                            f"flow {f!r} references unknown point {end!r}")
                if not _is_sign(e):
                    raise MalformedSystem(f"flow {f!r} has sign {e!r}")

    def _action_laws(self) -> tuple[list, list]:
        """Action compatibility and cocycle violations: none by construction."""
        return [], []

    # -- construction from generator data --------------------------------

    @classmethod
    def from_generator_data(cls, *, generators, degree=None, cap=DEFAULT_CAP,
                            points, crit_images, crit_signs,
                            flows, flow_images, ambient_dim):
        """Build a system from point and flow columns and generator data.

        G is the closure of the ground generators alone, in generate_group's
        element order; a group beyond the cap raises ClosureExceedsCap.  The
        orbit scan (module docstring) raises ActionNotWellDefined unless the
        rows extend to an action of G on signed points and flows, and is
        kept for classify.  The action and cocycle laws thus hold by
        construction, and no per-element table is built.
        """
        gens, d = check_generators(generators, degree)
        c, nf = len(points[0]), len(flows[0])
        rows = []
        for gi, g in enumerate(gens):
            imgs, sgns = tuple(crit_images[gi]), tuple(crit_signs[gi])
            if (not is_perm(imgs, c) or len(sgns) != c
                    or not all(map(_is_sign, sgns))):
                raise MalformedSystem(
                    f"generator {gi}: bad critical images or signs")
            fimgs = tuple(flow_images[gi])
            if not is_perm(fimgs, nf):
                raise MalformedSystem(f"generator {gi}: bad flow images")
            rows.append((g, imgs, sgns, fimgs))
        group = generate_group(gens, degree=d, cap=cap)
        return cls(group, points, flows, rows, ambient_dim)

    def _successors(self) -> tuple:
        """Per generator row s, the number of sg by the number of g; cached.
        Elements are keyed by their base point images, (sg)[b] = s[g[b]]."""
        if "successors" not in self._cache:
            base = self._cache["base"] = base_points(self.group)
            keys = list(map(gather(base), self.group.elements))
            number = dict(zip(keys, range(len(keys))))
            aheads = list(map(gather, keys))
            self._cache["successors"] = tuple(
                [number[ahead(s)] for ahead in aheads] for s, *_ in self.rows)
        return self._cache["successors"]

    def _walk(self, starts) -> tuple[list, bool]:
        """g.x for each encoded column x of starts, one tuple per element g
        of G in element order, and whether the rows extend to an action.

        Signed point (k, +1) is column 2k, (k, -1) is 2k + 1 and flow f is
        2c + f.  Breadth first from the identity over the Cayley graph
        (edges g -> sg, read off _successors), (sg).x = s.(g.x) on the
        first edge reaching sg, and every other edge is compared.
        """
        c = len(self.labels)
        moves = [[2 * y + ((t < 0) ^ e) for y, t in zip(ag, tg) for e in (0, 1)]
                 + [2 * c + h for h in fg] for _, ag, tg, fg in self.rows]
        successors = self._successors()
        images = [None] * self.group.order
        images[0], consistent = tuple(starts), True
        queue = [0]
        for i in queue:
            here = gather(images[i])
            for succ, move in zip(successors, moves):
                k, there = succ[i], here(move)
                if images[k] is None:
                    images[k] = there
                    queue.append(k)
                elif images[k] != there:
                    consistent = False
        return images, consistent

    def manifold_complex(self) -> GradedComplex:
        """Chain complex of the ambient manifold's Morse data (no quotient),
        built once per system."""
        if "manifold" not in self._cache:
            self._cache["manifold"] = flow_complex(
                self.ambient_dim, self.labels, self.index, self.src, self.dst,
                self.sign)
        return self._cache["manifold"]


# -- the orbit scan -----------------------------------------------------------

class _Scan(NamedTuple):
    orbits: list        # point orbits (member indices, orientable), by label
    orbit: list         # orbit number per point
    sigma: list         # invariant orientation per point, +1 off orientable orbits
    flow_orbits: list   # flow orbits as member indices, by label
    consistent: bool    # the rows extend to an action of G


def _partition(labels, images):
    """Orbits of the image arrays, members and orbits by least label, and
    the orbit number of each element."""
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    orbit_of, out = [-1] * len(labels), []
    for x in by_label:
        if orbit_of[x] < 0:
            k = orbit_of[x] = len(out)
            queue = [x]
            for y in queue:
                for img in images:
                    if orbit_of[img[y]] < 0:
                        orbit_of[img[y]] = k
                        queue.append(img[y])
            out.append([])
    for x in by_label:
        out[orbit_of[x]].append(x)
    return out, orbit_of


def _scan(s: EquivariantMorseSystem) -> _Scan:
    """The orbit scan of the module docstring, for all orbits at once; cached.

    The walk carries (x, +1) for the least member x of each point orbit and
    the least member of each flow orbit.
    """
    if "scan" in s._cache:
        return s._cache["scan"]
    c = len(s.labels)
    orbits, orbit = _partition(s.labels, [r[1] for r in s.rows])
    flow_orbits, _ = _partition(s.flow_labels, [r[3] for r in s.rows])
    images, consistent = s._walk([2 * o[0] for o in orbits]
                                 + [2 * c + o[0] for o in flow_orbits])

    sigma, kept = [1] * c, []
    for o, values in zip(orbits, zip(*images)):
        seen = set(values)
        orientable = 2 * o[0] + 1 not in seen
        if orientable:
            for v in seen:
                sigma[v >> 1] = 1 - 2 * (v & 1)
        kept.append((o, orientable))
    s._cache["scan"] = _Scan(kept, orbit, sigma, flow_orbits, consistent)
    return s._cache["scan"]


# -- validation -----------------------------------------------------------

def _inverses(s: EquivariantMorseSystem) -> list:
    """The number of g^-1 by the number of g, G nontrivial: g^-1 sends b to
    b's position in g, and elements are keyed as in _successors."""
    base, elements = s._cache.get("base") or base_points(s.group), s.group.elements
    number = dict(zip(map(gather(base), elements), count()))
    return list(map(number.__getitem__, zip(
        *[map(tuple.index, elements, repeat(b)) for b in base])))


def _prefixes(group: FiniteGroup):
    """n -> the witness prefix g=[...] of element n.  Only the last one is
    kept: witnesses come sorted by element within a law, so each prefix is
    made once per law it appears in, and one is alive at a time."""
    elements = group.elements
    name = list(map(str, range(group.degree))).__getitem__
    last, text = None, ""

    def at(n):
        nonlocal last, text
        if last != n:
            last, text = n, f"g=[{', '.join(map(name, elements[n]))}]"
        return text
    return at


def validate_system(s: EquivariantMorseSystem) -> ValidationReport:
    """Check every law, reporting each violation with a witness; never raises.
    The report is cached on the system.

    Action compatibility and the cocycle law hold by construction; only a
    system holding hand-written tables (tests/reference_validator.py)
    reports them, from _action_laws.  Index, endpoint, sign and value
    equivariance are checked on the rows.  Given those two laws, a law that
    every generator s keeps on an orbit holds there for all g, by induction:
    index(sg.x) = index(s.(g.x)) = index(g.x) as g.x is in the orbit, the
    same for values and endpoints, and the sign law follows from the
    endpoint and cocycle laws.  Where a generator breaks one, _diagnose
    lists the orbit's witnesses by element number, then point or flow;
    each violation keeps its witness tuple and one formatter per law.
    """
    if "report" in s._cache:
        return s._cache["report"]
    labels, index, value = s.labels, s.index, s.value
    flow_labels, src, dst, eps = s.flow_labels, s.src, s.dst, s.sign
    c, nf = len(labels), len(flow_labels)
    # column -> point or flow index: a lookup makes no new int per pair
    decode = [x for x in range(c) for _ in (0, 1)] + list(range(nf))

    index_range = [
        Violation("index_range",
                  f"point {p!r} has index {k}, "
                  f"ambient dimension {s.ambient_dim}")
        for p, k in zip(labels, index) if not (0 <= k <= s.ambient_dim)]
    index_step = [
        Violation("flow_index_step",
                  f"flow {f!r} goes from index {index[a]} to index {index[b]}")
        for f, a, b in zip(flow_labels, src, dst) if index[a] != index[b] + 1]

    compat, cocycle = s._action_laws()
    bad_points, bad_flows = set(), set()

    def per_element(elements, points, point_at, flow_ids, flow_at, src_at,
                    dst_at):
        """Witnesses (n, x, g.x, the sign law's expected sign) of the four
        laws, images[m] of each (n, images) of elements being the image under
        g = element n of the column at position point_at, flow_at, src_at
        or dst_at of points, flow_ids or the flows' endpoints."""
        index_eq, endpoint_eq, sign_eq, value_eq = [], [], [], []
        for n, img in elements:
            for i, m in zip(points, point_at):
                q = decode[img[m]]
                if index[q] != index[i]:
                    bad_points.add(i)
                    index_eq.append((n, i, q, None))
                if value[i] is not None and value[q] != value[i]:
                    bad_points.add(i)
                    value_eq.append((n, i, q, None))
            for j, m, a, b in zip(flow_ids, flow_at, src_at, dst_at):
                k, ga, gb = decode[img[m]], img[a], img[b]
                if src[k] != decode[ga] or dst[k] != decode[gb]:
                    bad_flows.add(j)
                    endpoint_eq.append((n, j, k, None))
                want = -eps[j] if (ga & 1) != (gb & 1) else eps[j]
                if eps[k] != want:
                    bad_flows.add(j)
                    sign_eq.append((n, j, k, want))
        return index_eq, endpoint_eq, sign_eq, value_eq

    # the rows as the walk encodes them: the points signed +1, then the flows
    rows = ([2 * y + (t < 0) for y, t in zip(ag, tg)] + [2 * c + h for h in fg]
            for _, ag, tg, fg in s.rows)
    laws = per_element(enumerate(rows), range(c), range(c), range(nf),
                       range(c, c + nf), src, dst)
    at = None   # the witness prefixes, made only where a law breaks
    if compat or cocycle or any(laws):
        laws = _diagnose(s, bool(compat or cocycle), bad_points, bad_flows,
                         per_element, decode)
        at = _prefixes(s.group)

    # one formatter per law; a witness is formatted when it is read
    def index_text(n, i, q, _):
        return (f"{at(n)} sends {labels[i]!r} (index {index[i]}) "
                f"to {labels[q]!r} (index {index[q]})")

    def endpoint_text(n, j, k, _):
        return (f"{at(n)} sends flow {flow_labels[j]!r} to "
                f"{flow_labels[k]!r} but the endpoints do not match")

    def sign_text(n, j, k, want):
        return (f"{at(n)}: flow {flow_labels[j]!r} maps to "
                f"{flow_labels[k]!r} with sign {eps[k]}, expected {want}")

    def value_text(n, i, q, _):
        return (f"{at(n)} sends {labels[i]!r} (value {value[i]}) "
                f"to {labels[q]!r} (value {value[q]})")

    index_eq, endpoint_eq, sign_eq, value_eq = (
        [Violation(law, text, w) for w in witnesses] for law, text, witnesses
        in zip(("index_equivariance", "endpoint_equivariance",
                "sign_equivariance", "value_equivariance"),
               (index_text, endpoint_text, sign_text, value_text), laws))

    d_squared = []
    if not (index_range or index_step):
        ok, witness = verify_complex(s.manifold_complex())
        if not ok:
            k, row, col, val = witness
            d_squared.append(Violation(
                "manifold_d_squared",
                f"boundary squared has entry {val} from {col!r} to {row!r}"))

    self_indexing = (None if value.count(None) == len(value)
                     else all(v == k for v, k in zip(value, index)))

    v = (index_range + index_eq + index_step + endpoint_eq + compat + cocycle
         + sign_eq + d_squared + value_eq)
    report = ValidationReport(violations=tuple(v), self_indexing=self_indexing)
    s._cache["report"] = report
    return report


def _diagnose(s, every, bad_points, bad_flows, per_element, decode) -> tuple:
    """validate_system's witnesses, sorted, on the orbits where a generator
    broke a law (all when every), from their defect sets D: the members
    unlike a reference, a point orbit's most common (index, value) or E,
    the (src, dst, sign) of a flow f0 carried along the generator edges,
    E(t.x) = (t.a, t.b, tau(t, a) tau(t, b) e) for E(x) = (a, b, e).  D is
    the whole orbit when an edge disagrees (an element fixing f0 moves its
    endpoints or reverses its sign).  By the action and cocycle laws
    E(g.x) = g.E(x), so (g, x) breaks no law when x and g.x are outside D,
    and for x outside D the verdict is y = g.x's alone: a law breaks when
    y's index, value (unless the reference's is None), endpoints or sign
    is not the reference's.  So one walk carries D's points, D's flows and
    their endpoints; each (g, x) with x in D is checked, and each (h^-1,
    h.y) with h.y outside D takes y's verdict."""
    index, value, src, dst, eps = s.index, s.value, s.src, s.dst, s.sign
    c, scan = len(s.labels), _scan(s)
    # D; per y in a proper D: walk position, y, verdict, sign of E(y)
    points, flow_ids, clean = [], [], []
    for o, _ in scan.orbits:
        if every or not bad_points.isdisjoint(o):
            k, v = Counter((index[x], value[x]) for x in o).most_common(1)[0][0]
            d = [y for y in o if every or index[y] != k or value[y] != v]
            if len(d) < len(o):
                clean += [(len(points) + m, y, (index[y] != k, False, False,
                           v is not None and value[y] != v), None)
                          for m, y in enumerate(d)]
            points += d
    for o in scan.flow_orbits:
        if every or not bad_flows.isdisjoint(o):
            f0 = next((x for x in o if x not in bad_flows), o[0])
            ends, queue, whole = {f0: (src[f0], dst[f0], eps[f0])}, [f0], every
            for x in queue:
                a, b, e = ends[x]
                for _, ag, tg, fg in s.rows:
                    y, there = fg[x], (ag[a], ag[b], tg[a] * tg[b] * e)
                    if y not in ends:
                        ends[y] = there
                        queue.append(y)
                    whole |= ends[y] != there
            d = [y for y in o if whole or (src[y], dst[y], eps[y]) != ends[y]]
            if len(d) < len(o):
                m = len(points) + len(flow_ids)
                clean += [(m + i, y, (False, (src[y], dst[y]) != ends[y][:2],
                                      eps[y] != ends[y][2], False), ends[y][2])
                          for i, y in enumerate(d)]
            flow_ids += d
    n_p, n_f = len(points), len(flow_ids)
    images, _ = s._walk([2 * x for x in points] + [2 * c + j for j in flow_ids]
                        + [2 * end[j] for end in (src, dst) for j in flow_ids])
    laws = per_element(enumerate(images), points, range(n_p), flow_ids, *(
        range(n_p + i * n_f, n_p + (i + 1) * n_f) for i in (0, 1, 2)))
    inverse, defects = None, (set(points), set(flow_ids))
    for m, y, breaks, want in clean:
        inverse, d = inverse or _inverses(s), defects[m >= n_p]
        pairs = [(inverse[n], decode[img[m]]) for n, img in enumerate(images)
                 if decode[img[m]] not in d]
        for law in compress(laws, breaks):
            law += [(n, x, y, want) for n, x in pairs]
    return tuple(map(sorted, laws))


def _require_valid(s: EquivariantMorseSystem, check_valid: bool = True) -> None:
    if check_valid:
        report = validate_system(s)
        if not report.ok:
            raise SystemNotValid(report)


# -- classification ---------------------------------------------------------

def classify(s: EquivariantMorseSystem) -> tuple[CriticalOrbit, ...]:
    """Orbit classification from the orbit scan, ordered by least member
    label; the isotropy order is |G| / |orbit|.  Cached on the system."""
    if "classify" in s._cache:
        return s._cache["classify"]
    result = tuple(
        CriticalOrbit(members=tuple(s.labels[m] for m in members),
                      index=s.index[members[0]],
                      iso_order=s.group.order // len(members),
                      orientable=orientable)
        for members, orientable in _scan(s).orbits)
    s._cache["classify"] = result
    return result


def orbit_of(s: EquivariantMorseSystem, label: str) -> CriticalOrbit:
    if label not in s.labels:
        raise UnknownPoint(f"{label!r} is not a critical point")
    return classify(s)[_scan(s).orbit[s.labels.index(label)]]


# -- canonical gauge ----------------------------------------------------------

class _Gauge(NamedTuple):
    sigma: tuple         # +-1 per point number
    eps: tuple           # canonical sign per flow number
    classes: tuple       # (flow orbit, src, dst orbit number), both orientable


def _normalize(s: EquivariantMorseSystem) -> _Gauge:
    """The canonical gauge of the module docstring, from the orbit scan.
    Its orbits and flow orbits come by least label, so the first flow orbit
    met per pair of orbits and sorted orbit numbers give the least choices."""
    if "gauge" in s._cache:
        return s._cache["gauge"]
    scan = _scan(s)
    if not scan.consistent:
        raise GaugeFailure("no G-invariant orientation: the rows do not "
                           "extend to an action of G")
    orbit, orientable = scan.orbit, [ok for _, ok in scan.orbits]
    src, dst, sig = s.src, s.dst, scan.sigma
    eps = [sig[a] * sig[b] * e for a, b, e in zip(src, dst, s.sign)]

    classes, adjacency = [], [{} for _ in orientable]
    for members in scan.flow_orbits:
        a, b = orbit[src[members[0]]], orbit[dst[members[0]]]
        if not (orientable[a] and orientable[b]):
            continue
        signs = {eps[m] for m in members}
        if len(signs) != 1:
            raise SignNotOrbitConstant(
                f"flow orbit of {s.flow_labels[members[0]]!r} carries signs "
                f"{sorted(signs)} after orientation normalization")
        classes.append((members, a, b))
        if a != b:
            adjacency[a].setdefault(b, members[0])
            adjacency[b].setdefault(a, members[0])

    # Fix the residual one-sign-per-orbit freedom along a spanning forest.
    shift, seen = [1] * len(orientable), [False] * len(orientable)
    for root, ok in enumerate(orientable):
        if ok and not seen[root]:
            seen[root], queue = True, [root]
            for u in queue:
                for v in sorted(adjacency[u]):
                    if not seen[v]:
                        seen[v] = True
                        shift[v] = eps[adjacency[u][v]] * shift[u]
                        queue.append(v)

    final = [sg * shift[k] for sg, k in zip(sig, orbit)]
    gauge = _Gauge(
        sigma=tuple(final),
        eps=tuple(final[a] * final[b] * e
                  for a, b, e in zip(src, dst, s.sign)),
        classes=tuple(classes))
    s._cache["gauge"] = gauge
    return gauge


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
    gauge, scan, index = _normalize(s), _scan(s), s.index
    out_flows = [[] for _ in s.labels]
    for a, b, e in zip(s.src, s.dst, gauge.eps):
        if 0 <= index[b] <= s.ambient_dim:
            out_flows[a].append((b, e))
    degrees = s.ambient_dim + 1
    out = orbit_sum_complex(
        [(index[m[0]], m, orientable) for m, orientable in scan.orbits],
        [scan.orbit] * degrees, [[1] * len(index)] * degrees,
        lambda k, p: out_flows[p], [s.labels] * degrees)
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
    orbit-stabilizer theorem, and its canonical sign.  The columns are
    written from the orbit scan's numbers: the orientable orbits, by least
    member label, are the points, and an orbit's number among them is the
    endpoint of its flow classes.
    """
    _require_valid(s)
    gauge, scan, order = _normalize(s), _scan(s), s.group.order
    kept = [members for members, orientable in scan.orbits if orientable]
    number = list(accumulate((ok for _, ok in scan.orbits), initial=0))
    classes = gauge.classes
    return OrbifoldMorseSystem(s.ambient_dim, (
        [s.labels[m[0]] for m in kept], [s.index[m[0]] for m in kept],
        [order // len(m) for m in kept], [True] * len(kept)), (
        [s.flow_labels[m[0]] for m, _, _ in classes],
        [number[a] for _, a, _ in classes], [number[b] for _, _, b in classes],
        [order // len(m) for m, _, _ in classes],
        [gauge.eps[m[0]] for m, _, _ in classes]))


def discarded_orbits(s: EquivariantMorseSystem) -> tuple[CriticalOrbit, ...]:
    """Non-orientable orbits, the ones carrying no quotient generator."""
    return tuple(o for o in classify(s) if not o.orientable)
