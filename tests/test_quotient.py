"""Equivariant systems: validation laws, classification, gauge, weights."""

import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orbimorse import (
    ActionNotWellDefined,
    CancellationFailure,
    ClosureExceedsCap,
    EquivariantMorseSystem,
    GaugeFailure,
    InvarianceFailure,
    MalformedSystem,
    SignNotOrbitConstant,
    SystemNotValid,
    UnknownPoint,
    betti,
    boundary_plus,
    classify,
    derive_intrinsic,
    discarded_orbits,
    generate_group,
    validate_system,
)
from orbimorse.cli import corpus_names, load_corpus
from orbimorse.groups import GroupAction, orbits
from orbimorse.quotient import _normalize, _scan, invariant_boundary, orbit_of

from conftest import build_global, columns, make_heart, make_ring_sphere
from dense_oracle import DenseMatrix
from paper_identities import (IndexMismatch, admissible_triples, broken_weight,
                              regauge)
from reference_validator import (
    CritPoint,
    Flow,
    TableSystem,
    compose,
    image,
    intrinsic_rows,
    natural_action,
    reference_classify,
    reference_derive,
    reference_gauge,
    reference_violations,
    tables,
)


def trivial_system(crit, flows, ambient_dim=2):
    """System over the trivial group with tau identically +1."""
    group = generate_group([], degree=1)
    e = group.identity
    pa = GroupAction(group, [c[0] for c in crit],
                     {e: tuple(range(len(crit)))})
    fa = GroupAction(group, [f[0] for f in flows],
                     {e: tuple(range(len(flows)))})
    return TableSystem(
        group, [CritPoint(*c) for c in crit], pa,
        {e: (1,) * len(crit)}, [Flow(*f) for f in flows], fa, ambient_dim)


def cocycle_corrupt_system():
    # tau(swap, q) flipped by hand, breaking tau(e) = tau(swap, .)tau(swap, .)
    group = generate_group([(1, 0)], degree=2)
    e, w = group.elements
    pa = GroupAction(group, ["p", "q"], {e: (0, 1), w: (1, 0)})
    fa = GroupAction(group, [], {e: (), w: ()})
    return TableSystem(
        group, [CritPoint("p", 0), CritPoint("q", 0)], pa,
        {e: (1, 1), w: (1, -1)}, [], fa, ambient_dim=2)


def laws(report):
    return {v.law for v in report.violations}


# -- reference scans over all of G x G -----------------------------------------

def full_cocycle_failures(s):
    """Every (g, h, p) with tau(gh, p) != tau(g, h.p) tau(h, p)."""
    pa, tau, _ = tables(s)
    return [(g, h, s.labels[p]) for g in s.group for h in s.group
            for p, x in enumerate(pa.image_array(h))
            if tau[compose(g, h)][p] != tau[g][x] * tau[h][p]]


def full_compatibility_failures(s):
    """Every (g, h) with (gh).x != g.(h.x) for some point or flow x."""
    pa, _, fa = tables(s)
    return [(g, h) for g in s.group for h in s.group
            for act in (pa, fa)
            if any(image(act, compose(g, h), x)
                   != image(act, g, image(act, h, x)) for x in act.points)]


def test_witnesses_are_held_as_numbers_until_read():
    # D_128 with c0 flipped: 511 sign witnesses, each detail opening with
    # the g=[...] of an element of degree 128, about 300 KB of text in all
    s = make_ring_sphere(128, defect="flip", reflect=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = validate_system(s)
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    text = sum(len(v.detail) for v in report.violations)
    assert len(report.violations) == 511 and grown < text / 2
    want = reference_violations(s)
    assert list(report.violations) == want
    assert list(map(str, report.violations)) == list(map(str, want))
    assert report.summary() == f"511 violation(s), first: {want[0]}"
    assert hash(report.violations[0]) == hash(want[0])


def test_heart_validates_and_is_self_indexing(heart):
    report = validate_system(heart)
    assert report.ok
    assert report.self_indexing is True
    assert report.summary() == "ok"


def test_fixtures_all_validate(heart, torus, dented, wedge):
    for s in (heart, torus, dented, wedge):
        assert validate_system(s).ok


def test_manifold_betti_of_fixtures(heart, torus, dented):
    assert betti(heart.manifold_complex()) == (1, 0, 1)
    assert betti(torus.manifold_complex()) == (1, 2, 1)
    assert betti(dented.manifold_complex()) == (1, 0, 1)


def test_index_range_violation():
    s = trivial_system([("p", 3, None)], [], ambient_dim=2)
    assert laws(validate_system(s)) == {"index_range"}


def test_index_equivariance_violation():
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, None), ("q", 1, None)],
        crit_images=[[1, 0]], crit_signs=[[1, 1]],
        flows=[], flow_images=[[]], ambient_dim=2))
    assert laws(validate_system(s)) == {"index_equivariance"}


def test_flow_index_step_violation():
    s = trivial_system([("p", 1, None), ("q", 1, None)],
                       [("f", "p", "q", 1)])
    assert laws(validate_system(s)) == {"flow_index_step"}


def endpoint_skew_system():
    # swap exchanges r1, r2 but fixes both flows pointwise
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 1, None), ("r1", 0, None), ("r2", 0, None)],
        crit_images=[[0, 2, 1]], crit_signs=[[1, 1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r2", -1)],
        flow_images=[[0, 1]], ambient_dim=1))


def test_endpoint_equivariance_violation():
    assert laws(validate_system(endpoint_skew_system())) \
        == {"endpoint_equivariance"}


def test_cocycle_violation():
    assert "cocycle" in laws(validate_system(cocycle_corrupt_system()))


def test_reference_scans_on_fixtures(heart, torus, dented, wedge):
    for s in (heart, torus, dented, wedge, endpoint_skew_system()):
        assert full_cocycle_failures(s) == []
        assert full_compatibility_failures(s) == []
    assert full_cocycle_failures(cocycle_corrupt_system()) != []


def z3_non_action():
    # both non-identity elements act by the same 3-cycle; tau is +1
    group = generate_group([(1, 2, 0)], degree=3)
    e, a, b = group.elements
    pa = GroupAction(group, ["x", "y", "z"],
                     {e: (0, 1, 2), a: (1, 2, 0), b: (1, 2, 0)})
    fa = GroupAction(group, [], {e: (), a: (), b: ()})
    return TableSystem(
        group, [CritPoint(lab, 0) for lab in "xyz"], pa,
        {g: (1, 1, 1) for g in group}, [], fa, ambient_dim=0)


def test_action_compatibility_violation_on_points():
    s = z3_non_action()
    assert full_cocycle_failures(s) == []
    assert full_compatibility_failures(s) != []
    assert laws(validate_system(s)) == {"action_compatibility"}


def test_action_compatibility_violation_on_flows():
    # the identity swaps two parallel flows; every other law holds
    group = generate_group([(1, 0)], degree=2)
    e, w = group.elements
    pa = GroupAction(group, ["p", "q"], {e: (0, 1), w: (0, 1)})
    fa = GroupAction(group, ["f1", "f2"], {e: (1, 0), w: (1, 0)})
    s = TableSystem(
        group, [CritPoint("p", 1), CritPoint("q", 0)], pa,
        {e: (1, 1), w: (1, 1)},
        [Flow("f1", "p", "q", 1), Flow("f2", "p", "q", 1)], fa, ambient_dim=1)
    report = validate_system(s)
    assert laws(report) == {"action_compatibility"}
    assert "flow" in report.violations[0].detail


def test_trivial_group_checks_the_identity():
    # the trivial group has no generators; its one element is still checked
    group = generate_group([], degree=1)
    e = group.identity
    for images, tau, law in (((1, 0), (1, 1), "action_compatibility"),
                             ((0, 1), (1, -1), "cocycle")):
        s = TableSystem(
            group, [CritPoint("p", 0), CritPoint("q", 0)],
            GroupAction(group, ["p", "q"], {e: images}), {e: tau}, [],
            GroupAction(group, [], {e: ()}), ambient_dim=0)
        assert laws(validate_system(s)) == {law}


def test_cocycle_witness_names_a_generator():
    s = cocycle_corrupt_system()
    details = [v.detail for v in validate_system(s).violations
               if v.law == "cocycle"]
    assert details and all("g=[1, 0]" in d for d in details)


def test_symmetric_group_of_order_5040_validates():
    # S7 fixing both poles of a sphere
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)], degree=7,
        crit_points=[("N", 2, None), ("S", 0, None)],
        crit_images=[[0, 1], [0, 1]], crit_signs=[[1, 1], [1, 1]],
        flows=[], flow_images=[[], []], ambient_dim=2))
    assert s.group.order == 5040
    assert validate_system(s).ok
    assert betti(invariant_boundary(s)) == (1, 0, 1)


def _parity(g):
    seen, sign = set(), 1
    for i in range(len(g)):
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j, length = g[j], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


SMALL_GENERATORS = {
    "Z6": [(1, 2, 3, 4, 5, 0)],
    "S3": [(1, 0, 2), (1, 2, 0)],
    "D4": [(1, 2, 3, 0), (3, 2, 1, 0)],
    "Z2xZ2": [(1, 0, 2, 3), (0, 1, 3, 2)],
}
SMALL_GROUPS = {name: generate_group(gens)
                for name, gens in SMALL_GENERATORS.items()}


@st.composite
def drawn_systems(draw, laws=False):
    """Copies of the natural action plus fixed points, tau a twisted
    coboundary chi(g) sigma(g.p) sigma(p); then, sometimes, a few image
    arrays replaced by arbitrary permutations and a few tau entries flipped.

    With laws, point orbits take indices 0, 1, 2 in a drawn order and draw
    a value each, and flow orbits join orbits one index apart: copy to
    copy, copy to fixed point and back pointwise, fixed to fixed as one
    flow.  A flow's sign is sigma(src) sigma(dst) times one sign per flow
    orbit, so every law holds until defects are planted: an index or a
    value changed, a flow re-aimed or its sign flipped, a flow image array
    replaced."""
    group = SMALL_GROUPS[draw(st.sampled_from(sorted(SMALL_GROUPS)))]
    d = group.degree
    copies = draw(st.integers(0, 2))
    n = copies * d + draw(st.integers(0 if copies else 1, 2))
    place = draw(st.permutations(range(n)))
    images = {}
    for g in group:
        img = list(range(n))
        for c in range(copies):
            for i in range(d):
                img[place[c * d + i]] = place[c * d + g[i]]
        for k in range(copies * d, n):
            img[place[k]] = place[k]
        images[g] = tuple(img)
    for g in draw(st.lists(st.sampled_from(group.elements), max_size=2)):
        images[g] = tuple(draw(st.permutations(range(n))))
    chi = draw(st.sampled_from([lambda g: 1, _parity]))
    sigma = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    tau = {g: [chi(g) * sigma[images[g][p]] * sigma[p] for p in range(n)]
           for g in group}
    for g, p in draw(st.lists(st.tuples(st.sampled_from(group.elements),
                                        st.integers(0, n - 1)), max_size=2)):
        tau[g][p] = -tau[g][p]
    labels = ["p%d" % i for i in range(n)]
    tau = {g: tuple(row) for g, row in tau.items()}
    if not laws:
        return TableSystem(
            group, [CritPoint(lab, 0) for lab in labels],
            GroupAction(group, labels, images), tau, [],
            GroupAction(group, [], {g: () for g in group}), ambient_dim=0)

    # orbit o: its points, one per element of [0, d) for a copy
    orbit_points = [[place[c * d + i] for i in range(d)] for c in range(copies)]
    orbit_points += [[place[k]] for k in range(copies * d, n)]
    index, value = [0] * n, [None] * n
    levels = draw(st.permutations(range(3)))
    orbit_index = [levels[o % 3] for o in range(len(orbit_points))]
    for members, k in zip(orbit_points, orbit_index):
        val = draw(st.one_of(st.none(), st.integers(0, 3)))
        for p in members:
            index[p] = k
            value[p] = None if val is None else Fraction(val)
    pairs = [(a, b) for a in range(len(orbit_points))
             for b in range(len(orbit_points))
             if orbit_index[a] == orbit_index[b] + 1]
    ends, natural = [], []      # (src, dst, orbit sign); image index under g
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)
                     if pairs else st.just([])):
        e0 = draw(st.sampled_from([1, -1]))
        A, B = orbit_points[a], orbit_points[b]
        if len(A) == len(B) == 1:
            natural.append(lambda g, j=len(ends): j)
            ends.append((A[0], B[0], e0))
            continue
        base = len(ends)
        for i in range(d):
            natural.append(lambda g, i=i, base=base: base + g[i])
            ends.append((A[i % len(A)], B[i % len(B)], e0))
    m = len(ends)
    fplace = draw(st.permutations(range(m)))
    flow_images = {}
    for g in group:
        img = [0] * m
        for j in range(m):
            img[fplace[j]] = fplace[natural[j](g)]
        flow_images[g] = tuple(img)
    flows = [None] * m
    for j, (a, b, e0) in enumerate(ends):
        flows[fplace[j]] = ["f%d" % fplace[j], a, b, sigma[a] * sigma[b] * e0]

    if m:
        for g in draw(st.lists(st.sampled_from(group.elements), max_size=1)):
            flow_images[g] = tuple(draw(st.permutations(range(m))))
        for j in draw(st.lists(st.integers(0, m - 1), max_size=1)):
            flows[j][2] = draw(st.sampled_from(
                [p for p in range(n) if index[p] == index[flows[j][2]]]))
        for j in draw(st.lists(st.integers(0, m - 1), max_size=1)):
            flows[j][3] = -flows[j][3]
    for p in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        index[p] = draw(st.sampled_from([k for k in range(3) if k != index[p]]))
    for p in draw(st.lists(st.integers(0, n - 1), max_size=1)):
        value[p] = Fraction(7) if value[p] is None else value[p] + 1
    return TableSystem(
        group, [CritPoint(lab, k, val)
                for lab, k, val in zip(labels, index, value)],
        GroupAction(group, labels, images), tau,
        [Flow(lab, labels[a], labels[b], e) for lab, a, b, e in flows],
        GroupAction(group, [f[0] for f in flows], flow_images), ambient_dim=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn_systems())
def test_generator_checks_agree_with_full_scans(s):
    found = laws(validate_system(s))
    cocycle = full_cocycle_failures(s)
    compatible = not full_compatibility_failures(s)
    assert ("action_compatibility" not in found) == compatible
    assert validate_system(s).ok == (compatible and not cocycle)
    if compatible:
        assert ("cocycle" in found) == bool(cocycle)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn_systems(laws=True))
def test_gated_validation_matches_the_full_scan(s):
    assert list(validate_system(s).violations) == reference_violations(s)


def test_per_element_law_broken_off_the_generators_is_listed():
    # Z3 = {e, a, b} is generated by a; the table for b is no action and
    # sends x (index 0) to w (index 1), so only b breaks index equivariance
    group = generate_group([(1, 2, 0)], degree=3)
    e, a, b = group.elements
    pa = GroupAction(group, ["x", "y", "z", "w"],
                     {e: (0, 1, 2, 3), a: (1, 2, 0, 3), b: (3, 1, 2, 0)})
    fa = GroupAction(group, [], {g: () for g in group})
    s = TableSystem(
        group, [CritPoint(lab, 0) for lab in "xyz"] + [CritPoint("w", 1)],
        pa, {g: (1, 1, 1, 1) for g in group}, [], fa, ambient_dim=1)
    report = validate_system(s)
    assert list(report.violations) == reference_violations(s)
    assert laws(report) == {"action_compatibility", "index_equivariance"}
    assert [v.detail for v in report.violations
            if v.law == "index_equivariance"] == [
        "g=[2, 0, 1] sends 'x' (index 0) to 'w' (index 1)",
        "g=[2, 0, 1] sends 'w' (index 1) to 'x' (index 0)"]


@pytest.mark.parametrize("defect, law", [("flip", "sign_equivariance"),
                                         ("endpoint", "endpoint_equivariance")])
def test_planted_ring_sphere_defect_lists_every_witness(defect, law):
    # the orbit of c0 is free: 2(|G| - 1) pairs (g, f) with g != e and
    # f = c0 or g.f = c0 break the law, and d^2 N != 0 once
    s = make_ring_sphere(12, defect)
    report = validate_system(s)
    assert list(report.violations) == reference_violations(s)
    assert Counter(v.law for v in report.violations) \
        == {law: 2 * (12 - 1), "manifold_d_squared": 1}
    assert validate_system(make_ring_sphere(12)).ok


@pytest.mark.parametrize("flow, stabilizer", [("a0", 2), ("c0", 1)])
def test_planted_flip_on_a_dihedral_ring_sphere(flow, stabilizer):
    # D_6 with a reflection fixing a0: a0's orbit has 6 flows, c0's 12.
    # The pairs (g, f) with exactly one of f, g.f the flipped flow break
    # the sign law: |G| - |stab| with f flipped, as many with g.f flipped
    s = make_ring_sphere(6, "flip", flow, reflect=True)
    report = validate_system(s)
    assert list(report.violations) == reference_violations(s)
    assert Counter(v.law for v in report.violations) \
        == {"sign_equivariance": 2 * (12 - stabilizer), "manifold_d_squared": 1}
    assert validate_system(make_ring_sphere(6, reflect=True)).ok


def test_named_systems_match_the_table_scans(instances):
    """The gauge and the derived system of fixed systems beside the drawn
    ones: every global quotient of the corpus, comparisons included, and
    the benchmark's ring spheres for groups of order 2 to 12."""
    payloads = [inst.body.get("system", inst.body.get("morse"))
                for inst in map(load_corpus, corpus_names())
                if inst.kind in ("global_quotient", "comparison")]
    payloads += [instances.zp_sphere(p) for p in (2, 4, 8)]
    payloads += [instances.dp_sphere(p) for p in (3, 6)]
    derived = 0
    for payload in payloads:
        s = build_global(payload)
        assert scanned_gauge(s) == reference_gauge(s)
        assert_row_law(s)
        if validate_system(s).ok:
            q = derive_intrinsic(s)
            assert intrinsic_rows(q) == reference_derive(s)
            derived += 1
    assert derived >= 15


def test_one_closure_keeps_the_element_order():
    systems = 0
    for name in corpus_names():
        inst = load_corpus(name)
        if inst.kind not in ("global_quotient", "comparison"):
            continue
        payload = inst.body.get("system", inst.body.get("morse"))
        want = generate_group(payload["generators"], degree=payload["degree"])
        assert build_global(payload).group.elements == want.elements, name
        systems += 1
    assert systems >= 10
    for name, gens in SMALL_GENERATORS.items():
        d = len(gens[0])
        # the natural points and a fixed minimum with tau the parity
        # character, a flow from each point to the minimum
        s = EquivariantMorseSystem.from_generator_data(**columns(
            generators=gens, degree=d,
            crit_points=[("p%d" % i, 1, None) for i in range(d)]
            + [("b", 0, None)],
            crit_images=[list(g) + [d] for g in gens],
            crit_signs=[[_parity(g)] * (d + 1) for g in gens],
            flows=[("f%d" % i, "p%d" % i, "b", 1) for i in range(d)],
            flow_images=[list(g) for g in gens], ambient_dim=1))
        assert s.group.elements == SMALL_GROUPS[name].elements, name
        assert validate_system(s).ok, name


def test_inconsistent_flow_images_rejected_and_the_cap_kept():
    # a 3-cycle on the flows cannot follow the swap, of order 2
    data = dict(generators=[(1, 0)], degree=2,
                crit_points=[("p", 1, None), ("q", 0, None)],
                crit_images=[[0, 1]], crit_signs=[[1, 1]],
                flows=[("f%d" % i, "p", "q", 1) for i in range(3)],
                flow_images=[[1, 2, 0]], ambient_dim=1)
    with pytest.raises(ActionNotWellDefined):
        EquivariantMorseSystem.from_generator_data(**columns(**data))
    # the combined closure (order 6) passes a cap of 2 that G meets
    with pytest.raises(ActionNotWellDefined):
        EquivariantMorseSystem.from_generator_data(**columns(cap=2, **data))
    with pytest.raises(ClosureExceedsCap):
        EquivariantMorseSystem.from_generator_data(**columns(cap=1, **data))


def sign_skew_heart():
    s = make_heart()
    return EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[(p, k, None) for p, k in zip(s.labels, s.index)],
        crit_images=[[1, 0, 2, 3]], crit_signs=[[1, 1, -1, 1]],
        flows=[("g1", "p", "r", 1), ("g2", "q", "r", 1),
               ("d1", "r", "s", 1), ("d2", "r", "s", -1)],
        flow_images=[[1, 0, 3, 2]], ambient_dim=2))


def test_sign_equivariance_violation():
    assert laws(validate_system(sign_skew_heart())) == {"sign_equivariance"}


def test_manifold_d_squared_violation():
    s = trivial_system([("p", 2, None), ("q", 1, None), ("r", 0, None)],
                       [("f", "p", "q", 1), ("g", "q", "r", 1)])
    assert laws(validate_system(s)) == {"manifold_d_squared"}


def test_value_equivariance_violation():
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("p", 2, Fraction(2)), ("q", 2, Fraction(3)),
                     ("r", 1, Fraction(1)), ("s", 0, Fraction(0))],
        crit_images=[[1, 0, 2, 3]], crit_signs=[[1, 1, -1, 1]],
        flows=[("g1", "p", "r", 1), ("g2", "q", "r", -1),
               ("d1", "r", "s", 1), ("d2", "r", "s", -1)],
        flow_images=[[1, 0, 3, 2]], ambient_dim=2))
    report = validate_system(s)
    assert "value_equivariance" in laws(report)
    assert report.self_indexing is False
    assert "violation" in report.summary()


def test_invalid_system_refuses_derivations():
    s = sign_skew_heart()
    with pytest.raises(SystemNotValid) as info:
        invariant_boundary(s)
    assert not info.value.report.ok
    assert "sign_equivariance" in str(info.value)


def test_malformed_construction_rejected():
    group = generate_group([(1, 0)], degree=2)
    e, w = group.elements
    pa = GroupAction(group, ["p"], {e: (0,), w: (0,)})
    fa = GroupAction(group, [], {e: (), w: ()})
    with pytest.raises(MalformedSystem, match="tau table"):
        TableSystem(group, [CritPoint("p", 0)], pa,
                               {e: (1,)}, [], fa, 0)
    with pytest.raises(MalformedSystem, match="tau rows"):
        TableSystem(group, [CritPoint("p", 0)], pa,
                               {e: (1,), w: (2,)}, [], fa, 0)
    with pytest.raises(MalformedSystem):
        trivial_system([("p", 1, None)], [("f", "p", "ghost", 1)])
    with pytest.raises(MalformedSystem):
        trivial_system([("p", 1, None), ("q", 0, None)],
                       [("f", "p", "q", 2)])
    with pytest.raises(MalformedSystem):
        EquivariantMorseSystem.from_generator_data(**columns(
            generators=[(1, 0)], degree=2,
            crit_points=[("p", 0, None)], crit_images=[[0, 0]],
            crit_signs=[[1]], flows=[], flow_images=[[]], ambient_dim=0))


def test_inconsistent_cocycle_data_rejected():
    # the signed swap below has order 4, the group only order 2
    with pytest.raises(ActionNotWellDefined):
        EquivariantMorseSystem.from_generator_data(**columns(
            generators=[(1, 0)], degree=2,
            crit_points=[("p", 0, None), ("q", 0, None)],
            crit_images=[[1, 0]], crit_signs=[[1, -1]],
            flows=[], flow_images=[[]], ambient_dim=0))


def test_classification_of_heart(heart):
    cls = classify(heart)
    assert [(o.members, o.index, o.iso_order, o.orientable) for o in cls] == [
        (("p", "q"), 2, 1, True),
        (("r",), 1, 2, False),
        (("s",), 0, 2, True),
    ]
    assert [o.rep for o in discarded_orbits(heart)] == ["r"]


def test_classification_of_torus(torus):
    by_rep = {o.rep: o for o in classify(torus)}
    assert by_rep["M"].orientable and by_rep["b"].orientable
    assert not by_rep["r1"].orientable and not by_rep["r2"].orientable
    assert {o.rep for o in discarded_orbits(torus)} == {"r1", "r2"}


def test_classification_of_dented(dented):
    cls = classify(dented)
    assert all(o.orientable for o in cls)
    assert {o.rep: o.iso_order for o in cls} == \
        {"M": 2, "B": 2, "b1": 1, "r1": 1}


def test_orbit_lookup_of_an_unknown_point(heart):
    with pytest.raises(UnknownPoint):
        orbit_of(heart, "ghost")


def test_invariant_boundary_of_heart(heart):
    c = invariant_boundary(heart)
    assert c.basis_labels == (("s",), (), ("p",))
    assert betti(c) == (1, 0, 1)


def test_invariant_boundary_of_torus(torus):
    c = invariant_boundary(torus)
    assert tuple(map(len, c.basis_labels)) == (1, 0, 1)
    assert betti(c) == (1, 0, 1)


def test_invariant_boundary_of_dented(dented):
    c = invariant_boundary(dented)
    assert tuple(map(len, c.basis_labels)) == (2, 1, 1)
    d1 = DenseMatrix.of(c.boundary_at(1))
    assert sorted(abs(row[0]) for row in d1.entries) == [1, 2]
    assert betti(c) == (1, 0, 1)


def test_invariant_boundary_matches_derived_quotient(heart, torus, dented,
                                                     wedge):
    for s in (heart, torus, dented, wedge):
        assert invariant_boundary(s) == boundary_plus(derive_intrinsic(s))


def test_cancellation_failure_on_skewed_signs():
    # both top flows land on the non-orientable saddle with sign +1
    with pytest.raises(CancellationFailure, match="non-orientable"):
        invariant_boundary(sign_skew_heart(), check_valid=False)


def test_invariance_failure_on_skewed_endpoints():
    with pytest.raises(InvarianceFailure, match="not"):
        invariant_boundary(endpoint_skew_system(), check_valid=False)


def test_unvalidated_boundary_ignores_points_out_of_range():
    s = trivial_system([("p", 1, None), ("q", 3, None)],
                       [("f", "q", "p", 1), ("g", "p", "q", 1)], ambient_dim=1)
    assert tuple(map(len, invariant_boundary(s, check_valid=False).basis_labels)) \
        == (0, 1)


def test_gauge_failure_on_corrupt_cocycle():
    with pytest.raises(GaugeFailure):
        invariant_boundary(cocycle_corrupt_system(), check_valid=False)


def test_sign_not_orbit_constant():
    # u3 is the swap image of u1 yet carries the opposite sign; tau is +1
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b1", 0, None), ("b2", 0, None), ("B", 0, None)],
        crit_images=[[0, 2, 1, 4, 3, 5]], crit_signs=[[1, 1, 1, 1, 1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", -1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b1", 1), ("w2", "r1", "B", -1),
               ("w3", "r2", "b2", 1), ("w4", "r2", "B", -1)],
        flow_images=[[2, 3, 0, 1, 6, 7, 4, 5]], ambient_dim=2))
    with pytest.raises(SignNotOrbitConstant):
        invariant_boundary(s, check_valid=False)


def test_broken_weights_of_wedge(wedge):
    assert broken_weight(wedge, "p", "q1", "r") == 1
    assert broken_weight(wedge, "p", "q2", "r") == -1
    assert broken_weight(wedge, "p", "q3", "r") == -1
    triples = admissible_triples(wedge)
    assert len(triples) == 2
    assert sum(broken_weight(wedge, P.rep, Q.rep, R.rep)
               for P, Q, R in triples) == 0


def test_broken_weight_vanishes_through_non_orientable_orbit(heart, torus):
    assert broken_weight(heart, "p", "r", "s") == 0
    assert broken_weight(torus, "M", "r1", "b") == 0
    assert broken_weight(torus, "M", "r2", "b") == 0


def test_broken_weight_rejects_bad_triples(heart):
    with pytest.raises(IndexMismatch):
        broken_weight(heart, "p", "q", "r")
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0)], degree=2,
        crit_points=[("M", 2, None), ("r1", 1, None), ("r2", 1, None),
                     ("b", 0, None)],
        crit_images=[[0, 1, 2, 3]], crit_signs=[[-1, -1, -1, 1]],
        flows=[("u1", "M", "r1", 1), ("u2", "M", "r1", -1),
               ("u3", "M", "r2", 1), ("u4", "M", "r2", -1),
               ("w1", "r1", "b", 1), ("w2", "r1", "b", -1),
               ("w3", "r2", "b", 1), ("w4", "r2", "b", -1)],
        flow_images=[[1, 0, 3, 2, 5, 4, 7, 6]], ambient_dim=2))
    with pytest.raises(IndexMismatch, match="orientable"):
        broken_weight(s, "M", "r1", "b", check_valid=False)


def test_regauge_round_trips_and_preserves_derived_data(heart, dented, wedge):
    flips = {"p": -1, "r": -1, "b1": -1, "q2": -1, "M": -1}
    for s in (heart, dented, wedge):
        t = regauge(s, flips)
        assert validate_system(t).ok
        assert classify(t) == classify(s)
        assert invariant_boundary(t) == invariant_boundary(s)
        for P, Q, R in admissible_triples(s):
            assert broken_weight(t, P.rep, Q.rep, R.rep) \
                == broken_weight(s, P.rep, Q.rep, R.rep)
        assert tables(regauge(t, flips))[1] == tables(s)[1]


def test_derived_quotient_of_heart(heart):
    crit, flows = intrinsic_rows(derive_intrinsic(heart))
    assert [(p.label, p.index, p.iso_order) for p in crit] == \
        [("p", 2, 1), ("s", 0, 2)]
    assert flows == ()


# -- generator rows against the table scans -------------------------------------

def _sign_on(g, points):
    """Sign of g on a g-invariant set of ground points: a character of G
    when the set is G-invariant."""
    sign, seen = 1, set()
    for x in points:
        y = x
        while y not in seen:
            seen.add(y)
            y = g[y]
            if y != x:
                sign = -sign
    return sign


@st.composite
def generator_data(draw):
    """from_generator_data arguments for a group of SMALL_GENERATORS,
    with point and flow rows for conftest.columns.

    Point orbits are copies of a ground orbit, of the regular action on G
    and fixed points.  Each takes index 0, 1 or 2 and a character chi, the
    sign of g on a drawn union of ground orbits, with tau(g, p) =
    chi(g) sigma(g.p) sigma(p) for a drawn sigma.  A flow orbit is either
    regular, f_h joining h.a to h.b for members a, b of orbits one index
    apart, with sign sigma(src) sigma(dst) chi_a(h) chi_b(h) e, or one
    flow between two fixed points of equal character.  Points and flows
    are listed and labeled in drawn orders."""
    name = draw(st.sampled_from(sorted(SMALL_GENERATORS)))
    gens, G = SMALL_GENERATORS[name], SMALL_GROUPS[name]
    ground = orbits(natural_action(G))

    kinds = draw(st.lists(st.sampled_from(["ground", "regular", "fixed"]),
                          min_size=2, max_size=4))
    orbs = []           # (keys, act, index, chi)
    for kind in kinds:
        if kind == "ground":
            keys, act = draw(st.sampled_from(ground)), lambda g, x: g[x]
        elif kind == "regular":
            keys, act = list(G.elements), compose
        else:
            keys, act = [None], lambda g, x: x
        part = [x for o in draw(st.sets(st.sampled_from(range(len(ground)))))
                for x in ground[o]]
        orbs.append((keys, act, draw(st.integers(0, 2)),
                     lambda g, part=part: _sign_on(g, part)))
    points = [(o, x) for o, (keys, *_) in enumerate(orbs) for x in keys]
    points = [points[i] for i in draw(st.permutations(range(len(points))))]
    pos = {p: i for i, p in enumerate(points)}
    sigma = draw(st.lists(st.sampled_from([1, -1]), min_size=len(points),
                          max_size=len(points)))

    def image(g, i):
        o, x = points[i]
        return pos[(o, orbs[o][1](g, x))]

    flow_orbits = []    # (keys h, act, endpoints of f_h, sign factor of f_h)
    pairs = [(a, b) for a in range(len(orbs)) for b in range(len(orbs))
             if orbs[a][2] == orbs[b][2] + 1]
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3)
                     if pairs else st.just([])):
        (ka, act_a, _, chi_a), (kb, act_b, _, chi_b) = orbs[a], orbs[b]
        e = draw(st.sampled_from([1, -1]))
        if ka == kb == [None]:
            if any(chi_a(g) != chi_b(g) for g in gens):
                continue
            flow_orbits.append(([None], lambda g, h: h,
                                lambda h, a=a, b=b: (pos[(a, None)], pos[(b, None)]),
                                lambda h, e=e: e))
            continue
        x0, y0 = draw(st.sampled_from(ka)), draw(st.sampled_from(kb))
        flow_orbits.append((
            list(G.elements), compose,
            lambda h, a=a, b=b, x0=x0, y0=y0, act_a=act_a, act_b=act_b: (
                pos[(a, act_a(h, x0))], pos[(b, act_b(h, y0))]),
            lambda h, chi_a=chi_a, chi_b=chi_b, e=e: chi_a(h) * chi_b(h) * e))
    flows = [(o, h) for o, (keys, *_) in enumerate(flow_orbits) for h in keys]
    flows = [flows[i] for i in draw(st.permutations(range(len(flows))))]
    fpos = {f: i for i, f in enumerate(flows)}
    labels = ["p%d" % i for i in draw(st.permutations(range(len(points))))]
    flow_list = []
    for j, (o, h) in enumerate(flows):
        src, dst = flow_orbits[o][2](h)
        flow_list.append(("f%d" % j, labels[src], labels[dst],
                          sigma[src] * sigma[dst] * flow_orbits[o][3](h)))
    return dict(
        generators=gens, degree=G.degree,
        crit_points=[(lab, orbs[o][2], None)
                     for lab, (o, _) in zip(labels, points)],
        crit_images=[[image(g, i) for i in range(len(points))] for g in gens],
        crit_signs=[[orbs[points[i][0]][3](g) * sigma[image(g, i)] * sigma[i]
                     for i in range(len(points))] for g in gens],
        flows=flow_list,
        flow_images=[[fpos[(o, flow_orbits[o][1](g, h))] for o, h in flows]
                     for g in gens],
        ambient_dim=2)


def consistent_by_closure(data):
    """Whether the signed generator images extend to an action of G: the
    closure of the generators on ground, signed points and flows together
    has the order of G exactly then."""
    gens, d = data["generators"], data["degree"]
    c, nf = len(data["crit_points"]), len(data["flows"])
    combined = []
    for g, imgs, sgns, fimgs in zip(gens, data["crit_images"],
                                    data["crit_signs"], data["flow_images"]):
        perm = list(g)
        for k, e in zip(imgs, sgns):
            perm += [d + 2 * k + (e < 0), d + 2 * k + (e > 0)]
        perm += [d + 2 * c + f for f in fimgs]
        combined.append(perm)
    order = generate_group(gens, degree=d).order
    try:
        return generate_group(combined, degree=d + 2 * c + nf,
                              cap=order).order == order
    except ClosureExceedsCap:
        return False


def scanned_gauge(s):
    """(sigma, eps, flow orbits) of the canonical gauge, as reference_gauge
    gives them: sigma and eps by label, and the flow orbits are the orbit
    scan's, by label."""
    gauge = _normalize(s)
    return (dict(zip(s.labels, gauge.sigma)),
            dict(zip(s.flow_labels, gauge.eps)),
            tuple(tuple(s.flow_labels[f] for f in o)
                  for o in _scan(s).flow_orbits))


def assert_row_law(s):
    """sigma(g.m) tau(g, m) sigma(m) = 1 for the scan's orientation, every
    generator row g and every member m of an orientable orbit: a consistent
    scan gives an invariant orientation, so _normalize checks nothing more."""
    sig = _scan(s).sigma
    for members, orientable in _scan(s).orbits:
        if orientable:
            for _, ag, tg, _ in s.rows:
                assert all(sig[ag[m]] * tg[m] * sig[m] == 1 for m in members)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(generator_data(), st.data())
def test_generator_rows_match_the_table_scans(data, draw):
    s = EquivariantMorseSystem.from_generator_data(**columns(**data))
    flips = draw.draw(st.lists(st.sampled_from([1, -1]), min_size=len(s.labels),
                               max_size=len(s.labels)))
    t = regauge(s, dict(zip(s.labels, flips)))
    derived = []
    for u in (s, t):
        assert classify(u) == reference_classify(u)
        assert scanned_gauge(u) == reference_gauge(u)
        assert_row_law(u)
        if validate_system(u).ok:
            q = derive_intrinsic(u)
            assert intrinsic_rows(q) == reference_derive(u)
            derived.append(intrinsic_rows(q))
    assert classify(t) == classify(s)
    assert len(derived) != 1 and len(set(derived)) <= 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generator_data(), st.sampled_from(["flip", "endpoint"]), st.data())
def test_planted_defects_match_the_full_scan(data, defect, draw):
    if not data["flows"]:
        return
    flows = [list(f) for f in data["flows"]]
    f = flows[draw.draw(st.integers(0, len(flows) - 1))]
    if defect == "flip":
        f[3] = -f[3]
    else:
        index = {p[0]: p[1] for p in data["crit_points"]}
        f[2] = draw.draw(st.sampled_from(
            [p[0] for p in data["crit_points"] if p[1] == index[f[2]]]))
    s = EquivariantMorseSystem.from_generator_data(**columns(
        **dict(data, flows=[tuple(f) for f in flows])))
    assert list(validate_system(s).violations) == reference_violations(s)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(generator_data(), st.data())
def test_defects_on_several_orbits_match_the_full_scan(data, draw):
    """Each point orbit draws a value or none; then two or more orbits of
    more than one member each get one defect: a point's index or value
    changed, a flow re-aimed at another point of its index (flipped when
    there is none) or its sign flipped.  Each defect breaks a law on its
    orbit, and the report lists every witness as the full scan does."""
    s = EquivariantMorseSystem.from_generator_data(**columns(**data))
    points = [list(p) for p in data["crit_points"]]
    flows = [list(f) for f in data["flows"]]
    at = {p[0]: i for i, p in enumerate(points)}
    for orb in classify(s):
        value = draw.draw(st.one_of(st.none(), st.integers(0, 3)))
        for m in orb.members:
            points[at[m]][2] = None if value is None else Fraction(value)
    targets = [("point", [at[m] for m in o.members]) for o in classify(s)]
    flow_at = {f[0]: j for j, f in enumerate(flows)}
    targets += [("flow", [flow_at[f] for f in o]) for o in orbits(tables(s)[2])]
    targets = [t for t in targets if len(t[1]) > 1]
    assume(len(targets) >= 2)
    chosen = draw.draw(st.lists(st.sampled_from(range(len(targets))),
                                min_size=2, max_size=4, unique=True))
    for where, members in (targets[c] for c in chosen):
        x = draw.draw(st.sampled_from(members))
        if where == "point":
            if draw.draw(st.booleans()):
                points[x][1] = (points[x][1] + draw.draw(st.integers(1, 2))) % 3
            else:
                points[x][2] = Fraction(7) if points[x][2] is None \
                    else points[x][2] + 1
            continue
        f = flows[x]
        others = [p[0] for p in points if p[1] == points[at[f[2]]][1]
                  and p[0] != f[2]]
        if others and draw.draw(st.booleans()):
            f[2] = draw.draw(st.sampled_from(others))
        else:
            f[3] = -f[3]
    t = EquivariantMorseSystem.from_generator_data(**columns(**dict(
        data, crit_points=[tuple(p) for p in points],
        flows=[tuple(f) for f in flows])))
    report = validate_system(t)
    assert not report.ok
    assert list(report.violations) == reference_violations(t)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(generator_data(), st.data())
def test_several_defects_in_one_orbit_match_the_full_scan(data, draw):
    """Each point orbit draws a value or none.  One orbit of more than one
    member gets two or three defects, one at its least member: a point's
    index changed or its value changed, dropped or set, a flow flipped or
    re-aimed.  Or a flow orbit has its least member and that flow's images
    under the generators flipped together: no generator then flags the
    least member, so the reference flow of the diagnosis is a defect too.
    Then one flow is flipped or re-aimed and the index of one of its
    endpoints changed.  The report lists every witness as the full scan
    does."""
    s = EquivariantMorseSystem.from_generator_data(**columns(**data))
    points = [list(p) for p in data["crit_points"]]
    flows = [list(f) for f in data["flows"]]
    at = {p[0]: i for i, p in enumerate(points)}
    for orb in classify(s):
        value = draw.draw(st.one_of(st.none(), st.integers(0, 3)))
        for m in orb.members:
            points[at[m]][2] = None if value is None else Fraction(value)
    flow_at = {f[0]: j for j, f in enumerate(flows)}
    targets = [("point", [at[m] for m in o.members]) for o in classify(s)]
    targets += [("flow", [flow_at[f] for f in o]) for o in orbits(tables(s)[2])]
    targets = [t for t in targets if len(t[1]) > 1]
    assume(targets)
    where, members = draw.draw(st.sampled_from(targets))

    def flip_or_reaim(f):
        others = [p[0] for p in points if p[1] == points[at[f[2]]][1]
                  and p[0] != f[2]]
        if others and draw.draw(st.booleans()):
            f[2] = draw.draw(st.sampled_from(others))
        else:
            f[3] = -f[3]

    if where == "flow" and draw.draw(st.booleans()):
        for x in {members[0], *(row[members[0]] for row in data["flow_images"])}:
            flows[x][3] = -flows[x][3]
    else:
        rest = draw.draw(st.lists(st.sampled_from(members[1:]), min_size=1,
                                  max_size=2, unique=True))
        for x in [members[0]] + rest:
            if where == "flow":
                flip_or_reaim(flows[x])
            elif draw.draw(st.booleans()):
                points[x][1] = (points[x][1] + draw.draw(st.integers(1, 2))) % 3
            else:
                points[x][2] = Fraction(7) if points[x][2] is None \
                    else draw.draw(st.sampled_from([None, points[x][2] + 1]))
    if flows:
        f = flows[draw.draw(st.integers(0, len(flows) - 1))]
        flip_or_reaim(f)
        p = points[at[f[draw.draw(st.sampled_from([1, 2]))]]]
        p[1] = (p[1] + draw.draw(st.integers(1, 2))) % 3
    t = EquivariantMorseSystem.from_generator_data(**columns(**dict(
        data, crit_points=[tuple(p) for p in points],
        flows=[tuple(f) for f in flows])))
    assert list(validate_system(t).violations) == reference_violations(t)


def test_a_flow_orbit_its_stabilizer_reverses_is_read_whole(monkeypatch):
    # Z2 x Z2 = <s, t>: s swaps p0, p1, q0, q1 and the flows f0 = p0 -> q0,
    # f1 = p1 -> q1; t fixes them all and reverses p0 and p1 only.  So t
    # fixes f0 and reverses its signed endpoints: transport from f0
    # disagrees with itself, and the diagnosis walk carries the whole flow
    # orbit and its endpoints.  f1's sign is flipped besides, and q1 alone
    # has a value, so q1 is the defect set of its orbit
    walks = []
    real_walk = EquivariantMorseSystem._walk

    def walk(s, starts):
        walks.append(list(starts))
        return real_walk(s, starts)
    monkeypatch.setattr(EquivariantMorseSystem, "_walk", walk)
    s = EquivariantMorseSystem.from_generator_data(**columns(
        generators=[(1, 0, 2, 3), (0, 1, 3, 2)], degree=4,
        crit_points=[("p0", 1, None), ("p1", 1, None), ("q0", 0, None),
                     ("q1", 0, Fraction(1))],
        crit_images=[[1, 0, 3, 2], [0, 1, 2, 3]],
        crit_signs=[[1, 1, 1, 1], [-1, -1, 1, 1]],
        flows=[("f0", "p0", "q0", 1), ("f1", "p1", "q1", -1)],
        flow_images=[[1, 0], [0, 1]], ambient_dim=1))
    report = validate_system(s)
    assert list(report.violations) == reference_violations(s)
    assert Counter(v.law for v in report.violations) == {
        "sign_equivariance": 4, "value_equivariance": 2}
    assert set(walks[-1]) == {0, 2, 4, 6, 8, 9}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generator_data(), st.sampled_from(["sign", "flow"]), st.data())
def test_inconsistent_generator_rows_are_rejected(data, change, draw):
    gi = draw.draw(st.integers(0, len(data["generators"]) - 1))
    if change == "sign":
        signs = [list(row) for row in data["crit_signs"]]
        signs[gi][draw.draw(st.integers(0, len(signs[gi]) - 1))] *= -1
        data = dict(data, crit_signs=signs)
    else:
        images = [list(row) for row in data["flow_images"]]
        images[gi] = draw.draw(st.permutations(images[gi]))
        data = dict(data, flow_images=images)
    if consistent_by_closure(data):
        s = EquivariantMorseSystem.from_generator_data(**columns(**data))
        assert classify(s) == reference_classify(s)
    else:
        with pytest.raises(ActionNotWellDefined):
            EquivariantMorseSystem.from_generator_data(**columns(**data))
