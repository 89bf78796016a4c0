"""End-to-end acceptance checks, one test per advertised guarantee.

Run with -v to get one pass/fail line per criterion.  Everything is exact
rational arithmetic; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from orbimorse import (
    ClosureExceedsCap,
    betti,
    compare,
    boundary_minus,
    boundary_plus,
    classify,
    derive_intrinsic,
    generate_group,
    homology,
    invariant_homology,
    regularize,
    validate_system,
    verify_complex,
    verify_d_squared,
)
from orbimorse.groups import orbits, stabilizer
from orbimorse.quotient import invariant_boundary
from orbimorse.cli import (
    corpus_names,
    instance_to_text,
    load_corpus,
    main,
)
from conftest import (build_global, build_intrinsic, build_simplicial,
                      make_dented, make_heart, make_torus, make_wedge)
from paper_identities import (admissible_triples, broken_weight,
                              pairing_check, psi, regauge)
from reference_validator import (flows, image, intrinsic_rows, natural_action,
                                 tables)


def corpus_by_kind():
    grouped = {"global_quotient": [], "intrinsic": [], "simplicial": [],
               "comparison": []}
    for name in corpus_names():
        inst = load_corpus(name)
        grouped[inst.kind].append((name, inst))
    return grouped

CORPUS = corpus_by_kind()


def global_systems():
    """Every equivariant system in the corpus, bundles included."""
    out = [(name, build_global(inst.body["system"]))
           for name, inst in CORPUS["global_quotient"]]
    out += [(name, build_global(inst.body["morse"]))
            for name, inst in CORPUS["comparison"]]
    return out


def triangulations():
    out = [(name, build_simplicial(inst.body["system"]))
           for name, inst in CORPUS["simplicial"]]
    out += [(name, build_simplicial(inst.body["triangulation"]))
            for name, inst in CORPUS["comparison"]]
    return out


def intrinsic_systems():
    """Intrinsic corpus instances plus everything derivable, labeled."""
    out = [(name, build_intrinsic(inst.body["system"]))
           for name, inst in CORPUS["intrinsic"]]
    out += [(name + "/derived", derive_intrinsic(s))
            for name, s in global_systems()]
    return out


def corpus_file(tmp_path, name):
    p = tmp_path / (name + ".json")
    p.write_text(instance_to_text(load_corpus(name)), encoding="utf-8")
    return str(p)


def test_criterion_01_heart_example(tmp_path, capsys):
    assert main(["homology", corpus_file(tmp_path, "heart")]) == 0
    out = capsys.readouterr().out
    assert "betti_invariant: 1,0,1" in out
    assert "orbit: r index=1 iso=2 discarded" in out

    s = make_heart()
    saddle = next(o for o in classify(s) if o.rep == "r")
    assert not saddle.orientable

    # boundary of the top orbit sum cancels exactly at the saddle
    sigma = {}
    top = next(o for o in classify(s) if o.index == 2)
    pa, tau, _ = tables(s)
    for m in top.members:
        for g in s.group:
            if image(pa, g, top.rep) == m:
                sigma[m] = tau[g][pa.index_of[top.rep]]
                break
    coeff = sum(sigma[f.src] * f.sign for f in flows(s) if f.dst == "r")
    assert coeff == 0

    naive = build_intrinsic(load_corpus("heart_naive").body["system"])
    assert betti(boundary_plus(naive)) == (1, 1, 1)
    assert betti(invariant_boundary(s)) == (1, 0, 1) != (1, 1, 1)


def test_criterion_02_d_squared_vanishes():
    checked = 0
    for name, s in intrinsic_systems():
        report = verify_d_squared(s)
        if name == "dsq_fail":
            assert not report.ok
            assert ("plus", "p", "r", Fraction(1)) in report.witnesses
        else:
            assert report.ok, (name, report.witnesses)
            checked += 1
    for name, (gk, sub) in triangulations():
        assert verify_complex(gk.complex.chain_complex(sub)) == (True, None)
        checked += 1
    assert checked >= 20


def test_criterion_03_psi_equivalence():
    for name, s in intrinsic_systems():
        f = psi(s)
        plus, minus = boundary_plus(s), boundary_minus(s)
        for k in range(1, s.ambient_dim + 1):
            assert plus.boundary_at(k) * f.at(k) \
                == f.at(k - 1) * minus.boundary_at(k), name
        if verify_d_squared(s).ok:
            assert betti(plus) == betti(minus), name


def test_criterion_04_broken_weight_lemma():
    for name, s in global_systems():
        _, derived = intrinsic_rows(derive_intrinsic(s))
        for P, Q, R in admissible_triples(s):
            w = broken_weight(s, P.rep, Q.rep, R.rep)
            if Q.orientable:
                nu_in = sum((Fraction(f.sign * Q.iso_order, f.iso_order)
                             for f in derived
                             if (f.src, f.dst) == (P.rep, Q.rep)), Fraction(0))
                nu_out = sum((Fraction(f.sign * Q.iso_order, f.iso_order)
                              for f in derived
                              if (f.src, f.dst) == (Q.rep, R.rep)), Fraction(0))
                assert w == nu_in * nu_out / Q.iso_order, (name, P.rep, Q.rep)
            else:
                assert w == 0, (name, P.rep, Q.rep)
        pairs = {}
        for P, Q, R in admissible_triples(s):
            pairs.setdefault((P.rep, R.rep), []).append(Q)
        for (p, r), mids in pairs.items():
            total = sum(broken_weight(s, p, Q.rep, r) for Q in mids)
            assert total == 0, (name, p, r)


def test_criterion_05_burnside_identity():
    rng = random.Random(2024)
    agreed = 0
    for trial in range(1030):
        degree = rng.choice([1, 2, 2, 3, 3, 4, 4, 5]) if trial < 1000 \
            else rng.choice([6, 7, 8])
        gens = []
        for _ in range(rng.randrange(1, 3)):
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
        try:
            group = generate_group(gens, degree=degree, cap=5040)
        except ClosureExceedsCap:
            continue
        act = natural_action(group)
        weight = {}
        for orb in orbits(act):
            w = Fraction(rng.randrange(-9, 10), rng.randrange(1, 10))
            for x in orb:
                weight[x] = w
        direct = sum(weight[orb[0]] for orb in orbits(act))
        averaged = Fraction(
            sum(weight[i] for g in group
                for i in range(degree) if g[i] == i), group.order)
        by_stabilizers = Fraction(
            sum(weight[x] * stabilizer(act, x).order for x in act.points),
            group.order)
        assert direct == averaged == by_stabilizers
        agreed += 1
    assert agreed >= 1000


def test_criterion_06_invariant_equals_quotient_homology():
    for name, (gk, sub) in triangulations():
        rounds, q = regularize(gk, sub)
        assert invariant_homology(gk) == homology(q.complex), name
        if sub is not None:
            assert invariant_homology(gk, sub) == homology(q.complex, q.sub), \
                name


def test_criterion_07_disc_quotients():
    for k in (2, 3, 4):
        inst = load_corpus(f"disc_rot_{k}")
        gk, sub = build_simplicial(inst.body["system"])
        _, q = regularize(gk, sub)
        assert homology(q.complex, q.sub) == (0, 0, 1), k
        assert invariant_homology(gk, sub) == (0, 0, 1), k
    for name in ("disc_reflect", "disc_reflect_d1"):
        inst = load_corpus(name)
        gk, sub = build_simplicial(inst.body["system"])
        _, q = regularize(gk, sub)
        assert not any(homology(q.complex, q.sub)), name
        assert not any(invariant_homology(gk, sub)), name


def test_criterion_08_morse_vs_triangulation():
    names = {name for name, _ in CORPUS["comparison"]}
    assert {"compare_heart", "compare_football_p2", "compare_football_p3",
            "compare_football_p5", "compare_sphere_trivial",
            "compare_torus_z2"} <= names
    for name, inst in CORPUS["comparison"]:
        s = build_global(inst.body["morse"])
        gk, _ = build_simplicial(inst.body["triangulation"])
        report = compare(s, gk)
        assert report.equal, (name, report)


def test_criterion_09_pairing_identities():
    for name, s in intrinsic_systems():
        report = pairing_check(s)
        assert report.ok, (name, report.witnesses)
        if s.flow_labels:
            assert report.rows, name


def test_criterion_10_gauge_invariance():
    rng = random.Random(404)
    systems = [make_heart(), make_torus(), make_dented(), make_wedge()]
    baselines = []
    for s in systems:
        assert validate_system(s).ok
        triples = [(P.rep, Q.rep, R.rep) for P, Q, R in admissible_triples(s)]
        baselines.append((
            classify(s),
            betti(invariant_boundary(s)),
            {t: broken_weight(s, *t) for t in triples},
        ))
    trials = 0
    for round_ in range(50):
        for s, (cls, b, weights) in zip(systems, baselines):
            sigma = {p: rng.choice([1, -1]) for p in s.labels}
            t = regauge(s, sigma)
            assert classify(t) == cls
            assert betti(invariant_boundary(t)) == b
            for triple, w in weights.items():
                assert broken_weight(t, *triple) == w
            trials += 1
    assert trials >= 200
