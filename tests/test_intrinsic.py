"""Quotient-level systems: the two boundaries, psi, reversal, pairings."""

import math
import random
from fractions import Fraction

import pytest

from orbimorse import (
    DivisibilityViolation,
    IndexOutOfRange,
    MalformedSystem,
    OrbifoldMorseSystem,
    betti,
    boundary_minus,
    boundary_plus,
    verify_d_squared,
)

from conftest import columns
from dense_oracle import DenseMatrix
from paper_identities import pairing_check, psi, reverse
from reference_validator import IntrinsicFlow, IntrinsicPoint, intrinsic_rows


def system(ambient_dim, crit_points, flows):
    """The intrinsic system of IntrinsicPoint and IntrinsicFlow rows."""
    return OrbifoldMorseSystem(ambient_dim, **columns(crit_points, flows, (4, 5)))


def one_flow_system():
    return system(
        ambient_dim=1,
        crit_points=[IntrinsicPoint("p", 1, 2), IntrinsicPoint("q", 0, 4)],
        flows=[IntrinsicFlow("f", "p", "q", 2, 1)])


def chain_system():
    # d squared is visibly nonzero here
    return system(
        ambient_dim=2,
        crit_points=[IntrinsicPoint("p", 2, 1), IntrinsicPoint("q", 1, 1),
                     IntrinsicPoint("r", 0, 1)],
        flows=[IntrinsicFlow("a", "p", "q", 1, 1),
               IntrinsicFlow("b", "q", "r", 1, 1)])


def test_weighted_boundaries_of_one_flow():
    s = one_flow_system()
    assert DenseMatrix.of(boundary_plus(s).boundary_at(1)).entries == ((2,),)
    assert DenseMatrix.of(boundary_minus(s).boundary_at(1)).entries == ((1,),)
    assert betti(boundary_plus(s)) == betti(boundary_minus(s)) == (0, 0)


def test_psi_intertwines_the_conventions():
    s = one_flow_system()
    f = psi(s)
    assert DenseMatrix.of(f.at(0)).entries == ((4,),)
    assert DenseMatrix.of(f.at(1)).entries == ((2,),)


def test_divisibility_enforced_on_construction():
    with pytest.raises(DivisibilityViolation):
        system(
            ambient_dim=1,
            crit_points=[IntrinsicPoint("p", 1, 2), IntrinsicPoint("q", 0, 2)],
            flows=[IntrinsicFlow("f", "p", "q", 3, 1)])


def test_malformed_systems_rejected():
    dead = IntrinsicPoint("n", 0, 2, orientable=False)
    live = IntrinsicPoint("p", 1, 2)
    with pytest.raises(MalformedSystem, match="non-orientable"):
        system(1, [live, dead], [IntrinsicFlow("f", "p", "n", 2, 1)])
    with pytest.raises(MalformedSystem, match="drop"):
        system(2, [IntrinsicPoint("p", 2, 1),
                   IntrinsicPoint("q", 0, 1)],
               [IntrinsicFlow("f", "p", "q", 1, 1)])
    with pytest.raises(MalformedSystem, match="sign"):
        system(1, [IntrinsicPoint("p", 1, 1),
                   IntrinsicPoint("q", 0, 1)],
               [IntrinsicFlow("f", "p", "q", 1, 3)])
    with pytest.raises(MalformedSystem, match="unknown"):
        system(1, [IntrinsicPoint("p", 1, 1)],
               [IntrinsicFlow("f", "p", "q", 1, 1)])
    with pytest.raises(MalformedSystem, match="duplicate"):
        system(0, [IntrinsicPoint("p", 0, 1),
                   IntrinsicPoint("p", 0, 2)], [])
    with pytest.raises(MalformedSystem, match="positive"):
        system(0, [IntrinsicPoint("p", 0, 0)], [])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        system(2, [IntrinsicPoint("p", 3, 1)], [])
    with pytest.raises(IndexOutOfRange):
        reverse(system(2, [IntrinsicPoint("p", 2, 1)], []), n=1)


def test_d_squared_witnesses():
    report = verify_d_squared(chain_system())
    assert not report.ok
    assert ("plus", "p", "r", Fraction(1)) in report.witnesses
    assert ("minus", "p", "r", Fraction(1)) in report.witnesses

    good = system(
        ambient_dim=2,
        crit_points=[IntrinsicPoint("p", 2, 1), IntrinsicPoint("q1", 1, 1),
                     IntrinsicPoint("q2", 1, 1), IntrinsicPoint("r", 0, 1)],
        flows=[IntrinsicFlow("a1", "p", "q1", 1, 1),
               IntrinsicFlow("a2", "p", "q2", 1, 1),
               IntrinsicFlow("b1", "q1", "r", 1, 1),
               IntrinsicFlow("b2", "q2", "r", 1, -1)])
    assert verify_d_squared(good).ok


def test_reverse_flips_indices_and_flows():
    s = one_flow_system()
    r = reverse(s)
    crit, flows = intrinsic_rows(r)
    assert [(p.label, p.index) for p in crit] == [("p", 0), ("q", 1)]
    (f,) = flows
    assert (f.src, f.dst, f.iso_order, f.sign) == ("q", "p", 2, 1)
    rr = reverse(r)
    assert intrinsic_rows(rr) == intrinsic_rows(s)
    shifted, _ = intrinsic_rows(reverse(s, n=3))
    assert [(p.label, p.index) for p in shifted] == [("p", 2), ("q", 3)]


def test_pairing_rows_of_one_flow():
    report = pairing_check(one_flow_system())
    assert report.ok
    assert report.witnesses == ()
    by_conv = {row[2]: row for row in report.rows}
    assert by_conv["plus"] == ("p", "q", "plus", Fraction(1, 2),
                               Fraction(1, 2), Fraction(1, 2))
    assert by_conv["minus"] == ("p", "q", "minus", Fraction(4),
                                Fraction(4), Fraction(4))


def random_system(rng):
    """Structurally valid layered system; d squared need not vanish."""
    crit = []
    for k in range(3):
        for i in range(rng.randrange(1, 4)):
            crit.append(IntrinsicPoint(f"c{k}_{i}", k,
                                       rng.choice([1, 2, 3, 4, 6, 12])))
    flows = []
    for src in crit:
        if src.index == 0:
            continue
        for dst in crit:
            if dst.index != src.index - 1:
                continue
            for _ in range(rng.randrange(0, 3)):
                g = math.gcd(src.iso_order, dst.iso_order)
                divs = [d for d in range(1, g + 1) if g % d == 0]
                flows.append(IntrinsicFlow(f"f{len(flows)}", src.label,
                                           dst.label, rng.choice(divs),
                                           rng.choice([1, -1])))
    return system(2, crit, flows)


def test_scaling_isotropy_scales_the_plus_boundary():
    rng = random.Random(5)
    for _ in range(25):
        s = random_system(rng)
        c = rng.choice([2, 3, 5])
        crit, flows = intrinsic_rows(s)
        scaled = system(
            s.ambient_dim,
            [IntrinsicPoint(p.label, p.index, c * p.iso_order)
             for p in crit],
            flows)
        b, sb = boundary_plus(s), boundary_plus(scaled)
        for k in range(1, 3):
            assert sb.boundary_at(k).columns == tuple(
                {i: c * v for i, v in col.items()} for col in b.boundary_at(k).columns)


def test_pairing_identities_hold_on_random_systems():
    rng = random.Random(17)
    for _ in range(30):
        report = pairing_check(random_system(rng))
        assert report.ok, report.witnesses
