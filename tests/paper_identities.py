"""The paper's identities that no command checks, as test oracles.

psi is the diagonal map p -> iso(p) p from the minus complex to the plus
complex, checked to be a chain map.  pairing_check compares the two
boundaries with the reversed system's under the diagonal pairings.
broken_weight sums the broken flows through a middle orbit, and is the
same at every representative of it.  regauge re-gauges a system's
orientations, which must change nothing derived.  The acceptance criteria
in test_acceptance.py assert the rest of each identity on the corpus.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from orbimorse.chaincx import ChainMap, RationalMatrix, verify_chain_map
from orbimorse.errors import IndexOutOfRange, OrbimorseError
from orbimorse.groups import gather
from orbimorse.intrinsic import (OrbifoldMorseSystem, boundary_minus,
                                 boundary_plus)
from orbimorse.quotient import (EquivariantMorseSystem, _normalize,
                                _require_valid, classify, orbit_of)


class IndexMismatch(OrbimorseError):
    """Orbit triple does not have consecutive Morse indices, or an end
    orbit is not orientable."""


def psi(s: OrbifoldMorseSystem) -> ChainMap:
    """Diagonal map p -> iso(p) * p from the minus complex to the plus complex.

    A chain map and an isomorphism over the rationals, so the two conventions
    have the same homology.
    """
    mats = tuple(RationalMatrix.of_columns(len(isos), (
        {i: n} for i, n in enumerate(isos)))
        for isos in ([n for n, i, ok in zip(s.iso_order, s.index, s.orientable)
                      if i == k and ok] for k in range(s.ambient_dim + 1)))
    f = ChainMap(source=boundary_minus(s), target=boundary_plus(s), matrices=mats)
    ok, witness = verify_chain_map(f)
    assert ok, f"psi fails to commute with the boundaries at {witness}"
    return f


def reverse(s: OrbifoldMorseSystem, n: int | None = None) -> OrbifoldMorseSystem:
    """System of the negated function: index k becomes n - k, flows turn around.

    Signs and isotropy orders are carried over verbatim; this is the
    convention used by the pairing identities.
    """
    if n is None:
        n = s.ambient_dim
    for p, k in zip(s.labels, s.index):
        if k > n:
            raise IndexOutOfRange(
                f"index {k} of {p!r} exceeds ambient dimension {n}")
    return OrbifoldMorseSystem(
        n, (s.labels, [n - k for k in s.index], s.iso_order, s.orientable),
        (s.flow_labels, s.dst, s.src, s.flow_iso, s.sign))


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    rows: tuple   # (p, q, convention, left, middle, right)
    witnesses: tuple


def pairing_check(s: OrbifoldMorseSystem, n: int | None = None) -> PairingReport:
    """Adjointness of the two boundaries under the diagonal pairings.

    With <p,p> = 1/iso(p): pairing d_plus(p) against q equals the bare sum of
    sign/iso(flow) over flows p -> q, and equals pairing p against the
    reversed system's plus-boundary of q.  With <p,p>' = iso(p) the same holds
    for the minus-boundaries.  Checked for every flow-connected pair, whose
    flows, and reversed flows, are collected once.
    """
    rev = reverse(s, n)
    flows, reversed_flows = {}, {}
    for a, b, m, e in zip(s.src, s.dst, s.flow_iso, s.sign):
        flows.setdefault((s.labels[a], s.labels[b]), []).append((e, m))
    for a, b, m, e in zip(rev.src, rev.dst, rev.flow_iso, rev.sign):
        reversed_flows.setdefault((rev.labels[b], rev.labels[a]), []).append((e, m))
    iso, rev_iso = (dict(zip(t.labels, t.iso_order)) for t in (s, rev))

    def weighted(fs, n):
        return sum((Fraction(e * n, m) for e, m in fs), Fraction(0))

    rows = []
    for (p, q), fs in sorted(flows.items()):
        rs = reversed_flows[p, q]
        iso_p, iso_q = iso[p], iso[q]
        middle = weighted(fs, 1)
        rows.append((p, q, "plus", weighted(fs, iso_q) / iso_q, middle,
                     weighted(rs, rev_iso[p]) / iso_p))
        rows.append((p, q, "minus", weighted(fs, iso_p) * iso_q,
                     middle * iso_p * iso_q,
                     weighted(rs, rev_iso[q]) * iso_p))
    witnesses = tuple(row for row in rows if not row[3] == row[4] == row[5])
    return PairingReport(ok=not witnesses, rows=tuple(rows), witnesses=witnesses)


def broken_weight(s: EquivariantMorseSystem, p: str, q: str, r: str, *,
                  check_valid: bool = True) -> Fraction:
    """Weight of the broken flows through the middle orbit, canonical gauge.

    Arguments name the three orbits by any member.  With a fixed
    representative m of the middle orbit, the weight is

        (1 / iso(m)) * sum(eps over flows top -> m) * sum(eps over m -> bottom)

    It is computed at every representative and asserted equal.
    Criterion 04 compares it with the flow classes of the derived system.
    """
    _require_valid(s, check_valid)
    P, Q, R = orbit_of(s, p), orbit_of(s, q), orbit_of(s, r)
    if not (P.index == Q.index + 1 == R.index + 2):
        raise IndexMismatch(
            f"orbit indices {P.index}, {Q.index}, {R.index} are not consecutive")
    if not P.orientable or not R.orientable:
        raise IndexMismatch("top and bottom orbits must be orientable")
    labels, top, bottom = s.labels, set(P.members), set(R.members)
    into, outof = Counter(), Counter()
    for a, b, e in zip(s.src, s.dst, _normalize(s).eps):
        if labels[a] in top:
            into[labels[b]] += e
        if labels[b] in bottom:
            outof[labels[a]] += e
    results = {Fraction(into[m] * outof[m], Q.iso_order) for m in Q.members}
    assert len(results) == 1, \
        f"broken weight depends on the representative: {sorted(results)}"
    return results.pop()


def admissible_triples(s: EquivariantMorseSystem):
    """All (top, middle, bottom) orbit triples broken_weight accepts."""
    cls = classify(s)
    return [(P, Q, R) for P in cls if P.orientable
            for R in cls if R.orientable and R.index == P.index - 2
            for Q in cls if Q.index == P.index - 1]


def regauge(s: EquivariantMorseSystem, sigma: dict) -> EquivariantMorseSystem:
    """Flip unstable-manifold orientations by sigma: the rows' tau becomes
    sigma(g.p) tau(g, p) sigma(p) and the flow signs follow.  The result
    describes the same geometry in a different gauge."""
    sg = [sigma.get(p, 1) for p in s.labels]
    rows = [(g, ag, tuple(map(mul, map(mul, gather(ag)(sg), tg), sg)), fg)
            for g, ag, tg, fg in s.rows]
    signs = [sg[a] * sg[b] * e for a, b, e in zip(s.src, s.dst, s.sign)]
    return EquivariantMorseSystem(
        s.group, (s.labels, s.index, s.value),
        (s.flow_labels, s.src, s.dst, signs), rows, s.ambient_dim)
