"""Full-scan validation: the reference the generator-gated validator must match.

reference_violations checks index, endpoint, sign and value equivariance
for every g in G, with no gating, and compatibility and the cocycle law on
a generating set times G.  It lists violations in the order
orbimorse.quotient.validate_system promises: law by law, and within a law
in the order of the element table, then of the points or flows.
"""

from orbimorse.chaincx import verify_complex
from orbimorse.groups import compose, generating_set
from orbimorse.quotient import Violation


def _action_witness(g, h, labels, agh, ag, ah, what):
    i = next(i for i in range(len(labels)) if agh[i] != ag[ah[i]])
    return Violation(
        "action_compatibility",
        f"g={list(g)}, h={list(h)}: gh sends {what} {labels[i]!r} to "
        f"{labels[agh[i]]!r}, g after h sends it to {labels[ag[ah[i]]]!r}")


def reference_violations(s) -> list:
    v = []
    G = s.group
    pa, fa, tau = s.point_action, s.flow_action, s._tau
    labels, flow_labels = pa.points, fa.points
    index = [p.index for p in s.crit]
    src = [pa.index_of[f.src] for f in s.flows]
    dst = [pa.index_of[f.dst] for f in s.flows]

    for p in s.crit:
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

    for f, a, b in zip(s.flows, src, dst):
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

    compat, cocycle = [], []
    for g in generating_set(G) or (G.identity,):
        ag, fg, tg = pa.image_array(g), fa.image_array(g), tau[g]
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
    v += compat + cocycle

    for g in G:
        fg, tg = fa.image_array(g), tau[g]
        for j, f in enumerate(s.flows):
            want = tg[src[j]] * tg[dst[j]] * f.sign
            gf = s.flows[fg[j]]
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

    values_present = [i for i, p in enumerate(s.crit) if p.value is not None]
    value = [p.value for p in s.crit]
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
