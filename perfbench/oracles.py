"""Checks of CLI output against the answers the constructions imply.

check() returns a list of failure strings, empty when the output is right.
The expected values come from instances.Case.expect, which instances.py
derives from each construction; nothing here is copied from program output.
"""

from __future__ import annotations

from collections import Counter

EXIT_OK = 0
EXIT_INVALID = 2


def _rows(text):
    rows = []
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            rows.append((key, value))
    return rows


def _single(rows, key, fails):
    vals = [v for k, v in rows if k == key]
    if len(vals) != 1:
        fails.append("expected one %r line, got %d" % (key, len(vals)))
        return None
    return vals[0]


def _expect(rows, key, want, fails):
    got = _single(rows, key, fails)
    if got is not None and got != want:
        fails.append("%s: expected %r, got %r" % (key, want, got))


def _expect_betti(rows, key, want, fails):
    _expect(rows, key, ",".join(str(b) for b in want), fails)


def _check_orbits(rows, orbits, fails):
    """Each orbit line names a member of one expected orbit, once each."""
    lines = [v for k, v in rows if k == "orbit"]
    if len(lines) != len(orbits):
        fails.append("expected %d orbit lines, got %d" % (len(orbits), len(lines)))
        return
    seen = set()
    for line in lines:
        if len(line.split()) != 4:
            fails.append("orbit line %r is not 'rep index= iso= status'" % line)
            continue
        rep, index, iso, status = line.split()
        match = [i for i, (members, *_) in enumerate(orbits) if rep in members]
        if len(match) != 1 or match[0] in seen:
            fails.append("orbit line %r names no unclaimed expected orbit" % line)
            continue
        seen.add(match[0])
        _, idx, order, orientable = orbits[match[0]]
        want = "index=%d iso=%d %s" % (idx, order,
                                       "orientable" if orientable else "discarded")
        if " ".join((index, iso, status)) != want:
            fails.append("orbit of %r: expected %r, got %r" % (rep, want, line))


def _check_violations(rows, expect, fails):
    """Every law broken the expected number of times, each with a witness."""
    got = Counter()
    flow = "'%s'" % expect["flow"]
    tops = ["'%s'" % t for t in expect["tops"]]
    for key, value in rows:
        if key != "violation":
            continue
        law, _, detail = value.partition(": ")
        got[law] += 1
        if law in ("sign_equivariance", "endpoint_equivariance"):
            if flow not in detail or "g=[" not in detail:
                fails.append("%s witness lacks g or flow %s: %r" % (law, flow, detail))
        elif law == "manifold_d_squared":
            if not any(t in detail for t in tops):
                fails.append("d^2 witness names no maximum: %r" % detail)
    if dict(got) != expect["violations"]:
        fails.append("violations: expected %s, got %s"
                     % (expect["violations"], dict(got)))


def check(case, code, text) -> list[str]:
    """Failures of one operation's exit code and stdout against case.expect."""
    fails: list[str] = []
    rows = _rows(text)
    exp = case.expect
    kind = case.doc["kind"]
    _expect(rows, "kind", kind, fails)

    if case.command == "validate":
        if code != EXIT_INVALID:
            fails.append("exit code: expected %d, got %r" % (EXIT_INVALID, code))
        _expect(rows, "valid", "no", fails)
        _check_violations(rows, exp, fails)
        return fails

    if code != EXIT_OK:
        fails.append("exit code: expected %d, got %r" % (EXIT_OK, code))
    if case.command == "compare":
        _expect_betti(rows, "betti_morse", exp["betti_morse"], fails)
        _expect_betti(rows, "betti_quotient", exp["betti_quotient"], fails)
        _expect(rows, "rounds", str(exp["rounds"]), fails)
        _expect(rows, "equal", "yes", fails)
    elif kind == "global_quotient":
        _expect(rows, "convention", "plus", fails)
        _expect_betti(rows, "betti_manifold", exp["betti_manifold"], fails)
        _expect_betti(rows, "betti_invariant", exp["betti_invariant"], fails)
        _check_orbits(rows, exp["orbits"], fails)
    else:
        _expect(rows, "rounds", str(exp["rounds"]), fails)
        for key in ("betti", "betti_invariant", "betti_rel", "betti_invariant_rel"):
            if key in exp:
                _expect_betti(rows, key, exp[key], fails)
            elif any(k == key for k, _ in rows):
                fails.append("unexpected %r line" % key)
    return fails
