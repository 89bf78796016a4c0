"""Exact linear algebra and graded complex plumbing."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
import label_oracle
from dense_oracle import DenseMatrix
from orbimorse import (
    CancellationFailure,
    GradedComplex,
    InvarianceFailure,
    NotAComplex,
    RationalMatrix,
    ShapeMismatch,
    betti,
    verify_complex,
)
from orbimorse.chaincx import ChainMap, orbit_sum_complex, verify_chain_map
from orbimorse.errors import OrbimorseError


def interval_complex():
    # two vertices joined by one edge
    return GradedComplex.build(
        [("a", "b"), ("ab",)],
        [RationalMatrix([[-1], [1]])],
    )


def eye(n):
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def circle_complex():
    d1 = RationalMatrix([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    return GradedComplex.build([("a", "b", "c"), ("ab", "bc", "ca")], [d1])


def test_rank_and_nullspace_known_matrix():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert m.rank() == 2
    (v,) = m.nullspace()
    assert (DenseMatrix.of(m) * DenseMatrix([[x] for x in v])).entries \
        == ((0,),) * 3


def test_rank_of_rational_entries():
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 4), Fraction(1, 5)]])
    assert m.rank() == 2
    assert m.nullspace() == []
    singular = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), Fraction(1, 1)]])
    assert singular.rank() == 1


def test_ragged_rows_rejected():
    with pytest.raises(ShapeMismatch):
        RationalMatrix([[1, 2], [3]])


def test_multiply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        RationalMatrix.zeros(2, 3) * RationalMatrix.zeros(2, 3)


def test_zero_dimension_products():
    a = RationalMatrix.zeros(0, 3)
    b = RationalMatrix.zeros(3, 2)
    assert (a * b).rows == 0 and (a * b).cols == 2
    c = RationalMatrix.zeros(2, 0) * RationalMatrix.zeros(0, 4)
    assert c == RationalMatrix.zeros(2, 4)


def test_elimination_self_consistency_randomized():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        grid = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                 for _ in range(cols)] for _ in range(rows)]
        m = RationalMatrix(grid)
        assert m.rank() == RationalMatrix(list(zip(*grid))).rank()
        ker = m.nullspace()
        assert m.rank() + len(ker) == cols
        if ker:
            km = DenseMatrix(list(zip(*ker)), len(ker))
            assert not any(map(any, (DenseMatrix.of(m) * km).entries))


def test_graded_complex_shape_checks():
    with pytest.raises(ShapeMismatch):
        GradedComplex(max_degree=1, basis_labels=(("a",),),
                      boundary=(RationalMatrix.zeros(1, 1),))
    with pytest.raises(ShapeMismatch):
        GradedComplex.build([("a", "b"), ("e",)],
                            [RationalMatrix.zeros(3, 1)])


def test_boundary_at_outside_grading_is_zero_shaped():
    c = interval_complex()
    top = c.boundary_at(2)
    assert (top.rows, top.cols) == (1, 0)
    assert (c.dim(0), c.dim(1), c.dim(2)) == (2, 1, 0)


def test_verify_complex_reports_witness():
    good = circle_complex()
    assert verify_complex(good) == (True, None)
    bad = GradedComplex.build(
        [("p",), ("q",), ("r",)],
        [RationalMatrix([[1]]), RationalMatrix([[1]])])
    ok, witness = verify_complex(bad)
    assert not ok
    assert witness == (2, "p", "r", Fraction(1))
    with pytest.raises(NotAComplex):
        betti(bad)


def test_betti_of_interval_and_circle():
    assert betti(interval_complex()) == (1, 0)
    assert betti(circle_complex()) == (1, 1)


def test_chain_map_verification():
    c = interval_complex()
    ident = ChainMap(source=c, target=c, matrices=(eye(2), eye(1)))
    assert verify_chain_map(ident) == (True, None)
    skew = ChainMap(source=c, target=c,
                    matrices=(RationalMatrix([[2, 0], [0, 2]]), eye(1)))
    ok, witness = verify_chain_map(skew)
    assert not ok
    k, i, j, d = witness
    assert k == 1 and d != 0


def test_chain_map_shape_checks():
    c = interval_complex()
    with pytest.raises(ShapeMismatch):
        ChainMap(source=c, target=c, matrices=(eye(2),))
    with pytest.raises(ShapeMismatch):
        ChainMap(source=c, target=c, matrices=(eye(2), RationalMatrix.zeros(2, 1)))


def test_orbit_sum_complex_signs_and_failures():
    # a circle of two vertices a, b and two edges e, f (cells 0 and 1 of
    # their degrees), both pairs exchanged
    faces = [[(1, 1), (0, -1)], [(0, 1), (1, -1)]]

    def orbit_sums(vertex_signs, vertex_orientable, edge_signs):
        return orbit_sum_complex(
            [(0, [0, 1], vertex_orientable), (1, [0, 1], True)],
            [[0, 0], [1, 1]], [vertex_signs, edge_signs],
            lambda k, c: faces[c], ["ab", "ef"])

    rotation = orbit_sums((1, 1), True, (1, 1))
    assert rotation.basis_labels == (("a",), ("e",))
    assert betti(rotation) == (1, 1)
    signed = orbit_sums((1, -1), True, (1, -1))
    assert DenseMatrix.of(signed.boundary_at(1)).entries == ((Fraction(-2),),)
    with pytest.raises(InvarianceFailure, match="not"):
        orbit_sums((1, 1), True, (1, -1))
    with pytest.raises(CancellationFailure, match="non-orientable"):
        orbit_sums((1, -1), False, (1, -1))


@st.composite
def orbit_tables(draw):
    """Up to three degrees of up to five cells, each split into orbits with
    random signs (+1 on the first member) and orientability, and random
    faces, so most tables break a law: (orbits, orbit, sign, faces, names)."""
    orbits, orbit, sign, names = [], [], [], []
    for k in range(draw(st.integers(1, 3))):
        cells = draw(st.permutations(range(draw(st.integers(1, 5)))))
        cuts = draw(st.sets(st.integers(1, len(cells) - 1))) if len(cells) > 1 else set()
        bounds = [0, *sorted(cuts), len(cells)]
        orbit.append([0] * len(cells))
        sign.append([draw(st.sampled_from((1, -1))) for _ in cells])
        names.append([f"c{k}.{i}" for i in range(len(cells))])
        for a, b in zip(bounds, bounds[1:]):
            members = sorted(cells[a:b])
            sign[k][members[0]] = 1
            for c in members:
                orbit[k][c] = len(orbits)
            orbits.append((k, members, draw(st.booleans())))
    faces = [[[]]] + [[draw(st.lists(st.tuples(st.integers(0, len(orbit[k - 1]) - 1),
                                               st.sampled_from((1, -1, 2))), max_size=3))
                       for _ in orbit[k]] for k in range(1, len(orbit))]
    return orbits, orbit, sign, faces, names


def outcome(fn, *args):
    try:
        return fn(*args)
    except OrbimorseError as e:
        return type(e), str(e)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(orbit_tables())
@example(([(0, [0, 1], False), (0, [2, 3], True), (1, [0], True)],
          [[0, 0, 1, 1], [2]], [[1, 1, 1, 1], [1]],
          [[[]], [[(0, 1), (0, -1), (2, 1), (1, 1)]]], ["abcd", ["e"]]))
def test_orbit_sums_match_the_label_keyed_oracle(table):
    # the same complex, or the same CancellationFailure or InvarianceFailure
    # text, as the label-keyed builder on members-to-sign dicts; in the
    # example both face orbits fail, and the first to appear (through a
    # cancelled coefficient) is the witness
    orbits, orbit, sign, faces, names = table
    levels = [[({names[k][c]: sign[k][c] for c in members}, orientable)
               for d, members, orientable in orbits if d == k] for k in range(len(orbit))]
    by_name = {names[k][c]: [(names[k - 1][q], v) for q, v in faces[k][c]]
               for k in range(1, len(orbit)) for c in range(len(orbit[k]))}
    assert outcome(orbit_sum_complex, orbits, orbit, sign,
                   lambda k, c: faces[k][c], names) \
        == outcome(label_oracle.orbit_sum_complex, levels, lambda c: by_name.get(c, []))


# -- the sparse kernel against the dense oracle -------------------------------

ENTRIES = st.one_of(st.sampled_from([0, 0, 0, 1, -1, 2, -3]),
                    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def grids(draw, rows=None, cols=None, entries=ENTRIES):
    """A rows x cols list of rational rows, some rows and columns all zero."""
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols
    zero_rows = draw(st.sets(st.integers(0, 7), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, 7), max_size=2))
    return [[0 if i in zero_rows or j in zero_cols else draw(entries)
             for j in range(cols)] for i in range(rows)]


def sparse(grid, rows, cols):
    return RationalMatrix(grid) if rows else RationalMatrix.zeros(0, cols)


def level(name, n):
    return tuple(f"{name}{i}" for i in range(n))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_sparse_kernel_matches_dense_oracle(data):
    r, n, c = (data.draw(st.integers(0, 8)) for _ in range(3))
    a, b = data.draw(grids(r, n)), data.draw(grids(n, c))
    sa, sb = sparse(a, r, n), sparse(b, n, c)
    da, db = DenseMatrix(a, n), DenseMatrix(b, c)
    assert (sa.rows, sa.cols) == (r, n)
    assert DenseMatrix.of(sa).entries == da.entries
    assert sa.rank() == da.rank() == sparse(list(zip(*a)), n, r).rank()
    assert DenseMatrix.of(sa * sb).entries == (da * db).entries
    kernel = sa.nullspace()
    assert kernel == da.nullspace() and len(kernel) == da.nullity()
    for v in kernel:
        assert all(x == 0 for (x,) in (da * DenseMatrix([[x] for x in v])).entries)


@st.composite
def boundary_pairs(draw):
    """A complex with two composable boundaries.  Half of them square to
    zero: d2 has rank at most 3 and the rows of d1 lie in its left kernel."""
    a, b, c = (draw(st.integers(1, 6)) for _ in range(3))
    if draw(st.booleans()):
        d1, d2 = draw(grids(a, b)), draw(grids(b, c))
    else:
        r = draw(st.integers(1, 3))
        d2 = (DenseMatrix(draw(grids(b, r)), r)
              * DenseMatrix(draw(grids(r, c)), c)).entries
        left = DenseMatrix(d2, c).transpose().nullspace()
        d1 = [[sum((k * u[j] for k, u in zip(coeffs, left)), Fraction(0))
               for j in range(b)]
              for coeffs in (draw(st.lists(st.integers(-2, 2), min_size=len(left),
                                           max_size=len(left)))
                             for _ in range(a))]
    return GradedComplex.build([level("p", a), level("q", b), level("r", c)],
                               [sparse(d1, a, b), sparse(d2, b, c)])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(boundary_pairs(), st.data())
def test_complexes_match_dense_oracle(c, data):
    witnesses = list(c.squared)
    assert witnesses == dense_oracle.square_entries(c)
    assert all(type(w[3]) is Fraction for w in witnesses)
    if witnesses:
        assert verify_complex(c) == (False, witnesses[0])
        with pytest.raises(NotAComplex):
            betti(c)
    else:
        assert betti(c) == dense_oracle.betti(c)
    maps = [eye(c.dim(k)) if data.draw(st.booleans())
            else sparse(data.draw(grids(c.dim(k), c.dim(k))), c.dim(k), c.dim(k))
            for k in range(3)]
    f = ChainMap(source=c, target=c, matrices=tuple(maps))
    witness = dense_oracle.chain_map_witness(f)
    assert verify_chain_map(f) == (witness is None, witness)


#: Mostly ints up to 6 in size, some Fractions.
CHAIN_ENTRIES = st.one_of(st.integers(-6, 6), st.integers(-6, 6),
                          st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def chains(draw):
    """A complex with three or four boundaries built from the top down as in
    boundary_pairs: the top one has rank at most 3 and the rows of each
    lower one lie in the left kernel of the one above, some scaled to
    integers.  Half of them then get one entry changed, which may break d^2."""
    n = draw(st.integers(3, 4))
    dims = [draw(st.integers(1, 5)) for _ in range(n + 1)]
    r = draw(st.integers(1, 3))
    ds = [(DenseMatrix(draw(grids(dims[n - 1], r, CHAIN_ENTRIES)), r)
           * DenseMatrix(draw(grids(r, dims[n], CHAIN_ENTRIES)), dims[n])).entries]
    for k in range(n - 1, 0, -1):
        left = DenseMatrix(ds[0], dims[k + 1]).transpose().nullspace()
        rows = []
        for _ in range(dims[k - 1]):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(left),
                                   max_size=len(left)))
            row = [sum((c * u[j] for c, u in zip(coeffs, left)), Fraction(0))
                   for j in range(dims[k])]
            if draw(st.booleans()):
                row = [x * lcm(*(y.denominator for y in row)) for x in row]
            rows.append(row)
        ds.insert(0, rows)
    ds = [[list(row) for row in d] for d in ds]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        i, j = draw(st.integers(0, dims[k] - 1)), draw(st.integers(0, dims[k + 1] - 1))
        ds[k][i][j] += draw(st.sampled_from([1, -1, 2, Fraction(1, 2)]))
    return GradedComplex.build(
        [level("abcde"[k], dims[k]) for k in range(n + 1)],
        [sparse(d, dims[k], dims[k + 1]) for k, d in enumerate(ds)])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(chains())
def test_deeper_complexes_match_dense_oracle(c):
    for k in range(1, c.max_degree + 1):
        assert c.boundary_at(k).rank() == DenseMatrix.of(c.boundary_at(k)).rank()
    witnesses = dense_oracle.square_entries(c)
    assert list(c.squared) == witnesses
    if witnesses:
        assert verify_complex(c) == (False, witnesses[0])
        with pytest.raises(NotAComplex):
            betti(c)
    else:
        assert verify_complex(c) == (True, None)
        assert betti(c) == dense_oracle.betti(c)


def test_rank_clears_the_columns_it_is_given():
    # d1 d2 = 0 and d2's column has its lowest entry in row 1, so column 1
    # of d1 is spanned by column 0 and clearing it keeps the rank
    d1 = RationalMatrix([[1, 1, 0], [-1, -1, 2]])
    d2 = RationalMatrix([[1], [-1], [0]])
    pivots = set()
    assert d2.rank(pivots=pivots) == 1 and pivots == {1}
    assert d1.rank(pivots) == d1.rank() == 2
    assert d1.rank({2}) == 1  # column 2 is not spanned by the ones before it


def test_witnesses_are_scanned_row_by_row():
    # d1 d2 is nonzero at (p0, r1) and (p1, r0): a column-by-column scan
    # would report (p1, r0) first
    c = GradedComplex.build(
        [("p0", "p1"), ("q0", "q1"), ("r0", "r1")],
        [eye(2), RationalMatrix([[0, 1], [1, 0]])])
    want = [(2, "p0", "r1", Fraction(1)), (2, "p1", "r0", Fraction(1))]
    assert list(c.squared) == dense_oracle.square_entries(c) == want
    assert verify_complex(c) == (False, want[0])
    e = GradedComplex.build([("a", "b"), ("e", "f")], [eye(2)])
    f = ChainMap(source=e, target=e, matrices=(
        RationalMatrix([[1, 1], [1, 1]]), eye(2)))
    assert dense_oracle.chain_map_witness(f) == (1, 0, 1, Fraction(-1))
    assert verify_chain_map(f) == (False, (1, 0, 1, Fraction(-1)))
