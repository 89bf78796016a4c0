"""Exact linear algebra and graded complex plumbing."""

import random
from fractions import Fraction

import pytest

from orbimorse import (
    CancellationFailure,
    ChainMap,
    GradedComplex,
    InvarianceFailure,
    NotAComplex,
    RationalMatrix,
    ShapeMismatch,
    betti,
    verify_chain_map,
    verify_complex,
)
from orbimorse.chaincx import orbit_sum_complex


def interval_complex():
    # two vertices joined by one edge
    return GradedComplex.build(
        [("a", "b"), ("ab",)],
        [RationalMatrix([[-1], [1]])],
    )


def circle_complex():
    d1 = RationalMatrix([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    return GradedComplex.build([("a", "b", "c"), ("ab", "bc", "ca")], [d1])


def test_rank_and_nullspace_known_matrix():
    m = RationalMatrix([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert m.rank() == 2
    assert m.nullity() == 1
    (v,) = m.nullspace()
    assert (m * RationalMatrix.from_columns([v], rows=3)).is_zero()


def test_rank_of_rational_entries():
    m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 4), Fraction(1, 5)]])
    assert m.rank() == 2
    assert m.nullspace() == []
    singular = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), Fraction(1, 1)]])
    assert singular.rank() == 1


def test_identity_diagonal_and_from_columns():
    assert RationalMatrix.identity(3).rank() == 3
    d = RationalMatrix.diagonal([2, 0, Fraction(1, 7)])
    assert d.rank() == 2
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    m = RationalMatrix.from_columns(cols, rows=2)
    assert m.entries == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1)))
    assert m.column(0) == [Fraction(1), Fraction(0)]


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
    assert RationalMatrix.from_columns([], rows=2).cols == 0


def test_matrix_algebra_round_trip():
    a = RationalMatrix([[1, 2], [3, 4]])
    assert a + a.scale(-1) == RationalMatrix.zeros(2, 2)
    assert a.transpose().transpose() == a
    assert "1" in a.grid()


def test_elimination_self_consistency_randomized():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = RationalMatrix(
            [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
              for _ in range(cols)] for _ in range(rows)])
        assert m.rank() == m.transpose().rank()
        assert m.rank() + m.nullity() == cols
        ker = m.nullspace()
        if ker:
            km = RationalMatrix.from_columns(ker, rows=cols)
            assert (m * km).is_zero()


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
    assert c.dims() == (2, 1)


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


def test_opposite_reverses_betti():
    c = interval_complex()
    assert betti(c.opposite()) == (0, 1)
    assert betti(circle_complex().opposite()) == (1, 1)


def test_permuted_complex_keeps_homology():
    c = circle_complex()
    p = c.permuted([(2, 0, 1), (1, 2, 0)])
    assert p.basis_labels[0] == ("c", "a", "b")
    assert betti(p) == betti(c)
    # permuting by identities is the identity
    assert c.permuted([(0, 1, 2), (0, 1, 2)]) == c


def test_chain_map_verification():
    c = interval_complex()
    ident = ChainMap(source=c, target=c,
                     matrices=(RationalMatrix.identity(2),
                               RationalMatrix.identity(1)))
    assert verify_chain_map(ident) == (True, None)
    skew = ChainMap(source=c, target=c,
                    matrices=(RationalMatrix.identity(2).scale(2),
                              RationalMatrix.identity(1)))
    ok, witness = verify_chain_map(skew)
    assert not ok
    k, i, j, d = witness
    assert k == 1 and d != 0


def test_chain_map_shape_checks():
    c = interval_complex()
    with pytest.raises(ShapeMismatch):
        ChainMap(source=c, target=c, matrices=(RationalMatrix.identity(2),))
    with pytest.raises(ShapeMismatch):
        ChainMap(source=c, target=c,
                 matrices=(RationalMatrix.identity(2),
                           RationalMatrix.zeros(2, 1)))


def test_orbit_sum_complex_signs_and_failures():
    # a circle of two vertices and two edges, both pairs exchanged
    faces = {"e": [("b", 1), ("a", -1)], "f": [("a", 1), ("b", -1)]}.get

    def orbit_sums(vertex_signs, vertex_orientable, edge_signs):
        return orbit_sum_complex(
            [[(dict(zip("ab", vertex_signs)), vertex_orientable)],
             [(dict(zip("ef", edge_signs)), True)]], faces)

    rotation = orbit_sums((1, 1), True, (1, 1))
    assert rotation.basis_labels == (("a",), ("e",))
    assert betti(rotation) == (1, 1)
    signed = orbit_sums((1, -1), True, (1, -1))
    assert signed.boundary_at(1).entries == ((Fraction(-2),),)
    with pytest.raises(InvarianceFailure, match="not"):
        orbit_sums((1, 1), True, (1, -1))
    with pytest.raises(CancellationFailure, match="non-orientable"):
        orbit_sums((1, -1), False, (1, -1))
