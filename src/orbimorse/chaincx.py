"""Exact sparse matrices and graded chain complexes.

A RationalMatrix is stored by columns, each a {row: value} dict without
zeros; values are ints, or Fractions where not integral, never floats.
Boundaries built here are integral (sums of signs, or intrinsic weights
iso(q)/iso(flow), which must divide) and stay int columns from
construction to rank.  Rank and kernel come from one fraction-free
reduction keyed on the lowest nonzero row, as in PHAT (Bauer, Kerber,
Reininghaus, Wagner 2017): a column (a Fraction one scaled by the lcm of
its denominators) whose lowest row r an earlier column p owns becomes
b*col - a*p (a, b = col[r], p[r] over their gcd) divided by its content,
or its negative col + a*p when b = -1, which needs no rescaled copy.
nullspace reduces augmented integer columns: column j is scaled by the lcm
s of its denominators and gets s in row -1-j.  Rows below 0 are never
pivots; they record how much of each column a reduced column holds.  A
column whose rows from 0 up all cancel is a kernel vector, with column i's
coefficient in row -1-i.
A complex lists the nonzero entries of its square once and keeps them
(GradedComplex.squared): verify_complex reads the first and
intrinsic.verify_d_squared all.  betti then reduces top down with clearing
(Chen & Kerber, Persistent homology computation with a twist, 2011): a
column of d_k that is the lowest row of a reduced column of d_(k+1) reduces
to zero, as d^2 = 0, and is skipped.
flow_complex (Morse systems) and orbit_sum_complex (orbit tables of arrays)
read points, flows and cells as numbers, and labels only for the bases.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import (
    CancellationFailure,
    InvarianceFailure,
    NotAComplex,
    ShapeMismatch,
)


def _column(pairs) -> dict:
    """Summed (row, value) pairs as {row: value}: no zeros, ints if integral."""
    acc: dict = {}
    for i, v in pairs:
        acc[i] = acc.get(i, 0) + v
    return {i: v.numerator if v.denominator == 1 else v
            for i, v in acc.items() if v}


def _is_int_column(col: dict) -> bool:
    return 0 not in col.values() and {*map(type, col.values())} <= {int}


def _products(left, right):
    """Columns of the product of two matrices' column lists, as summed dicts
    that may hold zeros."""
    for col in right:
        acc: dict = {}
        for m, b in col.items():
            for i, a in left[m].items():
                acc[i] = acc.get(i, 0) + a * b
        yield acc


class RationalMatrix:
    """Immutable sparse matrix over the rationals, stored by columns."""

    __slots__ = ("rows", "cols", "columns")

    def __init__(self, entries):
        grid = [list(row) for row in entries]
        if len({len(row) for row in grid}) > 1:
            raise ShapeMismatch("ragged rows")
        self.rows, self.cols = len(grid), len(grid[0]) if grid else 0
        self.columns = tuple(_column(enumerate(col)) for col in zip(*grid))

    # -- constructors ----------------------------------------------------

    @classmethod
    def of_columns(cls, rows: int, columns) -> "RationalMatrix":
        """Matrix of {row: value} columns already exact and without zeros."""
        m = cls.__new__(cls)
        m.rows, m.columns = rows, tuple(columns)
        m.cols = len(m.columns)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls.of_columns(rows, ({} for _ in range(cols)))

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.columns == other.columns)

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return RationalMatrix.of_columns(self.rows, (
            _column(acc.items()) for acc in _products(self.columns, other.columns)))

    # -- elimination -----------------------------------------------------

    def _reduce(self, clear=()) -> tuple[list[dict], dict]:
        """Reduced integer columns, nonzero ones with distinct lowest rows,
        and the column owning each such row; columns in clear are left zero.
        Rows below 0 are never pivots (nullspace's bookkeeping rows)."""
        owner, reduced = {}, []
        for j, col in enumerate(self.columns):
            col = {} if j in clear else dict(col)
            if not _is_int_column(col):
                s = lcm(*(v.denominator for v in col.values()))
                col = {i: int(v * s) for i, v in col.items()}
            while col and (low := max(col)) >= 0:
                p = owner.setdefault(low, j)
                if p == j:
                    break
                pivot = reduced[p]
                g = gcd(col[low], pivot[low])
                a, b = col[low] // g, pivot[low] // g
                if b == -1:  # -(b*col - a*p): the same span and lowest row
                    a, b = -a, 1
                elif b != 1:
                    col = {i: b * v for i, v in col.items()}
                for i, v in pivot.items():
                    if w := col.get(i, 0) - a * v:
                        col[i] = w
                    else:
                        del col[i]
                if (c := gcd(*col.values())) > 1:
                    col = {i: v // c for i, v in col.items()}
            reduced.append(col)
        return reduced, owner

    def rank(self, clear=(), pivots=None) -> int:
        """Rank, skipping the columns in clear as reducing to zero; the lowest
        rows of the nonzero reduced columns go into the set pivots if given."""
        owner = self._reduce(clear)[1]
        if pivots is not None:
            pivots.update(owner)
        return len(owner)

    def nullspace(self) -> list[list[Fraction]]:
        """Kernel basis, one vector per column spanned by the ones before it,
        read off the augmented columns of the module docstring."""
        augmented = []
        for j, col in enumerate(self.columns):
            s = lcm(*(v.denominator for v in col.values()))
            augmented.append({**{i: int(v * s) for i, v in col.items()}, -1 - j: s})
        reduced = RationalMatrix.of_columns(self.rows, augmented)._reduce()[0]
        return [[Fraction(col.get(-1 - i, 0), col[-1 - j]) for i in range(self.cols)]
                for j, col in enumerate(reduced) if max(col) < 0]

    # -- display ---------------------------------------------------------

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"


class GradedComplex:
    """Chain complex graded 0..max_degree with ordered labeled bases.

    boundary[k] maps degree k to degree k-1, shape dim(k-1) x dim(k), for
    k in 1..max_degree.  The square-zero law is checked by verify_complex,
    not on construction, so defective complexes can be built and diagnosed.
    Two complexes are equal when their gradings, bases and boundaries are.
    """

    def __init__(self, max_degree: int, basis_labels: tuple[tuple, ...],
                 boundary: tuple[RationalMatrix, ...]):
        self.max_degree, self.basis_labels = max_degree, basis_labels
        self.boundary = boundary
        n = self.max_degree
        if len(self.basis_labels) != n + 1 or len(self.boundary) != n:
            raise ShapeMismatch("grading length mismatch")
        for k in range(1, n + 1):
            b = self.boundary[k - 1]
            want = (self.dim(k - 1), self.dim(k))
            if (b.rows, b.cols) != want:
                raise ShapeMismatch(
                    f"boundary at degree {k} is {b.rows}x{b.cols}, expected {want}")

    def __eq__(self, other):
        if not isinstance(other, GradedComplex):
            return NotImplemented
        return ((self.max_degree, self.basis_labels, self.boundary)
                == (other.max_degree, other.basis_labels, other.boundary))

    @classmethod
    def build(cls, labels, boundaries) -> "GradedComplex":
        return cls(max_degree=len(labels) - 1,
                   basis_labels=tuple(tuple(l) for l in labels),
                   boundary=tuple(boundaries))

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return len(self.basis_labels[k])
        return 0

    def boundary_at(self, k: int) -> RationalMatrix:
        """Boundary map leaving degree k; zero-shaped outside 1..max_degree."""
        if 1 <= k <= self.max_degree:
            return self.boundary[k - 1]
        return RationalMatrix.zeros(self.dim(k - 1), self.dim(k))

    @cached_property
    def squared(self) -> tuple:
        """Nonzero entries (degree, row_label, col_label, value) of the
        boundary squared, row by row, where degree is the top degree of the
        composition; listed on first use and kept."""
        labels = self.basis_labels
        return tuple((k, labels[k - 2][i], labels[k][j], Fraction(v))
                     for k in range(2, self.max_degree + 1)
                     for i, j, v in sorted(_square_cells(self, k)))


def flow_complex(n, labels, index, src, dst, coeffs, kept=None) -> GradedComplex:
    """Complex graded 0..n on point numbers: degree k has the points of
    index k (those kept, if given) in number order, labeled by labels, and
    each flow a -> b with index[a] = index[b] + 1, both in a basis, adds its
    coeff times b to the boundary of a; parallel flows are summed."""
    pos, levels = [None] * len(index), [[] for _ in range(n + 1)]
    for p, k in enumerate(index):
        if 0 <= k <= n and (kept is None or kept[p]):
            pos[p] = len(levels[k])
            levels[k].append(p)
    columns = [[{} for _ in level] for level in levels[1:]]
    for a, b, v in zip(src, dst, coeffs):
        j, i = pos[a], pos[b]
        if j is not None and i is not None and index[a] == index[b] + 1:
            column = columns[index[b]][j]
            column[i] = column.get(i, 0) + v
    return GradedComplex.build(
        [[labels[p] for p in level] for level in levels],
        [RationalMatrix.of_columns(len(levels[k - 1]), (
            col if _is_int_column(col) else _column(col.items()) for col in cols))
         for k, cols in enumerate(columns, 1)])


def _square_cells(c: GradedComplex, k: int) -> list:
    """Nonzero (row, col, value) of boundary_(k-1) boundary_k, by columns."""
    return [(i, j, v) for j, acc in enumerate(
                _products(c.boundary[k - 2].columns, c.boundary[k - 1].columns))
            if any(acc.values()) for i, v in acc.items() if v]


def verify_complex(c: GradedComplex):
    """(True, None) when boundary squared is zero, else (False, the first
    entry of c.squared)."""
    return (False, c.squared[0]) if c.squared else (True, None)


def orbit_sum_complex(orbits, orbit, sign, faces, names) -> GradedComplex:
    """Complex on the orbit sums of the orientable orbits of a signed action.

    orbits[o] = (k, members, orientable): orbit o's degree (out of range, it
    is left out and no cell's face), its cells, the first naming it, and
    whether it is orientable.  The k-cell c is in orbit orbit[k][c] with sign
    sign[k][c], has the (face, coeff) pairs faces(k, c) and the label
    names[k][c].  Over Q the orbit sums span C^G, and H(C^G) = H(C)^G.  The
    boundary of an orbit sum must vanish on non-orientable orbits
    (CancellationFailure), and sign times its coefficient must be constant on
    each face orbit (InvarianceFailure)."""
    basis = [[] for _ in orbit]
    for o, (k, _, orientable) in enumerate(orbits):
        if orientable and 0 <= k < len(orbit):
            basis[k].append(o)
    row, matrices = {o: i for level in basis for i, o in enumerate(level)}, []
    for k in range(1, len(orbit)):
        columns, signs, down, down_signs = [], sign[k], orbit[k - 1], sign[k - 1]
        for o in basis[k]:
            members, coeff, column, touched = orbits[o][1], {}, {}, {}
            for c in members:
                s = signs[c]
                for face, v in faces(k, c):
                    coeff[face] = coeff.get(face, 0) + s * v
            for q, v in coeff.items():  # signed values by face orbit; untouched are 0
                touched.setdefault(down[q], []).append(v * down_signs[q])
            for fo, vals in touched.items():
                fk, fmembers, orientable = orbits[fo]
                if not any(vals) or orientable and vals.count(vals[0]) == len(fmembers):
                    if vals[0] and fk == k - 1:
                        column[row[fo]] = vals[0]
                    continue
                rep = names[k][members[0]]
                if not orientable:
                    q = next(q for q in fmembers if coeff.get(q, 0))
                    raise CancellationFailure(
                        f"boundary of the orbit sum of {rep!r} has coefficient "
                        f"{coeff[q]} at non-orientable point {names[k - 1][q]!r}")
                vals = sorted({coeff.get(q, 0) * down_signs[q] for q in fmembers})
                raise InvarianceFailure(
                    f"boundary of the orbit sum of {rep!r} is not constant "
                    f"on the orbit of {names[fk][fmembers[0]]!r}: {vals}")
            columns.append(column)
        matrices.append(RationalMatrix.of_columns(len(basis[k - 1]), columns))
    return GradedComplex.build(
        [[names[k][orbits[o][1][0]] for o in level] for k, level in enumerate(basis)],
        matrices)


def betti(c: GradedComplex) -> tuple[int, ...]:
    """Exact Betti numbers b_0..b_n.

    b_k = dim ker boundary_k - rank boundary_(k+1), the ranks taken top down
    with clearing.  The alternating sums of dimensions and of betti numbers
    are asserted equal (Euler check).
    """
    ok, witness = verify_complex(c)
    if not ok:
        raise NotAComplex(f"boundary squared is nonzero, witness {witness}")
    ranks, pivots = [0] * (c.max_degree + 2), set()
    for k in range(c.max_degree, 0, -1):
        cleared, pivots = pivots, set()
        ranks[k] = c.boundary[k - 1].rank(cleared, pivots)
    out = [c.dim(k) - ranks[k] - ranks[k + 1] for k in range(c.max_degree + 1)]
    euler_dims = sum((-1) ** k * c.dim(k) for k in range(c.max_degree + 1))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(out))
    assert euler_dims == euler_betti, (euler_dims, euler_betti)
    return tuple(out)


class ChainMap:
    """Degree-preserving map between graded complexes, one matrix per degree."""

    def __init__(self, source: GradedComplex, target: GradedComplex,
                 matrices: tuple[RationalMatrix, ...]):
        self.source, self.target, self.matrices = source, target, matrices
        if self.source.max_degree != self.target.max_degree:
            raise ShapeMismatch("source and target gradings differ")
        if len(self.matrices) != self.source.max_degree + 1:
            raise ShapeMismatch("one matrix per degree required")
        for k, m in enumerate(self.matrices):
            want = (self.target.dim(k), self.source.dim(k))
            if (m.rows, m.cols) != want:
                raise ShapeMismatch(
                    f"chain map at degree {k} is {m.rows}x{m.cols}, expected {want}")

    def at(self, k: int) -> RationalMatrix:
        return self.matrices[k]


def verify_chain_map(f: ChainMap):
    """Check commutation with the boundaries.

    Returns (True, None) or (False, (degree, row, col, value)) for the first
    entry, row by row, where target_boundary * f differs from f *
    source_boundary; the products are taken column by column as in the d^2
    check.
    """
    for k in range(1, f.source.max_degree + 1):
        lhs = _products(f.target.boundary_at(k).columns, f.at(k).columns)
        rhs = _products(f.at(k - 1).columns, f.source.boundary_at(k).columns)
        diff = [(i, j, v) for j, (a, b) in enumerate(zip(lhs, rhs))
                for i in {*a, *b} if (v := a.get(i, 0) - b.get(i, 0))]
        if diff:
            i, j, v = min(diff)
            return False, (k, i, j, Fraction(v))
    return True, None
