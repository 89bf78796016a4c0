"""Exact rational matrices and graded chain complexes.

All arithmetic is fractions.Fraction; no floats anywhere.  Rank and kernel
come from Gaussian elimination with partial pivoting by smallest-magnitude
nonzero entry (lowest row index breaks ties), which keeps every run
deterministic and the intermediate fractions small.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CancellationFailure,
    InvarianceFailure,
    NotAComplex,
    ShapeMismatch,
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RationalMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(_frac(x) for x in row) for row in entries)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ShapeMismatch("ragged rows")
        self.rows = len(rows)
        self.cols = widths.pop() if widths else 0
        self.entries = rows

    # -- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RationalMatrix":
        m = cls.__new__(cls)
        m.rows, m.cols = rows, cols
        m.entries = tuple((Fraction(0),) * cols for _ in range(rows))
        return m

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, diag) -> "RationalMatrix":
        d = [_frac(x) for x in diag]
        n = len(d)
        return cls([[d[i] if i == j else Fraction(0) for j in range(n)]
                    for i in range(n)])

    @classmethod
    def from_columns(cls, columns, rows: int) -> "RationalMatrix":
        cols = list(columns)
        return cls([[cols[j][i] for j in range(len(cols))] for i in range(rows)])

    # -- algebra ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalMatrix)
                and self.entries == other.entries
                and (self.rows, self.cols) == (other.rows, other.cols))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if self.rows == 0 or other.cols == 0 or self.cols == 0:
            return RationalMatrix.zeros(self.rows, other.cols)
        bt = list(zip(*other.entries))
        return RationalMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in bt]
             for row in self.entries])

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        return RationalMatrix([[a + b for a, b in zip(r1, r2)]
                               for r1, r2 in zip(self.entries, other.entries)])

    def scale(self, c) -> "RationalMatrix":
        c = _frac(c)
        return RationalMatrix([[c * x for x in row] for row in self.entries])

    def transpose(self) -> "RationalMatrix":
        if self.rows == 0 or self.cols == 0:
            return RationalMatrix.zeros(self.cols, self.rows)
        return RationalMatrix(list(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def column(self, j: int) -> list[Fraction]:
        return [row[j] for row in self.entries]

    # -- elimination -----------------------------------------------------

    def _echelon(self):
        """Row echelon form; returns (rows, pivot column list)."""
        work = [list(r) for r in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            best = None
            for i in range(r, self.rows):
                v = work[i][c]
                if v != 0 and (best is None or abs(v) < abs(work[best][c])):
                    best = i
            if best is None:
                continue
            work[r], work[best] = work[best], work[r]
            pv = work[r][c]
            for i in range(r + 1, self.rows):
                if work[i][c] != 0:
                    f = work[i][c] / pv
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return work, pivots

    def rank(self) -> int:
        return len(self._echelon()[1])

    def nullity(self) -> int:
        return self.cols - self.rank()

    def nullspace(self) -> list[list[Fraction]]:
        """Kernel basis, one column vector per free column."""
        work, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                s = sum(work[r][c] * v[c] for c in range(pc + 1, self.cols))
                v[pc] = -s / work[r][pc]
            basis.append(v)
        return basis

    # -- display ---------------------------------------------------------

    def __repr__(self):
        return f"RationalMatrix({self.rows}x{self.cols})"

    def grid(self) -> str:
        """Stable textual grid, one bracketed row per line."""
        if self.rows == 0 or self.cols == 0:
            return f"[empty {self.rows}x{self.cols}]"
        cells = [[str(x) for x in row] for row in self.entries]
        width = max(len(c) for row in cells for c in row)
        return "\n".join(
            "[ " + "  ".join(c.rjust(width) for c in row) + " ]"
            for row in cells)


@dataclass(frozen=True)
class GradedComplex:
    """Chain complex graded 0..max_degree with ordered labeled bases.

    boundary[k] maps degree k to degree k-1, shape dim(k-1) x dim(k), for
    k in 1..max_degree.  The square-zero law is checked by verify_complex,
    not on construction, so defective complexes can be built and diagnosed.
    """

    max_degree: int
    basis_labels: tuple[tuple, ...]
    boundary: tuple[RationalMatrix, ...]

    def __post_init__(self):
        n = self.max_degree
        if len(self.basis_labels) != n + 1 or len(self.boundary) != n:
            raise ShapeMismatch("grading length mismatch")
        for k in range(1, n + 1):
            b = self.boundary[k - 1]
            want = (self.dim(k - 1), self.dim(k))
            if (b.rows, b.cols) != want:
                raise ShapeMismatch(
                    f"boundary at degree {k} is {b.rows}x{b.cols}, expected {want}")

    @classmethod
    def build(cls, labels, boundaries) -> "GradedComplex":
        return cls(max_degree=len(labels) - 1,
                   basis_labels=tuple(tuple(l) for l in labels),
                   boundary=tuple(boundaries))

    @classmethod
    def from_entries(cls, labels, entries) -> "GradedComplex":
        """Complex with bases labels[k] from (k, row_label, col_label, coeff)
        entries, coeff times row_label in the boundary of col_label; repeated
        cells are summed.  The only place a boundary matrix is allocated."""
        labels = [tuple(level) for level in labels]
        pos = [{lab: i for i, lab in enumerate(level)} for level in labels]
        grids = [[[Fraction(0)] * len(labels[k]) for _ in labels[k - 1]]
                 for k in range(1, len(labels))]
        for k, row, col, coeff in entries:
            grids[k - 1][pos[k - 1][row]][pos[k][col]] += coeff
        return cls.build(labels, [
            RationalMatrix(g) if g else RationalMatrix.zeros(0, len(labels[k]))
            for k, g in enumerate(grids, 1)])

    def dim(self, k: int) -> int:
        if 0 <= k <= self.max_degree:
            return len(self.basis_labels[k])
        return 0

    def boundary_at(self, k: int) -> RationalMatrix:
        """Boundary map leaving degree k; zero-shaped outside 1..max_degree."""
        if 1 <= k <= self.max_degree:
            return self.boundary[k - 1]
        return RationalMatrix.zeros(self.dim(k - 1), self.dim(k))

    def dims(self) -> tuple[int, ...]:
        return tuple(self.dim(k) for k in range(self.max_degree + 1))

    def opposite(self) -> "GradedComplex":
        """Reversed grading with transposed boundaries."""
        n = self.max_degree
        labels = [self.basis_labels[n - k] for k in range(n + 1)]
        bnds = [self.boundary_at(n - k + 1).transpose() for k in range(1, n + 1)]
        return GradedComplex.build(labels, bnds)

    def permuted(self, perms) -> "GradedComplex":
        """Reorder each degree's generators by the given permutations."""
        labels, bnds = [], []
        for k in range(self.max_degree + 1):
            p = list(perms[k])
            labels.append([self.basis_labels[k][i] for i in p])
        for k in range(1, self.max_degree + 1):
            b = self.boundary_at(k)
            pr, pc = list(perms[k - 1]), list(perms[k])
            bnds.append(RationalMatrix(
                [[b.entries[pr[i]][pc[j]] for j in range(b.cols)]
                 for i in range(b.rows)]))
        return GradedComplex.build(labels, bnds)


def square_entries(c: GradedComplex):
    """Nonzero entries (degree, row_label, col_label, value) of the boundary
    squared, where degree is the top degree of the composition."""
    for k in range(2, c.max_degree + 1):
        sq = c.boundary_at(k - 1) * c.boundary_at(k)
        for i, row in enumerate(sq.entries):
            for j, v in enumerate(row):
                if v != 0:
                    yield k, c.basis_labels[k - 2][i], c.basis_labels[k][j], v


def verify_complex(c: GradedComplex):
    """(True, None) when boundary squared is zero, else (False, its first
    entry from square_entries)."""
    witness = next(square_entries(c), None)
    return witness is None, witness


def orbit_sum_complex(orbits, faces) -> GradedComplex:
    """Complex on the orbit sums of the orientable orbits of a signed action.

    orbits[k] lists the degree-k orbits as (members, orientable) pairs;
    members maps each cell to its sign relative to the first member, the
    representative, which labels the orbit sum.  faces(cell) yields (face,
    coeff).  Over Q the orbit sums span the invariant chains C^G, and
    H(C^G) = H(C)^G.  The boundary of an orbit sum must vanish on
    non-orientable orbits (CancellationFailure), and sign times its
    coefficient must be constant on each face orbit (InvarianceFailure).
    """
    rep_of, info = {}, {}
    for k, level in enumerate(orbits):
        for members, orientable in level:
            rep = next(iter(members))
            info[rep] = (k, members, orientable)
            rep_of.update(dict.fromkeys(members, rep))
    labels = [[next(iter(members)) for members, orientable in level if orientable]
              for level in orbits]
    entries = []
    for k in range(1, len(orbits)):
        for rep in labels[k]:
            coeff: dict = {}
            for cell, sign in info[rep][1].items():
                for face, c in faces(cell):
                    coeff[face] = coeff.get(face, 0) + sign * c
            for frep in dict.fromkeys(rep_of[q] for q in coeff):
                fk, members, orientable = info[frep]
                vals = {coeff.get(q, 0) * sign for q, sign in members.items()}
                if not orientable and vals != {0}:
                    q = next(q for q in members if coeff.get(q, 0))
                    raise CancellationFailure(
                        f"boundary of the orbit sum of {rep!r} has "
                        f"coefficient {coeff[q]} at non-orientable point {q!r}")
                if len(vals) != 1:
                    raise InvarianceFailure(
                        f"boundary of the orbit sum of {rep!r} is not "
                        f"constant on the orbit of {frep!r}: {sorted(vals)}")
                if orientable and fk == k - 1 and vals != {0}:
                    entries.append((k, frep, rep, vals.pop()))
    return GradedComplex.from_entries(labels, entries)


def betti(c: GradedComplex) -> tuple[int, ...]:
    """Exact Betti numbers b_0..b_n.

    b_k = dim ker boundary_k - rank boundary_(k+1).  The alternating sums
    of dimensions and of betti numbers are asserted equal (Euler check).
    """
    ok, witness = verify_complex(c)
    if not ok:
        raise NotAComplex(f"boundary squared is nonzero, witness {witness}")
    ranks = [c.boundary_at(k).rank() for k in range(c.max_degree + 2)]
    out = []
    for k in range(c.max_degree + 1):
        out.append(c.dim(k) - ranks[k] - ranks[k + 1])
    euler_dims = sum((-1) ** k * c.dim(k) for k in range(c.max_degree + 1))
    euler_betti = sum((-1) ** k * b for k, b in enumerate(out))
    assert euler_dims == euler_betti, (euler_dims, euler_betti)
    return tuple(out)


@dataclass(frozen=True)
class ChainMap:
    """Degree-preserving map between graded complexes, one matrix per degree."""

    source: GradedComplex
    target: GradedComplex
    matrices: tuple[RationalMatrix, ...]

    def __post_init__(self):
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
    entry where target_boundary * f differs from f * source_boundary.
    """
    for k in range(1, f.source.max_degree + 1):
        lhs = f.target.boundary_at(k) * f.at(k)
        rhs = f.at(k - 1) * f.source.boundary_at(k)
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                d = lhs.entries[i][j] - rhs.entries[i][j]
                if d != 0:
                    return False, (k, i, j, d)
    return True, None
