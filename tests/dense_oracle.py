"""Dense Fraction linear algebra: the independent oracle for the sparse kernel.

DenseMatrix shares no code with orbimorse.chaincx: rows are tuples of
Fraction, the product is row by column, and rank and kernel come from
Gaussian elimination with partial pivoting by smallest-magnitude entry.
The functions below apply it to the boundaries of a GradedComplex and scan
results row by row, the order the package's witnesses follow.
"""

from fractions import Fraction


class DenseMatrix:
    """Immutable dense matrix over the rationals."""

    def __init__(self, entries, cols=None):
        self.entries = tuple(tuple(Fraction(x) for x in row) for row in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else (cols or 0)

    @classmethod
    def of(cls, m) -> "DenseMatrix":
        """Dense copy of a RationalMatrix, read off its {row: value} columns."""
        return cls([[col.get(i, 0) for col in m.columns] for i in range(m.rows)],
                   m.cols)

    def __mul__(self, other: "DenseMatrix") -> "DenseMatrix":
        assert self.cols == other.rows
        bt = list(zip(*other.entries)) or [()] * other.cols
        return DenseMatrix([[sum((a * b for a, b in zip(row, col)), Fraction(0))
                             for col in bt] for row in self.entries], other.cols)

    def transpose(self) -> "DenseMatrix":
        return DenseMatrix(list(zip(*self.entries)), self.rows)

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


def square_entries(c):
    """Nonzero (degree, row_label, col_label, value) of the boundary squared,
    scanned row by row."""
    out = []
    for k in range(2, c.max_degree + 1):
        sq = DenseMatrix.of(c.boundary_at(k - 1)) * DenseMatrix.of(c.boundary_at(k))
        for i, row in enumerate(sq.entries):
            for j, v in enumerate(row):
                if v != 0:
                    out.append((k, c.basis_labels[k - 2][i], c.basis_labels[k][j], v))
    return out


def betti(c) -> tuple[int, ...]:
    """b_k = dim C_k - rank d_k - rank d_(k+1), by dense elimination."""
    ranks = [DenseMatrix.of(c.boundary_at(k)).rank()
             for k in range(c.max_degree + 2)]
    return tuple(c.dim(k) - ranks[k] - ranks[k + 1]
                 for k in range(c.max_degree + 1))


def chain_map_witness(f):
    """First (degree, row, col, value), row by row, where the target
    boundary after f differs from f after the source boundary; else None."""
    for k in range(1, f.source.max_degree + 1):
        lhs = DenseMatrix.of(f.target.boundary_at(k)) * DenseMatrix.of(f.at(k))
        rhs = DenseMatrix.of(f.at(k - 1)) * DenseMatrix.of(f.source.boundary_at(k))
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                d = lhs.entries[i][j] - rhs.entries[i][j]
                if d != 0:
                    return k, i, j, d
    return None
