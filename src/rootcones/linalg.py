"""Exact rational vectors, matrices, and canonical subspaces.

Scalars are fractions.Fraction throughout; plain ints are accepted and
coerced on construction. Every value is immutable and every operation is
pure, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix

Vector = tuple[Fraction, ...]


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(x) for x in values)


def unit_vec(n: int, i: int) -> Vector:
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector subtraction of unequal lengths")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Smallest integer vector on the same ray; direction is preserved."""
    v = vec(v)
    if is_zero_vec(v):
        raise ValueError("zero vector has no primitive form")
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


@dataclass(frozen=True)
class QMatrix:
    """Dense rational matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        rows = [vec(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatch("ragged rows")
        return QMatrix(n, m, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix.from_rows([unit_vec(n, i) for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "QMatrix":
        return QMatrix(rows, cols, (Fraction(0),) * (rows * cols))

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows([self.column(j) for j in range(self.cols)])

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = [other.column(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            r = self.row(i)
            out.append([dot(r, c) for c in cols])
        return QMatrix.from_rows(out) if out else QMatrix.zero(0, other.cols)

    def mul_vec(self, v: Sequence[Fraction]) -> Vector:
        if self.cols != len(v):
            raise DimensionMismatch("matrix-vector size mismatch")
        return tuple(dot(self.row(i), v) for i in range(self.rows))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "QMatrix":
        row_idx, col_idx = list(row_idx), list(col_idx)
        entries = tuple(self.at(i, j) for i in row_idx for j in col_idx)
        return QMatrix(len(row_idx), len(col_idx), entries)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.at(i, j) == self.at(j, i)
            for i in range(self.rows)
            for j in range(i)
        )


def hstack(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.rows != b.rows:
        raise DimensionMismatch("hstack row counts differ")
    if a.rows == 0:
        return QMatrix.zero(0, a.cols + b.cols)
    return QMatrix.from_rows(
        [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    )


def vstack(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.cols != b.cols:
        raise DimensionMismatch("vstack column counts differ")
    return QMatrix(a.rows + b.rows, a.cols, a.entries + b.entries)


def _integer_rows(m: QMatrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and scales."""
    work, scales = [], []
    for i in range(m.rows):
        row = m.row(i)
        s = lcm(*(x.denominator for x in row)) if row else 1
        scales.append(s)
        work.append([int(x * s) for x in row])
    return work, scales


def invert(m: QMatrix) -> QMatrix:
    """Exact matrix inverse.

    Rows are scaled to integers, the forward pass is fraction-free
    Bareiss elimination (keeps intermediate entries small and integral),
    and back-substitution is exact rational. Raises SingularMatrix when
    the matrix is rank deficient.
    """
    if m.rows != m.cols:
        raise DimensionMismatch(f"cannot invert {m.rows}x{m.cols} matrix")
    n = m.rows
    if n == 0:
        return m
    a, scales = _integer_rows(m)
    # Solve (D m) Y = D with D = diag(scales); then Y = m^{-1} exactly.
    for i in range(n):
        a[i].extend(scales[i] if j == i else 0 for j in range(n))
    width = 2 * n
    prev = 1
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            raise SingularMatrix("matrix is not invertible")
        if p != k:
            a[k], a[p] = a[p], a[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, width):
                # Exact integer division: Sylvester identity.
                row_i[j] = (piv * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = piv
    out: list[list[Fraction]] = [[Fraction(0)] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            s = Fraction(a[i][n + col])
            for j in range(i + 1, n):
                s -= a[i][j] * out[j][col]
            out[i][col] = s / a[i][i]
    return QMatrix.from_rows(out)


def determinant(m: QMatrix) -> Fraction:
    """Exact determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    a, scales = _integer_rows(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            sign = -sign
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (piv * a[i][j] - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = piv
    det_scaled = Fraction(sign * a[n - 1][n - 1])
    for s in scales:
        det_scaled /= s
    return det_scaled


def block_coefficient_matrix(a: QMatrix, b: QMatrix, c: QMatrix) -> QMatrix:
    """Return a times [[b^-1, -b^-1 c], [0, Id]] exactly.

    a must be n x n, b m x m and nonsingular, c m x (n - m). The product
    re-expresses the rows of a over a mixed basis in which the first m
    coordinates stay put and the rest are replaced through b.
    """
    n = a.rows
    m = b.rows
    if a.cols != n:
        raise DimensionMismatch("first block must be square")
    if b.cols != m:
        raise DimensionMismatch("pivot block must be square")
    if m > n:
        raise DimensionMismatch("pivot block larger than the full matrix")
    if c.rows != m or c.cols != n - m:
        raise DimensionMismatch(
            f"coupling block must be {m}x{n - m}, got {c.rows}x{c.cols}"
        )
    binv = invert(b)
    neg_bc = binv.mul(c)
    neg_bc = QMatrix(m, n - m, tuple(-x for x in neg_bc.entries))
    top = hstack(binv, neg_bc)
    bottom = hstack(QMatrix.zero(n - m, m), QMatrix.identity(n - m))
    return a.mul(vstack(top, bottom))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    work = [list(vec(r)) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DimensionMismatch("ragged rows")
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


@dataclass(frozen=True)
class Subspace:
    """Linear subspace with a canonical reduced-echelon basis.

    Equal subspaces have identical basis tuples, so dataclass equality
    decides subspace equality.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __post_init__(self):
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise DimensionMismatch("basis vector of wrong length")


def span(ambient_dim: int, vectors: Sequence[Sequence[Fraction]]) -> Subspace:
    """Subspace spanned by the given vectors, canonicalized."""
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch("spanning vector of wrong length")
    basis, _ = rref(vectors)
    return Subspace(ambient_dim, tuple(basis))


def full_space(ambient_dim: int) -> Subspace:
    return span(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])


def zero_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, ())


def kernel(ambient_dim: int, functionals: Sequence[Sequence[Fraction]]) -> Subspace:
    """Common kernel of the functionals, as a canonical subspace."""
    for f in functionals:
        if len(f) != ambient_dim:
            raise DimensionMismatch("functional of wrong length")
    rows, pivots = rref(functionals)
    free = [c for c in range(ambient_dim) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ambient_dim
        v[f] = Fraction(1)
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        basis.append(v)
    return span(ambient_dim, basis)


def contains(s: Subspace, v: Sequence[Fraction]) -> bool:
    """Whether vector v lies in subspace s."""
    if len(v) != s.ambient_dim:
        raise DimensionMismatch("vector of wrong length")
    residue = list(vec(v))
    for b in s.basis:
        p = next(i for i, x in enumerate(b) if x != 0)
        if residue[p] != 0:
            f = residue[p]
            residue = [x - f * y for x, y in zip(residue, b)]
    return is_zero_vec(residue)


def is_subspace(inner: Subspace, outer: Subspace) -> bool:
    return all(contains(outer, b) for b in inner.basis)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space."""
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = s1.ambient_dim
    # Annihilators under the standard pairing: S = ker(ann(S)).
    ann1 = kernel(n, s1.basis).basis
    ann2 = kernel(n, s2.basis).basis
    return kernel(n, list(ann1) + list(ann2))


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return span(s1.ambient_dim, list(s1.basis) + list(s2.basis))


def is_direct_sum(s1: Subspace, s2: Subspace, target: Subspace) -> bool:
    """Whether target = s1 (+) s2 with trivial intersection."""
    if not (s1.ambient_dim == s2.ambient_dim == target.ambient_dim):
        raise DimensionMismatch("ambient dimensions differ")
    if s1.dim + s2.dim != target.dim:
        return False
    if intersect(s1, s2).dim != 0:
        return False
    return subspace_sum(s1, s2) == target


def solve(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Coefficients x with sum x_j * columns[j] = target, or None.

    Free coefficients, if any, are set to zero.
    """
    if not columns:
        return () if is_zero_vec(target) else None
    n = len(columns[0])
    if len(target) != n or any(len(c) != n for c in columns):
        raise DimensionMismatch("solve shape mismatch")
    rows = [[Fraction(columns[j][i]) for j in range(len(columns))] + [Fraction(target[i])]
            for i in range(n)]
    reduced, pivots = rref(rows)
    width = len(columns)
    x = [Fraction(0)] * width
    for r, p in zip(reduced, pivots):
        if p == width:
            return None  # inconsistent: pivot in the augmented column
        x[p] = r[width]
    return tuple(x)
