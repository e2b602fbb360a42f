"""Exact rational vectors, matrices, and canonical subspaces.

Vectors and matrices hold fractions.Fraction or int entries; plain ints
are accepted wherever values enter (`vec`, `QMatrix.from_rows`, `rref`,
`span`, `kernel`, `solve`), and values that are already Fractions are not
coerced again. Elimination runs on integer rows (Bareiss), and a
`Subspace` stores each reduced-echelon row as its primitive integer
multiple, so subspace code builds no Fraction per entry. Every value is
immutable and every operation is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def vec(values: Iterable) -> Vector:
    """Coerce an iterable of numbers into a tuple of Fractions."""
    return tuple(Fraction(x) for x in values)


def unit_vec(n: int, i: int) -> IntVector:
    """The i-th standard basis vector of length n, in ints."""
    return tuple(int(j == i) for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """Exact dot product, summed from 0 in order; integer vectors give an int."""
    if len(u) != len(v):
        raise DimensionMismatch(f"dot product of lengths {len(u)} and {len(v)}")
    return sum(map(mul, u, v))


def vec_sub(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector subtraction of unequal lengths")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * x for x in v)


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in v)


def clear_denominators(v: Sequence[Fraction]) -> tuple[int, IntVector]:
    """The lcm of the entries' denominators, and the entries times it.

    Entries must be Fractions or ints; a vector of plain ints comes back
    as it is, with 1.
    """
    if all(type(x) is int for x in v):
        return 1, tuple(v)
    den = lcm(*(x.denominator for x in v))
    return den, tuple(x.numerator * (den // x.denominator) for x in v)


def primitive(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Smallest integer vector on the same ray; direction is preserved.

    Entries must be Fractions or ints; ints whose gcd is 1 come back as
    they are, as a tuple.
    """
    _, ints = clear_denominators(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return ints if g == 1 else tuple(x // g for x in ints)


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

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if self.cols == 0:
            return QMatrix.zero(self.rows, other.cols)
        cols = [other.column(j) for j in range(other.cols)]
        entries = tuple(dot(self.row(i), c) for i in range(self.rows) for c in cols)
        return QMatrix(self.rows, other.cols, entries)

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


def _integer_rows(
    rows: Iterable[Sequence[Fraction]],
) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns integer rows and scales.

    Rows of plain ints are copied as they are, with scale 1.
    """
    work, scales = [], []
    for row in rows:
        if all(type(x) is int for x in row):
            scales.append(1)
            work.append(list(row))
            continue
        s = lcm(*(x.denominator for x in row))
        scales.append(s)
        work.append([x.numerator * (s // x.denominator) for x in row])
    return work, scales


def _fraction_free_reduce(
    a: list[list[int]], search: int
) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Pivots are sought in the first `search` columns. Every entry stays a
    minor of the input, so each update divides exactly by the previous
    pivot (Bareiss, 1968). Afterwards the pivot rows lead a, every pivot
    entry equals the last pivot d and every other entry of a pivot column
    is zero; rows past the pivots are zero in the searched columns.
    Returns the pivot columns, the sign of the row swaps and d.
    """
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(search):
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        row_r = a[r]
        piv = row_r[c]
        for i, row_i in enumerate(a):
            if i != r:
                f = row_i[c]
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row_i, row_r)]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, sign, prev


def _integer_inverse(m: QMatrix) -> tuple[int, list[list[int]]]:
    """d and the rows of d m^-1, all ints; raises SingularMatrix if m is.

    With D the diagonal of row scales that make D m integral, reducing
    [D m | D] leaves [d I | d m^-1].
    """
    n = m.rows
    a, scales = _integer_rows(m.row(i) for i in range(n))
    for i in range(n):
        a[i].extend(scales[i] if j == i else 0 for j in range(n))
    pivots, _, d = _fraction_free_reduce(a, n)
    if len(pivots) < n:
        raise SingularMatrix("matrix is not invertible")
    return d, [row[n:] for row in a]


def invert(m: QMatrix) -> QMatrix:
    """Exact matrix inverse; raises SingularMatrix when m is rank deficient."""
    if m.rows != m.cols:
        raise DimensionMismatch(f"cannot invert {m.rows}x{m.cols} matrix")
    d, inverse = _integer_inverse(m)
    entries = tuple(Fraction(x, d) for row in inverse for x in row)
    return QMatrix(m.rows, m.cols, entries)


def determinant(m: QMatrix) -> Fraction:
    """Exact determinant: the last fraction-free pivot over the row scales."""
    if m.rows != m.cols:
        raise DimensionMismatch("determinant of a non-square matrix")
    n = m.rows
    a, scales = _integer_rows(m.row(i) for i in range(n))
    pivots, sign, d = _fraction_free_reduce(a, n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(sign * d, prod(scales))


def block_coefficient_matrix(a: QMatrix, b: QMatrix, c: QMatrix) -> QMatrix:
    """Return a times [[b^-1, -b^-1 c], [0, Id]] exactly.

    a has n columns and any number of rows, b is m x m and nonsingular,
    c is m x (n - m). The product re-expresses the rows of a over a mixed
    basis in which the first m coordinates stay put and the rest are
    replaced through b. By associativity it is [a_I b^-1 | a_rest -
    (a_I b^-1) c], with a_I the first m columns of a, so the n x n block
    matrix is never formed.

    It is computed on integers. The fraction-free reduction behind
    `invert` gives N = d b^-1 with N and d integral. With c = C / t and a
    row of a equal to (A_I, A_rest) / s, all integral, that row of the
    product is [A_I N t | A_rest d t - A_I N C] / (s d t), so a Fraction
    is built only for each returned entry.
    """
    n = a.cols
    m = b.rows
    if b.cols != m:
        raise DimensionMismatch("pivot block must be square")
    if m > n:
        raise DimensionMismatch("pivot block larger than the full matrix")
    if c.rows != m or c.cols != n - m:
        raise DimensionMismatch(
            f"coupling block must be {m}x{n - m}, got {c.rows}x{c.cols}"
        )
    d, inverse = _integer_inverse(b)
    n_cols = list(zip(*inverse))  # columns of N
    t, c_ints = clear_denominators(c.entries)
    c_cols = [c_ints[j :: n - m] for j in range(n - m)]  # columns of C
    dt = d * t
    entries: list[Fraction] = []
    for row, s in zip(*_integer_rows(a.row(i) for i in range(a.rows))):
        head = [dot(row[:m], col) for col in n_cols]  # A_I N
        den = s * dt
        entries += [Fraction(x * t, den) for x in head]
        entries += [
            Fraction(x * dt - dot(head, col), den)
            for x, col in zip(row[m:], c_cols)
        ]
    return QMatrix(a.rows, n, tuple(entries))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[IntVector], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns.

    Entries must be Fractions or ints. Each returned row is the primitive
    integer multiple of its reduced-echelon row, so its pivot entry is the
    positive integer that clears the row's denominators; dividing a row by
    its pivot entry gives the textbook row.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("ragged rows")
    a, _ = _integer_rows(rows)
    pivots, _, d = _fraction_free_reduce(a, ncols)
    # Every pivot row is d times its reduced-echelon row, so dividing by
    # its gcd with the sign of d leaves the primitive form, pivot positive.
    reduced = []
    for row in a[: len(pivots)]:
        g = gcd(*row) if d > 0 else -gcd(*row)
        reduced.append(tuple(x // g for x in row))
    return reduced, pivots


@dataclass(frozen=True)
class Subspace:
    """Linear subspace with a canonical integer basis.

    Each basis row is the primitive integer multiple, with a positive
    pivot, of a row of the reduced echelon form. That form is unique, so
    equal subspaces have identical basis tuples and dataclass equality
    decides subspace equality.
    """

    ambient_dim: int
    basis: tuple[IntVector, ...]

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
    return Subspace(
        ambient_dim,
        tuple(
            tuple(int(i == j) for j in range(ambient_dim)) for i in range(ambient_dim)
        ),
    )


def kernel(ambient_dim: int, functionals: Sequence[Sequence[Fraction]]) -> Subspace:
    """Common kernel of the functionals, as a canonical subspace.

    One elimination, with the columns reversed: each pivot row then ends
    at its pivot, so the kernel vector of free column f is nonzero only at
    f and at the pivot columns after f. No other kernel vector is nonzero
    at f, so these vectors, divided by their gcd with f's entry positive,
    are already the canonical basis. With no functionals there is no
    elimination at all.
    """
    for f in functionals:
        if len(f) != ambient_dim:
            raise DimensionMismatch("functional of wrong length")
    if not functionals:
        return full_space(ambient_dim)
    a, _ = _integer_rows(f[::-1] for f in functionals)
    pivots, _, d = _fraction_free_reduce(a, ambient_dim)
    # Reduced row k is d times the reduced echelon row with pivot column
    # p = ambient_dim - 1 - pivots[k], so the kernel vector of free column
    # f, scaled by d, is d at f and -row[ambient_dim - 1 - f] at each p.
    last = ambient_dim - 1
    pivot_rows = [(last - c, row) for c, row in zip(pivots, a)]
    taken = {p for p, _ in pivot_rows}
    basis = []
    for f in range(ambient_dim):
        if f in taken:
            continue
        v = [0] * ambient_dim
        v[f] = d
        for p, row in pivot_rows:
            v[p] = -row[last - f]
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return Subspace(ambient_dim, tuple(basis))


def contains(s: Subspace, v: Sequence[Fraction]) -> bool:
    """Whether vector v lies in subspace s."""
    if len(v) != s.ambient_dim:
        raise DimensionMismatch("vector of wrong length")
    # v's denominators are cleared once; each step then scales the residue
    # by the positive pivot entry c and subtracts residue[p] times the row,
    # which keeps it integral and leaves whether it vanishes unchanged.
    _, residue = clear_denominators(v)
    for b in s.basis:
        p = b.index(next(filter(None, b)))  # the pivot, b's first nonzero entry
        f = residue[p]
        if f != 0:
            c = b[p]
            residue = [c * x - f * y for x, y in zip(residue, b)]
    return not any(residue)


def is_subspace(inner: Subspace, outer: Subspace) -> bool:
    return all(contains(outer, b) for b in inner.basis)


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces of the same ambient space.

    Zassenhaus: reduce the rows (b | b) for b in s1 and (c | 0) for c in
    s2. The rows whose left half vanishes have right halves that span the
    intersection. Those right halves are already reduced echelon rows and,
    with a zero left half, primitive with a positive pivot, hence canonical.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    n = s1.ambient_dim
    zero = (0,) * n
    reduced, pivots = rref(
        [(*b, *b) for b in s1.basis] + [(*c, *zero) for c in s2.basis]
    )
    return Subspace(
        n, tuple(row[n:] for row, p in zip(reduced, pivots) if p >= n)
    )


def subspace_sum(s1: Subspace, s2: Subspace) -> Subspace:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return span(s1.ambient_dim, list(s1.basis) + list(s2.basis))


def is_direct_sum(s1: Subspace, s2: Subspace, target: Subspace) -> bool:
    """Whether target = s1 (+) s2 with trivial intersection.

    Once the dimensions add up, s1 + s2 = target forces the intersection
    to be trivial, since dim(s1 + s2) = dim s1 + dim s2 - dim(s1 & s2).
    """
    if not (s1.ambient_dim == s2.ambient_dim == target.ambient_dim):
        raise DimensionMismatch("ambient dimensions differ")
    return s1.dim + s2.dim == target.dim and subspace_sum(s1, s2) == target


def solve(columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]):
    """Coefficients x with sum x_j * columns[j] = target, or None.

    Free coefficients, if any, are set to zero.
    """
    if not columns:
        return () if is_zero_vec(target) else None
    n = len(columns[0])
    if len(target) != n or any(len(c) != n for c in columns):
        raise DimensionMismatch("solve shape mismatch")
    rows = [[c[i] for c in columns] + [target[i]] for i in range(n)]
    reduced, pivots = rref(rows)
    width = len(columns)
    x = [Fraction(0)] * width
    for r, p in zip(reduced, pivots):
        if p == width:
            return None  # inconsistent: pivot in the augmented column
        x[p] = Fraction(r[width], r[p])
    return tuple(x)
