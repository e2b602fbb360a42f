"""Exact linear algebra: frozen examples, independent oracles, properties."""

from fractions import Fraction as Q
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from rootcones.errors import DimensionMismatch, SingularMatrix
from rootcones import linalg
from rootcones.linalg import (
    QMatrix,
    block_coefficient_matrix,
    contains,
    determinant,
    dot,
    intersect,
    invert,
    is_direct_sum,
    kernel,
    primitive,
    rref,
    solve,
    span,
    subspace_sum,
    vec,
)


def gauss_jordan_inverse(rows):
    """Independent oracle: plain rational Gauss-Jordan, no Bareiss."""
    n = len(rows)
    a = [[Q(x) for x in r] + [Q(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        p = next((r for r in range(col, n) if a[r][col] != 0), None)
        if p is None:
            return None
        a[col], a[p] = a[p], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [r[n:] for r in a]


def gauss_jordan_rref(rows):
    """Independent oracle: plain rational Gauss-Jordan reduced echelon form."""
    a = [[Q(x) for x in r] for r in rows]
    pivots, r = [], 0
    for col in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in a[:r]], pivots


def gauss_jordan_null_space(rows, n):
    """Independent oracle: the canonical basis of the null space of rows.

    The textbook vectors (1 at a free column f, minus f's entry at each
    pivot) are reduced once more to reduced echelon form, then each is
    scaled to its primitive integer row, whose pivot entry is positive.
    """
    reduced, pivots = gauss_jordan_rref(rows) if rows else ([], [])
    vectors = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Q(0)] * n
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        vectors.append(v)
    basis = []
    for v in (gauss_jordan_rref(vectors)[0] if vectors else []):
        ints = [x * lcm(*(y.denominator for y in v)) for x in v]
        g = gcd(*(x.numerator for x in ints))
        basis.append(tuple(x.numerator // g for x in ints))
    return tuple(basis)


def leibniz_determinant(rows):
    """Independent oracle: sum over permutations with their signs."""
    n = len(rows)
    total = Q(0)
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Q(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= Q(rows[i][j])
        total += term
    return total


FRACTION_ENTRY = st.one_of(
    st.just(Q(0)), st.fractions(min_value=-6, max_value=6, max_denominator=5)
)
NONZERO_FACTOR = st.fractions(
    min_value=-6, max_value=6, max_denominator=5
).filter(lambda x: x != 0)


@st.composite
def low_rank_rows(draw, max_rows=6, max_cols=6):
    """(cols, rows): rows, possibly none, spanning at most `rank` directions."""
    cols = draw(st.integers(min_value=1, max_value=max_cols))
    rank = draw(st.integers(min_value=0, max_value=cols))
    base = draw(
        st.lists(
            st.lists(FRACTION_ENTRY, min_size=cols, max_size=cols),
            min_size=rank,
            max_size=rank,
        )
    )
    coeffs = draw(
        st.lists(
            st.lists(
                st.integers(min_value=-3, max_value=3), min_size=rank, max_size=rank
            ),
            min_size=0,
            max_size=max_rows,
        )
    )
    return cols, [
        [sum((c * b[j] for c, b in zip(cs, base)), Q(0)) for j in range(cols)]
        for cs in coeffs
    ]


class TestInvert:
    def test_two_by_two_by_hand(self):
        m = QMatrix.from_rows([[2, -1], [-1, 2]])
        assert invert(m) == QMatrix.from_rows([[Q(2, 3), Q(1, 3)], [Q(1, 3), Q(2, 3)]])

    def test_identity_fixed_point(self):
        m = QMatrix.identity(3)
        assert invert(m) == m

    def test_adjugate_by_hand(self):
        m = QMatrix.from_rows([[2, -3], [-3, 6]])
        inv = invert(m)
        assert inv == QMatrix.from_rows([[2, 1], [1, Q(2, 3)]])
        assert m.mul(inv) == QMatrix.identity(2)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            invert(QMatrix.from_rows([[1, 2], [2, 4]]))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            invert(QMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_inverse_random(self, data):
        n = data.draw(st.integers(min_value=1, max_value=10))
        entry = st.fractions(
            min_value=-8, max_value=8, max_denominator=6
        )
        rows = data.draw(
            st.lists(
                st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
        m = QMatrix.from_rows(rows)
        oracle = gauss_jordan_inverse(rows)
        if oracle is None:
            with pytest.raises(SingularMatrix):
                invert(m)
            return
        inv = invert(m)
        assert [list(inv.row(i)) for i in range(n)] == oracle
        assert m.mul(inv) == QMatrix.identity(n)
        assert inv.mul(m) == QMatrix.identity(n)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_determinant_matches_leibniz(self, data):
        n = data.draw(st.integers(min_value=0, max_value=5))
        rows = data.draw(
            st.lists(
                st.lists(FRACTION_ENTRY, min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
        if n >= 2 and data.draw(st.booleans()):
            # A dependent row, so singular inputs are common.
            rows[-1] = [2 * x for x in rows[0]]
        assert determinant(QMatrix.from_rows(rows)) == leibniz_determinant(rows)

    def test_determinant_matches_oracle(self):
        m = QMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        assert determinant(m) == 4
        assert determinant(QMatrix.from_rows([[1, 2], [2, 4]])) == 0
        assert determinant(QMatrix.from_rows([[Q(1, 2)]])) == Q(1, 2)


class TestBlockCoefficientMatrix:
    def test_rank_two_chain_by_hand(self):
        # 2x2 arithmetic done by hand for the [[2,-1],[-1,2]] form.
        a = QMatrix.from_rows([[2, -1], [-1, 2]])
        b = QMatrix.from_rows([[2]])
        c = QMatrix.from_rows([[-1]])
        d = block_coefficient_matrix(a, b, c)
        assert d == QMatrix.from_rows([[1, 0], [Q(-1, 2), Q(3, 2)]])
        # Second row: off-diagonal coefficient is non-positive.
        assert d.at(1, 0) <= 0

    def test_trivial_coupling_returns_a(self):
        a = QMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        b = QMatrix.identity(2)
        c = QMatrix.zero(2, 1)
        assert block_coefficient_matrix(a, b, c) == a

    def test_empty_pivot_block(self):
        a = QMatrix.from_rows([[2, -1], [-1, 2]])
        b = QMatrix.zero(0, 0)
        c = QMatrix.zero(0, 2)
        assert block_coefficient_matrix(a, b, c) == a

    def test_full_pivot_block_is_inverse_product(self):
        a = QMatrix.from_rows([[2, -1], [-1, 1]])
        d = block_coefficient_matrix(a, a, QMatrix.zero(2, 0))
        assert d == QMatrix.identity(2)

    def test_change_of_basis_oracle(self):
        # Row of the second root over (first root, second dual weight):
        # solved independently as a linear system.
        a = QMatrix.from_rows([[2, -1], [-1, 1]])  # short-root pair
        b = QMatrix.from_rows([[2]])
        c = QMatrix.from_rows([[-1]])
        d = block_coefficient_matrix(a, b, c)
        ginv = invert(a)
        basis = [vec([1, 0]), ginv.row(1)]
        coeffs = solve([list(v) for v in basis], vec([0, 1]))
        assert coeffs is not None
        assert list(d.row(1)) == list(coeffs)

    def test_single_row_matches_full_product(self):
        # A3 Gramm matrix re-based over I = {1}: each row of a alone gives
        # the same row as the full product.
        a = QMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        b = QMatrix.from_rows([[2]])
        c = QMatrix.from_rows([[-1, 0]])
        full = block_coefficient_matrix(a, b, c)
        for i in range(3):
            row = block_coefficient_matrix(a.submatrix([i], range(3)), b, c)
            assert (row.rows, row.cols) == (1, 3)
            assert row.row(0) == full.row(i)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_explicit_block_product(self, data):
        # Oracle: a times the n x n matrix [[b^-1, -b^-1 c], [0, Id]],
        # with b^-1 from the plain Gauss-Jordan above.
        n = data.draw(st.integers(min_value=1, max_value=5))
        m = data.draw(st.integers(min_value=0, max_value=n))
        k = data.draw(st.integers(min_value=1, max_value=3))

        def draw_rows(rows, cols):
            row = st.lists(FRACTION_ENTRY, min_size=cols, max_size=cols)
            return data.draw(st.lists(row, min_size=rows, max_size=rows))

        def matrix(rows, cols):
            return QMatrix(len(rows), cols, tuple(x for r in rows for x in r))

        a, b, c = draw_rows(k, n), draw_rows(m, m), draw_rows(m, n - m)
        binv = gauss_jordan_inverse(b)
        if binv is None:
            # Strict diagonal dominance makes b nonsingular.
            for i, r in enumerate(b):
                r[i] = 1 + sum(abs(x) for j, x in enumerate(r) if j != i)
            binv = gauss_jordan_inverse(b)
        block = [
            list(binv[i])
            + [-sum((binv[i][l] * c[l][j] for l in range(m)), Q(0))
               for j in range(n - m)]
            for i in range(m)
        ]
        block += [[Q(0)] * m + [Q(int(i == j)) for j in range(n - m)]
                  for i in range(n - m)]
        expected = [
            [sum((row[l] * block[l][j] for l in range(n)), Q(0)) for j in range(n)]
            for row in a
        ]
        d = block_coefficient_matrix(matrix(a, n), matrix(b, m), matrix(c, n - m))
        assert (d.rows, d.cols) == (k, n)
        assert [list(d.row(i)) for i in range(k)] == expected

    def test_int_entries_match_fraction_entries(self, monkeypatch):
        # The product runs on integer rows: QMatrix values holding plain
        # ints give the same Fractions, and no inverse or product is built.
        def raw(rows):
            return QMatrix(len(rows), len(rows[0]), tuple(x for r in rows for x in r))

        def refuse(*args):
            raise AssertionError("block_coefficient_matrix must not call this")

        a = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -2, 4]]
        b = [[2, -1], [-1, 2]]
        c = [[0, 0], [-1, 0]]
        expected = block_coefficient_matrix(
            QMatrix.from_rows(a), QMatrix.from_rows(b), QMatrix.from_rows(c)
        )
        monkeypatch.setattr(linalg, "invert", refuse)
        monkeypatch.setattr(QMatrix, "mul", refuse)
        d = block_coefficient_matrix(raw(a), raw(b), raw(c))
        assert d == expected
        assert all(type(x) is Q for x in d.entries)
        assert d.row(2) == (Q(-1, 3), Q(-2, 3), Q(4, 3), -2)  # by hand

    def test_shape_errors(self):
        a = QMatrix.from_rows([[2, -1], [-1, 2]])
        with pytest.raises(DimensionMismatch):
            block_coefficient_matrix(a, QMatrix.identity(1), QMatrix.zero(2, 1))
        with pytest.raises(SingularMatrix):
            block_coefficient_matrix(a, QMatrix.zero(1, 1), QMatrix.zero(1, 1))


A2_GRAMM = [[Q(2), Q(-1)], [Q(-1), Q(2)]]


class TestSubspaces:
    def test_kernel_dimension_counts(self):
        # nullity = 3 - rank(2 independent functionals)
        k = kernel(3, [[1, 0, 0], [0, 1, 0]])
        assert k.dim == 1
        assert k.basis == (vec([0, 0, 1]),)

    def test_intersect_idempotent(self):
        s = span(3, [[1, 0, 1], [0, 1, 0]])
        assert intersect(s, s) == s

    def test_two_lines_span_plane(self):
        ka = kernel(2, [A2_GRAMM[0]])
        kb = kernel(2, [A2_GRAMM[1]])
        assert subspace_sum(ka, kb) == linalg.full_space(2)

    def test_canonical_equality(self):
        s1 = span(3, [[2, 2, 0], [0, 0, 3]])
        s2 = span(3, [[1, 1, 1], [0, 0, -5]])
        assert s1 == s2
        assert s1.basis == s2.basis

    def test_contains(self):
        s = span(3, [[1, 0, 1], [0, 1, 0]])
        assert contains(s, vec([2, 5, 2]))
        assert not contains(s, vec([1, 0, 0]))

    def test_direct_sum_and_unique_decomposition(self):
        s1 = span(3, [[1, 0, 0]])
        s2 = span(3, [[0, 1, 1], [0, 0, 1]])
        t = linalg.full_space(3)
        assert is_direct_sum(s1, s2, t)
        # Any vector decomposes uniquely: solve over the joint basis.
        v = vec([3, -2, 7])
        cols = [list(b) for b in s1.basis] + [list(b) for b in s2.basis]
        coeffs = solve(cols, v)
        assert coeffs is not None
        rebuilt = [Q(0)] * 3
        for x, col in zip(coeffs, cols):
            rebuilt = [r + x * c for r, c in zip(rebuilt, col)]
        assert tuple(rebuilt) == v

    def test_not_direct_sum_when_overlapping(self):
        s1 = span(2, [[1, 0]])
        s2 = span(2, [[1, 0]])
        assert not is_direct_sum(s1, s2, linalg.full_space(2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span(2, [[1, 0]]), span(3, [[1, 0, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_sum_contains_both_summands(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        vs = st.lists(
            st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
            min_size=0,
            max_size=4,
        )
        s1 = span(n, data.draw(vs))
        s2 = span(n, data.draw(vs))
        total = subspace_sum(s1, s2)
        assert all(contains(total, b) for b in s1.basis)
        assert all(contains(total, b) for b in s2.basis)
        assert intersect(s1, total) == s1

    @settings(max_examples=100, deadline=None)
    @given(low_rank_rows())
    def test_rref_matches_gauss_jordan(self, drawn):
        _, rows = drawn
        reduced, pivots = rref(rows)
        # Each row divided by its pivot entry is the textbook row.
        expected = gauss_jordan_rref(rows)
        assert ([tuple(Q(x, r[p]) for x in r) for r, p in zip(reduced, pivots)],
                pivots) == expected
        for r, p in zip(reduced, pivots):
            assert r[p] > 0 and gcd(*r) == 1

    def test_subspace_operations_build_no_fraction(self, monkeypatch):
        rows = [[Q(1, 2), Q(-1, 3), Q(0)], [Q(2), Q(5, 4), Q(-1)]]
        v = (Q(3, 2), Q(-1, 3), Q(7))
        built = []
        new = Q.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Q, "__new__", counting_new)
        s = span(3, rows)
        rref(rows)
        intersect(s, kernel(3, rows[:1]))
        contains(s, v)
        assert built == []

    @settings(max_examples=80, deadline=None)
    @given(low_rank_rows(max_rows=5, max_cols=5), st.data())
    def test_canonical_integer_form(self, drawn, data):
        n, rows = drawn
        others = data.draw(
            st.lists(st.lists(FRACTION_ENTRY, min_size=n, max_size=n), max_size=3)
        )
        results = [span(n, rows), kernel(n, rows),
                   intersect(span(n, rows), span(n, others))]
        for s in results:
            for b in s.basis:
                assert type(b) is tuple and all(type(x) is int for x in b)
                assert gcd(*b) == 1
                assert next(x for x in b if x != 0) > 0
        # Canonical: rescaling rows by nonzero rationals and reordering
        # them leaves the basis tuple unchanged.
        factors = data.draw(
            st.lists(NONZERO_FACTOR, min_size=len(rows), max_size=len(rows))
        )
        rescaled = [[c * x for x in r] for c, r in zip(factors, rows)]
        shuffled = data.draw(st.permutations(rescaled))
        assert span(n, shuffled).basis == results[0].basis

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_contains_matches_the_rank_oracle(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        entry = st.one_of(FRACTION_ENTRY, st.integers(min_value=-4, max_value=4))
        rows = data.draw(
            st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4)
        )
        # Half the time v is a combination of the rows, so it lies in their span.
        if data.draw(st.booleans()):
            coeffs = data.draw(
                st.lists(entry, min_size=len(rows), max_size=len(rows))
            )
            v = [sum((c * r[j] for c, r in zip(coeffs, rows)), 0) for j in range(n)]
        else:
            v = data.draw(st.lists(entry, min_size=n, max_size=n))
        # v lies in the span exactly when adjoining it leaves the rank unchanged.
        rank = len(gauss_jordan_rref(rows)[0])
        assert contains(span(n, rows), v) == (
            len(gauss_jordan_rref(rows + [v])[0]) == rank
        )

    @settings(max_examples=60, deadline=None)
    @given(low_rank_rows(max_rows=4, max_cols=5), st.data())
    def test_intersect_matches_annihilator_formula(self, drawn, data):
        n, rows1 = drawn
        rows2 = data.draw(
            st.lists(
                st.lists(FRACTION_ENTRY, min_size=n, max_size=n), max_size=4
            )
        )
        # Share a vector half the time so intersections are often nonzero.
        if rows1 and data.draw(st.booleans()):
            rows2.append(rows1[0])
        s1, s2 = span(n, rows1), span(n, rows2)
        ann = list(kernel(n, s1.basis).basis) + list(kernel(n, s2.basis).basis)
        assert intersect(s1, s2) == kernel(n, ann)

    @settings(max_examples=80, deadline=None)
    @given(low_rank_rows(max_rows=5, max_cols=5), st.data())
    def test_direct_sum_matches_definition(self, drawn, data):
        n, rows = drawn
        cut = data.draw(st.integers(min_value=0, max_value=len(rows)))
        rows1, rows2 = rows[:cut], rows[cut:]
        # Overlapping pairs half the time: s2 also spans a vector of s1.
        if rows1 and data.draw(st.booleans()):
            rows2 = rows2 + [rows1[-1]]
        target_rows = rows[: data.draw(st.integers(min_value=0, max_value=len(rows)))]
        s1, s2, target = span(n, rows1), span(n, rows2), span(n, target_rows)
        # Definition: the joint basis is independent and spans the target.
        joint = list(s1.basis) + list(s2.basis)
        reduced = gauss_jordan_rref(joint)
        expected = len(reduced[0]) == len(joint) and reduced == gauss_jordan_rref(
            target.basis
        )
        assert is_direct_sum(s1, s2, target) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_kernel_is_the_canonical_null_space(self, data):
        n = data.draw(st.integers(min_value=0, max_value=5))
        row = st.one_of(
            st.lists(
                st.one_of(FRACTION_ENTRY, st.integers(min_value=-4, max_value=4)),
                min_size=n, max_size=n,
            ),
            st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
            st.just([0] * n),
        )
        rows = data.draw(st.lists(row, max_size=4))
        built = []
        new = Q.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Q, "__new__", counting_new)
            k = kernel(n, rows)
        assert built == []
        assert k.basis == gauss_jordan_null_space(rows, n)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kernel_dim_is_nullity(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        rows = data.draw(
            st.lists(
                st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
                min_size=0,
                max_size=4,
            )
        )
        k = kernel(n, rows)
        rank = len(rref(rows)[0]) if rows else 0
        assert k.dim == n - rank
        assert all(all(dot(f, b) == 0 for f in map(vec, rows)) for b in k.basis)


class TestHelpers:
    def test_primitive(self):
        assert primitive(vec([Q(1, 2), Q(-3, 4)])) == (2, -3)
        assert primitive(vec([4, 6])) == (2, 3)
        assert primitive(vec([0, -5])) == (0, -1)
        with pytest.raises(ValueError):
            primitive(vec([0, 0]))

    def test_solve_inconsistent(self):
        assert solve([[1, 0], [1, 0]], vec([0, 1])) is None

    def test_solve_empty(self):
        assert solve([], vec([0, 0])) == ()
        assert solve([], vec([1, 0])) is None
