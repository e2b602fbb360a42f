"""Extreme-ray enumeration against an independent combinatorial oracle."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import vec

from rootcones import certify, cones, linalg
from rootcones.cones import ConeSpec, extreme_rays
from rootcones.errors import InvariantViolation
from rootcones.linalg import dot
from rootcones.roots import build


# The oracle below is plain Fraction Gauss-Jordan, independent of the
# fraction-free elimination behind `rref`, `kernel` and the enumerator.


def gauss_jordan(rows, ncols):
    """Reduced echelon rows (pivot entry 1) and pivot columns."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for col in range(ncols):
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


def rank(rows, ncols):
    return len(gauss_jordan(rows, ncols)[1])


def null_space(rows, ncols):
    """One vector per free column f: 1 at f, minus f's entry at each pivot."""
    reduced, pivots = gauss_jordan(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def pairing(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def smallest_integer_multiple(v):
    """The primitive integer vector on the ray of a nonzero v."""
    den = lcm(*(Fraction(x).denominator for x in v))
    ints = [int(Fraction(x) * den) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def brute_force_rays(rows, dim, equalities=()):
    """Oracle: a ray of a pointed cone is the feasible direction of a
    rank dim-1 set of tight constraints, where the equalities are always
    tight. Enumerate all of them."""
    rows = [tuple(map(Fraction, r)) for r in rows]
    equalities = [tuple(map(Fraction, e)) for e in equalities]
    rays = set()
    idx = range(len(rows))
    for size in range(dim):
        for subset in itertools.combinations(idx, size):
            line = null_space(equalities + [rows[i] for i in subset], dim)
            if len(line) != 1:
                continue
            v = line[0]
            for cand in (v, tuple(-x for x in v)):
                if all(pairing(r, cand) >= 0 for r in rows):
                    tight = equalities + [r for r in rows if pairing(r, cand) == 0]
                    if rank(tight, dim) == dim - 1:
                        rays.add(smallest_integer_multiple(cand))
    return tuple(sorted(rays))


def brute_force_faces(rows, dim, equalities=()):
    """Oracle for a cone with lineality L: the faces one dimension above
    L, each named by the indices of the inequalities tight on it. A face
    is cut out by tight constraints of rank dim - dim L - 1; the
    inequalities vanish on L, so their signs on the face are those of any
    of its directions outside L."""
    lineality = null_space(list(equalities) + list(rows), dim)
    faces = set()
    for size in range(len(rows) + 1):
        for subset in itertools.combinations(range(len(rows)), size):
            plane = null_space(list(equalities) + [rows[i] for i in subset], dim)
            if len(plane) != len(lineality) + 1:
                continue
            v = next(
                b for b in plane
                if rank(lineality + [b], dim) > len(lineality)
            )
            for cand in (v, tuple(-x for x in v)):
                values = [pairing(r, cand) for r in rows]
                if all(x >= 0 for x in values):
                    tight = tuple(i for i, x in enumerate(values) if x == 0)
                    face = list(equalities) + [rows[i] for i in tight]
                    if rank(face, dim) == dim - len(lineality) - 1:
                        faces.add(tight)
    return lineality, sorted(faces)


def integer_row(r):
    """r times the lcm of its denominators, a positive factor: the cone and
    the oracle's answer are unchanged, and a zero row stays zero."""
    den = lcm(*(Fraction(x).denominator for x in r))
    return tuple(int(Fraction(x) * den) for x in r)


def enumerate_cone(rows, dim, equalities=()):
    """Extreme rays of the cone of rational rows, each made integral."""
    cone = ConeSpec(
        ambient_dim=dim,
        equalities=tuple(map(integer_row, equalities)),
        inequalities=tuple(map(integer_row, rows)),
        objective=(0,) * dim,
    )
    return extreme_rays(cone)


class TestPointedCones:
    def test_orthant(self):
        enum = enumerate_cone([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
        assert enum.lineality == ()
        assert set(enum.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_two_dimensional_wedge_by_hand(self):
        # s >= t and 2s + t >= 0 meet along (1,1) and (1,-2).
        enum = enumerate_cone([[1, -1], [2, 1]], 2)
        assert enum.lineality == ()
        assert set(enum.rays) == {(1, 1), (1, -2)}

    def test_single_ray(self):
        enum = enumerate_cone([[1, 0], [-1, 0], [0, 1]], 2)
        assert enum.rays == ((0, 1),)
        assert enum.lineality == ()

    def test_redundant_constraint_ignored(self):
        base = enumerate_cone([[1, 0], [0, 1]], 2)
        extra = enumerate_cone([[1, 0], [0, 1], [1, 1]], 2)
        assert base.rays == extra.rays

    def test_random_cones_match_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.randint(1, 4)
            nrows = rng.randint(0, 5)
            rows = [
                [rng.randint(-3, 3) for _ in range(dim)] for _ in range(nrows)
            ]
            # Orthant rows keep the cone pointed without loss of variety.
            rows += [[int(i == j) for j in range(dim)] for i in range(dim)]
            rows = [r for r in rows if any(r)]
            enum = enumerate_cone(rows, dim)
            assert enum.lineality == ()
            assert enum.rays == brute_force_rays(rows, dim)

        # Fractional rows, and equalities that cut the cone down; each row
        # reaches ConeSpec as its integer multiple.
        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        for _ in range(80):
            dim = rng.randint(1, 4)
            rows = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, 5))]
            rows += [[int(i == j) for j in range(dim)] for i in range(dim)]
            rows = [r for r in rows if any(r)]
            equalities = [
                [entry() for _ in range(dim)] for _ in range(rng.randint(0, 2))
            ]
            enum = enumerate_cone(rows, dim, equalities)
            assert enum.lineality == ()
            assert enum.rays == brute_force_rays(rows, dim, equalities)

    def test_positive_rescaling_and_zero_rows_change_nothing(self):
        # The enumerator takes each row as its primitive integer multiple;
        # the cone, hence the enumeration, must not see the difference.
        rng = random.Random(11)

        def entry():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        def rescaled(rows, dim):
            out = []
            for r in rows:
                factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                out.append([factor * x for x in r])
            for _ in range(rng.randint(0, 2)):
                out.insert(rng.randint(0, len(out)), [0] * dim)
            return out

        for _ in range(150):
            dim = rng.randint(1, 4)
            rows = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, 5))]
            if rng.random() < 0.5:
                rows += [[int(i == j) for j in range(dim)] for i in range(dim)]
            equalities = [
                [entry() for _ in range(dim)] for _ in range(rng.randint(0, 2))
            ]
            base = enumerate_cone(rows, dim, equalities)
            scaled = enumerate_cone(
                rescaled(rows, dim), dim, rescaled(equalities, dim)
            )
            assert scaled == base

    def test_repeated_rows_and_multiples_change_nothing(self):
        # A repeated row and a 2x copy of a row, on cones with and without
        # lineality and equalities, leave the enumeration as it was.
        rng = random.Random(13)
        for _ in range(100):
            dim = rng.randint(1, 4)
            rows = [
                [rng.randint(-3, 3) for _ in range(dim)]
                for _ in range(rng.randint(1, 5))
            ]
            equalities = [
                [rng.randint(-2, 2) for _ in range(dim)]
                for _ in range(rng.randint(0, 1))
            ]
            twice = [2 * x for x in rng.choice(rows)]
            more = [*rows, rng.choice(rows), twice]
            rng.shuffle(more)
            assert enumerate_cone(more, dim, equalities) == enumerate_cone(
                rows, dim, equalities
            )

    def test_equal_primitive_rows_reach_the_enumerator_once(self, monkeypatch):
        # (2, 0) and (3, 3) are positive multiples of (1, 0) and (1, 1);
        # the first of each set of equal primitive rows is kept, in order.
        seen = []
        real = cones._rays_and_lineality

        def recording(rows, dim):
            seen.append(list(rows))
            return real(rows, dim)

        monkeypatch.setattr(cones, "_rays_and_lineality", recording)
        enum = enumerate_cone(
            [[1, 0], [2, 0], [1, 0], [0, 3], [3, 3], [1, 1], [0, 0]], 2
        )
        assert seen == [[(1, 0), (0, 1), (1, 1)]]
        assert enum.rays == ((0, 1), (1, 0)) and enum.lineality == ()

    @pytest.mark.parametrize("den", [0, -2, Fraction(1, 2), 1.0, True])
    def test_den_must_be_a_positive_int(self, den):
        with pytest.raises(ValueError, match="positive int"):
            ConeSpec(1, (), ((1,),), (0,), den=den)

    def test_den_does_not_change_the_cone(self):
        cone = ConeSpec(2, (), ((1, -1), (2, 1)), (0, 0))
        assert extreme_rays(dataclasses.replace(cone, den=6)) == extreme_rays(cone)

    def test_bad_ray_raises(self, monkeypatch):
        # Flip the first seed ray: on the orthant nothing cuts it away, so
        # it reaches the final membership check.
        real = cones.rref

        def flip_first_seed_ray(rows):
            reduced, pivots = real(rows)
            return [tuple(-x for x in reduced[0]), *reduced[1:]], pivots

        monkeypatch.setattr(cones, "rref", flip_first_seed_ray)
        with pytest.raises(InvariantViolation, match="leaves the cone"):
            enumerate_cone([[1, 0], [0, 1]], 2)

    def test_rows_that_do_not_span_raise(self):
        rows = [(1, 0), (2, 0)]
        with pytest.raises(InvariantViolation, match="not pointed"):
            cones._pointed_double_description(rows, 2, cones._seed_reduction(rows, 2))


class TestIntegerRows:
    BUILDERS = {
        "equality row 1": lambda bad: ConeSpec(2, ((1, 0), bad), ((0, 1),), (0, 0)),
        "inequality row 1": lambda bad: ConeSpec(2, ((1, 0),), ((0, 1), bad), (0, 0)),
        "objective row 0": lambda bad: ConeSpec(2, ((1, 0),), ((0, 1),), bad),
    }

    @pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(2), 1.0, True])
    @pytest.mark.parametrize("row", list(BUILDERS))
    def test_a_non_int_entry_is_refused_naming_its_row(self, row, entry):
        with pytest.raises(ValueError, match=row):
            self.BUILDERS[row]((1, entry))

    def test_int_rows_are_accepted(self):
        for build_cone in self.BUILDERS.values():
            assert build_cone((1, -2)).ambient_dim == 2


class TestLinealityAndEqualities:
    def test_halfplane_splits_into_line_and_ray(self):
        # One inequality in the plane: lineality along its kernel.
        enum = enumerate_cone([[2, 1]], 2)
        assert len(enum.lineality) == 1
        line = enum.lineality[0]
        assert 2 * line[0] + line[1] == 0
        assert len(enum.rays) == 1
        assert dot(vec([2, 1]), vec(enum.rays[0])) > 0

    def test_no_inequalities_is_all_lineality(self):
        enum = enumerate_cone([], 3)
        assert enum.rays == ()
        assert len(enum.lineality) == 3

    def test_equalities_restrict_first(self):
        # Plane x + y + z = 0 cut by x >= 0 and y >= 0.
        enum = enumerate_cone(
            [[1, 0, 0], [0, 1, 0]], 3, equalities=[[1, 1, 1]]
        )
        assert enum.lineality == ()
        assert set(enum.rays) == {(1, 0, -1), (0, 1, -1)}

    def test_full_rank_equalities_leave_origin(self):
        enum = enumerate_cone(
            [[1, 0]], 2, equalities=[[1, 0], [0, 1]]
        )
        assert enum.rays == () and enum.lineality == ()

    def test_rays_satisfy_cone(self):
        cone = ConeSpec(
            ambient_dim=3,
            equalities=((1, 1, 1),),
            inequalities=((1, 0, 0), (0, 1, 0)),
            objective=(0, 0, 0),
        )
        enum = extreme_rays(cone)
        for ray in enum.rays:
            assert all(sum(a * x for a, x in zip(e, ray)) == 0 for e in cone.equalities)
            assert all(sum(a * x for a, x in zip(f, ray)) >= 0 for f in cone.inequalities)

    def test_random_cones_with_lineality_match_oracle(self):
        # No orthant rows, so the lineality space is often nonzero.
        rng = random.Random(23)

        def entry():
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

        with_lineality = 0
        for _ in range(120):
            dim = rng.randint(1, 4)
            rows = [[entry() for _ in range(dim)] for _ in range(rng.randint(0, 4))]
            equalities = [
                [entry() for _ in range(dim)] for _ in range(rng.randint(0, 2))
            ]
            enum = enumerate_cone(rows, dim, equalities)
            lineality, faces = brute_force_faces(rows, dim, equalities)
            with_lineality += bool(lineality)
            assert gauss_jordan(enum.lineality, dim) == gauss_jordan(lineality, dim)
            for ray in enum.rays:
                assert all(pairing(e, ray) == 0 for e in equalities)
                assert all(pairing(r, ray) >= 0 for r in rows)
                assert rank(lineality + [ray], dim) == len(lineality) + 1
            tight = sorted(
                tuple(i for i, r in enumerate(rows) if pairing(r, ray) == 0)
                for ray in enum.rays
            )
            assert tight == faces
        assert with_lineality >= 40


def control_cones_digest(specs):
    """sha256 over the enumeration of every control cone of the specs:
    each (alpha, I), with no constraint dropped and with each drop."""
    h = hashlib.sha256()
    for spec in specs:
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for k in range(len(others) + 1):
                for subset in itertools.combinations(others, k):
                    full = certify.theorem_cone(rs, alpha, subset)
                    drops = [None, "ordering-family", "positivity"] + [
                        label for label in full.inequality_labels
                        if label.startswith("ordering:")
                    ]
                    for drop in drops:
                        cone = certify.theorem_cone(rs, alpha, subset, drop=drop)
                        enum = extreme_rays(cone)
                        h.update(repr(
                            (spec, alpha, subset, drop, enum.rays, enum.lineality)
                        ).encode())
    return h.hexdigest()


def test_control_cone_enumerations_are_pinned():
    # Taken before the enumerator read its lineality off the seed
    # reduction; any change to a ray or lineality vector moves it.
    assert control_cones_digest(["A2", "A3", "B3", "G2", "A2xA1"]) == (
        "9b17e56d2585fe6905297eb7bf06095c9fb6d5d3f3bdfa19c0601b9579fc2c6b"
    )


class TestOneEliminationPerStep:
    @pytest.fixture
    def eliminations(self, monkeypatch):
        calls = []
        real = linalg._fraction_free_reduce

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(linalg, "_fraction_free_reduce", counting)
        return calls

    def test_kernel_reduces_once_with_or_without_functionals(self, eliminations):
        linalg.kernel(4, [[1, 2, 0, -1], [0, 1, 3, 1]])
        assert len(eliminations) == 1
        eliminations.clear()
        # Without functionals the reduction has no rows, so d stays 1 and
        # every column is free: the kernel is the unit basis.
        unit_basis = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        assert linalg.kernel(4, []) == linalg.Subspace(4, unit_basis)
        assert eliminations == [([], 4)]

    @pytest.mark.parametrize("subset", [(2, 3), ()])
    def test_theorem_cone(self, eliminations, subset):
        # The equalities of I pin coordinates, which are dropped with no
        # elimination, so one seed reduction, which also decides the (here
        # trivial) lineality, is all a theorem cone takes.
        rs = build("E6")
        cone = certify.theorem_cone(rs, 0, subset)
        eliminations.clear()
        enum = extreme_rays(cone)
        assert enum.lineality == () and enum.rays
        assert len(eliminations) == 1

    def test_general_equality_adds_no_reduction(self, eliminations):
        # An equality with two nonzero entries is the pair e >= 0, -e >= 0
        # among the inequalities, so the seed reduction is still the only
        # one.
        rs = build("E6")
        cone = certify.theorem_cone(rs, 0, (2, 3))
        cone = dataclasses.replace(
            cone, equalities=cone.equalities + ((0, 1, 0, 0, -1, 0),)
        )
        eliminations.clear()
        enum = extreme_rays(cone)
        assert enum.lineality == () and enum.rays
        assert len(eliminations) == 1

    def test_pointed_cone_without_equalities(self, eliminations):
        enum = enumerate_cone([[1, -1, 0], [2, 1, 0], [0, 0, 1], [1, 1, 1]], 3)
        assert enum.lineality == ()
        assert len(eliminations) == 1


small_fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def pinned_cones(draw):
    """(dim, rows, equalities): some equalities c e_j, scaled or negated and
    possibly repeated, sometimes one for every coordinate, and sometimes
    general equalities with two or more nonzero entries, degenerate ones
    too: e together with -2e, an equality equal to an inequality row, and
    one that the pins reduce to one entry or none."""
    dim = draw(st.integers(1, 4))
    functionals = st.lists(small_fractions, min_size=dim, max_size=dim)
    rows = draw(st.lists(functionals, max_size=4))
    if draw(st.booleans()):
        rows += [[int(i == j) for j in range(dim)] for i in range(dim)]
    nonzero = small_fractions.filter(bool)
    if draw(st.integers(0, 5)) == 0:
        coords = list(range(dim))
    else:
        coords = draw(
            st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim + 1)
        )
    equalities = []
    for j in coords:
        c = draw(nonzero)
        equalities.append([c * (k == j) for k in range(dim)])
    if dim >= 2:
        general = draw(st.lists(
            functionals.filter(lambda e: sum(map(bool, e)) >= 2), max_size=1
        ))
        if general and draw(st.booleans()):
            general.append([-2 * x for x in general[0]])
        if dim == 3 and draw(st.booleans()):
            general.append([1, 1, 1])
        if rows and draw(st.booleans()):
            general.append(draw(st.sampled_from(rows)))
        if draw(st.booleans()):
            # A pinned coordinate j and any other k: the slice leaves c e_k
            # if k is not pinned, and nothing if it is.
            j = draw(st.sampled_from(coords))
            k = draw(st.sampled_from([i for i in range(dim) if i != j]))
            a, b = draw(nonzero), draw(nonzero)
            general.append([a * (i == j) + b * (i == k) for i in range(dim)])
        equalities += general
    equalities = draw(st.permutations(equalities))
    return dim, rows, equalities


class TestPinnedCoordinates:
    @settings(max_examples=150, deadline=None)
    @given(pinned_cones())
    def test_match_oracle(self, cone):
        dim, rows, equalities = cone
        enum = enumerate_cone(rows, dim, equalities)
        lineality, faces = brute_force_faces(rows, dim, equalities)
        # The basis itself is canonical: the reduced echelon rows, each
        # made primitive, so its pivot entries are positive.
        assert enum.lineality == tuple(
            smallest_integer_multiple(v) for v in gauss_jordan(lineality, dim)[0]
        )
        if not lineality:
            assert enum.rays == brute_force_rays(rows, dim, equalities)
        for ray in enum.rays:
            assert all(pairing(e, ray) == 0 for e in equalities)
            assert all(pairing(r, ray) >= 0 for r in rows)
        tight = sorted(
            tuple(i for i, r in enumerate(rows) if pairing(r, ray) == 0)
            for ray in enum.rays
        )
        assert tight == faces

    @settings(max_examples=100, deadline=None)
    @given(pinned_cones())
    def test_same_as_eliminating_the_pins(self, cone):
        # e_j + e_k and e_j - e_k cut out what the pins of j and k do, but
        # as two pairs of inequalities on every coordinate instead of a
        # slice without j and k; the extreme rays and the canonical
        # lineality basis must agree exactly.
        dim, rows, equalities = cone
        pins = sorted({
            next(j for j, x in enumerate(e) if x)
            for e in equalities if sum(map(bool, e)) == 1
        })
        if len(pins) < 2:
            return
        j, k = pins[:2]
        rest = [
            e for e in equalities
            if sum(map(bool, e)) > 1 or not (e[j] or e[k])
        ]
        plus = [int(i in (j, k)) for i in range(dim)]
        minus = [(i == j) - (i == k) for i in range(dim)]
        assert enumerate_cone(rows, dim, equalities) == enumerate_cone(
            rows, dim, [plus, minus, *rest]
        )

    def test_pinned_and_general_by_hand(self):
        # y = 0 pinned twice (once negated), x + y + z = 0, x >= 0: the ray
        # (1, 0, -1); with no inequality, the line through it.
        pins = [[0, -3, 0], [0, Fraction(1, 2), 0]]
        enum = enumerate_cone([[1, 0, 0]], 3, equalities=[*pins, [1, 1, 1]])
        assert enum.rays == ((1, 0, -1),) and enum.lineality == ()
        enum = enumerate_cone([], 3, equalities=[*pins, [1, 1, 1]])
        assert enum.rays == () and enum.lineality == ((1, 0, -1),)
