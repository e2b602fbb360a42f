"""Extreme-ray enumeration against an independent combinatorial oracle."""

import itertools
import random
from fractions import Fraction

import pytest

from rootcones import cones
from rootcones.cones import ConeSpec, extreme_rays, satisfies
from rootcones.errors import InvariantViolation
from rootcones.linalg import dot, kernel, primitive, rref, vec


def brute_force_rays(rows, dim, equalities=()):
    """Oracle: a ray of a pointed cone is the feasible direction of a
    rank dim-1 set of tight constraints, where the equalities are always
    tight. Enumerate all of them."""
    rows = [vec(r) for r in rows]
    equalities = [vec(e) for e in equalities]
    rays = set()
    idx = range(len(rows))
    for size in range(dim):
        for subset in itertools.combinations(idx, size):
            chosen = equalities + [rows[i] for i in subset]
            if len(rref(chosen)[0]) != dim - 1:
                continue
            line = kernel(dim, chosen)
            if line.dim != 1:
                continue
            v = line.basis[0]
            for cand in (v, tuple(-x for x in v)):
                if all(dot(r, cand) >= 0 for r in rows):
                    tight = equalities + [r for r in rows if dot(r, cand) == 0]
                    if len(rref(tight)[0]) == dim - 1:
                        rays.add(primitive(cand))
    return tuple(sorted(rays))


def enumerate_cone(rows, dim, equalities=()):
    cone = ConeSpec(
        ambient_dim=dim,
        equalities=tuple(vec(e) for e in equalities),
        inequalities=tuple(vec(r) for r in rows),
        objective=vec([0] * dim),
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

        # Fractional rows, and equalities that cut the cone down.
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
        with pytest.raises(InvariantViolation, match="not pointed"):
            cones._pointed_double_description([(1, 0), (2, 0)], 2)


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
            equalities=(vec([1, 1, 1]),),
            inequalities=(vec([1, 0, 0]), vec([0, 1, 0])),
            objective=vec([0, 0, 0]),
        )
        enum = extreme_rays(cone)
        for ray in enum.rays:
            assert satisfies(cone, ray)
