"""Rational polyhedral cones in H-representation and their extreme rays.

The enumerator is a double description pass in exact arithmetic. The cone
is first restricted to the equality subspace, then split off its lineality
space, and the pointed remainder is built one inequality at a time with
the combinatorial adjacency test. Rays come back as primitive integer
vectors in the original coordinates, sorted for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DimensionMismatch
from .linalg import (
    QMatrix,
    Vector,
    dot,
    invert,
    is_zero_vec,
    kernel,
    primitive,
    rref,
    vec,
)


@dataclass(frozen=True)
class ConeSpec:
    """A cone {a : eq(a) = 0, ineq(a) >= 0} with a linear objective."""

    ambient_dim: int
    equalities: tuple[Vector, ...]
    inequalities: tuple[Vector, ...]
    objective: Vector
    inequality_labels: tuple[str, ...] = ()

    def __post_init__(self):
        for f in list(self.equalities) + list(self.inequalities) + [self.objective]:
            if len(f) != self.ambient_dim:
                raise DimensionMismatch("functional of wrong length")
        if self.inequality_labels and len(self.inequality_labels) != len(
            self.inequalities
        ):
            raise DimensionMismatch("one label per inequality required")

    def label(self, k: int) -> str:
        if self.inequality_labels:
            return self.inequality_labels[k]
        return f"ineq_{k}"


@dataclass(frozen=True)
class RayEnumeration:
    """Extreme rays plus a basis of the lineality space, both primitive."""

    rays: tuple[tuple[int, ...], ...]
    lineality: tuple[tuple[int, ...], ...]


def _independent_row_subset(rows: Sequence[Vector], dim: int) -> list[int]:
    """Greedy choice of dim linearly independent rows (indices).

    The pivot columns of the transposed rows are exactly the rows that
    are independent of the rows before them.
    """
    _, pivots = rref(list(zip(*rows)))
    if len(pivots) < dim:
        raise AssertionError("rows do not span; cone is not pointed")
    return pivots[:dim]


def _solve_unit_columns(rows: Sequence[Vector], dim: int) -> list[Vector]:
    """Columns of the inverse of the square matrix formed by rows."""
    inv = invert(QMatrix.from_rows(rows))
    return [inv.column(j) for j in range(dim)]


def _pointed_double_description(
    rows: Sequence[Vector], dim: int
) -> list[tuple[int, ...]]:
    """Extreme rays of {y : rows . y >= 0}, assumed pointed and solid-dual.

    Classic incremental construction: seed with the simplicial cone of dim
    independent constraints, then cut with the remaining halfspaces, only
    combining adjacent rays. Adjacency uses the zero-set containment test,
    which is exact for pointed cones.
    """
    if dim == 0:
        return []
    seed = _independent_row_subset(rows, dim)
    seed_rows = [rows[i] for i in seed]
    rays = [primitive(c) for c in _solve_unit_columns(seed_rows, dim)]
    processed = list(seed)
    zero_sets = [
        frozenset(i for i in processed if dot(rows[i], r) == 0) for r in rays
    ]
    remaining = [i for i in range(len(rows)) if i not in set(seed)]
    for t in remaining:
        h = rows[t]
        values = [dot(h, r) for r in rays]
        keep_idx = [k for k, v in enumerate(values) if v >= 0]
        neg_idx = [k for k, v in enumerate(values) if v < 0]
        if not neg_idx:
            processed.append(t)
            zero_sets = [
                z | {t} if values[k] == 0 else z
                for k, z in enumerate(zero_sets)
            ]
            continue
        pos_idx = [k for k in keep_idx if values[k] > 0]
        new_rays: list[tuple[int, ...]] = [rays[k] for k in keep_idx]
        for p in pos_idx:
            for m in neg_idx:
                meet = zero_sets[p] & zero_sets[m]
                adjacent = not any(
                    k != p and k != m and meet <= zero_sets[k]
                    for k in range(len(rays))
                )
                if not adjacent:
                    continue
                combo = tuple(
                    values[p] * rm - values[m] * rp
                    for rp, rm in zip(rays[p], rays[m])
                )
                new_rays.append(primitive(combo))
        processed.append(t)
        dedup = sorted(set(new_rays))
        rays = dedup
        zero_sets = [
            frozenset(i for i in processed if dot(rows[i], r) == 0) for r in rays
        ]
    for r in rays:
        assert all(dot(row, r) >= 0 for row in rows)
    return sorted(set(rays))


def _lift(coeffs: Sequence[Fraction], basis: Sequence[Vector]) -> Vector:
    out = [Fraction(0)] * len(basis[0])
    for c, b in zip(coeffs, basis):
        for j, x in enumerate(b):
            out[j] += c * x
    return tuple(out)


def extreme_rays(cone: ConeSpec) -> RayEnumeration:
    """Enumerate the extreme rays and lineality of a ConeSpec."""
    n = cone.ambient_dim
    eq_basis = kernel(n, cone.equalities).basis
    if not eq_basis:
        return RayEnumeration(rays=(), lineality=())
    k = len(eq_basis)
    restricted = []
    for f in cone.inequalities:
        row = tuple(dot(f, b) for b in eq_basis)
        if not is_zero_vec(row):
            restricted.append(row)
    if not restricted:
        # No active inequalities: the whole equality subspace is lineality.
        return RayEnumeration(
            rays=(),
            lineality=tuple(primitive(b) for b in eq_basis),
        )
    lin = kernel(k, restricted)
    lineality_ambient = tuple(
        primitive(_lift(b, eq_basis)) for b in lin.basis
    )
    # Coordinates outside the lineality basis's pivots give a pointed
    # section of the cone; with no lineality that is every coordinate.
    _, pivots = rref(lin.basis)
    free_cols = [c for c in range(k) if c not in pivots]
    pointed_rows = [tuple(row[c] for c in free_cols) for row in restricted]
    pointed_rows = [r for r in pointed_rows if not is_zero_vec(r)]
    rays_z = _pointed_double_description(pointed_rows, len(free_cols))
    rays_ambient = []
    for rz in rays_z:
        y = [Fraction(0)] * k
        for value, c in zip(rz, free_cols):
            y[c] = Fraction(value)
        rays_ambient.append(primitive(_lift(y, eq_basis)))
    return RayEnumeration(
        rays=tuple(sorted(rays_ambient)),
        lineality=lineality_ambient,
    )


def satisfies(cone: ConeSpec, point: Sequence[Fraction]) -> bool:
    """Whether a point meets every equality and inequality of the cone."""
    p = vec(point)
    return all(dot(e, p) == 0 for e in cone.equalities) and all(
        dot(f, p) >= 0 for f in cone.inequalities
    )
