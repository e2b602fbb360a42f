"""Rational polyhedral cones in H-representation and their extreme rays.

The enumerator is a double description pass on integers. The cone is
first written in a primitive integer basis of its equality subspace (one
`kernel` elimination; without equalities the ambient coordinates are
kept, with no restriction or map back). One reduction of
(rows^T | Id) then both decides the lineality space and, for a pointed
cone, seeds the pass; a cone with lineality is projected onto a pointed
section and reduced once more. The pointed cone is built one inequality
at a time with the combinatorial adjacency test, each ray carrying the
set of constraints it is tight on (Fukuda and Prodon, "Double
description method revisited", 1996). Rays come back as primitive
integer vectors in the original coordinates, sorted for determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InvariantViolation
from .linalg import (
    Vector,
    dot,
    kernel,
    primitive,
    rref,
    unit_vec,
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


def _seed_reduction(
    rows: Sequence[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[int]]:
    """`rref` of (rows^T | Id), one row per coordinate, even with no rows."""
    return rref([(*(r[j] for r in rows), *unit_vec(dim, j)) for j in range(dim)])


def _pointed_double_description(
    rows: Sequence[tuple[int, ...]],
    dim: int,
    seed: tuple[list[tuple[int, ...]], list[int]] | None = None,
) -> list[tuple[int, ...]]:
    """Extreme rays of {y : rows . y >= 0} for integer rows of rank dim.

    Seed with the simplicial cone of the first dim independent rows, then
    cut with the remaining halfspaces, only combining adjacent rays. Each
    ray carries its zero set over the rows processed so far; adjacency is
    the zero-set containment test, which is exact for pointed cones.
    `seed` is the `_seed_reduction` of the rows when the caller has it.
    """
    m = len(rows)
    # Reducing (rows^T | Id) picks dim independent rows as the pivots and
    # leaves in each right half a column of the inverse of their block:
    # the seed ray tight on every seed row but its own.
    reduced, pivots = seed if seed is not None else _seed_reduction(rows, dim)
    if sum(s < m for s in pivots) < dim:
        raise InvariantViolation("the rows do not span; the cone is not pointed")
    seed_rows = frozenset(pivots)
    rays = [primitive(r[m:]) for r in reduced]
    zero_sets = [seed_rows - {s} for s in pivots]
    for t, row in enumerate(rows):
        if t in seed_rows:
            continue
        values = [dot(row, r) for r in rays]
        pos = [k for k, v in enumerate(values) if v > 0]
        neg = [k for k, v in enumerate(values) if v < 0]
        new_rays, new_zero_sets = [], []
        for p in pos:
            for q in neg:
                meet = zero_sets[p] & zero_sets[q]
                if any(
                    k != p and k != q and meet <= z for k, z in enumerate(zero_sets)
                ):
                    continue
                vp, vq = values[p], values[q]
                new_rays.append(
                    primitive([vp * b - vq * a for a, b in zip(rays[p], rays[q])])
                )
                new_zero_sets.append(meet | {t})
        keep = [k for k, v in enumerate(values) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        zero_sets = [
            zero_sets[k] | {t} if values[k] == 0 else zero_sets[k] for k in keep
        ] + new_zero_sets
    for r in rays:
        if any(dot(row, r) < 0 for row in rows):
            raise InvariantViolation(f"double description ray {r} leaves the cone")
    return rays


def extreme_rays(cone: ConeSpec) -> RayEnumeration:
    """Enumerate the extreme rays and lineality of a ConeSpec."""
    # A positive rescaling of a row leaves the cone unchanged, so every
    # nonzero equality and inequality is taken as its primitive integer
    # row; everything below then runs on ints. With equalities, the
    # coordinates are over the primitive integer basis of the equality
    # subspace that `kernel` gives; without, they are the ambient ones and
    # the primitive inequalities are the rows as they are.
    equalities = [primitive(e) for e in cone.equalities if any(e)]
    rows = [primitive(f) for f in cone.inequalities if any(f)]
    if equalities:
        basis = kernel(cone.ambient_dim, equalities).basis
        restricted = [tuple(dot(f, b) for b in basis) for f in rows]
        rows = [primitive(r) for r in restricted if any(r)]
        dim = len(basis)
    else:
        dim = cone.ambient_dim
    # In the seed reduction, the rows that pivot past the rows' columns
    # have a zero left half, and their right halves are the canonical
    # basis of the lineality space, the kernel of the rows (Zassenhaus, as
    # in `intersect`).
    seed = _seed_reduction(rows, dim)
    m = len(rows)
    lineality = [r[m:] for r, p in zip(*seed) if p >= m]
    if lineality:
        # Coordinates outside the lineality basis's pivots (the first
        # nonzero entry of each reduced echelon vector) give a pointed
        # section of the cone, enumerated from its own seed, whose rays
        # are put back with zeros at those pivots.
        pivots = {next(j for j, x in enumerate(v) if x != 0) for v in lineality}
        free = [j for j in range(dim) if j not in pivots]
        pointed = [tuple(r[j] for j in free) for r in rows]
        rays = []
        for y in _pointed_double_description(
            [r for r in pointed if any(r)], len(free)
        ):
            ray = [0] * dim
            for j, x in zip(free, y):
                ray[j] = x
            rays.append(tuple(ray))
    else:
        rays = _pointed_double_description(rows, dim, seed)
    # Without equalities the rays and the reduced lineality rows are
    # already primitive vectors in the ambient coordinates.
    if equalities:
        columns = list(zip(*basis))
        rays = [primitive([dot(y, c) for c in columns]) for y in rays]
        lineality = [primitive([dot(v, c) for c in columns]) for v in lineality]
    return RayEnumeration(rays=tuple(sorted(rays)), lineality=tuple(lineality))

