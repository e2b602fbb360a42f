"""Rational polyhedral cones in H-representation and their extreme rays.

The enumerator is a double description pass on integers, and every cone
takes the same path to it. An equality with one nonzero entry pins its
coordinate to 0; any other equality e becomes the two inequalities
e >= 0 and -e >= 0. Each row is sliced to the coordinates left and made
primitive once, and what is found there is scattered back by position.
One reduction of (rows^T | Id) then both decides the lineality space
and, for a pointed cone, seeds the pass; a cone with lineality is cut
down to a pointed section, the same slice without the lineality's pivot
coordinates, and reduced once more. The pointed cone is built one
inequality at a time with the combinatorial adjacency test, each ray
carrying the set of constraints it is tight on (Fukuda and Prodon,
"Double description method revisited", 1996). Rays come back as
primitive integer vectors in the original coordinates, sorted for
determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, InvariantViolation
from .linalg import Vector, dot, primitive, rref, unit_vec


@dataclass(frozen=True)
class ConeSpec:
    """A cone {a : eq(a) = 0, ineq(a) >= 0} with a linear objective.

    Every functional is its stored row over den, one shared positive
    integer, so integer rows can stand for rational functionals. Scaling
    every functional by 1 / den changes neither the cone nor any conic
    combination of them, so only the objective's values see den.
    """

    ambient_dim: int
    equalities: tuple[Vector, ...]
    inequalities: tuple[Vector, ...]
    objective: Vector
    inequality_labels: tuple[str, ...] = ()
    den: int = 1

    def __post_init__(self):
        if type(self.den) is not int or self.den <= 0:
            raise ValueError(
                f"cone denominator must be a positive int, not {self.den!r}"
            )
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
    seed: tuple[list[tuple[int, ...]], list[int]],
) -> list[tuple[int, ...]]:
    """Extreme rays of {y : rows . y >= 0} for integer rows of rank dim.

    Seed with the simplicial cone of the first dim independent rows, then
    cut with the remaining halfspaces, only combining adjacent rays. Each
    ray carries its zero set over the rows processed so far; adjacency is
    the zero-set containment test, which is exact for pointed cones.
    `seed` is the `_seed_reduction` of the rows.
    """
    m = len(rows)
    # Reducing (rows^T | Id) picks dim independent rows as the pivots and
    # leaves in each right half a column of the inverse of their block:
    # the seed ray tight on every seed row but its own.
    reduced, pivots = seed
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


def _on_coordinates(
    rows: Sequence[Vector], kept: Sequence[int], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Rays and lineality basis of {y : rows . y >= 0, y_j = 0 off kept}.

    Each row is sliced to the kept coordinates and each nonzero slice made
    primitive once, keeping the first of equal ones: a repeated row or a
    positive multiple of one cuts nothing new. The rays and lineality
    basis found there are scattered back to the dim coordinates by
    position, which keeps them primitive.
    """
    sliced = [[f[j] for j in kept] for f in rows]
    rays, lineality = _rays_and_lineality(
        list(dict.fromkeys(primitive(r) for r in sliced if any(r))), len(kept)
    )
    return (
        [_scatter(y, kept, dim) for y in rays],
        [_scatter(v, kept, dim) for v in lineality],
    )


def _scatter(v: Sequence[int], positions: Sequence[int], dim: int) -> tuple[int, ...]:
    """The length-dim vector with v's entries at positions and 0 elsewhere."""
    out = [0] * dim
    for j, x in zip(positions, v):
        out[j] = x
    return tuple(out)


def _rays_and_lineality(
    rows: Sequence[tuple[int, ...]], dim: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Rays and lineality basis of {y : rows . y >= 0}, rows primitive."""
    # In the seed reduction, the rows that pivot past the rows' columns
    # have a zero left half, and their right halves are the canonical
    # basis of the lineality space, the kernel of the rows (Zassenhaus, as
    # in `intersect`).
    seed = _seed_reduction(rows, dim)
    m = len(rows)
    lineality = [r[m:] for r, p in zip(*seed) if p >= m]
    if not lineality:
        return _pointed_double_description(rows, dim, seed), lineality
    # Setting the lineality basis's pivots (the first nonzero entry of each
    # reduced echelon vector) to 0 leaves a pointed section of the cone,
    # whose rays are those of the cone modulo its lineality.
    pivots = {next(j for j, x in enumerate(v) if x != 0) for v in lineality}
    rays, _ = _on_coordinates(rows, [j for j in range(dim) if j not in pivots], dim)
    return rays, lineality


def extreme_rays(cone: ConeSpec) -> RayEnumeration:
    """Enumerate the extreme rays and lineality of a ConeSpec.

    den scales every functional alike, so it plays no part here.
    """
    # An equality c e_j (c nonzero, of either sign, any number of times)
    # pins coordinate j to 0. Any other nonzero equality e is the pair
    # e >= 0, -e >= 0: once the pass has cut by e, no ray is negative on
    # it, so the cut by -e only drops the rays with e > 0, which leaves the
    # face e = 0. The pairs go first, so that the seed takes them in and
    # the pass runs on their face from the start.
    dim = cone.ambient_dim
    pinned, pairs = set(), []
    for e in cone.equalities:
        support = [j for j, x in enumerate(e) if x]
        if len(support) == 1:
            pinned.add(support[0])
        elif support:
            pairs += [e, tuple(-x for x in e)]
    kept = [j for j in range(dim) if j not in pinned]
    rays, lineality = _on_coordinates([*pairs, *cone.inequalities], kept, dim)
    return RayEnumeration(rays=tuple(sorted(rays)), lineality=tuple(lineality))
