"""Torus-level combinatorics of standard parabolic subsets.

For a subset I of the simple roots, the dual space splits into the
common kernel of I and the span of I's coroot images. All objects are
exact subspaces of the dual space in evaluation coordinates, so the
inclusion and decomposition statements below are decidable equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import PreconditionViolated, SubsetViolation
from .linalg import (
    Subspace,
    Vector,
    dot,
    full_space,
    intersect,
    is_direct_sum,
    is_subspace,
    kernel,
    span,
    unit_vec,
    vec_scale,
)
from .roots import (
    RootSystem,
    WeightTable,
    connected_to,
    gramm_inverse,
    subsystem,
    weight_table,
)


def _as_subset(rs: RootSystem, subset: Iterable[int]) -> tuple[int, ...]:
    out = tuple(sorted(set(subset)))
    for i in out:
        rs.check_root(i)
    return out


def coroot_vector(rs: RootSystem, alpha: int) -> Vector:
    """Image of the coroot of alpha in evaluation coordinates.

    Coordinate j is the Cartan pairing of alpha_j against alpha's coroot.
    """
    rs.check_root(alpha)
    g = rs.gramm
    return tuple(2 * g.at(j, alpha) / g.at(alpha, alpha) for j in range(rs.rank))


def kernel_subspace(rs: RootSystem, subset: Iterable[int]) -> Subspace:
    """Common kernel of the simple roots in subset (the space a_I)."""
    subset = _as_subset(rs, subset)
    return rs.cached(
        ("kernel_subspace", subset),
        lambda: kernel(rs.rank, [unit_vec(rs.rank, i) for i in subset]),
    )


def coroot_span(rs: RootSystem, subset: Iterable[int]) -> Subspace:
    """Span of the coroot images of subset (the space a^I)."""
    subset = _as_subset(rs, subset)
    return rs.cached(
        ("coroot_span", subset),
        lambda: span(rs.rank, [coroot_vector(rs, i) for i in subset]),
    )


def _orthogonal_complement(rs: RootSystem, s: Subspace) -> Subspace:
    # The inner product transported to evaluation coordinates is the
    # inverse Gramm matrix, so orthogonality is a kernel computation.
    ginv = gramm_inverse(rs)
    return kernel(rs.rank, [ginv.mul_vec(b) for b in s.basis])


@dataclass(frozen=True)
class RelativeWeightTable:
    """Dual-weight data of the subsystem on I, in ambient coordinates.

    Vectors are full-length rows supported on I; they agree with the
    subsystem's own table under the index map, so they depend only on I.
    The maps are read-only, since tables are shared through the memo.
    """

    subset: tuple[int, ...]
    dual: Mapping[int, Vector]
    d: Mapping[int, Fraction]
    weighted: Mapping[int, Vector]


def relative_weight_table(rs: RootSystem, subset: Iterable[int]) -> RelativeWeightTable:
    subset = _as_subset(rs, subset)
    return rs.cached(
        ("relative_weight_table", subset),
        lambda: _relative_weight_table(rs, subset),
    )


def _relative_weight_table(
    rs: RootSystem, subset: tuple[int, ...]
) -> RelativeWeightTable:
    sub_rs, mapping = subsystem(rs, subset)
    table = weight_table(sub_rs) if subset else None
    dual, d, weighted = {}, {}, {}
    for local, amb in enumerate(mapping):
        row = [Fraction(0)] * rs.rank
        for local_j, amb_j in enumerate(mapping):
            row[amb_j] = table.dual[local][local_j]
        dual[amb] = tuple(row)
        d[amb] = table.d[local]
        weighted[amb] = vec_scale(Fraction(1) / table.d[local], tuple(row))
    return RelativeWeightTable(
        subset=subset,
        dual=MappingProxyType(dual),
        d=MappingProxyType(d),
        weighted=MappingProxyType(weighted),
    )


@dataclass(frozen=True)
class ParabolicDatum:
    """Exact bases attached to one standard parabolic subset."""

    subset: tuple[int, ...]
    a_I: Subspace
    a_upper: Subspace
    relative: RelativeWeightTable


def make_datum(rs: RootSystem, subset: Iterable[int]) -> ParabolicDatum:
    """Kernel and coroot-span subspaces of a subset, with relative weights.

    The coroot span is cross-checked against the orthogonal complement of
    the kernel; the two constructions must agree exactly.
    """
    subset = _as_subset(rs, subset)
    a_i = kernel_subspace(rs, subset)
    upper = coroot_span(rs, subset)
    complement = _orthogonal_complement(rs, a_i)
    if upper != complement:
        raise AssertionError(
            "coroot span disagrees with the orthogonal complement; "
            "construction bug"
        )
    assert a_i.dim == rs.rank - len(subset)
    assert upper.dim == len(subset)
    assert is_direct_sum(a_i, upper, full_space(rs.rank))
    return ParabolicDatum(
        subset=subset,
        a_I=a_i,
        a_upper=upper,
        relative=relative_weight_table(rs, subset),
    )


def parabolic_datum_to_dict(datum: ParabolicDatum) -> dict:
    """JSON form of a datum: subset, bases, dimensions, relative weights."""
    def basis_rows(s: Subspace) -> list[list[str]]:
        return [[str(x) for x in b] for b in s.basis]

    return {
        "subset": [i + 1 for i in datum.subset],
        "kernel_basis": basis_rows(datum.a_I),
        "kernel_dim": datum.a_I.dim,
        "coroot_span_basis": basis_rows(datum.a_upper),
        "coroot_span_dim": datum.a_upper.dim,
        "relative_weights": {
            f"alpha_{i + 1}": {
                "dual_weight": [str(x) for x in datum.relative.dual[i]],
                "d": str(datum.relative.d[i]),
                "weighted_dual_weight": [
                    str(x) for x in datum.relative.weighted[i]
                ],
            }
            for i in datum.relative.subset
        },
    }


def relative_torus(rs: RootSystem, upper: Iterable[int], lower: Iterable[int]) -> Subspace:
    """The space a^I_J = a^I intersect a_J for J inside I."""
    upper = _as_subset(rs, upper)
    lower = _as_subset(rs, lower)
    if not set(lower) <= set(upper):
        raise SubsetViolation(f"{lower} is not a subset of {upper}")
    return rs.cached(
        ("relative_torus", upper, lower), lambda: _relative_torus(rs, upper, lower)
    )


def _relative_torus(
    rs: RootSystem, upper: tuple[int, ...], lower: tuple[int, ...]
) -> Subspace:
    result = intersect(coroot_span(rs, upper), kernel_subspace(rs, lower))
    assert result.dim == len(upper) - len(lower)
    return result


def verify_inc(rs: RootSystem, lower: Iterable[int], upper: Iterable[int]) -> bool:
    """Whether a_I sits inside a_J for J inside I."""
    lower = _as_subset(rs, lower)
    upper = _as_subset(rs, upper)
    if not set(lower) <= set(upper):
        raise SubsetViolation(f"{lower} is not a subset of {upper}")
    return is_subspace(kernel_subspace(rs, upper), kernel_subspace(rs, lower))


def verify_tori(
    rs: RootSystem,
    i3: Iterable[int],
    i2: Iterable[int],
    i1: Iterable[int],
) -> bool:
    """Whether a^{I1}_{I3} splits as a^{I2}_{I3} plus a^{I1}_{I2}."""
    i3 = _as_subset(rs, i3)
    i2 = _as_subset(rs, i2)
    i1 = _as_subset(rs, i1)
    if not (set(i3) <= set(i2) <= set(i1)):
        raise SubsetViolation("need I3 inside I2 inside I1")
    return is_direct_sum(
        relative_torus(rs, i2, i3),
        relative_torus(rs, i1, i2),
        relative_torus(rs, i1, i3),
    )


def verify_trivial(rs: RootSystem, alpha: int, wt: WeightTable | None = None) -> bool:
    """Whether the dual weight of alpha vanishes on the complementary span."""
    rs.check_root(alpha)
    if wt is None:
        wt = weight_table(rs)
    others = [i for i in range(rs.rank) if i != alpha]
    upper = coroot_span(rs, others)
    w = wt.dual[alpha]
    return all(dot(w, b) == 0 for b in upper.basis)


def verify_discon(
    rs: RootSystem,
    alpha: int,
    subset_i: Iterable[int],
    subset_j: Iterable[int],
) -> bool:
    """Whether a^J_{(I + alpha) meet J} lies in the kernel of alpha.

    Requires alpha to be disconnected from the rest outside I, in the
    component sense; otherwise the hypothesis fails and the call raises.
    """
    rs.check_root(alpha)
    subset_i = _as_subset(rs, subset_i)
    subset_j = _as_subset(rs, subset_j)
    if alpha in subset_i:
        raise PreconditionViolated("alpha must lie outside I")
    remainder = [t for t in range(rs.rank) if t != alpha and t not in subset_i]
    if connected_to(rs, alpha, remainder):
        raise PreconditionViolated(
            f"{rs.root_label(alpha)} is connected to the complement of I"
        )
    meet = tuple(sorted((set(subset_i) | {alpha}) & set(subset_j)))
    torus = relative_torus(rs, subset_j, meet)
    alpha_functional = unit_vec(rs.rank, alpha)
    return all(dot(alpha_functional, b) == 0 for b in torus.basis)
