"""Torus-level combinatorics of standard parabolic subsets.

For a subset I of the simple roots, the dual space splits into the
common kernel of I and the span of I's coroot images. All objects are
exact subspaces of the dual space in evaluation coordinates, so the
inclusion and decomposition statements below are decidable equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvariantViolation, PreconditionViolated, SubsetViolation
from .linalg import (
    IntVector,
    Subspace,
    contains,
    dot,
    kernel,
    rref,
    span,
    unit_vec,
)
from .roots import (
    RootSystem,
    WeightTable,
    _weight_table,
    connected_to,
    per_system,
    weight_table,
    weight_table_to_dict,
)


def coroot_vector(rs: RootSystem, alpha: int) -> IntVector:
    """Image of the coroot of alpha in evaluation coordinates.

    Coordinate j is the Cartan pairing of alpha_j against alpha's coroot,
    so the vector is column alpha of `rs.cartan`.
    """
    rs.check_root(alpha)
    return tuple(row[alpha] for row in rs.cartan)


def kernel_subspace(rs: RootSystem, subset: Iterable[int]) -> Subspace:
    """Common kernel of the simple roots in subset (the space a_I)."""
    return _kernel_subspace(rs, rs.subset(subset))


@per_system("kernel_subspace")
def _kernel_subspace(rs: RootSystem, subset: tuple[int, ...]) -> Subspace:
    return kernel(rs.rank, [unit_vec(rs.rank, i) for i in subset])


def coroot_span(rs: RootSystem, subset: Iterable[int]) -> Subspace:
    """Span of the coroot images of subset (the space a^I)."""
    return _coroot_span(rs, rs.subset(subset))


@per_system("coroot_span")
def _coroot_span(rs: RootSystem, subset: tuple[int, ...]) -> Subspace:
    return span(rs.rank, [coroot_vector(rs, i) for i in subset])


def _orthogonal_complement(rs: RootSystem, s: Subspace) -> Subspace:
    # The inner product transported to evaluation coordinates is the
    # inverse Gramm matrix, whose rows are the dual weights, so
    # orthogonality is a kernel computation; the table's integer rows, a
    # positive multiple of the dual weights, give the same kernel.
    _, dual = weight_table(rs).integer_dual
    return kernel(
        rs.rank, [tuple(dot(dual[i], b) for i in range(rs.rank)) for b in s.basis]
    )


def relative_weight_table(rs: RootSystem, subset: Iterable[int]) -> WeightTable:
    """The dual-weight table of the subsystem on a subset, in ambient rows."""
    return _weight_table(rs, rs.subset(subset))


@dataclass(frozen=True)
class ParabolicDatum:
    """Exact bases attached to one standard parabolic subset."""

    subset: tuple[int, ...]
    a_I: Subspace
    a_upper: Subspace
    relative: WeightTable


def make_datum(rs: RootSystem, subset: Iterable[int]) -> ParabolicDatum:
    """Kernel and coroot-span subspaces of a subset, with relative weights.

    The coroot span is cross-checked against the orthogonal complement of
    the kernel; the two constructions must agree exactly.
    """
    subset = rs.subset(subset)
    a_i = kernel_subspace(rs, subset)
    upper = coroot_span(rs, subset)
    complement = _orthogonal_complement(rs, a_i)
    if upper != complement:
        raise InvariantViolation(
            "coroot span disagrees with the orthogonal complement; "
            "construction bug"
        )
    if a_i.dim != rs.rank - len(subset):
        raise InvariantViolation(f"kernel of {subset} has dimension {a_i.dim}")
    if upper.dim != len(subset):
        raise InvariantViolation(f"coroot span of {subset} has dimension {upper.dim}")
    if span(rs.rank, a_i.basis + upper.basis).dim != rs.rank:
        raise InvariantViolation(
            f"kernel and coroot span of {subset} do not split the dual space"
        )
    return ParabolicDatum(
        subset=subset,
        a_I=a_i,
        a_upper=upper,
        relative=relative_weight_table(rs, subset),
    )


def parabolic_datum_to_dict(datum: ParabolicDatum) -> dict:
    """JSON form of a datum: subset, bases, dimensions, relative weights."""
    def basis_rows(s: Subspace) -> list[list[str]]:
        # Each row is printed as its reduced-echelon row, pivot entry 1.
        rows = []
        for b in s.basis:
            pivot = next(x for x in b if x != 0)
            rows.append([str(Fraction(x, pivot)) for x in b])
        return rows

    return {
        "subset": [i + 1 for i in datum.subset],
        "kernel_basis": basis_rows(datum.a_I),
        "kernel_dim": datum.a_I.dim,
        "coroot_span_basis": basis_rows(datum.a_upper),
        "coroot_span_dim": datum.a_upper.dim,
        "relative_weights": weight_table_to_dict(datum.relative),
    }


def relative_torus(rs: RootSystem, upper: Iterable[int], lower: Iterable[int]) -> Subspace:
    """The space a^I_J = a^I intersect a_J for J inside I."""
    upper = rs.subset(upper)
    lower = rs.subset(lower)
    if not set(lower) <= set(upper):
        raise SubsetViolation(f"{lower} is not a subset of {upper}")
    return _relative_torus(rs, upper, lower)


@per_system("relative_torus")
def _relative_torus(
    rs: RootSystem, upper: tuple[int, ...], lower: tuple[int, ...]
) -> Subspace:
    """`relative_torus` of sorted, checked subsets with J inside I.

    With j the largest index of J and J' = J - {j}, a^I_J is a^I_{J'}
    intersect ker alpha_j, so the memoised parent basis is cut by one
    coordinate hyperplane: the first vector with a nonzero j entry clears
    that entry from the others by integer cross-multiplication, and one
    `span` makes the survivors canonical. The recursion memoises the
    prefix pairs (I, J[:k]) and bottoms out at a^I_() = `coroot_span`(I).
    A true torus has dimension |I| - |J|; anything else raises.
    """
    if not lower:
        result = coroot_span(rs, upper)
    else:
        j = lower[-1]
        parent = _relative_torus(rs, upper, lower[:-1]).basis
        k = next((i for i, b in enumerate(parent) if b[j]), None)
        if k is None:
            cut = parent  # already inside ker alpha_j: the check below fails
        else:
            p = parent[k]
            cut = [
                tuple(p[j] * x - b[j] * y for x, y in zip(b, p))
                for b in parent[:k] + parent[k + 1 :]
            ]
        result = span(rs.rank, cut)
    if result.dim != len(upper) - len(lower):
        raise InvariantViolation(
            f"relative torus of {lower} in {upper} has dimension {result.dim}"
        )
    return result


def verify_inc(rs: RootSystem, lower: Iterable[int], upper: Iterable[int]) -> bool:
    """Whether a_I sits inside a_J for J inside I."""
    lower = rs.subset(lower)
    upper = rs.subset(upper)
    if not set(lower) <= set(upper):
        raise SubsetViolation(f"{lower} is not a subset of {upper}")
    outer = kernel_subspace(rs, lower)
    return all(contains(outer, b) for b in kernel_subspace(rs, upper).basis)


def verify_tori(
    rs: RootSystem,
    i3: Iterable[int],
    i2: Iterable[int],
    i1: Iterable[int],
) -> bool:
    """Whether a^{I1}_{I3} splits as a^{I2}_{I3} plus a^{I1}_{I2}.

    Decided from three memoised bits, one per torus pair of the chain:
    the basis of a^I_J, read on the coordinates of I - J, is a nonsingular
    square block. Square means dim a^I_J = |I - J|, so the (I1, I3) bit is
    the dimension check of a^{I1}_{I3}. Both smaller tori lie in
    a^{I1}_{I3}; with square blocks their dimensions add up to its own. On
    the coordinates I1 - I3, ordered I2 - I3 then I1 - I2, their joint
    basis is block triangular, since a^{I1}_{I2} vanishes on I2, with the
    (I2, I3) and (I1, I2) blocks on the diagonal. So true bits make the
    joint basis independent and the sum direct, and a false bit can only
    turn a pass into a failed `tori` row. For true tori every bit holds: a
    vector of a^I_J that vanishes on I - J vanishes on I, and a^I meets
    a_I only in zero. Since every pair (I, J) is the (I1, I3) pair of the
    chain (J, J, I), every chain passes exactly when every pair bit holds;
    `suites.run_parabolic` therefore sweeps the 3^n pairs, not the 4^n
    chains.
    """
    i3 = rs.subset(i3)
    i2 = rs.subset(i2)
    i1 = rs.subset(i1)
    if not (set(i3) <= set(i2) <= set(i1)):
        raise SubsetViolation("need I3 inside I2 inside I1")
    return (
        _block_is_nonsingular(rs, i1, i3)
        and _block_is_nonsingular(rs, i2, i3)
        and _block_is_nonsingular(rs, i1, i2)
    )


@per_system("torus_block")
def _block_is_nonsingular(
    rs: RootSystem, upper: tuple[int, ...], lower: tuple[int, ...]
) -> bool:
    """Whether a^I_J's basis on the coordinates of I minus J is nonsingular."""
    outside = [i for i in upper if i not in lower]
    basis = relative_torus(rs, upper, lower).basis
    block = [tuple(b[i] for i in outside) for b in basis]
    return len(block) == len(outside) and len(rref(block)[0]) == len(block)


def verify_trivial(rs: RootSystem, alpha: int) -> bool:
    """Whether the dual weight of alpha vanishes on the complementary span."""
    rs.check_root(alpha)
    others = [i for i in range(rs.rank) if i != alpha]
    upper = coroot_span(rs, others)
    w = weight_table(rs).integer_dual[1][alpha]
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
    subset_i = rs.subset(subset_i)
    subset_j = rs.subset(subset_j)
    if alpha in subset_i:
        raise PreconditionViolated("alpha must lie outside I")
    remainder = [t for t in range(rs.rank) if t != alpha and t not in subset_i]
    if connected_to(rs, alpha, remainder):
        raise PreconditionViolated(
            f"{rs.root_label(alpha)} is connected to the complement of I"
        )
    meet = tuple(sorted((set(subset_i) | {alpha}) & set(subset_j)))
    return all(b[alpha] == 0 for b in relative_torus(rs, subset_j, meet).basis)
