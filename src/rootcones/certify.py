"""Machine checks of the root-system inequality and its supporting facts.

The central claim: on the cone of dual-space points that vanish on I,
where the weighted dual weight of alpha dominates the others outside I
and is nonnegative, alpha itself dominates its weighted dual weight.
Two independent routes verify it: a constructive conic-combination
certificate assembled from the mixed-basis coefficient expansion, and an
extreme-ray oracle that evaluates the objective on every ray of the cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

from .cones import ConeSpec, extreme_rays
from .errors import (
    CertificateFailure,
    InvariantViolation,
    NotIrreducible,
    PreconditionViolated,
)
from .linalg import (
    QMatrix,
    Vector,
    block_coefficient_matrix,
    clear_denominators,
    dot,
    invert,
    is_positive_definite,
    solve,
    unit_vec,
)
from .roots import RootSystem, WeightTable, classify_irreducible, is_connected_subset


@dataclass(frozen=True)
class CoefficientExpansion:
    """alpha written over the mixed basis I + {dual weights outside I}."""

    alpha: int
    subset: tuple[int, ...]
    on_roots: tuple[tuple[int, Fraction], ...]
    on_weights: tuple[tuple[int, Fraction], ...]


def expand_coefficients(
    rs: RootSystem, wt: WeightTable, alpha: int, subset: Iterable[int]
) -> CoefficientExpansion:
    """Expand alpha over I and the dual weights outside I, exactly.

    Row alpha of the block re-basing formula, which depends on I and not
    on alpha, so one matrix per system and subset is memoised for every
    alpha. Each call cross-checks its row by an independent linear solve
    over `wt`'s dual weights, which is never memoised. The off-diagonal
    coefficients must come out non-positive; a violation would disprove
    the sign property this toolkit exists to check, so it stops the run.
    """
    rs.check_root(alpha)
    subset = rs.subset(subset)
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    m = len(subset)
    row = rs.cached(
        ("expansion", subset), lambda: _block_expansion(rs, subset, rest)
    ).row(alpha)
    on_roots = tuple((beta, row[k]) for k, beta in enumerate(subset))
    on_weights = tuple((gamma, row[m + k]) for k, gamma in enumerate(rest))
    # Independent route: solve for alpha over the explicit basis vectors.
    columns = [unit_vec(rs.rank, b) for b in subset] + [wt.dual[g] for g in rest]
    direct = solve(columns, unit_vec(rs.rank, alpha))
    if direct is None or list(direct) != list(row):
        raise InvariantViolation("block formula disagrees with the direct solve")
    for delta, coeff in on_roots + on_weights:
        if delta != alpha and coeff > 0:
            raise InvariantViolation(
                f"sign property fails at {rs.root_label(delta)}: {coeff}"
            )
    return CoefficientExpansion(
        alpha=alpha, subset=subset, on_roots=on_roots, on_weights=on_weights
    )


def _block_expansion(
    rs: RootSystem, subset: tuple[int, ...], rest: tuple[int, ...]
) -> QMatrix:
    """Every simple root over the mixed basis of I: row alpha is alpha's."""
    g = rs.gramm
    return block_coefficient_matrix(
        g.submatrix(range(rs.rank), subset + rest),
        g.submatrix(subset, subset),
        g.submatrix(subset, rest),
    )


def expansion_mass_identity(exp: CoefficientExpansion, wt: WeightTable) -> bool:
    """Whether the coefficient masses sum to one."""
    total = sum((coeff for _, coeff in exp.on_roots), Fraction(0))
    total += sum((coeff * wt.d[gamma] for gamma, coeff in exp.on_weights), Fraction(0))
    return total == 1


@dataclass(frozen=True)
class Certificate:
    """Outcome of one verification route.

    conic_combination: the objective equals the stated nonnegative
    combination of the cone's inequalities plus an arbitrary combination
    of its equalities. The ray-oracle route omits the multipliers and
    records the minimum objective over all extreme rays instead; its
    evidence is that enumeration, so such a certificate does not validate.
    violating_ray: a point of the cone with negative objective.
    """

    kind: str
    inequality_multipliers: tuple[Fraction, ...] | None = None
    equality_multipliers: tuple[Fraction, ...] | None = None
    ray: tuple[int, ...] | None = None
    objective_value: Fraction | None = None
    min_ray_objective: Fraction | None = None
    ray_count: int | None = None


def validate_certificate(cone: ConeSpec, cert: Certificate) -> bool:
    """Re-check a certificate against its cone, from scratch.

    Only what the certificate carries counts: a conic combination without
    multipliers cannot be re-checked, so it is rejected.
    """
    if cert.kind == "violating_ray":
        if cert.ray is None:
            return False
        ray = cert.ray
        tight = all(dot(e, ray) == 0 for e in cone.equalities)
        inside = all(dot(f, ray) >= 0 for f in cone.inequalities)
        value = dot(cone.objective, ray)
        return tight and inside and value < 0 and value == cert.objective_value
    if cert.kind != "conic_combination" or cert.inequality_multipliers is None:
        return False
    if len(cert.inequality_multipliers) != len(cone.inequalities):
        return False
    if any(m < 0 for m in cert.inequality_multipliers):
        return False
    eq_multipliers = cert.equality_multipliers or ()
    if len(eq_multipliers) != len(cone.equalities):
        return False
    # Re-expanded on integers: with the multipliers M / den and each
    # functional F_k / f_k, the combination is acc / (den * scale), where
    # scale is the lcm of the f_k and acc sums M_k * F_k * (scale / f_k).
    den, mults = clear_denominators((*cert.inequality_multipliers, *eq_multipliers))
    functionals = [
        clear_denominators(f) for f in (*cone.inequalities, *cone.equalities)
    ]
    scale = lcm(*(f for f, _ in functionals))
    acc = [0] * cone.ambient_dim
    for mult, (f, ints) in zip(mults, functionals):
        factor = mult * (scale // f)
        for j, x in enumerate(ints):
            acc[j] += factor * x
    obj_den, objective = clear_denominators(cone.objective)
    den *= scale
    return all(x * obj_den == y * den for x, y in zip(acc, objective))


def theorem_cone(
    rs: RootSystem,
    wt: WeightTable,
    alpha: int,
    subset: Iterable[int],
    drop: str | None = None,
) -> ConeSpec:
    """Hypothesis cone of the inequality for (alpha, I).

    Equalities pin the point to the common kernel of I; inequalities say
    the weighted dual weight of alpha dominates every one outside I and
    is nonnegative. `drop` removes constraints for control runs:
    "ordering-family", "positivity", or "ordering:<k>" with k 1-based.
    """
    rs.check_root(alpha)
    subset = rs.subset(subset)
    if alpha in subset:
        raise PreconditionViolated("alpha must lie outside I")
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    inequalities: list[Vector] = []
    labels: list[str] = []
    for gamma in rest:
        label = f"ordering:{gamma + 1}"
        if drop in ("ordering-family", label):
            continue
        inequalities.append(wt.differences[alpha][gamma])
        labels.append(label)
    if drop != "positivity":
        inequalities.append(wt.weighted[alpha])
        labels.append("positivity")
    return ConeSpec(
        ambient_dim=rs.rank,
        equalities=tuple(unit_vec(rs.rank, beta) for beta in subset),
        inequalities=tuple(inequalities),
        objective=wt.objectives[alpha],
        inequality_labels=tuple(labels),
    )


def verify_theorem61_constructive(
    rs: RootSystem,
    wt: WeightTable,
    alpha: int,
    subset: Iterable[int],
    cone: ConeSpec | None = None,
) -> Certificate:
    """Assemble and re-check the conic-combination certificate.

    The multipliers come from the coefficient expansion: the ordering
    functional against gamma gets -c_gamma d_gamma, the positivity
    functional gets the excess mass, and the equalities absorb the
    coefficients on I. Everything is re-expanded symbolically against
    `cone` before the certificate is returned. `cone` is the
    `theorem_cone` of (alpha, I), built here when not given.
    """
    subset = rs.subset(subset)
    if alpha in subset:
        raise PreconditionViolated("alpha must lie outside I")
    exp = expand_coefficients(rs, wt, alpha, subset)
    if cone is None:
        cone = theorem_cone(rs, wt, alpha, subset)
    weight_coeff = dict(exp.on_weights)
    mass = sum(
        (coeff * wt.d[gamma] for gamma, coeff in exp.on_weights), Fraction(0)
    )
    ineq_multipliers = []
    for label in cone.inequality_labels:
        if label == "positivity":
            ineq_multipliers.append(mass - 1)
        else:
            gamma = int(label.split(":")[1]) - 1
            if gamma == alpha:
                ineq_multipliers.append(Fraction(0))
            else:
                ineq_multipliers.append(-weight_coeff[gamma] * wt.d[gamma])
    eq_multipliers = tuple(coeff for _, coeff in exp.on_roots)
    if any(m < 0 for m in ineq_multipliers):
        raise CertificateFailure(
            f"negative multiplier for {rs.spec}, {rs.root_label(alpha)}, I={subset}"
        )
    cert = Certificate(
        kind="conic_combination",
        inequality_multipliers=tuple(ineq_multipliers),
        equality_multipliers=eq_multipliers,
    )
    if not validate_certificate(cone, cert):
        raise CertificateFailure(
            f"re-expansion mismatch for {rs.spec}, {rs.root_label(alpha)}, I={subset}"
        )
    return cert


def verify_theorem61_rays(cone: ConeSpec) -> Certificate:
    """Extreme-ray oracle: evaluate the objective on every ray.

    Nonnegativity on all extreme rays and vanishing on the lineality
    space is equivalent to nonnegativity on the cone, so a negative
    evaluation yields a concrete violating ray.
    """
    enum = extreme_rays(cone)
    # With the objective's denominators cleared once, each value is one
    # integer dot product over the common denominator.
    den, objective = clear_denominators(cone.objective)
    values = [Fraction(dot(objective, r), den) for r in enum.rays]
    for ray, value in zip(enum.rays, values):
        if value < 0:
            return Certificate(
                kind="violating_ray",
                ray=ray,
                objective_value=value,
                ray_count=len(enum.rays),
            )
    for line in enum.lineality:
        value = Fraction(dot(objective, line), den)
        if value != 0:
            ray = line if value < 0 else tuple(-x for x in line)
            return Certificate(
                kind="violating_ray",
                ray=ray,
                objective_value=value if value < 0 else -value,
                ray_count=len(enum.rays),
            )
    return Certificate(
        kind="conic_combination",
        min_ray_objective=min(values) if values else None,
        ray_count=len(enum.rays),
    )


def verify_lemma66(rs: RootSystem) -> bool:
    """Whether the inverse Gramm matrix has strictly positive entries."""
    if not rs.is_irreducible():
        raise NotIrreducible(f"{rs.spec} is reducible")
    return all(x > 0 for x in invert(rs.gramm).entries)


def connected_induced_subsets(rs: RootSystem):
    """All nonempty subsets of the simple roots with connected diagram."""
    n = rs.rank
    for mask in range(1, 2**n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if is_connected_subset(rs.cartan, subset):
            yield subset


def verify_lemma65(rs: RootSystem) -> bool:
    """Every connected induced subdiagram is again a catalogue diagram.

    For each connected subset the restricted Gramm matrix must be
    positive definite and must match a catalogue type up to reindexing
    and rescaling (checked on the Cartan matrix).
    """
    if not rs.is_irreducible():
        raise NotIrreducible(f"{rs.spec} is reducible")
    for subset in connected_induced_subsets(rs):
        sub = rs.gramm.submatrix(subset, subset)
        if not is_positive_definite(sub) or classify_irreducible(sub) is None:
            return False
    return True


def certificate_to_dict(cone: ConeSpec, cert: Certificate) -> dict:
    out: dict = {"kind": cert.kind}
    if cert.kind == "violating_ray":
        out["ray"] = list(cert.ray)
        out["objective_value"] = str(cert.objective_value)
    else:
        if cert.inequality_multipliers is not None:
            out["inequality_multipliers"] = {
                cone.label(k): str(m)
                for k, m in enumerate(cert.inequality_multipliers)
            }
            out["equality_multipliers"] = [
                str(m) for m in (cert.equality_multipliers or ())
            ]
        if cert.min_ray_objective is not None:
            out["min_ray_objective"] = str(cert.min_ray_objective)
    if cert.ray_count is not None:
        out["ray_count"] = cert.ray_count
    return out
