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
    is_positive_definite,
    unit_vec,
)
from .roots import (
    RootSystem,
    classify_irreducible,
    is_connected_subset,
    per_system,
    roundtrip_simple_root,
    weight_table,
)


@dataclass(frozen=True)
class CoefficientExpansion:
    """alpha written over the mixed basis I + {dual weights outside I}."""

    alpha: int
    subset: tuple[int, ...]
    on_roots: tuple[tuple[int, Fraction], ...]
    on_weights: tuple[tuple[int, Fraction], ...]


def expand_coefficients(
    rs: RootSystem, alpha: int, subset: Iterable[int]
) -> CoefficientExpansion:
    """Expand alpha over I and the dual weights outside I, exactly.

    Row alpha of the block re-basing formula, which depends on I and not
    on alpha, so one matrix per system and subset is memoised for every
    alpha. Each call checks that its row gives back alpha over the dual
    weights of `weight_table(rs)`, read afresh, so a wrong table is caught
    even when the block is memoised; no other row does, as every Gramm
    block of a positive definite Gramm matrix is nonsingular. The
    off-diagonal coefficients must come out non-positive; a violation
    would disprove the sign property this toolkit exists to check, so it
    stops the run.
    """
    rs.check_root(alpha)
    subset = rs.subset(subset)
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    m = len(subset)
    row = _block_expansion(rs, subset).row(alpha)
    on_roots = tuple((beta, row[k]) for k, beta in enumerate(subset))
    on_weights = tuple((gamma, row[m + k]) for k, gamma in enumerate(rest))
    # The residual against the table: sum c_b e_b + sum c_g w_g = e_alpha.
    dual = weight_table(rs).dual
    acc = [Fraction(0)] * rs.rank
    for beta, coeff in on_roots:
        acc[beta] += coeff
    for gamma, coeff in on_weights:
        for j, x in enumerate(dual[gamma]):
            acc[j] += coeff * x
    if tuple(acc) != unit_vec(rs.rank, alpha):
        raise InvariantViolation("block formula disagrees with the weight table")
    for delta, coeff in on_roots + on_weights:
        if delta != alpha and coeff > 0:
            raise InvariantViolation(
                f"sign property fails at {rs.root_label(delta)}: {coeff}"
            )
    return CoefficientExpansion(
        alpha=alpha, subset=subset, on_roots=on_roots, on_weights=on_weights
    )


@per_system("expansion")
def _block_expansion(rs: RootSystem, subset: tuple[int, ...]) -> QMatrix:
    """Every simple root over the mixed basis of I: row alpha is alpha's."""
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    g = rs.gramm
    return block_coefficient_matrix(
        g.submatrix(range(rs.rank), subset + rest),
        g.submatrix(subset, subset),
        g.submatrix(subset, rest),
    )


def expansion_mass_identity(rs: RootSystem, exp: CoefficientExpansion) -> bool:
    """Whether the coefficient masses of an expansion in rs sum to one."""
    d = weight_table(rs).d
    total = sum((coeff for _, coeff in exp.on_roots), Fraction(0))
    total += sum((coeff * d[gamma] for gamma, coeff in exp.on_weights), Fraction(0))
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
    rs: RootSystem, alpha: int, subset: Iterable[int], drop: str | None = None
) -> ConeSpec:
    """Hypothesis cone of the inequality for (alpha, I).

    Equalities pin the point to the common kernel of I; inequalities say
    the weighted dual weight of alpha dominates every one outside I and
    is nonnegative. `drop` removes constraints for control runs:
    "ordering-family", "positivity", or "ordering:<k>" with k 1-based.
    The older call (rs, weight_table(rs), alpha, subset), which perfbench's
    tracer test makes, is read too, with no table but the system's own.
    """
    wt = weight_table(rs)
    if alpha is wt:
        alpha, subset, drop = subset, drop, None
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
    rs: RootSystem, alpha: int, subset: Iterable[int], cone: ConeSpec | None = None
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
    exp = expand_coefficients(rs, alpha, subset)
    if cone is None:
        cone = theorem_cone(rs, alpha, subset)
    d = weight_table(rs).d
    weight_coeff = dict(exp.on_weights)
    mass = sum((coeff * d[gamma] for gamma, coeff in exp.on_weights), Fraction(0))
    ineq_multipliers = []
    for label in cone.inequality_labels:
        if label == "positivity":
            ineq_multipliers.append(mass - 1)
        else:
            gamma = int(label.split(":")[1]) - 1
            if gamma == alpha:
                ineq_multipliers.append(Fraction(0))
            else:
                ineq_multipliers.append(-weight_coeff[gamma] * d[gamma])
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
    """Whether G W = I and every entry of W is positive, W the dual weights."""
    if not rs.is_irreducible():
        raise NotIrreducible(f"{rs.spec} is reducible")
    return all(roundtrip_simple_root(rs, a) for a in range(rs.rank)) and all(
        x > 0 for row in weight_table(rs).dual.values() for x in row
    )


def connected_induced_subsets(rs: RootSystem):
    """All nonempty subsets of the simple roots with connected diagram."""
    n = rs.rank
    for mask in range(1, 2**n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if is_connected_subset(rs.cartan, subset):
            yield subset


def verify_lemma65(rs: RootSystem) -> int | bool:
    """Every connected induced subdiagram is again a catalogue diagram.

    For each connected subset the restricted Gramm matrix must be
    positive definite and must match a catalogue type up to reindexing
    and rescaling (checked on the Cartan matrix). Returns how many
    subdiagrams were classified, at least one, or False at the first
    that is not.
    """
    if not rs.is_irreducible():
        raise NotIrreducible(f"{rs.spec} is reducible")
    count = 0
    for subset in connected_induced_subsets(rs):
        sub = rs.gramm.submatrix(subset, subset)
        if not is_positive_definite(sub) or classify_irreducible(sub) is None:
            return False
        count += 1
    return count


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
