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
from typing import Iterable

from .cones import ConeSpec, extreme_rays
from .errors import (
    CertificateFailure,
    InvariantViolation,
    NotIrreducible,
    PreconditionViolated,
)
from .linalg import IntVector, clear_denominators, dot, is_positive_definite
from .roots import (
    RootSystem,
    _weight_table,
    classify_irreducible,
    integer_gramm,
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

    Row alpha of the block re-basing formula, read from the memoised
    relative weight table of I. Each call checks that row
    (`_expansion_row`) and builds a Fraction only for each coefficient of
    the expansion it returns.
    """
    rs.check_root(alpha)
    subset = rs.subset(subset)
    den, ints = _expansion_row(rs, alpha, subset)
    return CoefficientExpansion(
        alpha=alpha,
        subset=subset,
        on_roots=tuple((beta, Fraction(ints[beta], den)) for beta in subset),
        on_weights=tuple(
            (gamma, Fraction(ints[gamma], den))
            for gamma in range(rs.rank)
            if gamma not in subset
        ),
    )


def _expansion_row(
    rs: RootSystem, alpha: int, subset: tuple[int, ...]
) -> tuple[int, IntVector]:
    """Row alpha of the block formula for I as (den, ints), checked.

    ints[j] / den, with den > 0, is alpha's coefficient on root j for j
    in I and on the dual weight w_j otherwise. The row must give back
    alpha over the dual weights of `weight_table(rs)`, read afresh, so a
    wrong table is caught even when the relative table of I is memoised;
    no other row does, as every Gramm block of a positive definite Gramm
    matrix is nonsingular. The off-diagonal coefficients must come out
    non-positive; a violation would disprove the sign property this
    toolkit exists to check, so it stops the run.
    """
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    den, ints = _block_row(rs, alpha, subset)
    # The residual against the table, sum c_b e_b + sum c_g w_g = e_alpha,
    # times den dden on integers: den c = ints, dden w_g = duals[g], zero c
    # skipped.
    dden, duals = weight_table(rs).integer_dual
    acc = [0] * rs.rank
    for beta in subset:
        acc[beta] = ints[beta] * dden
    for gamma in rest:
        if ints[gamma]:
            acc = [a + ints[gamma] * x for a, x in zip(acc, duals[gamma])]
    if acc != [den * dden * (j == alpha) for j in range(rs.rank)]:
        raise InvariantViolation("block formula disagrees with the weight table")
    for delta in subset + rest:
        if delta != alpha and ints[delta] > 0:
            raise InvariantViolation(
                f"sign property fails at {rs.root_label(delta)}: "
                f"{Fraction(ints[delta], den)}"
            )
    return den, ints


def _block_row(
    rs: RootSystem, alpha: int, subset: tuple[int, ...]
) -> tuple[int, IntVector]:
    """Row alpha of the block formula for I as (den, ints), unchecked.

    With (dI, rows) the relative table of I, rows[b] being dI times row
    b of G_II^-1 in ambient coordinates, and (g, G) the integer Gramm
    matrix g Gramm, N_b = rows[b] . G[alpha] is dI g c_b, where
    c_I = G_II^-1 G_{I,alpha}. Outside I, c_delta = G_{alpha,delta} -
    sum_b c_b G_{b,delta}. The row is over den = dI g^2.
    """
    d_i, rows = _weight_table(rs, subset).integer_dual
    g, gramm = integer_gramm(rs)
    on_i = [(beta, dot(rows[beta], gramm[alpha])) for beta in subset]
    # dI g G[alpha] - sum_b N_b G[b] is the row outside I and zero on I,
    # where g N_b is written instead.
    ints = [d_i * g * x for x in gramm[alpha]]
    for beta, n_beta in on_i:
        if n_beta:
            ints = [x - n_beta * y for x, y in zip(ints, gramm[beta])]
    for beta, n_beta in on_i:
        ints[beta] = g * n_beta
    return d_i * g * g, tuple(ints)


def expansion_mass_identity(rs: RootSystem, subset: tuple[int, ...], row) -> bool:
    """Whether the masses of an `_expansion_row` (den, ints) over I sum to one."""
    # sum c_b + sum c_g d_g = 1 with c_j = ints[j] / den, times den dd on
    # integers, where dd d_g = d_ints[g] is read from the system's table.
    den, ints = row
    dd, d_ints = weight_table(rs).integer_d
    return den * dd == sum(
        x * dd if j in subset else x * d_ints[j] for j, x in enumerate(ints)
    )


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
    multipliers cannot be re-checked, so it is rejected, and so is a ray
    or a list of multipliers of the wrong length. The cone's rows are ints,
    so only the multipliers' denominators are cleared, to (den, M), and a
    combination is checked as sum M_k F_k == den * objective on integers.
    """
    if cert.kind == "violating_ray":
        if (
            cert.ray is None
            or cert.objective_value is None
            or len(cert.ray) != cone.ambient_dim
        ):
            return False
        ray = cert.ray
        tight = all(dot(e, ray) == 0 for e in cone.equalities)
        inside = all(dot(f, ray) >= 0 for f in cone.inequalities)
        # The stored objective is den times the functional.
        value = dot(cone.objective, ray)
        return (
            tight and inside and value < 0
            and value == cert.objective_value * cone.den
        )
    if cert.kind != "conic_combination" or cert.inequality_multipliers is None:
        return False
    if len(cert.inequality_multipliers) != len(cone.inequalities):
        return False
    if any(m < 0 for m in cert.inequality_multipliers):
        return False
    eq_multipliers = cert.equality_multipliers or ()
    if len(eq_multipliers) != len(cone.equalities):
        return False
    # The cone's den scales every functional alike, so it cancels. A zero
    # multiplier adds only 0 * F_k, so its functional is skipped.
    den, mults = clear_denominators((*cert.inequality_multipliers, *eq_multipliers))
    acc = [0] * cone.ambient_dim
    for mult, f in zip(mults, (*cone.inequalities, *cone.equalities)):
        if mult:
            acc = [a + mult * x for a, x in zip(acc, f)]
    return acc == [den * x for x in cone.objective]


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

    Every functional is an integer row over the cone's den, that of the
    table's `integer_weighted`: den e_beta for beta in I, the table's
    `differences` and weighted row of alpha, and its `objectives` row.

    A cone that drops nothing is simplicial. With I pinned it lives on
    rest, the roots outside I. Its rows there are the zero row of
    ordering:alpha, weighted[alpha] - weighted[gamma] for the other gamma
    and weighted[alpha]; they span what the weighted rows of rest span,
    the rows of the principal block of G^-1 on rest over the masses. A
    principal block of a positive definite matrix is nonsingular, so the
    cone has exactly |rest| = n - |I| extreme rays and no lineality.
    `verify_theorem61_rays` checks this on every full cone.
    """
    wt = weight_table(rs)
    if alpha is wt:
        alpha, subset, drop = subset, drop, None
    rs.check_root(alpha)
    subset = rs.subset(subset)
    if alpha in subset:
        raise PreconditionViolated("alpha must lie outside I")
    den, weighted = wt.integer_weighted
    rest = tuple(i for i in range(rs.rank) if i not in subset)
    inequalities: list[IntVector] = []
    labels: list[str] = []
    for gamma in rest:
        label = f"ordering:{gamma + 1}"
        if drop in ("ordering-family", label):
            continue
        inequalities.append(wt.differences[alpha][gamma])
        labels.append(label)
    if drop != "positivity":
        inequalities.append(weighted[alpha])
        labels.append("positivity")
    return ConeSpec(
        ambient_dim=rs.rank,
        equalities=tuple(
            tuple(den * (j == beta) for j in range(rs.rank)) for beta in subset
        ),
        inequalities=tuple(inequalities),
        objective=wt.objectives[alpha],
        inequality_labels=tuple(labels),
        den=den,
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
    rs.check_root(alpha)
    den, ints = _expansion_row(rs, alpha, subset)
    if cone is None:
        cone = theorem_cone(rs, alpha, subset)
    # With c_g = ints[g] / den and d_g = d_ints[g] / dd, every inequality
    # multiplier is an integer over scale = den dd; the mass is sum c_g d_g.
    dd, d_ints = weight_table(rs).integer_d
    scale = den * dd
    numerators = []
    for label in cone.inequality_labels:
        if label == "positivity":
            mass = sum(
                ints[gamma] * d_ints[gamma]
                for gamma in range(rs.rank)
                if gamma not in subset
            )
            numerators.append(mass - scale)
        else:
            gamma = int(label.split(":")[1]) - 1
            numerators.append(0 if gamma == alpha else -ints[gamma] * d_ints[gamma])
    if any(x < 0 for x in numerators):
        raise CertificateFailure(
            f"negative multiplier for {rs.spec}, {rs.root_label(alpha)}, I={subset}"
        )
    cert = Certificate(
        kind="conic_combination",
        inequality_multipliers=tuple(Fraction(x, scale) for x in numerators),
        equality_multipliers=tuple(Fraction(ints[beta], den) for beta in subset),
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

    A `theorem_cone` that drops nothing must be simplicial: n - |I| rays
    and no lineality, or `InvariantViolation` is raised. A control cone,
    which has lineality by design, is not checked.
    """
    enum = extreme_rays(cone)
    # A theorem cone that drops nothing has one ordering row per
    # coordinate left free by its pins, and positivity.
    free = cone.ambient_dim - len(cone.equalities)
    labels = cone.inequality_labels
    if "positivity" in labels and len(labels) == free + 1:
        if len(enum.rays) != free or enum.lineality:
            raise InvariantViolation(
                "a full Theorem 6.1 cone is not simplicial: "
                f"ray count {len(enum.rays)} and lineality dimension "
                f"{len(enum.lineality)}, expected ray count {free} and "
                "lineality dimension 0"
            )
    values = [dot(cone.objective, r) for r in enum.rays]
    for ray, value in zip(enum.rays, values):
        if value < 0:
            return Certificate(
                kind="violating_ray",
                ray=ray,
                objective_value=Fraction(value, cone.den),
                ray_count=len(enum.rays),
            )
    for line in enum.lineality:
        value = dot(cone.objective, line)
        if value != 0:
            ray = line if value < 0 else tuple(-x for x in line)
            return Certificate(
                kind="violating_ray",
                ray=ray,
                objective_value=Fraction(-abs(value), cone.den),
                ray_count=len(enum.rays),
            )
    return Certificate(
        kind="conic_combination",
        min_ray_objective=Fraction(min(values), cone.den) if values else None,
        ray_count=len(enum.rays),
    )


def verify_lemma66(rs: RootSystem) -> bool:
    """Whether G W = I and every entry of W is positive, W the dual weights."""
    if not rs.is_irreducible():
        raise NotIrreducible(f"{rs.spec} is reducible")
    return all(roundtrip_simple_root(rs, a) for a in range(rs.rank)) and all(
        x > 0 for row in weight_table(rs).integer_dual[1].values() for x in row
    )


def connected_induced_subsets(rs: RootSystem):
    """All nonempty subsets of the simple roots with connected diagram.

    Each is grown once from its least vertex v: a grown subset branches on
    its last unexplored neighbour above v, which it either takes (and
    then its new neighbours too) or bans for the rest of the branch. The
    adjacency is read from the Cartan matrix; subsets come out sorted.
    """
    n = rs.rank
    adjacent = [[j for j in range(n) if j != i and rs.cartan[i][j]] for i in range(n)]

    def grow(subset, frontier, banned):
        yield tuple(sorted(subset))
        banned = set(banned)
        while frontier:
            u = frontier.pop()
            taken = subset | {u}
            fresh = [
                w for w in adjacent[u]
                if w not in taken and w not in banned and w not in frontier
            ]
            yield from grow(taken, frontier + fresh, banned)
            banned.add(u)

    for v in range(n):
        yield from grow({v}, [w for w in adjacent[v] if w > v], range(v))


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
