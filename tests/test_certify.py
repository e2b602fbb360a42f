"""Coefficient expansions, both certificate routes, and the matrix facts."""

import dataclasses
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import gauss_jordan_inverse, vec

from rootcones import certify, linalg, suites
from rootcones.certify import (
    connected_induced_subsets,
    expand_coefficients,
    expansion_mass_identity,
    theorem_cone,
    validate_certificate,
    verify_lemma65,
    verify_lemma66,
    verify_theorem61_constructive,
    verify_theorem61_rays,
)
from rootcones.cones import ConeSpec, extreme_rays
from rootcones.errors import (
    InvariantViolation,
    NotIrreducible,
    PreconditionViolated,
    UnknownRoot,
)
from rootcones.linalg import QMatrix, dot, invert
from rootcones.roots import build, connected_to, from_gramm, weight_table


def mask_scan(cartan):
    """Oracle: every nonempty mask, kept when a walk along the nonzero
    off-diagonal Cartan entries inside it reaches all of it; sorted."""
    n = len(cartan)
    found = []
    for mask in range(1, 2**n):
        nodes = [i for i in range(n) if mask >> i & 1]
        seen, stack = {nodes[0]}, [nodes[0]]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in seen and cartan[i][j]:
                    seen.add(j)
                    stack.append(j)
        if len(seen) == len(nodes):
            found.append(tuple(nodes))
    return sorted(found)


def subsets_of(universe):
    universe = list(universe)
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def entry_moved(wt, alpha, k, delta):
    """wt with dual-weight entry (alpha, k) moved by delta, forged in its
    stored form: integer_dual over den times delta's denominator."""
    den, rows = wt.integer_dual
    scale = Q(delta).denominator
    moved = {a: tuple(scale * x for x in row) for a, row in rows.items()}
    bump = int(delta * scale * den)
    moved[alpha] = tuple(x + bump * (j == k) for j, x in enumerate(moved[alpha]))
    return dataclasses.replace(wt, integer_dual=(scale * den, moved))


def gauss_jordan_solve(columns, target):
    """Independent oracle: the unique x with sum x_j columns[j] = target.

    Plain rational Gauss-Jordan on the augmented matrix; the columns must
    be independent and span the target's space.
    """
    n = len(target)
    a = [[Q(c[i]) for c in columns] + [Q(target[i])] for i in range(n)]
    for col in range(n):
        p = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[p] = a[p], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n] for row in a]


ORACLE_SYSTEMS = [
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4",
    "C5", "D3", "D4", "D5", "F4", "G2", "E6",
]


class TestExpandCoefficients:
    def test_alpha_inside_subset_is_delta(self):
        rs = build("A3")
        exp = expand_coefficients(rs, 1, [0, 1])
        assert dict(exp.on_roots) == {0: 0, 1: 1}
        assert dict(exp.on_weights) == {2: 0}

    def test_empty_subset_gives_gramm_row(self):
        rs = build("A2")
        exp = expand_coefficients(rs, 0, [])
        assert exp.on_roots == ()
        assert dict(exp.on_weights) == {0: 2, 1: -1}

    def test_chain_tail_by_direct_solve(self):
        rs = build("A3")
        exp = expand_coefficients(rs, 2, [0, 1])
        assert dict(exp.on_roots) == {0: Q(-1, 3), 1: Q(-2, 3)}
        assert dict(exp.on_weights) == {2: Q(4, 3)}
        row = certify._expansion_row(rs, 2, (0, 1))
        assert row == (3, (-1, -2, 4))
        assert expansion_mass_identity(rs, (0, 1), row)

    @pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
    def test_matches_gauss_jordan_solve(self, spec):
        # The dual weights are the rows of the inverse Gramm matrix, each
        # solved for here; alpha is then solved for over the mixed basis.
        rs = build(spec)
        n = rs.rank
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        gramm = [list(rs.gramm.row(i)) for i in range(n)]
        dual = [gauss_jordan_solve(gramm, units[i]) for i in range(n)]
        for subset in subsets_of(range(n)):
            rest = [g for g in range(n) if g not in subset]
            columns = [units[beta] for beta in subset] + [dual[g] for g in rest]
            for alpha in range(n):
                x = gauss_jordan_solve(columns, units[alpha])
                exp = expand_coefficients(rs, alpha, subset)
                assert [c for _, c in exp.on_roots + exp.on_weights] == x
                assert [i for i, _ in exp.on_roots + exp.on_weights] == [
                    *subset, *rest
                ]

    def test_memo_does_not_hide_a_bad_table(self):
        # The memoised block matrix depends on the Gramm matrix only; the
        # residual check reads the system's table on every call, so a table
        # forged into the memo after the block was built is still caught.
        rs = from_gramm(build("A3").gramm)
        wt = weight_table(rs)
        for alpha in range(3):
            expand_coefficients(rs, alpha, [0])
        assert ("expansion", (0,)) in rs._memo
        rs._memo[("weight_table", (0, 1, 2))] = entry_moved(wt, 2, 2, 1)
        with pytest.raises(
            InvariantViolation, match="block formula disagrees with the weight table"
        ):
            expand_coefficients(rs, 1, [0])

    def test_a_positive_off_diagonal_coefficient_stops_the_run(self):
        # A2, I empty: the memoised row of alpha_1 is forged to
        # (4, 1) / 2, i.e. 2 w_1 + (1/2) w_2, and w_2 to 2 (e_1 - 2 w_1),
        # so the residual holds and only the sign test can see the row.
        # Both rows are over the table's denominator.
        rs = from_gramm(build("A2").gramm)
        wt = weight_table(rs)
        den, rows = wt.integer_dual
        w1 = rows[0]
        w2 = tuple(2 * (den * (j == 0) - 2 * x) for j, x in enumerate(w1))
        rs._memo[("weight_table", (0, 1))] = dataclasses.replace(
            wt, integer_dual=(den, {0: w1, 1: w2})
        )
        rs._memo[("expansion", ())] = (2, ((4, 1), (-2, 4)))
        for check in (expand_coefficients, verify_theorem61_constructive):
            with pytest.raises(InvariantViolation) as err:
                check(rs, 0, [])
            assert str(err.value) == "sign property fails at alpha_2: 1/2"

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "A2xA1"])
    def test_mass_identity_matches_a_fraction_sum(self, spec):
        # Oracle: the masses summed as Fractions from the expansion's
        # coefficients. Each row is also tried with its first coefficient
        # in root order moved by 1/7, which both must refuse.
        rs = build(spec)
        d = weight_table(rs).d

        def fraction_mass(subset, row):
            den, ints = row
            return sum(
                (Q(x, den) * (1 if j in subset else d[j]) for j, x in enumerate(ints)),
                Q(0),
            )

        for alpha in range(rs.rank):
            for subset in subsets_of(range(rs.rank)):
                exp = expand_coefficients(rs, alpha, subset)
                row = certify._expansion_row(rs, alpha, subset)
                den, ints = row
                assert [Q(ints[j], den) for j, _ in exp.on_roots + exp.on_weights] == [
                    c for _, c in exp.on_roots + exp.on_weights
                ]
                forged = (7 * den, (7 * ints[0] + den, *(7 * x for x in ints[1:])))
                for r in (row, forged):
                    assert expansion_mass_identity(rs, subset, r) == (
                        fraction_mass(subset, r) == 1
                    )
                assert expansion_mass_identity(rs, subset, row)

    def test_a_forged_mass_fails_the_lemma64_rows(self):
        # d is read from the system's table on every call. One dual weight
        # forged to a mass 1/7 larger fails exactly the rows whose
        # expansion weighs it: the residual against the table stops the
        # lemma64 row, and the mass identity alone refuses the honest row.
        honest = build("A3")
        rs = from_gramm(honest.gramm)
        rs._memo[("weight_table", (0, 1, 2))] = entry_moved(
            weight_table(rs), 2, 2, Q(1, 7)
        )
        expected = [
            "fail" if dict(expand_coefficients(honest, a, subset).on_weights).get(2)
            else "pass"
            for a in range(3)
            for subset in subsets_of(range(3))
        ]
        assert "fail" in expected and "pass" in expected
        assert [row["status"] for row in suites.run_lemma64(rs)] == expected
        assert [
            "pass"
            if expansion_mass_identity(
                rs, subset, certify._expansion_row(honest, a, subset)
            )
            else "fail"
            for a in range(3)
            for subset in subsets_of(range(3))
        ] == expected

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3", "A2xA1"])
    def test_signs_and_mass_exhaustively(self, spec):
        rs = build(spec)
        for alpha in range(rs.rank):
            for subset in subsets_of(range(rs.rank)):
                exp = expand_coefficients(rs, alpha, subset)
                for delta, coeff in exp.on_roots + exp.on_weights:
                    if delta != alpha:
                        assert coeff <= 0
                row = certify._expansion_row(rs, alpha, subset)
                assert expansion_mass_identity(rs, subset, row)


class TestConstructiveRoute:
    def test_rank_one_trivial_certificate(self):
        rs = build("A1")
        cert = verify_theorem61_constructive(rs, 0, [])
        assert cert.kind == "conic_combination"
        assert all(m == 0 for m in cert.inequality_multipliers)

    def test_rank_two_multiplier_by_hand(self):
        rs = build("A2")
        cone = theorem_cone(rs, 0, [])
        cert = verify_theorem61_constructive(rs, 0, [])
        by_label = dict(zip(cone.inequality_labels, cert.inequality_multipliers))
        assert by_label["ordering:2"] == 1
        assert by_label["positivity"] == 0
        assert validate_certificate(cone, cert)

    def test_complement_of_alpha_shape(self):
        rs = build("B3")
        subset = [1, 2]
        cone = theorem_cone(rs, 0, subset)
        cert = verify_theorem61_constructive(rs, 0, subset)
        assert validate_certificate(cone, cert)
        # Only gamma = alpha remains outside I, so the single ordering row
        # is the zero functional with zero multiplier.
        by_label = dict(zip(cone.inequality_labels, cert.inequality_multipliers))
        assert by_label["ordering:1"] == 0

    def test_alpha_in_subset_rejected(self):
        rs = build("A2")
        with pytest.raises(PreconditionViolated):
            verify_theorem61_constructive(rs, 0, [0])

    @pytest.mark.parametrize(
        "spec", ["A2", "B2", "G2", "A3", "B3", "C3", "F4", "A2xA1"]
    )
    def test_multipliers_match_the_fraction_formula(self, spec):
        # Oracle: the certificate's Fraction formula over an expansion
        # solved by plain Gauss-Jordan. With c the coefficients and d_g the
        # mass of the solved dual weight w_g, ordering:gamma gets
        # -c_gamma d_gamma (0 for alpha's own), positivity gets mass - 1
        # with mass = sum c_gamma d_gamma over gamma outside I, and the
        # equality of beta gets c_beta.
        rs = build(spec)
        n = rs.rank
        units = [[int(i == j) for j in range(n)] for i in range(n)]
        gramm = [list(rs.gramm.row(i)) for i in range(n)]
        dual = [gauss_jordan_solve(gramm, units[i]) for i in range(n)]
        d = [sum(row, Q(0)) for row in dual]
        for alpha in range(n):
            for subset in subsets_of(i for i in range(n) if i != alpha):
                rest = [g for g in range(n) if g not in subset]
                columns = [units[b] for b in subset] + [dual[g] for g in rest]
                x = gauss_jordan_solve(columns, units[alpha])
                c = dict(zip([*subset, *rest], x))
                mass = sum((c[g] * d[g] for g in rest), Q(0))
                cone = theorem_cone(rs, alpha, subset)
                expected = []
                for label in cone.inequality_labels:
                    if label == "positivity":
                        expected.append(mass - 1)
                    else:
                        gamma = int(label.split(":")[1]) - 1
                        expected.append(0 if gamma == alpha else -c[gamma] * d[gamma])
                cert = verify_theorem61_constructive(rs, alpha, subset, cone)
                assert list(cert.inequality_multipliers) == expected
                assert list(cert.equality_multipliers) == [c[b] for b in subset]
                multipliers = cert.inequality_multipliers + cert.equality_multipliers
                assert all(type(m) is Q for m in multipliers)

    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "A2xA1"])
    def test_sweep_validates(self, spec):
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for subset in subsets_of(others):
                cone = theorem_cone(rs, alpha, subset)
                cert = verify_theorem61_constructive(rs, alpha, subset)
                assert validate_certificate(cone, cert)


class TestRayRoute:
    def test_rank_two_rays_by_hand(self):
        rs = build("A2")
        cone = theorem_cone(rs, 0, [])
        enum = extreme_rays(cone)
        assert set(enum.rays) == {(1, 1), (1, -2)}
        values = sorted(dot(cone.objective, vec(r)) / cone.den for r in enum.rays)
        assert values == [0, 1]
        cert = verify_theorem61_rays(cone)
        assert cert.kind == "conic_combination"
        assert cert.min_ray_objective == 0
        assert cert.ray_count == 2

    def test_older_call_reads_only_the_systems_own_table(self):
        # perfbench's tracer test still calls theorem_cone(rs, table, alpha, I).
        rs = build("B3")
        assert theorem_cone(rs, weight_table(rs), 0, [2]) == theorem_cone(rs, 0, [2])
        with pytest.raises(TypeError):
            theorem_cone(rs, weight_table(from_gramm(rs.gramm)), 0, [2])

    def test_apex_only_cone_confirms(self):
        rs = build("A2")
        cone = theorem_cone(rs, 0, [1])
        cert = verify_theorem61_rays(cone)
        assert cert.kind == "conic_combination"

    def test_control_drop_ordering_family_violates(self):
        rs = build("A2")
        cone = theorem_cone(rs, 0, [], drop="ordering-family")
        cert = verify_theorem61_rays(cone)
        assert cert.kind == "violating_ray"
        assert validate_certificate(cone, cert)
        # The documented witness: at (0, 1) the objective equals -1/3.
        witness = vec([0, 1])
        assert dot(cone.objective, witness) / cone.den == Q(-1, 3)

    def test_control_drop_positivity_elsewhere(self):
        # Dropping nonnegativity alone is visible on the rank-three chain
        # with the middle root pinned.
        rs = build("A3")
        cone = theorem_cone(rs, 0, [1], drop="positivity")
        cert = verify_theorem61_rays(cone)
        assert cert.kind == "violating_ray"
        assert validate_certificate(cone, cert)

    def test_a_pass_without_multipliers_does_not_validate(self):
        # Dropping the ordering family leaves a violating ray, so a bare
        # conic combination claims what is false; nothing in it can be
        # re-checked. A genuine ray-route pass carries no more.
        rs = build("A2")
        cone = theorem_cone(rs, 0, [], drop="ordering-family")
        assert verify_theorem61_rays(cone).kind == "violating_ray"
        bare = certify.Certificate(kind="conic_combination")
        assert not validate_certificate(cone, bare)
        full = theorem_cone(rs, 0, [])
        passing = verify_theorem61_rays(full)
        assert passing.kind == "conic_combination"
        assert not validate_certificate(full, passing)

    @pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
    def test_reported_values_are_the_objective_on_the_rays(self, spec):
        # The ray route compares integer values; what it reports must be
        # the objective itself, its stored row over the cone's den,
        # evaluated here in Fractions, on every cone and every control drop.
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for subset in subsets_of(others):
                for drop in (None, "ordering-family", "positivity"):
                    cone = theorem_cone(rs, alpha, subset, drop=drop)
                    objective = [Q(x, cone.den) for x in cone.objective]
                    enum = extreme_rays(cone)
                    values = [dot(objective, r) for r in enum.rays]
                    cert = verify_theorem61_rays(cone)
                    assert cert.ray_count == len(enum.rays)
                    if cert.kind == "violating_ray":
                        assert cert.objective_value == dot(objective, cert.ray)
                        assert cert.objective_value < 0
                        assert validate_certificate(cone, cert)
                    else:
                        assert min(values) >= 0
                        assert cert.min_ray_objective == min(values)
                        assert all(dot(objective, v) == 0 for v in enum.lineality)

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3"])
    def test_two_routes_agree(self, spec):
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for subset in subsets_of(others):
                cone = theorem_cone(rs, alpha, subset)
                constructive = verify_theorem61_constructive(rs, alpha, subset)
                oracle = verify_theorem61_rays(cone)
                assert constructive.kind == "conic_combination"
                assert oracle.kind == "conic_combination"


def scaled_cone(cone, k):
    """cone with every stored row and its den times k: the same cone."""

    def times(rows):
        return tuple(tuple(k * x for x in row) for row in rows)

    return dataclasses.replace(
        cone,
        equalities=times(cone.equalities),
        inequalities=times(cone.inequalities),
        objective=times([cone.objective])[0],
        den=k * cone.den,
    )


class TestIntegerCones:
    @pytest.mark.parametrize("spec", ["A2", "B3", "G2", "A2xA1"])
    def test_rows_over_den_are_the_gauss_jordan_functionals(self, spec):
        # Oracle: the dual weights as rows of a plain Gauss-Jordan inverse
        # of the Gramm matrix, each weighted by one over its row sum.
        rs = build(spec)
        n = rs.rank
        dual = gauss_jordan_inverse([rs.gramm.row(i) for i in range(n)])
        weighted = [tuple(x / sum(row) for x in row) for row in dual]
        for alpha in range(n):
            for subset in subsets_of(i for i in range(n) if i != alpha):
                cone = theorem_cone(rs, alpha, subset)
                functionals = (*cone.equalities, *cone.inequalities, cone.objective)
                assert type(cone.den) is int and cone.den > 0
                assert all(type(x) is int for row in functionals for x in row)

                def over_den(row):
                    return tuple(Q(x, cone.den) for x in row)

                rest = [g for g in range(n) if g not in subset]
                assert [over_den(e) for e in cone.equalities] == [
                    vec(int(j == beta) for j in range(n)) for beta in subset
                ]
                assert [over_den(f) for f in cone.inequalities] == [
                    *(
                        tuple(a - b for a, b in zip(weighted[alpha], weighted[g]))
                        for g in rest
                    ),
                    weighted[alpha],
                ]
                assert over_den(cone.objective) == tuple(
                    (j == alpha) - x for j, x in enumerate(weighted[alpha])
                )

    @pytest.mark.parametrize("k", [2, 9])
    @pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
    def test_scaling_rows_and_den_together_changes_nothing(self, spec, k):
        # Rays, the ray route's certificate and both verdicts of
        # validate_certificate stay as they are, on every cone and drop.
        rs = build(spec)
        for alpha in range(rs.rank):
            for subset in subsets_of(i for i in range(rs.rank) if i != alpha):
                for drop in (None, "ordering-family", "positivity"):
                    cone = theorem_cone(rs, alpha, subset, drop=drop)
                    scaled = scaled_cone(cone, k)
                    assert extreme_rays(scaled) == extreme_rays(cone)
                    cert = verify_theorem61_rays(cone)
                    assert verify_theorem61_rays(scaled) == cert
                    assert validate_certificate(scaled, cert) == (
                        validate_certificate(cone, cert)
                    )
                    if drop is None:
                        built = verify_theorem61_constructive(rs, alpha, subset, cone)
                        assert validate_certificate(scaled, built)
                        assert built == verify_theorem61_constructive(
                            rs, alpha, subset, scaled
                        )

    def test_a_forged_den_fails_a_true_violating_ray(self):
        # Every violating ray of A3's control cones validates against its
        # cone and fails once den is moved by one: the reported value is
        # the objective's over den.
        rs = build("A3")
        checked = 0
        for alpha in range(3):
            for subset in subsets_of(i for i in range(3) if i != alpha):
                for drop in ("ordering-family", "positivity"):
                    cone = theorem_cone(rs, alpha, subset, drop=drop)
                    cert = verify_theorem61_rays(cone)
                    if cert.kind != "violating_ray":
                        continue
                    checked += 1
                    assert validate_certificate(cone, cert)
                    forged = dataclasses.replace(cone, den=cone.den + 1)
                    assert not validate_certificate(forged, cert)
        assert checked

    def test_a_violating_ray_without_a_value_does_not_validate(self):
        cone = theorem_cone(build("A3"), 0, [1], drop="positivity")
        cert = verify_theorem61_rays(cone)
        assert validate_certificate(cone, cert)
        blank = dataclasses.replace(cert, objective_value=None)
        assert not validate_certificate(cone, blank)


class TestSimplicialCones:
    """A Theorem 6.1 cone that drops nothing has n - |I| rays, no lineality;
    every sweep of the ray route over full cones checks it."""

    def test_a_missing_ray_fails_the_row(self, monkeypatch):
        real = certify.extreme_rays

        def one_ray_short(cone):
            enum = real(cone)
            return dataclasses.replace(enum, rays=enum.rays[1:])

        monkeypatch.setattr(certify, "extreme_rays", one_ray_short)
        rows = suites.run_theorem61(build("A3"), "rays")
        assert len(rows) == 12
        assert all(row["status"] == "fail" for row in rows)
        # alpha_1 with I empty: three rays expected, two seen.
        assert rows[0]["subset"] == [] and rows[0]["detail"] == (
            "a full Theorem 6.1 cone is not simplicial: ray count 2 and "
            "lineality dimension 0, expected ray count 3 and lineality dimension 0"
        )

    def test_a_lineality_vector_fails_the_row(self, monkeypatch):
        real = certify.extreme_rays

        def with_a_line(cone):
            enum = real(cone)
            line = (0,) * (cone.ambient_dim - 1) + (1,)
            return dataclasses.replace(enum, lineality=(line,))

        monkeypatch.setattr(certify, "extreme_rays", with_a_line)
        with pytest.raises(InvariantViolation, match="lineality dimension 1,"):
            verify_theorem61_rays(theorem_cone(build("B3"), 0, [2]))
        # Control cones have lineality by design and are not checked.
        cone = theorem_cone(build("B3"), 0, [2], drop="ordering-family")
        assert verify_theorem61_rays(cone).kind == "violating_ray"


class TestSuiteWork:
    @pytest.mark.parametrize("route", ["constructive", "rays"])
    def test_one_cone_and_one_validation_per_row(self, route, monkeypatch):
        # The constructive route validates against the cone it is given,
        # so the suite builds each row's cone once and checks it once. A
        # ray-route pass carries no multipliers, so it is not validated.
        counts = {"theorem_cone": 0, "validate_certificate": 0}
        for name in counts:

            def counted(*args, _real=getattr(certify, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(certify, name, counted)
        rows = suites.run_theorem61(build("A3"), route)
        assert len(rows) == 12
        assert all(row["status"] == "pass" for row in rows)
        validations = 12 if route == "constructive" else 0
        assert counts == {"theorem_cone": 12, "validate_certificate": validations}


    def test_controls_skip_the_drop_of_alphas_own_ordering(self, monkeypatch):
        # ordering:<alpha+1> is the zero row, so dropping it keeps the full
        # cone. Per alpha of A3 the two other roots give subsets of sizes
        # 0, 1, 1, 2 with 2 + (2 - |I|) drops each: 12 cones, 36 in all.
        calls = []
        real = certify.verify_theorem61_rays

        def counted(cone):
            calls.append(cone)
            return real(cone)

        monkeypatch.setattr(certify, "verify_theorem61_rays", counted)
        rows = suites.run_controls(build("A3"))
        assert len(calls) == 36
        assert rows and all(row["status"] == "expected-violation" for row in rows)

    def test_one_block_expansion_per_subset(self, monkeypatch):
        # lemma64 sweeps every alpha over every subset of A3: 24 rows, but
        # the block formula depends on the subset only, so 8 computations,
        # each on integer Gramm blocks and giving the integer form.
        calls = []
        real = certify.block_coefficient_matrix

        def counted(a, b, c):
            calls.append(b.rows)
            assert all(type(x) is int for m in (a, b, c) for x in m.entries)
            den, rows = real(a, b, c)
            assert den > 0 and all(type(x) is int for r in rows for x in r)
            return den, rows

        rs = from_gramm(build("A3").gramm)
        monkeypatch.setattr(certify, "block_coefficient_matrix", counted)
        rows = suites.run_lemma64(rs)
        assert len(rows) == 24
        assert all(row["status"] == "pass" for row in rows)
        assert sorted(calls) == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_second_sweep_runs_no_elimination(self, monkeypatch):
        # Every elimination runs through one loop. The weight table and the
        # block matrices are memoised, and the checks against them are
        # products, so sweeping the same system again eliminates nothing.
        calls = []
        real = linalg._fraction_free_reduce

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(linalg, "_fraction_free_reduce", counted)
        rs = from_gramm(build("A3").gramm)  # a fresh memo

        def sweep():
            rows = suites.run_lemma64(rs) + suites.run_gramm_inverse(rs)
            rows += suites.run_lemma66(rs) + suites.run_theorem61(rs, "constructive")
            assert all(row["status"] == "pass" for row in rows)

        sweep()
        before = len(calls)
        assert before  # the counter is wired
        sweep()
        assert len(calls) == before


def accumulate(cone, ineq, eq):
    """Independent oracle: the plain Fraction sum of multiplier times row."""
    acc = [Q(0)] * cone.ambient_dim
    for mult, row in zip(list(ineq) + list(eq), cone.inequalities + cone.equalities):
        for j, x in enumerate(row):
            acc[j] += Q(mult) * Q(x)
    return acc


def oracle_accepts(cone, ineq, eq):
    return (
        len(ineq) == len(cone.inequalities)
        and len(eq) == len(cone.equalities)
        and all(m >= 0 for m in ineq)
        and accumulate(cone, ineq, eq) == [Q(x) for x in cone.objective]
    )


ENTRY = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
MULTIPLIER = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.fractions(min_value=-1, max_value=4, max_denominator=6),
)


class TestValidateCertificate:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_fraction_accumulator(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=4))
        row = st.lists(ENTRY, min_size=dim, max_size=dim).map(tuple)
        ineqs = data.draw(st.lists(row, min_size=1, max_size=5))
        eqs = data.draw(st.lists(row, min_size=1, max_size=3))
        ineq = data.draw(st.lists(MULTIPLIER, min_size=len(ineqs), max_size=len(ineqs)))
        eq = data.draw(st.lists(MULTIPLIER, min_size=len(eqs), max_size=len(eqs)))
        exact = data.draw(st.booleans())
        if exact:
            ineq = [abs(m) for m in ineq]
            probe = ConeSpec(dim, tuple(eqs), tuple(ineqs), (0,) * dim)
            objective = tuple(accumulate(probe, ineq, eq))
        else:
            objective = data.draw(row)
        cone = ConeSpec(dim, tuple(eqs), tuple(ineqs), objective)

        def check(ineq_m, eq_m):
            cert = certify.Certificate(
                kind="conic_combination",
                inequality_multipliers=tuple(ineq_m),
                equality_multipliers=tuple(eq_m),
            )
            return validate_certificate(cone, cert)

        assert check(ineq, eq) == oracle_accepts(cone, ineq, eq)
        if exact:
            assert check(ineq, eq)
        assert not check(ineq + [0], eq)
        assert not check(ineq, eq[:-1])
        if not exact:
            return
        for k, f in enumerate(ineqs):
            if any(f):
                moved = list(ineq)
                moved[k] += Q(1, 7)
                assert not check(moved, eq)
        for k, f in enumerate(eqs):
            if any(f):
                moved = list(eq)
                moved[k] -= 1
                assert not check(ineq, moved)


    def test_a_ray_of_the_wrong_length_does_not_validate(self):
        # Like a wrong number of multipliers, a ray outside the cone's
        # space is a malformed certificate: it fails, it does not raise.
        cone = theorem_cone(build("A3"), 0, [])
        cert = certify.Certificate(
            kind="violating_ray", ray=(1, -1), objective_value=Q(-1)
        )
        assert not validate_certificate(cone, cert)
        cone = theorem_cone(build("A3"), 0, [1], drop="positivity")
        cert = verify_theorem61_rays(cone)
        assert cert.kind == "violating_ray"
        assert validate_certificate(cone, cert)
        for ray in ((), cert.ray[:-1], (*cert.ray, 0)):
            assert not validate_certificate(cone, dataclasses.replace(cert, ray=ray))


def corollary_gap(wt, alpha, a):
    """Corollary 6.2 with a_I = 0, as lhs - rhs in plain Fraction arithmetic:
    (1 - (w,w)/d) alpha(a) - (1/d) sum_{beta != alpha} (w, w_beta) beta(a).
    """
    d = wt.d[alpha]
    lhs = (1 - wt.dual[alpha][alpha] / d) * a[alpha]
    rhs = sum(
        (wt.dual[alpha][beta] * a[beta] for beta in range(len(a)) if beta != alpha),
        Q(0),
    ) / d
    return lhs - rhs


def in_cone(cone, a):
    return all(dot(f, a) == 0 for f in cone.equalities) and all(
        dot(f, a) >= 0 for f in cone.inequalities
    )


class TestCorollaryBound:
    """Corollary 6.2 is the objective of the Theorem 6.1 cone, rearranged."""

    @pytest.mark.parametrize("spec", ["A2", "A3", "B3", "G2", "A2xA1"])
    def test_bound_is_theorem_cone_objective(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for alpha in range(rs.rank):
            rest = [t for t in range(rs.rank) if t != alpha]
            for subset in subsets_of(rest):
                cone = theorem_cone(rs, alpha, subset)
                for coords in itertools.product(range(-1, 3), repeat=rs.rank):
                    a = vec([0 if i in subset else c for i, c in enumerate(coords)])
                    value = dot(cone.objective, a) / cone.den
                    assert value == corollary_gap(wt, alpha, a)

    def test_rank_two_equality_case(self):
        rs = build("A2")
        wt = weight_table(rs)
        cone = theorem_cone(rs, 0, [])
        for n in range(1, 8):
            a = vec([n, n])
            assert in_cone(cone, a)
            assert corollary_gap(wt, 0, a) == 0

    def test_zero_trace(self):
        rs = build("A2")
        wt = weight_table(rs)
        zero = vec([0, 0])
        assert in_cone(theorem_cone(rs, 0, []), zero)
        assert corollary_gap(wt, 0, zero) == 0

    def test_asymmetric_pair_growth(self):
        rs = build("G2")
        wt = weight_table(rs)
        cone = theorem_cone(rs, 0, [])
        # Both coordinates grow linearly, the first dominating enough to
        # satisfy the ordering hypothesis.
        for n in range(1, 6):
            a = vec([3 * n, n])
            assert dot(wt.weighted[0], a) >= dot(wt.weighted[1], a)
            assert in_cone(cone, a)
            assert corollary_gap(wt, 0, a) >= 0
        assert verify_theorem61_rays(cone).kind == "conic_combination"

    def test_disconnected_root_gives_no_bound(self):
        # A1 is its own component of A2xA1: the coefficient
        # 1 - (w,w)/d vanishes and the bound reads 0 >= 0.
        rs = build("A2xA1")
        wt = weight_table(rs)
        assert wt.dual[2][2] == wt.d[2]
        assert all(x == 0 for x in theorem_cone(rs, 2, []).objective)

    def test_bound_fails_where_the_ordering_hypothesis_fails(self):
        rs = build("A2")
        wt = weight_table(rs)
        cone = theorem_cone(rs, 0, [])
        # Second coordinate dominates: the point leaves the cone through
        # its ordering inequality, and the bound is then false.
        a = vec([0, 5])
        assert dot(wt.differences[0][1], a) < 0
        assert not in_cone(cone, a)
        assert corollary_gap(wt, 0, a) < 0


class TestSubsetRangeChecks:
    """Every entry point that takes a subset refuses an out-of-range root."""

    @pytest.mark.parametrize("alpha", [7, -1])
    def test_theorem_cone_alpha(self, alpha):
        rs = build("A3")
        with pytest.raises(UnknownRoot, match="no simple root with index"):
            theorem_cone(rs, alpha, [])

    @pytest.mark.parametrize("subset", [[7], [-1], [1, 3]])
    def test_theorem_cone(self, subset):
        rs = build("A3")
        with pytest.raises(UnknownRoot, match="no simple root with index"):
            theorem_cone(rs, 0, subset)

    @pytest.mark.parametrize("subset", [[7], [-1]])
    def test_expand_coefficients(self, subset):
        rs = build("A3")
        with pytest.raises(UnknownRoot, match="no simple root with index"):
            expand_coefficients(rs, 0, subset)

    @pytest.mark.parametrize("subset", [[7], [-1]])
    def test_constructive_route(self, subset):
        rs = build("A3")
        with pytest.raises(UnknownRoot, match="no simple root with index"):
            verify_theorem61_constructive(rs, 0, subset)

    def test_first_bad_index_in_sorted_order_is_named(self):
        rs = build("A3")
        with pytest.raises(UnknownRoot, match="index 4$"):
            theorem_cone(rs, 0, [5, 1, 4])
        with pytest.raises(UnknownRoot, match="index -2$"):
            theorem_cone(rs, 0, [5, -2, -1])


class TestMatrixFacts:
    def test_short_long_pair_inverse(self):
        rs = build("B2")
        assert invert(rs.gramm) == QMatrix.from_rows([[1, 1], [1, 2]])
        assert verify_lemma66(rs)

    def test_rank_one(self):
        assert verify_lemma66(build("A1"))

    def test_largest_exceptional(self):
        assert verify_lemma66(build("E8"))

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            verify_lemma66(build("A1xA1"))

    def test_a_forged_table_fails_both_inverse_checks(self):
        # Both checks multiply out the system's table instead of inverting
        # the Gramm matrix again, so one forged dual-weight entry fails
        # them, though every entry is still positive.
        rs = from_gramm(build("A3").gramm)
        forged = entry_moved(weight_table(rs), 2, 2, 1)
        rs._memo[("weight_table", (0, 1, 2))] = forged
        assert all(x > 0 for row in forged.dual.values() for x in row)
        assert [row["status"] for row in suites.run_gramm_inverse(rs)] == ["fail"]
        assert verify_lemma66(rs) is False

    def test_a_forged_entry_with_a_new_denominator_is_caught(self):
        # Both residuals run on the table's integer form; an entry forged
        # with a denominator the table did not have changes that form's
        # common denominator, and all three checks must still fire.
        rs = from_gramm(build("A3").gramm)
        wt = weight_table(rs)
        assert wt.integer_dual[0] == 4
        forged = entry_moved(wt, 2, 2, Q(1, 7))
        rs._memo[("weight_table", (0, 1, 2))] = forged
        assert forged.integer_dual[0] == 28
        assert all(x > 0 for row in forged.dual.values() for x in row)
        with pytest.raises(
            InvariantViolation, match="block formula disagrees with the weight table"
        ):
            expand_coefficients(rs, 1, [0])
        assert [row["status"] for row in suites.run_gramm_inverse(rs)] == ["fail"]
        assert verify_lemma66(rs) is False

    def test_strict_mass_gap_under_connectivity(self):
        for spec in ["A2", "A3", "B3", "G2", "F4"]:
            rs = build(spec)
            wt = weight_table(rs)
            for alpha in range(rs.rank):
                remainder = [t for t in range(rs.rank) if t != alpha]
                if connected_to(rs, alpha, remainder):
                    assert wt.dual[alpha][alpha] < wt.d[alpha]

    def test_mass_gap_fails_when_component_is_exhausted(self):
        rs = build("A1")
        wt = weight_table(rs)
        assert not wt.dual[0][0] < wt.d[0]

    def test_subdiagram_classification_chain(self):
        # A chain of n nodes has n(n + 1) / 2 connected subdiagrams.
        assert verify_lemma65(build("A3")) == 6

    def test_subdiagram_classification_mixed_lengths(self):
        assert verify_lemma65(build("F4"))
        assert verify_lemma65(build("G2"))

    def test_subdiagram_classification_exceptional(self):
        assert verify_lemma65(build("E8"))

    def test_block_that_is_not_positive_definite_fails(self):
        # The affine A2 cycle: every proper block is A1 or A2, and the
        # whole block is singular, so only positive definiteness fails.
        cycle = QMatrix.from_rows([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
        rs = dataclasses.replace(build("A3"), gramm=cycle)
        assert verify_lemma65(rs) is False
        assert suites.run_lemma65(rs) == [
            suites._result(
                "fail", detail="a connected subdiagram is not a catalogue diagram"
            )
        ]

    @pytest.mark.parametrize("spec", ["A3", "G2", "F4", "D5"])
    def test_a_task_tries_each_subset_once(self, spec, monkeypatch):
        # The row's count comes from the one enumeration of the check,
        # which yields each connected subset once.
        enumerations = []
        real = certify.connected_induced_subsets

        def recording(rs):
            enumerations.append(list(real(rs)))
            return iter(enumerations[-1])

        monkeypatch.setattr(certify, "connected_induced_subsets", recording)
        rows, _ = suites._run_task(("lemma65", spec, None))
        [subsets] = enumerations
        assert len(set(subsets)) == len(subsets)
        assert [(row["status"], row["detail"]) for row in rows] == [
            ("pass", f"{len(subsets)} connected subdiagrams classified")
        ]

    @pytest.mark.parametrize("spec", suites.irreducible_catalogue(8))
    def test_connected_subsets_match_a_mask_scan(self, spec):
        rs = build(spec)
        got = list(connected_induced_subsets(rs))
        assert all(subset == tuple(sorted(subset)) for subset in got)
        assert sorted(got) == mask_scan(rs.cartan)

    def test_connected_subsets_of_a_cycle(self):
        # Not a Dynkin diagram: on a cycle two frontier roots can meet
        # again, and each subset must still come out once.
        cycle = [
            [2 if i == j else -int((i - j) % 5 in (1, 4)) for j in range(5)]
            for i in range(5)
        ]
        rs = dataclasses.replace(build("A5"), cartan=cycle)
        got = list(connected_induced_subsets(rs))
        assert sorted(got) == mask_scan(cycle)
        assert len(got) == 5 * 4 + 1

    @pytest.mark.parametrize(
        "spec, count",
        [(f"A{n}", n * (n + 1) // 2) for n in range(1, 17)] + [("D16", 149)],
    )
    def test_connected_subset_counts(self, spec, count):
        # A path on n vertices has n(n + 1)/2 connected pieces, one per
        # interval; A16 has 136.
        assert len(list(connected_induced_subsets(build(spec)))) == count

    def test_connected_subsets_of_chain(self):
        rs = build("A3")
        got = sorted(connected_induced_subsets(rs))
        assert got == [
            (0,), (0, 1), (0, 1, 2), (1,), (1, 2), (2,),
        ]
