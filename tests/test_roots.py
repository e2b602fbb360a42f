"""Root system construction, weight tables, and character proportionality."""

import dataclasses
import math
import pickle
import random
from fractions import Fraction as Q
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st
from test_linalg import NOT_POSITIVE_DEFINITE, vec

from rootcones import roots, suites

from rootcones.errors import InvalidRank, NotProportional, UnknownRoot
from rootcones.linalg import QMatrix, invert, is_positive_definite, unit_vec
from rootcones.parabolic import relative_torus
from rootcones.roots import (
    build,
    check_2d_identity,
    classify_irreducible,
    _graph_components,
    connected_to,
    from_gramm,
    gramm_seed,
    is_connected_subset,
    parabolic_character,
    parse_spec,
    rescale_components,
    roundtrip_simple_root,
    subsystem,
    weight_table,
)


def inverse_gramm_entry(letter, n, i, j):
    """Entry (i, j), 1-based, of the inverse Gramm matrix of A_n-D_n in
    this normalisation: long roots of square norm 2, B_n's last root of
    square norm 1 and C_n's of 4."""
    lo, hi = min(i, j), max(i, j)
    if letter == "A":
        return Q(lo * (n + 1 - hi), n + 1)
    if letter == "B":
        return Q(lo)
    if letter == "C":
        if hi < n:
            return Q(lo)
        return Q(n, 4) if lo == n else Q(lo, 2)
    if letter == "D":
        if hi <= n - 2:
            return Q(lo)
        if lo <= n - 2:
            return Q(lo, 2)
        return Q(n, 4) if i == j else Q(n - 2, 4)
    raise ValueError(letter)


CATALOGUE = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)

# Number of positive roots per type and rank (Bourbaki, Lie Groups and Lie
# Algebras, Ch. VI, Plates I-IX).
POSITIVE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class TestBuild:
    def test_rank_one(self):
        rs = build("A1")
        assert rs.rank == 1
        assert rs.gramm.at(0, 0) == 2
        assert rs.positive_roots == ((1,),)

    def test_g2_gramm_and_root_count(self):
        rs = build("G2")
        assert rs.gramm == QMatrix.from_rows([[2, -3], [-3, 6]])
        assert len(rs.positive_roots) == 6

    def test_reducible_components(self):
        rs = build("A2xA1")
        assert rs.dynkin_components == ((0, 1), (2,))
        assert rs.gramm.at(0, 2) == 0
        assert len(rs.positive_roots) == 3 + 1

    @pytest.mark.parametrize("letter,rank", CATALOGUE)
    def test_positive_root_counts_match_closed_forms(self, letter, rank):
        rs = build([(letter, rank)])
        assert len(rs.positive_roots) == POSITIVE_ROOT_COUNTS[letter](rank)

    @pytest.mark.parametrize("bad", ["B1", "C1", "D2", "E5", "E9", "F3", "G4"])
    def test_invalid_ranks(self, bad):
        with pytest.raises(InvalidRank):
            build(bad)

    @pytest.mark.parametrize("build_it", [
        lambda: build([("H", 2)]),
        lambda: gramm_seed("H", 2),
    ])
    def test_unknown_type_letter(self, build_it):
        with pytest.raises(InvalidRank, match="unknown type letter 'H'"):
            build_it()

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="position 0"):
            parse_spec("H3")
        with pytest.raises(ValueError, match="position 3"):
            parse_spec("A2x3B")
        with pytest.raises(ValueError, match="not supported"):
            parse_spec("BC2")

    def test_positive_roots_have_nonnegative_coefficients(self):
        for spec in ["A3", "B3", "C3", "D4", "F4", "G2"]:
            rs = build(spec)
            assert all(all(c >= 0 for c in r) for r in rs.positive_roots)
            assert all(any(c > 0 for c in r) for r in rs.positive_roots)

    def test_b2_positive_roots(self):
        rs = build("B2")
        assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (1, 2)}


# Connection index det C, the order of the weight lattice modulo the root
# lattice (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates I-IX).
CONNECTION_INDEX = {
    "A": lambda n: n + 1,
    "B": lambda n: 2,
    "C": lambda n: 2,
    "D": lambda n: 4,
    "E": lambda n: {6: 3, 7: 2, 8: 1}[n],
    "F": lambda n: 1,
    "G": lambda n: 1,
}


def fraction_determinant(rows):
    """Independent oracle: plain Gaussian elimination over Fractions."""
    a = [[Q(x) for x in row] for row in rows]
    n = len(a)
    det = Q(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Q(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


class TestDeclaredTypes:
    def test_mismatched_type_raises(self):
        with pytest.raises(ValueError, match="G2 does not match"):
            from_gramm(build("A2").gramm, (("G", 2),))
        with pytest.raises(ValueError, match="G2 does not match"):
            from_gramm(build("A2xB2").gramm, (("A", 2), ("G", 2)))

    def test_type_with_the_same_cartan_matrix_up_to_reindexing_passes(self):
        # C2 and B2 have the same Cartan matrix with the roots swapped.
        rs = from_gramm(build("B2").gramm, (("C", 2),))
        assert rs.spec == "C2"
        assert rs.cartan == build("B2").cartan

    def test_check_calls_neither_build_nor_classification(self, monkeypatch):
        specs = [f"{letter}{rank}" for letter, rank in CATALOGUE]
        specs += suites.PARABOLIC_EXTRAS
        systems = {spec: build(spec) for spec in specs}

        def refuse(*args, **kwargs):
            raise AssertionError("declared types are checked on the Cartan matrix")

        monkeypatch.setattr(roots, "build", refuse)
        monkeypatch.setattr(roots, "classify_irreducible", refuse)
        for spec, rs in systems.items():
            assert from_gramm(rs.gramm, rs.components).cartan == rs.cartan, spec


class TestCartan:
    @pytest.mark.parametrize("letter,rank", CATALOGUE)
    def test_catalogue_cartan_shape_and_determinant(self, letter, rank):
        rs = build([(letter, rank)])
        c = rs.cartan
        assert len(c) == rank and all(len(row) == rank for row in c)
        assert all(type(x) is int for row in c for x in row)
        for i in range(rank):
            assert c[i][i] == 2
            for j in range(rank):
                if i != j:
                    assert c[i][j] <= 0
                    assert (c[i][j] == 0) == (c[j][i] == 0)
        assert fraction_determinant(c) == CONNECTION_INDEX[letter](rank)

    def test_cartan_is_the_gramm_pairing(self):
        rs = build("B2xG2")
        g = rs.gramm
        assert rs.cartan == tuple(
            tuple(2 * g.at(i, j) / g.at(j, j) for j in range(4)) for i in range(4)
        )

    @pytest.mark.parametrize("components", [None, (("A", 2),)])
    def test_non_integral_cartan_is_bad_input(self, components):
        # 2 (alpha_1, alpha_2) / (alpha_2, alpha_2) = -2/3. With components
        # declared this used to raise InvariantViolation from the closure.
        gramm = QMatrix.from_rows([[2, -1], [-1, 3]])
        with pytest.raises(ValueError, match="Cartan matrix must be integral"):
            from_gramm(gramm, components)

    @pytest.mark.parametrize("rows", NOT_POSITIVE_DEFINITE)
    def test_not_positive_definite_is_bad_input(self, rows):
        with pytest.raises(ValueError, match="positive definite"):
            from_gramm(QMatrix.from_rows(rows))

    def test_every_catalogue_gramm_is_positive_definite(self):
        for letter, rank in CATALOGUE:
            assert is_positive_definite(build([(letter, rank)]).gramm), letter + str(rank)

    def test_rescaling_keeps_the_cartan_matrix(self):
        rs = build("A2xB2")
        scaled = rescale_components(rs, [Q(1, 3), 5])
        assert scaled.cartan == rs.cartan
        assert scaled.positive_roots == rs.positive_roots
        assert scaled.components == rs.components


class TestWeightTable:
    def test_rank_two_chain_by_hand(self):
        rs = build("A2")
        wt = weight_table(rs)
        assert wt.dual == {0: vec([Q(2, 3), Q(1, 3)]), 1: vec([Q(1, 3), Q(2, 3)])}
        assert wt.d == {0: 1, 1: 1}
        assert wt.weighted[0] == vec([Q(2, 3), Q(1, 3)])

    def test_rank_one(self):
        wt = weight_table(build("A1"))
        assert wt.dual[0] == vec([Q(1, 2)])
        assert wt.d[0] == Q(1, 2)
        assert wt.weighted[0] == vec([1])

    def test_g2_masses(self):
        wt = weight_table(build("G2"))
        assert wt.d == {0: 3, 1: Q(5, 3)}

    def test_b2_masses(self):
        wt = weight_table(build("B2"))
        assert invert(build("B2").gramm) == QMatrix.from_rows([[1, 1], [1, 2]])
        assert wt.d == {0: 2, 1: 3}

    @pytest.mark.parametrize("spec", ["A3", "B3", "C4", "D4", "F4", "G2", "A2xB2"])
    def test_duality_against_gramm(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        assert QMatrix.from_rows([wt.dual[a] for a in range(rs.rank)]) == invert(rs.gramm)
        # Defining relations (w_a, b) = delta, evaluated through the Gramm.
        for a in range(rs.rank):
            pairing = tuple(
                sum(g * w for g, w in zip(rs.gramm.row(i), wt.dual[a]))
                for i in range(rs.rank)
            )
            assert pairing == unit_vec(rs.rank, a)

    @pytest.mark.parametrize("spec", ["A1", "A4", "B3", "C3", "D4", "F4", "G2", "A2xA1"])
    def test_weighted_rows_sum_to_one(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for row in wt.weighted.values():
            assert sum(row) == 1

    @pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "B3", "E6"])
    def test_identity_of_coefficient_sums(self, spec):
        rs = build(spec)
        for a in range(rs.rank):
            assert check_2d_identity(rs, a)

    def test_identity_hand_values(self):
        b2 = build("B2")
        wt = weight_table(b2)
        # 2*2 + (-1)*3 = 1 for the long root.
        assert b2.gramm.at(0, 0) * wt.d[0] + b2.gramm.at(0, 1) * wt.d[1] == 1
        g2 = build("G2")
        wtg = weight_table(g2)
        assert g2.gramm.at(0, 0) * wtg.d[0] + g2.gramm.at(0, 1) * wtg.d[1] == 1

    @pytest.mark.parametrize("spec", ["A1", "G2", "F4", "E8", "A2xB2"])
    def test_integer_dual_is_the_dual_over_its_least_denominator(self, spec):
        wt = weight_table(build(spec))
        den, rows = wt.integer_dual
        assert rows.keys() == wt.dual.keys()
        for alpha, row in wt.dual.items():
            assert all(type(x) is int for x in rows[alpha])
            assert rows[alpha] == tuple(den * x for x in row)
        # The least positive integer that clears every denominator.
        entries = [x for row in wt.dual.values() for x in row]
        assert [k for k in range(1, den + 1)
                if all((k * x).denominator == 1 for x in entries)] == [den]

    @pytest.mark.parametrize(
        "letter, rank",
        [(letter, n) for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
         for n in range(lo, 21)],
    )
    def test_classical_table_matches_closed_form(self, letter, rank):
        # Oracle with no elimination: the inverse Gramm matrices of the
        # classical series in this normalisation, from closed forms.
        rs = from_gramm(
            QMatrix.from_rows(roots.gramm_seed(letter, rank)), ((letter, rank),)
        )
        wt = weight_table(rs)
        expected = [
            [inverse_gramm_entry(letter, rank, i, j) for j in range(1, rank + 1)]
            for i in range(1, rank + 1)
        ]
        den, rows = wt.integer_dual
        assert den == math.lcm(*(x.denominator for row in expected for x in row))
        assert list(rows) == list(range(rank))
        assert [list(rows[a]) for a in range(rank)] == [
            [int(den * x) for x in row] for row in expected
        ]
        assert [list(wt.dual[a]) for a in range(rank)] == expected
        assert [wt.d[a] for a in range(rank)] == [sum(row) for row in expected]
        assert [list(wt.weighted[a]) for a in range(rank)] == [
            [x / sum(row) for x in row] for row in expected
        ]

    def test_integer_dual_hand_values(self):
        assert weight_table(build("A1")).integer_dual == (2, {0: (1,)})
        assert weight_table(build("G2")).integer_dual == (3, {0: (6, 3), 1: (3, 2)})

    def test_a_replaced_table_builds_its_own_views(self):
        wt = weight_table(build("A2"))
        assert wt.integer_dual == (3, {0: (2, 1), 1: (1, 2)})
        assert wt.dual == {0: (Q(2, 3), Q(1, 3)), 1: (Q(1, 3), Q(2, 3))}
        forged = dataclasses.replace(wt, integer_dual=(15, {0: (10, 5), 1: (5, 9)}))
        assert forged.dual == {0: (Q(2, 3), Q(1, 3)), 1: (Q(1, 3), Q(3, 5))}
        assert forged.integer_d == (15, {0: 15, 1: 14})
        assert forged.d == {0: 1, 1: Q(14, 15)}
        assert forged.integer_weighted == (42, {0: (28, 14), 1: (15, 27)})
        assert wt.dual == {0: (Q(2, 3), Q(1, 3)), 1: (Q(1, 3), Q(2, 3))}

    @pytest.mark.parametrize("spec", suites.irreducible_catalogue(8))
    def test_identity_matches_a_fraction_sum(self, spec):
        # Oracle: the sum of (a,b) d_b in Fractions, read from the Gramm
        # matrix and the table's masses. One mass forged by +1/7 must be
        # rejected by both wherever its Gramm entry is nonzero.
        honest = build(spec)
        rs = from_gramm(honest.gramm)  # a fresh memo, forged below
        wt = weight_table(rs)

        def fraction_identity(d, a):
            return sum((rs.gramm.at(a, b) * d[b] for b in range(rs.rank)), Q(0)) == 1

        for a in range(rs.rank):
            assert check_2d_identity(rs, a)
            assert fraction_identity(wt.d, a)
        # The masses are the row sums of the stored form, so one entry of
        # row 0 moved by 1/7 moves d_0 by 1/7 and no other mass.
        den, rows = wt.integer_dual
        moved = {a: tuple(7 * x for x in row) for a, row in rows.items()}
        moved[0] = (moved[0][0] + den, *moved[0][1:])
        forged = dataclasses.replace(wt, integer_dual=(7 * den, moved))
        d = dict(wt.d)
        d[0] += Q(1, 7)
        assert forged.d == d
        rs._memo[("weight_table", tuple(range(rs.rank)))] = forged
        verdicts = [check_2d_identity(rs, a) for a in range(rs.rank)]
        assert verdicts == [fraction_identity(d, a) for a in range(rs.rank)]
        assert verdicts == [rs.gramm.at(a, 0) == 0 for a in range(rs.rank)]

    @pytest.mark.parametrize("spec", ["A1", "B2", "C3", "F4", "G2", "A2xB2"])
    def test_integer_gramm_is_the_gramm_over_its_least_denominator(self, spec):
        rs = build(spec)
        g, rows = roots.integer_gramm(rs)
        assert roots.integer_gramm(rs) is roots.integer_gramm(rs)
        assert all(type(x) is int for row in rows for x in row)
        assert [[Q(x, g) for x in row] for row in rows] == [
            list(rs.gramm.row(i)) for i in range(rs.rank)
        ]
        assert [k for k in range(1, g + 1)
                if all((k * x).denominator == 1 for x in rs.gramm.entries)] == [g]

    @pytest.mark.parametrize("spec", ["A2", "B3", "D4", "G2", "A2xB2"])
    def test_roundtrip_expansion(self, spec):
        rs = build(spec)
        for a in range(rs.rank):
            assert roundtrip_simple_root(rs, a)

    def test_unknown_root(self):
        rs = build("A2")
        with pytest.raises(UnknownRoot):
            check_2d_identity(rs, 5)

    @pytest.mark.parametrize("letter,rank", [(l, r) for l, r in CATALOGUE if r <= 8])
    def test_inverse_gramm_positive_on_irreducible(self, letter, rank):
        rs = build([(letter, rank)])
        ginv = invert(rs.gramm)
        assert all(x > 0 for x in ginv.entries)

    def test_weighted_coordinates_nonnegative(self):
        rs = build("A2xB2")
        wt = weight_table(rs)
        for a in range(rs.rank):
            comp = set(rs.component_of(a))
            for j, x in enumerate(wt.weighted[a]):
                assert x >= 0
                if j in comp:
                    assert x > 0
                else:
                    assert x == 0


class TestConnectedTo:
    def test_chain_component_membership(self):
        rs = build("A3")
        # I = {alpha_2}: the target {alpha_3} shares alpha_1's component.
        assert connected_to(rs, 0, [2])

    def test_singleton_component_exhausted(self):
        rs = build("A2xA1")
        assert not connected_to(rs, 2, [])
        assert not connected_to(rs, 2, [0, 1])

    def test_empty_target(self):
        rs = build("B3")
        assert not connected_to(rs, 1, [])

    def test_membership_not_adjacency(self):
        rs = build("A3")
        # alpha_1 and alpha_3 are not adjacent but share a component.
        assert connected_to(rs, 0, [2])

    def test_components_of_a_subset_keep_ambient_indices(self):
        g = build("D4").cartan  # alpha_2 is the branch node
        assert _graph_components(g) == ((0, 1, 2, 3),)
        assert _graph_components(g, [3, 0, 2]) == ((0,), (2,), (3,))
        assert _graph_components(g, (1, 3, 0)) == ((0, 1, 3),)
        assert _graph_components(g, []) == ()
        assert is_connected_subset(g, [0, 1, 3])
        assert not is_connected_subset(g, [0, 2])
        assert not is_connected_subset(g, [])

    def test_monotone_in_target(self):
        rs = build("A3xA1")
        full = set(range(rs.rank))
        for alpha in range(rs.rank):
            for mask in range(2 ** rs.rank):
                target = {t for t in full - {alpha} if mask >> t & 1}
                for t in list(target):
                    smaller = target - {t}
                    if connected_to(rs, alpha, smaller):
                        assert connected_to(rs, alpha, target)


class TestParabolicCharacter:
    def test_rank_two_chain(self):
        rs = build("A2")
        character, lam = parabolic_character(rs, 0)
        assert character == (2, 1)
        assert lam == 3

    def test_rank_one(self):
        rs = build("A1")
        character, lam = parabolic_character(rs, 0)
        assert character == (1,)
        assert lam == 2

    def test_b2_short_root(self):
        rs = build("B2")
        character, lam = parabolic_character(rs, 1)
        assert character == (2, 4)
        wt = weight_table(rs)
        assert vec(character) == vec([lam * x for x in wt.dual[1]])

    @pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "F4", "G2", "A2xA1"])
    def test_always_positive_multiple(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for a in range(rs.rank):
            character, lam = parabolic_character(rs, a)
            assert lam > 0
            assert vec(character) == vec([lam * x for x in wt.dual[a]])

    @pytest.mark.parametrize(
        "row",
        [(2, 2), (-2, -1), (0, 1)],
        ids=["not-proportional", "negative-multiple", "zero-on-alpha"],
    )
    def test_a_row_that_is_no_positive_multiple_raises(self, row):
        # The character of alpha_1 in A2 is (2, 1) = 3 * (2/3, 1/3); each
        # forged row is over the table's denominator 3. The forged table
        # goes into the memo of a fresh system, never into the shared
        # instance of `build`.
        wt = weight_table(build("A2"))
        rs = from_gramm(build("A2").gramm)
        den, rows = wt.integer_dual
        assert den == 3
        broken = dataclasses.replace(wt, integer_dual=(den, {**rows, 0: row}))
        rs._memo[("weight_table", (0, 1))] = broken
        with pytest.raises(NotProportional):
            parabolic_character(rs, 0)


class TestRescaling:
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_weighted_dual_weights_are_scale_free(self, data):
        spec = data.draw(st.sampled_from(["A2", "B2", "G2", "A3", "A2xB2", "F4"]))
        rs = build(spec)
        factors = [
            data.draw(st.fractions(min_value=Q(1, 7), max_value=7, max_denominator=7))
            for _ in rs.dynkin_components
        ]
        scaled = rescale_components(rs, factors)
        base = weight_table(rs)
        after = weight_table(scaled)
        assert after.weighted == base.weighted
        # w and d each pick up the inverse factor.
        factor_of = {}
        for comp, f in zip(rs.dynkin_components, factors):
            for i in comp:
                factor_of[i] = f
        for a in range(rs.rank):
            assert after.d[a] == base.d[a] / factor_of[a]

    def test_invalid_factors(self):
        rs = build("A2")
        with pytest.raises(ValueError):
            rescale_components(rs, [1, 1])
        with pytest.raises(ValueError):
            rescale_components(rs, [0])


def _cartan(gramm, order):
    return [[2 * gramm.at(i, j) / gramm.at(j, j) for j in order] for i in order]


def brute_force_type(gramm):
    """Independent oracle: first catalogue type, in classifier order, whose
    Cartan matrix equals the block's under some permutation."""
    n = gramm.rows
    target = _cartan(gramm, range(n))
    for letter in "ABCDEFG":
        try:
            seed = build([(letter, n)]).gramm
        except InvalidRank:
            continue
        for perm in permutations(range(n)):
            if _cartan(seed, perm) == target:
                return (letter, n)
    return None


def connected_blocks(letter, rank):
    rs = build([(letter, rank)])
    gramm = rs.gramm
    for k in range(1, rank + 1):
        for subset in combinations(range(rank), k):
            if is_connected_subset(rs.cartan, subset):
                yield gramm.submatrix(subset, subset)


class TestClassification:
    @pytest.mark.parametrize("letter,rank", CATALOGUE)
    def test_connected_subdiagrams_reindexed(self, letter, rank):
        rng = random.Random(f"{letter}{rank}")
        oracle = {}
        for block in connected_blocks(letter, rank):
            got = classify_irreducible(block)
            assert got is not None
            order = list(range(block.rows))
            rng.shuffle(order)
            assert classify_irreducible(block.submatrix(order, order)) == got
            if block.rows <= 6:
                if block.entries not in oracle:
                    oracle[block.entries] = brute_force_type(block)
                assert got == oracle[block.entries]

    @pytest.mark.parametrize("letter,rank", [(l, r) for l, r in CATALOGUE if r <= 6])
    def test_catalogue_round_trip(self, letter, rank):
        rs = build([(letter, rank)])
        got = classify_irreducible(rs.gramm)
        if (letter, rank) in {("B", 2), ("C", 2)}:
            assert got in {("B", 2), ("C", 2)}
        elif (letter, rank) in {("A", 3), ("D", 3)}:
            assert got in {("A", 3), ("D", 3)}
        else:
            assert got == (letter, rank)

    def test_f4_double_bond_is_short_long_pair(self):
        rs = build("F4")
        sub, mapping = subsystem(rs, [1, 2])
        assert mapping == (1, 2)
        assert sub.components[0] in {("B", 2), ("C", 2)}

    def test_subsystem_of_chain(self):
        rs = build("A3")
        sub, mapping = subsystem(rs, [0, 1])
        assert sub.components == (("A", 2),)
        assert sub.gramm == QMatrix.from_rows([[2, -1], [-1, 2]])

    def test_empty_subsystem(self):
        rs = build("A2")
        sub, mapping = subsystem(rs, [])
        assert sub.rank == 0 and mapping == ()


class TestMemo:
    def test_build_shares_one_instance_per_spec(self):
        assert build("B2xA1") is build([("b", 2), ("A", 1)])
        assert build("A2") is not build("A3")

    def test_memo_is_invisible(self):
        plain = from_gramm(build("B3").gramm)
        used = from_gramm(build("B3").gramm)
        weight_table(used)
        subsystem(used, [0, 1])
        relative_torus(used, [0, 1, 2], [1])
        assert used._memo and not plain._memo
        assert used == plain
        assert hash(used) == hash(plain)
        assert repr(used) == repr(plain)
        assert pickle.dumps(used) == pickle.dumps(plain)
        restored = pickle.loads(pickle.dumps(used))
        assert restored == used and restored._memo == {}

    def test_cached_values_are_shared(self):
        rs = from_gramm(build("G2").gramm)
        assert weight_table(rs) is weight_table(rs)

    def test_rescaled_system_starts_empty(self):
        rs = build("A2xB2")
        before = weight_table(rs)
        scaled = rescale_components(rs, [2, 3])
        assert scaled._memo == {}
        assert weight_table(scaled).d != before.d
