"""Root system construction, weight tables, and character proportionality."""

import pickle
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rootcones.errors import InvalidRank, UnknownRoot
from rootcones.linalg import QMatrix, invert, unit_vec, vec
from rootcones.parabolic import relative_torus
from rootcones.roots import (
    POSITIVE_ROOT_COUNTS,
    build,
    check_2d_identity,
    classify_irreducible,
    connected_to,
    from_gramm,
    parabolic_character,
    parse_spec,
    rescale_components,
    roundtrip_simple_root,
    subsystem,
    weight_table,
)

CATALOGUE = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


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


class TestWeightTable:
    def test_rank_two_chain_by_hand(self):
        rs = build("A2")
        wt = weight_table(rs)
        assert wt.dual == (vec([Q(2, 3), Q(1, 3)]), vec([Q(1, 3), Q(2, 3)]))
        assert wt.d == (1, 1)
        assert wt.weighted[0] == vec([Q(2, 3), Q(1, 3)])

    def test_rank_one(self):
        wt = weight_table(build("A1"))
        assert wt.dual[0] == vec([Q(1, 2)])
        assert wt.d[0] == Q(1, 2)
        assert wt.weighted[0] == vec([1])

    def test_g2_masses(self):
        wt = weight_table(build("G2"))
        assert wt.d == (3, Q(5, 3))

    def test_b2_masses(self):
        wt = weight_table(build("B2"))
        assert invert(build("B2").gramm) == QMatrix.from_rows([[1, 1], [1, 2]])
        assert wt.d == (2, 3)

    @pytest.mark.parametrize("spec", ["A3", "B3", "C4", "D4", "F4", "G2", "A2xB2"])
    def test_duality_against_gramm(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        assert QMatrix.from_rows(wt.dual) == invert(rs.gramm)
        # Defining relations (w_a, b) = delta, evaluated through the Gramm.
        for a in range(rs.rank):
            pairing = rs.gramm.mul_vec(wt.dual[a])
            assert pairing == unit_vec(rs.rank, a)

    @pytest.mark.parametrize("spec", ["A1", "A4", "B3", "C3", "D4", "F4", "G2", "A2xA1"])
    def test_weighted_rows_sum_to_one(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for row in wt.weighted:
            assert sum(row) == 1

    @pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "B3", "E6"])
    def test_identity_of_coefficient_sums(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for a in range(rs.rank):
            assert check_2d_identity(rs, wt, a)

    def test_identity_hand_values(self):
        b2 = build("B2")
        wt = weight_table(b2)
        # 2*2 + (-1)*3 = 1 for the long root.
        assert b2.gramm.at(0, 0) * wt.d[0] + b2.gramm.at(0, 1) * wt.d[1] == 1
        g2 = build("G2")
        wtg = weight_table(g2)
        assert g2.gramm.at(0, 0) * wtg.d[0] + g2.gramm.at(0, 1) * wtg.d[1] == 1

    @pytest.mark.parametrize("spec", ["A2", "B3", "D4", "G2", "A2xB2"])
    def test_roundtrip_expansion(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for a in range(rs.rank):
            assert roundtrip_simple_root(rs, wt, a)

    def test_unknown_root(self):
        rs = build("A2")
        with pytest.raises(UnknownRoot):
            check_2d_identity(rs, weight_table(rs), 5)

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
            character, lam = parabolic_character(rs, a, wt)
            assert lam > 0
            assert vec(character) == vec([lam * x for x in wt.dual[a]])


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


class TestClassification:
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
        assert subsystem(rs, [1, 0]) is subsystem(rs, (0, 1))

    def test_rescaled_system_starts_empty(self):
        rs = build("A2xB2")
        before = weight_table(rs)
        scaled = rescale_components(rs, [2, 3])
        assert scaled._memo == {}
        assert weight_table(scaled).d != before.d
