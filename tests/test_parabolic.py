"""Parabolic subset lattice: kernels, coroot spans, and their inclusions."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction as Q

import pytest
from test_linalg import gauss_jordan_rref, vec

from rootcones import linalg, parabolic, suites
from rootcones.errors import (
    InvariantViolation,
    PreconditionViolated,
    SubsetViolation,
    UnknownRoot,
)
from rootcones.linalg import (
    Subspace,
    intersect,
    kernel,
    span,
    unit_vec,
)
from rootcones.parabolic import (
    coroot_span,
    coroot_vector,
    kernel_subspace,
    make_datum,
    relative_torus,
    relative_weight_table,
    verify_discon,
    verify_inc,
    verify_tori,
    verify_trivial,
)
from rootcones.roots import build, from_gramm, subsystem, weight_table


def subsets(n):
    yield from subsets_of(range(n))


def subsets_of(universe):
    universe = tuple(universe)
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


class TestMakeDatum:
    def test_chain_of_rank_three(self):
        rs = build("A3")
        datum = make_datum(rs, [0, 1])
        assert datum.a_I.dim == 1
        assert datum.a_upper.dim == 2
        assert datum.relative.subset == (0, 1)
        # Relative system is the rank-two chain: its table matches the
        # standalone table embedded at indices 0, 1.
        a2 = weight_table(build("A2"))
        assert datum.relative.dual[0] == a2.dual[0] + (0,)
        assert datum.relative.d[0] == a2.d[0]

    def test_empty_subset(self):
        rs = build("A2")
        datum = make_datum(rs, [])
        assert datum.a_I == Subspace(2, ((1, 0), (0, 1)))
        assert datum.a_upper.dim == 0
        assert datum.relative.dual == {}

    def test_full_subset(self):
        rs = build("A2")
        datum = make_datum(rs, [0, 1])
        assert datum.a_I.dim == 0
        assert datum.a_upper == Subspace(2, ((1, 0), (0, 1)))
        ambient = weight_table(rs)
        assert datum.relative.dual[0] == ambient.dual[0]
        assert datum.relative.d == {0: ambient.d[0], 1: ambient.d[1]}

    def test_relative_table_depends_only_on_subset(self):
        # The same chain pattern inside different ambient systems yields
        # the same relative weights on the shared indices.
        for spec, subset in [("A3", (0, 1)), ("A4", (0, 1)), ("B4", (0, 1))]:
            rel = relative_weight_table(build(spec), subset)
            a2 = weight_table(build("A2"))
            for local, amb in enumerate(subset):
                assert rel.d[amb] == a2.d[local]
                trimmed = tuple(rel.dual[amb][: len(subset)])
                assert trimmed == a2.dual[local]


def subsystem_route_table(rs, subset):
    """The weight table of the subsystem on a subset, built as a separate
    root system from its Gramm block and embedded at the subset.

    Returns (dual, d, weighted) as plain dicts keyed by ambient index.
    """
    dual, d, weighted = {}, {}, {}
    if not subset:
        return dual, d, weighted
    table = weight_table(from_gramm(rs.gramm.submatrix(subset, subset)))
    for local, amb in enumerate(subset):
        row = [Q(0)] * rs.rank
        for local_j, amb_j in enumerate(subset):
            row[amb_j] = table.dual[local][local_j]
        dual[amb] = tuple(row)
        d[amb] = table.d[local]
        weighted[amb] = tuple(x / table.d[local] for x in row)
    return dual, d, weighted


ORACLE_SYSTEMS = suites.irreducible_catalogue(5) + ["E6"] + list(suites.PARABOLIC_EXTRAS)


def assert_read_only(mapping, key):
    with pytest.raises(TypeError):
        mapping[key] = None


class TestWeightTableOracle:
    """One table per subset agrees with the subsystem route it replaced."""

    @pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
    def test_every_subset_matches_the_subsystem_route(self, spec):
        rs = build(spec)
        for subset in subsets(rs.rank):
            table = relative_weight_table(rs, subset)
            assert table.subset == subset
            assert (table.dual, table.d, table.weighted) == subsystem_route_table(
                rs, subset
            )
            # The defining relations (w_a, b) = delta on the Gramm block.
            for a in subset:
                assert all(table.dual[a][j] == 0 for j in range(rs.rank) if j not in subset)
                for b in subset:
                    pairing = sum(
                        (rs.gramm.at(b, j) * table.dual[a][j] for j in range(rs.rank)), Q(0)
                    )
                    assert pairing == (a == b)
        assert relative_weight_table(rs, range(rs.rank)) is weight_table(rs)

    @pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
    def test_integer_rows_are_den_times_weighted(self, spec):
        rs = build(spec)
        for subset in subsets(rs.rank):
            table = relative_weight_table(rs, subset)
            den, rows = table.integer_weighted
            assert den == math.lcm(
                *(x.denominator for row in table.weighted.values() for x in row)
            )
            assert set(rows) == set(subset)
            for a, row in rows.items():
                assert all(type(x) is int for x in row)
                assert row == tuple(den * x for x in table.weighted[a])

    @pytest.mark.parametrize("spec", ["A3", "B2xA1", "G2"])
    def test_table_and_derived_rows_are_read_only(self, spec):
        rs = build(spec)
        for subset in subsets(rs.rank):
            table = relative_weight_table(rs, subset)
            with pytest.raises(dataclasses.FrozenInstanceError):
                table.dual = {}
            for a in subset:
                for mapping in (table.dual, table.d, table.weighted,
                                table.differences, table.differences[a],
                                table.objectives, table.integer_dual[1],
                                table.integer_d[1], table.integer_weighted[1]):
                    assert_read_only(mapping, a)
                for row in (table.dual[a], table.weighted[a], table.objectives[a],
                            table.differences[a][subset[0]], table.integer_dual[1][a]):
                    assert isinstance(row, tuple)


class TestRelativeTorus:
    def test_extreme_subsets(self):
        rs = build("A3")
        assert relative_torus(rs, range(3), []) == Subspace(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_dimension_formula(self):
        rs = build("A3")
        assert relative_torus(rs, [0, 1], [0]).dim == 1

    def test_coroot_line_evaluation(self):
        rs = build("A2")
        line = relative_torus(rs, [1], [])
        assert line.dim == 1
        v = line.basis[0]
        # Normalize so the second coordinate is 2: this is the coroot
        # image, on which the first root evaluates to -1.
        w = tuple(Q(2) / v[1] * x for x in v)
        assert w == vec([-1, 2])
        assert w == coroot_vector(rs, 1)

    def test_subset_violation(self):
        rs = build("A3")
        with pytest.raises(SubsetViolation):
            relative_torus(rs, [0], [1])

    @pytest.mark.parametrize("spec", ["B3", "E8"])
    def test_coroot_vectors_are_ints(self, spec):
        rs = build(spec)
        for alpha in range(rs.rank):
            v = coroot_vector(rs, alpha)
            assert all(type(x) is int for x in v)
            g = rs.gramm
            assert v == tuple(
                2 * g.at(j, alpha) / g.at(alpha, alpha) for j in range(rs.rank)
            )


class TestInclusionLemma:
    def test_reflexive(self):
        rs = build("B3")
        for subset in subsets(3):
            assert verify_inc(rs, subset, subset)

    def test_chain_case(self):
        assert verify_inc(build("A3"), [0], [0, 1])

    def test_sampled_chains(self):
        rs = build("D4")
        rng = random.Random(11)
        for _ in range(100):
            upper = tuple(sorted(rng.sample(range(4), rng.randint(0, 4))))
            lower = tuple(
                sorted(i for i in upper if rng.random() < 0.5)
            )
            assert verify_inc(rs, lower, upper)

    def test_violation(self):
        with pytest.raises(SubsetViolation):
            verify_inc(build("A2"), [1], [0])


class TestToriLemma:
    def test_degenerate_chain(self):
        rs = build("A3")
        assert verify_tori(rs, [0], [0], [0, 1])

    def test_dimension_split(self):
        rs = build("A3")
        s = relative_torus(rs, [0, 1], [])
        assert s.dim == 2
        assert verify_tori(rs, [], [0], [0, 1])

    def test_exhaustive_rank_three(self):
        rs = build("B3")
        for i1 in subsets(3):
            set1 = set(i1)
            for i2 in subsets(3):
                if not set(i2) <= set1:
                    continue
                for i3 in subsets(3):
                    if not set(i3) <= set(i2):
                        continue
                    assert verify_tori(rs, i3, i2, i1)
                    assert (
                        relative_torus(rs, i1, i3).dim
                        == relative_torus(rs, i2, i3).dim
                        + relative_torus(rs, i1, i2).dim
                    )

    def test_subset_violation(self):
        with pytest.raises(SubsetViolation):
            verify_tori(build("A3"), [2], [0], [0, 1])

    @pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
    def test_pair_bits_match_the_direct_sum(self, spec):
        # 10,196 triples over all these systems.
        rs = fresh(spec)
        checked = 0
        for i1 in subsets(rs.rank):
            for i2 in subsets_of(i1):
                for i3 in subsets_of(i2):
                    checked += 1
                    expected = is_direct_sum(
                        relative_torus(rs, i2, i3),
                        relative_torus(rs, i1, i2),
                        relative_torus(rs, i1, i3),
                    )
                    assert verify_tori(rs, i3, i2, i1) == expected, (i3, i2, i1)
        assert checked == 4 ** rs.rank

    def test_a_singular_pair_block_fails_the_tori_row(self):
        # The right dimension, but zero on the coordinate of I minus J.
        rs = fresh("A3")
        rs._memo[("relative_torus", (0, 1), (0,))] = Subspace(3, ((0, 0, 1),))
        rows = suites.run_parabolic(rs)
        status = {row["route"]: row["status"] for row in rows}
        assert status["tori"] == "fail"
        assert status["inc"] == status["trivial"] == "pass"

    def test_a_torus_of_the_wrong_dimension_fails_the_tori_row(self):
        # The (I1, I3) bit's square-block test is the dimension check of
        # a^{I1}_{I3}: a plane where a^{0,1,2} is three-dimensional.
        rs = fresh("A3")
        rs._memo[("relative_torus", (0, 1, 2), ())] = Subspace(3, ((1, 0, 0), (0, 1, 0)))
        rows = suites.run_parabolic(rs)
        status = {row["route"]: row["status"] for row in rows}
        assert status["tori"] == "fail"
        assert status["inc"] == status["trivial"] == "pass"


    def test_a_wrong_parent_torus_fails_the_tori_row_through_its_children(self):
        # a^{0,1,2}_{(0,)} seeded as a line, and its own pair bit seeded
        # as passing: the row can then fail only through the children,
        # which the cut builds from this parent.
        rs = fresh("A3")
        rs._memo[("relative_torus", (0, 1, 2), (0,))] = Subspace(3, ((0, 1, 0),))
        rs._memo[("torus_block", (0, 1, 2), (0,))] = True
        rows = suites.run_parabolic(rs)
        status = {row["route"]: row["status"] for row in rows}
        detail = {row["route"]: row["detail"] for row in rows}
        assert status["tori"] == "fail"
        assert detail["tori"] == "relative torus of (0, 1) in (0, 1, 2) has dimension 0"
        assert status["inc"] == status["trivial"] == "pass"


class TestHyperplaneCut:
    @pytest.mark.parametrize("spec", ORACLE_SYSTEMS)
    def test_every_cut_equals_the_zassenhaus_intersection(self, spec):
        rs = fresh(spec)
        for upper in subsets(rs.rank):
            for lower in subsets_of(upper):
                assert relative_torus(rs, upper, lower) == intersect(
                    coroot_span(rs, upper), kernel_subspace(rs, lower)
                ), (upper, lower)

    def test_e6_takes_one_span_per_pair_and_no_intersection(self, monkeypatch):
        rs = fresh("E6")
        spans = []
        intersections = []
        real_span = parabolic.span

        def counting_span(n, vectors):
            spans.append(n)
            return real_span(n, vectors)

        def counting_intersect(s1, s2):
            intersections.append((s1, s2))
            return intersect(s1, s2)

        monkeypatch.setattr(parabolic, "span", counting_span)
        monkeypatch.setattr(linalg, "intersect", counting_intersect)
        monkeypatch.setattr(parabolic, "intersect", counting_intersect, raising=False)
        pairs = [(upper, lower) for upper in subsets(6) for lower in subsets_of(upper)]
        for upper, lower in pairs:
            assert relative_torus(rs, upper, lower).dim == len(upper) - len(lower)
        assert len(pairs) == 3 ** 6
        assert intersections == []
        assert len(spans) == len(pairs)

    def test_a_parent_inside_the_hyperplane_raises(self):
        # No parent vector has a nonzero j entry, so the cut keeps the
        # whole parent and the dimension check refuses it.
        rs = fresh("A3")
        rs._memo[("relative_torus", (0, 1), ())] = Subspace(3, ((1, 0, 0), (0, 0, 1)))
        with pytest.raises(InvariantViolation, match=r"of \(1,\) in \(0, 1\) has dimension 2"):
            relative_torus(rs, [0, 1], [1])


class TestTrivialLemma:
    def test_rank_one_vacuous(self):
        assert verify_trivial(build("A1"), 0)

    def test_rank_two_chain(self):
        assert verify_trivial(build("A2"), 0)

    @pytest.mark.parametrize("spec", ["A4", "B3", "C3", "D4", "F4", "G2", "E6"])
    def test_sweep(self, spec):
        rs = build(spec)
        for alpha in range(rs.rank):
            assert verify_trivial(rs, alpha)


class TestDisconLemma:
    def test_component_crossing(self):
        rs = build("A2xA1")
        # alpha is the isolated root; I empty exhausts its component.
        assert verify_discon(rs, 2, [], [0, 1, 2])

    def test_zero_subspace_case(self):
        rs = build("A2xA1")
        # (I + alpha) covers J, so the subspace is zero.
        assert verify_discon(rs, 2, [0, 1], [0, 1, 2])

    def test_two_chains(self):
        rs = build("A2xA2")
        assert verify_discon(rs, 0, [1], [0, 2])

    def test_connected_raises(self):
        rs = build("A2")
        with pytest.raises(PreconditionViolated):
            verify_discon(rs, 0, [], [0, 1])

    def test_alpha_inside_i_raises(self):
        rs = build("A2xA1")
        with pytest.raises(PreconditionViolated):
            verify_discon(rs, 2, [2], [0])

    def test_exhaustive_small_products(self):
        for spec in ["A1xA1", "A2xA1", "A2xA2", "B2xA1"]:
            rs = build(spec)
            n = rs.rank
            for alpha in range(n):
                comp = set(rs.component_of(alpha))
                for subset_i in subsets(n):
                    if alpha in subset_i:
                        continue
                    remainder = set(range(n)) - set(subset_i) - {alpha}
                    if remainder & comp:
                        continue  # hypothesis fails; covered elsewhere
                    for subset_j in subsets(n):
                        assert verify_discon(rs, alpha, subset_i, subset_j)


class TestParaShadow:
    def test_nested_tori_inclusions(self):
        # For J in I in I' the relative torus grows with the upper set and
        # splits off the connecting factor.
        rs = build("B3")
        for iprime in subsets(3):
            for i in subsets(3):
                if not set(i) <= set(iprime):
                    continue
                for j in subsets(3):
                    if not set(j) <= set(i):
                        continue
                    small = relative_torus(rs, i, j)
                    large = relative_torus(rs, iprime, j)
                    assert is_subspace(small, large)
                    connecting = relative_torus(rs, iprime, i)
                    assert is_direct_sum(small, connecting, large)


def is_subspace(inner, outer):
    """Independent oracle: adjoining inner's basis keeps outer's rank."""
    return len(gauss_jordan_rref(outer.basis + inner.basis)[1]) == outer.dim


def is_direct_sum(s1, s2, target):
    """Independent oracle: the joint basis of s1 and s2 is independent and
    has target's reduced echelon form (plain Gauss-Jordan, no Bareiss)."""
    joint = s1.basis + s2.basis
    reduced = gauss_jordan_rref(joint)
    return len(reduced[1]) == len(joint) and reduced == gauss_jordan_rref(target.basis)


def fresh(spec):
    """A system with an empty memo, not the instance `build` shares."""
    return from_gramm(build(spec).gramm)


class TestMemo:
    def test_sweep_computes_each_torus_once(self, monkeypatch):
        # A memoised value is computed only when its key is missing, so
        # each memo entry is one computation.
        rs = fresh("D4")
        pairs = []
        real_torus = parabolic.relative_torus

        def recording_torus(rs_, upper, lower):
            pairs.append((tuple(sorted(upper)), tuple(sorted(lower))))
            return real_torus(rs_, upper, lower)

        monkeypatch.setattr(parabolic, "relative_torus", recording_torus)
        rows = suites.run_parabolic(rs)
        assert all(row["status"] == "pass" for row in rows)

        def entries(kind):
            return [key[1:] for key in rs._memo if key[0] == kind]

        assert len(set(pairs)) == 3 ** 4  # every J inside I inside {0..3}
        assert len(entries("torus_block")) == 3 ** 4  # one splitting bit per pair
        assert set(entries("relative_torus")) == set(pairs)

    @pytest.mark.parametrize("spec", ["B3", "G2", "A2xA1"])
    def test_memoised_spaces_equal_direct_ones(self, spec):
        rs = fresh(spec)
        n = rs.rank
        for upper in subsets(n):
            a_upper = span(n, [coroot_vector(rs, i) for i in upper])
            for _ in range(2):  # computed, then served from the memo
                assert coroot_span(rs, upper) == a_upper
                assert kernel_subspace(rs, upper) == kernel(
                    n, [unit_vec(n, i) for i in upper]
                )
            for lower in subsets(n):
                if not set(lower) <= set(upper):
                    continue
                direct = intersect(
                    a_upper, kernel(n, [unit_vec(n, i) for i in lower])
                )
                assert relative_torus(rs, upper, lower) == direct
                assert relative_torus(rs, upper, lower) == direct

    def test_bad_index_raises_after_caching(self):
        rs = fresh("A3")
        for subset in subsets(3):
            kernel_subspace(rs, subset)
            coroot_span(rs, subset)
            relative_weight_table(rs, subset)
            relative_torus(rs, subset, ())
        for call in (
            lambda: kernel_subspace(rs, [0, 3]),
            lambda: coroot_span(rs, [-1]),
            lambda: relative_weight_table(rs, [5]),
            lambda: relative_torus(rs, [0, 1, 3], [0]),
            lambda: relative_torus(rs, [0, 1], [7]),
            lambda: subsystem(rs, [0, 4]),
        ):
            with pytest.raises(UnknownRoot):
                call()

    def test_cached_weight_table_is_read_only(self):
        rel = relative_weight_table(build("A3"), [0, 1])
        with pytest.raises(TypeError):
            rel.d[0] = Q(7)
        assert relative_weight_table(build("A3"), (1, 0)) is rel
