"""Parabolic subset lattice: kernels, coroot spans, and their inclusions."""

import itertools
import random
from fractions import Fraction as Q

import pytest

from rootcones import parabolic, suites
from rootcones.errors import PreconditionViolated, SubsetViolation, UnknownRoot
from rootcones.linalg import (
    full_space,
    intersect,
    is_direct_sum,
    is_subspace,
    kernel,
    span,
    unit_vec,
    vec,
    vec_scale,
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
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


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
        assert datum.a_I == full_space(2)
        assert datum.a_upper.dim == 0
        assert datum.relative.dual == {}

    def test_full_subset(self):
        rs = build("A2")
        datum = make_datum(rs, [0, 1])
        assert datum.a_I.dim == 0
        assert datum.a_upper == full_space(2)
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


class TestRelativeTorus:
    def test_extreme_subsets(self):
        rs = build("A3")
        assert relative_torus(rs, range(3), []) == full_space(3)

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
        w = vec_scale(Q(2) / v[1], v)
        assert w == vec([-1, 2])
        assert w == coroot_vector(rs, 1)

    def test_subset_violation(self):
        rs = build("A3")
        with pytest.raises(SubsetViolation):
            relative_torus(rs, [0], [1])


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


class TestTrivialLemma:
    def test_rank_one_vacuous(self):
        assert verify_trivial(build("A1"), 0)

    def test_rank_two_chain(self):
        assert verify_trivial(build("A2"), 0)

    @pytest.mark.parametrize("spec", ["A4", "B3", "C3", "D4", "F4", "G2", "E6"])
    def test_sweep(self, spec):
        rs = build(spec)
        wt = weight_table(rs)
        for alpha in range(rs.rank):
            assert verify_trivial(rs, alpha, wt)


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


def fresh(spec):
    """A system with an empty memo, not the instance `build` shares."""
    return from_gramm(build(spec).gramm)


class TestMemo:
    def test_sweep_computes_each_torus_once(self, monkeypatch):
        rs = fresh("D4")
        intersections = []
        pairs = []
        real_intersect = parabolic.intersect
        real_torus = parabolic.relative_torus

        def counting_intersect(s1, s2):
            intersections.append((s1, s2))
            return real_intersect(s1, s2)

        def recording_torus(rs_, upper, lower):
            pairs.append((tuple(sorted(upper)), tuple(sorted(lower))))
            return real_torus(rs_, upper, lower)

        monkeypatch.setattr(parabolic, "intersect", counting_intersect)
        monkeypatch.setattr(parabolic, "relative_torus", recording_torus)
        monkeypatch.setattr(suites, "build", lambda spec: rs)
        rows = suites.run_parabolic("D4")
        assert all(row["status"] == "pass" for row in rows)
        assert len(set(pairs)) == 3 ** 4  # every J inside I inside {0..3}
        assert len(pairs) > 10 * len(set(pairs))
        assert len(intersections) == len(set(pairs))

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
