"""Trace generation, divergence assertions, and the induction replay."""

import dataclasses
import itertools
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import vec

from rootcones import linalg
from rootcones import simulate as sim
from rootcones.errors import (
    BranchMismatch,
    DivergenceFailure,
    PreconditionViolated,
)
from rootcones.linalg import contains, solve
from rootcones.parabolic import relative_torus, relative_weight_table, verify_discon
from rootcones.roots import build, connected_to, from_gramm, subsystem
from rootcones.simulate import (
    assert_divergence,
    check_admissibility,
    generate_trace,
    make_trace,
    replay_induction,
    selection_is_feasible,
    trace_from_dict,
    trace_to_dict,
    _level_data,
)


def component(trace, l):
    """Level l's component (0-based) at n = 1: slope times line."""
    line = _level_data(trace.rs, trace.selection).lines[l]
    return tuple(trace.slopes[l] * x for x in line)


def all_selections(rank, max_len=None):
    max_len = rank if max_len is None else max_len
    for length in range(1, max_len + 1):
        yield from itertools.permutations(range(rank), length)


class TestRankTwoChainByHand:
    """The worked two-level example on the rank-two chain."""

    def setup_method(self):
        self.rs = build("A2")

    def test_lines_and_admissible_slopes(self):
        data = _level_data(self.rs, (0, 1))
        assert data.lines == ((1, 0), (-1, 2))
        trace = make_trace(self.rs, (0, 1), [2, Q(1, 2)], horizon=6)
        ok, problems = check_admissibility(trace)
        assert ok, problems
        assert trace.n0 == 1
        # Component values: (2n, 0) and (-n/2, n); tails (3n/2, n).
        assert component(trace, 0) == vec([2, 0])
        assert component(trace, 1) == vec([Q(-1, 2), 1])
        assert trace.theta(1, 1) == vec([Q(3, 2), 1])
        assert trace.theta(1, 4) == vec([6, 4])

    def test_divergence_slopes(self):
        trace = make_trace(self.rs, (0, 1), [2, Q(1, 2)], horizon=6)
        report = assert_divergence(trace)
        assert report["roots"]["alpha_1"]["slope"] == Q(3, 2)
        assert report["roots"]["alpha_2"]["slope"] == 1
        assert report["base_case_exact"]

    def test_naive_trace_is_inadmissible(self):
        # Components (n, 0) then (-n/2, n) break the level-one ordering.
        trace = make_trace(self.rs, (0, 1), [1, Q(1, 2)], horizon=6)
        ok, problems = check_admissibility(trace)
        assert not ok
        assert trace.n0 is None
        assert any("ordering" in p for p in problems)
        with pytest.raises(PreconditionViolated):
            assert_divergence(trace)

    def test_tampered_n0_is_reported(self):
        admissible = make_trace(self.rs, (0, 1), [2, Q(1, 2)], horizon=6)
        naive = make_trace(self.rs, (0, 1), [1, Q(1, 2)], horizon=6)
        for trace, forged in ((admissible, None), (naive, 1)):
            tampered = dataclasses.replace(trace, n0=forged)
            ok, problems = check_admissibility(tampered)
            assert not ok
            assert any(p.startswith("recorded n0=") for p in problems)

    def test_generator_never_emits_the_naive_slopes(self):
        # Cone containment is the proof; sampling is the regression.
        data = _level_data(self.rs, (0, 1))
        naive = (Q(1), Q(1, 2))
        assert any(
            sum(row[m] * naive[m] for m in range(2)) < 0
            for row, _ in data.constraint_rows
        )
        for seed in range(300):
            trace = generate_trace(self.rs, (0, 1), horizon=3, seed=seed)
            assert trace.slopes != naive
            ok, problems = check_admissibility(trace)
            assert ok, problems

    def test_connected_induction_branch(self):
        trace = make_trace(self.rs, (0, 1), [2, Q(1, 2)], horizon=6)
        report = replay_induction(trace, 0)
        assert report["branch"] == "connected"
        assert all(report["checks"].values())
        # Conclusion by hand at n=1: alpha_1(theta)=3/2, weighted=4/3.
        assert trace.theta(1, 1)[0] == Q(3, 2)

    def test_single_level_trace_has_no_induction(self):
        trace = generate_trace(self.rs, (0,), horizon=4, seed=1)
        report = replay_induction(trace, 0)
        assert report["vacuous"]


class TestGeneration:
    @pytest.mark.parametrize("spec", ["A1", "A2", "B2", "G2", "A3", "A2xA1"])
    def test_all_selections_generate_admissible_traces(self, spec):
        rs = build(spec)
        for selection in all_selections(rs.rank):
            if not selection_is_feasible(rs, selection):
                continue
            trace = generate_trace(rs, selection, horizon=5, seed=11)
            ok, problems = check_admissibility(trace)
            assert ok, (spec, selection, problems)
            assert_divergence(trace)

    def test_small_selections_are_feasible(self):
        for spec in ["A1", "A2", "B2", "G2", "A3", "B3", "A2xA1"]:
            rs = build(spec)
            for selection in all_selections(rs.rank):
                assert selection_is_feasible(rs, selection), (spec, selection)

    def test_determinism(self):
        rs = build("B3")
        a = generate_trace(rs, (0, 2), horizon=7, seed=42)
        b = generate_trace(rs, (0, 2), horizon=7, seed=42)
        assert a == b
        c = generate_trace(rs, (0, 2), horizon=7, seed=43)
        assert c != a

    def test_zero_horizon(self):
        rs = build("A2")
        trace = generate_trace(rs, (0, 1), horizon=0, seed=5)
        report = assert_divergence(trace)
        assert report["roots"] == {}

    def test_invalid_selection(self):
        rs = build("A2")
        with pytest.raises(ValueError):
            generate_trace(rs, (0, 0), horizon=3, seed=0)
        with pytest.raises(ValueError):
            generate_trace(rs, (), horizon=3, seed=0)

    def test_infeasible_selection_is_reported(self, monkeypatch):
        # No natural example exists at small rank (every selection scan
        # came back feasible), so stub the cone to starve one level.
        import dataclasses

        from rootcones import simulate as sim
        from rootcones.errors import InfeasibleSelection

        rs = build("A2")
        real = _level_data(rs, (0, 1))
        starved = dataclasses.replace(
            real, rays=tuple((r[0], 0) for r in real.rays)
        )
        monkeypatch.setattr(sim, "_level_data", lambda *a: starved)
        with pytest.raises(InfeasibleSelection, match="level 2"):
            sim.generate_trace(rs, (0, 1), horizon=3, seed=0)

    def test_failed_divergence_is_loud(self):
        rs = build("A2")
        # Zero slope on the second level: its root never grows.
        trace = make_trace(rs, (0, 1), [1, 0], horizon=5)
        assert trace.n0 == 1  # constraints hold, growth does not
        ok, problems = check_admissibility(trace)
        assert not ok and any("grow" in p for p in problems)
        with pytest.raises(DivergenceFailure):
            assert_divergence(trace)


SELECTIONS = [
    (spec, selection)
    for spec in ("A2", "B2", "G2", "A3")
    for selection in all_selections(build(spec).rank)
]


class TestRecordedStartIndex:
    @settings(max_examples=200, deadline=None)
    @given(
        choice=st.sampled_from(SELECTIONS),
        slopes=st.lists(st.integers(-6, 6), min_size=4, max_size=4),
        horizon=st.integers(0, 6),
    )
    def test_n0_matches_the_per_index_scan(self, choice, slopes, horizon):
        spec, selection = choice
        trace = make_trace(
            build(spec), selection, slopes[: len(selection)], horizon
        )
        _, problems = check_admissibility(trace)
        assert not any(p.startswith("recorded n0=") for p in problems), problems
        assert trace.n0 in (1, None)


def rational_functionals(rs, selection):
    """Each constraint as (label, level, weighted functional), in row order.

    Rebuilt from the relative weight tables, independently of the stored
    constraint rows.
    """
    subsets = [tuple(range(rs.rank))]
    for root in selection:
        subsets.append(tuple(i for i in subsets[-1] if i != root))
    out = []
    for l, sel in enumerate(selection, start=1):
        weighted = relative_weight_table(rs, subsets[l - 1]).weighted
        out.append((f"level{l}:positivity", l, weighted[sel]))
        for other in selection[l:]:
            diff = tuple(a - b for a, b in zip(weighted[sel], weighted[other]))
            out.append((f"level{l}:ordering:alpha_{other + 1}", l, diff))
    return out


def rational_row(functional, level, lines):
    """The functional's value on each level's line; zero below its level."""
    return tuple(
        sum((a * b for a, b in zip(functional, line)), Q(0)) if m >= level else Q(0)
        for m, line in enumerate(lines, start=1)
    )


class TestIntegerSlopeSpace:
    """Integer rows and integer slopes decide exactly as plain Fractions."""

    @pytest.mark.parametrize("spec,selection", SELECTIONS)
    @settings(max_examples=40, deadline=None)
    @given(
        slopes=st.lists(
            st.builds(Q, st.integers(-12, 12), st.integers(1, 7)),
            min_size=4,
            max_size=4,
        ),
        horizon=st.integers(0, 6),
    )
    def test_fractional_slopes_match_a_fraction_oracle(
        self, spec, selection, slopes, horizon
    ):
        rs = build(spec)
        trace = make_trace(rs, selection, slopes[: len(selection)], horizon)
        functionals = rational_functionals(rs, selection)
        lines = _level_data(rs, trace.selection).lines

        def violations(n):
            out = []
            for label, level, functional in functionals:
                theta = [Q(0)] * rs.rank
                for line, slope in zip(lines[level - 1 :], trace.slopes[level - 1 :]):
                    for i, x in enumerate(line):
                        theta[i] += n * slope * x
                value = sum((a * b for a, b in zip(functional, theta)), Q(0))
                if value < 0:
                    out.append(f"{label} fails at n={n}")
            return out

        n0 = None
        for n in range(horizon, 0, -1):
            if violations(n):
                break
            n0 = n
        expected = violations(horizon) if n0 is None and horizon > 0 else []
        assert trace.n0 == n0
        _, problems = check_admissibility(trace)
        assert [p for p in problems if " fails at n=" in p] == expected
        assert not any(p.startswith("recorded n0=") for p in problems), problems

    @pytest.mark.parametrize("spec", ["A2", "B2", "G2", "A3", "B3"])
    def test_rows_are_positive_multiples_of_the_functionals(self, spec):
        rs = build(spec)
        for selection in all_selections(rs.rank):
            data = _level_data(rs, selection)
            functionals = rational_functionals(rs, selection)
            assert [label for label, _, _ in functionals] == [
                label for _, label in data.constraint_rows
            ]
            for (label, level, functional), (row, _) in zip(
                functionals, data.constraint_rows
            ):
                expected = rational_row(functional, level, data.lines)
                assert all(type(x) is int for x in row), (spec, selection, label)
                if all(x == 0 for x in expected):
                    assert all(x == 0 for x in row), (spec, selection, label)
                    continue
                pivot = next(j for j, x in enumerate(expected) if x != 0)
                factor = Q(row[pivot]) / expected[pivot]
                assert factor > 0, (spec, selection, label)
                assert tuple(factor * x for x in expected) == row, (spec, selection, label)


class TestInductionReplay:
    def test_disconnected_branch_inside_a_chain(self):
        # Selecting the middle root first disconnects the ends.
        rs = build("A3")
        trace = generate_trace(rs, (1, 0, 2), horizon=5, seed=3)
        report = replay_induction(trace, 0)
        assert report["branch"] == "disconnected"
        assert all(report["checks"].values())

    def test_component_crossing_branch(self):
        rs = build("A2xA1")
        for selection in [(2, 0, 1), (0, 2, 1), (0, 1, 2)]:
            trace = generate_trace(rs, selection, horizon=5, seed=9)
            for depth in range(len(selection) - 1):
                report = replay_induction(trace, depth)
                assert all(report["checks"].values()), (selection, depth, report)

    def test_every_depth_of_full_chains(self):
        for spec in ["A3", "B3", "G2"]:
            rs = build(spec)
            for selection in all_selections(rs.rank, rs.rank):
                if len(selection) != rs.rank:
                    continue
                if not selection_is_feasible(rs, selection):
                    continue
                trace = generate_trace(rs, selection, horizon=4, seed=17)
                for depth in range(len(selection) - 1):
                    report = replay_induction(trace, depth)
                    assert all(report["checks"].values()), (spec, selection, depth)

    def test_out_of_range_depth_is_vacuous(self):
        rs = build("A2")
        trace = generate_trace(rs, (0, 1), horizon=3, seed=0)
        assert replay_induction(trace, 5)["vacuous"]
        assert replay_induction(trace, -1)["vacuous"]


def fraction_tail(trace, level):
    """Sum of slope times line over the levels from `level` up, in Fractions.

    The lines are read through `sim._level_data`, so a patched level data
    reaches this oracle as it reaches the code under test.
    """
    lines = sim._level_data(trace.rs, trace.selection).lines
    tail = [Q(0)] * trace.rs.rank
    for line, slope in zip(lines[level - 1 :], trace.slopes[level - 1 :]):
        for i, x in enumerate(line):
            tail[i] += slope * x
    return tuple(tail)


def fraction_replay(trace, depth):
    """The induction replay on Fraction tails, kept as a test oracle.

    tau is fraction_tail(trace, j); each membership is a `contains` on the
    torus and each later root k gets its own `solve` over the low and high
    tori.
    """
    levels = trace.levels
    r = levels - 1
    if depth < 0 or depth > r - 1:
        return {"depth": depth, "vacuous": True, "checks": {}}
    rs = trace.rs
    subsets = [tuple(range(rs.rank))]
    for root in trace.selection:
        subsets.append(tuple(i for i in subsets[-1] if i != root))
    lines = sim._level_data(rs, trace.selection).lines
    j = r - depth
    alpha = trace.selection[j - 1]
    ambient = subsets[j - 1]
    later = list(trace.selection[j:])
    final_subset = subsets[-1]
    sub_rs, mapping = subsystem(rs, ambient)
    to_local = {amb: loc for loc, amb in enumerate(mapping)}
    connected = connected_to(sub_rs, to_local[alpha], [to_local[t] for t in later])
    checks = {}
    checks["kernel_bookkeeping"] = all(lines[m][alpha] == 0 for m in range(j - 1))
    tau = fraction_tail(trace, j)
    own_slope, own_line = trace.slopes[j - 1], lines[j - 1]
    report = {
        "depth": depth,
        "level": j,
        "alpha": rs.root_label(alpha),
        "branch": "connected" if connected else "disconnected",
        "vacuous": False,
        "checks": checks,
    }
    if not connected:
        checks["evaluation_equality"] = tau[alpha] == own_slope * own_line[alpha]
        checks["kernel_subspace"] = verify_discon(
            sub_rs,
            to_local[alpha],
            [to_local[t] for t in final_subset],
            [to_local[t] for t in subsets[j]],
        )
        tail = tuple(t - own_slope * x for t, x in zip(tau, own_line))
        checks["tail_membership"] = contains(
            relative_torus(rs, subsets[j], final_subset), tail
        )
        if not all(checks.values()):
            raise DivergenceFailure(f"disconnected branch fails: {checks}")
        return report
    weighted = relative_weight_table(rs, ambient).weighted
    if any(tau[i] != 0 for i in final_subset):
        raise BranchMismatch("tail does not vanish on the final subset")
    walpha = sum((a * b for a, b in zip(weighted[alpha], tau)), Q(0))
    checks["hypotheses"] = walpha >= 0 and all(
        walpha >= sum((a * b for a, b in zip(weighted[g], tau)), Q(0))
        for g in later
    )
    if not checks["hypotheses"]:
        raise BranchMismatch("domination hypotheses fail on an admissible trace")
    checks["conclusion"] = tau[alpha] >= walpha
    decomposition_ok = True
    membership = contains(relative_torus(rs, ambient, final_subset), tau)
    for k in later:
        reduced = tuple(t for t in ambient if t != k)
        low = relative_torus(rs, reduced, final_subset)
        high = relative_torus(rs, ambient, reduced)
        coeffs = solve(list(low.basis) + list(high.basis), tau)
        if coeffs is None:
            decomposition_ok = False
            continue
        c_part = [Q(0)] * rs.rank
        for x, basis_vec in zip(coeffs[low.dim :], high.basis):
            for idx, val in enumerate(basis_vec):
                c_part[idx] += x * val
        lhs = sum((a * b for a, b in zip(weighted[k], tau)), Q(0))
        rhs = sum((a * b for a, b in zip(weighted[k], c_part)), Q(0))
        if lhs != rhs:
            decomposition_ok = False
    checks["theta_membership"] = membership
    checks["decomposition_bookkeeping"] = decomposition_ok
    if not all(checks.values()):
        raise DivergenceFailure(f"connected branch fails: {checks}")
    return report


def fraction_divergence(trace):
    """`assert_divergence` with the slopes read from fraction_tail(trace, 1)."""
    slopes = fraction_tail(trace, 1)
    labels = [trace.rs.root_label(root) for root in trace.selection]
    series = {
        label: [n * slopes[root] for n in range(1, trace.horizon + 1)]
        for label, root in zip(labels, trace.selection)
    }
    report = {"horizon": trace.horizon, "n0": trace.n0, "roots": {}, "series": series}
    if trace.horizon == 0:
        report["base_case_exact"] = True
        return report
    if trace.n0 is None:
        raise PreconditionViolated("trace is not admissible at any index")
    for label, root in zip(labels, trace.selection):
        if not slopes[root] > 0:
            raise DivergenceFailure(f"{label} fails to diverge: series={series[label]}")
        report["roots"][label] = {"slope": slopes[root], "final": series[label][-1]}
    last = trace.selection[-1]
    last_line = sim._level_data(trace.rs, trace.selection).lines[-1]
    report["base_case_exact"] = slopes[last] == trace.slopes[-1] * last_line[last]
    if not report["base_case_exact"]:
        raise DivergenceFailure("last-selected root sees foreign contributions")
    return report


def outcome(fn, *args):
    """The result, or the (exception class, message) raised."""
    try:
        return fn(*args)
    except Exception as err:
        return (type(err), str(err))


def assert_same_as_oracle(trace):
    for depth in range(-1, trace.levels):
        expected = outcome(fraction_replay, trace, depth)
        assert outcome(replay_induction, trace, depth) == expected, (
            trace.rs.spec, trace.selection, depth
        )
    expected = outcome(fraction_divergence, trace)
    assert outcome(assert_divergence, trace) == expected, trace.selection


ORACLE_SPECS = ("A2", "B2", "G2", "A3", "B3", "A2xA1")
ORACLE_SELECTIONS = [
    (spec, selection)
    for spec in ORACLE_SPECS
    for selection in all_selections(build(spec).rank)
]


class TestReplayOracle:
    """Integer replay and divergence against the Fraction oracle above."""

    # D4 has a branch node and A1xA1xA1 three components.
    @pytest.mark.parametrize("spec", ORACLE_SPECS + ("D4", "A1xA1xA1"))
    def test_generated_traces(self, spec):
        rs = build(spec)
        for selection in all_selections(rs.rank):
            for seed in (0, 1):
                assert_same_as_oracle(generate_trace(rs, selection, 4, seed))

    @pytest.mark.parametrize("spec,selection", ORACLE_SELECTIONS)
    @settings(max_examples=12, deadline=None)
    @given(
        slopes=st.lists(
            st.builds(Q, st.integers(-12, 12), st.integers(1, 7)),
            min_size=4,
            max_size=4,
        ),
        horizon=st.integers(0, 4),
    )
    def test_signed_fractional_slopes(self, spec, selection, slopes, horizon):
        trace = make_trace(build(spec), selection, slopes[: len(selection)], horizon)
        assert_same_as_oracle(trace)

    @pytest.mark.parametrize(
        "spec,selection", [c for c in ORACLE_SELECTIONS if len(c[1]) > 1]
    )
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_lines_outside_their_tori(self, spec, selection, data):
        # A forged line in the level data moves tau off its torus, so the
        # memberships and the solvability of the decomposition can fail.
        rs = build(spec)
        trace = generate_trace(rs, selection, 4, seed=0)
        level = data.draw(st.integers(0, len(selection) - 1))
        line = data.draw(
            st.lists(st.integers(-2, 2), min_size=rs.rank, max_size=rs.rank)
        )
        real = sim._level_data
        lines = list(real(rs, trace.selection).lines)
        lines[level] = tuple(line)
        forged = dataclasses.replace(real(rs, trace.selection), lines=tuple(lines))

        def level_data(system, chosen):
            if system is rs and chosen == trace.selection:
                return forged
            return real(system, chosen)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_level_data", level_data)
            assert sim._level_data(rs, trace.selection).lines[level] == tuple(line)
            assert_same_as_oracle(trace)


def test_second_trace_of_a_selection_runs_no_elimination(monkeypatch):
    # Every rref, kernel, span, solve, invert and determinant runs
    # through the one elimination loop, so counting it counts them all.
    calls = []
    real = linalg._fraction_free_reduce

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(linalg, "_fraction_free_reduce", counted)
    rs = from_gramm(build("A3").gramm)  # a fresh memo

    def run(selection, seed):
        trace = sim.generate_trace(rs, selection, 5, seed)
        sim.assert_divergence(trace)
        for depth in range(len(selection) - 1):
            sim.replay_induction(trace, depth)

    for selection in all_selections(rs.rank):
        run(selection, seed=0)
        before = len(calls)
        run(selection, seed=1)
        assert len(calls) == before, selection
    assert calls  # the counter is wired


def test_a_trace_is_its_selection_and_slopes(monkeypatch):
    # Lines are read from the level data, never stored per trace, so
    # re-checking a trace reads no torus and decides no membership.
    rs = from_gramm(build("A3").gramm)  # a fresh memo
    traces = [
        generate_trace(rs, selection, 5, seed=0)
        for selection in all_selections(rs.rank)
        if selection_is_feasible(rs, selection)
    ]
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(real.__name__)
            return real(*args)

        return wrapper

    monkeypatch.setattr(sim, "contains", counted(sim.contains))
    monkeypatch.setattr(sim, "_relative_torus", counted(sim._relative_torus))
    for trace in traces:
        ok, problems = check_admissibility(trace)
        assert ok, (trace.selection, problems)
    assert calls == []
    replay_induction(traces[-1], 0)
    assert "contains" in calls  # the counters are wired
    fields = [f.name for f in dataclasses.fields(sim.SimTrace)]
    assert fields == ["rs", "selection", "horizon", "n0", "slopes"]


def test_replay_consults_the_splitting_check(monkeypatch):
    # A broken tori lemma must fail the decomposition check, though tau
    # still lies in its torus. Both depths of this chain are connected.
    rs = from_gramm(build("A3").gramm)  # a fresh memo
    trace = generate_trace(rs, (0, 1, 2), horizon=4, seed=0)
    monkeypatch.setattr(sim, "verify_tori", lambda *args: False)
    for depth in (0, 1):
        with pytest.raises(DivergenceFailure) as err:
            replay_induction(trace, depth)
        message = str(err.value)
        assert message.startswith("connected branch fails: ")
        assert "'decomposition_bookkeeping': False" in message
        assert "'theta_membership': True" in message


class TestSerialization:
    def test_round_trip(self):
        rs = build("B3")
        trace = generate_trace(rs, (2, 0), horizon=6, seed=21)
        data = trace_to_dict(trace)
        rebuilt = trace_from_dict(data)
        assert rebuilt == trace

    def test_tampered_line_rejected(self):
        rs = build("A2")
        trace = generate_trace(rs, (0, 1), horizon=3, seed=2)
        data = trace_to_dict(trace)
        data["levels"][0]["line"] = [5, 7]
        with pytest.raises(ValueError):
            trace_from_dict(data)
