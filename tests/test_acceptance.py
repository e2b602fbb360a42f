"""Acceptance suite: one test per criterion, all exact, one line each.

Every check is zero-tolerance; rank bounds follow the shipped defaults.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import json
import time
from fractions import Fraction as Q

from test_linalg import identity

from rootcones import cli
from rootcones.certify import (
    _expansion_row,
    expand_coefficients,
    expansion_mass_identity,
    theorem_cone,
    validate_certificate,
    verify_lemma66,
    verify_theorem61_constructive,
    verify_theorem61_rays,
)
from rootcones.linalg import invert
from rootcones.parabolic import (
    verify_discon,
    verify_inc,
    verify_tori,
    verify_trivial,
)
from rootcones.roots import (
    build,
    check_2d_identity,
    parabolic_character,
    rescale_components,
    roundtrip_simple_root,
    weight_table,
)
from rootcones.simulate import (
    _level_data,
    assert_divergence,
    check_admissibility,
    generate_trace,
    make_trace,
    replay_induction,
)
from rootcones.suites import irreducible_catalogue


def report(number: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({time.time() - started:.1f}s)")


def subsets_of(universe):
    universe = list(universe)
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


def all_selections(rank, max_len):
    for length in range(1, max_len + 1):
        yield from itertools.permutations(range(rank), length)


def test_01_inverse_gramm_positivity():
    started = time.time()
    for spec in irreducible_catalogue(8):
        rs = build(spec)
        ginv = invert(rs.gramm)
        assert rs.gramm.mul(ginv) == identity(rs.rank), spec
        assert all(entry > 0 for entry in ginv.entries), spec
        assert verify_lemma66(rs), spec
    report(1, "inverse-gramm-positivity", started)


def test_02_coefficient_identities():
    started = time.time()
    for spec in irreducible_catalogue(8):
        rs = build(spec)
        for alpha in range(rs.rank):
            assert check_2d_identity(rs, alpha), (spec, alpha)
            assert roundtrip_simple_root(rs, alpha), (spec, alpha)
    report(2, "coefficient-identities", started)


def test_03_expansion_signs_rank_eight():
    started = time.time()
    for spec in irreducible_catalogue(8):
        rs = build(spec)
        for alpha in range(rs.rank):
            for subset in subsets_of(range(rs.rank)):
                exp = expand_coefficients(rs, alpha, subset)
                for delta, coeff in exp.on_roots + exp.on_weights:
                    assert delta == alpha or coeff <= 0, (spec, alpha, subset)
                row = _expansion_row(rs, alpha, subset)
                assert expansion_mass_identity(rs, subset, row), (spec, alpha, subset)
    report(3, "expansion-signs-rank-eight", started)


def test_04_two_route_agreement_rank_eight():
    started = time.time()
    for spec in irreducible_catalogue(8):
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for subset in subsets_of(others):
                cone = theorem_cone(rs, alpha, subset)
                constructive = verify_theorem61_constructive(rs, alpha, subset)
                assert constructive.kind == "conic_combination"
                assert all(m >= 0 for m in constructive.inequality_multipliers)
                assert validate_certificate(cone, constructive)
                oracle = verify_theorem61_rays(cone)
                assert oracle.kind == "conic_combination", (spec, alpha, subset)
                if oracle.min_ray_objective is not None:
                    assert oracle.min_ray_objective >= 0
    report(4, "two-route-agreement-rank-eight", started)


def test_05_controls_expose_dropped_hypotheses():
    started = time.time()
    violations = {"ordering-family": 0, "positivity": 0, "ordering-single": 0}
    for spec in ("A2", "A3"):
        rs = build(spec)
        for alpha in range(rs.rank):
            others = [i for i in range(rs.rank) if i != alpha]
            for subset in subsets_of(others):
                full = theorem_cone(rs, alpha, subset)
                drops = ["ordering-family", "positivity"] + [
                    lab for lab in full.inequality_labels
                    if lab.startswith("ordering:")
                ]
                for drop in drops:
                    cone = theorem_cone(rs, alpha, subset, drop=drop)
                    cert = verify_theorem61_rays(cone)
                    if cert.kind != "violating_ray":
                        continue
                    assert validate_certificate(cone, cert), (spec, alpha, drop)
                    if drop == "ordering-family":
                        violations["ordering-family"] += 1
                    elif drop == "positivity":
                        violations["positivity"] += 1
                    else:
                        violations["ordering-single"] += 1
    assert all(count >= 1 for count in violations.values()), violations
    # The documented witness: the rank-two family drop admits (0, 1)
    # with objective exactly -1/3.
    rs = build("A2")
    cone = theorem_cone(rs, 0, [], drop="ordering-family")
    cert = verify_theorem61_rays(cone)
    assert cert.kind == "violating_ray"
    assert cert.ray == (0, 1) and cert.objective_value == Q(-1, 3)
    report(5, "controls-expose-dropped-hypotheses", started)


def test_06_parabolic_lemma_suite_rank_eight():
    started = time.time()
    specs = irreducible_catalogue(8) + ["A1xA1", "A2xA1", "A2xA2", "B2xA1"]
    for spec in specs:
        rs = build(spec)
        n = rs.rank
        for upper in subsets_of(range(n)):
            for lower in subsets_of(upper):
                assert verify_inc(rs, lower, upper), (spec, lower, upper)
        for i1 in subsets_of(range(n)):
            for i2 in subsets_of(i1):
                for i3 in subsets_of(i2):
                    assert verify_tori(rs, i3, i2, i1), (spec, i3, i2, i1)
        for alpha in range(n):
            assert verify_trivial(rs, alpha), (spec, alpha)
            comp = set(rs.component_of(alpha))
            for subset_i in subsets_of([i for i in range(n) if i != alpha]):
                if (set(range(n)) - set(subset_i) - {alpha}) & comp:
                    continue
                for subset_j in subsets_of(range(n)):
                    assert verify_discon(rs, alpha, subset_i, subset_j)
    report(6, "parabolic-lemma-suite-rank-eight", started)


def test_07_character_proportionality_rank_eight():
    started = time.time()
    for spec in irreducible_catalogue(8):
        rs = build(spec)
        wt = weight_table(rs)
        for alpha in range(rs.rank):
            character, lam = parabolic_character(rs, alpha)
            assert lam > 0
            assert tuple(character) == tuple(lam * x for x in wt.dual[alpha])
    report(7, "character-proportionality-rank-eight", started)


def test_08_scaling_invariance_hundred_draws():
    started = time.time()
    import random

    rng = random.Random(2024)
    specs = ["A3", "B3", "G2", "F4", "A2xB2xG2"]
    draws = 0
    while draws < 100:
        spec = specs[draws % len(specs)]
        rs = build(spec)
        base = weight_table(rs)
        factors = [
            Q(rng.randint(1, 60), rng.randint(1, 60))
            for _ in rs.dynkin_components
        ]
        scaled = rescale_components(rs, factors)
        after = weight_table(scaled)
        assert after.weighted == base.weighted, (spec, factors)
        draws += 1
    report(8, "scaling-invariance-hundred-draws", started)


def test_09_divergence_simulation_thousand_traces():
    started = time.time()
    specs = irreducible_catalogue(4) + ["A2xA1"]
    naive_slopes = (Q(1), Q(1, 2))
    for spec in specs:
        rs = build(spec)
        selections = list(all_selections(rs.rank, rs.rank))
        assert selections
        for t in range(1000):
            selection = selections[t % len(selections)]
            trace = generate_trace(rs, selection, horizon=8, seed=t)
            divergence = assert_divergence(trace)
            assert divergence["base_case_exact"]
            assert all(
                data["slope"] > 0 for data in divergence["roots"].values()
            )
            for depth in range(len(selection) - 1):
                outcome = replay_induction(trace, depth)
                assert all(outcome["checks"].values()), (spec, selection, depth)
            if spec == "A2" and selection == (0, 1):
                assert trace.slopes != naive_slopes
    # The known-inadmissible trace is outside the sampling cone, hence
    # never generated: its slope vector violates a constraint row.
    rs = build("A2")
    data = _level_data(rs, (0, 1))
    assert any(
        sum(row[m] * naive_slopes[m] for m in range(2)) < 0
        for row, _ in data.constraint_rows
    )
    bad = make_trace(rs, (0, 1), naive_slopes, horizon=8)
    ok, _ = check_admissibility(bad)
    assert not ok and bad.n0 is None
    report(9, "divergence-simulation-thousand-traces", started)


def test_10_simulation_reports_are_byte_identical(tmp_path, capsys):
    started = time.time()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        code = cli.main(
            [
                "simulate", "--system", "A2", "--system", "B2",
                "--seed", "7", "--horizon", "40", "--traces", "3",
                "--out", str(path),
            ]
        )
        assert code == 0
    capsys.readouterr()
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True
    report(10, "simulation-reports-byte-identical", started)
