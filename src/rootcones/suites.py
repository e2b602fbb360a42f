"""Verification sweeps behind the command line.

Each suite maps to a worker function that takes a built system plus the
subset cap and returns report rows. Workers are pure and picklable, so
the driver can fan them out over a process pool; rows are reassembled in
task order to keep reports deterministic.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Callable, NamedTuple

from . import certify, parabolic, roots
from .errors import InvariantViolation
from .linalg import QMatrix, invert
from .roots import RootSystem, build, weight_table

PARABOLIC_EXTRAS = ("A1xA1", "A2xA1", "A2xA2", "B2xA1")


def irreducible_catalogue(max_rank: int) -> list[str]:
    """Spec strings of all irreducible types up to a rank bound, in the
    letter order of `roots._RANK_BOUNDS` (the order of default reports)."""
    return [
        f"{letter}{n}"
        for letter, (lo, hi) in roots._RANK_BOUNDS.items()
        for n in range(lo, min(max_rank, hi or max_rank) + 1)
    ]


def systems_for(suite: str, max_rank: int | None, explicit: list[str] | None):
    """The explicit systems, else the suite's defaults up to total rank max_rank."""
    if explicit is not None:
        return list(explicit)
    return [
        spec
        for spec in SUITES[suite].systems
        if max_rank is None or sum(n for _, n in roots.parse_spec(spec)) <= max_rank
    ]


def _result(status, alpha=None, subset=None, route=None, detail=""):
    """A worker's row: everything but the suite, anchor and system."""
    return dict(alpha=alpha, subset=subset, route=route, status=status, detail=detail)


def _row(suite, system, result):
    """A report row: `result` stamped with its suite, anchor and system."""
    return {"suite": suite, "anchor": SUITES[suite].anchor, "system": system, **result}


def _labels(indices):
    return [i + 1 for i in indices]


def _subsets(universe, max_size=None):
    universe = list(universe)
    top = len(universe) if max_size is None else min(max_size, len(universe))
    for r in range(top + 1):
        yield from itertools.combinations(universe, r)


def run_gramm_inverse(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    wt = weight_table(rs)
    ginv = invert(rs.gramm)
    n = rs.rank
    identity = tuple(int(i == j) for i in range(n) for j in range(n))
    ok = rs.gramm.mul(ginv).entries == identity
    ok = ok and QMatrix.from_rows([wt.dual[i] for i in range(rs.rank)]) == ginv
    detail = "inverse exact; dual-weight matrix equals inverse Gramm"
    return [_result("pass" if ok else "fail", detail=detail)]


def run_identity_2d(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    wt = weight_table(rs)
    detail = "coefficient-sum identity and expansion round trip"
    rows = []
    for alpha in range(rs.rank):
        ok = roots.check_2d_identity(rs, wt, alpha)
        ok = ok and roots.roundtrip_simple_root(rs, wt, alpha)
        ok = ok and sum(wt.weighted[alpha]) == 1
        rows.append(_result("pass" if ok else "fail", alpha=alpha + 1, detail=detail))
    return rows


def run_lemma64(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        for subset in _subsets(range(rs.rank), max_subset_size):
            try:
                exp = certify.expand_coefficients(rs, wt, alpha, subset)
                ok = certify.expansion_mass_identity(exp, wt)
                detail = "signs and mass identity hold"
            except InvariantViolation as err:
                ok = False
                detail = str(err)
            rows.append(
                _result(
                    "pass" if ok else "fail",
                    alpha=alpha + 1,
                    subset=_labels(subset),
                    detail=detail,
                )
            )
    return rows


def run_theorem61(
    rs: RootSystem, route: str, max_subset_size: int | None = None
) -> list[dict]:
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        others = [i for i in range(rs.rank) if i != alpha]
        for subset in _subsets(others, max_subset_size):
            cone = certify.theorem_cone(rs, wt, alpha, subset)
            try:
                if route == "constructive":
                    # Validated against the cone inside the route.
                    cert = certify.verify_theorem61_constructive(
                        rs, wt, alpha, subset, cone
                    )
                else:
                    # The enumeration is the evidence: no multipliers.
                    cert = certify.verify_theorem61_rays(cone)
                ok = cert.kind == "conic_combination"
                detail = certify.certificate_to_dict(cone, cert)
            except (certify.CertificateFailure, InvariantViolation) as err:
                ok = False
                detail = str(err)
            rows.append(
                _result(
                    "pass" if ok else "fail",
                    alpha=alpha + 1,
                    subset=_labels(subset),
                    route=route,
                    detail=detail,
                )
            )
    return rows


def run_lemma65(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    ok = certify.verify_lemma65(rs)
    count = sum(1 for _ in certify.connected_induced_subsets(rs))
    detail = f"{count} connected subdiagrams classified"
    return [_result("pass" if ok else "fail", detail=detail)]


def run_lemma66(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    ok = certify.verify_lemma66(rs)
    detail = "inverse Gramm entries strictly positive"
    return [_result("pass" if ok else "fail", detail=detail)]


def run_parabolic(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    """The four Section 3.2 lemma rows of one system.

    The `tori` row covers every chain I3 inside I2 inside I1, 4^rank of
    them, but loops over the 3^rank pairs (I, J). `verify_tori` decides a
    chain as the AND of the block bits of its pairs (I1, I3), (I2, I3)
    and (I1, I2), so every chain passes when every pair bit holds; and
    each pair (I, J) is the (I1, I3) pair of the chain (J, J, I), so a
    false bit fails some chain. Every chain passes exactly when every
    pair bit holds. Acceptance test 06 asks `verify_tori` about every
    chain, as the oracle for this shortcut.

    A broken torus construction (`InvariantViolation`) fails the row of
    the route that met it, with the error as the detail.
    """
    wt = weight_table(rs)
    n = rs.rank
    rows = []

    checked = 0
    ok = True
    for upper in _subsets(range(n)):
        for lower in _subsets(upper):
            checked += 1
            if not parabolic.verify_inc(rs, lower, upper):
                ok = False
    detail = f"{checked} nested pairs"
    rows.append(_result("pass" if ok else "fail", route="inc", detail=detail))

    detail = f"{4 ** n} chains with dim additivity"
    try:
        ok = all(
            parabolic._block_is_nonsingular(rs, upper, lower)
            for upper in _subsets(range(n))
            for lower in _subsets(upper)
        )
    except InvariantViolation as err:
        ok = False
        detail = str(err)
    rows.append(_result("pass" if ok else "fail", route="tori", detail=detail))

    ok = all(parabolic.verify_trivial(rs, alpha, wt) for alpha in range(n))
    detail = f"{n} roots"
    rows.append(_result("pass" if ok else "fail", route="trivial", detail=detail))

    checked = 0
    ok = True
    try:
        for alpha in range(n):
            comp = set(rs.component_of(alpha))
            for subset_i in _subsets([i for i in range(n) if i != alpha]):
                remainder = set(range(n)) - set(subset_i) - {alpha}
                if remainder & comp:
                    continue  # connected: hypothesis of the statement fails
                for subset_j in _subsets(range(n)):
                    checked += 1
                    if not parabolic.verify_discon(rs, alpha, subset_i, subset_j):
                        ok = False
        detail = f"{checked} admissible triples"
    except InvariantViolation as err:
        ok = False
        detail = str(err)
    rows.append(_result("pass" if ok else "fail", route="discon", detail=detail))
    return rows


def run_chi(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        try:
            _, lam = roots.parabolic_character(rs, alpha, wt)
            ok = lam > 0
            detail = f"lambda={lam}"
        except roots.NotProportional as err:
            ok = False
            detail = str(err)
        rows.append(_result("pass" if ok else "fail", alpha=alpha + 1, detail=detail))
    return rows


def run_controls(rs: RootSystem, max_subset_size: int | None = None) -> list[dict]:
    """Hypothesis-dropping sweeps: violations are the expected outcome.

    Emits one row per found violating ray. Whether every dropped
    constraint kind is witnessed somewhere is a joint property of the
    whole sweep, so the driver adds that summary across systems.
    """
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        others = [i for i in range(rs.rank) if i != alpha]
        for subset in _subsets(others, max_subset_size):
            # One ordering inequality per root outside I, as in
            # `theorem_cone`, except alpha's own: its row is the zero
            # vector, so dropping it leaves the cone as it is.
            drops = ["ordering-family", "positivity"]
            drops += [
                f"ordering:{gamma + 1}"
                for gamma in range(rs.rank)
                if gamma not in subset and gamma != alpha
            ]
            for drop in drops:
                cone = certify.theorem_cone(rs, wt, alpha, subset, drop=drop)
                cert = certify.verify_theorem61_rays(cone)
                if cert.kind == "violating_ray":
                    valid = certify.validate_certificate(cone, cert)
                    rows.append(
                        _result(
                            "expected-violation" if valid else "fail",
                            alpha=alpha + 1,
                            subset=_labels(subset),
                            route=f"drop:{drop}",
                            detail=certify.certificate_to_dict(cone, cert),
                        )
                    )
    return rows


def _controls_joint_summary(rows: list[dict]) -> dict:
    """One row asserting every dropped-constraint kind was witnessed."""
    witnessed = {"ordering-family": 0, "positivity": 0, "ordering-single": 0}
    for row in rows:
        if row["suite"] != "controls" or row["status"] != "expected-violation":
            continue
        drop = row["route"].removeprefix("drop:")
        if drop == "ordering-family":
            witnessed["ordering-family"] += 1
        elif drop == "positivity":
            witnessed["positivity"] += 1
        else:
            witnessed["ordering-single"] += 1
    ok = all(v > 0 for v in witnessed.values())
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(witnessed.items()))
    return _row(
        "controls",
        "ALL",
        _result("pass" if ok else "fail", route="joint-summary", detail=detail),
    )


class Suite(NamedTuple):
    """A suite's paper anchor, default systems and worker.

    The default systems are the spec strings a run sweeps when none are
    given, in report order; `--max-rank` keeps those of total rank at most
    its value.

    Every worker takes (rs, max_subset_size): the system the task built
    from its spec, and the subset cap, which only the subset sweeps use.
    It returns its rows without the suite, anchor and system; `_run_task`
    adds those.
    """

    anchor: str
    systems: tuple[str, ...]
    worker: Callable[[RootSystem, int | None], list[dict]]


_RANK_8 = tuple(irreducible_catalogue(8))
_RANK_5 = tuple(irreducible_catalogue(5))

SUITES = {
    "gramm-inverse": Suite("Eq2-3", _RANK_8, run_gramm_inverse),
    "identity-2d": Suite("Eq5", _RANK_8, run_identity_2d),
    "lemma64": Suite("Lem6.4", tuple(irreducible_catalogue(6)), run_lemma64),
    "theorem61-constructive": Suite(
        "Thm6.1", _RANK_5, lambda rs, cap: run_theorem61(rs, "constructive", cap)
    ),
    "theorem61-rays": Suite(
        "Thm6.1", _RANK_5, lambda rs, cap: run_theorem61(rs, "rays", cap)
    ),
    "lemma65": Suite("Lem6.5", _RANK_8, run_lemma65),
    "lemma66": Suite("Lem6.6", _RANK_8, run_lemma66),
    "parabolic-lemmas": Suite("Sec3.2", _RANK_8 + PARABOLIC_EXTRAS, run_parabolic),
    "chi-proportionality": Suite("Chi-prop", _RANK_8, run_chi),
    "controls": Suite("Thm6.1-control", ("A2", "A3"), run_controls),
}

SUITE_NAMES = tuple(SUITES)


def _run_task(task: tuple[str, str, int | None]) -> tuple[list[dict], dict]:
    """A task's rows and its timing record.

    A broken internal invariant fails the whole task as one row, so the
    report is still written and the run exits 1, not as bad input.
    """
    suite, spec, max_subset_size = task
    start = time.perf_counter()
    try:
        results = SUITES[suite].worker(build(spec), max_subset_size)
    except InvariantViolation as err:
        results = [_result("fail", detail=str(err))]
    rows = [_row(suite, spec, result) for result in results]
    elapsed = round(time.perf_counter() - start, 6)
    return rows, {"suite": suite, "system": spec, "wall_time": elapsed}


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn applied to every task, in task order.

    Runs in this process unless more than one worker would be busy; the
    pool never gets more workers than tasks or CPUs, since each starts up
    front.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # Imported here: a run in this process never pays for the pool.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def run_verification(
    suites: list[str],
    systems: list[str] | None = None,
    max_rank: int | None = None,
    jobs: int = 1,
    max_subset_size: int | None = None,
) -> tuple[list[dict], bool, list[dict]]:
    """Run the selected suites; returns (rows, all_passed, task_times).

    task_times holds one {"suite", "system", "wall_time"} record per
    (suite, system) task, in task order.

    max_subset_size filters the subset sweeps (lemma64, theorem61-*,
    controls) to subsets of at most that size.
    """
    for name in suites:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    tasks = []
    for suite in suites:
        for spec in systems_for(suite, max_rank, systems):
            tasks.append((suite, spec, max_subset_size))
    results = map_tasks(_run_task, tasks, jobs)
    rows = [row for chunk, _ in results for row in chunk]
    if any(task[0] == "controls" for task in tasks):
        rows.append(_controls_joint_summary(rows))
    ok = all(row["status"] != "fail" for row in rows)
    return rows, ok, [timing for _, timing in results]
