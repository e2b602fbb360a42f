"""Verification sweeps behind the command line.

Each suite maps to a worker function that takes a system spec plus caps
and returns report rows. Workers are pure and picklable, so the driver
can fan them out over a process pool; rows are reassembled in task order
to keep reports deterministic.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor

from . import certify, parabolic, roots
from .linalg import QMatrix, invert
from .roots import build, weight_table

SUITE_NAMES = (
    "gramm-inverse",
    "identity-2d",
    "lemma64",
    "theorem61-constructive",
    "theorem61-rays",
    "lemma65",
    "lemma66",
    "parabolic-lemmas",
    "chi-proportionality",
    "controls",
)

ANCHORS = {
    "gramm-inverse": "Eq2-3",
    "identity-2d": "Eq5",
    "lemma64": "Lem6.4",
    "theorem61-constructive": "Thm6.1",
    "theorem61-rays": "Thm6.1",
    "lemma65": "Lem6.5",
    "lemma66": "Lem6.6",
    "parabolic-lemmas": "Sec3.2",
    "chi-proportionality": "Chi-prop",
    "controls": "Thm6.1-control",
}

RANK_CAPS = {
    "gramm-inverse": 8,
    "identity-2d": 8,
    "lemma64": 6,
    "theorem61-constructive": 5,
    "theorem61-rays": 5,
    "lemma65": 8,
    "lemma66": 8,
    "parabolic-lemmas": 5,
    "chi-proportionality": 8,
    "controls": 3,
}

PARABOLIC_EXTRAS = ("A1xA1", "A2xA1", "A2xA2", "B2xA1")


def irreducible_catalogue(max_rank: int) -> list[str]:
    """Spec strings of all irreducible types up to a rank bound."""
    out = []
    for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        out += [f"{letter}{n}" for n in range(lo, max_rank + 1)]
    out += [f"E{n}" for n in (6, 7, 8) if n <= max_rank]
    if max_rank >= 4:
        out.append("F4")
    if max_rank >= 2:
        out.append("G2")
    return out


def systems_for(suite: str, max_rank: int | None, explicit: list[str] | None):
    if explicit is not None:
        return list(explicit)
    cap = RANK_CAPS[suite]
    if max_rank is not None:
        cap = min(cap, max_rank)
    if suite == "controls":
        return [s for s in ("A2", "A3") if int(s[1]) <= cap]
    catalogue = irreducible_catalogue(cap)
    if suite == "parabolic-lemmas":
        catalogue += [
            spec
            for spec in PARABOLIC_EXTRAS
            if sum(int(p[1]) for p in spec.split("x")) <= cap
        ]
    return catalogue


def _row(suite, system, status, alpha=None, subset=None, route=None, detail=""):
    return {
        "suite": suite,
        "anchor": ANCHORS[suite],
        "system": system,
        "alpha": alpha,
        "subset": subset,
        "route": route,
        "status": status,
        "detail": detail,
    }


def _labels(rs, indices):
    return [i + 1 for i in indices]


def _subsets(universe, max_size=None):
    universe = list(universe)
    top = len(universe) if max_size is None else min(max_size, len(universe))
    for r in range(top + 1):
        yield from itertools.combinations(universe, r)


def run_gramm_inverse(spec: str) -> list[dict]:
    rs = build(spec)
    wt = weight_table(rs)
    ginv = invert(rs.gramm)
    ok = rs.gramm.mul(ginv) == QMatrix.identity(rs.rank)
    ok = ok and QMatrix.from_rows(wt.dual) == ginv
    detail = "inverse exact; dual-weight matrix equals inverse Gramm"
    return [_row("gramm-inverse", spec, "pass" if ok else "fail", detail=detail)]


def run_identity_2d(spec: str) -> list[dict]:
    rs = build(spec)
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        ok = roots.check_2d_identity(rs, wt, alpha)
        ok = ok and roots.roundtrip_simple_root(rs, wt, alpha)
        ok = ok and sum(wt.weighted[alpha]) == 1
        rows.append(
            _row(
                "identity-2d",
                spec,
                "pass" if ok else "fail",
                alpha=alpha + 1,
                detail="coefficient-sum identity and expansion round trip",
            )
        )
    return rows


def run_lemma64(spec: str, max_subset_size: int | None = None) -> list[dict]:
    rs = build(spec)
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        for subset in _subsets(range(rs.rank), max_subset_size):
            try:
                exp = certify.expand_coefficients(rs, wt, alpha, subset)
                ok = certify.expansion_mass_identity(exp, wt)
                detail = "signs and mass identity hold"
            except AssertionError as err:
                ok = False
                detail = str(err)
            rows.append(
                _row(
                    "lemma64",
                    spec,
                    "pass" if ok else "fail",
                    alpha=alpha + 1,
                    subset=_labels(rs, subset),
                    detail=detail,
                )
            )
    return rows


def run_theorem61(
    spec: str, route: str, max_subset_size: int | None = None
) -> list[dict]:
    rs = build(spec)
    wt = weight_table(rs)
    suite = f"theorem61-{route}"
    rows = []
    for alpha in range(rs.rank):
        others = [i for i in range(rs.rank) if i != alpha]
        for subset in _subsets(others, max_subset_size):
            cone = certify.theorem_cone(rs, wt, alpha, subset)
            try:
                if route == "constructive":
                    cert = certify.verify_theorem61_constructive(
                        rs, wt, alpha, subset
                    )
                else:
                    cert = certify.verify_theorem61_rays(cone)
                ok = cert.kind == "conic_combination"
                ok = ok and certify.validate_certificate(cone, cert)
                detail = certify.certificate_to_dict(cone, cert)
            except (certify.CertificateFailure, AssertionError) as err:
                ok = False
                detail = str(err)
            rows.append(
                _row(
                    suite,
                    spec,
                    "pass" if ok else "fail",
                    alpha=alpha + 1,
                    subset=_labels(rs, subset),
                    route=route,
                    detail=detail,
                )
            )
    return rows


def run_lemma65(spec: str) -> list[dict]:
    rs = build(spec)
    ok = certify.verify_lemma65(rs)
    count = sum(1 for _ in certify.connected_induced_subsets(rs))
    return [
        _row(
            "lemma65",
            spec,
            "pass" if ok else "fail",
            detail=f"{count} connected subdiagrams classified",
        )
    ]


def run_lemma66(spec: str) -> list[dict]:
    rs = build(spec)
    ok = certify.verify_lemma66(rs)
    return [
        _row(
            "lemma66",
            spec,
            "pass" if ok else "fail",
            detail="inverse Gramm entries strictly positive",
        )
    ]


def run_parabolic(spec: str) -> list[dict]:
    rs = build(spec)
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
    rows.append(
        _row("parabolic-lemmas", spec, "pass" if ok else "fail",
             route="inc", detail=f"{checked} nested pairs")
    )

    checked = 0
    ok = True
    for i1 in _subsets(range(n)):
        for i2 in _subsets(i1):
            for i3 in _subsets(i2):
                checked += 1
                if not parabolic.verify_tori(rs, i3, i2, i1):
                    ok = False
                dims_add = (
                    parabolic.relative_torus(rs, i1, i3).dim
                    == parabolic.relative_torus(rs, i2, i3).dim
                    + parabolic.relative_torus(rs, i1, i2).dim
                )
                if not dims_add:
                    ok = False
    rows.append(
        _row("parabolic-lemmas", spec, "pass" if ok else "fail",
             route="tori", detail=f"{checked} chains with dim additivity")
    )

    ok = all(parabolic.verify_trivial(rs, alpha, wt) for alpha in range(n))
    rows.append(
        _row("parabolic-lemmas", spec, "pass" if ok else "fail",
             route="trivial", detail=f"{n} roots")
    )

    checked = 0
    ok = True
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
    rows.append(
        _row("parabolic-lemmas", spec, "pass" if ok else "fail",
             route="discon", detail=f"{checked} admissible triples")
    )
    return rows


def run_chi(spec: str) -> list[dict]:
    rs = build(spec)
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
        rows.append(
            _row(
                "chi-proportionality",
                spec,
                "pass" if ok else "fail",
                alpha=alpha + 1,
                detail=detail,
            )
        )
    return rows


def run_controls(spec: str, max_subset_size: int | None = None) -> list[dict]:
    """Hypothesis-dropping sweeps: violations are the expected outcome.

    Emits one row per found violating ray. Whether every dropped
    constraint kind is witnessed somewhere is a joint property of the
    whole sweep, so the driver adds that summary across systems.
    """
    rs = build(spec)
    wt = weight_table(rs)
    rows = []
    for alpha in range(rs.rank):
        others = [i for i in range(rs.rank) if i != alpha]
        for subset in _subsets(others, max_subset_size):
            cone_full = certify.theorem_cone(rs, wt, alpha, subset)
            drops = ["ordering-family", "positivity"]
            drops += [
                label
                for label in cone_full.inequality_labels
                if label.startswith("ordering:")
            ]
            for drop in drops:
                cone = certify.theorem_cone(rs, wt, alpha, subset, drop=drop)
                cert = certify.verify_theorem61_rays(cone)
                if cert.kind == "violating_ray":
                    valid = certify.validate_certificate(cone, cert)
                    rows.append(
                        _row(
                            "controls",
                            spec,
                            "expected-violation" if valid else "fail",
                            alpha=alpha + 1,
                            subset=_labels(rs, subset),
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
    summary = _row(
        "controls",
        "ALL",
        "pass" if ok else "fail",
        route="joint-summary",
        detail=detail,
    )
    summary["wall_time"] = 0.0
    return summary


_WORKERS = {
    "gramm-inverse": run_gramm_inverse,
    "identity-2d": run_identity_2d,
    "lemma64": run_lemma64,
    "lemma65": run_lemma65,
    "lemma66": run_lemma66,
    "parabolic-lemmas": run_parabolic,
    "chi-proportionality": run_chi,
    "controls": run_controls,
}


def _run_task(task: tuple[str, str, int | None]) -> list[dict]:
    suite, spec, max_subset_size = task
    start = time.perf_counter()
    if suite.startswith("theorem61-"):
        rows = run_theorem61(spec, suite.split("-", 1)[1], max_subset_size)
    elif suite in ("lemma64", "controls"):
        rows = _WORKERS[suite](spec, max_subset_size)
    else:
        rows = _WORKERS[suite](spec)
    elapsed = round(time.perf_counter() - start, 6)
    for row in rows:
        row["wall_time"] = elapsed
    return rows


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """fn applied to every task, in task order.

    Runs in this process unless more than one worker would be busy; the
    pool never gets more workers than tasks or CPUs, since each starts up
    front.
    """
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, tasks))
    return [fn(task) for task in tasks]


def run_verification(
    suites: list[str],
    systems: list[str] | None = None,
    max_rank: int | None = None,
    jobs: int = 1,
    max_subset_size: int | None = None,
) -> tuple[list[dict], bool]:
    """Run the selected suites; returns (rows, all_passed).

    max_subset_size filters the subset sweeps (lemma64, theorem61-*,
    controls) to subsets of at most that size.
    """
    for name in suites:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}")
    tasks = []
    for suite in suites:
        for spec in systems_for(suite, max_rank, systems):
            tasks.append((suite, spec, max_subset_size))
    results = map_tasks(_run_task, tasks, jobs)
    rows = [row for chunk in results for row in chunk]
    if any(task[0] == "controls" for task in tasks):
        rows.append(_controls_joint_summary(rows))
    ok = all(row["status"] != "fail" for row in rows)
    return rows, ok
