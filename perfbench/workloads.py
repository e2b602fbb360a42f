"""The benchmark's workloads and the checks on their reports.

Each workload is one ``rootcones`` CLI invocation. The checks read only
the fields that state verdicts, never timing or the free-form ``detail``,
so a change to the rest of the report schema does not read as a failure.
References live in ``refs/<workload>.json`` and are written by
``make_refs.py`` from the code the benchmark was defined on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify" or "simulate"
    args: tuple[str, ...]

    def cli_args(self, seed: int) -> list[str]:
        args = list(self.args) + ["--jobs", "1"]
        if self.kind == "simulate":
            args += ["--seed", str(seed)]
        return args


def _systems(*specs: str) -> tuple[str, ...]:
    return tuple(arg for spec in specs for arg in ("--system", spec))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "parabolic-lattice",
            "verify",
            ("verify", "--suite", "parabolic-lemmas")
            + _systems("D4", "F4", "A2xA2", "B2xA1"),
        ),
        Workload(
            "certificates",
            "verify",
            ("verify", "--suite", "theorem61-rays", "--suite", "theorem61-constructive")
            + _systems("E6", "D6", "F4"),
        ),
        Workload(
            "simulate-traces",
            "simulate",
            ("simulate", "--horizon", "10", "--traces", "2") + _systems("A4", "B3"),
        ),
    )
}


def verdicts(kind: str, report: dict) -> list:
    """The verdict-stating fields of a report, in report order."""
    if kind == "verify":
        return [
            [r["suite"], r["system"], r["alpha"], r["subset"], r["route"], r["status"]]
            for r in report["rows"]
        ]
    out = []
    for t in report["traces"]:
        item = [t["system"], t["selection"], t["seed"], t["status"]]
        if t["status"] == "ok":
            levels = t["trace"]["levels"]
            item += [
                t["n0"],
                [level["line"] for level in levels],
                [level["slope"] for level in levels],
                {label: t["series"][label] for label in sorted(t["series"])},
            ]
        out.append(item)
    return out


def digest(items: list) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def failed_ops(kind: str, report: dict) -> int:
    """Ops whose own status says the check failed."""
    if kind == "verify":
        return sum(r["status"] == "fail" for r in report["rows"])
    return sum(t["status"] == "divergence-failure" for t in report["traces"])


def load_reference(workload: Workload) -> dict:
    with open(REFS / f"{workload.name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def make_reference(workload: Workload, reports: dict[int, dict]) -> dict:
    """Reference data from reports keyed by seed (verify: any one seed)."""
    first = next(iter(reports.values()))
    items = verdicts(workload.kind, first)
    if workload.kind == "verify":
        return {"ops": len(items), "verdicts": items}
    return {
        "ops": len(items),
        "infeasible": _infeasible(items),
        "digests": {
            str(seed): digest(verdicts(workload.kind, report))
            for seed, report in sorted(reports.items())
        },
    }


def _infeasible(items: list) -> list:
    return sorted([system, selection] for system, selection, _, status, *_ in items
                  if status == "infeasible")


def check(workload: Workload, reference: dict, report: dict, seed: int) -> list[str]:
    """Problems found in a report; an empty list means it matches."""
    try:
        items = verdicts(workload.kind, report)
    except (KeyError, TypeError) as err:
        return [f"report lacks a verdict field: {err!r}"]
    if len(items) != reference["ops"]:
        return [f"{len(items)} ops, expected {reference['ops']}"]
    if workload.kind == "verify":
        for got, want in zip(items, reference["verdicts"]):
            if got != want:
                return [f"verdict {got} differs from reference {want}"]
        return []
    problems = []
    if _infeasible(items) != reference["infeasible"]:
        problems.append("the set of infeasible selections differs from the reference")
    bad = [item[:4] for item in items if item[3] not in ("ok", "infeasible")]
    if bad:
        problems.append(f"{len(bad)} traces not ok, first {bad[0]}")
    want = reference["digests"].get(str(seed))
    if want is not None and digest(items) != want:
        problems.append(f"trace digest for seed {seed} differs from the reference")
    return problems


def score(workload: Workload, reference: dict, report: dict | None, code: int | None,
          seed: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one invocation.

    A crash, a non-zero exit or a failed check fails every op.
    """
    ops = reference["ops"]
    if report is None or code != 0:
        return ops, ops, [f"exit code {code}" if report is not None else "no report"]
    problems = check(workload, reference, report, seed)
    if problems:
        return ops, ops, problems
    return ops, failed_ops(workload.kind, report), []
