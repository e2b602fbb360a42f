"""Command-line front end: inspect systems, run sweeps, replay traces.

Exit codes: 0 when everything passed, 1 when a verification or
divergence check failed, 2 for usage and configuration errors. Reports
are JSON (default) or CSV; simulation reports contain no timing data,
so identical configuration and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .errors import RootconesError
from .parabolic import make_datum, parabolic_datum_to_dict
from .roots import (
    RootSystem,
    build,
    parse_spec,
    root_system_to_dict,
    weight_table,
    weight_table_to_dict,
)
from .simulate import (
    assert_divergence,
    generate_trace,
    replay_induction,
    trace_to_dict,
)
from .suites import SUITE_NAMES, SUITES, map_tasks, run_verification

SCHEMA_VERSION = 1
_INFINITY = float("inf")
# Chunks `_write_json` gathers before it joins and writes them.
_FLUSH_CHUNKS = 4096


@dataclass
class RunConfig:
    # None means "not given": verify falls back to per-suite defaults,
    # while an explicit empty list is a vacuous sweep.
    systems: list[str] | None = None
    suites: list[str] = field(default_factory=list)
    max_rank: int | None = None
    max_subset_size: int | None = None
    seed: int = 0
    horizon: int = 50
    traces: int = 1
    selection: list[int] | None = None
    out: str | None = None
    format: str = "json"
    jobs: int = 1

    def validate(self) -> None:
        if self.out == "":
            raise ValueError("out must be a nonempty path")
        if self.format not in ("json", "csv"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.traces < 1:
            raise ValueError("traces must be at least 1")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max-rank must be at least 1")
        if self.max_subset_size is not None and self.max_subset_size < 0:
            raise ValueError("max-subset-size must be nonnegative")
        if self.selection == []:
            raise ValueError("selection must contain at least one root")
        if self.selection is not None and any(v < 1 for v in self.selection):
            raise ValueError("selection needs 1-based root indices")


# A RunConfig field's declared type, less any "| None" -> (the JSON type
# its config value must have, the type of each item of a list, what the
# two require). A JSON true or false is not an integer.
_TYPE_CHECKS = {
    "int": (int, None, "an integer"),
    "str": (str, None, "a string"),
    "list[int]": (list, int, "a list of integers"),
    "list[str]": (list, str, "a list of strings"),
}

# Config key -> its field's entry of _TYPE_CHECKS; a field of a type the
# table lacks fails at import.
CONFIG_TYPES = {
    f.name: _TYPE_CHECKS[f.type.removesuffix(" | None")] for f in fields(RunConfig)
}


def _load_config_file(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - CONFIG_TYPES.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in sorted(data.items()):
        kind, item, wanted = CONFIG_TYPES[key]
        if type(value) is not kind or (item and any(type(x) is not item for x in value)):
            raise ValueError(
                f"config key {key!r} must be {wanted}, got {json.dumps(value)}"
            )
    return data


def _merge(args: argparse.Namespace) -> RunConfig:
    """The run's configuration: flags over config-file values over defaults.

    A config key applies only where the subcommand's parser has a flag
    for it: any other is a value the subcommand would never read, or one
    that would fill a positional argument, and is refused.
    """
    file_values = _load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in sorted(file_values):
        if key not in args.flags:
            raise ValueError(f"config key {key!r} does not apply to {args.command}")
    config = RunConfig()
    for key in CONFIG_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(config, key, flag)
        elif key in file_values:
            setattr(config, key, file_values[key])
    config.validate()
    return config


def _parse_selection(text: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError as err:
        raise ValueError(f"bad selection {text!r}: {err}") from None


def _refuse_repeats(kind: str, names: list[str] | None, key=str) -> None:
    """Refuse a suite or system named twice: it would run once per mention."""
    seen = set()
    for name in names or ():
        if key(name) in seen:
            raise ValueError(f"{kind} {name!r} is given more than once")
        seen.add(key(name))


def _systems(config: RunConfig, suites: Iterable[str] = ()) -> list[tuple]:
    """Each named system, built once, and the selection's 0-based roots or None.

    A system named twice is refused first. Then each system, in
    command-line order, is checked against `--max-rank`, the irreducible
    suites among `suites` and the selection, before any task or report.
    """
    _refuse_repeats("system", config.systems, parse_spec)
    irreducible_only = [s for s in suites if s in SUITES and SUITES[s].irreducible]
    selection = config.selection
    roots = None if selection is None else tuple(v - 1 for v in selection)
    systems = []
    for spec in config.systems or ():
        rs = build(spec)
        if config.max_rank is not None and rs.rank > config.max_rank:
            raise ValueError(
                f"system {spec!r} has rank {rs.rank}, above --max-rank {config.max_rank}"
            )
        if irreducible_only and not rs.is_irreducible():
            raise ValueError(
                f"suite {irreducible_only[0]!r} needs irreducible systems: "
                f"{spec!r} is reducible"
            )
        if selection is not None:
            if len(set(selection)) != len(selection):
                raise ValueError("selection must not repeat roots")
            beyond = [v for v in selection if v > rs.rank]
            if beyond:
                raise ValueError(
                    f"selection root {beyond[0]} is out of range for {rs.spec}: "
                    f"its simple roots are 1..{rs.rank}"
                )
        systems.append((rs, roots))
    return systems


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


# Leaf type -> its JSON text, as json.dumps writes it.
_LEAF_TEXT = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}


def _write_json(value, write) -> None:
    """Write `value` with exactly the text of json.dumps(value, indent=2,
    sort_keys=True), in chunks, never holding the whole text.

    With `indent` set, json.dumps runs its pure-Python generator encoder.
    Here the layout is written by hand and each leaf by the C string
    quoter or the int and float reprs, so the same text costs about half
    as much. Keys must be strings; a value json cannot encode, or a leaf
    of a subclass of the leaf types, raises `TypeError`.
    """
    chunks: list[str] = []
    put = chunks.append
    leaf = _LEAF_TEXT.get

    def flush() -> None:
        write("".join(chunks))
        chunks.clear()

    def container(value, indent: str) -> None:
        inner = indent + "  "
        lead = "\n" + inner
        sep = ",\n" + inner
        if isinstance(value, dict):
            if not value:
                put("{}")
                return
            put("{")
            for key in sorted(value):
                item = value[key]
                text = leaf(type(item))
                if text is None:
                    put(f"{lead}{_quote(key)}: ")
                    container(item, inner)
                else:
                    put(f"{lead}{_quote(key)}: {text(item)}")
                lead = sep
            put(f"\n{indent}}}")
            if len(chunks) >= _FLUSH_CHUNKS:
                flush()
            return
        if not isinstance(value, (list, tuple)):
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )
        if not value:
            put("[]")
            return
        put("[")
        for item in value:
            text = leaf(type(item))
            if text is None:
                put(lead)
                container(item, inner)
            else:
                put(lead + text(item))
            lead = sep
            # Checked per item, so a long list of leaves is flushed too.
            if len(chunks) >= _FLUSH_CHUNKS:
                flush()
        put(f"\n{indent}]")

    text = leaf(type(value))
    if text is None:
        container(value, "")
    else:
        put(text(value))
    flush()


def _write_report(config: RunConfig, payload: dict, header: list[str],
                  csv_rows: Iterable[list], handle) -> None:
    if config.format == "json":
        _write_json(payload, handle.write)
        handle.write("\n")
    else:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(csv_rows)


def _emit(config: RunConfig, payload: dict, header: list[str], csv_rows: Iterable[list]):
    """Write the report in the configured format, streamed to its target.

    `csv_rows` is read only for a CSV report, so callers pass a generator
    and a JSON run never builds the CSV lines. If writing fails part-way,
    the partial `--out` file is removed before the error propagates, so a
    cut-off report is never left to look like a whole one.
    """
    if config.out is None:
        _write_report(config, payload, header, csv_rows, sys.stdout)
        return
    handle = open(config.out, "w", encoding="utf-8")
    try:
        with handle:
            _write_report(config, payload, header, csv_rows, handle)
    except BaseException:
        os.remove(config.out)
        raise
    print(f"wrote {config.out}")


def cmd_build(config: RunConfig) -> int:
    if config.selection is not None and config.format == "csv":
        raise ValueError("--subset needs the JSON format: CSV has no parabolic datum")
    payload_systems = []
    csv_lines = []
    for rs, roots in _systems(config):
        entry = root_system_to_dict(rs)
        entry["weights"] = weight_table_to_dict(weight_table(rs))
        if roots is not None:
            entry["parabolic"] = parabolic_datum_to_dict(make_datum(rs, roots))
        payload_systems.append(entry)
        for alpha in range(rs.rank):
            label = rs.root_label(alpha)
            weights = entry["weights"][label]
            csv_lines.append(
                [
                    rs.spec,
                    label,
                    weights["d"],
                    " ".join(weights["dual_weight"]),
                    " ".join(weights["weighted_dual_weight"]),
                ]
            )
    payload = {"schema": SCHEMA_VERSION, "command": "build", "systems": payload_systems}
    header = ["system", "root", "d", "dual_weight", "weighted_dual_weight"]
    _emit(config, payload, header, csv_lines)
    return 0


def cmd_verify(config: RunConfig) -> int:
    suites = config.suites or list(SUITE_NAMES)
    if "all" in suites:
        if suites != ["all"]:
            raise ValueError(
                f"suite 'all' cannot be combined with other suites: "
                f"{', '.join(suites)}"
            )
        suites = list(SUITE_NAMES)
    _refuse_repeats("suite", suites)
    systems = [rs.spec for rs, _ in _systems(config, suites)]
    rows, ok, tasks = run_verification(
        suites,
        systems=None if config.systems is None else systems,
        max_rank=config.max_rank,
        jobs=config.jobs,
        max_subset_size=config.max_subset_size,
    )
    summary = {
        "pass": sum(r["status"] == "pass" for r in rows),
        "fail": sum(r["status"] == "fail" for r in rows),
        "expected_violation": sum(r["status"] == "expected-violation" for r in rows),
    }
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "suites": suites,
        "ok": ok,
        "summary": summary,
        "tasks": tasks,
        "rows": rows,
    }
    header = [
        "suite", "anchor", "system", "alpha", "subset", "route",
        "status", "detail",
    ]
    csv_lines = (
        [
            r["suite"], r["anchor"], r["system"],
            "" if r["alpha"] is None else r["alpha"],
            "" if r["subset"] is None else " ".join(map(str, r["subset"])),
            r["route"] or "", r["status"],
            json.dumps(r["detail"], sort_keys=True),
        ]
        for r in rows
    )
    _emit(config, payload, header, csv_lines)
    if not ok:
        failures = [r for r in rows if r["status"] == "fail"]
        print(
            f"FAIL: {len(failures)} row(s), first: {failures[0]['suite']} "
            f"{failures[0]['system']}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def _all_selections(rank: int):
    import itertools

    for length in range(1, rank + 1):
        yield from itertools.permutations(range(rank), length)


def _simulate_task(task: tuple[str, tuple[int, ...], int, int]) -> dict:
    spec, selection, horizon, seed = task
    rs = build(spec)
    entry = {
        "anchor": "Prop5.3",
        "system": spec,
        "selection": [i + 1 for i in selection],
        "seed": seed,
        "horizon": horizon,
    }
    try:
        trace = generate_trace(rs, selection, horizon, seed)
        report = assert_divergence(trace)
        induction = [
            replay_induction(trace, depth)
            for depth in range(max(0, len(selection) - 1))
        ]
    except RootconesError as err:
        entry["status"] = "divergence-failure"
        entry["detail"] = str(err)
        return entry
    entry["status"] = "ok"
    entry["n0"] = trace.n0
    entry["trace"] = trace_to_dict(trace)
    entry["roots"] = {
        label: {"slope": str(data["slope"]), "final": str(data["final"])}
        for label, data in report["roots"].items()
    }
    entry["base_case_exact"] = report["base_case_exact"]
    entry["induction"] = [
        {
            "depth": rep["depth"],
            "branch": rep.get("branch"),
            "vacuous": rep["vacuous"],
            "checks": rep.get("checks", {}),
        }
        for rep in induction
    ]
    entry["series"] = {
        label: [str(value) for value in series]
        for label, series in report["series"].items()
    }
    return entry


def cmd_simulate(config: RunConfig) -> int:
    if not config.systems:
        raise ValueError("simulate needs at least one --system")
    tasks = []
    for rs, roots in _systems(config):
        selections = [roots] if roots is not None else _all_selections(rs.rank)
        for selection in selections:
            for t in range(config.traces):
                tasks.append((rs.spec, selection, config.horizon, config.seed + t))
    entries = map_tasks(_simulate_task, tasks, config.jobs)
    ok = all(e["status"] != "divergence-failure" for e in entries)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "seed": config.seed,
        "horizon": config.horizon,
        "ok": ok,
        "traces": entries,
    }
    header = ["anchor", "system", "selection", "seed", "status", "root", "n", "value"]
    _emit(config, payload, header, _simulate_csv_lines(entries))
    return 0 if ok else 1


def _simulate_csv_lines(entries: list[dict]):
    """The CSV lines of a simulate report: one per series value, or one
    for a trace that has no series value (not ok, or horizon 0)."""
    for e in entries:
        head = [e["anchor"], e["system"], " ".join(map(str, e["selection"])),
                e["seed"], e["status"]]
        if e["status"] != "ok" or not any(e["series"].values()):
            yield head + ["", "", ""]
            continue
        for label, series in sorted(e["series"].items()):
            for n, value in enumerate(series, start=1):
                yield head + [label, n, value]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootcones",
        description=(
            "Exact computations with root systems, parabolic subsets, and "
            "the associated cone certificates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=["json", "csv"], help="report format")
        p.add_argument("--config", help="JSON config file; flags override it")
        # Called last, so this holds every flag's dest; see `_merge`.
        p.set_defaults(flags={a.dest for a in p._actions if a.option_strings})

    p_build = sub.add_parser("build", help="construct systems and weight tables")
    p_build.add_argument("systems", nargs="+", metavar="SPEC",
                         help="system specs such as A3 or B2xA1")
    p_build.add_argument("--subset", dest="selection",
                         help="also report the parabolic datum of this "
                              "subset (comma-separated 1-based indices)")
    common(p_build)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--suite", dest="suites", action="append",
                          help=f"one of {', '.join(SUITE_NAMES)}, or 'all'")
    p_verify.add_argument("--system", dest="systems", action="append",
                          help="restrict to these systems")
    p_verify.add_argument("--max-rank", dest="max_rank", type=int,
                          help="lower the per-suite rank caps")
    p_verify.add_argument("--max-subset-size", dest="max_subset_size", type=int,
                          help="cap the subset size in the subset sweeps")
    p_verify.add_argument("--jobs", type=int, help="worker processes (default 1)")
    common(p_verify)

    p_sim = sub.add_parser("simulate", help="generate and check divergence traces")
    p_sim.add_argument("--system", dest="systems", action="append",
                       help="systems to simulate")
    p_sim.add_argument("--selection",
                       help="comma-separated 1-based root indices, e.g. 1,2")
    p_sim.add_argument("--seed", type=int, help="base seed (default 0)")
    p_sim.add_argument("--horizon", type=int, help="time steps per trace (default 50)")
    p_sim.add_argument("--traces", type=int, help="seeded traces per selection")
    p_sim.add_argument("--jobs", type=int, help="worker processes (default 1)")
    common(p_sim)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "selection", None) is not None:
            args.selection = _parse_selection(args.selection)
        config = _merge(args)
        if args.command == "build":
            return cmd_build(config)
        if args.command == "verify":
            return cmd_verify(config)
        return cmd_simulate(config)
    except (ValueError, OSError, RootconesError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
