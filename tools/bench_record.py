"""Collect benchmark result files into one before/after record.

Usage (from the root of a checkout):

    python3 tools/bench_record.py --parent SHA --change SHA --out BENCH_<n>.json [DIR ...]

Reads the end-to-end result files (``--trace 0``) that ``perfbench/run.py``
writes under ``<checkout>/.perfbench_work/results/``; each DIR is such a
directory, by default the one of this checkout. A file belongs to the
parent or the change side when the commit it records starts with the
given SHA; other files are ignored. Neither prefix may start with the
other, or a file would count on both sides. For each workload and
end-to-end metric the record holds, per side, the median and quartiles
of the run medians with every run median listed by seed, and the runs
paired by seed with how many of them the change wins (lower is better
for every end-to-end metric). Each side also records its machine block, its
commit, the git tree of its ``src/`` (so the measured code can be
matched to a later commit of the same sources), and its run and failure
counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_RESULTS = Path(".perfbench_work") / "results"


def src_tree(checkout: Path, commit: str) -> str | None:
    """The git tree hash of src/ at commit, or None when git cannot tell."""
    try:
        done = subprocess.run(
            ["git", "-C", str(checkout), "rev-parse", f"{commit}:src"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def load_runs(dirs: list[Path], sides: dict[str, str]) -> dict[str, list[dict]]:
    """End-to-end records per side, each with the checkout it came from."""
    runs: dict[str, list[dict]] = {side: [] for side in sides}
    for directory in dirs:
        for path in sorted(directory.glob("*.json")):
            record = json.loads(path.read_text())
            if record.get("trace"):
                continue
            commit = record["machine"]["commit"]
            for side, prefix in sides.items():
                if commit.startswith(prefix):
                    record["checkout"] = (directory / ".." / "..").resolve()
                    runs[side].append(record)
    return runs


def summarise(runs: dict[str, list[dict]]) -> dict:
    out: dict = {"sides": {}, "workloads": {}}
    for side, records in runs.items():
        if not records:
            raise ValueError(f"no end-to-end result files for the {side} side")
        first = records[0]
        machine = {k: v for k, v in first["machine"].items() if k != "commit"}
        out["sides"][side] = {
            "commit": first["machine"]["commit"],
            "src_tree": src_tree(first["checkout"], first["machine"]["commit"]),
            "machine": machine,
            "runs": len(records),
            "incorrect_runs": sum(not r["result"]["correct"] for r in records),
            "failed_ops": sum(r["result"]["failed"] for r in records),
        }
        if any(r["machine"]["commit"] != first["machine"]["commit"] for r in records):
            raise ValueError(f"the {side} side mixes commits")
    workloads = sorted({r["workload"] for records in runs.values() for r in records})
    for workload in workloads:
        by_side = {
            side: {r["seed"]: r for r in records if r["workload"] == workload}
            for side, records in runs.items()
        }
        metrics = sorted(
            {name for recs in by_side.values() for r in recs.values() for name in r["stats"]}
        )
        entry = {}
        for name in metrics:
            medians = {
                side: {seed: r["stats"][name]["median"] for seed, r in sorted(recs.items())}
                for side, recs in by_side.items()
            }
            row = {
                "unit": next(
                    r["result"]["metrics"][name]["unit"]
                    for recs in by_side.values() for r in recs.values()
                ),
            }
            for side, values in medians.items():
                if values:
                    row[side] = spread(list(values.values()))
                    row[side]["by_seed"] = {str(seed): v for seed, v in values.items()}
            paired = sorted(set(medians["parent"]) & set(medians["change"]))
            row["pairs"] = len(paired)
            row["change_lower"] = sum(
                medians["change"][s] < medians["parent"][s] for s in paired
            )
            entry[name] = row
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit (prefix) of the parent")
    parser.add_argument("--change", required=True, help="commit (prefix) of the change")
    parser.add_argument("--out", required=True, help="record to write, e.g. BENCH_6.json")
    parser.add_argument("dirs", nargs="*", type=Path, default=[DEFAULT_RESULTS],
                        help="result directories (default: .perfbench_work/results)")
    args = parser.parse_args(argv)
    if args.parent.startswith(args.change) or args.change.startswith(args.parent):
        # Each result file would then count on both sides.
        print(
            f"error: --parent {args.parent} and --change {args.change} overlap: "
            "one is a prefix of the other; give longer prefixes",
            file=sys.stderr,
        )
        return 2
    try:
        record = summarise(load_runs(args.dirs, {"parent": args.parent, "change": args.change}))
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
