"""Write the reference verdicts in refs/ from the current sources.

Usage (from the root of a checkout): python3 perfbench/make_refs.py

Run this only on code whose verdicts are trusted: the benchmark compares
every later report with what it writes. Simulate references hold the
verdict digests for seeds 0 to REF_SEEDS - 1; other seeds are checked
only for their seed-independent invariants.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REF_SEEDS = 32


def report_for(workload, seed: int, out: Path) -> dict:
    from rootcones.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.cli_args(seed) + ["--out", str(out)])
    if code != 0:
        raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
    return json.loads(out.read_text())


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    out = ROOT / ".perfbench_work" / "ref-report.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    workloads.REFS.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        seeds = range(REF_SEEDS) if workload.kind == "simulate" else [0]
        reports = {seed: report_for(workload, seed, out) for seed in seeds}
        reference = workloads.make_reference(workload, reports)
        path = workloads.REFS / f"{workload.name}.json"
        path.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
        print(f"{path.name}: {reference['ops']} ops")
    out.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
