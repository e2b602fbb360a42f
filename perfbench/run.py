"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each CLI invocation is a fresh process
(``rootcones.cli.main`` with ``--jobs 1``, so module caches start cold),
and the next starts when the previous has exited, until S seconds have
passed. Each report is checked against ``refs/``. With ``--trace 0`` the
last line holds the end-to-end metrics (medians over the invocations);
with ``--trace 1`` untraced and traced invocations alternate and it holds
the per-layer metrics. Samples and run metadata go to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 150.0
# The host's speed drifts by tens of percent within a second, so each
# invocation is paused every PROBE_EVERY_S and a probe (a fixed exact
# elimination) is timed on the same core. A stretch of running time
# between two probes is scaled by PROBE_NOMINAL_S over the geometric mean
# of the two probes: times are in seconds of a core on which the probe
# takes PROBE_NOMINAL_S. README.md gives the spreads with and without the
# scaling. Raw times are kept in the result file.
PROBE_EVERY_S = 0.1
PROBE_NOMINAL_S = 0.005

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in listing order."""
    units = {}
    for layer, functions in tracer.LAYERS.items():
        for function in functions:
            name = f"{layer}.{function}"
            if layer in ("suites", "cli"):
                continue
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            if name in tracer.DISTINCT:
                units[f"{name}.distinct"] = "count"
                if layer == "parabolic":
                    units[f"{name}.distinct_share"] = "share"
            for count in tracer.COUNTS:
                if count.startswith(name + "."):
                    units[count] = "count"
        units[f"{layer}.self_s"] = "s"
    units["cli.report_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


def _eliminate(rows: list[list[Fraction]]) -> None:
    """Gauss-Jordan over the rationals, the operation the workloads spend most on."""
    r = 0
    for c in range(len(rows[0])):
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            return


_RNG = random.Random(0)
PROBE_MATRICES = [
    [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 4)) for _ in range(9)] for _ in range(7)]
    for _ in range(4)
]


def probe() -> float:
    """Time of a fixed exact elimination on this core."""
    start = time.perf_counter()
    for matrix in PROBE_MATRICES:
        _eliminate([list(row) for row in matrix])
    return time.perf_counter() - start


def supervise(proc: subprocess.Popen, spawned: float, before: float):
    """Wait for proc, pausing it every PROBE_EVERY_S to probe the core.

    Returns the time it ended, its rusage and its running stretches as
    [start, end, probe_s], probe_s being the geometric mean of the probes
    on either side. Paused time is in no stretch.
    """
    stretches = []
    began = spawned
    deadline = spawned + CHILD_TIMEOUT_S
    pidfd = os.pidfd_open(proc.pid)
    try:
        while True:
            if select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
                _, status, usage = os.wait4(proc.pid, 0)
                ended = time.monotonic()
                break
            if time.monotonic() > deadline:
                proc.kill()
                continue
            os.kill(proc.pid, signal.SIGSTOP)
            paused = time.monotonic()
            _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
            if not os.WIFSTOPPED(status):  # it exited before the signal landed
                ended = paused
                break
            after = probe()
            stretches.append([began, paused, math.sqrt(before * after)])
            before = after
            began = time.monotonic()
            os.kill(proc.pid, signal.SIGCONT)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        os.close(pidfd)
        if proc.returncode is None:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
    stretches.append([began, ended, math.sqrt(before * probe())])
    return ended, usage, stretches


def running_s(stretches: list, start: float, end: float) -> tuple[float, float]:
    """Raw and scaled running time between start and end."""
    raw = scaled = 0.0
    for began, ended, probe_s in stretches:
        overlap = min(ended, end) - max(began, start)
        if overlap > 0:
            raw += overlap
            scaled += overlap * PROBE_NOMINAL_S / probe_s
    return raw, scaled


def invoke(workload, reference: dict, seed: int, run_dir: Path, index: int,
           traced: bool) -> dict:
    """Run the CLI once in a fresh process and measure it (see supervise)."""
    report = run_dir / f"report-{index}.json"
    meta = run_dir / f"meta-{index}.json"
    spans = run_dir / f"spans-{index}.json"
    argv = [
        sys.executable, str(HERE / "child.py"), str(SRC), str(meta),
        str(spans) if traced else "-", "--",
        *workload.cli_args(seed), "--out", str(report),
    ]
    # A fixed hash seed keeps set iteration, and so the traced counts, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = probe()
    with open(run_dir / f"stderr-{index}.txt", "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr,
                                env=env, cwd=ROOT)
        ended, usage, stretches = supervise(proc, spawned, before)
    sample = {"traced": traced, "code": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024,
              "raw_cpu_s": usage.ru_utime + usage.ru_stime,
              "spawned": spawned, "ended": ended, "stretches": stretches}
    try:
        ready = json.loads(meta.read_text())["ready"]
        sample["ready"] = ready
        sample["raw_setup_s"], sample["setup_s"] = running_s(stretches, spawned, ready)
        sample["raw_wall_s"], sample["wall_s"] = running_s(stretches, ready, ended)
        sample["scale"] = sample["wall_s"] / sample["raw_wall_s"]
        report_data = json.loads(report.read_text())
        sample["report_bytes"] = report.stat().st_size
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        report_data = None
    attempted, failed, problems = workloads.score(
        workload, reference, report_data, proc.returncode, seed)
    sample.update(attempted=attempted, failed=failed, problems=problems)
    if problems:
        sample["stderr"] = (run_dir / f"stderr-{index}.txt").read_text(errors="replace")[-2000:]
    if traced and spans.exists():
        payload = json.loads(spans.read_text())
        sample["trace"] = payload["summary"]
        sample["raw_groups"] = payload["groups"]
    return sample


def warm_up() -> None:
    """Import the package once so bytecode and the file cache are warm."""
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import rootcones.cli",
         str(SRC)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, check=False,
    )


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "samples": values}


def end_to_end(samples: list[dict]) -> dict:
    plain = [s for s in samples if not s["traced"] and "wall_s" in s]
    return {name: spread([s[name] for s in plain]) for name in END_TO_END if plain}


def per_layer(samples: list[dict]) -> tuple[dict, bool]:
    """Per-layer values and whether the counts repeated across traced runs."""
    traced = [s["trace"] for s in samples if "trace" in s]
    plain_wall = [s["wall_s"] for s in samples if not s["traced"] and "wall_s" in s]
    traced_wall = [s["wall_s"] for s in samples if s["traced"] and "wall_s" in s]
    if not traced or not plain_wall or not traced_wall:
        return {}, False
    first = traced[0]
    repeat = all(t["calls"] == first["calls"] and t["distinct"] == first["distinct"]
                 and t["counts"] == first["counts"] for t in traced)
    self_s = {name: statistics.median(s["trace"]["self_s"][name] * s["scale"]
                                      for s in samples if "trace" in s)
              for name in first["self_s"]}
    values = {}
    for name in per_layer_units():
        base, _, quantity = name.rpartition(".")
        if quantity == "calls":
            values[name] = first["calls"][base]
        elif quantity == "distinct":
            values[name] = first["distinct"][base]
        elif quantity == "distinct_share":
            calls = first["calls"][base]
            values[name] = first["distinct"][base] / calls if calls else 0.0
        elif name in first["counts"]:
            values[name] = first["counts"][name]
        elif quantity == "self_s" and base in self_s:
            values[name] = self_s[base]
        elif quantity == "self_s":  # a whole layer
            values[name] = sum(v for k, v in self_s.items() if k.startswith(base + "."))
    sizes = [s["report_bytes"] for s in samples if "report_bytes" in s]
    if sizes:
        values["cli.report_bytes"] = statistics.median(sizes)
    values["trace.overhead_s"] = statistics.median(traced_wall) - statistics.median(plain_wall)
    return values, repeat


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine() -> dict:
    try:
        networkx = metadata.version("networkx")
    except metadata.PackageNotFoundError:
        networkx = None
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "networkx": networkx,
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference(workload)
    run_dir = WORK / f"{name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    info = machine()
    # One core for the probes and the children, so that the probes
    # measure the core the workload runs on.
    info["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {info["pinned_cpu"]})
    try:
        warm_up()
        start = time.monotonic()
        while len(samples) < (2 if trace else 1) or time.monotonic() - start < seconds:
            traced = trace and len(samples) % 2 == 1
            samples.append(invoke(workload, reference, seed, run_dir, len(samples), traced))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = failed == 0 and not any(s["problems"] for s in samples)
    if trace:
        values, repeat = per_layer(samples)
        units = per_layer_units()
        stats = {"per_layer_counts_repeat": repeat}
    else:
        stats = end_to_end(samples)
        values = {k: v["median"] for k, v in stats.items()}
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "cli_args": workload.cli_args(seed), "machine": info,
        "failed_share": failed / attempted, "stats": stats,
        "samples": samples, "result": result,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rootcones" / "cli.py").is_file():
        print(f"error: no rootcones sources under {SRC}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so that a stopped or running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
