"""The collector that turns benchmark result files into a BENCH record."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def result_file(directory, name, commit, seed, wall, trace=False, correct=True):
    record = {
        "workload": "certificates",
        "seed": seed,
        "trace": trace,
        "machine": {"commit": commit, "nproc": 2, "python": "3.11.7"},
        "stats": {} if trace else {"wall_s": {"median": wall}},
        "result": {
            "correct": correct,
            "failed": 0 if correct else 3,
            "metrics": {} if trace else {"wall_s": {"value": wall, "unit": "s"}},
        },
    }
    (directory / name).write_text(json.dumps(record))


def test_sides_pairs_and_spreads(tmp_path):
    results = tmp_path / ".perfbench_work" / "results"
    results.mkdir(parents=True)
    for seed, (before, after) in enumerate([(1.0, 0.6), (1.2, 0.7), (0.9, 1.0)], 1):
        result_file(results, f"p{seed}.json", "aaaa1111", seed, before)
        result_file(results, f"c{seed}.json", "bbbb2222", seed, after)
    result_file(results, "traced.json", "bbbb2222", 9, 5.0, trace=True)
    result_file(results, "other.json", "cccc3333", 1, 0.1, correct=False)
    out = tmp_path / "BENCH.json"
    args = ["--parent", "aaaa", "--change", "bbbb", "--out", str(out), str(results)]
    assert bench_record.main(args) == 0
    record = json.loads(out.read_text())
    assert record["sides"]["parent"]["commit"] == "aaaa1111"
    assert record["sides"]["change"]["runs"] == 3
    assert record["sides"]["change"]["incorrect_runs"] == 0
    assert record["sides"]["change"]["src_tree"] is None  # not a git checkout
    wall = record["workloads"]["certificates"]["wall_s"]
    assert wall["unit"] == "s"
    assert wall["pairs"] == 3 and wall["change_lower"] == 2
    assert wall["parent"]["median"] == 1.0
    assert wall["change"]["median"] == 0.7
    assert wall["change"]["by_seed"] == {"1": 0.6, "2": 0.7, "3": 1.0}
    assert wall["parent"]["q1"] <= wall["parent"]["median"] <= wall["parent"]["q3"]


def test_missing_side_exits_2(tmp_path, capsys):
    result_file(tmp_path, "p.json", "aaaa1111", 1, 1.0)
    out = tmp_path / "BENCH.json"
    args = ["--parent", "aaaa", "--change", "bbbb", "--out", str(out), str(tmp_path)]
    assert bench_record.main(args) == 2
    assert "change side" in capsys.readouterr().err
    assert not out.exists()


def test_overlapping_prefixes_exit_2(tmp_path, capsys):
    result_file(tmp_path, "p.json", "9dbe5702", 1, 1.0)
    result_file(tmp_path, "c.json", "9dbe5abc", 1, 0.9)
    out = tmp_path / "BENCH.json"
    for parent, change in (("9dbe", "9dbe5"), ("9dbe5", "9dbe"), ("9dbe", "9dbe")):
        args = ["--parent", parent, "--change", change, "--out", str(out), str(tmp_path)]
        assert bench_record.main(args) == 2
        assert "prefix of the other" in capsys.readouterr().err
        assert not out.exists()
