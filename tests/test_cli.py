"""Command-line behavior: reports, exit codes, config handling."""

import json

import pytest

from rootcones import cli, simulate, suites
from rootcones.errors import InfeasibleSelection


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBuild:
    def test_masses_in_json_report(self, capsys):
        code, out, _ = run(["build", "A2"], capsys)
        assert code == 0
        payload = json.loads(out)
        weights = payload["systems"][0]["weights"]
        assert weights["alpha_1"]["d"] == "1"
        assert weights["alpha_2"]["d"] == "1"

    def test_rank_one_weighted_weight_is_the_root(self, capsys):
        code, out, _ = run(["build", "A1"], capsys)
        payload = json.loads(out)
        assert payload["systems"][0]["weights"]["alpha_1"][
            "weighted_dual_weight"
        ] == ["1"]

    def test_asymmetric_masses(self, capsys):
        code, out, _ = run(["build", "G2"], capsys)
        payload = json.loads(out)
        weights = payload["systems"][0]["weights"]
        assert weights["alpha_1"]["d"] == "3"
        assert weights["alpha_2"]["d"] == "5/3"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(["build", "Q7"], capsys)
        assert code == 2
        assert "position" in err

    def test_nonreduced_rejected(self, capsys):
        code, _, err = run(["build", "BC2"], capsys)
        assert code == 2
        assert "not supported" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(["build", "A2", "--format", "csv"], capsys)
        lines = out.strip().splitlines()
        assert lines[0] == "system,root,d,dual_weight,weighted_dual_weight"
        assert len(lines) == 3


class TestVerify:
    def test_small_sweep_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            [
                "verify", "--suite", "identity-2d", "--suite", "gramm-inverse",
                "--max-rank", "3", "--out", str(out_path),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        assert all(row["anchor"] for row in payload["rows"])
        assert {row["suite"] for row in payload["rows"]} == {
            "identity-2d", "gramm-inverse",
        }

    def test_controls_rows_marked_expected(self, capsys):
        code, out, _ = run(["verify", "--suite", "controls"], capsys)
        assert code == 0
        payload = json.loads(out)
        statuses = {row["status"] for row in payload["rows"]}
        assert "expected-violation" in statuses
        assert payload["summary"]["fail"] == 0

    def test_empty_system_list_is_vacuous_pass(self, capsys, tmp_path):
        # Explicit empty sweep: no rows, exit zero.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"systems": []}))
        code, out, _ = run(
            ["verify", "--suite", "lemma66", "--config", str(config)], capsys
        )
        assert code == 0
        assert json.loads(out)["rows"] == []

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run(["verify", "--suite", "nope"], capsys)
        assert code == 2
        assert "unknown suite" in err

    def test_failure_exit_code(self, capsys, monkeypatch):
        fake_rows = [
            {
                "suite": "lemma66", "anchor": "Lem6.6", "system": "A2",
                "alpha": None, "subset": None, "route": None,
                "status": "fail", "detail": "forced", "wall_time": 0.0,
            }
        ]
        monkeypatch.setattr(
            cli, "run_verification", lambda *a, **k: (fake_rows, False)
        )
        code, _, err = run(["verify", "--suite", "lemma66"], capsys)
        assert code == 1
        assert "FAIL" in err

    def test_csv_header(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "lemma66", "--max-rank", "2", "--format", "csv"],
            capsys,
        )
        assert out.splitlines()[0] == (
            "suite,anchor,system,alpha,subset,route,status,wall_time,detail"
        )

    def test_subset_filter_limits_sweeps(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "lemma64", "--system", "A3",
             "--max-subset-size", "1"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"]
        assert all(len(r["subset"]) <= 1 for r in payload["rows"])

    def test_ray_counts_logged(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "theorem61-rays", "--max-rank", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(
            row["detail"]["ray_count"] >= 0 for row in payload["rows"]
        )

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["verify", "--suite", "identity-2d", "--max-rank", "3"]
        assert run(base + ["--out", str(serial)], capsys)[0] == 0
        assert run(base + ["--out", str(parallel), "--jobs", "2"], capsys)[0] == 0
        strip = lambda p: [
            {k: v for k, v in row.items() if k != "wall_time"}
            for row in json.loads(p.read_text())["rows"]
        ]
        assert strip(serial) == strip(parallel)


class TestSimulate:
    def test_deterministic_reports(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "simulate", "--system", "A2", "--selection", "1,2",
            "--seed", "7", "--horizon", "100",
        ]
        assert run(args + ["--out", str(a)], capsys)[0] == 0
        assert run(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_positive_slopes_reported(self, capsys):
        code, out, _ = run(
            ["simulate", "--system", "A2", "--selection", "1,2",
             "--seed", "7", "--horizon", "100"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        trace = payload["traces"][0]
        assert trace["status"] == "ok"
        for data in trace["roots"].values():
            assert not data["slope"].startswith("-")
            assert data["slope"] != "0"

    def test_zero_horizon_empty_series(self, capsys):
        code, out, _ = run(
            ["simulate", "--system", "A2", "--selection", "1", "--horizon", "0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["traces"][0]["series"]["alpha_1"] == []

    def test_selection_sweep_without_flag(self, capsys):
        code, out, _ = run(
            ["simulate", "--system", "A2", "--horizon", "5"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["traces"]) == 4  # (1), (2), (1,2), (2,1)

    def test_infeasible_surfaces_and_run_continues(self, capsys, monkeypatch):
        real = simulate.generate_trace

        def flaky(rs, selection, horizon, seed):
            if selection == (0,):
                raise InfeasibleSelection("stubbed: no growing ray at level 1")
            return real(rs, selection, horizon, seed)

        monkeypatch.setattr(cli, "generate_trace", flaky)
        code, out, _ = run(
            ["simulate", "--system", "A2", "--horizon", "4"], capsys
        )
        assert code == 0  # infeasibility is reported, not fatal
        payload = json.loads(out)
        statuses = [t["status"] for t in payload["traces"]]
        assert statuses.count("infeasible") == 1
        assert statuses.count("ok") == 3

    def test_missing_system_exits_2(self, capsys):
        code, _, err = run(["simulate", "--selection", "1"], capsys)
        assert code == 2

    def test_bad_selection_exits_2(self, capsys):
        code, _, err = run(
            ["simulate", "--system", "A2", "--selection", "0,1"], capsys
        )
        assert code == 2

    def test_csv_time_series(self, capsys):
        code, out, _ = run(
            ["simulate", "--system", "A1", "--selection", "1",
             "--horizon", "3", "--format", "csv"],
            capsys,
        )
        lines = out.strip().splitlines()
        assert lines[0] == "anchor,system,selection,seed,status,root,n,value"
        assert len(lines) == 4


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"horizon": 4, "seed": 3}))
        code, out, _ = run(
            ["simulate", "--system", "A1", "--selection", "1",
             "--config", str(config), "--seed", "9"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon"] == 4
        assert payload["seed"] == 9

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"horizons": 4}))
        code, _, err = run(
            ["simulate", "--system", "A1", "--config", str(config)], capsys
        )
        assert code == 2
        assert "unknown config keys" in err

    def test_zero_based_config_selection_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"selection": [0, 1]}))
        code, _, err = run(
            ["simulate", "--system", "A2", "--config", str(config)], capsys
        )
        assert code == 2
        assert "1-based" in err

    def test_missing_config_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            ["simulate", "--system", "A1", "--config", str(tmp_path / "no.json")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "key,value",
        [
            ("jobs", "2"),
            ("jobs", True),
            ("seed", 1.5),
            ("horizon", "4"),
            ("traces", None),
            ("max_rank", False),
            ("max_subset_size", "1"),
            ("systems", "A2"),
            ("suites", ["lemma66", 3]),
            ("selection", [1, "2"]),
            ("selection", [True]),
            ("out", 7),
            ("format", ["json"]),
        ],
    )
    def test_mistyped_config_value_exits_2(self, capsys, tmp_path, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run(
            ["simulate", "--system", "A1", "--config", str(config)], capsys
        )
        assert code == 2
        assert f"config key {key!r}" in err
        assert out == ""


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestWorkerBound:
    @pytest.fixture
    def sizes(self, monkeypatch):
        monkeypatch.setattr(RecordingPool, "sizes", [])
        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
        return RecordingPool.sizes

    def test_verify_bounded_by_cpus(self, sizes):
        rows, ok = suites.run_verification(
            ["lemma66"], systems=["A1", "A2", "A3", "A4", "A5"], jobs=64
        )
        assert ok and len(rows) == 5
        assert sizes == [3]

    def test_verify_bounded_by_tasks(self, sizes):
        suites.run_verification(["lemma66"], systems=["A1", "A2"], jobs=64)
        assert sizes == [2]

    def test_simulate_bounded(self, capsys, sizes):
        code, _, _ = run(
            ["simulate", "--system", "A1", "--horizon", "2", "--traces", "2",
             "--jobs", "64"],
            capsys,
        )
        assert code == 0
        assert sizes == [2]  # one selection, two traces

    def test_single_worker_runs_inline(self, capsys, sizes):
        suites.run_verification(["lemma66"], systems=["A1", "A2"], jobs=1)
        code, _, _ = run(
            ["simulate", "--system", "A2", "--horizon", "2", "--jobs", "1"],
            capsys,
        )
        assert code == 0
        assert sizes == []
