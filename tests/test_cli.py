"""Command-line behavior: reports, exit codes, config handling."""

import concurrent.futures
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as Q
from itertools import combinations
from pathlib import Path

import pytest
from test_linalg import gauss_jordan_rref

from rootcones import cli, simulate, suites
from rootcones.errors import InfeasibleSelection
from rootcones.roots import parse_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def powerset(items):
    items = list(items)
    return [c for k in range(len(items) + 1) for c in combinations(items, k)]


def render_rref(rows):
    return [[str(x) for x in row] for row in gauss_jordan_rref(rows)[0]]


def null_space(functionals, n):
    """Textbook null space basis: one vector per free column."""
    reduced, pivots = gauss_jordan_rref(functionals)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [Q(0)] * n
        v[f] = Q(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


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

    def test_report_digest_is_pinned(self, capsys):
        # `build` is the only report that runs `make_datum`; any change to
        # a printed basis, weight or root list changes this digest.
        args = ["build", "A3", "B3", "C3", "D4", "F4", "G2xA1", "--subset", "1,2"]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ef5c5cd03bb9a4b79321e36835fbbfeabe247a1c71794f666d1f21b68c33ff70"
        )

    @pytest.mark.parametrize(
        "spec,rank", [("A3", 3), ("B3", 3), ("C3", 3), ("G2", 2), ("A2xA1", 3)]
    )
    def test_parabolic_bases_match_gauss_jordan(self, spec, rank, capsys, tmp_path):
        # The printed bases are the textbook reduced echelon rows, computed
        # here by the independent Gauss-Jordan oracle from the printed Gramm
        # matrix: the coroot images of I, and the null space of I's root
        # functionals.
        config = tmp_path / "config.json"
        for subset in powerset(range(rank)):
            config.write_text(json.dumps({"selection": [i + 1 for i in subset]}))
            code, out, _ = run(["build", spec, "--config", str(config)], capsys)
            assert code == 0
            system = json.loads(out)["systems"][0]
            g = [[Q(x) for x in row] for row in system["gramm"]]
            n = rank
            coroots = [[2 * g[j][a] / g[a][a] for j in range(n)] for a in subset]
            roots = [[Q(int(j == a)) for j in range(n)] for a in subset]
            parabolic = system["parabolic"]
            assert parabolic["coroot_span_basis"] == render_rref(coroots)
            assert parabolic["kernel_basis"] == render_rref(null_space(roots, n))


class TestVerify:
    def test_readme_lists_every_default_rank_cap(self):
        # A suite's cap is the largest total rank among its default systems.
        rows = re.findall(
            r"^\| `([a-z0-9-]+)` \| (\d+) \|", README.read_text(), re.MULTILINE
        )
        assert [(name, int(cap)) for name, cap in rows] == [
            (name, max(sum(n for _, n in parse_spec(s)) for s in suite.systems))
            for name, suite in suites.SUITES.items()
        ]

    def test_catalogue_is_pinned(self):
        # The catalogue sets the row order of every default report.
        full = [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
            "B2", "B3", "B4", "B5", "B6", "B7", "B8", "B9",
            "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9",
            "D3", "D4", "D5", "D6", "D7", "D8", "D9",
            "E6", "E7", "E8", "F4", "G2",
        ]
        for k in range(10):
            expected = [spec for spec in full if int(spec[1:]) <= k]
            assert suites.irreducible_catalogue(k) == expected

    def test_every_suite_default_systems_are_pinned(self):
        # Each suite's rank cap, written out: the catalogue up to the cap
        # or --max-rank, whichever is lower; parabolic-lemmas adds the
        # products that fit and controls is A2 and A3. Each product and
        # control spec is listed with its total rank, in report order.
        caps = {
            "gramm-inverse": 8, "identity-2d": 8, "lemma64": 6,
            "theorem61-constructive": 5, "theorem61-rays": 5, "lemma65": 8,
            "lemma66": 8, "parabolic-lemmas": 8, "chi-proportionality": 8,
            "controls": 3,
        }
        controls = [("A2", 2), ("A3", 3)]
        extras = [("A1xA1", 2), ("A2xA1", 3), ("A2xA2", 4), ("B2xA1", 3)]
        assert list(caps) == list(suites.SUITES)
        for suite, cap in caps.items():
            for k in (None, *range(1, 10)):
                top = cap if k is None else min(cap, k)
                if suite == "controls":
                    expected = [spec for spec, rank in controls if rank <= top]
                else:
                    expected = suites.irreducible_catalogue(top)
                if suite == "parabolic-lemmas":
                    expected += [spec for spec, rank in extras if rank <= top]
                assert suites.systems_for(suite, k, None) == expected, (suite, k)

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

    @pytest.mark.parametrize(
        "names", [["all", "lemma66"], ["lemma66", "all"], ["all", "all"]]
    )
    def test_all_with_another_suite_exits_2(self, names, capsys, tmp_path):
        # Both from flags and from a config file, before any sweep runs.
        message = "suite 'all' cannot be combined with other suites: "
        message += ", ".join(names)
        flags = [arg for name in names for arg in ("--suite", name)]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"suites": names}))
        for args in (flags, ["--config", str(config)]):
            code, out, err = run(["verify", *args], capsys)
            assert (code, out) == (2, "")
            assert message in err

    @pytest.mark.parametrize(
        "key,names,message",
        [
            ("suites", ["lemma66", "chi-proportionality", "lemma66"],
             "suite 'lemma66' is given more than once"),
            ("systems", ["A2", "B2", "A2"], "system 'A2' is given more than once"),
            ("systems", ["B2xA1", "b2xa1"], "system 'b2xa1' is given more than once"),
        ],
    )
    def test_repeated_suite_or_system_exits_2(
        self, key, names, message, capsys, tmp_path
    ):
        # Each repeat used to run, and be reported, once per mention.
        flag = {"suites": "--suite", "systems": "--system"}[key]
        flags = [arg for name in names for arg in (flag, name)]
        fixed = ["--suite", "lemma66"] if key == "systems" else ["--system", "A2"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: names}))
        for args in (flags, ["--config", str(config)]):
            code, out, err = run(["verify", *fixed, *args], capsys)
            assert (code, out) == (2, "")
            assert err == f"error: {message}\n"

    def test_failure_exit_code(self, capsys, monkeypatch):
        fake_rows = [
            {
                "suite": "lemma66", "anchor": "Lem6.6", "system": "A2",
                "alpha": None, "subset": None, "route": None,
                "status": "fail", "detail": "forced",
            }
        ]
        monkeypatch.setattr(
            cli, "run_verification", lambda *a, **k: (fake_rows, False, [])
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
            "suite,anchor,system,alpha,subset,route,status,detail"
        )

    def test_a_json_run_builds_no_csv_lines(self, capsys, monkeypatch):
        # A CSV line holds its row's detail as JSON; a JSON run encodes
        # only the report itself.
        encoded = []
        real_dumps = json.dumps

        def counting_dumps(value, **kwargs):
            encoded.append(value)
            return real_dumps(value, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", counting_dumps)
        code, out, _ = run(
            ["verify", "--suite", "theorem61-rays", "--system", "A3"], capsys
        )
        assert code == 0
        assert len(json.loads(out)["rows"]) == 12
        assert len(encoded) == 1 and encoded[0]["command"] == "verify"

    def test_csv_report_digest_is_pinned(self, capsys):
        args = [
            "verify", "--suite", "theorem61-rays", "--suite", "parabolic-lemmas",
            "--system", "A3", "--system", "B2xA1", "--format", "csv",
        ]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fd602395bd847ed7985cbe4929e7cb0cb97addb696e19449125cf222f01d1285"
        )

    def test_all_suite_csv_digest_is_pinned(self, capsys):
        # Every suite's rows up to rank 3, the controls summary included.
        code, out, _ = run(
            ["verify", "--suite", "all", "--max-rank", "3", "--format", "csv"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 411
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee5dd13c0578140f87d71709fb5687139916deae614fa28fadecb98c90d9123c"
        )

    @pytest.mark.parametrize("suite", suites.SUITE_NAMES)
    def test_every_suite_runs(self, suite, capsys):
        code, out, _ = run(["verify", "--suite", suite, "--system", "A2"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows and {row["suite"] for row in rows} == {suite}

    def test_subset_filter_limits_sweeps(self, capsys):
        for suite in ("lemma64", "theorem61-constructive", "theorem61-rays"):
            code, out, _ = run(
                ["verify", "--suite", suite, "--system", "A3",
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

        def strip(path):
            payload = json.loads(path.read_text())
            for task in payload["tasks"]:
                del task["wall_time"]
            return payload

        assert strip(serial) == strip(parallel)

    def test_one_time_per_task(self, capsys):
        args = ["verify", "--suite", "identity-2d", "--suite", "lemma66",
                "--max-rank", "3", "--jobs", "1"]
        start = time.perf_counter()
        code, out, _ = run(args, capsys)
        elapsed = time.perf_counter() - start
        assert code == 0
        payload = json.loads(out)
        expected = [
            (suite, spec)
            for suite in ("identity-2d", "lemma66")
            for spec in suites.systems_for(suite, 3, None)
        ]
        tasks = payload["tasks"]
        assert [(t["suite"], t["system"]) for t in tasks] == expected
        assert all(t["wall_time"] >= 0 for t in tasks)
        assert sum(t["wall_time"] for t in tasks) <= elapsed
        assert all("wall_time" not in row for row in payload["rows"])

    def test_runs_without_third_party_packages(self):
        # -S leaves site-packages off sys.path, so only the standard library
        # and the package source can be imported. lemma65 classifies every
        # connected subdiagram of E8.
        script = (
            "import sys\n"
            "from rootcones import cli\n"
            "sys.exit(cli.main(['verify', '--suite', 'lemma65', '--system', 'E8']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"] is True

    def test_corrupted_expansion_fails_under_optimisation(self):
        # Under -O no assert runs, so the direct-solve cross-check must
        # raise on its own. The stub moves one unit of coefficient between
        # the first two columns of every row: the masses still sum to one,
        # so only the cross-check can see it, and only when I holds at
        # least two roots (12 of A3's 24 rows).
        script = (
            "import sys\n"
            "from rootcones import certify, cli\n"
            "from rootcones.linalg import QMatrix\n"
            "real = certify.block_coefficient_matrix\n"
            "def corrupt(a, b, c):\n"
            "    d = real(a, b, c)\n"
            "    if b.rows < 2:\n"
            "        return d\n"
            "    rows = [[r[0] + 1, r[1] - 1, *r[2:]] for r in map(d.row, range(d.rows))]\n"
            "    return QMatrix.from_rows(rows)\n"
            "certify.block_coefficient_matrix = corrupt\n"
            "sys.exit(cli.main(['verify', '--suite', 'lemma64', '--system', 'A3']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        rows = json.loads(done.stdout)["rows"]
        failed = [row for row in rows if row["status"] == "fail"]
        assert len(failed) == 12 and len(rows) == 24
        assert all("direct solve" in row["detail"] for row in failed)

    def test_invariant_violation_fails_the_task(self):
        # A broken internal invariant is a failed check, not bad input:
        # the task becomes one fail row, the report is written and the
        # run exits 1. The `tori` and `discon` routes fail their own row
        # on a broken torus, so the stub breaks the `inc` route, which
        # lets the error escape the worker. Run apart, so the stub never
        # reaches another test.
        script = (
            "import sys\n"
            "from rootcones import cli, parabolic\n"
            "from rootcones.errors import InvariantViolation\n"
            "def broken(rs, lower, upper):\n"
            "    raise InvariantViolation(f'kernel of {upper} has dimension 2')\n"
            "parabolic.verify_inc = broken\n"
            "sys.exit(cli.main(['verify', '--suite', 'parabolic-lemmas',"
            " '--system', 'A2']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert "error:" not in done.stderr
        payload = json.loads(done.stdout)
        assert payload["ok"] is False
        assert [(r["suite"], r["system"], r["status"], r["detail"])
                for r in payload["rows"]] == [
            ("parabolic-lemmas", "A2", "fail",
             "kernel of () has dimension 2"),
        ]


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

    def test_report_digest_is_pinned(self, capsys, tmp_path):
        # Any change to a printed value, not only one between two runs,
        # changes this digest of the acceptance configuration's report.
        out = tmp_path / "report.json"
        args = [
            "simulate", "--system", "A2", "--system", "B2",
            "--seed", "7", "--horizon", "40", "--traces", "3",
            "--out", str(out),
        ]
        assert run(args, capsys)[0] == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "fbdb47ff21a5b7a5a75d0cede2a4f6a7b2409585a57d8c7793af34ef6e242f89"
        )

    def test_csv_report_digest_is_pinned(self, capsys):
        # The CSV lines are built only on a CSV run; their bytes are those
        # of the report that built them on every run.
        args = [
            "simulate", "--system", "A2", "--system", "B2",
            "--seed", "7", "--horizon", "40", "--traces", "3",
            "--format", "csv",
        ]
        code, out, _ = run(args, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "088f878af330e77c34f4e2042cf5150f54508963397015381b6eba2d4461852c"
        )

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

    def test_rejected_trace_fails_under_optimisation(self):
        # Under -O no assert runs, so the generator's re-check must raise
        # on its own. The stub rejects every trace it is shown.
        script = (
            "import sys\n"
            "from rootcones import cli, simulate\n"
            "simulate.check_admissibility = lambda trace: (False, ['stub'])\n"
            "sys.exit(cli.main(['simulate', '--system', 'A2',\n"
            "                   '--selection', '1,2', '--horizon', '3']))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        trace = json.loads(done.stdout)["traces"][0]
        assert trace["status"] == "divergence-failure"
        assert "stub" in trace["detail"]

    def test_missing_system_exits_2(self, capsys):
        code, _, err = run(["simulate", "--selection", "1"], capsys)
        assert code == 2

    def test_bad_selection_exits_2(self, capsys):
        code, _, err = run(
            ["simulate", "--system", "A2", "--selection", "0,1"], capsys
        )
        assert code == 2

    def test_out_of_range_selection_names_the_root(self, capsys):
        code, out, err = run(
            ["simulate", "--system", "A3", "--selection", "2,4"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: selection root 4 is out of range for A3: "
            "its simple roots are 1..3\n"
        )

    def test_out_of_range_in_one_system_of_several(self, capsys):
        # A3 takes the selection; A2 is too small, so nothing is run.
        code, out, err = run(
            ["simulate", "--system", "A3", "--system", "A2",
             "--selection", "1,3"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: selection root 3 is out of range for A2: "
            "its simple roots are 1..2\n"
        )

    def test_out_of_range_subset_names_the_root(self, capsys):
        # build reads --subset through the same 1-based range check.
        code, out, err = run(["build", "A3", "--subset", "2,4"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: selection root 4 is out of range for A3: "
            "its simple roots are 1..3\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["build", "A3", "--subset", "1,1"],
            ["simulate", "--system", "A3", "--selection", "1,1"],
        ],
    )
    def test_repeated_root_exits_2(self, args, capsys):
        # build used to drop the repeat and report subset [1] with exit 0.
        code, out, err = run(args, capsys)
        assert code == 2
        assert out == ""
        assert err == "error: selection must not repeat roots\n"

    def test_repeated_root_in_config_exits_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"selection": [2, 1, 2]}))
        code, out, err = run(["build", "A3", "--config", str(config)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: selection must not repeat roots\n"

    def test_repeated_system_exits_2(self, capsys, tmp_path):
        # Every trace of the repeat used to be printed twice.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"systems": ["A2", "A1", "A2"]}))
        for args in (
            ["--system", "A2", "--system", "A1", "--system", "A2"],
            ["--config", str(config)],
        ):
            code, out, err = run(
                ["simulate", *args, "--selection", "1", "--horizon", "2"], capsys
            )
            assert (code, out) == (2, "")
            assert err == "error: system 'A2' is given more than once\n"

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
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(suites.os, "cpu_count", lambda: 3)
        return RecordingPool.sizes

    def test_verify_bounded_by_cpus(self, sizes):
        rows, ok, _ = suites.run_verification(
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

    def test_cli_import_leaves_the_pool_unloaded(self):
        # The process pool is imported only when more than one worker runs,
        # so a one-worker run never pays for loading it.
        script = (
            "import sys\n"
            "import rootcones.cli\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_single_worker_runs_inline(self, capsys, sizes):
        suites.run_verification(["lemma66"], systems=["A1", "A2"], jobs=1)
        code, _, _ = run(
            ["simulate", "--system", "A2", "--horizon", "2", "--jobs", "1"],
            capsys,
        )
        assert code == 0
        assert sizes == []
