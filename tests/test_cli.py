"""Command-line interface: reports, serialization, exit codes."""

import csv
import json
import math
import subprocess
import sys

import pytest

from boolemaps import cli, density
from boolemaps.cli import main
from boolemaps.density import ergodic_orbit_check
from boolemaps.orbit import iterate_orbit


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestIterateParams:
    def test_trajectory(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["iterate-params", "--alpha", "0.5", "--nu0", "1", "--gamma0", "1", "--steps", "3"],
        )
        assert code == 0
        records = report["records"]
        assert len(records) == 4
        assert (records[0]["nu"], records[0]["gamma"]) == (1.0, 1.0)
        assert (records[1]["nu"], records[1]["gamma"]) == (0.25, 0.75)
        assert records[0]["conformal_factor"] == pytest.approx(5.0 / 9.0)
        assert records[0]["q"] == 1.0
        assert records[0]["p"] == 0.5

    def test_fixed_point_rows_are_constant(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["iterate-params", "--alpha", "0.5", "--nu0", "0", "--gamma0", "1", "--steps", "5"],
        )
        assert code == 0
        for record in report["records"]:
            assert (record["nu"], record["gamma"]) == (0.0, 1.0)
            assert record["dist_to_fixed_point"] == 0.0

    def test_report_shape(self, tmp_path):
        code, report = run_json(tmp_path, ["iterate-params", "--steps", "2"])
        assert set(report) == {"config", "records", "oracles", "meta"}
        assert report["meta"]["version"]
        assert report["meta"]["seed"] == 42
        assert report["config"]["command"] == "iterate-params"

    def test_config_echo(self, tmp_path):
        _, report = run_json(tmp_path, ["iterate-params", "--steps", "2"])
        assert report["config"] == {
            "command": "iterate-params",
            "alpha": 0.5,
            "nu0": 1.0,
            "gamma0": 1.0,
            "xi0": math.sqrt(2.0),
            "n": 10**6,
            "steps": 2,
            "seed": 42,
            "grid_size": 4096,
            "output_path": str(tmp_path / "report.json"),
            "format": "json",
        }


class TestValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ["iterate-params", "--alpha", "1.5"],
            ["iterate-params", "--alpha", "0"],
            ["iterate-params", "--gamma0", "-1"],
            ["verify-pf", "--n", "0"],
            ["verify-pf", "--n", "100"],
            ["verify-pf", "--grid-size", "1"],
            ["orbit", "--xi0", "0"],
            ["orbit", "--xi0", "nan"],
            ["geometry", "--gamma0", "1e-200"],
            ["geometry", "--gamma0", "1e6"],
        ],
    )
    def test_bad_config_exits_2(self, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestVerifyPf:
    def test_passes_at_default_point(self, tmp_path):
        code, report = run_json(
            tmp_path, ["verify-pf", "--n", "20000", "--steps", "1", "--seed", "42"]
        )
        assert code == 0
        oracles = report["oracles"]
        assert oracles["sup_error"] < 1e-10
        assert oracles["sup_error_pass"] and oracles["monte_carlo_pass"]
        assert oracles["warnings"] == []

    def test_stationary_input(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["verify-pf", "--nu0", "0", "--gamma0", "1", "--n", "20000"],
        )
        assert code == 0
        assert report["oracles"]["sup_error"] < 1e-12

    def test_coarse_grid_reports_warning(self, tmp_path):
        code, report = run_json(
            tmp_path, ["verify-pf", "--n", "20000", "--grid-size", "8"]
        )
        assert code == 0
        assert any("drift" in w for w in report["oracles"]["warnings"])


class TestGeometry:
    def test_reference_point(self, tmp_path):
        code, report = run_json(tmp_path, ["geometry", "--nu0", "1", "--gamma0", "1"])
        assert code == 0
        first = report["records"][0]
        assert first["conformal_factor"] == pytest.approx(5.0 / 9.0)
        assert not first["degenerate"]
        assert report["oracles"]["quadrature_pass"]
        assert report["oracles"]["pullback_pass"]
        assert report["oracles"]["lie_pass"]
        assert report["oracles"]["canonical_pass"]

    def test_degenerate_point_is_flagged(self, tmp_path):
        code, report = run_json(tmp_path, ["geometry", "--nu0", "0", "--gamma0", "1"])
        assert code == 0
        first = report["records"][0]
        assert first["degenerate"]
        assert first["conformal_factor"] == pytest.approx(0.0, abs=1e-15)
        assert report["oracles"]["degenerate_points"] >= 1


class TestOrbit:
    def test_short_trace(self, tmp_path):
        code, report = run_json(
            tmp_path, ["orbit", "--alpha", "0.5", "--xi0", "2", "--n", "2"]
        )
        assert code == 0
        xs = [r["xi"] for r in report["records"]]
        assert xs == pytest.approx([2.0, 0.75, 0.5 * (0.75 - 1 / 0.75)])
        assert not report["oracles"]["truncated"]

    def test_truncated_trace_still_reports(self, tmp_path):
        code, report = run_json(
            tmp_path, ["orbit", "--alpha", "0.5", "--xi0", "1", "--n", "3"]
        )
        assert code == 0  # no tolerance check configured at this length
        assert report["oracles"]["truncated"]
        assert report["oracles"]["last_index"] == 1
        assert [r["xi"] for r in report["records"]] == [1.0, 0.0]

    def test_long_orbit_runs_ks_check(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["orbit", "--alpha", "0.8", "--xi0", "0.3", "--n", "100000"],
        )
        assert code == 0
        assert report["oracles"]["ks_distance"] < 0.01
        assert report["oracles"]["invariant_gamma"] == pytest.approx(2.0)

    def test_orbit_is_iterated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return iterate_orbit(*args, **kwargs)

        # every module that binds the iterator, so a second pass cannot hide
        monkeypatch.setattr(cli, "iterate_orbit", counting)
        monkeypatch.setattr(density, "iterate_orbit", counting)
        code, report = run_json(
            tmp_path, ["orbit", "--alpha", "0.8", "--xi0", "0.3", "--n", "100000"]
        )
        assert code == 0
        assert len(calls) == 1
        monkeypatch.undo()
        assert report["oracles"]["ks_distance"] == ergodic_orbit_check(0.8, 0.3, 100000).ks

    def test_truncation_fails_configured_check(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["orbit", "--xi0", "1", "--n", "100000", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["oracles"]["ks_pass"] is False
        assert report["meta"]["passed"] is False


class TestSerialization:
    def test_csv_json_numeric_equality(self, tmp_path):
        args = ["iterate-params", "--alpha", "0.3", "--nu0", "2", "--gamma0", "0.7",
                "--steps", "4"]
        json_path = tmp_path / "r.json"
        csv_path = tmp_path / "r.csv"
        assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
        assert main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
        report = json.loads(json_path.read_text())
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(report["records"])
        for row, record in zip(rows, report["records"]):
            for key, value in record.items():
                if isinstance(value, float):
                    # shortest round-trip decimals parse back bit-identically
                    assert float(row[key]) == value

    def test_geometry_csv_has_plain_decimals(self, tmp_path):
        csv_path = tmp_path / "g.csv"
        json_path = tmp_path / "g.json"
        args = ["geometry", "--nu0", "1", "--gamma0", "1"]
        assert main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
        assert main(args + ["--format", "json", "--out", str(json_path)]) == 0
        text = csv_path.read_text()
        assert "np.float" not in text
        report = json.loads(json_path.read_text())
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        for row, record in zip(rows, report["records"]):
            for key, value in record.items():
                if isinstance(value, float):
                    assert float(row[key]) == value

    def test_stdout_when_no_path(self, capsys):
        code = main(["iterate-params", "--steps", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["records"]) == 2


def test_import_leaves_scipy_unloaded():
    # scipy.interpolate and scipy.integrate serve one oracle branch each and
    # take most of the start-up time, so importing the CLI must not load them
    probe = (
        "import sys, boolemaps.cli; "
        "print([m for m in ('scipy.interpolate', 'scipy.integrate') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "boolemaps.cli", "iterate-params", "--steps", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["meta"]["passed"] is True
    assert report["config"]["steps"] == 2
