"""Command-line interface: reports, serialization, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from boolemaps import HPoint, cli, density
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

    def test_scale_near_dbl_max_runs(self, tmp_path):
        # p = 1/(2*gamma) is a subnormal double here; 2*gamma would overflow
        code, report = run_json(tmp_path, ["iterate-params", "--gamma0", "1e308", "--steps", "50"])
        assert code == 0
        assert report["records"][0]["p"] == 5e-309

    def test_report_shape(self, tmp_path):
        code, report = run_json(tmp_path, ["iterate-params", "--steps", "2"])
        assert set(report) == {"config", "records", "oracles", "meta"}
        assert report["meta"]["version"]
        assert set(report["meta"]["timings"]) == {"validate_s", "compute_s", "render_s"}
        assert set(report["meta"]) == {"version", "environment", "timings", "peak_rss_mb",
                                       "passed"}
        assert "seed" not in report["meta"]
        assert report["config"]["command"] == "iterate-params"

    def test_config_echo(self, tmp_path):
        _, report = run_json(tmp_path, ["iterate-params", "--steps", "2"])
        assert report["config"] == {
            "command": "iterate-params",
            "alpha": 0.5,
            "nu0": 1.0,
            "gamma0": 1.0,
            "steps": 2,
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
            # 1/(2*gamma0^2) underflows to 0
            ["geometry", "--gamma0", "1e154"],
            # the density grid's nodes would collapse onto equal doubles
            ["verify-pf", "--nu0", "1", "--gamma0", "1e-300"],
            ["verify-pf", "--nu0", "1", "--gamma0", "1e-13"],
            ["verify-pf", "--nu0", "1e300", "--gamma0", "1"],
            # a flag the command does not read
            ["iterate-params", "--seed", "1"],
            ["verify-pf", "--xi0", "1"],
            ["geometry", "--steps", "2"],
            ["orbit", "--seed", "1"],
            # a starting point that is not finite
            ["iterate-params", "--nu0", "nan"],
            ["verify-pf", "--gamma0", "inf"],
            ["geometry", "--nu0", "nan"],
            ["iterate-params", "--gamma0=-inf"],
            # a sample point could overflow
            ["verify-pf", "--gamma0", "1e308", "--n", "10000"],
            ["verify-pf", "--gamma0", "1.2e292", "--n", "10000"],
            # a seed the random stream cannot take
            ["verify-pf", "--seed", "-1"],
        ],
    )
    def test_bad_config_exits_2(self, args):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2

    def test_bad_config_message_is_one_line(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-pf", "--nu0", "1", "--gamma0", "1e-300"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("boolemaps: error: grid nodes collapse")

    def test_non_finite_flag_message_is_one_line(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify-pf", "--gamma0", "inf"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == "boolemaps: error: gamma0 must be finite, got inf"

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("iterate-params", ["alpha", "nu0", "gamma0", "steps"]),
            ("verify-pf", ["alpha", "nu0", "gamma0", "n", "steps", "seed", "grid_size"]),
            ("geometry", ["alpha", "nu0", "gamma0"]),
            ("orbit", ["alpha", "xi0", "n"]),
        ],
    )
    def test_each_command_parses_its_own_flags(self, command, flags):
        args = cli.build_parser().parse_args([command])
        assert list(vars(args)) == ["command", *flags, "output_path", "format"]

    @pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["missing-dir", "dir"])
    def test_out_that_cannot_be_opened_exits_2_before_the_run(
        self, tmp_path, monkeypatch, capsys, where
    ):
        def unreachable(cfg):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "orbit", unreachable)
        with pytest.raises(SystemExit) as exc:
            main(["orbit", "--out", str(tmp_path / where)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("boolemaps: error: ")

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

    def test_narrow_grid_at_the_spacing_limit_runs(self, tmp_path):
        # nodes 7.7e-16 apart around 1.0, about 3.5 doubles: the grid still holds
        code, report = run_json(
            tmp_path, ["verify-pf", "--nu0", "1", "--gamma0", "1e-12", "--n", "20000"]
        )
        assert code == 0
        assert report["oracles"]["sup_error_pass"] and report["oracles"]["monte_carlo_pass"]

    def test_largest_scale_has_a_finite_report(self, tmp_path):
        # |nu0| + gamma0 * 1.633e16 stays below DBL_MAX; any warning fails here
        code, report = run_json(
            tmp_path, ["verify-pf", "--nu0", "0", "--gamma0", "1.1e292", "--n", "10000"]
        )
        assert code == 0
        oracles = report["oracles"]
        assert oracles["warnings"] == []
        assert all(math.isfinite(v) for v in oracles.values() if isinstance(v, float))

    def test_preimage_beyond_dbl_max_has_a_finite_report(self, tmp_path):
        # at alpha = 1e-12 the outer nodes' larger preimages overflow to +-inf;
        # they contribute 0 to the transfer sum, not inf * 0 = NaN
        code, report = run_json(
            tmp_path, ["verify-pf", "--alpha", "1e-12", "--gamma0", "1e292", "--n", "10000"]
        )
        oracles = report["oracles"]
        assert code == 0
        assert math.isfinite(oracles["sup_error"])
        assert [w for w in oracles["warnings"] if "encountered in" in w] == []

    @pytest.mark.parametrize("gamma0", ["1e-3", "1", "1e200"] + [
        pytest.param(gamma0, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
            "ROADMAP item 2: the transfer sum forms each preimage near nu as a "
            "double, and rounding of about 1e-16*|nu| against the width gamma "
            "hides a 1% error in gamma at this scale")))
        for gamma0 in ["1e-6", "1e-9"]
    ])
    def test_wrong_step_fails_at_any_scale(self, tmp_path, monkeypatch, gamma0):
        # the transfer sum against a closed form off by 1% in gamma; an
        # absolute tolerance let this pass wherever the density is small
        exact = density.parameter_step

        def wrong(alpha, x):
            out = exact(alpha, x)
            return HPoint(out.nu, 1.01 * out.gamma)

        monkeypatch.setattr(density, "parameter_step", wrong)
        code, report = run_json(tmp_path, ["verify-pf", "--gamma0", gamma0, "--n", "10000"])
        assert code == 1
        assert report["oracles"]["sup_error_pass"] is False

    @pytest.mark.parametrize(
        "args", [["verify-pf"], ["verify-pf", "--gamma0", "1e200", "--n", "10000"]]
    )
    def test_exact_step_passes_at_any_scale(self, tmp_path, args):
        code, report = run_json(tmp_path, args)
        assert code == 0
        assert report["oracles"]["sup_error_pass"] is True

    def test_coarse_grid_reports_warning(self, tmp_path):
        code, report = run_json(
            tmp_path, ["verify-pf", "--n", "20000", "--grid-size", "8"]
        )
        assert code == 0
        assert any("drift" in w for w in report["oracles"]["warnings"])

    def test_warning_is_reported_not_printed(self, tmp_path):
        # the coarse grid's drift warning goes to the report, not to stderr
        out = tmp_path / "pf.json"
        proc = subprocess.run(
            [sys.executable, "-m", "boolemaps.cli", "verify-pf", "--n", "20000",
             "--grid-size", "8", "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        warned = json.loads(out.read_text())["oracles"]["warnings"]
        assert any("drift" in w for w in warned)


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
        assert report["oracles"]["warnings"] == []

    @pytest.mark.parametrize(
        "nu0, gamma0",
        [
            # at the points below, central differences with a fixed step
            # failed a check (or the gamma0 window rejected the input)
            ("1e6", "1"), ("1e20", "1"), ("1e200", "1"), ("-1e300", "1"),
            ("1", "0.03"), ("1", "1e-8"), ("1", "1e-150"), ("1", "1e150"),
            # the far corners of the metric's domain
            ("1e300", "1e-150"), ("-1e-300", "4.7e153"), ("1.7e308", "5.4e-155"),
            # far from the unit scale in both coordinates at once
            ("1e200", "1e-100"),
        ],
    )
    def test_passes_at_every_scale(self, tmp_path, nu0, gamma0):
        code, report = run_json(tmp_path, ["geometry", f"--nu0={nu0}", f"--gamma0={gamma0}"])
        oracles = report["oracles"]
        assert [key for key, value in oracles.items() if key.endswith("_pass") and not value] == []
        assert (code, oracles["warnings"]) == (0, [])

    def test_tolerances_are_no_looser_than_the_absolute_ones(self):
        # At a lattice point, a relative tolerance stands for an absolute one
        # on what the checks once compared: times the metric for the
        # quadrature and the pullback, and for the Lie derivatives also times
        # s^k/gamma, with k the degree of a Killing field (2, 1 or 0) and
        # s = max(|nu|, gamma) the scale it is divided by.
        for nu in cli._LATTICE_NU:
            for gamma in cli._LATTICE_GAMMA:
                metric = 0.5 / gamma**2
                s = max(abs(nu), gamma)
                assert cli.QUADRATURE_TOL * metric <= 1e-8
                assert cli.PULLBACK_TOL * metric <= 1e-5
                assert cli.LIE_TOL * metric * max(s * s, s, 1.0) / gamma <= 1e-6

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


def _one_cpu():
    # preexec_fn of a command that must run on a single CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _probe(setup, argv):
    # A script that runs cli.main(argv) after the ``setup`` lines and exits
    # with its status, or with 3 if a report worker is left unreaped.
    return "\n".join([
        "import os, signal, sys",
        "from boolemaps import cli",
        *setup,
        f"code = cli.main({argv!r})",
        "try:",
        "    os.waitpid(-1, os.WNOHANG)",
        "    code = 3",
        "except ChildProcessError:",
        "    pass",
        "sys.exit(code)",
    ])


def _old_json(report):
    # Reference renderer: the whole report with one dict per record, dumped
    # by json's pure-Python indenting encoder; numpy integers as ints.
    table = report["records"]
    records = [dict(zip(table.header, row)) for row in zip(*table.columns)]
    return json.dumps({**report, "records": records}, indent=2, default=int) + "\n"


def _old_csv(report):
    # Reference renderer: csv.writer over one row per record, repr of every
    # float and str of everything else.
    table = report["records"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.header)
    for row in zip(*table.columns):
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


class TestStreamingWriter:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "args",
        [
            ["iterate-params", "--alpha", "0.3", "--nu0", "2", "--gamma0", "0.7", "--steps", "20"],
            ["verify-pf", "--n", "20000", "--grid-size", "8"],
            ["geometry", "--nu0", "0", "--gamma0", "1"],
            ["orbit", "--n", "5"],
            ["orbit", "--alpha", "0.5", "--xi0", "1", "--n", "3"],  # truncated
            ["orbit", "--alpha", "0.8", "--xi0", "0.3", "--n", "100000"],  # 13 chunks
            ["orbit", "--n", "200000"],  # 25 chunks, the last of 3393 rows
        ],
        ids=["iterate-params", "verify-pf", "geometry", "orbit", "orbit-truncated", "orbit-1e5",
             "orbit-2e5"],
    )
    def test_matches_whole_report_renderers(self, tmp_path, monkeypatch, args, fmt):
        seen = []
        render = cli.render_report

        def capturing(report, *rest):
            seen.append(report)
            return render(report, *rest)

        monkeypatch.setattr(cli, "render_report", capturing)
        out = tmp_path / f"report.{fmt}"
        main(args + ["--format", fmt, "--out", str(out)])
        (report,) = seen
        expected = _old_json(report) if fmt == "json" else _old_csv(report)
        assert out.read_text() == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "rows", [1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1], ids=["1", "chunk", "chunk+1"]
    )
    def test_synthetic_table_matches_whole_report_renderers(self, fmt, rows):
        # Every kind of column a table holds, with non-finite and extreme
        # floats and those where repr changes notation; at one row past a
        # chunk the last chunk is a single row.
        edges = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1e-4, 1e-5,
                          1e16, 9999999999999998.0, 2.0**53 + 2, -1e-4, -1e-5, -1e16, -2.5e-300])
        table = cli.Table(
            ("step", "index", "flag", "count", "scalar", "edge", "mixed", "float"),
            (
                range(rows),
                np.arange(rows, dtype=np.int64),
                [i % 3 == 0 for i in range(rows)],
                [7 * i - 3 for i in range(rows)],
                [np.float64(i) / 7 for i in range(rows)],
                np.resize(edges, rows),
                [i / 3 if i % 2 else i for i in range(rows)],  # ints and floats
                [(-1.0) ** i * i / 3 for i in range(rows)],
            ),
        )
        report = {"config": {}, "records": table, "oracles": {}, "meta": {"timings": {}}}
        out = io.BytesIO()
        cli.render_report(report, fmt, out)
        expected = _old_json(report) if fmt == "json" else _old_csv(report)
        assert out.getvalue().decode() == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_cells_of_one_word_match_whole_report_renderers(self, fmt):
        # Every cell fits one 4-byte word, so each block's columns of cells
        # are as narrow as they can be.
        table = cli.Table(("a", "b"), ([0.0] * 5, [1, 2, 3, 4, 5]))
        report = {"config": {}, "records": table, "oracles": {}, "meta": {"timings": {}}}
        out = io.BytesIO()
        cli.render_report(report, fmt, out)
        expected = _old_json(report) if fmt == "json" else _old_csv(report)
        assert out.getvalue().decode() == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    def test_same_bytes_on_one_cpu_and_on_all(self, tmp_path, fmt, to_stdout):
        # Chunks are encoded by as many workers as the process has CPUs.
        def run(one_cpu):
            argv = [sys.executable, "-m", "boolemaps.cli", "orbit", "--n", "200000",
                    "--format", fmt]
            out = tmp_path / f"orbit.{fmt}"
            if not to_stdout:
                argv += ["--out", str(out)]
            proc = subprocess.run(argv, capture_output=True, timeout=120,
                                  preexec_fn=_one_cpu if one_cpu else None)
            assert (proc.returncode, proc.stderr) == (0, b"")
            text = proc.stdout if to_stdout else out.read_bytes()
            # meta, the last section of a JSON report, holds the run's timings
            return text.partition(b'\n  "meta": ')[0] if fmt == "json" else text

        assert run(one_cpu=True) == run(one_cpu=False)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("one_cpu", [False, True], ids=["all-cpus", "one-cpu"])
    def test_failed_chunk_fails_the_command(self, tmp_path, fmt, one_cpu):
        # An encoder that raises from the second chunk on, in whichever worker
        # encodes it: one line on stderr, exit 1, and every worker reaped.
        out = tmp_path / f"orbit.{fmt}"
        probe = "\n".join([
            "import os, sys",
            "from boolemaps import cli",
            f"encode = cli._{fmt}_chunk",
            "def failing(table, start):",
            "    if start:",
            "        raise ValueError('injected')",
            "    return encode(table, start)",
            f"cli._{fmt}_chunk = failing",
            f"argv = ['orbit', '--n', '200000', '--format', {fmt!r}, '--out', {str(out)!r}]",
            "code = cli.main(argv)",
            "try:",
            "    os.waitpid(-1, os.WNOHANG)",
            "except ChildProcessError:",
            "    print('no child left')",
            "sys.exit(code)",
        ])
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=120, preexec_fn=_one_cpu if one_cpu else None)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"boolemaps orbit: ReportError: rows from {cli._CHUNK_ROWS} not encoded:"
            " ValueError: injected\n"
        )
        assert proc.stdout == "no child left\n"

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a forked worker")
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_killed_worker_leaves_its_chunks_to_the_command(self, tmp_path, fmt):
        # The worker that encodes the second chunk is SIGKILLed as it starts
        # it; the command encodes that chunk and the worker's later ones.
        killed = tmp_path / "killed"

        def run(setup):
            out = tmp_path / f"orbit.{fmt}"
            argv = ["orbit", "--n", "200000", "--format", fmt, "--out", str(out)]
            proc = subprocess.run([sys.executable, "-c", _probe(setup, argv)],
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, "")
            text = out.read_bytes()
            # meta, the last section of a JSON report, holds the run's timings
            return text.partition(b'\n  "meta": ')[0] if fmt == "json" else text

        normal = run([])
        dying = run([
            "parent = os.getpid()",
            f"encode = cli._{fmt}_chunk",
            "def dying(table, start):",
            "    if start == cli._CHUNK_ROWS and os.getpid() != parent:",
            f"        open({str(killed)!r}, 'w').close()",
            "        os.kill(os.getpid(), signal.SIGKILL)",
            "    return encode(table, start)",
            f"cli._{fmt}_chunk = dying",
        ])
        assert killed.exists()
        assert dying == normal

    def test_closed_stdout_is_one_line(self):
        # A reader that stops early: exit 1, one line on stderr, and no
        # "Exception ignored" from the interpreter's flush at exit.
        probe = _probe([], ["orbit", "--n", "200000", "--format", "csv"])
        proc = subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.read(100)
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == "boolemaps orbit: BrokenPipeError: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("to_stdout", [False, True], ids=["out", "stdout"])
    @pytest.mark.parametrize("args", [["orbit", "--n", "200000", "--format", "csv"],
                                      ["iterate-params"]], ids=["orbit", "iterate-params"])
    def test_full_device_is_one_line(self, args, to_stdout):
        # A report of many chunks fails mid-stream, a small one at its flush.
        argv = args if to_stdout else args + ["--out", "/dev/full"]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-c", _probe([], argv)], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == (
            f"boolemaps {args[0]}: OSError: [Errno 28] No space left on device\n"
        )

    def test_fork_warning_is_not_shown(self, tmp_path, monkeypatch):
        # Python 3.12+ warns when a process with threads forks; a worker only
        # encodes and exits, so the warning is not the user's to act on.
        fork = os.fork

        def warning_fork():
            warnings.warn(
                f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead"
                " to deadlocks in the child.",
                DeprecationWarning,
                stacklevel=2,
            )
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        code, _ = run_json(tmp_path, ["orbit", "--n", "100000"])
        assert code == 0

    def test_timings_account_for_the_run(self, tmp_path):
        out = tmp_path / "orbit.json"
        started = time.perf_counter()
        argv = [sys.executable, "-m", "boolemaps.cli", "orbit", "--n", "200000", "--out", str(out)]
        subprocess.run(argv, check=True, timeout=120)
        wall = time.perf_counter() - started
        timings = json.loads(out.read_text())["meta"]["timings"]
        assert timings["render_s"] > 0
        assert sum(timings.values()) <= wall

    def test_meta_accounts_for_the_run(self, tmp_path):
        # The versions and CPUs it ran on, and the run's high-water mark,
        # not that of pytest, which launches it.
        out = tmp_path / "orbit.json"
        argv = [sys.executable, "-m", "boolemaps.cli", "orbit", "--n", "200000", "--out", str(out)]
        subprocess.run(argv, check=True, timeout=120)
        meta = json.loads(out.read_text())["meta"]
        assert meta["environment"] == {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        }
        assert 10 < meta["peak_rss_mb"] < 150

    def test_orbit_report_memory_is_bounded(self, tmp_path):
        # A child's ru_maxrss starts from its parent's high-water mark at exec,
        # so the command runs under a minimal parent, away from pytest's RSS.
        # Rendering the whole report as one string peaked near 290 MB.
        argv = [sys.executable, "-m", "boolemaps.cli", "orbit", "--n", "300000",
                "--format", "json", "--out", str(tmp_path / "orbit.json")]
        probe = (
            "import resource, subprocess, sys; "
            f"subprocess.run({argv!r}, check=True); "
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        peak_mb = int(proc.stdout) / 1024
        assert peak_mb < 150


class TestNumericalFailure:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pole_guard_failure_is_a_failed_report(self, tmp_path, fmt):
        # about half of a C(0, 1e-300) sample lies inside the pole guard,
        # although the flags are inside the range validate() accepts
        out = tmp_path / f"report.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "boolemaps.cli", "verify-pf", "--nu0", "0",
             "--gamma0", "1e-300", "--n", "10000", "--format", fmt, "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("boolemaps verify-pf: PoleGuardError: ")
        assert len(proc.stderr.splitlines()) == 1
        if fmt == "csv":
            assert out.read_text() == ""
            return
        report = json.loads(out.read_text())
        assert report["records"] == []
        assert report["oracles"]["error"].startswith("PoleGuardError: ")
        assert report["meta"]["passed"] is False

    def test_coinciding_quartiles_are_a_failed_report(self, tmp_path, capsys):
        # two nodes 1.6e-16*pi apart pass the node-collapse rule at nu0 = 3,
        # but the pushed sample's quartiles round to the same double
        argv = ["verify-pf", "--nu0", "3", "--gamma0", "1.6e-16", "--grid-size", "2",
                "--n", "10000"]
        code, report = run_json(tmp_path, argv)
        assert code == 1
        assert report["records"] == []
        assert report["oracles"]["error"].startswith("SingularInputError: ")
        assert report["meta"]["passed"] is False
        err = capsys.readouterr().err
        assert err.startswith("boolemaps verify-pf: SingularInputError: ")
        assert len(err.splitlines()) == 1

    def test_metric_beyond_the_doubles_is_a_failed_report(self, tmp_path, capsys):
        # at alpha = 5e-324 a step lands at gamma ~1e-323, where neither
        # 1/(2*gamma^2) nor the canonical momentum 1/(2*gamma) is a double
        code, report = run_json(tmp_path, ["geometry", "--alpha", "5e-324"])
        assert code == 1
        assert report["oracles"]["error"].startswith("SingularInputError: ")
        assert report["oracles"]["warnings"] == []
        err = capsys.readouterr().err
        assert err.startswith("boolemaps geometry: SingularInputError: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--gamma0", "--alpha"])
    def test_singular_input_is_a_failed_report(self, tmp_path, capsys, flag):
        # the image of gamma0 = 5e-324, or of gamma0 = 1 at alpha = 5e-324,
        # is not a point of H in floating point
        code, report = run_json(tmp_path, ["iterate-params", flag, "5e-324"])
        assert code == 1
        assert report["oracles"]["error"].startswith("SingularInputError: ")
        assert report["meta"]["passed"] is False
        err = capsys.readouterr().err
        assert err.startswith("boolemaps iterate-params: SingularInputError: ")
        assert len(err.splitlines()) == 1


def test_import_leaves_scipy_unloaded(tmp_path):
    # The runtime needs only numpy; scipy serves the tests as an oracle.  So
    # neither the import nor any of the four commands may load a scipy module.
    commands = [
        ["iterate-params"],
        ["verify-pf", "--n", "10000"],
        ["geometry"],
        ["orbit", "--n", "100000"],
    ]
    probe = "\n".join([
        "import sys, boolemaps.cli",
        f"for argv in {commands!r}:",
        f"    assert boolemaps.cli.main(argv + ['--out', {str(tmp_path / 'r.json')!r}]) == 0, argv",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
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


# Any float a flag may be given: magnitudes log-uniform over 5e-324..1e308,
# of either sign, and the edges 0, -0, +-inf and nan.
_ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.builds(
        lambda exponent, negative: -(10.0**exponent) if negative else 10.0**exponent,
        st.floats(min_value=-323.3, max_value=308.0),
        st.booleans(),
    ),
)
# Small integers, around each command's own limits.  An orbit of fewer than
# 2^16 steps, log-uniform, is a report of at most eight chunks.
_INTS = {
    ("verify-pf", "n"): st.one_of(st.integers(-2, 2), st.integers(10**4, 2 * 10**4)),
    ("orbit", "n"): st.one_of(
        st.integers(-2, 0), st.floats(min_value=0.0, max_value=16.0).map(lambda e: int(2**e) - 1)
    ),
    "steps": st.integers(-1, 30),
    "seed": st.integers(-2, 2**64),
    "grid_size": st.integers(-1, 4096),
}


@pytest.mark.parametrize("command", list(cli._COMMAND_FLAGS))
@given(data=st.data())
def test_every_flag_value_gives_an_exit_status(command, data):
    # 0, 1 or 2, never an exception; exit 2 says why in one line, and exit 1
    # in at most one.  A warning does not stop the run, as in the installed
    # command; the suite's warnings-as-errors filter is set aside.  Geometry
    # at the default alpha holds at every --nu0 and --gamma0 it accepts: it
    # passes every check, or exits 2 on a point outside the metric's domain.
    argv = [command]
    for flag in cli._COMMAND_FLAGS[command]:
        if data.draw(st.booleans(), label=f"set --{flag}"):
            kind = cli._FLAGS[flag][0]
            strategy = _ANY_FLOAT if kind is float else _INTS.get((command, flag), _INTS.get(flag))
            argv.append(f"--{flag.replace('_', '-')}={data.draw(strategy, label=flag)!r}")
    err = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stderr(err):
        warnings.resetwarnings()
        try:
            code = main(argv + ["--out", os.devnull])
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), argv
    if command == "geometry" and not any(arg.startswith("--alpha=") for arg in argv):
        assert code in (0, 2), argv
    if code == 2:
        assert [line for line in lines if ": error: " in line] == lines[-1:], lines
        assert re.match(rf"boolemaps( {command})?: error: ", lines[-1]), lines
    else:
        assert len(lines) <= (1 if code == 1 else 0), lines
