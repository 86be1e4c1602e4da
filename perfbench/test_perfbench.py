"""The benchmark's own tests: its checks must be able to fail.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inproc  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _python(*args, cwd=ROOT):
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == workloads.WHY[workload["name"]]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        first = [next(workloads.cycles(workload, 7)) for _ in range(2)]
        again = [next(workloads.cycles(workload, 7)) for _ in range(2)]
        assert first == again
        assert next(workloads.cycles(workload, 8)) != first[0]


def _moderate_ops(n):
    stream = workloads.cycles("closed-form-ensemble", 3)
    ops = []
    while len(ops) < n:
        ops += [op for op in next(stream) if op["kind"] == "moderate"]
    return ops[:n]


def test_injected_wrong_parameter_step_is_counted_in_failed_frac(monkeypatch):
    runner = inproc.Runner()
    ops = _moderate_ops(6)
    clean = [runner.run(op) for op in ops]
    assert all(r["status"] != inproc.FAILED for r in clean)

    halfplane = runner.halfplane
    original = halfplane.parameter_step

    def perturbed(alpha, x):
        out = original(alpha, x)
        return dataclasses.replace(out, nu=out.nu * (1.0 + 1e-9) + 1e-300)

    monkeypatch.setattr(halfplane, "parameter_step", perturbed)
    injected = [runner.run(op) for op in ops]
    assert all(r["status"] == inproc.FAILED for r in injected)
    assert all(r["reason"].startswith("parameter_step") for r in injected)
    assert run.end_to_end("closed-form-ensemble", clean, [1.0], 1.0)["failed_frac"] == 0.0
    assert run.end_to_end("closed-form-ensemble", injected, [1.0], 1.0)["failed_frac"] == 1.0


def test_exact_reference_rejects_one_part_in_1e9():
    from boolemaps.halfplane import HPoint, parameter_step

    alpha, nu, gamma = 0.37, -1.7e-150, 3.3e-151
    out = parameter_step(alpha, HPoint(1.3, 0.2))
    assert checks.check_parameter_step(alpha, 1.3, 0.2, out, None) is None
    wrong = dataclasses.replace(out, gamma=out.gamma * (1.0 + 1e-9))
    assert checks.check_parameter_step(alpha, 1.3, 0.2, wrong, None)
    # A raise is a failure only when the exact image fits in a float.
    assert checks.check_parameter_step(alpha, nu, gamma, None, ZeroDivisionError())
    assert checks.check_parameter_step(alpha, 1e-320, 1e-320, None, OverflowError()) is None


@pytest.fixture(scope="module")
def iterate_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("report") / "report.json"
    op = {"kind": "iterate-params", "format": "json", "alpha": 0.3, "nu0": 0.4,
          "gamma0": 2.5, "steps": 12}
    proc = _python("-m", "boolemaps.cli", *workloads.cli_argv(op), "--out", str(out))
    return op, proc, json.loads(out.read_text())


def _check_report(tmp_path, op, proc, report):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return checks.check_cli(op, proc.returncode, proc.stderr, str(path))


def test_cli_report_checks_content_not_bytes(tmp_path, iterate_report):
    op, proc, report = iterate_report
    assert _check_report(tmp_path, op, proc, report) is None
    extended = copy.deepcopy(report)
    extended["meta"]["timings"] = {"render": 0.1}
    extended["records"][3]["extra_field"] = 1.0
    assert _check_report(tmp_path, op, proc, extended) is None


def test_flipped_meta_passed_is_a_failure(tmp_path, iterate_report):
    op, proc, report = iterate_report
    flipped = copy.deepcopy(report)
    flipped["meta"]["passed"] = False
    reason = _check_report(tmp_path, op, proc, flipped)
    assert reason == "meta.passed is not true"
    ops = [{"kind": op["kind"], "latency_s": 1.0, "status": "failed" if reason else "ok",
            "known_defect": False, "output_bytes": 1}]
    assert run.end_to_end("cli-sweep", ops, [1.0], 1.0)["failed_frac"] == 1.0


def test_wrong_record_and_missing_record_are_failures(tmp_path, iterate_report):
    op, proc, report = iterate_report
    wrong = copy.deepcopy(report)
    wrong["records"][5]["gamma"] *= 1.0 + 1e-9
    assert "record 5" in _check_report(tmp_path, op, proc, wrong)
    short = copy.deepcopy(report)
    short["records"].pop()
    assert "records for" in _check_report(tmp_path, op, proc, short)


def test_wrong_geometry_oracle_value_is_a_failure(tmp_path):
    out = tmp_path / "geometry.json"
    op = {"kind": "geometry", "format": "json", "alpha": 0.4, "nu0": 0.7, "gamma0": 1.9}
    proc = _python("-m", "boolemaps.cli", *workloads.cli_argv(op), "--out", str(out))
    report = json.loads(out.read_text())
    assert _check_report(tmp_path, op, proc, report) is None
    for field, wrong in (("quadrature_error", 1e-3), ("symplectic_defect", 0.5),
                         ("lie_metric_max", 1e-2), ("pullback_deviation", float("nan"))):
        edited = copy.deepcopy(report)
        edited["records"][0][field] = wrong
        assert _check_report(tmp_path, op, proc, edited).startswith("record 0:"), field


def test_invalid_input_must_exit_2_without_a_traceback():
    op = {"kind": "invalid", "argv": workloads.INVALID_ARGV[0], "known_defect": True}
    usage = "usage: boolemaps verify-pf [-h]\nboolemaps verify-pf: error: n must be >= 10000\n"
    assert checks.check_cli(op, 2, usage, "unused") is None
    traceback = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert "crashed" in checks.check_cli(op, 1, traceback, "unused")


def test_traced_orbit_command_iterates_twice(tmp_path):
    prefix = tmp_path / "orbit"
    proc = _python(str(HERE / "trace_cli.py"), str(prefix), "orbit", "--n", "100000",
                   "--format", "csv", "--out", str(tmp_path / "orbit.csv"))
    assert proc.returncode == 0, proc.stderr
    metrics = tracer.layer_metrics(json.loads((tmp_path / "orbit.json").read_text()))
    assert metrics["orbit.iterate_orbit.calls_per_orbit_cmd"] == 2.0
    assert metrics["orbit.iterate_orbit.steps"] == 200000
    assert metrics["cli.records.count"] == 100001
    assert (tmp_path / "orbit.spans.npz").is_file()


def test_traced_oracle_batch_sees_discarded_fits(tmp_path):
    proc = _python(str(HERE / "inproc.py"), "--workload", "oracle-batch", "--seed", "5",
                   "--seconds", "0.01", "--trace", "1", "--result", str(tmp_path / "r.json"),
                   "--spans", str(tmp_path / "spans"))
    assert proc.returncode == 0, proc.stderr
    metrics = tracer.layer_metrics(json.loads((tmp_path / "spans.json").read_text()))
    assert 0.0 < metrics["density.fit_cauchy.useful_ratio"] < 1.0
    assert metrics["density.errors"] == 0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    proc = _python(str(HERE / "run.py"), "--workload", "cli-sweep", "--seed", "1",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
