"""Command-line front-end: run experiments, verify claims, emit reports.

Subcommands
-----------
iterate-params   trajectory of the half-plane map with per-step geometry data
verify-pf        grid and Monte Carlo push-forward oracles vs the closed form
geometry         metric/symplectic verification at a point and on a lattice
orbit            pointwise orbit trace with an ergodicity check for long runs

Each command parses only the flags it reads (``_COMMAND_FLAGS``), plus
--out and --format; any other flag, or a value the command cannot run with,
exits 2 with a one-line message.

Reports carry ``config`` (the command and its flags), ``records``,
``oracles`` and ``meta`` sections and serialize to JSON (everything) or CSV
(the records table).  ``meta.timings`` holds the seconds spent validating
the flags, computing and rendering.  Records are kept as columns and
streamed to the output a chunk of rows at a time.  The chunks are encoded
round-robin on every CPU the process may run on, by the process itself and
forked workers, and written in order; the bytes do not depend on the number
of CPUs.  Floats are written in shortest round-trip form so identical runs
diff cleanly.  The exit status is 0 exactly when every tolerance check the
command configured has passed; a numerical failure in the library gives
exit 1 and a report with empty records and ``oracles.error``, and a chunk
that cannot be encoded gives exit 1 and one line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import signal
import struct
import sys
import time
import warnings
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from . import __version__
from .density import (
    DEFAULT_GRID_SIZE,
    MAX_SAMPLE_OFFSET,
    MIN_MONTE_CARLO_SIZE,
    ks_distance,
    pf_closed_form_check,
    pf_monte_carlo_check,
)
from .errors import FitConvergenceError, PoleGuardError, QuadratureError, SingularInputError
from .geometry import (
    FD_STEP,
    KILLING_FIELD_NAMES,
    canonical_form_coefficient,
    conformal_factor,
    fisher_metric,
    fisher_metric_quadrature,
    lie_derivative_metric,
    lie_derivative_two_form,
    symplectic_defect,
    verify_conformal_pullback,
)
from .halfplane import (
    HPoint,
    fixed_point,
    iterate_parameter_map,
    to_canonical,
)
from .orbit import POLE_EPS, check_alpha, iterate_orbit

SUP_ERROR_TOL = 1e-10
QUADRATURE_TOL = 1e-8
PULLBACK_TOL = 1e-5
LIE_TOL = 1e-6
CANONICAL_TOL = 1e-14
KS_TOL = 1e-2
KS_MIN_SAMPLES = 10**5
#: Points closer than this to (0, 1) have a vanishing conformal factor.
DEGENERACY_RADIUS = 0.1


#: Every flag a command may take, as (type, default, help).
_FLAGS = {
    "alpha": (float, 0.5, "map parameter in (0,1)"),
    "nu0": (float, 1.0, "initial location"),
    "gamma0": (float, 1.0, "initial scale (> 0)"),
    "xi0": (float, math.sqrt(2.0), "orbit seed"),
    "n": (int, 10**6, "sample size / orbit length"),
    "steps": (int, 1, "number of map iterations"),
    "seed": (int, 42, "RNG seed"),
    "grid_size": (int, DEFAULT_GRID_SIZE, "density grid node count"),
}

#: The flags each command reads, besides --out and --format.
_COMMAND_FLAGS = {
    "iterate-params": ("alpha", "nu0", "gamma0", "steps"),
    "verify-pf": ("alpha", "nu0", "gamma0", "n", "steps", "seed", "grid_size"),
    "geometry": ("alpha", "nu0", "gamma0"),
    "orbit": ("alpha", "xi0", "n"),
}


def validate(cfg: argparse.Namespace) -> None:
    """Raise ValueError on a flag value the command cannot run with."""
    flags = vars(cfg)
    check_alpha(cfg.alpha)
    for name in ("nu0", "gamma0"):
        if name in flags and not math.isfinite(flags[name]):
            raise ValueError(f"{name} must be finite, got {flags[name]}")
    for name in ("n", "steps"):
        if flags.get(name, 1) < 1:
            raise ValueError(f"{name} must be >= 1, got {flags[name]}")
    if "gamma0" in flags and cfg.gamma0 <= 0:
        raise ValueError(f"gamma0 must be positive, got {cfg.gamma0}")
    # The geometry oracles step both gamma and p = 1/(2*gamma) by FD_STEP.
    if cfg.command == "geometry" and not FD_STEP < cfg.gamma0 < 0.5 / FD_STEP:
        raise ValueError(f"gamma0 must lie in ({FD_STEP}, {0.5 / FD_STEP}), got {cfg.gamma0}")
    if cfg.command == "verify-pf":
        if cfg.n < MIN_MONTE_CARLO_SIZE:
            raise ValueError(f"n must be >= {MIN_MONTE_CARLO_SIZE}, got {cfg.n}")
        if cfg.grid_size < 2:
            raise ValueError(f"grid-size must be >= 2, got {cfg.grid_size}")
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        # cauchy_grid's central nodes are about this far apart; no more than
        # one double apart at nu0, neighbouring nodes round to the same value.
        gap = cfg.gamma0 * math.pi / (cfg.grid_size - 1)
        if not gap > math.ulp(cfg.nu0):
            raise ValueError(
                f"grid nodes collapse: gamma0*pi/(grid-size - 1) = {gap:.3g} does not exceed"
                f" the spacing {math.ulp(cfg.nu0):.3g} of doubles at nu0 = {cfg.nu0}"
            )
        # Every point of the sample, and so of the grid, lies within
        # gamma0*MAX_SAMPLE_OFFSET of nu0; that must stay a finite double.
        if not math.isfinite(abs(cfg.nu0) + cfg.gamma0 * MAX_SAMPLE_OFFSET):
            limit = (sys.float_info.max - abs(cfg.nu0)) / MAX_SAMPLE_OFFSET
            raise ValueError(
                f"gamma0 must not exceed {limit:.4g} at nu0 = {cfg.nu0}, or a sample point"
                f" can overflow; got {cfg.gamma0}"
            )
    if cfg.command == "orbit" and not (math.isfinite(cfg.xi0) and abs(cfg.xi0) >= POLE_EPS):
        raise ValueError(f"xi0 must be finite with |xi0| >= {POLE_EPS}, got {cfg.xi0}")


@dataclass(frozen=True)
class Table:
    """A report's records: equal-length columns under a header.

    A column is any sliceable sequence (a list, a range, an ndarray), and
    ``len`` gives the number of rows.
    """

    header: tuple[str, ...] = ()
    columns: tuple = ()

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0


def _table(rows: list[dict]) -> Table:
    header = tuple(rows[0])
    return Table(header, tuple([row[key] for row in rows] for key in header))


def _param_records(cfg: argparse.Namespace) -> list[dict]:
    target = fixed_point(cfg.alpha)
    records = []
    trajectory = iterate_parameter_map(cfg.alpha, HPoint(cfg.nu0, cfg.gamma0), cfg.steps)
    for step, point in enumerate(trajectory):
        canonical = to_canonical(point)
        records.append(
            {
                "step": step,
                "nu": float(point.nu),
                "gamma": float(point.gamma),
                "q": float(canonical.q),
                "p": float(canonical.p),
                "conformal_factor": float(conformal_factor(point)),
                "dist_to_fixed_point": math.hypot(
                    point.nu - target.nu, point.gamma - target.gamma
                ),
            }
        )
    return records


def cmd_iterate_params(cfg: argparse.Namespace) -> tuple[dict, bool]:
    records = _param_records(cfg)
    target = fixed_point(cfg.alpha)
    oracles = {
        "fixed_point_nu": float(target.nu),
        "fixed_point_gamma": float(target.gamma),
        "final_dist_to_fixed_point": records[-1]["dist_to_fixed_point"],
        "closure_gamma_positive": all(r["gamma"] > 0.0 for r in records),
    }
    return {"records": _table(records), "oracles": oracles}, bool(oracles["closure_gamma_positive"])


def cmd_verify_pf(cfg: argparse.Namespace) -> tuple[dict, bool]:
    params = HPoint(cfg.nu0, cfg.gamma0)
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        sup_error = pf_closed_form_check(cfg.alpha, params, cfg.grid_size)
        report = pf_monte_carlo_check(cfg.alpha, params, cfg.n, cfg.steps, cfg.seed)
    caught = [str(w.message) for w in grabbed]
    records = _param_records(cfg)
    # the tolerance is relative to the peak 1/(pi*gamma) of the stepped law
    peak = 1.0 / (math.pi * records[1]["gamma"])
    oracles = {
        "sup_error": sup_error,
        "sup_error_pass": sup_error < SUP_ERROR_TOL * peak,
        "predicted_nu": report.predicted.nu,
        "predicted_gamma": report.predicted.gamma,
        "fitted_nu": report.measured.nu,
        "fitted_gamma": report.measured.gamma,
        "delta_nu": report.measured.nu - report.predicted.nu,
        "delta_gamma": report.measured.gamma - report.predicted.gamma,
        "fit_stderr": report.stderr,
        "n_dropped": report.n_dropped,
        "monte_carlo_pass": report.within_tolerance,
        "warnings": caught,
    }
    passed = bool(oracles["sup_error_pass"] and oracles["monte_carlo_pass"])
    return {"records": _table(records), "oracles": oracles}, passed


_LATTICE_NU = (-2.0, -1.0, 0.0, 1.0, 2.0)
_LATTICE_GAMMA = (0.5, 1.0, 2.0, 3.0, 4.0)


def _geometry_row(alpha: float, point: HPoint) -> dict:
    metric = fisher_metric(point)
    quad = fisher_metric_quadrature(point)
    quad_err = max(
        abs(quad.g_nn - metric.g_nn), abs(quad.g_ng), abs(quad.g_gg - metric.g_gg)
    )
    lie_g = float(
        max(
            max(abs(lie.g_nn), abs(lie.g_ng), abs(lie.g_gg))
            for lie in (lie_derivative_metric(name, point) for name in KILLING_FIELD_NAMES)
        )
    )
    lie_w = float(
        max(abs(lie_derivative_two_form(name, point)) for name in KILLING_FIELD_NAMES)
    )
    degenerate = math.hypot(point.nu, point.gamma - 1.0) < DEGENERACY_RADIUS
    return {
        "nu": point.nu,
        "gamma": point.gamma,
        "conformal_factor": conformal_factor(point),
        "degenerate": degenerate,
        "pullback_deviation": verify_conformal_pullback(alpha, point),
        "quadrature_error": quad_err,
        "lie_metric_max": lie_g,
        "lie_two_form_max": lie_w,
        "canonical_coefficient": canonical_form_coefficient(point),
        "symplectic_defect": symplectic_defect(alpha, to_canonical(point)),
    }


def cmd_geometry(cfg: argparse.Namespace) -> tuple[dict, bool]:
    records = [_geometry_row(cfg.alpha, HPoint(cfg.nu0, cfg.gamma0))]
    for gamma in _LATTICE_GAMMA:
        for nu in _LATTICE_NU:
            records.append(_geometry_row(cfg.alpha, HPoint(nu, gamma)))
    checks = {
        "quadrature_pass": all(r["quadrature_error"] < QUADRATURE_TOL for r in records),
        "pullback_pass": all(
            r["pullback_deviation"] < PULLBACK_TOL
            for r in records
            if not r["degenerate"]
        ),
        "lie_pass": all(
            max(r["lie_metric_max"], r["lie_two_form_max"]) < LIE_TOL for r in records
        ),
        "canonical_pass": all(
            abs(r["canonical_coefficient"] - 1.0) < CANONICAL_TOL for r in records
        ),
    }
    oracles = dict(checks)
    oracles["degenerate_points"] = sum(1 for r in records if r["degenerate"])
    return {"records": _table(records), "oracles": oracles}, all(checks.values())


def cmd_orbit(cfg: argparse.Namespace) -> tuple[dict, bool]:
    result = iterate_orbit(cfg.alpha, cfg.xi0, cfg.n)
    records = Table(("step", "xi"), (range(len(result.points)), result.points))
    oracles: dict = {
        "truncated": result.truncated,
        "last_index": result.last_index,
    }
    passed = True
    if cfg.n >= KS_MIN_SAMPLES:
        if result.truncated:
            oracles["ks_pass"] = False
            passed = False
        else:
            invariant = fixed_point(cfg.alpha)
            ks = ks_distance(result.points, invariant)
            oracles["ks_distance"] = ks
            oracles["invariant_nu"] = invariant.nu
            oracles["invariant_gamma"] = invariant.gamma
            oracles["ks_pass"] = ks < KS_TOL
            passed = bool(oracles["ks_pass"])
    return {"records": records, "oracles": oracles}, passed


_COMMANDS = {
    "iterate-params": cmd_iterate_params,
    "verify-pf": cmd_verify_pf,
    "geometry": cmd_geometry,
    "orbit": cmd_orbit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolemaps",
        description="Boole-transform dynamics, half-plane parameter maps, and their verification oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            kind, default, text = _FLAGS[flag]
            p.add_argument("--" + flag.replace("_", "-"), type=kind, default=default,
                           dest=flag, help=text)
        p.add_argument("--out", type=str, default=None, dest="output_path",
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
    sub.choices["iterate-params"].set_defaults(steps=10)
    return parser


_CHUNK_ROWS = 1 << 16
#: A frame on a worker's pipe: whether the chunk was encoded, then the length
#: in bytes of what follows, the chunk's text or the failure that stopped it.
_FRAME = struct.Struct("<?Q")


class ReportError(RuntimeError):
    """A worker failed to encode its records, so the report is incomplete."""


def _columns(table: Table, start: int) -> list[list]:
    # The rows of one chunk, from ``start``, each column as Python scalars.
    parts = [column[start:start + _CHUNK_ROWS] for column in table.columns]
    return [part.tolist() if isinstance(part, np.ndarray) else list(part) for part in parts]


def _csv_cells(values: list) -> list[str]:
    # repr of a Python float is its shortest round-trip decimal; the float()
    # coercion strips numpy scalar types, whose repr is not parseable
    return [repr(float(v)) if isinstance(v, float) else str(v) for v in values]


def _csv_chunk(table: Table, start: int) -> str:
    """The CSV lines of one chunk of rows, from ``start``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(zip(*map(_csv_cells, _columns(table, start))))
    return text.getvalue()


def _json_chunk(table: Table, start: int) -> str:
    """One chunk of rows, from ``start``, as items of the indented records array.

    The C encoder encodes a column at a time, and each row is laid into a
    template; a chunk after the first begins with the separator before it.
    """
    row = "    {" + ",".join(f"\n      {json.dumps(key)}: %s" for key in table.header) + "\n    }"
    # "\n" as the item separator: no encoded value contains a raw newline
    cells = [json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
             for values in _columns(table, start)]
    return (",\n" if start else "") + ",\n".join(map(row.__mod__, zip(*cells)))


def _cpu_count() -> int:
    # the CPUs this process may run on; one where the OS cannot say
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork() -> int:
    # Python 3.12+ warns that forking a process with threads (numpy's BLAS
    # pool) can deadlock a child that needs a lock another thread held.  A
    # worker takes none: it encodes with json and csv, writes to its pipe
    # and leaves through os._exit.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
        )
        return os.fork()


def _encode(encode, table: Table, start: int) -> str:
    # A failed chunk reads the same from any worker: one line, not a traceback.
    try:
        return encode(table, start)
    except Exception as exc:
        raise ReportError(f"rows from {start} not encoded: {type(exc).__name__}: {exc}") from exc


def _serve(table: Table, encode, starts: range, pipe, readers: list) -> NoReturn:
    # A forked worker: send each chunk, or the failure that stopped it, then
    # leave through os._exit, so that no exit handler runs and no buffer
    # copied from the parent (its unflushed report among them) is written.
    # The parent learns of a failure from the pipe, not the exit status.
    try:
        for reader in readers:  # the parent's ends, so that only it holds them
            reader.close()
        for start in starts:
            try:
                data, encoded = _encode(encode, table, start).encode(), True
            except ReportError as exc:
                data, encoded = str(exc).encode(), False
            pipe.write(_FRAME.pack(encoded, len(data)))
            pipe.write(data)
            pipe.flush()
            if not encoded:
                break
    finally:
        os._exit(0)


def _receive(pipe, start: int) -> str:
    # A worker's chunk from ``start``; ReportError if it sent its failure or died.
    header = pipe.read(_FRAME.size)
    if len(header) == _FRAME.size:
        encoded, size = _FRAME.unpack(header)
        data = pipe.read(size)
        if len(data) == size:
            if encoded:
                return data.decode()
            raise ReportError(data.decode())
    raise ReportError(f"rows from {start} not encoded: the worker exited")


def _write_chunks(table: Table, encode, handle) -> None:
    """Write ``encode(table, start)`` for every chunk of rows, in order.

    Chunk k is encoded by worker k % W, with W the number of CPUs this
    process may run on, at most the number of chunks.  Worker 0 is this
    process; the others are forked children, which send their chunks back
    through pipes.  A child blocks on its pipe until its chunk is read, so
    no worker holds more than one chunk of text.
    """
    starts = range(0, len(table), _CHUNK_ROWS)
    workers = min(_cpu_count(), len(starts))
    pipes, pids = [], []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as pipe:
                pid = _fork()
                if pid == 0:
                    _serve(table, encode, starts[w::workers], pipe, pipes)
            pids.append(pid)
        for k, start in enumerate(starts):
            w = k % workers
            handle.write(_receive(pipes[w - 1], start) if w else _encode(encode, table, start))
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # every chunk was read, or the report failed: no worker is needed now
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_csv(table: Table, handle) -> None:
    if table.header:
        csv.writer(handle, lineterminator="\n").writerow(table.header)
    _write_chunks(table, _csv_chunk, handle)


_RECORDS_SLOT = "\0records\0"


def _around_records(report: dict) -> tuple[str, str]:
    # The JSON text before and after the records of json.dumps(report, indent=2).
    head, _, tail = json.dumps({**report, "records": _RECORDS_SLOT}, indent=2).partition(
        json.dumps(_RECORDS_SLOT)
    )
    return head, tail


def _write_json(report: dict, handle) -> None:
    # The same text as json.dumps(report, indent=2) with every record a dict.
    # With indent set, json encodes in pure Python; here only the small
    # remainder of the report goes that way.  The tail (oracles, meta) is
    # encoded after the records, so that render_s counts them.
    started = time.perf_counter()
    table = report["records"]
    head, _ = _around_records(report)
    if len(table):
        handle.write(head + "[\n")
        _write_chunks(table, _json_chunk, handle)
        handle.write("\n  ]")
    else:
        handle.write(head + "[]")
    report["meta"]["timings"]["render_s"] = time.perf_counter() - started
    _, tail = _around_records(report)
    handle.write(tail + "\n")


def render_report(report: dict, fmt: str, handle) -> None:
    """Write ``report`` to ``handle``: all of it as JSON, or its records as CSV.

    Rows are written in chunks straight from the record columns, encoded on
    every CPU this process may run on, so the whole report is never held as
    one string.  JSON sets ``meta.timings.render_s`` to the time spent up to
    the tail that holds it.  ReportError means the records were cut short.
    """
    if fmt == "csv":
        _write_csv(report["records"], handle)
    else:
        _write_json(report, handle)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    cfg = parser.parse_args(argv)
    try:
        validate(cfg)
    except ValueError as exc:
        parser.error(str(exc))

    validated = time.perf_counter()
    try:
        body, passed = _COMMANDS[cfg.command](cfg)
    except (QuadratureError, FitConvergenceError, PoleGuardError, SingularInputError) as exc:
        # A numerical failure is a failed run, reported like any other.
        error = f"{type(exc).__name__}: {exc}"
        print(f"boolemaps {cfg.command}: {error}", file=sys.stderr)
        body, passed = {"records": Table(), "oracles": {"error": error}}, False
    report = {
        "config": vars(cfg),
        "records": body["records"],
        "oracles": body["oracles"],
        "meta": {
            "version": __version__,
            "timings": {
                "validate_s": validated - started,
                "compute_s": time.perf_counter() - validated,
                "render_s": 0.0,  # set by the JSON writer
            },
            "passed": passed,
        },
    }
    try:
        if cfg.output_path:
            with open(cfg.output_path, "w") as handle:
                render_report(report, cfg.format, handle)
        else:
            render_report(report, cfg.format, sys.stdout)
    except ReportError as exc:
        print(f"boolemaps {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
