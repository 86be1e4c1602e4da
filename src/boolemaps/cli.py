"""Command-line front-end: run experiments, verify claims, emit reports.

Subcommands
-----------
iterate-params   trajectory of the half-plane map with per-step geometry data
verify-pf        grid and Monte Carlo push-forward oracles vs the closed form
geometry         metric/symplectic verification at a point and on a lattice
orbit            pointwise orbit trace with an ergodicity check for long runs

Each command parses only the flags it reads (``_COMMAND_FLAGS``), plus
--out and --format; any other flag, a value the command cannot run with, or
an --out that cannot be opened, exits 2 with a one-line message before the
command runs.

Reports carry ``config`` (the command and its flags), ``records``,
``oracles`` and ``meta`` sections and serialize to JSON (everything) or CSV
(the records table).  ``meta.timings`` holds the seconds spent validating
the flags, computing and rendering, ``meta.peak_rss_mb`` the run's memory
high-water mark and ``meta.environment`` the Python and numpy versions and
the CPU count; ``oracles.warnings`` lists the warnings the command raised.
Records are kept as columns and streamed to the output a chunk of rows at
a time, as bytes, to the file or to the binary buffer under stdout.  The
chunks are encoded round-robin on every CPU the process may run on, by the
process itself and forked workers, and written in order; a worker sends
only chunk bytes, and the process encodes every chunk it did not receive,
so a worker that fails or dies costs time, not the report.  The bytes do
not depend on the number of CPUs.  A float is written as
``float.__repr__`` writes it, the shortest decimal that reads back to the
same double, so identical runs diff cleanly; nan and the infinities are
spelled as JSON or Python spell them.  Float64 and integer arrays and
ranges are spelled by the numpy kernels of ``_numtext``, with no Python
object per cell, and columns held as lists by json or a cell at a time.  A
chunk of rows is one matrix of cell and separator bytes, laid out by one
boolean index.  The exit status is 0 exactly when every tolerance check the
command configured has passed; a numerical failure in the library gives
exit 1 and a report with empty records and ``oracles.error``, and a chunk
that cannot be encoded, or a write that fails, gives exit 1 and one line on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import struct
import sys
import time
import warnings
from dataclasses import astuple, dataclass
from typing import NoReturn

import numpy as np

from . import __version__
from ._numtext import float_text, int_text
from .density import (
    DEFAULT_GRID_SIZE,
    KS_MIN_SAMPLES,
    MAX_SAMPLE_OFFSET,
    MIN_MONTE_CARLO_SIZE,
    ks_distance,
    pf_closed_form_check,
    pf_monte_carlo_check,
)
from .errors import FitConvergenceError, PoleGuardError, QuadratureError, SingularInputError
from .geometry import (
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
#: Geometry tolerances are relative to the metric, and for Lie derivatives to gamma.
QUADRATURE_TOL = 1e-12
PULLBACK_TOL = 1e-10
LIE_TOL = 1e-9
CANONICAL_TOL = 1e-14
KS_TOL = 1e-2
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
    if cfg.command == "geometry":
        try:
            fisher_metric(HPoint(cfg.nu0, cfg.gamma0))
        except SingularInputError as exc:
            raise ValueError(f"gamma0 must lie in the metric's domain: {exc}") from None
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
    sup_error = pf_closed_form_check(cfg.alpha, params, cfg.grid_size)
    report = pf_monte_carlo_check(cfg.alpha, params, cfg.n, cfg.steps, cfg.seed)
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
    }
    passed = bool(oracles["sup_error_pass"] and oracles["monte_carlo_pass"])
    return {"records": _table(records), "oracles": oracles}, passed


_LATTICE_NU = (-2.0, -1.0, 0.0, 1.0, 2.0)
_LATTICE_GAMMA = (0.5, 1.0, 2.0, 3.0, 4.0)


def _geometry_row(alpha: float, point: HPoint) -> dict:
    metric = fisher_metric(point)
    quad = fisher_metric_quadrature(point)
    gaps = (quad.g_nn - metric.g_nn, quad.g_ng, quad.g_gg - metric.g_gg)
    lie_g = [astuple(lie_derivative_metric(name, point)) for name in KILLING_FIELD_NAMES]
    lie_w = [lie_derivative_two_form(name, point) for name in KILLING_FIELD_NAMES]
    degenerate = math.hypot(point.nu, point.gamma - 1.0) < DEGENERACY_RADIUS
    return {
        "nu": point.nu,
        "gamma": point.gamma,
        "conformal_factor": conformal_factor(point),
        "degenerate": degenerate,
        "pullback_deviation": verify_conformal_pullback(alpha, point),
        "quadrature_error": max(map(abs, gaps)) / metric.g_nn,
        "lie_metric_max": max(abs(value) for entries in lie_g for value in entries),
        "lie_two_form_max": max(map(abs, lie_w)),
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
        if not result.truncated:
            target = fixed_point(cfg.alpha)
            oracles["ks_distance"] = ks_distance(result.points, target)
            oracles["invariant_nu"] = target.nu
            oracles["invariant_gamma"] = target.gamma
        oracles["ks_pass"] = passed = oracles.get("ks_distance", math.inf) < KS_TOL
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


#: Rows per chunk, each one matrix of words: the text kernels' working
#: arrays stay small.
_CHUNK_ROWS = 1 << 13
#: A frame on a worker's pipe: the length in bytes of the chunk that follows.
_FRAME = struct.Struct("<Q")


class ReportError(RuntimeError):
    """A chunk of records could not be encoded, so the report is incomplete."""


#: How each format spells nan, inf and -inf.
_NONFINITE = {"json": (b"NaN", b"Infinity", b"-Infinity"), "csv": (b"nan", b"inf", b"-inf")}


def _packed(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    # cells as words, one row each, and the mask of their bytes
    encoded = list(map(str.encode, cells))
    lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
    width = -(-max(int(lengths.max()), 1) // 4) * 4
    text = np.array(encoded, dtype=f"S{width}").view(np.uint32).reshape(len(encoded), -1)
    return text, (np.arange(width) < lengths[:, None]).view(np.uint32)


def _cells(part, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """The text of a column's cells in one chunk of rows, as (words, mask).

    Ranges and integer and float64 ndarrays go through the array kernels.
    Lists, and ndarrays of other types, are spelled by one json encoder
    call for JSON, or a cell at a time for CSV: small tables (every command
    but orbit) render faster so than through a kernel.
    """
    if isinstance(part, range):
        return int_text(np.arange(part.start, part.stop, part.step))
    if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
        return int_text(part)
    if isinstance(part, np.ndarray) and part.dtype == np.float64:
        return float_text(part, _NONFINITE[fmt])
    values = part.tolist() if isinstance(part, np.ndarray) else list(part)
    if fmt == "json":
        # one C encoder call per column; no encoded value holds a raw newline
        return _packed(json.dumps(values, separators=("\n", ":"))[1:-1].split("\n"))
    # float.__repr__, also of numpy float scalars, whose own repr is not
    # parseable; anything else as str writes it
    return _packed([float.__repr__(v) if isinstance(v, float) else str(v) for v in values])


def _chunk(table: Table, start: int, fmt: str, lead: str, seps: list[str]) -> bytes:
    """The UTF-8 text of one chunk of rows, from ``start``.

    Each row is ``lead``, then every cell followed by its column's
    separator.  The chunk is one matrix of words, made of the cells'
    columns and constant separator columns, with a mask of the bytes that
    are text; one boolean index of the flattened pair lays it out.
    """
    stop = min(start + _CHUNK_ROWS, len(table))
    lead, *seps = (_packed([text]) for text in [lead, *seps])  # one row each, broadcast
    parts = [lead]
    for column, sep in zip(table.columns, seps):
        parts += [_cells(column[start:stop], fmt), sep]
    rows = stop - start
    text, mask = (np.hstack([np.broadcast_to(words, (rows, words.shape[-1])) for words in half])
                  for half in zip(*parts))
    # ravel copies only if hstack chose a column-major layout
    return text.ravel().view(np.uint8)[mask.ravel().view(bool)].tobytes()


def _csv_chunk(table: Table, start: int) -> bytes:
    """The CSV lines of one chunk of rows, from ``start``, in UTF-8."""
    seps = [","] * (len(table.columns) - 1) + ["\n"]
    return _chunk(table, start, "csv", "", seps)


def _json_chunk(table: Table, start: int) -> bytes:
    """One chunk of rows, from ``start``, as items of the indented records array.

    Each row is an object with its keys on indented lines; a chunk after
    the first begins with the separator before it.
    """
    first, *rest = (f"\n      {json.dumps(key)}: " for key in table.header)
    seps = ["," + lead for lead in rest] + ["\n    }"]
    text = _chunk(table, start, "json", ",\n    {" + first, seps)
    return text if start else text[2:]


def _cpu_count() -> int:
    # the CPUs this process may run on; one where the OS cannot say
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork() -> int:
    # Python 3.12+ warns that forking a process with threads (numpy's BLAS
    # pool) can deadlock a child that needs a lock another thread held.  A
    # worker takes none: it encodes, writes to its pipe and leaves through
    # os._exit.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r".*use of fork\(\) may lead to deadlocks", DeprecationWarning
        )
        return os.fork()


def _encode(encode, table: Table, start: int) -> bytes:
    # A chunk the command encodes itself; a failure is one line, not a traceback.
    try:
        return encode(table, start)
    except Exception as exc:
        raise ReportError(f"rows from {start} not encoded: {type(exc).__name__}: {exc}") from exc


def _serve(table: Table, encode, starts: range, pipe, readers: list) -> NoReturn:
    # A forked worker: send each chunk, then leave through os._exit, so that no
    # exit handler runs and no buffer copied from the parent (its unflushed
    # report among them) is written.  On any error it just stops; the parent
    # encodes every chunk it did not receive.
    try:
        for reader in readers:  # the parent's ends, so that only it holds them
            reader.close()
        for start in starts:
            data = encode(table, start)
            pipe.write(_FRAME.pack(len(data)))
            pipe.write(data)
            pipe.flush()
    finally:
        os._exit(0)


def _receive(pipe) -> bytes | None:
    # A worker's next chunk, or None if it stopped before sending it whole.
    header = pipe.read(_FRAME.size)
    if len(header) < _FRAME.size:
        return None
    (size,) = _FRAME.unpack(header)
    data = pipe.read(size)
    return data if len(data) == size else None


def _write_chunks(table: Table, encode, handle) -> None:
    """Write ``encode(table, start)`` for every chunk of rows, in order.

    Chunk k is encoded by worker k % W, with W the number of CPUs this
    process may run on, at most the number of chunks.  Worker 0 is this
    process; the others are forked children, which send their chunks back
    through pipes.  A child blocks on its pipe until its chunk is read, so
    no worker holds more than one chunk of text.  This process encodes every
    chunk a child did not send whole, because the child failed or died.
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
            chunk = _receive(pipes[w - 1]) if w else None
            handle.write(_encode(encode, table, start) if chunk is None else chunk)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            # every chunk was read, or the report failed: no worker is needed now
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _write_csv(table: Table, handle) -> None:
    if table.header:  # names from the code: none needs quoting
        handle.write(f"{','.join(table.header)}\n".encode())
    _write_chunks(table, _csv_chunk, handle)


_RECORDS_SLOT = "\0records\0"


def _around_records(report: dict) -> tuple[str, str]:
    # The JSON text before and after the records of json.dumps(report, indent=2).
    head, _, tail = json.dumps({**report, "records": _RECORDS_SLOT}, indent=2).partition(
        json.dumps(_RECORDS_SLOT)
    )
    return head, tail


def _peak_rss_mb() -> float:
    # The high-water mark of this process or of any reaped report worker.
    # Linux keeps this process's ru_maxrss across exec, so that it holds the
    # launcher's mark; VmHWM starts afresh with the program.
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, peak) / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes or KiB


def _write_json(report: dict, handle) -> None:
    # The same text as json.dumps(report, indent=2) with every record a dict.
    # With indent set, json encodes in pure Python; here only the small
    # remainder of the report goes that way.  The tail (oracles, meta) is
    # encoded after the records, so that render_s counts them.
    started = time.perf_counter()
    table = report["records"]
    head, _ = _around_records(report)
    if len(table):
        handle.write(f"{head}[\n".encode())
        _write_chunks(table, _json_chunk, handle)
        handle.write(b"\n  ]")
    else:
        handle.write(f"{head}[]".encode())
    report["meta"]["timings"]["render_s"] = time.perf_counter() - started
    report["meta"]["peak_rss_mb"] = _peak_rss_mb()
    _, tail = _around_records(report)
    handle.write(f"{tail}\n".encode())


def render_report(report: dict, fmt: str, handle) -> None:
    """Write ``report`` to the binary ``handle``: all of it as JSON, or its records as CSV.

    Rows are written in chunks straight from the record columns, encoded on
    every CPU this process may run on, so the whole report is never held as
    one string.  JSON sets ``meta.timings.render_s`` to the time spent up to
    the tail that holds it, and ``meta.peak_rss_mb`` to the high-water mark
    by then.  ReportError means the records were cut short.
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
        # an output that cannot be opened is bad input too, found before the run
        handle = open(cfg.output_path, "wb") if cfg.output_path else sys.stdout.buffer
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    validated = time.perf_counter()
    # A warning from the library belongs to the report, not to stderr.
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        try:
            body, passed = _COMMANDS[cfg.command](cfg)
        except (QuadratureError, FitConvergenceError, PoleGuardError, SingularInputError) as exc:
            # A numerical failure is a failed run, reported like any other.
            error = f"{type(exc).__name__}: {exc}"
            print(f"boolemaps {cfg.command}: {error}", file=sys.stderr)
            body, passed = {"records": Table(), "oracles": {"error": error}}, False
    body["oracles"]["warnings"] = [str(w.message) for w in grabbed]
    report = {
        "config": vars(cfg),
        "records": body["records"],
        "oracles": body["oracles"],
        "meta": {
            "version": __version__,
            "environment": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "nproc": _cpu_count(),
            },
            "timings": {
                "validate_s": validated - started,
                "compute_s": time.perf_counter() - validated,
                "render_s": 0.0,  # set by the JSON writer
            },
            "peak_rss_mb": 0.0,  # set by the JSON writer
            "passed": passed,
        },
    }
    try:
        with handle if cfg.output_path else contextlib.nullcontext():
            sys.stdout.flush()  # any text printed so far goes out before the report
            render_report(report, cfg.format, handle)
            handle.flush()  # a write that fails, fails here and not at exit
    except (ReportError, OSError) as exc:
        if isinstance(exc, OSError) and not cfg.output_path:
            # The interpreter flushes stdout at exit: let that write nowhere,
            # so that no "Exception ignored" follows the one line below.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"boolemaps {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
