"""Command-line front-end: run experiments, verify claims, emit reports.

Subcommands
-----------
iterate-params   trajectory of the half-plane map with per-step geometry data
verify-pf        transfer-sum and Monte Carlo push-forward oracles vs the closed form
geometry         metric/symplectic verification at a point and on a lattice
orbit            pointwise orbit trace with an ergodicity check for long runs

Each command parses only the flags it reads (``_COMMAND_FLAGS``), plus
--out and --format; any other flag, a value the command cannot run with, or
an --out that cannot be opened, exits 2 before the command runs, with the
command's usage and a one-line message, ``boolemaps <command>: error: ...``.
A negative value may follow its flag as its own argument in any form a
float takes, such as ``--nu0 -5e-05``.

At start-up this module loads only the standard library and the scalar
core, ``_core``, which imports neither numpy nor ``dataclasses``; every
other module loads on the path that needs it, ``json`` only where a report
is written as JSON.  ``iterate-params``, shorter orbits and bad input run
on the core alone.  ``geometry`` loads the module ``geometry`` (and
``halfplane``, the points, with it) when it validates its flags, whose
domain check it reads, so that load counts in
``meta.timings.validate_s``; it too runs without numpy.  Only
``verify-pf``, and ``orbit`` of at least ``KS_MIN_SAMPLES`` steps, whose
orbit is checked against the invariant law, load numpy, through the
modules ``_array_modules`` names (``halfplane`` with them), after their
flags are validated.

Reports carry ``config`` (the command and its flags), ``records``,
``oracles`` and ``meta`` sections and serialize to JSON (everything) or CSV
(the records table).  ``meta`` holds the argv and the platform
(``os.uname``), ``meta.timings`` the seconds spent validating the flags
and opening --out (which truncates a file already there), loading the
array modules, computing and rendering, ``meta.peak_rss_mb`` the run's
memory high-water mark and ``meta.environment`` the Python
version, the numpy version (null where the command loaded no numpy) and the
CPU count; ``oracles.warnings`` lists the warnings the command raised.
Records are a ``Table`` of named columns, and ``render_report`` alone
writes a report: the CSV header, or the JSON around the records, and the
rows streamed a chunk at a time, as bytes, to the file or to the binary
buffer under stdout.  One encoder, ``_chunk``, spells a chunk of rows in
either format, for the process and its workers alike.  A float is written
as ``float.__repr__`` writes it, the shortest decimal that reads back to
the same double, so identical runs diff cleanly.  A table of lists (the
records of every command but a long ``orbit``) is spelled by one json
encoder call per column for JSON, or a cell at a time for CSV, nan and the
infinities as JSON or Python spell them, and its rows joined by
``str.join``.  A table of ranges of step 1 from 0 up and finite float64
arrays (a long ``orbit``'s) is spelled by the numpy kernels of
``_numtext``, with no Python object per cell, a chunk of rows as one
matrix of cell and separator words whose holes are NUL bytes, laid out by
dropping them with one ``bytes.translate``; its chunks are encoded
round-robin on every CPU the process may run on, by the process itself and
forked workers, and written in order.  A worker sends only chunk bytes, and
the process encodes every chunk it did not receive, so a worker that fails
or dies costs time, not the report.  The bytes do not depend on the number
of CPUs, nor on the route: a short orbit's list gives the bytes its array
would.  The exit status is 0 exactly when every tolerance check the command
configured has passed; a numerical failure in the library gives exit 1 and
a report with empty records and ``oracles.error``, and a chunk that cannot
be encoded, or a write that fails, gives exit 1 and one line on stderr.

A command's process (``python -m boolemaps.cli``, or the ``boolemaps``
script) enters through ``run``, which flushes stdout and stderr after
``main`` and ends with ``os._exit``, skipping the interpreter's teardown:
``main`` has written the report, joined every thread and reaped every
worker by then.  A write to stdout or stderr that fails, in that flush or
in argparse's own write of a help or usage text (which unbuffered streams
do at once), exits 1 with one line on stderr.  Under Python's development
mode (``-X dev``) it exits through SystemExit instead, as teardown is where
a file left open warns.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import math
import os
import resource
import struct
import sys
import time
import warnings
from itertools import chain, islice, repeat
from typing import NoReturn

from . import __version__
from ._core import (
    DEFAULT_GRID_SIZE,
    KS_MIN_SAMPLES,
    MAX_SAMPLE_OFFSET,
    MIN_MONTE_CARLO_SIZE,
    POLE_EPS,
    _conformal_factor,
    _cpu_count,
    _fixed_scale,
    _half_reciprocal,
    _iterates,
    _step,
    check_alpha,
)
from .errors import PoleGuardError, QuadratureError, SingularInputError

SUP_ERROR_TOL = 1e-10
#: Geometry tolerances are relative to the metric, and for Lie derivatives to gamma.
QUADRATURE_TOL = 1e-12
PULLBACK_TOL = 1e-10
LIE_TOL = 1e-9
CANONICAL_TOL = 1e-14
KS_TOL = 1e-2
#: Points closer than this to (0, 1), where the conformal factor vanishes, are
#: flagged ``degenerate``; the flag marks them, and no check skips them.
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
}

#: The flags each command reads, besides --out and --format.
_COMMAND_FLAGS = {
    "iterate-params": ("alpha", "nu0", "gamma0", "steps"),
    "verify-pf": ("alpha", "nu0", "gamma0", "n", "steps", "seed"),
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
        from .geometry import fisher_metric
        from .halfplane import HPoint

        try:
            fisher_metric(HPoint(cfg.nu0, cfg.gamma0))
        except SingularInputError as exc:
            raise ValueError(f"gamma0 must lie in the metric's domain: {exc}") from None
    if cfg.command == "verify-pf":
        if cfg.n < MIN_MONTE_CARLO_SIZE:
            raise ValueError(f"n must be >= {MIN_MONTE_CARLO_SIZE}, got {cfg.n}")
        if cfg.seed < 0:
            raise ValueError(f"seed must be >= 0, got {cfg.seed}")
        # the transfer check's central nodes are about this far apart; no more than
        # one double apart at nu0, neighbouring nodes round to the same value.
        gap = cfg.gamma0 * math.pi / (DEFAULT_GRID_SIZE - 1)
        if not gap > math.ulp(cfg.nu0):
            raise ValueError(
                f"grid nodes collapse: gamma0*pi/{DEFAULT_GRID_SIZE - 1} = {gap:.3g} does not"
                f" exceed the spacing {math.ulp(cfg.nu0):.3g} of doubles at nu0 = {cfg.nu0}"
            )
        # Every point of the sample, and so every node, lies within
        # gamma0*MAX_SAMPLE_OFFSET of nu0; that must stay a finite double.
        if not math.isfinite(abs(cfg.nu0) + cfg.gamma0 * MAX_SAMPLE_OFFSET):
            limit = (sys.float_info.max - abs(cfg.nu0)) / MAX_SAMPLE_OFFSET
            raise ValueError(
                f"gamma0 must not exceed {limit:.4g} at nu0 = {cfg.nu0}, or a sample point"
                f" can overflow; got {cfg.gamma0}"
            )
    if cfg.command == "orbit" and not (math.isfinite(cfg.xi0) and abs(cfg.xi0) >= POLE_EPS):
        raise ValueError(f"xi0 must be finite with |xi0| >= {POLE_EPS}, got {cfg.xi0}")


class Table:
    """A report's records: equal-length columns by name.

    A column is any sliceable sequence (a list, a range, an ndarray), and
    ``len`` gives the number of rows, not of columns.
    """

    def __init__(self, columns: dict | None = None):
        self.columns = {} if columns is None else columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


def _param_columns(cfg: argparse.Namespace) -> dict:
    # The trajectory's columns, by name; q = nu and p = 1/(2*gamma).  The
    # scalar core's float formulas: those of iterate_parameter_map,
    # conformal_factor and fixed_point, with no HPoint built.
    alpha = check_alpha(cfg.alpha)
    nu, gamma = cfg.nu0, cfg.gamma0
    nus, gammas = [nu], [gamma]
    for _ in range(cfg.steps):
        nu, gamma = _step(alpha, nu, gamma)
        nus.append(nu)
        gammas.append(gamma)
    target = _fixed_scale(alpha)
    return {
        "step": range(len(nus)),
        "nu": nus,
        "gamma": gammas,
        "q": nus,
        "p": [_half_reciprocal(gamma) for gamma in gammas],
        "conformal_factor": list(map(_conformal_factor, nus, gammas)),
        "dist_to_fixed_point": [math.hypot(nu, gamma - target) for nu, gamma in zip(nus, gammas)],
    }


def cmd_iterate_params(cfg: argparse.Namespace) -> tuple[dict, bool]:
    columns = _param_columns(cfg)
    oracles = {
        "fixed_point_nu": 0.0,
        "fixed_point_gamma": _fixed_scale(check_alpha(cfg.alpha)),
        "final_dist_to_fixed_point": columns["dist_to_fixed_point"][-1],
        "closure_gamma_positive": all(gamma > 0.0 for gamma in columns["gamma"]),
    }
    passed = oracles["closure_gamma_positive"]
    return {"records": Table(columns), "oracles": oracles}, passed


def cmd_verify_pf(cfg: argparse.Namespace) -> tuple[dict, bool]:
    from .density import pf_circle_check, pf_closed_form_check
    from .halfplane import HPoint

    params = HPoint(cfg.nu0, cfg.gamma0)
    sup_error = pf_closed_form_check(cfg.alpha, params)
    report = pf_circle_check(cfg.alpha, params, cfg.n, cfg.steps, cfg.seed)
    columns = _param_columns(cfg)
    # the tolerance is relative to the peak 1/(pi*gamma) of the stepped law
    peak = 1.0 / (math.pi * columns["gamma"][1])
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
        "monte_carlo_statistic": report.statistic,
        "monte_carlo_tolerance": report.tolerance,
        "monte_carlo_pass": report.within_tolerance,
    }
    passed = bool(oracles["sup_error_pass"] and oracles["monte_carlo_pass"])
    return {"records": Table(columns), "oracles": oracles}, passed


_LATTICE_NU = (-2.0, -1.0, 0.0, 1.0, 2.0)
_LATTICE_GAMMA = (0.5, 1.0, 2.0, 3.0, 4.0)


def _geometry_row(alpha: float, point) -> dict:
    from . import geometry as geo
    from .halfplane import to_canonical

    metric = geo.fisher_metric(point)
    quad = geo.fisher_metric_quadrature(point)
    gaps = (quad.g_nn - metric.g_nn, quad.g_ng, quad.g_gg - metric.g_gg)
    lie_g = [geo.lie_derivative_metric(name, point) for name in geo.KILLING_FIELD_NAMES]
    lie_w = [geo.lie_derivative_two_form(name, point) for name in geo.KILLING_FIELD_NAMES]
    degenerate = math.hypot(point.nu, point.gamma - 1.0) < DEGENERACY_RADIUS
    return {
        "nu": point.nu,
        "gamma": point.gamma,
        "conformal_factor": geo.conformal_factor(point),
        "degenerate": degenerate,
        "pullback_deviation": geo.verify_conformal_pullback(alpha, point),
        "quadrature_error": max(map(abs, gaps)) / metric.g_nn,
        "lie_metric_max": max(abs(value) for g in lie_g for value in (g.g_nn, g.g_ng, g.g_gg)),
        "lie_two_form_max": max(map(abs, lie_w)),
        "canonical_coefficient": geo.canonical_form_coefficient(point),
        "symplectic_defect": geo.symplectic_defect(alpha, to_canonical(point)),
    }


def cmd_geometry(cfg: argparse.Namespace) -> tuple[dict, bool]:
    from .halfplane import HPoint

    records = [_geometry_row(cfg.alpha, HPoint(cfg.nu0, cfg.gamma0))]
    for gamma in _LATTICE_GAMMA:
        for nu in _LATTICE_NU:
            records.append(_geometry_row(cfg.alpha, HPoint(nu, gamma)))
    checks = {
        "quadrature_pass": all(r["quadrature_error"] < QUADRATURE_TOL for r in records),
        "pullback_pass": all(r["pullback_deviation"] < PULLBACK_TOL for r in records),
        "lie_pass": all(
            max(r["lie_metric_max"], r["lie_two_form_max"]) < LIE_TOL for r in records
        ),
        "canonical_pass": all(
            abs(r["canonical_coefficient"] - 1.0) < CANONICAL_TOL for r in records
        ),
    }
    oracles = dict(checks)
    oracles["degenerate_points"] = sum(1 for r in records if r["degenerate"])
    columns = {key: [r[key] for r in records] for key in records[0]}
    return {"records": Table(columns), "oracles": oracles}, all(checks.values())


def _array_modules(cfg: argparse.Namespace) -> tuple[str, ...]:
    """The modules that bring numpy, all that a run on arrays imports
    (numpy's lazy ``random`` among them), for ``main`` to load after
    validation, or none for a run on the standard library alone; an
    orbit's route in ``cmd_orbit`` is picked by the same answer.
    """
    if cfg.command == "verify-pf":
        return (".density", "numpy.random")
    if cfg.command == "orbit" and cfg.n >= KS_MIN_SAMPLES:
        return (".orbit", ".density", "._numtext")
    return ()


def _short_orbit(alpha: float, xi0: float, n: int) -> tuple[list, bool, int]:
    """``iterate_orbit``'s points, ``truncated`` and ``last_index``, with the points a list.

    The same iterates, cut by the same rule: the first point before the
    last that lies within ``POLE_EPS`` of the pole ends the orbit.
    """
    points = list(_iterates(alpha, xi0, n))
    for index, x in enumerate(islice(points, n)):
        if abs(x) < POLE_EPS:
            return points[:index + 1], True, index
    return points, False, n


def cmd_orbit(cfg: argparse.Namespace) -> tuple[dict, bool]:
    check: dict = {}
    if not _array_modules(cfg):
        # too short for the check of the invariant law: a list, on the standard library
        points, truncated, last_index = _short_orbit(cfg.alpha, cfg.xi0, cfg.n)
    else:
        from .density import ks_distance
        from .halfplane import fixed_point
        from .orbit import iterate_orbit

        result = iterate_orbit(cfg.alpha, cfg.xi0, cfg.n)
        points, truncated, last_index = result.points, result.truncated, result.last_index
        if not truncated:
            target = fixed_point(cfg.alpha)
            check = {"ks_distance": ks_distance(points, target), "invariant_nu": target.nu,
                     "invariant_gamma": target.gamma}
        check["ks_pass"] = check.get("ks_distance", math.inf) < KS_TOL
    records = Table({"step": range(len(points)), "xi": points})
    oracles = {"truncated": truncated, "last_index": last_index, **check}
    return {"records": records, "oracles": oracles}, check.get("ks_pass", True)


_COMMANDS = {
    "iterate-params": cmd_iterate_params,
    "verify-pf": cmd_verify_pf,
    "geometry": cmd_geometry,
    "orbit": cmd_orbit,
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a help or usage text that cannot be written
    exits 1 with one line, as ``run`` does for a flush that fails.

    argparse drops the OSError of that write: on an unbuffered stream the
    text is lost then and there, and the command would exit 0 unseen.
    ``build_parser`` gives the top-level parser ``_commands``, the parser
    of each command by name, which ``main`` reports bad input through.
    """

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        try:
            file.write(message)
        except OSError as exc:
            raise SystemExit(_lost(file, exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    parser._commands = sub.choices
    return parser


#: Rows per chunk, each one matrix of words: the text kernels' working
#: arrays stay small.
_CHUNK_ROWS = 1 << 13
#: A frame on a worker's pipe: the length in bytes of the chunk that follows.
_FRAME = struct.Struct("<Q")


class ReportError(RuntimeError):
    """A chunk of records could not be encoded, so the report is incomplete."""


def _by_kernels(table: Table) -> bool:
    # Every column a range of step 1 within 0 .. 2**64, or a float64 ndarray
    # (whose dtype compares equal to its name), as orbit's are.
    return all(
        column.step == 1 and 0 <= column.start and column.stop <= 2**64
        if isinstance(column, range) else getattr(column, "dtype", None) == "float64"
        for column in table.columns.values()
    )


def _cells(part, fmt: str) -> list[str]:
    """The text of a column's cells in one chunk of rows, by the standard library.

    One json encoder call for JSON; ``str`` for CSV, which spells a float,
    and a numpy float scalar too, as ``float.__repr__`` does.
    """
    values = part.tolist() if hasattr(part, "tolist") else list(part)
    if fmt == "json":
        import json

        # no encoded value holds a raw newline
        return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    return list(map(str, values))


def _chunk(table: Table, start: int, fmt: str) -> bytes:
    """The UTF-8 text of one chunk of rows, from ``start``.

    Each row is a lead, then every cell followed by its column's
    separator: a CSV line, or an item of the indented JSON records array,
    an object with its keys on indented lines, led by the separator before
    it, which the table's first row drops.  A table of ranges of step 1
    from 0 up and float64 arrays (``orbit``'s) is laid out by the numpy
    kernels of ``_numtext``; any other, such as the lists of every other
    command, is joined by the standard library.
    """
    stop = min(start + _CHUNK_ROWS, len(table))
    if fmt == "csv":
        lead, seps = "", [","] * (len(table.columns) - 1) + ["\n"]
    else:
        import json

        first, *rest = (f"\n      {json.dumps(key)}: " for key in table.columns)
        lead, seps = ",\n    {" + first, ["," + text for text in rest] + ["\n    }"]
    parts = [column[start:stop] for column in table.columns.values()]
    if _by_kernels(table):
        from ._numtext import table_text

        text = table_text(parts, lead.encode(), [sep.encode() for sep in seps])
    else:
        cells = [repeat(lead)]
        for part, sep in zip(parts, seps):
            cells += [_cells(part, fmt), repeat(sep)]
        text = "".join(chain.from_iterable(zip(*cells))).encode()
    return text[2:] if fmt == "json" and not start else text


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


def _serve(table: Table, fmt: str, starts: range, pipe, readers: list) -> NoReturn:
    # A forked worker: send each chunk, then leave through os._exit, so that no
    # exit handler runs and no buffer copied from the parent (its unflushed
    # report among them) is written.  On any error it just stops; the parent
    # encodes every chunk it did not receive.
    try:
        for reader in readers:  # the parent's ends, so that only it holds them
            reader.close()
        for start in starts:
            data = _chunk(table, start, fmt)
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


def _write_chunks(table: Table, fmt: str, handle) -> None:
    """Write ``_chunk(table, start, fmt)`` for every chunk of rows, in order.

    Chunk k is encoded by worker k % W, with W the number of CPUs this
    process may run on, at most the number of chunks, for a table the numpy
    kernels encode, and 1 for any other.  Worker 0 is this process; the
    others are forked children, which send their chunks back through pipes.
    A child blocks on its pipe until its chunk is read, so no worker holds
    more than one chunk of text.  This process encodes every chunk a child
    did not send whole, because the child failed or died; a chunk it cannot
    encode raises ReportError, one line, not a traceback.
    """
    starts = range(0, len(table), _CHUNK_ROWS)
    workers = min(_cpu_count(), len(starts)) if _by_kernels(table) else 1
    pipes, pids = [], []
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pipes.append(open(read_end, "rb"))
            with open(write_end, "wb") as pipe:
                pid = _fork()
                if pid == 0:
                    _serve(table, fmt, starts[w::workers], pipe, pipes)
            pids.append(pid)
        for k, start in enumerate(starts):
            w = k % workers
            chunk = _receive(pipes[w - 1]) if w else None
            if chunk is None:
                try:
                    chunk = _chunk(table, start, fmt)
                except Exception as exc:
                    raise ReportError(
                        f"rows from {start} not encoded: {type(exc).__name__}: {exc}"
                    ) from exc
            handle.write(chunk)
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal
        for pid in pids:
            # every chunk was read, or the report failed: no worker is needed now
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


_RECORDS_SLOT = "\0records\0"


def _around_records(report: dict) -> tuple[str, str]:
    # The JSON text before and after the records of json.dumps(report, indent=2).
    import json

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


def render_report(report: dict, fmt: str, handle) -> None:
    """Write ``report`` to the binary ``handle``: all of it as JSON, or its records as CSV.

    CSV is a header line of the column names, then the rows.  JSON is the
    text of ``json.dumps(report, indent=2)`` with every record an object,
    but only the small rest of the report goes through json's pure-Python
    indenting encoder.  Rows are written in chunks straight from the record
    columns, those of an array table encoded on every CPU this process may
    run on, so the whole report is never held as one string.  JSON sets
    ``meta.timings.render_s`` to the time spent up to the tail that holds
    it, and ``meta.peak_rss_mb`` to the high-water mark by then, so the
    tail (oracles, meta) is encoded after the records.  ReportError means
    the records were cut short.
    """
    started = time.perf_counter()
    table = report["records"]
    if fmt == "csv":
        if table.columns:  # names from the code: none needs quoting
            handle.write(f"{','.join(table.columns)}\n".encode())
        _write_chunks(table, fmt, handle)
        return
    head, _ = _around_records(report)
    opening, closing = ("[\n", "\n  ]") if len(table) else ("[", "]")
    handle.write(f"{head}{opening}".encode())
    _write_chunks(table, fmt, handle)
    report["meta"]["timings"]["render_s"] = time.perf_counter() - started
    report["meta"]["peak_rss_mb"] = _peak_rss_mb()
    _, tail = _around_records(report)
    handle.write(f"{closing}{tail}\n".encode())


def _joined_negatives(argv: list[str]) -> list[str]:
    """``argv`` with each ``--flag -value`` whose value reads as a float
    joined into ``--flag=-value``.

    argparse takes an argument that starts with "-" for an option unless it
    looks like a plain negative number, so it would read -5e-05, -inf or
    -nan after a flag as a flag.  --help and its abbreviations take no value.
    """
    joined = []
    for arg in argv:
        flag = joined[-1] if joined else ""
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and arg.startswith("-") and _reads_as_float(arg)):
            joined[-1] = f"{flag}={arg}"
        else:
            joined.append(arg)
    return joined


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    cfg, extras = parser.parse_known_args(_joined_negatives(argv))
    try:
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
        validate(cfg)
        # an output that cannot be opened is bad input too, found before the run
        handle = open(cfg.output_path, "wb") if cfg.output_path is not None else sys.stdout.buffer
    except (ValueError, OSError) as exc:
        # the command's usage and name, as for a flag value it cannot parse
        parser._commands[cfg.command].error(str(exc))

    validated = loaded = time.perf_counter()
    for module in _array_modules(cfg):
        importlib.import_module(module, __package__)
        loaded = time.perf_counter()
    # A warning from the library belongs to the report, not to stderr.
    with warnings.catch_warnings(record=True) as grabbed:
        warnings.simplefilter("always")
        try:
            body, passed = _COMMANDS[cfg.command](cfg)
        except (QuadratureError, PoleGuardError, SingularInputError) as exc:
            # A numerical failure is a failed run, reported like any other.
            error = f"{type(exc).__name__}: {exc}"
            print(f"boolemaps {cfg.command}: {error}", file=sys.stderr)
            body, passed = {"records": Table(), "oracles": {"error": error}}, False
    body["oracles"]["warnings"] = [str(w.message) for w in grabbed]
    uname = os.uname()
    report = {
        "config": vars(cfg),
        "records": body["records"],
        "oracles": body["oracles"],
        "meta": {
            "version": __version__,
            "argv": argv,
            "platform": {"system": uname.sysname, "release": uname.release,
                         "machine": uname.machine},
            "environment": {
                "python": sys.version.split()[0],
                # null where the command ran without numpy
                "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
                "nproc": _cpu_count(),
            },
            "timings": {
                "validate_s": validated - started,
                "import_s": loaded - validated,
                "compute_s": time.perf_counter() - loaded,
                "render_s": 0.0,  # set by the JSON writer
            },
            "peak_rss_mb": 0.0,  # set by the JSON writer
            "passed": passed,
        },
    }
    try:
        with handle if cfg.output_path is not None else contextlib.nullcontext():
            sys.stdout.flush()  # any text printed so far goes out before the report
            render_report(report, cfg.format, handle)
            handle.flush()  # a write that fails, fails here and not at exit
    except (ReportError, OSError) as exc:
        if isinstance(exc, OSError) and cfg.output_path is None:
            _to_devnull(sys.stdout)
        print(f"boolemaps {cfg.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


def _to_devnull(stream) -> None:
    # The interpreter flushes stdout and stderr at exit: let the stream's
    # write go nowhere, so that no "Exception ignored" follows the one line
    # that reports its failure.
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _lost(stream, exc: OSError) -> str:
    # The one line for a write to ``stream`` that failed, which then goes nowhere.
    _to_devnull(stream)
    return f"boolemaps: {type(exc).__name__}: {exc}"


#: The BLAS and OpenMP pools, one thread each unless the environment says
#: otherwise: no command calls BLAS, yet importing numpy starts its pool.
_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def run() -> NoReturn:
    """The process entry point of ``python -m boolemaps.cli`` and of the
    ``boolemaps`` command: ``main`` on ``sys.argv``, then exit.

    The status is what ``main`` returns, or the code of the SystemExit that
    argparse raises, read by Python's rule: None is 0, and anything else
    that is not an int is printed to stderr and gives 1.  stdout and stderr
    are flushed, and a flush that fails gives 1 and one line on stderr.  The
    process then ends with ``os._exit``, without the interpreter's teardown,
    which only frees what no report reads: ``main`` has written and closed
    the report, joined every thread and reaped every worker it started.
    Under Python's development mode (``-X dev``) it exits through SystemExit
    instead, so that teardown still warns of a file left open.  Any other
    exception propagates, with its traceback.
    """
    for name in _POOL_VARS:
        os.environ.setdefault(name, "1")
    try:
        status = main()
    except SystemExit as exc:  # --help, or bad input
        status = exc.code
    if status is None:
        status = 0
    elif not isinstance(status, int):
        print(status, file=sys.stderr)
        status = 1
    for stream in (sys.stdout, sys.stderr):  # stderr last, with any line about stdout
        try:
            stream.flush()
        except OSError as exc:
            status = 1
            with contextlib.suppress(OSError):  # a failing stderr goes to devnull in its turn
                print(_lost(stream, exc), file=sys.stderr)
    if sys.flags.dev_mode:
        raise SystemExit(status)
    os._exit(status)


if __name__ == "__main__":
    run()
