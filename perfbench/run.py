"""Benchmark runner for boolemaps.

    python3 perfbench/run.py --workload cli-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``./src``.
One run sets up (fresh interpreters importing ``boolemaps.cli``), then runs
whole cycles of the workload's operations, one at a time, for ``--seconds``.
Every operation's output is checked.  The full result, with the seed, the
sizes, the machine and the versions, goes to ``perfbench/results/``; the
last line of standard output is a JSON summary.  With ``--trace 1`` the run
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from itertools import count
from pathlib import Path
from time import perf_counter

# BLAS and OpenMP pools are pinned before numpy loads, here and in children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
#: (metric, unit, better) reported with ``--trace 0``; the other end-to-end
#: metrics exist only on some workloads and go to the result file.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
UNITS = {name: unit for name, unit, _ in END_TO_END} | {
    "op_p90_s": "s", "output_mb": "MB", "failed_frac": "ratio",
}
LAYER_UNITS = {name: unit for name, unit, _ in tracer.PER_LAYER}


class Checkout:
    """The source tree under test and the environment its processes get."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.results = HERE / "results"
        # Bytecode is written, as in a normal install, so that only the first
        # import compiles the package.
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(self.src)

    def python(self, *args, **kwargs) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], env=self.env, cwd=self.root,
                              capture_output=True, text=True, check=False, **kwargs)

    def spawn(self, argv: list[str]):
        """Run a child to completion; return (seconds, exit status, stderr, peak RSS in MB)."""
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        with proc.stderr:
            stderr = proc.stderr.read().decode(errors="replace")
        # wait4 gives this child's own high-water mark; RUSAGE_CHILDREN would
        # give the largest of every child waited for so far.
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, stderr, usage.ru_maxrss / 1024.0


def describe(checkout: Checkout) -> dict:
    """Versions, machine and source identity for the result file."""
    probe = checkout.python("-c", (
        "import json, sys, numpy, scipy, boolemaps, boolemaps.cli;"
        "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
        "'scipy': scipy.__version__, 'boolemaps': boolemaps.__version__,"
        "'boolemaps_path': boolemaps.__file__}))"
    ))
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: cannot import boolemaps from {checkout.src}:\n{probe.stderr}")
    info = json.loads(probe.stdout)
    if not Path(info["boolemaps_path"]).resolve().is_relative_to(checkout.src.resolve()):
        raise SystemExit(f"perfbench: imported boolemaps from {info['boolemaps_path']}, not ./src")
    digest = hashlib.sha256()
    for path in sorted((checkout.src / "boolemaps").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        cpu_model=_cpu_model(),
        git_commit=_git_commit(checkout.root),
        source_sha256=digest.hexdigest(),
        blas_threads=1,
    )
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_seconds(checkout: Checkout) -> list[float]:
    """Fresh-interpreter import times of ``boolemaps.cli``, paid by every CLI command."""
    times = []
    for _ in range(SETUP_REPEATS):
        seconds, status, stderr, _ = checkout.spawn(["-c", "import boolemaps.cli"])
        if status != 0:
            raise SystemExit(f"perfbench: importing boolemaps.cli failed:\n{stderr}")
        times.append(seconds)
    return times


def import_times(checkout: Checkout) -> dict[str, float]:
    """Median ``-X importtime`` cumulative seconds for the package and its heavy imports."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORTTIME_REPEATS):
        stderr = checkout.python("-X", "importtime", "-c", "import boolemaps.cli").stderr
        found = {"import.boolemaps_s": 0.0, "import.scipy_interpolate_s": 0.0,
                 "import.scipy_integrate_s": 0.0, "import.numpy_s": 0.0}
        seen = set()
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            seconds = int(parts[1]) / 1e6
            name = parts[2].strip()
            top_level = parts[2].startswith(" ") and not parts[2].startswith("  ")
            if top_level and (name == "boolemaps" or name.startswith("boolemaps.")):
                found["import.boolemaps_s"] += seconds
            key = {"numpy": "import.numpy_s", "scipy.interpolate": "import.scipy_interpolate_s",
                   "scipy.integrate": "import.scipy_integrate_s"}.get(name)
            if key and key not in seen:
                seen.add(key)
                found[key] = seconds
        for key, value in found.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


# --- CLI workloads -------------------------------------------------------------


def run_cli_op(checkout: Checkout, op: dict, trace_prefix: str | None = None) -> dict:
    fmt = op.get("format", "json")
    out = checkout.results / "tmp" / f"op-{os.getpid()}.{fmt}"
    argv = workloads.cli_argv(op) + ["--out", str(out)]
    if trace_prefix is None:
        command = ["-m", "boolemaps.cli", *argv]
    else:
        command = [str(HERE / "trace_cli.py"), trace_prefix, *argv]
    seconds, status, stderr, rss = checkout.spawn(command)
    try:
        size = out.stat().st_size if out.exists() else 0
        reason = checks.check_cli(op, status, stderr, str(out))
    finally:
        out.unlink(missing_ok=True)
    return {
        "kind": op["kind"], "format": fmt, "latency_s": seconds, "status": "failed" if reason else "ok",
        "reason": reason, "known_defect": op.get("known_defect", False),
        "rss_mb": rss, "output_bytes": size, "exit_status": status,
    }


def cli_workload(checkout, args, run_id):
    (checkout.results / "tmp").mkdir(parents=True, exist_ok=True)
    trace_dir = checkout.results / f"{run_id}-spans"
    aggregates: dict = {}

    def start_tracing():
        trace_dir.mkdir(exist_ok=True)
        numbers = count()

        def traced_op(op):
            prefix = trace_dir / f"cmd-{next(numbers)}"
            result = run_cli_op(checkout, op, str(prefix))
            with open(f"{prefix}.json") as handle:
                tracer.merge(aggregates, json.load(handle))
            return result

        return traced_op

    run = workloads.measure(args.workload, args.seed, args.seconds,
                            lambda op: run_cli_op(checkout, op),
                            start_tracing if args.trace else None)
    if args.trace:
        run.update(aggregates=aggregates, spans=str(trace_dir))
    return run


# --- in-process workloads --------------------------------------------------------


def inproc_workload(checkout, args, run_id):
    result_path = checkout.results / f"{run_id}.worker.json"
    spans = checkout.results / f"{run_id}-spans"
    _, status, stderr, rss = checkout.spawn([
        str(HERE / "inproc.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", str(result_path),
        "--spans", str(spans),
    ])
    if status != 0:
        raise SystemExit(f"perfbench: worker exited {status}:\n{stderr}")
    with open(result_path) as handle:
        out = json.load(handle)
    result_path.unlink()
    out["peak_rss_mb"] = rss
    if args.trace:
        with open(f"{spans}.json") as handle:
            out["aggregates"] = json.load(handle)
        out["spans"] = f"{spans}.spans.npz"
    return out


# --- metrics -----------------------------------------------------------------------


def end_to_end(workload: str, ops: list[dict], setup: list[float], peak_rss: float) -> dict:
    latencies = [op["latency_s"] for op in ops]
    failed = sum(op["status"] == "failed" for op in ops)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ops) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss,
        "failed_frac": failed / len(ops),
    }
    # A 90th percentile needs ten samples beyond it.
    if len(latencies) >= 100:
        metrics["op_p90_s"] = statistics.quantiles(latencies, n=10)[8]
    if workload in workloads.CLI_WORKLOADS:
        metrics["output_mb"] = statistics.fmean(op["output_bytes"] for op in ops) / 1e6
    return metrics


def per_layer(run: dict, imports: dict[str, float]) -> dict:
    metrics = tracer.layer_metrics(run["aggregates"])
    metrics.update(imports)
    untraced = sum(op["latency_s"] for op in run["ops"])
    traced = sum(op["latency_s"] for op in run["traced_ops"])
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Checkout(Path.cwd())
    if not (checkout.src / "boolemaps" / "__init__.py").is_file():
        print("perfbench: no ./src/boolemaps here; run from the root of a boolemaps checkout",
              file=sys.stderr)
        return 2
    checkout.results.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # The untimed import in ``describe`` compiles the package's .pyc files,
    # which users pay once per install; every timed command still imports.
    environment = describe(checkout)
    setup = setup_seconds(checkout)
    if args.workload in workloads.CLI_WORKLOADS:
        run = cli_workload(checkout, args, run_id)
        peak_rss = max(op["rss_mb"] for op in run["ops"])
    else:
        run = inproc_workload(checkout, args, run_id)
        peak_rss = run["peak_rss_mb"]

    every_op = run["ops"] + run.get("traced_ops", [])
    failed = [op for op in every_op if op["status"] == "failed"]
    # Known-defect slices (extreme magnitudes, invalid CLI input) count in
    # ``failed``; a failure anywhere else is a wrong answer and clears ``correct``.
    unexpected = [op for op in failed if not op["known_defect"]]
    e2e = end_to_end(args.workload, run["ops"], setup, peak_rss)
    layers = per_layer(run, import_times(checkout)) if args.trace else None

    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SIZES[args.workload],
        "cycles": run["cycles"],
        "operations": _tally(run["ops"]),
        "latency_samples": len(run["ops"]),
        "setup_samples_s": setup,
        "environment": environment,
        "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
        "per_layer": layers and {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()},
        "spans": run.get("spans"),
        "failures": [{"kind": op["kind"], "reason": op["reason"], "known_defect": op["known_defect"]}
                     for op in failed[:50]],
        "correct": not unexpected,
        "attempted": len(every_op),
        "failed": len(failed),
    }
    with open(checkout.results / f"{run_id}.json", "w") as handle:
        json.dump(result, handle, indent=1)

    _print_table(result)
    reported = layers if args.trace else e2e
    declared = tracer.PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": reported[name], "unit": unit} for name, unit, _ in declared},
    }))
    return 0


def _tally(ops: list[dict]) -> dict:
    """Operation counts by kind and status, with each kind's median latency."""
    tally: dict[str, dict] = {}
    latencies: dict[str, list[float]] = {}
    for op in ops:
        counts = tally.setdefault(op["kind"], {"ok": 0, "failed": 0, "refused": 0})
        counts[op["status"]] += 1
        latencies.setdefault(op["kind"], []).append(op["latency_s"])
    for kind, values in latencies.items():
        tally[kind]["median_latency_s"] = statistics.median(values)
    return tally


def _print_table(result: dict) -> None:
    print(f"{result['workload']}  seed={result['seed']}  cycles={result['cycles']}  "
          f"latency_samples={result['latency_samples']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  correct={result['correct']}")
    section = result["per_layer"] if result["trace"] else result["end_to_end"]
    for name, entry in section.items():
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    for kind, counts in result["operations"].items():
        print(f"  ops {kind:<40} " + " ".join(f"{k}={v:.6g}" for k, v in counts.items()))


if __name__ == "__main__":
    raise SystemExit(main())
