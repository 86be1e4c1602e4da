"""Print every metric of every workload as one table.

    python3 perfbench/summary.py --seed 1            # end-to-end
    python3 perfbench/summary.py --seed 1 --trace 1  # per layer

Runs ``perfbench/run.py`` once per workload, from the root of a checkout,
for ``run_seconds`` of ``BENCHMARK.json``, and tabulates the result files
it writes.  The end-to-end table also holds the metrics that exist only on
some workloads: ``op_p90_s`` (runs of at least 100 operations, with the
sample count), ``output_mb`` (CLI workloads) and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        path = HERE / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        results[workload] = json.loads(path.read_text())

    section = "per_layer" if args.trace else "end_to_end"
    names = list(dict.fromkeys(name for r in results.values() for name in r[section]))
    width = max(len(w) for w in results) + 2
    print(f"{'metric':<46}{'unit':<11}" + "".join(f"{w:>{width}}" for w in results))
    for name in names:
        unit = next(r[section][name]["unit"] for r in results.values() if name in r[section])
        cells = [r[section].get(name, {}).get("value") for r in results.values()]
        print(f"{name:<46}{unit:<11}"
              + "".join(f"{'-' if v is None else format(v, '.6g'):>{width}}" for v in cells))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:<57}" + "".join(f"{str(r[key]):>{width}}" for r in results.values()))
    if not args.trace:
        counts = [sum(c["ok"] + c["failed"] + c["refused"] for c in r["operations"].values())
                  for r in results.values()]
        print(f"{'timed operations (latency samples)':<57}" + "".join(f"{n:>{width}}" for n in counts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
