"""Seeded operation streams for the benchmark's four workloads.

Every workload is a closed loop with one client: an operation starts only
after the previous one has finished.  Operations come in cycles.  A cycle's
composition is fixed; its parameters and its order are drawn from the seed.
So every run does the same mix of work, and two seeds differ only in the
inputs.  The benchmark stops at a cycle boundary, which keeps the mix whole.
``measure`` runs the timed window of one run, for the CLI and the
in-process workloads alike.
"""

from __future__ import annotations

import math
import random
from itertools import count
from time import perf_counter

CLI_WORKLOADS = ("cli-sweep", "orbit-long")
INPROC_WORKLOADS = ("oracle-batch", "closed-form-ensemble")
WORKLOADS = CLI_WORKLOADS + INPROC_WORKLOADS

WHY = {
    "cli-sweep": (
        "fresh CLI processes on small inputs: start-up, import, argparse and "
        "small reports dominate, so kernel changes should barely move it"
    ),
    "orbit-long": (
        "orbit --n 1e6 alternating JSON and CSV: the only workload whose output "
        "and memory grow with n; report layer, orbit loop and ergodic check dominate"
    ),
    "oracle-batch": (
        "in-process density oracles: large-array sampling, push-forward and "
        "fitting with no subprocess or report cost to dilute a kernel change"
    ),
    "closed-form-ensemble": (
        "in-process check batteries on half-plane points: the only place where "
        "microsecond scalar calls in halfplane and geometry do most of the work"
    ),
}

SIZES = {
    "cli-sweep": {
        "cycle": [
            "iterate-params json (steps 10-1000)",
            "iterate-params csv (steps 10-1000)",
            "verify-pf n=1e6 (steps 1-5)",
            "verify-pf n=1e4-1e6 (steps 1-5)",
            "geometry (random interior point)",
            "orbit n=10-1e4 (json or csv)",
            "invalid input (rotating through four commands)",
        ],
    },
    "orbit-long": {"cycle": ["orbit n=1e6 json", "orbit n=1e6 csv"], "alpha": [0.2, 0.9]},
    "oracle-batch": {
        "cycle": [
            "pf_monte_carlo_check n=1e5 median_iqr (steps 1-10)",
            "pf_monte_carlo_check n=1e6 median_iqr (steps 1-10)",
            "pf_monte_carlo_check n=1e5 mle (steps 1-10)",
            "pf_monte_carlo_check n=1e6 mle (steps 1-10)",
            "mc_error_ratio n=1e5, 10 seeds",
            "pf_closed_form_check 4096 nodes",
            "pf_closed_form_check 65536 nodes",
            "pf_density_step x10 on a tabulated-only 4096-node grid",
        ],
    },
    "closed-form-ensemble": {
        "cycle": ["moderate point", "moderate point", "moderate point", "extreme point"],
        "moderate": "|nu|, gamma log-uniform in 1e-3..1e3, at least 0.1 from (0, 1)",
        "extreme": "|nu|, gamma log-uniform in 1e-300..1e300",
    },
}

#: Inputs that a valid CLI must reject with exit status 2 and a one-line
#: message.  Today they crash with a traceback; the failures are recorded.
INVALID_ARGV = (
    ("verify-pf", "--n", "100"),
    ("orbit", "--xi0", "0"),
    ("geometry", "--gamma0", "1e-200"),
    ("verify-pf", "--grid-size", "1"),
)


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def orbit_seed(rng: random.Random, alpha: float) -> float:
    """A seed whose first iterates keep clear of the pole.

    Exact pole pre-images such as +/-1 land on 0 within a few steps and
    cannot be continued; such seeds are redrawn.
    """
    while True:
        xi0 = rng.choice((-1.0, 1.0)) * log_uniform(rng, 0.1, 10.0)
        x = xi0
        for _ in range(64):
            if abs(x) < 1e-9:
                break
            x = alpha * (x - 1.0 / x)
        else:
            return xi0


def _iterate_params(rng, fmt):
    return {
        "kind": "iterate-params", "format": fmt, "alpha": rng.uniform(0.1, 0.9),
        "nu0": rng.uniform(-3.0, 3.0), "gamma0": log_uniform(rng, 0.1, 10.0),
        "steps": round(log_uniform(rng, 10, 1000)),
    }


def _verify_pf(rng, n):
    return {
        "kind": "verify-pf", "format": "json", "alpha": rng.uniform(0.2, 0.8),
        "nu0": rng.uniform(-2.0, 2.0), "gamma0": log_uniform(rng, 0.25, 4.0),
        "n": n, "steps": rng.randint(1, 5), "seed": rng.randrange(2**31),
    }


def _geometry(rng):
    return {
        "kind": "geometry", "format": "json", "alpha": rng.uniform(0.2, 0.8),
        "nu0": rng.uniform(-2.0, 2.0), "gamma0": log_uniform(rng, 0.25, 4.0),
    }


def _orbit(rng, n, fmt, alpha_range):
    alpha = rng.uniform(*alpha_range)
    return {
        "kind": "orbit", "format": fmt, "alpha": alpha,
        "xi0": orbit_seed(rng, alpha), "n": n,
    }


def cli_argv(op: dict) -> list[str]:
    """Command-line arguments for a CLI operation, without ``--out``."""
    if op["kind"] == "invalid":
        return list(op["argv"])
    argv = [op["kind"], "--format", op["format"], "--alpha", repr(op["alpha"])]
    for key in ("nu0", "gamma0", "xi0", "n", "steps", "seed"):
        if key in op:
            argv += [f"--{key}", repr(op[key])]
    return argv


def _cli_sweep(rng):
    offset = rng.randrange(len(INVALID_ARGV))
    for index in count():
        ops = [
            _iterate_params(rng, "json"),
            _iterate_params(rng, "csv"),
            # The largest command is fixed, so that peak_rss_mb, a maximum
            # over the run's commands, does not depend on the seed.
            _verify_pf(rng, 10**6),
            _verify_pf(rng, round(log_uniform(rng, 1e4, 1e6))),
            _geometry(rng),
            _orbit(rng, round(log_uniform(rng, 10, 1e4)), rng.choice(("json", "csv")), (0.2, 0.9)),
            {
                "kind": "invalid",
                "argv": INVALID_ARGV[(index + offset) % len(INVALID_ARGV)],
                "known_defect": True,
            },
        ]
        rng.shuffle(ops)
        yield ops


def _orbit_long(rng):
    while True:
        yield [_orbit(rng, 10**6, fmt, (0.2, 0.9)) for fmt in ("json", "csv")]


def _moderate_params(rng):
    return {"alpha": rng.uniform(0.2, 0.8), "nu": rng.uniform(-2.0, 2.0),
            "gamma": log_uniform(rng, 0.25, 4.0)}


def _oracle_batch(rng):
    while True:
        ops = [
            {"kind": "pf_monte_carlo_check", "n": n, "method": method,
             "steps": rng.randint(1, 10), "sample_seed": rng.randrange(2**31),
             **_moderate_params(rng)}
            for method in ("median_iqr", "mle")
            for n in (10**5, 10**6)
        ]
        first = rng.randrange(2**20)
        ops.append({"kind": "mc_error_ratio", "n": 10**5,
                    "seeds": [first + k for k in range(10)], **_moderate_params(rng)})
        ops += [{"kind": "pf_closed_form_check", "nodes": nodes, **_moderate_params(rng)}
                for nodes in (4096, 65536)]
        ops.append({"kind": "grid_chain", "nodes": 4096, "steps": 10, **_moderate_params(rng)})
        rng.shuffle(ops)
        yield ops


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * log_uniform(rng, lo, hi)


def _closed_form_ensemble(rng):
    while True:
        ops = []
        for _ in range(3):
            while True:
                nu, gamma = _signed(rng, 1e-3, 1e3), log_uniform(rng, 1e-3, 1e3)
                if math.hypot(nu, gamma - 1.0) >= 0.1:
                    break
            ops.append({"kind": "moderate", "alpha": rng.uniform(0.2, 0.8),
                        "nu": nu, "gamma": gamma})
        ops.append({"kind": "extreme", "alpha": rng.uniform(0.2, 0.8),
                    "nu": _signed(rng, 1e-300, 1e300),
                    "gamma": log_uniform(rng, 1e-300, 1e300), "known_defect": True})
        yield ops


_GENERATORS = {
    "cli-sweep": _cli_sweep,
    "orbit-long": _orbit_long,
    "oracle-batch": _oracle_batch,
    "closed-form-ensemble": _closed_form_ensemble,
}


def cycles(workload: str, seed: int):
    """Endless stream of operation cycles; the same seed gives the same stream."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def run_window(workload: str, seed: int, run_op, seconds=None, n_cycles=None):
    """Run whole cycles until ``seconds`` have passed, or exactly ``n_cycles``.

    Return the results of ``run_op`` on every operation and the cycle count.
    """
    results, done = [], 0
    start = perf_counter()
    for ops in cycles(workload, seed):
        results += [run_op(op) for op in ops]
        done += 1
        if done == n_cycles or (n_cycles is None and perf_counter() - start >= seconds):
            return results, done


def measure(workload: str, seed: int, seconds: float, run_op, start_tracing=None) -> dict:
    """The timed window of one run.

    Without ``start_tracing`` the whole window runs untraced.  With it, half
    the window runs untraced; ``start_tracing()`` then installs the tracer
    and returns the runner for the same cycles again, traced, so that the
    ratio of their times is the tracing overhead.
    """
    if start_tracing is None:
        ops, n_cycles = run_window(workload, seed, run_op, seconds)
        return {"ops": ops, "cycles": n_cycles}
    ops, n_cycles = run_window(workload, seed, run_op, seconds / 2)
    traced, _ = run_window(workload, seed, start_tracing(), n_cycles=n_cycles)
    return {"ops": ops, "traced_ops": traced, "cycles": n_cycles}
