"""hgsim benchmark: one CLI workload, measured in fresh worker processes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Load is a closed loop with one client: each
operation is one in-process ``hgsim.cli.main(argv)`` call (two for the
build | extract pipe), made only after the previous one returned.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a separate traced worker reports per-layer metrics.  Details
of every run go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("roundtrip-dense", "verify-random", "entangle-tables", "orbit-report")
SETUPS = 7  # fresh processes whose set-up is timed; the median is reported
DEADLINE_S = 170.0  # the whole run, all worker processes included

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, unit); "bits.*" is the hgsim._bits module.
PER_LAYER = [
    ("bits.set_bits.calls", "count"),
    ("bits.set_bits.self_ms", "ms"),
    ("bits.set_bits.bits_out", "count"),
    ("bits.vertices_from_mask.calls", "count"),
    ("bits.vertices_from_mask.self_ms", "ms"),
    ("bits.butterfly.calls", "count"),
    ("bits.butterfly.self_ms", "ms"),
    ("bits.butterfly.bytes_computed", "bytes"),
    ("bits.weight_mask.self_ms", "ms"),
    ("bits.weight_mask.cold_ms", "ms"),
    ("bits.weight_mask.hit_ratio", "ratio"),
    ("bits.xor_permute.calls", "count"),
    ("bits.xor_permute.self_ms", "ms"),
    ("bits.parity_mask.self_ms", "ms"),
    ("hypergraph.parse.self_ms", "ms"),
    ("hypergraph.serialize.self_ms", "ms"),
    ("hypergraph.neighbourhood.calls", "count"),
    ("hypergraph.neighbourhood.self_ms", "ms"),
    ("statesim.dump.self_ms", "ms"),
    ("statesim.dump.bytes", "bytes"),
    ("statesim.load.self_ms", "ms"),
    ("statesim.build_state.self_ms", "ms"),
    ("statesim.stabilizer.calls", "count"),
    ("statesim.stabilizer.self_ms", "ms"),
    ("statesim.apply_stabilizer.self_ms", "ms"),
    ("statesim.commutator_residual.calls", "count"),
    ("statesim.commutator_residual.self_ms", "ms"),
    ("statesim.uniqueness_check.self_ms", "ms"),
    ("statesim.random_state.self_ms", "ms"),
    ("extract.extract_layered.self_ms", "ms"),
    ("extract.extract_fast.self_ms", "ms"),
    ("extract.edges_out", "count"),
    ("boolfn.from_text.self_ms", "ms"),
    ("entanglement.reduced_density.calls", "count"),
    ("entanglement.reduced_density.self_ms", "ms"),
    ("entanglement.lambda_max.calls", "count"),
    ("entanglement.lambda_max.self_ms", "ms"),
    ("orbits.class_inequivalence_report.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("hypergraph.self_ms", "ms"),
    ("boolfn.self_ms", "ms"),
    ("statesim.self_ms", "ms"),
    ("extract.self_ms", "ms"),
    ("entanglement.self_ms", "ms"),
    ("orbits.self_ms", "ms"),
    ("bits.self_ms", "ms"),
    ("cli.stdout_bytes", "bytes"),
]


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, mode: str, deadline: float) -> tuple[float, dict | None]:
    """Start one fresh worker; return its set-up seconds (spawn to the end of
    the warm-up operation, benchmark inputs excluded) and its result line."""
    argv = [sys.executable, str(HERE / "worker.py"), str(SRC), args.workload,
            str(args.seed), str(args.seconds), mode]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=worker_env())
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        tail = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if code != 0 or not ready:
        raise WorkerError(f"{mode} worker exited {code}")
    head = json.loads(ready)
    setup = t_ready - t_spawn - head["excluded_s"]
    return setup, (json.loads(tail.splitlines()[-1]) if mode != "setup" else None)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_value(per_layer: dict[str, float], name: str) -> float:
    """A per-layer metric; a counter of a function that was never called is 0."""
    if name in per_layer:
        return per_layer[name]
    if f"{name.rsplit('.', 1)[0]}.calls" in per_layer:
        return 0.0
    raise KeyError(f"the traced worker did not report {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hgsim" / "cli.py").is_file():
        print(f"run.py: no hgsim sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            _, result = run_worker(args, "trace", deadline)
            setups = []
        else:
            # set-up workers before and after the measuring one, so that the
            # median does not rest on one stretch of machine load
            before = SETUPS // 2
            setups = [run_worker(args, "setup", deadline)[0] for _ in range(before)]
            setup, result = run_worker(args, "measure", deadline)
            setups.append(setup)
            setups += [run_worker(args, "setup", deadline)[0] for _ in range(SETUPS - 1 - before)]
    except (WorkerError, json.JSONDecodeError, IndexError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    if len(lat_ms) < 2:
        print(f"run.py: {len(lat_ms)} operations completed", file=sys.stderr)
        return 1
    ops_per_s = statistics.median(result["round_rates"])
    if args.trace:
        values = {name: layer_value(result["per_layer"], name) for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
    else:
        values = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": percentile(lat_ms, 90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setups_s=setups, ops_per_s=ops_per_s, values=values)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(detail, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
