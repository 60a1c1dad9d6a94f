"""One fresh benchmark process: import hgsim, warm up, then measure or trace.

    python3 worker.py <src-dir> <workload> <seed> <seconds> <setup|measure|trace>

run.py starts it with PYTHONPATH set to <src-dir>.  It writes JSON lines on
its stdout: ``{"ready": ...}`` right after the warm-up operation, then (in
measure and trace modes) one result line.  The program's own stdin and
stdout are in-memory buffers, so those lines are the only output.
"""

import sys
import time

from hgsim import cli  # interpreter start-up and this import count in setup_s

_t_bench = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_op(op: workloads.Op) -> tuple[list, list[str], float]:
    """Make the operation's CLI calls in-process; return exit codes (None for
    an uncaught exception), stdout texts and the seconds spent inside main()."""
    codes, outs, busy = [], [], 0.0
    prev = ""
    for argv, stdin in op.calls:
        sys.stdin = io.StringIO(prev if stdin is None else stdin)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback the CLI should have turned into exit 2
                code = None
            busy += time.perf_counter() - t0
        sys.stdin = sys.__stdin__
        prev = out.getvalue()
        codes.append(code)
        outs.append(prev)
        if err.getvalue():
            print(f"hgsim {' '.join(argv)}: {err.getvalue().strip()}", file=sys.stderr)
        if code != 0:
            break
    return codes, outs, busy


def emit(obj: dict) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    src, workload, seed, seconds, mode = sys.argv[1:6]
    seed, seconds = int(seed), float(seconds)
    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"imported hgsim from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    pool = workloads.make_inputs(workload, seed, 1 if mode == "setup" else workloads.POOL)
    ops = [workloads.make_op(workload, inp) for inp in pool]
    excluded = time.perf_counter() - _t_bench  # benchmark imports and inputs

    warm_codes, warm_outs, _ = run_op(ops[0])  # fills lru caches, as each shell call does
    emit({"ready": True, "excluded_s": excluded})
    if mode == "setup":
        return 0 if warm_codes == [0] * len(ops[0].calls) else 1
    cold = tracer.op_summary() if tracer else {}

    for inp, op in zip(pool, ops):
        workloads.prepare(workload, inp, op)
    problems = workloads.check(workload, ops[0].expect, warm_codes, warm_outs)

    latencies: list[float] = []
    round_rates: list[float] = []  # completed operations per busy second, one per round
    attempted = failed = 0
    totals: dict[str, float] = {}
    spans: list = []
    round_ops = [ops[j % len(ops)] for j in range(workloads.POOL)]
    start = time.perf_counter()
    while True:  # whole rounds over the pool, until the run length is reached
        done = len(latencies)
        for op in round_ops:
            gc.collect()
            if tracer:
                tracer.reset()
            codes, outs, busy = run_op(op)
            attempted += 1
            if tracer:
                for key, value in tracer.op_summary().items():
                    totals[key] = totals.get(key, 0) + value
                totals["cli.stdout_bytes"] = totals.get("cli.stdout_bytes", 0) + sum(map(len, outs))
                if attempted == 1:  # the first measured operation's spans are written out
                    spans = tracer.spans()
            if None in codes or 2 in codes:
                failed += 1
                continue
            latencies.append(busy)
            problems.extend(workloads.check(workload, op.expect, codes, outs))
        if len(latencies) > done:
            round_rates.append((len(latencies) - done) / sum(latencies[done:]))
        if time.perf_counter() - start >= seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "latencies_s": latencies,
        "round_rates": round_rates,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        per_op = {k: v / attempted for k, v in totals.items()}
        info = tracer.originals["_bits.weight_mask"].cache_info()
        per_op["_bits.weight_mask.hit_ratio"] = info.hits / max(1, info.hits + info.misses)
        per_op["extract.edges_out"] = sum(
            per_op.get(f"extract.{f}.edges_out", 0) for f in ("extract_layered", "extract_fast")
        )
        per_op["_bits.weight_mask.cold_ms"] = cold.get("_bits.weight_mask.self_ms", 0.0)
        for module in tracing.MODULES:
            per_op[f"{module}.self_ms"] = sum(
                v for k, v in per_op.items()
                if k.startswith(f"{module}.") and k.endswith(".self_ms") and k.count(".") == 2
            )
        # metric names start with a letter: "_bits.*" is reported as "bits.*"
        result["per_layer"] = {k.lstrip("_"): v for k, v in per_op.items()}
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{workload}-seed{seed}.json", "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
