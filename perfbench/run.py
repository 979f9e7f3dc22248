#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload eval-4t --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes the separate traced run and prints the per-layer
metrics (spans are written to ``.bench_build/perfbench/traces/``).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  ``--smoke`` shrinks every size (for the benchmark's own
tests); ``--inject-wrong-output`` corrupts one answer so the correctness
checks must fire.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads (servers inherit it):
# on a shared 2-vCPU box a two-thread BLAS call waits on whichever vCPU is
# contended, which made run-to-run throughput bimodal (see README.md).
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

#: Wall-clock cap of one run after the one-time model training.
RUN_LIMIT_S = 170


def load_config() -> dict:
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args) -> dict:
    if args.workload == "eval-4t":
        import wl_eval

        return wl_eval.run(args.seed, args.seconds, bool(args.trace),
                           args.smoke, args.inject_wrong_output)
    import wl_serve

    return wl_serve.run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.smoke, args.inject_wrong_output)


def report(config: dict, trace: bool, result: dict) -> dict:
    """The result line: exactly the configured metrics, with their units."""
    produced = result["metrics"]
    metrics = {}
    for spec in config["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        if name in produced:
            value, produced_unit = produced[name]
            if produced_unit != unit:
                raise common.BenchError(
                    f"{name}: measured in {produced_unit}, configured {unit}")
        elif trace:
            value = 0.0  # a layer this workload does not run
        else:
            raise common.BenchError(f"end-to-end metric {name} not measured")
        metrics[name] = common.metric(value, unit)
    return {
        "correct": not result["problems"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def _timeout(signum, frame):
    raise common.BenchError(f"run exceeded {RUN_LIMIT_S} s")


def _terminated(signum, frame):
    # Unwind, so that every server this run started is stopped.
    raise common.BenchError("terminated")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-wrong-output", action="store_true")
    args = parser.parse_args(argv)
    try:
        config = load_config()
        names = [w["name"] for w in config["workloads"]]
        if args.workload not in names:
            raise common.BenchError(f"unknown workload {args.workload!r}; "
                                    f"known: {names}")
        common.use_program()
        common.prewarm_models()
        signal.signal(signal.SIGTERM, _terminated)
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(RUN_LIMIT_S)
        try:
            result = run_workload(args)
        finally:
            signal.alarm(0)
        line = report(config, bool(args.trace), result)
    except (common.BenchError, OSError, ImportError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for problem in result["problems"][:20]:
        print(f"correctness: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
