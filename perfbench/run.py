"""Benchmark entry point: run one workload, or all of them, from a seed.

    python3 perfbench/run.py --workload stage-dense --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the library is imported from its
``src``. Each workload runs in a fresh single-threaded worker process
(``worker.py``), one workload at a time.

Standard output: per workload, one line with the environment and the
figures the result line leaves out (failed_frac, latency_p90_ms, the
set-up samples, the spans file),
then the result line ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the ``end_to_end`` ones of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` ones. ``--workload
all`` ends with one line that combines every workload's result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# a worker may overrun --seconds by its last round, its set-up probes and its checks
WORKER_SLACK_S = 110


class BenchError(Exception):
    """A worker failed or printed no result."""


def _worker(args: list[str], timeout: float) -> dict:
    env = dict(os.environ)
    # single-threaded, and the same string hashing on every run
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args)}: exit {done.returncode}\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    """Returns (report, result) for one workload."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    worker = _worker(args, seconds + WORKER_SLACK_S)
    values = worker["values"]
    group = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in group}
    result = {
        "correct": worker["failed"] == 0 and worker["report"]["final_check"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return worker["report"], result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes, for the smoke test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qrbs" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'qrbs'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            report, result = run_workload(
                spec, name, args.seed, args.seconds, bool(args.trace), args.smoke
            )
        except BenchError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(json.dumps({"report": report}))
        print(json.dumps(result), flush=True)
        results[name] = result
    if args.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
        print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
