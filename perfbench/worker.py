"""One workload in one fresh process: set up, run the closed loop, check answers.

``run.py`` starts this and reads the one JSON object it prints::

    python3 perfbench/worker.py --workload stage-dense --seed 1 --seconds 22 --trace 0
    python3 perfbench/worker.py --workload stage-dense --setup-only

The loop submits the workload's round of inputs again and again.
``setup_s`` is the median of SETUP_PROBES + 1 set-ups: this process's
own, and fresh processes that only set up, run between ops at even steps
through the loop, so that the host's slow and fast spells weigh on it as
they weigh on the ops.

With ``--trace 1`` the time is split in two halves over the same inputs,
untraced then traced; the traced half gives the per-layer metrics, and
the difference between the two halves' throughput is the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracing import Tracer, direct_call
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 16
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(SRC_DIR))


def set_up(workload):
    """Import the library and build what the first op needs; returns the timings."""
    start = perf_counter()
    import qrbs

    imported = perf_counter()
    if not Path(qrbs.__file__).resolve().is_relative_to(SRC_DIR):
        sys.exit(f"qrbs imported from {qrbs.__file__}, not from {SRC_DIR}")
    lib = workload.setup()
    done = perf_counter()
    timings = {
        "import_s": imported - start,
        "build_s": done - imported if hasattr(lib, "compiled") else 0.0,
        "setup_s": done - start,
    }
    return lib, timings


class SetupProbes:
    """Fresh processes that only set up, run between ops at even steps of loop time."""

    def __init__(self, name: str, smoke: bool, seconds: float):
        self.command = [sys.executable, __file__, "--workload", name, "--setup-only"]
        self.command += ["--smoke"] if smoke else []
        self.interval = seconds / SETUP_PROBES
        self.samples: list[dict] = []
        self.spent = 0.0  # seconds spent in probes, which the loop does not count
        self.start: float | None = None

    def run_due(self) -> None:
        now = perf_counter()
        if self.start is None:
            self.start = now
        while (
            len(self.samples) < SETUP_PROBES
            and now - self.start - self.spent >= len(self.samples) * self.interval
        ):
            self._probe()

    def run_rest(self) -> None:
        while len(self.samples) < SETUP_PROBES:
            self._probe()

    def _probe(self) -> None:
        began = perf_counter()
        done = subprocess.run(
            self.command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if done.returncode != 0:
            sys.exit(f"set-up probe failed: {done.stderr.strip()}")
        self.samples.append(json.loads(done.stdout))
        self.spent += perf_counter() - began


def closed_loop(workload, lib, inputs, seconds, call, probes, tracer=None) -> dict:
    """Run rounds of ``inputs`` back to back until ``seconds`` of loop time have passed."""
    latencies = array("d")  # 8 bytes an op, so peak RSS hardly depends on the op count
    failed = 0
    errors: list[str] = []
    counts: dict[str, float] = defaultdict(float)
    start, spent = perf_counter(), probes.spent
    index = 0
    while True:
        position = index % len(inputs)
        if position == 0:
            items = [workload.variant(item, index // len(inputs)) for item in inputs]
        item = items[position]
        if tracer is not None:
            tracer.op = index
        began = perf_counter()
        try:
            output = workload.op(lib, item, call)
        except Exception as exc:  # an unexpected exception is a failed op
            output = exc
        latencies.append(perf_counter() - began)
        try:
            if isinstance(output, Exception):
                raise output
            ok, op_counts = workload.check(lib, item, output)
        except Exception as exc:
            ok, op_counts = False, {}
            errors.append(f"op {index}: {exc!r}")
        if not ok:
            failed += 1
        for name, value in op_counts.items():
            counts[name] += value
        del output  # frees a dense state before the next op allocates one
        index += 1
        probes.run_due()
        elapsed = perf_counter() - start - (probes.spent - spent)
        if elapsed >= seconds and (position == len(inputs) - 1 or not workload.whole_rounds):
            break
    return {
        "latencies": latencies,
        "ops_per_s": len(latencies) / sum(latencies),
        "failed": failed,
        "errors": errors,
        "counts": counts,
    }


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Returns the metric values by name, the ops attempted and failed, and a report."""
    workload = WORKLOADS[name](smoke)
    lib, setup = set_up(workload)
    inputs = workload.inputs(random.Random(f"{name}/{seed}"), lib)
    probes = SetupProbes(name, smoke, seconds)

    if not trace:
        phases = [closed_loop(workload, lib, inputs, seconds, direct_call, probes)]
    else:
        untraced = closed_loop(workload, lib, inputs, seconds / 2, direct_call, probes)
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced = closed_loop(workload, lib, inputs, seconds / 2, tracer.call, probes, tracer)
        finally:
            tracer.remove()
        phases = [untraced, traced]
    probes.run_rest()
    # read before the statistics below, whose sorted copies grow with the op count
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups = [setup] + probes.samples
    median = lambda key: statistics.median(s[key] for s in setups)
    latencies = phases[0]["latencies"]
    values = {
        "ops_per_s": phases[0]["ops_per_s"],
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "setup_s": median("setup_s"),
    }
    report = {
        "workload": name,
        "environment": environment(seed),
        "seconds": seconds,
        "ops": len(latencies),
        "inputs_per_round": len(inputs),
        "failed_frac": sum(p["failed"] for p in phases) / sum(len(p["latencies"]) for p in phases),
        # the 90th percentile needs at least ten samples beyond it
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1e3
        if len(latencies) >= 100
        else None,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "final_check": workload.final_check(lib),
        "errors": [e for p in phases for e in p["errors"]][:10],
    }
    if trace:
        traced_ops = len(traced["latencies"])
        values.update(tracer.layer_metrics(traced_ops, traced["counts"]))
        values["setup.import_s"] = median("import_s")
        values["idc.build_idc_circuit.s"] = median("build_s")
        values["trace.untraced_ops_per_s"] = untraced["ops_per_s"]
        values["trace.traced_ops_per_s"] = traced["ops_per_s"]
        values["trace.overhead_ops_per_s"] = untraced["ops_per_s"] - traced["ops_per_s"]
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(BENCH_DIR.parent))
    return {
        "values": values,
        "attempted": sum(len(p["latencies"]) for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "report": report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes")
    parser.add_argument("--setup-only", action="store_true", help="report set-up timings only")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, timings = set_up(WORKLOADS[args.workload](args.smoke))
        print(json.dumps(timings))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
