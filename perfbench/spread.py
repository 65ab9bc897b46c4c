"""Run the benchmark on sets of seeds and summarise each end-to-end metric.

    python3 perfbench/spread.py --sets 1-10
    python3 perfbench/spread.py --sets 101-110 301-310 --out perfbench/baseline.json
    python3 perfbench/spread.py --workloads stage-dense,compile-verify --sets 1-5

Runs one workload at a time through ``run.py``, with the run length from
BENCHMARK.json. The sets are interleaved seed by seed (the first seed of
every set, then the second, ...), and each seed runs every workload, so a
slow spell of the host falls on all sets and workloads alike. For every
set, workload and end-to-end metric it prints the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median) next to the metric's bound; for a later set, also how much worse
its median is than the first set's. ``--out`` writes the runs and the
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def _worse(metric: dict, first: float, later: float) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=_seeds, nargs="+", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values = {(s, w): {} for s in range(len(args.sets)) for w in workloads}
    runs: list[dict] = []
    for position in range(max(len(seeds) for seeds in args.sets)):
        for set_index, seeds in enumerate(args.sets):
            if position >= len(seeds):
                continue
            seed = seeds[position]
            for workload in workloads:
                command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return 1
                *_, report_line, result_line = done.stdout.splitlines()
                report, result = json.loads(report_line)["report"], json.loads(result_line)
                runs.append({"set": set_index, "report": report, "result": result})
                if not result["correct"]:
                    print(f"{workload} seed {seed}: wrong answers {report['errors']}", file=sys.stderr)
                    return 1
                for name, metric in result["metrics"].items():
                    values[set_index, workload].setdefault(name, []).append(metric["value"])
                print(set_index, workload, seed,
                      {n: round(m["value"], 4) for n, m in result["metrics"].items()}, flush=True)

    summary: dict = {}
    for set_index in range(len(args.sets)):
        for workload in workloads:
            for name, series in values[set_index, workload].items():
                q1, median, q3 = statistics.quantiles(series, n=4)
                entry = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
                line = (f"set {set_index} {workload} {name}: median {median:.6g}  q1 {q1:.6g}  "
                        f"q3 {q3:.6g}  spread {entry['spread']:.3f}  bound {metrics[name]['bound']}")
                if set_index > 0:
                    first = summary[f"set0/{workload}"][name]["median"]
                    entry["worse_than_set0"] = _worse(metrics[name], first, median)
                    line += f"  worse than set 0 by {entry['worse_than_set0']:+.3f}"
                summary.setdefault(f"set{set_index}/{workload}", {})[name] = entry
                print(line)
    if args.out:
        args.out.write_text(json.dumps({"sets": args.sets, "summary": summary, "runs": runs},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
