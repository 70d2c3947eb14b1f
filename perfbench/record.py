"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/BASELINE.json
    python3 perfbench/record.py --seeds 11-20 --out perfbench/BASELINE.json --repeat

For each workload: one untraced run per seed (end-to-end metrics), then
one traced run (per-layer metrics).  --repeat runs a second set of seeds on
the same code, without the traced run, and adds it to the record under
"repeat" with each median's change against the first set.  The spread of a metric is the distance
between the first and third quartile of its values, as
statistics.quantiles(values, n=4) gives them, divided by their median.
Runs go one at a time so that they do not compete for the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import ops
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # the machine's speed against the reference kernel's nominal time
    result["speed"] = next(float(line.split()[2]) for line in lines if line.startswith("  machine speed"))
    print(f"{workload} seed={seed} trace={trace} exit={proc.returncode} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(ops.WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeat", action="store_true", help="add a second set to the record in --out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    import numpy

    record = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "platform": platform.platform(),
                    "ref_nominal_s": run.REF_NOMINAL_S},
        "run_seconds": seconds,
        "workloads": {},
    }
    names = [m["name"] for m in bench["end_to_end"]]
    if args.repeat:
        record = json.loads(Path(args.out).read_text())
        repeat = record["repeat"] = {"seeds": _seeds(args.seeds), "workloads": {}}
        for workload in args.workloads.split(","):
            runs = [run_once(workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
            first = record["workloads"][workload]["end_to_end"]
            second = {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names}
            for n, m in second.items():
                m["median_change"] = m["median"] / first[n]["median"] - 1
            repeat["workloads"][workload] = {
                "speed": summary([r["speed"] for r in runs]),
                "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                "end_to_end": second,
            }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        return 0
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in _seeds(args.seeds)]
        traced = run_once(workload, _seeds(args.seeds)[0], seconds, 1)
        record["workloads"][workload] = {
            "why": why[workload],
            "seeds": _seeds(args.seeds),
            "speed": summary([r["speed"] for r in runs]),
            "failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "end_to_end": {n: summary([r["metrics"][n]["value"] for r in runs]) for n in names},
            "per_layer": {n: m["value"] for n, m in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
