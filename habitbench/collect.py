"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 habitbench/collect.py --seeds 1-10 --out habitbench/baseline.json

For every workload of `run.py` it runs `run.py` once per seed untraced,
and once per --traced-seeds seed traced, each run as long as the
`run_seconds` of BENCHMARK.json. Each metric gets its median, first and
third quartile (statistics.quantiles, n=4) and the quartile spread as a
share of the median. The output also keeps the machine facts
and every run's raw values, so that a later change can be compared run by
run against the same commit's numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    stem = f"{workload}-seed{seed}-trace{trace}"
    return json.loads((HERE.parent / ".habitbench" / "results" / f"{stem}.json").read_text())


def summarise(records):
    out = {}
    for name in records[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": records[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--traced-seeds", type=seed_list, default=seed_list("1"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    result = {"seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in args.seeds]
        traced = [run_once(workload, s, seconds, 1) for s in args.traced_seeds]
        result["facts"] = runs[-1]["facts"]
        result["workloads"][workload] = {
            "seeds": args.seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": summarise(runs),
            "traced_seeds": args.traced_seeds,
            "traced_metrics": summarise(traced) if traced else {},
        }
        for name, m in result["workloads"][workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:<15} {name:<28} median {m['median']:>12.6g} {m['unit']:<10} spread {spread}")
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
