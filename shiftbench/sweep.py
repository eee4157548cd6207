"""Run every workload (or some) over one or more seeds and summarize.

    python3 shiftbench/sweep.py                       # all workloads, seed 1
    python3 shiftbench/sweep.py --workloads mlp-smalln-shift --seeds 1-10
    python3 shiftbench/sweep.py --trace 1             # per-layer metrics

Each run prints its metrics with their units, the operations attempted
and failed, whether every output check passed, and the calibration and
verdict digests.  With more than one seed it adds, per metric, the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  Runs and
summaries go to ``shiftbench/_out/sweep-<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from bench_workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    info = dict(line.split(": ", 1) for line in lines[:-1])
    return {"seed": seed, "info": info, "result": json.loads(lines[-1])}


def summarize(runs) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", default="1", help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, value in run["info"].items():
                if "sha256" in key:
                    print(f"  {key} {value}")
            for name, m in res["metrics"].items():
                print(f"  {name:36s} {m['value']:14.4f} {m['unit']}")
            sys.stdout.flush()
            runs.append(run)
        summary = summarize(runs) if len(runs) > 1 else {}
        for name, s in summary.items():
            print(f"{workload} {name:36s} median {s['median']:12.4f}  "
                  f"q1 {s['q1']:12.4f}  q3 {s['q3']:12.4f}  "
                  f"spread {s['spread']:.4f}")
        out = os.path.join(HERE, "_out",
                           f"sweep-{workload}-trace{args.trace}.json")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
