"""Run one shiftguard benchmark workload and print its metrics.

    python3 shiftbench/run.py --workload gbt-null-audit --seed 1 \
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` wraps shiftguard's public functions in spans and
prints the per-layer metrics instead.  Information lines (digests,
thresholds, detection counts) come first; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# one BLAS thread per process: on a machine with few cores, idle BLAS
# worker threads spinning beside a CLI child would be timed as its latency
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import bench_checks  # noqa: E402  (numpy must see the settings above)
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_shiftguard():
    """Import shiftguard from this checkout's src/, never from elsewhere."""
    package = os.path.join(SRC, "shiftguard")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"shiftbench: no shiftguard sources at {package}")
    sys.path.insert(0, SRC)
    import shiftguard
    if os.path.dirname(os.path.realpath(shiftguard.__file__)) \
            != os.path.realpath(package):
        sys.exit(f"shiftbench: imported shiftguard from {shiftguard.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_shiftguard()

    workdir = os.path.join(OUT, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = None
    if args.trace:
        tracer = bench_trace.Tracer()
        bench_trace.install(tracer)
    ctx = bench_workloads.Context(root=ROOT, workdir=workdir, seed=args.seed,
                                  seconds=args.seconds, tracer=tracer)
    res, check = bench_workloads.WORKLOADS[args.workload](ctx)

    e2e = bench_workloads.end_to_end(args.workload, res)
    if tracer is not None:
        metrics = bench_trace.per_layer_metrics(tracer)
        tracer.write(os.path.join(workdir, "spans.jsonl"))
    else:
        metrics = e2e
    check()   # after every measurement: the checks import scipy

    first = res.verdicts[:res.min_tests]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tests": len(res.test_s),
        "tail_percentile": bench_workloads.TAIL_PERCENTILE[args.workload],
        "calibration_sha256": bench_checks.calibration_digest(res.calibration),
        f"verdicts_sha256_first_{len(first)}": bench_checks.verdict_digest(
            [v for pair in first if pair is not None for v in pair]),
        "phi_p_range": (min(res.calibration["phi_p"]),
                        max(res.calibration["phi_p"])),
        "tau_disagreement": res.calibration["tau_disagreement"],
        "tau_entropy": res.calibration["tau_entropy"],
        **res.info,
    }
    if tracer is not None:
        info.update({f"traced_{k}": v for k, (v, _) in e2e.items()})
    for key, value in info.items():
        print(f"{key}: {value}")
    for op, message in res.problems:
        print(f"check failed: {op}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
