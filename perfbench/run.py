"""lanebev benchmark: one workload per process.

    python3 perfbench/run.py --workload train --seed 0 --seconds 15 --trace 0

Run from the repository root.  Workloads: train, train-coarse, infer (see
workloads.py).  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs an untraced and a traced window and reports the
per-layer metrics.  End-to-end times are calibrated against a reference
kernel run between units of work (calibrate.py); the raw wall times are in
the record beside them.  Every run checks the program's outputs.  The last line
of standard output is the result as one JSON object; the full record
(provenance, digests, checks, layer breakdown) is written under
``.perfbench/results/`` and the traced run's spans beside it.
"""

import argparse
import json
import os
import shutil
import sys

# BLAS threads are fixed before numpy loads: one thread keeps runs steady on
# a shared machine, and the model's matrices are too small to gain from more.
BLAS_THREADS = "1"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lanebev", "__init__.py")):
        print("perfbench: src/lanebev not found; run from the repository root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, os.path.join(root, "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"valid: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    results = os.path.join(root, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{w.name}-seed{args.seed}-trace{args.trace}")
    work = os.path.join(root, ".perfbench", "work", f"{w.name}-{os.getpid()}")
    try:
        if args.trace:
            run, metrics, detail, tracer = workloads.run_traced(
                w, args.seed, args.seconds, work, root)
            tracer.write_spans(stem + ".spans.jsonl")
        else:
            run, metrics, detail = workloads.run_untraced(w, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    result = {"correct": all(run.checks.values()) and set(metrics) == set(units),
              "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    record = {"result": result, "checks": run.checks, "errors": run.errors, **detail,
              "provenance": workloads.provenance(w, args.seed, args.seconds, args.trace,
                                                 root, run.cfg)}
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for err in run.errors:
        print("CHECK FAILED:", err)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
