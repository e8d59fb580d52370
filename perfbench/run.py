"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ref-mlp --seed 1 --seconds 30 --trace 0

Human-readable lines (environment, each
metric's median, tail percentile and sample count, failures, per-master
quality and artifact digests) come first; the last line of stdout is the
JSON result. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer metrics of a traced run. The full record, with every artifact's
SHA-256, and the span trace are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import BLAS_THREADS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
CLI_SOURCE = ROOT / "src" / "scale_fu" / "cli.py"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not CLI_SOURCE.is_file():
        print(f"error: {CLI_SOURCE} not found; the benchmark runs the scale-fu source "
              "beside it", file=sys.stderr)
        return 2

    # the config is the program's only input
    os.environ.pop("SCALE_SEED", None)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from scale_fu import cli

    workload = WORKLOADS[args.workload]
    machine = harness.environment(BLAS_THREADS)
    report = harness.measure(workload, args.seed, args.seconds, bool(args.trace),
                             WORK / workload.name, cli.main, dict(os.environ),
                             harness.load_reference(workload.name))

    print("environment " + json.dumps(machine, sort_keys=True))
    for line in report.summary_lines():
        print(line)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}"
    record = {"environment": machine, **report.record()}
    (WORK / f"record_{stem}.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    if report.tracer is not None:
        report.tracer.write(WORK / f"spans_{workload.name}.jsonl")
    print(json.dumps(report.result(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
