"""Regenerate ``reference.json``: outputs of each workload at seed 0.

Run from the repository root, only when a change is meant to alter outputs
beyond the benchmark's rounding tolerance, and say why in the change:

    python3 perfbench/make_reference.py
"""

import json
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    reference = {}
    for workload in workloads.WORKLOADS.values():
        for size in ("full", "tiny"):
            if workload.kind == "clip":
                run.write_weights(workload, size)
            bench = run.make_bench(workload, size, run.REFERENCE_SEED)
            reference[f"{workload.name}/{size}"] = [
                [float(v) for v in out] for out in bench.reference_outputs()]
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
