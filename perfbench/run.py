"""Benchmark of the privhist CLI pipeline on three seeded workloads.

Run from the root of a privhist checkout:

    python3 perfbench/run.py --workload box-query --seed 1 --seconds 25 --trace 0

Workloads are ``box-query``, ``grid-rebuild`` and ``voronoi``.  With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1`` it
also replays the workload with every layer's public functions wrapped and
prints per-layer self times and work counts.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (environment, per-pass timings, output
digests and headline results) is written to
``perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["box-query", "grid-rebuild", "voronoi"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "privhist" / "cli.py").is_file():
        sys.stderr.write("error: src/privhist not found; run from the root of a privhist checkout\n")
        return 2
    # BLAS and OpenMP read these once, when numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import runner

    out = root / "perfbench" / "results"
    out.mkdir(exist_ok=True)
    record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace), root, out)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")

    for metric, entry in record["metrics"].items():
        print(f"{args.workload:<13} {metric:<48} {entry['value']:.6g} {entry['unit']}")
    if "pipeline_s" in record:
        print(f"{args.workload:<13} {'pipeline_s (wall, median)':<48} {record['pipeline_s']:.6g} s")
    rate = record["failed"] / record["attempted"]
    print(f"{args.workload:<13} {'op_failure_rate':<48} {rate:.6g} fraction"
          f" ({record['failed']}/{record['attempted']} steps)")
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
