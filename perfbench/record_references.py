"""Record the outputs the benchmark checks every run against.

Run from the repository root::

    python3 perfbench/record_references.py [--workload NAME ...]

Runs one untraced pass of each workload for every input seed and writes
the structured outputs to ``references.json``.  Re-record only for a
change that is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append",
        choices=tuple(run.workloads.WORKLOADS),
        help="workload to re-record (repeatable; default: all)",
    )
    args = parser.parse_args()
    run.setup()
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    for workload in args.workload or run.workloads.WORKLOADS:
        refs[workload] = {}
        for seed in range(run.N_REF_SEEDS):
            result = run.run_pass(workload, seed, False, None)
            if not all(op.ok for op in result.ops):
                print(f"{workload} seed {seed}: an operation failed", file=sys.stderr)
                return 1
            refs[workload][str(seed)] = result.outputs
            print(f"{workload} seed {seed}: {result.wall_s:.2f} s", flush=True)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
