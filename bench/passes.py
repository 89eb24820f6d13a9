"""One measured pass of one workload, in a fresh process.

``run.py`` spawns this module once per (workload, repetition) so every
pass starts from a clean heap and its ``ru_maxrss`` is its own.  The pass
builds the program from the workload's inputs, runs it, checks the outputs
and prints one JSON document on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence

from inproc import run_in_process
from workloads import SERVE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() of the parent at spawn (setup_s origin)")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.time()
    if args.workload == SERVE:
        from serving import run_serve_mixed

        doc = run_serve_mixed(args.seed, args.smoke, args.traced, args.trace_out)
    else:
        doc = run_in_process(
            args.workload, args.seed, args.smoke, args.traced,
            spawned_at, args.trace_out,
        )
    doc.update(workload=args.workload, seed=args.seed, traced=args.traced)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
