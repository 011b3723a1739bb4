"""The repository benchmark: one workload, one seed, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload relay-soak --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats fixed-size batches of the workload until
``--seconds`` of wall time are spent and reports the end-to-end
metrics: medians over the batches for wall-clock figures, the
(identical) simulated figures of the batches, and the peak RSS.
``--trace 1`` runs one untraced and one traced batch, checks that both
simulate the same thing, and reports the per-layer metrics of the
traced one; the spans go to ``perfbench/out/`` as a Chrome trace.

Every batch checks its outputs; a failed check makes ``correct`` false.
Human-readable lines come first; the last line of standard output is
the JSON result.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes, hence dict and set layouts, are randomised per
        # process and move run times by several per cent from one run to
        # the next; a fixed hash seed removes that source of spread.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = bench.traced(args.workload, args.seed,
                              os.path.join(ROOT, "perfbench", "out"))
    else:
        result = bench.measure(args.workload, args.seed, args.seconds)
    for line in bench.render(args.workload, args.seed, result):
        print(line)
    print(json.dumps(result["json"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
