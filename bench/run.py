"""setcodes benchmark: decoy-channel frames/s per decoder and code-analysis codes/s.

Run from the root of a checkout:

    python3 bench/run.py --workload decoy_bicode --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` the same timed loop runs untraced,
then a fixed block of work runs traced and the per-layer metrics come from
its spans. A summary goes to standard error. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The benchmark measures the source next to it, never an installed copy.
    if not (SRC / "setcodes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(harness.WORKLOADS))}")
    result = harness.run(
        harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    harness.log(
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"failed_frac {result['failed'] / result['attempted']:.6f}"
    )
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
