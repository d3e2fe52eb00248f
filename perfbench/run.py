"""Benchmark entry point.

    python3 perfbench/run.py --workload ellipsoid --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  It prints a detail line (environment,
report digests, per-command figures, gate failures) and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics; the
same record is written to perfbench/out/.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones.  Exits 2 without a result when the
checkout holds no geodequiv source.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import harness  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, detail = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {"detail": detail, "result": result}
    path = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, allow_nan=False) + "\n")
    print(json.dumps({"detail": detail}, sort_keys=True, allow_nan=False))
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
