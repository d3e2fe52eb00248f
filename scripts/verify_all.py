#!/usr/bin/env python3
"""Run the verification and factory batteries over the built-in pairs.

Prints one line per pair and check, optionally writes the full JSON reports,
and exits 1 if any check fails and 2 on a configuration error, as the
geodequiv command does.  Typical use:

    python3 scripts/verify_all.py --out-dir reports/
    python3 scripts/verify_all.py --pairs ellipsoid:1,2,3 sphere --trajectories 5
"""

import argparse
import sys
import time
from pathlib import Path

from geodequiv.cli import INPUT_ERRORS, RunConfig, _report_json, cmd_factory, cmd_verify

DEFAULT_PAIRS = (
    "ellipsoid:1,2,3",
    "lc-demo:m2n2",
    "lc-demo:m2n3",
    "lc-demo:m3n4",
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", nargs="+", default=list(DEFAULT_PAIRS),
                    help="pair names (default: the standard battery)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trajectories", type=int, default=20)
    ap.add_argument("--points", type=int, default=100)
    ap.add_argument("--out-dir", default=None, help="directory for full JSON reports")
    args = ap.parse_args(argv)
    try:
        return run_battery(args)
    except INPUT_ERRORS as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


def run_battery(args) -> int:
    """Print one line per pair and check; returns 1 if any check failed."""
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    t0 = time.perf_counter()
    for name in args.pairs:
        cfg = RunConfig(pair=name, seed=args.seed,
                        trajectories=args.trajectories, points=args.points)
        for label, command in (("verify", cmd_verify), ("factory", cmd_factory)):
            report, code = command(cfg)
            failures += code
            status = "PASS" if code == 0 else "FAIL"
            # the rank check counts up rather than down, so summarize it apart
            scalars = [c for c in report["checks"] if c["name"] != "independence-rank"]
            detail = f"worst check value {max(c['value'] for c in scalars):.3e}"
            if label == "verify":
                ind = report["independence"]
                detail += f", rank {ind['rank']}/{ind['required']}"
            print(f"{status}  {label:8s}{name:18s} {detail}")
            if out_dir:
                stem = name.replace(":", "_").replace(",", "-").replace("/", "_")
                path = out_dir / f"{label}_{stem}.json"
                path.write_text(_report_json(report))
    print(f"done in {time.perf_counter() - t0:.1f}s, {failures} failing report(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
