"""End-to-end benchmark of gridbase's `run_day`.

Run from the root of a checkout (the directory that holds `src/gridbase`):

    python3 perfbench/run.py [--workload day-toa|day-wide|zone-sweep|all]
                             [--seed N] [--seconds S] [--trace 0|1] [--tiny]

One client calls `scenario.run_day` in a closed loop (the next day starts
when the previous call returns) with its default worker count, on day
profiles that `scenario.synth_profile` makes from the workload seed. A run
does, in order:

1. setup: with `--trace 0`, the median wall time of fresh interpreters
   that import `gridbase.cli` and `gridbase.scenario` and build the
   workload's profiles (`setup_s`); with `--trace 1`, the per-package
   import times from `python -X importtime`;
2. the reference pass: the workload's days at the default seed, compared
   hour by hour with `perfbench/reference.json`; it also warms up;
3. the determinism check: one reference day runs again, untraced and
   traced, and its `export_results` CSV must equal the reference pass's
   byte for byte;
4. the timed loop: whole sweeps over the workload's days, each sweep on a
   new day seed derived from `--seed`, for about `--seconds` seconds.
   With `--trace 0` it gives the end-to-end metrics. With `--trace 1`
   every day runs untraced and traced, the two CSVs must match, and the
   spans give the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted` (timed run_day calls), `failed` (timed calls that
raised) and `metrics`. The exit code is 0 only if every check passed.

`--record-reference` rewrites `perfbench/reference.json` from the current
code. Do that only in a change that is meant to alter results, and say so.
"""

import argparse
import os
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(description="run_day benchmark")
    ap.add_argument("--workload", default="all",
                    choices=("day-toa", "day-wide", "zone-sweep", "all"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one sweep of 2-hour days and one reference day")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "gridbase")):
        print(f"perfbench: no src/gridbase in {os.getcwd()}; run from the "
              f"root of a gridbase checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gridbase
    if os.path.dirname(os.path.abspath(gridbase.__file__)) != os.path.join(
            src, "gridbase"):
        print(f"perfbench: gridbase was imported from {gridbase.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
