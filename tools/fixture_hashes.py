"""Hash the CSV and JSON exports of the benchmark's fixture days.

    python3 tools/fixture_hashes.py [--root CHECKOUT]

The fixture days are the days of `perfbench/bench.py`'s `sweep_days` for
the workloads `day-toa`, `day-wide` and `zone-sweep`, at seeds 42, 7 and
20261017 and sweeps 0 and 1: 108 days. Each day runs through
`scenario.run_day`, is exported as CSV and as JSON, and prints one line
per export:

    <sha256>  <workload>/<seed>/<sweep>/<day>.<csv|json>

216 lines in all. `--root` (default: the checkout holding this script)
names the checkout whose `src` and `perfbench` are imported, so two
checkouts compare with `diff`:

    python3 tools/fixture_hashes.py --root ../parent > parent.txt
    python3 tools/fixture_hashes.py > change.txt
    diff parent.txt change.txt

Bytes are identical only under the same BLAS thread configuration (see
README), so run both sides with the same environment.
"""

import argparse
import hashlib
import os
import sys
import tempfile

WORKLOADS = ("day-toa", "day-wide", "zone-sweep")
SEEDS = (42, 7, 20261017)
SWEEPS = (0, 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from bench import sweep_days
    from gridbase import scenario as sc

    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS:
            for seed in SEEDS:
                for sweep in SWEEPS:
                    for day in sweep_days(workload, seed, sweep):
                        results = day.run()
                        for fmt in ("csv", "json"):
                            path = os.path.join(tmp, f"out.{fmt}")
                            sc.export_results(results, path, fmt)
                            with open(path, "rb") as fh:
                                digest = hashlib.sha256(fh.read()).hexdigest()
                            print(f"{digest}  {workload}/{seed}/{sweep}/"
                                  f"{day.key}.{fmt}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
