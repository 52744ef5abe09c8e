"""Run a named corpus of benchmark days and print one line per export or hour.

    python3 tools/corpus.py CORPUS [--root CHECKOUT]
    python3 tools/corpus.py compare BASE HEAD

Each corpus is a row of `CORPORA`: a line format and (workload, seeds,
sweeps) rows, whose days are `perfbench/bench.py`'s `sweep_days`; the
`plant` days are bench `Day`s at N = 13 and 20, one per day type and
synth seed, with both plant ratings scaled by N/5 like the design flow.
<key> is <workload>/<seed>/<sweep>/<day>.

`fixtures` runs its 108 days through `scenario.run_day` and prints the
sha256 of each CSV and JSON export, 216 lines of `<sha256>  <key>.<fmt>`.
`outcomes` (2,688 hours) and `wide` (15,120) solve each hour alone at
solver seed 0, build a certified hour's operator for the mask T_oa at
alpha 0.05, and print one line per hour:

    <key> h<hour>  <outcome>  <repr(J0)>  <shift>  <blocks>  <anchor>

<outcome> is `certified` or the class of the error the solve or the
operator build raised. The hashes are the first 16 hex digits of the
sha256 of: the operator's `shift_matrix` (the T_oa column only); the
seven `ModelDerivatives` arrays of `Scaling.derivatives(x0)`, in field
order; the anchor's `x0.to_vector()` and `lam`. Absent values read `-`.

`cli` (3 days, 41 lines) runs the table of `cli_table` through
`gridbase.cli.main` in a temporary working directory that holds the
day's profile and a parameter file that changes `alpha_ng`, and prints
the sha256 of each printed document and of each file a command writes
(its `--out`):

    <sha256>  <key> <argv>        <sha256>  <key> <out>

then the same, keyed `-`, for each command of `CLI_ONCE`. Every path in
the tables is relative, so no document carries the temporary directory.

`--root` (default: this script's checkout) names the checkout whose `src`
and `perfbench` are imported, so two checkouts compare:

    python3 tools/corpus.py outcomes --root ../parent > base.txt
    python3 tools/corpus.py outcomes > head.txt
    python3 tools/corpus.py compare base.txt head.txt

`compare` prints each hour certified in BASE but not in HEAD (`missing`
if HEAD lacks it), `moved: <key> h<hour>` for the first 20 other
differing lines in sorted order, and the count of those, and exits 1 if
an hour was lost. Bytes are identical only under the same BLAS thread
configuration (see README), so run both sides in the same environment.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (42, 7, 20261017)
CORPORA = {
    "fixtures": ("fixtures", tuple((w, SEEDS, range(2)) for w in
                                   ("day-toa", "day-wide", "zone-sweep"))),
    "outcomes": ("outcomes", (("day-toa", (42, 20261017), range(40)),
                              ("zone-sweep", SEEDS, range(4)))),
    "wide": ("outcomes", (("day-toa", (42, 20261017, 7, 1, 2, 3), range(60)),
                          ("zone-sweep", (*SEEDS, 1, 2, 3, 4, 5), range(10)),
                          ("plant", range(20), range(1)))),
    "cli": ("cli", (("day-toa", (42,), range(1)),)),
}
MASK = ("T_oa",)
ALPHA = 0.05
CLI_MASK = "T_oa,c_f_2,Q_zone_1"
CLI_PARAMS = {"alpha_ng": 1.3}
MOVED_SHOWN = 20


def plant_days(seed):
    from bench import Day
    from gridbase.scenario import DAY_TYPES

    days = []
    for n in (13, 20):
        for day_type in DAY_TYPES:
            day = Day(n, day_type, seed, MASK)
            p = day.params
            day.params = dataclasses.replace(p, Q_b_rated=p.Q_b_rated * n / 5,
                                             Q_e_rated=p.Q_e_rated * n / 5)
            days.append(day)
    return days


def days(rows):
    """(key, day) for every day of the rows, in row order."""
    from bench import sweep_days

    for workload, seeds, sweeps in rows:
        for seed in seeds:
            for sweep in sweeps:
                for day in (plant_days(seed) if workload == "plant"
                            else sweep_days(workload, seed, sweep)):
                    yield f"{workload}/{seed}/{sweep}/{day.key}", day


def fixture_lines(rows):
    from gridbase import scenario as sc

    with tempfile.TemporaryDirectory() as tmp:
        for key, day in days(rows):
            results = day.run()
            for fmt in ("csv", "json"):
                path = os.path.join(tmp, f"out.{fmt}")
                sc.export_results(results, path, fmt)
                yield f"{_file_digest(path)}  {key}.{fmt}"


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digest(*arrays):
    """The first 16 hex digits of the sha256 of the arrays' bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def outcome_lines(rows):
    from gridbase import hvac_model as hm
    from gridbase import sensitivity as sn
    from gridbase.baseline_opt import SolverConfig, solve_baseline
    from gridbase.errors import GridbaseError

    cfg = SolverConfig(rng_seed=0)
    for key, day in days(rows):
        for hour in day.profile.hours:
            w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                                   params=day.params)
            outcome, j0 = "certified", "-"
            shift = blocks = anchor = "-"
            try:
                kkt = solve_baseline(w, cfg)
                j0 = repr(kkt.j0)
                anchor = _digest(kkt.x0.to_vector(), kkt.lam)
                d = kkt.scaling.derivatives(kkt.x0.to_vector())
                blocks = _digest(*(getattr(d, f.name)
                                   for f in dataclasses.fields(d)))
                op = sn.build_operator(kkt, w,
                                       sn.uncertainty_spec(w, MASK, ALPHA))
                shift = _digest(op.shift_matrix)
            except (GridbaseError, ValueError) as exc:
                outcome = type(exc).__name__
            yield (f"{key} h{hour.hour_index}  {outcome}  {j0}  {shift}  "
                   f"{blocks}  {anchor}")


def cli_table(day):
    """The argv of each CLI run on one day; a command that writes a file
    ends with its `--out`."""
    hours = [str(h.hour_index) for h in day.profile.hours]
    mid = hours[len(hours) // 2]
    at = ["--profile", "profile.csv"]
    box = ["--mask", CLI_MASK, "--alpha", str(ALPHA), "--samples", "300"]
    sens = at + ["--hour", mid] + box
    return ([["solve", *at, "--hour", h] for h in (hours[0], mid, hours[-1])]
            + [["sensitivity", *sens],
               ["sensitivity", *sens, "--params", "params.json"]]
            + [["bound", *sens, "--method", m]
               for m in ("holder", "holder-literal", "sample")]
            + [["run-day", *at, *box, "--format", fmt,
                "--out", f"results.{fmt}"] for fmt in ("csv", "json")])


# run once, after the days: `synth` writes the seed-42 moderate day, and a
# `run-day` on two threads reads it back, so its export has the hash of
# that day's serial `results.csv`
CLI_ONCE = (
    ["synth", "--day", "moderate", "--seed", "42", "--out", "synth.csv"],
    ["run-day", "--profile", "synth.csv", "--mask", CLI_MASK,
     "--alpha", str(ALPHA), "--samples", "300", "--threads", "2",
     "--format", "csv", "--out", "threaded.csv"],
    ["validate"],
)


def cli_lines(rows):
    from gridbase import cli
    from gridbase import scenario as sc

    def printed(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            sys.exit(f"gridbase {' '.join(argv)} exited {code}")
        return hashlib.sha256(out.getvalue().encode()).hexdigest()

    def run(key, table):
        for argv in table:
            yield f"{printed(argv)}  {key} {' '.join(argv)}"
            if "--out" in argv:
                yield f"{_file_digest(argv[-1])}  {key} {argv[-1]}"

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("params.json", "w", encoding="utf-8") as fh:
                json.dump(CLI_PARAMS, fh)
            for key, day in days(rows):
                sc.write_profile(day.profile, "profile.csv")
                yield from run(key, cli_table(day))
            yield from run("-", CLI_ONCE)
        finally:
            os.chdir(home)


def compare(base_path, head_path):
    """Print the hours certified in BASE and lost in HEAD, the first
    `MOVED_SHOWN` other differing lines in sorted order, and the count of
    those; 1 if any hour was lost, else 0."""
    def outcomes(path):
        with open(path, encoding="utf-8") as fh:
            return {" ".join(f[:2]): f for f in map(str.split, fh)}

    base, head = outcomes(base_path), outcomes(head_path)
    now = {k: head[k][2] if k in head else "missing" for k in base}
    lost = {k: now[k] for k, f in base.items()
            if f[2] == "certified" != now[k]}
    changed = {k for k in base.keys() | head.keys()
               if base.get(k) != head.get(k)}
    moved = sorted(changed - lost.keys())
    for k, outcome in lost.items():
        print(f"lost: {k}  {outcome}")
    for k in moved[:MOVED_SHOWN]:
        print(f"moved: {k}")
    print(f"{len(lost)} certified hours lost; "
          f"{len(moved)} other lines differ")
    return 1 if lost else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("corpus", choices=[*CORPORA, "compare"])
    ap.add_argument("listings", nargs="*", help="BASE HEAD, for compare")
    ap.add_argument("--root", default=ROOT)
    args = ap.parse_args(argv)
    if len(args.listings) != (2 if args.corpus == "compare" else 0):
        ap.error("compare takes BASE and HEAD; a corpus takes no listing")
    if args.corpus == "compare":
        return compare(*args.listings)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    fmt, rows = CORPORA[args.corpus]
    printer = {"fixtures": fixture_lines, "outcomes": outcome_lines,
               "cli": cli_lines}[fmt]
    for line in printer(rows):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
