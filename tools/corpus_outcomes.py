"""Print the outcome of every hour of the 2,688-hour solver corpus.

    python3 tools/corpus_outcomes.py [--root CHECKOUT]

The corpus is the days of `perfbench/bench.py`'s `sweep_days` for
`day-toa` at seeds 42 and 20261017, sweeps 0-39 (1,680 hours), and for
`zone-sweep` at seeds 42, 7 and 20261017, sweeps 0-3 (1,008 hours). Each
hour is solved alone at solver seed 0; a certified hour then builds its
operator for the mask T_oa at alpha 0.05. One line per hour:

    <key> h<hour>  <outcome>  <repr(J0)>  <shift>  <blocks>  <anchor>

<key> is <workload>/<seed>/<sweep>/<day>. The outcome is `certified` or
the class of the error that the solve or the operator build raised;
<shift> is the first 16 hex digits of the sha256 of the operator's
`shift_matrix` bytes, and <blocks> the same of the certified anchor's
`Scaling.derivatives(x0)`: all seven arrays of `ModelDerivatives`, in
field order. <shift> covers the T_oa column only; <blocks> covers every
w column and every second-order entry, and x0 only through them.
<anchor> is the same of the anchor's `x0.to_vector()` and `lam` bytes,
so it covers the point and its multipliers themselves. J0, <shift>,
<blocks> and <anchor> read `-` where the hour has none.

`--root` (default: the checkout holding this script) names the checkout
whose `src` and `perfbench` are imported, so two checkouts compare with
`diff`, as with `fixture_hashes.py`:

    python3 tools/corpus_outcomes.py --root ../parent > parent.txt
    python3 tools/corpus_outcomes.py > change.txt
    diff parent.txt change.txt

Bytes are identical only under the same BLAS thread configuration (see
README), so run both sides with the same environment.
"""

import argparse
import dataclasses
import hashlib
import os
import sys

CORPUS = (("day-toa", (42, 20261017), range(40)),
          ("zone-sweep", (42, 7, 20261017), range(4)))
MASK = ("T_oa",)
ALPHA = 0.05


def _digest(*arrays):
    """The first 16 hex digits of the sha256 of the arrays' bytes."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    from bench import sweep_days
    from gridbase import hvac_model as hm
    from gridbase import sensitivity as sn
    from gridbase.baseline_opt import SolverConfig, solve_baseline
    from gridbase.errors import GridbaseError

    cfg = SolverConfig(rng_seed=0)
    for workload, seeds, sweeps in CORPUS:
        for seed in seeds:
            for sweep in sweeps:
                for day in sweep_days(workload, seed, sweep):
                    for hour in day.profile.hours:
                        w = hm.ExogenousVector(t_oa=hour.t_oa,
                                               zones=hour.zones,
                                               params=day.params)
                        outcome, j0 = "certified", "-"
                        shift = blocks = anchor = "-"
                        try:
                            kkt = solve_baseline(w, cfg)
                            j0 = repr(kkt.j0)
                            anchor = _digest(kkt.x0.to_vector(), kkt.lam)
                            d = kkt.scaling.derivatives(kkt.x0.to_vector())
                            blocks = _digest(*(getattr(d, f.name) for f in
                                               dataclasses.fields(d)))
                            op = sn.build_operator(
                                kkt, w, sn.uncertainty_spec(w, MASK, ALPHA))
                            shift = _digest(op.shift_matrix)
                        except (GridbaseError, ValueError) as exc:
                            outcome = type(exc).__name__
                        print(f"{workload}/{seed}/{sweep}/{day.key} "
                              f"h{hour.hour_index}  {outcome}  {j0}  "
                              f"{shift}  {blocks}  {anchor}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
