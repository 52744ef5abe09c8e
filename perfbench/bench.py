"""Workloads, checks, timed loops and the report of the run_day benchmark.

Imported by run.py after it has put the checkout's `src` on `sys.path`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy
import scipy

from gridbase import hvac_model as hm
from gridbase import kernels
from gridbase import scenario as sc
from gridbase.errors import GridbaseError

import tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 42
ALPHA = 0.05
WIDE_MASK = ("T_oa", "Q_zone_1", "Q_zone_2", "Q_zone_3", "Q_zone_4",
             "Q_zone_5", "c_f_1", "c_f_2", "c_f_3", "c_f_4", "alpha_el",
             "alpha_ng")
# zone counts and mask per workload; every workload runs all three day
# types. BENCHMARK.json says why each workload exists. zone-sweep is left
# out of BENCHMARK.json: its failed hours are few and cost about ten
# certified ones, so across seeds its figures spread by 13-36% (IQR over
# median) in 20-25 s runs on a 2-core machine. It still runs by name and
# in `all`, with its reference check.
WORKLOADS = {
    "day-toa": ((5,), ("T_oa",)),
    "day-wide": ((5,), WIDE_MASK),
    "zone-sweep": ((1, 2, 3, 8), ("T_oa",)),
}
SEED_STRIDE = 100_003      # the day seed of sweep k is seed + k * SEED_STRIDE
SETUP_PROBES = 3
# a zone-sweep sweep takes 10-15 s on a 2-core machine and its failed
# hours are few and costly, so one sweep is too little to average over
MIN_SWEEPS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
SOLVER_ERRORS = ("InfeasibleHourError", "NoConvergenceError")

# Reference tolerances. Lazy multistart moved j0 by <= 9e-13 relative; a
# different local optimum moves it by far more than 1e-9. K and the bounds
# are differences and finite-difference curvatures of J, so they get a
# looser relative tolerance plus an absolute floor tied to j0.
RTOL_J0 = 1e-9
RTOL_DERIVED = 1e-6
ATOL_DERIVED_PER_J0 = 1e-9
FIELDS = ("j0", "k_plus", "k_minus", "beta_holder", "beta_sample")


class Day:
    """One run_day call: a synthetic profile with its parameters."""

    def __init__(self, n_zones, day_type, seed, mask, n_hours=7):
        self.key = f"n{n_zones}-{day_type}-s{seed}"
        self.n_zones, self.day_type, self.seed = n_zones, day_type, seed
        base = hm.HvacParameters()
        # the other zone counts scale the design flow with the zone count
        self.params = base if n_zones == 5 else dataclasses.replace(
            base, zone_count=n_zones, m_design=base.m_design * n_zones / 5)
        self.profile = sc.synth_profile(day_type, seed, n_zones=n_zones,
                                        n_hours=n_hours)
        self.mask = list(mask)

    def run(self):
        return sc.run_day(self.profile, self.mask, ALPHA, params=self.params)


def sweep_days(workload, seed, k, n_hours=7):
    zones, mask = WORKLOADS[workload]
    return [Day(n, d, seed + k * SEED_STRIDE, mask, n_hours)
            for n in zones for d in sc.DAY_TYPES]


def spec_units():
    with open(SPEC) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def hour_record(r):
    error = None
    if not math.isfinite(r.j0):
        error = next((w.split(":", 1)[0] for w in r.warnings
                      if w.split(":", 1)[0].endswith("Error")), "unknown")
    return {"hour": r.hour_index, "error": error,
            **{f: None if error else getattr(r, f) for f in FIELDS}}


def invariant_problems(day, results):
    """Checks that hold for any seed: one result per hour, in order; a
    failed hour names its error; a certified hour has finite outputs, a
    positive cost and bound, and a sampled bound no smaller than |K| at
    the signed pair, which is one of the sampled vertices."""
    if [r.hour_index for r in results] != [h.hour_index
                                           for h in day.profile.hours]:
        return [f"{day.key}: hours out of order or missing"]
    out = []
    for r in results:
        rec = hour_record(r)
        tag = f"{day.key} h{r.hour_index}"
        if rec["error"] == "unknown":
            out.append(f"{tag}: failed without naming an error")
        elif rec["error"] is not None:
            continue
        elif not all(math.isfinite(rec[f]) for f in FIELDS):
            out.append(f"{tag}: non-finite output")
        elif r.j0 <= 0 or r.beta_holder < 0:
            out.append(f"{tag}: non-positive cost or negative bound")
        elif r.beta_sample < (max(abs(r.k_plus), abs(r.k_minus))
                              - ATOL_DERIVED_PER_J0 * r.j0):
            out.append(f"{tag}: sampled bound {r.beta_sample!r} is below "
                       f"|K| at the signed pair")
    return out


def compare_reference(ref_hours, results, key):
    """Return (mismatches, newly certified hours, failure-type changes).

    A reference failure that now certifies is progress, not a mismatch."""
    mismatches, newly, retyped = [], [], []
    got = {r.hour_index: hour_record(r) for r in results}
    for ref in ref_hours:
        tag = f"{key} h{ref['hour']}"
        cur = got.get(ref["hour"])
        if cur is None:
            mismatches.append(f"{tag}: missing")
        elif ref["error"] is not None:
            if cur["error"] is None:
                newly.append(tag)
            elif cur["error"] != ref["error"]:
                retyped.append(f"{tag}: {ref['error']} -> {cur['error']}")
        elif cur["error"] is not None:
            mismatches.append(f"{tag}: certified in the reference, now "
                              f"{cur['error']}")
        else:
            for f in FIELDS:
                a, b = cur[f], ref[f]
                tol = (RTOL_J0 * abs(b) if f == "j0" else
                       RTOL_DERIVED * abs(b) + ATOL_DERIVED_PER_J0 * ref["j0"])
                if abs(a - b) > tol:
                    mismatches.append(f"{tag}: {f} {a!r} != reference {b!r}")
    return mismatches, newly, retyped


def export_bytes(results, name):
    path = os.path.join(OUT_DIR, name)
    sc.export_results(results, path)
    with open(path, "rb") as fh:
        return fh.read()


def solver_failures(results):
    counts = {}
    for r in results:
        err = hour_record(r)["error"]
        if err in SOLVER_ERRORS:
            counts[err] = counts.get(err, 0) + 1
    return counts


def add_counts(total, more):
    for k, v in more.items():
        total[k] = total.get(k, 0) + v


# ---------------------------------------------------------------------------
# setup probes and environment
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def setup_probe(workload, seed):
    """Wall seconds of a fresh interpreter that imports the CLI and the
    scenario module and builds the workload's first sweep of profiles."""
    zones, _ = WORKLOADS[workload]
    code = ("import gridbase.cli\n"
            "import gridbase.scenario as sc\n"
            f"for n in {zones!r}:\n"
            "    for d in sc.DAY_TYPES:\n"
            f"        sc.synth_profile(d, {seed}, n_zones=n)\n")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                   check=True)
    return time.perf_counter() - t0


def import_probe():
    """Self import seconds of `gridbase.cli` and `gridbase.scenario` in a
    fresh interpreter, summed by top-level package."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import gridbase.cli, gridbase.scenario"],
        env=_child_env(), cwd=ROOT, check=True, capture_output=True,
        text=True)
    groups = {"gridbase": 0.0, "scipy": 0.0, "numpy": 0.0, "other": 0.0}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        top = module.strip().split(".")[0]
        groups[top if top in groups else "other"] += int(self_us) * 1e-6
    return groups


def git_commit():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (proc.stdout.strip() or None) if proc.returncode == 0 else None


def environment(args, workload, workers):
    return {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "kernels_backend": kernels.BACKEND,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "run_day_workers": workers,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def reference_pass(workload, reference, tiny, problems, notes):
    """Run the reference days and compare them with the recorded outputs.

    Returns the determinism day (the first reference day with a failed
    hour, else the first day) and the CSV bytes of its results."""
    ref_days = reference["workloads"][workload]
    chosen = next((d for d in ref_days
                   if any(h["error"] for h in d["hours"])), ref_days[0])
    _, mask = WORKLOADS[workload]
    det_day = blob = None
    for rd in ([chosen] if tiny else ref_days):
        day = Day(rd["n_zones"], rd["day_type"], rd["seed"], mask)
        results = day.run()
        problems += invariant_problems(day, results)
        mism, newly, retyped = compare_reference(rd["hours"], results,
                                                 day.key)
        problems += mism
        notes += [f"newly certified: {t}" for t in newly]
        notes += [f"failure type changed: {t}" for t in retyped]
        if rd is chosen:
            det_day = day
            blob = export_bytes(results, f"{workload}-reference.csv")
    return det_day, blob


def determinism_check(workload, day, blob, problems):
    """Repeat one day untraced and traced; every CSV must equal `blob`.
    Returns the number of threads the traced repeat ran hours on."""
    tr = tracer.Tracer()
    for mode, t in (("untraced", None), ("traced", tr)):
        if timed_day(day, t, f"{workload}-repeat.csv")[2] != blob:
            problems.append(f"{day.key}: {mode} repeat CSV differs")
    return tracer.thread_count(tr.spans)


def _keep_going(start, sweeps, args):
    """Whether to start another sweep: always up to MIN_SWEEPS, then if at
    least half of it fits in --seconds. A run measures whole sweeps."""
    if args.tiny:
        return False
    elapsed = time.perf_counter() - start
    return (sweeps < MIN_SWEEPS
            or elapsed * (sweeps + 0.5) / sweeps <= args.seconds)


def timed_day(day, tr, name):
    """Run one day, traced when `tr` is a Tracer; return its results, the
    run_day wall seconds and the CSV bytes of the results."""
    with tr.installed() if tr else contextlib.nullcontext():
        t0 = time.perf_counter()
        results = day.run()
        dt = time.perf_counter() - t0
        return results, dt, export_bytes(results, name)


def timed_untraced(workload, args, n_hours, problems, notes):
    times, hours, certified, failed_days, sweeps = [], 0, 0, 0, 0
    start = time.perf_counter()
    while sweeps == 0 or _keep_going(start, sweeps, args):
        for day in sweep_days(workload, args.seed, sweeps, n_hours):
            hours += len(day.profile.hours)
            t0 = time.perf_counter()
            try:
                results = day.run()
            except GridbaseError as exc:
                times.append(time.perf_counter() - t0)
                failed_days += 1
                notes.append(f"{day.key}: run_day raised {exc}")
                continue
            times.append(time.perf_counter() - t0)
            certified += sum(math.isfinite(r.j0) for r in results)
            problems += invariant_problems(day, results)
        sweeps += 1
    return times, hours, certified, failed_days, sweeps


def timed_traced(workload, args, n_hours, problems, notes):
    """Run every day untraced and traced, alternating which goes first;
    the two CSVs must match. Returns the tracer and the totals."""
    tr = tracer.Tracer()
    wall = {False: 0.0, True: 0.0}
    days = certified = failed_days = sweeps = 0
    failures = {}
    start = time.perf_counter()
    while sweeps == 0 or _keep_going(start, sweeps, args):
        for day in sweep_days(workload, args.seed, sweeps, n_hours):
            blobs = {}
            for traced in ((False, True) if days % 2 == 0 else (True, False)):
                try:
                    results, dt, blobs[traced] = timed_day(
                        day, tr if traced else None,
                        f"{workload}-traced{int(traced)}.csv")
                except GridbaseError as exc:
                    failed_days += 1
                    notes.append(f"{day.key}: run_day raised {exc}")
                    break
                wall[traced] += dt
                if traced:
                    certified += sum(math.isfinite(r.j0) for r in results)
                    add_counts(failures, solver_failures(results))
                    problems += invariant_problems(day, results)
            if len(blobs) == 2 and blobs[True] != blobs[False]:
                problems.append(f"{day.key}: traced CSV differs from "
                                f"untraced")
            days += 1
        sweeps += 1
    return tr, days, certified, failed_days, wall, failures, sweeps


def percentile_tail(times):
    """(q, value) of the highest whole percentile that has at least ten
    samples above it, or None with fewer than 20 samples."""
    n = len(times)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return q, statistics.quantiles(times, n=100, method="inclusive")[q - 1]


def end_to_end(workload, args, n_hours, setups, problems, notes):
    """Untraced timed loop. Returns the metrics, their sample counts,
    extra report rows, and the attempted and failed run_day calls."""
    times, hours, certified, failed_days, sweeps = timed_untraced(
        workload, args, n_hours, problems, notes)
    metrics = {
        "setup_s": statistics.median(setups),
        "day_s_p50": statistics.median(times),
        "certified_hours_per_s": certified / sum(times),
        "certified_hour_share": certified / hours,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"setup_s": len(setups), "day_s_p50": len(times),
              "certified_hours_per_s": hours, "certified_hour_share": hours,
              "peak_rss_mb": 1}
    extra = [("failed_hour_share", (hours - certified) / hours, "ratio",
              hours)]
    tail = percentile_tail(times)
    if tail is not None:
        extra.append((f"day_s_p{tail[0]}", tail[1], "s", len(times)))
    notes.append(f"{sweeps} sweeps, {len(times)} days, {hours} hours")
    return metrics, counts, extra, len(times), failed_days


def per_layer(workload, args, n_hours, imports, problems, notes):
    """Traced timed loop; returns the same as `end_to_end`."""
    tr, days, certified, failed_days, wall, failures, sweeps = timed_traced(
        workload, args, n_hours, problems, notes)
    metrics, worst, errors, top = tracer.analyze(tr.spans, days, certified)
    day_wall = sum(s.t1 - s.t0 for s in tr.spans
                   if s.name == "scenario.run_day")
    if worst > 1e-9 * max(day_wall, 1.0):
        problems.append(f"per-layer times miss run_day wall time by "
                        f"{worst:.3g} s")
    traced_failures = {e: v for (n, e), v in errors.items()
                       if n == "baseline_opt.solve_baseline"}
    if traced_failures != failures:
        problems.append(f"traced solve failures {traced_failures} != "
                        f"failed hours {failures}")
    metrics["trace.overhead_s"] = (wall[True] - wall[False]) / days
    metrics["trace.overhead_share"] = (wall[True] - wall[False]) / wall[False]
    for group in ("gridbase", "scipy", "numpy", "other"):
        metrics[f"import.{group}_s"] = statistics.median(
            p[group] for p in imports)

    day_s = metrics["scenario.run_day.wall_s"]
    stages = ("baseline_opt.solve_baseline", "sensitivity.build_operator",
              "sensitivity.signed_shift_pair", "sensitivity.quadratic_model",
              "sensitivity.sample_bound")
    notes.append(f"{sweeps} sweeps, {days} days traced; solver failures "
                 f"{failures or 'none'}; untraced {wall[False]:.4f} s, "
                 f"traced {wall[True]:.4f} s")
    notes.append("share of run_day wall: " + ", ".join(
        f"{k} {metrics[k + '.s'] / day_s:.1%}" for k in stages) +
        f", residual {metrics['scenario.run_day.self_s'] / day_s:.1%}")
    notes.append("largest self times: " + ", ".join(
        f"{name} {v / day_s:.1%}" for name, v in top[:5]))
    return metrics, dict.fromkeys(metrics, days), [], days, failed_days


def run_workload(workload, args, reference):
    os.makedirs(OUT_DIR, exist_ok=True)
    e2e_units, layer_units = spec_units()
    units = layer_units if args.trace else e2e_units
    problems, notes = [], []
    n_hours = 2 if args.tiny else 7
    probes = 1 if args.tiny else SETUP_PROBES

    if args.trace:
        setup = [import_probe() for _ in range(probes)]
    else:
        setup = [setup_probe(workload, args.seed) for _ in range(probes)]
    det_day, blob = reference_pass(workload, reference, args.tiny, problems,
                                   notes)
    workers = determinism_check(workload, det_day, blob, problems)
    measure = per_layer if args.trace else end_to_end
    metrics, counts, extra, attempted, failed = measure(
        workload, args, n_hours, setup, problems, notes)

    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite metrics: {bad}")
    return {
        "env": environment(args, workload, workers),
        "table": [(k, v, units[k], counts[k]) for k, v in metrics.items()]
        + extra,
        "problems": problems, "notes": notes,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "attempted": attempted, "failed": failed,
    }


def record_reference():
    out = {"seed": DEFAULT_SEED, "alpha": ALPHA, "workloads": {}}
    for workload in WORKLOADS:
        out["workloads"][workload] = [
            {"n_zones": day.n_zones, "day_type": day.day_type,
             "seed": day.seed,
             "hours": [hour_record(r) for r in day.run()]}
            for day in sweep_days(workload, DEFAULT_SEED, 0)]
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def print_report(workload, res):
    print(f"== {workload}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"{'metric':46s} {'value':>14s} {'unit':8s} {'n':>6s}")
    for name, value, unit, n in res["table"]:
        print(f"{name:46s} {value:14.6g} {unit:8s} {n:6d}")
    for note in res["notes"]:
        print(f"note: {note}")
    for p in res["problems"]:
        print(f"FAIL: {p}")
    print(f"checks: {'ok' if not res['problems'] else 'FAILED'}", flush=True)


def main(args):
    if args.record_reference:
        record_reference()
        return 0
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args, reference)
        print_report(name, results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    correct = not any(r["problems"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1
