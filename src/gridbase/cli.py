"""Command-line surface: reproducible solves, sensitivity runs, and
self-validation. Exit codes: 0 success, 1 domain error (infeasible hour,
rank deficiency, ...), 2 usage or parse error."""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from . import hvac_model as hm
from . import numkit
from . import scenario as sc
from . import sensitivity as sn
from .baseline_opt import KktPoint, SolverConfig, solve_baseline, verify_kkt
from .errors import GridbaseError, ProfileParseError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _emit(doc: dict, params: hm.HvacParameters | None = None) -> None:
    """Print `doc` as JSON with the package version and, when given, the
    run's parameters; numpy scalars and arrays as plain numbers."""
    doc = {**doc, "version": __version__}
    if params is not None:
        doc["parameters"] = hm.dump_parameters(params)
    json.dump(doc, sys.stdout, indent=2, sort_keys=True,
              default=lambda obj: obj.tolist())
    sys.stdout.write("\n")


def _load_params(path: str | None) -> hm.HvacParameters:
    path = path or os.environ.get("GRIDBASE_PARAMS")
    if path is None:
        return hm.HvacParameters()
    return hm.load_parameters(path)


def _load_hour(args, params) -> hm.ExogenousVector:
    profile = sc.load_profile(args.profile, params)
    for h in profile.hours:
        if h.hour_index == args.hour:
            return hm.ExogenousVector(t_oa=h.t_oa, zones=h.zones,
                                      params=params)
    raise ProfileParseError(
        f"hour {args.hour} not present in {args.profile}")


def _int_at_least(low: int):
    """argparse type of an integer >= low (a count >= 1, a seed >= 0), so
    a bad one stops before any solve."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return int(text)
    return integer


def _check_out(path: str) -> None:
    """Refuse an --out that is a directory, or whose directory is missing
    or not writable, before any work."""
    out_dir = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        raise ValueError(f"--out is a directory: {path}")
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise ValueError(f"no writable directory for --out: {out_dir}")


def _mask_list(text: str) -> list:
    # an empty mask (an unset shell variable) would give all-zero bounds
    labels = [s.strip() for s in text.split(",") if s.strip()]
    if not labels:
        raise ValueError(f"--mask names no label: {text!r}")
    return labels


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _solve_doc(kkt: KktPoint, w: hm.ExogenousVector) -> dict:
    """A solved hour: its optimum, multipliers, certificate and settings."""
    labels = hm.layout(w.zones.count).labels
    return {
        "J0_W": kkt.j0,
        "x0": {
            "T_sa_C": kkt.x0.t_sa,
            "m_oa_kg_s": kkt.x0.m_oa,
            "m_sa_kg_s": list(kkt.x0.m_sa),
            "q_h_W": kkt.x0.q_h,
            "q_c_W": kkt.x0.q_c,
        },
        "lambda": list(kkt.lam),
        "residuals": {
            "stationarity": kkt.stationarity_residual,
            "complementarity": kkt.complementarity_residual,
            "feasibility": kkt.feasibility_violation,
        },
        "active_set": [labels[i] for i in kkt.active_set],
        "strict_complementarity_ok": kkt.strict_complementarity_ok,
        "seed": kkt.seed,
        "prng": kkt.prng,
        "config": {
            "kkt_tol": SolverConfig.kkt_tol,
            "feas_tol": SolverConfig.feas_tol,
            "act_tol": SolverConfig.act_tol,
            "multistart_count": SolverConfig.multistart_count,
            "max_iterations": SolverConfig.max_iterations,
        },
    }


def _sensitivity_doc(op: sn.SensitivityOperator, w: hm.ExogenousVector,
                     spec: sn.UncertaintySpec, n_samples: int,
                     seed: int) -> dict:
    """Every bound, the quadratic model and the signed pair at one anchor."""
    qm = sn.quadratic_model(op, w, spec)
    b_half = sn.holder_bound(qm, spec, "holder_half")
    b_lit = sn.holder_bound(qm, spec, "holder_paper_literal")
    b_mc = sn.sample_bound(op, w, spec, n_samples, seed)
    pair = sn.signed_shift_pair(op, w, spec)
    doc = {
        "anchor": {
            "J0_W": op.anchor.j0,
            "stationarity_residual": op.anchor.stationarity_residual,
            "complementarity_residual": op.anchor.complementarity_residual,
            "feasibility_violation": op.anchor.feasibility_violation,
            "strict_complementarity_ok": op.anchor.strict_complementarity_ok,
        },
        "mask": list(spec.mask),
        "alpha": spec.alpha,
        "Delta": list(spec.masked_delta),
        "gradient_K": list(qm.g),
        "spectral_norm_H_K": numkit.spectral_norm(qm.H_K),
        "beta": {
            "holder_half": b_half.beta,
            "holder_paper_literal": b_lit.beta,
            "monte_carlo": b_mc.beta,
        },
        "monte_carlo": {
            "samples": b_mc.samples,
            "seed": b_mc.seed,
            "argmax_dw": list(b_mc.argmax_dw),
        },
        "K_plus": pair["K_plus"],
        "K_minus": pair["K_minus"],
        # build_operator raises RankDeficientError on any other outcome
        "rank_ok": True,
    }
    if not op.anchor.strict_complementarity_ok:
        doc["warning"] = ("anchor is degenerate (a constraint is active "
                          "with zero multiplier); the active set may not "
                          "be stable under perturbation")
    return doc


def _cmd_solve(args) -> int:
    params = _load_params(args.params)
    w = _load_hour(args, params)
    kkt = solve_baseline(w, SolverConfig(rng_seed=args.seed))
    _emit(_solve_doc(kkt, w), params)
    return EXIT_OK


def _sensitivity_objects(args):
    params = _load_params(args.params)
    w = _load_hour(args, params)
    spec = sn.uncertainty_spec(w, _mask_list(args.mask), args.alpha)
    kkt = solve_baseline(w, SolverConfig(rng_seed=args.seed))
    op = sn.build_operator(kkt, w, spec)
    return w, kkt, spec, op


def _cmd_sensitivity(args) -> int:
    w, kkt, spec, op = _sensitivity_objects(args)
    _emit(_sensitivity_doc(op, w, spec, args.samples, args.seed), w.params)
    return EXIT_OK


def _cmd_bound(args) -> int:
    w, kkt, spec, op = _sensitivity_objects(args)
    if args.method == "sample":
        result = sn.sample_bound(op, w, spec, args.samples, args.seed)
    else:
        qm = sn.quadratic_model(op, w, spec)
        method = ("holder_half" if args.method == "holder"
                  else "holder_paper_literal")
        result = sn.holder_bound(qm, spec, method)
    _emit({
        "beta_W": result.beta,
        "method": result.method,
        "samples": result.samples,
        "seed": result.seed,
        "argmax_dw": (None if result.argmax_dw is None
                      else list(result.argmax_dw)),
        "mask": list(spec.mask),
        "alpha": spec.alpha,
        "J0_W": kkt.j0,
    }, w.params)
    return EXIT_OK


def _cmd_run_day(args) -> int:
    _check_out(args.out)      # before the day is solved, not after
    params = _load_params(args.params)
    profile = sc.load_profile(args.profile, params)
    mask = _mask_list(args.mask)
    with ThreadPoolExecutor(args.threads) as pool:
        results = sc.run_day(profile, mask, args.alpha,
                             params=params, n_samples=args.samples,
                             seed=args.seed, mapper=pool.map)
    sc.export_results(results, args.out, args.format)
    _emit({
        "profile": args.profile,
        "label": profile.label,
        "hours": len(results),
        "failed_hours": sum(1 for r in results if r.j0 != r.j0),
        "mask": mask,
        "alpha": args.alpha,
        "seed": args.seed,
        "samples": args.samples,
        "out": args.out,
        "format": args.format,
    }, params)
    return EXIT_OK


def _cmd_synth(args) -> int:
    _check_out(args.out)
    profile = sc.synth_profile(args.day, args.seed)
    sc.write_profile(profile, args.out)
    _emit({
        "day": args.day,
        "seed": args.seed,
        "hours": len(profile.hours),
        "out": args.out,
    })
    return EXIT_OK


def _cmd_validate(args) -> int:
    params = _load_params(args.params)
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # equipment-curve identities at rated conditions: the constants
    # describe the built-in curves, not those of a --params file
    nominal = hm.HvacParameters()
    c = nominal.c_f
    f_pl1 = c[0] + c[1] + c[2] + c[3]
    check("fan part-load curve at design flow",
          abs(f_pl1 - 0.9898) < 1e-12, f"f_pl(1) = {f_pl1!r}")
    b = nominal.c_b
    check("boiler efficiency curve at rated load",
          abs(b[0] + b[1] + b[2] - 1.0) < 1e-12)
    g = nominal.c_g
    check("chiller generation curve at rated load",
          abs(g[0] + g[1] + g[2] - 1.00003) < 1e-12)

    # the five zones cycled to zone_count, with the loads and ventilation
    # minima scaled so the hour's totals stay those of five zones
    n = params.zone_count
    q = np.resize([-5200.0, -4100.0, -6300.0, -3800.0, -4700.0], n) * (5 / n)
    tsp = np.resize([23.0, 23.5, 22.5, 24.0, 23.0], n)
    v = np.resize([0.10, 0.08, 0.12, 0.07, 0.09], n) * (5 / n)
    w = hm.make_exogenous(34.0, q, tsp, v, params)
    kkt = solve_baseline(w)
    check("baseline KKT residuals within tolerance",
          verify_kkt(kkt.x0, kkt.lam, w).certified)

    spec = sn.uncertainty_spec(w, ["T_oa", "Q_zone_1", "c_f_2"], 0.01)
    op = sn.build_operator(kkt, w, spec)
    err = sn.verify_operator_fd(kkt, w, spec, n_probes=50, seed=0)
    check("KKT-map Jacobians match finite differences", err <= 1e-6,
          f"max relative error {err:.3e}")

    qm = sn.quadratic_model(op, w, spec)
    b_half = sn.holder_bound(qm, spec, "holder_half")
    b_lit = sn.holder_bound(qm, spec, "holder_paper_literal")
    rng = np.random.default_rng(0)
    dws = rng.uniform(-1.0, 1.0, (20000, len(spec.indices))) \
        * spec.masked_delta[None, :]
    qmax = np.abs(dws @ qm.g + 0.5 * np.einsum("ij,jk,ik->i", dws, qm.H_K,
                                               dws)).max()
    check("analytic bound dominates quadratic-model samples",
          qmax <= b_half.beta * (1 + 1e-9),
          f"sampled {qmax:.6g} <= bound {b_half.beta:.6g}")
    mc = sn.sample_bound(op, w, spec, 20000, seed=1)
    check("analytic bound dominates sampled true cost change",
          mc.beta <= b_lit.beta * (1 + 1e-9),
          f"sampled {mc.beta:.6g} <= bound {b_lit.beta:.6g}")

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        print(line)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridbase",
        description="Hourly optimal-baseline HVAC forecaster with "
                    "KKT-based sensitivity bounds.",
        epilog="Mask labels are the exogenous registry labels, e.g. "
               "T_oa, Q_zone_3, T_sp_1, m_oa_min_2, c_f_1..c_f_4, "
               "c_b_1..c_b_3, c_g_1..c_g_3, delta_P, m_design, "
               "Q_b_rated, Q_e_rated, alpha_el, alpha_ng. "
               "GRIDBASE_PARAMS may point at a default parameter file.")
    parser.add_argument("--version", action="version",
                        version=f"gridbase {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--params", default=None,
                       help="JSON parameter file (default: GRIDBASE_PARAMS "
                            "or built-in nominal values)")

    def add_common(p):
        add_params(p)
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    p = sub.add_parser("solve", help="solve one profile hour")
    p.add_argument("--profile", required=True)
    p.add_argument("--hour", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    def add_sens_flags(p):
        p.add_argument("--profile", required=True)
        p.add_argument("--hour", type=int, required=True)
        p.add_argument("--mask", required=True,
                       help="comma-separated exogenous labels")
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--samples", type=_int_at_least(1),
                       default=sc.DEFAULT_SAMPLES)
        add_common(p)

    p = sub.add_parser("sensitivity", help="sensitivity report for one hour")
    add_sens_flags(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("bound", help="uncertainty bound for one hour")
    add_sens_flags(p)
    p.add_argument("--method", choices=("holder", "holder-literal", "sample"),
                   default="holder")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("run-day", help="solve and analyze a whole profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--samples", type=_int_at_least(1),
                   default=sc.DEFAULT_SAMPLES)
    p.add_argument("--threads", type=_int_at_least(1), default=1,
                   help="worker threads (default: 1)")
    add_common(p)
    p.set_defaults(func=_cmd_run_day)

    p = sub.add_parser("synth", help="write a synthetic day profile")
    p.add_argument("--day", choices=sc.DAY_TYPES, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("validate",
                       help="run the self-check suite (fixed seeds)")
    add_params(p)
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (FileNotFoundError, ProfileParseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GridbaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
