"""In-memory span tracer that wraps gridbase's public functions from outside.

`Tracer.installed()` replaces each function listed in `BOUNDARIES` with a
wrapper that records a span (name, layer, start, end, parent, thread,
day, hour) and restores the originals on exit. Spans stay in memory until
`analyze` turns them into per-layer figures.

`run_day` runs hours on a thread pool, so spans of different hours
overlap in wall time. To make the per-layer figures add up to the
`run_day` wall time, every instant inside a `run_day` call is split
equally among the threads that are inside a traced call at that instant,
and each thread's share goes to its innermost open span. Under the
interpreter lock only one of those threads runs at a time, so an equal
split is the natural estimate. An instant in which no thread is inside a
traced call goes to `run_day` itself: that residual is the pool and
orchestration time, and it equals `run_day`'s duration minus the part of
it that child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

from gridbase import baseline_opt, hvac_model, kernels, numkit, scenario
from gridbase import sensitivity


def _objective_batch_info(args, kwargs, result):
    X, W = args[0], args[1]
    return {"rows": int(X.shape[0]),
            "bytes": int(X.nbytes + W.nbytes + result.nbytes)}


def _sample_bound_info(args, kwargs, result):
    n = kwargs["n_samples"] if "n_samples" in kwargs else args[3]
    return {"samples": int(n)}


# (module holding the name that callers resolve, attribute, span name,
# layer, hook). scenario binds solve_baseline by name at import and
# baseline_opt binds scipy's minimize and nnls the same way, so those are
# wrapped on the importing module. Every other call resolves through the
# attribute of its own module, which is also where calls inside that
# module look the name up.
BOUNDARIES = (
    (scenario, "run_day", "scenario.run_day", "scenario", None),
    (scenario, "export_results", "scenario.export_results", "scenario", None),
    (scenario, "solve_baseline", "baseline_opt.solve_baseline",
     "baseline_opt", None),
    (baseline_opt, "verify_kkt", "baseline_opt.verify_kkt", "baseline_opt",
     None),
    (baseline_opt, "minimize", "baseline_opt.minimize", "scipy", None),
    (baseline_opt, "scipy_nnls", "baseline_opt.nnls", "scipy", None),
    (hvac_model, "first_order_flat", "hvac_model.first_order_flat",
     "hvac_model", None),
    (hvac_model, "constraints_flat", "hvac_model.constraints_flat",
     "hvac_model", None),
    (hvac_model, "derivatives_flat", "hvac_model.derivatives_flat",
     "hvac_model", None),
    (hvac_model, "objective_flat", "hvac_model.objective_flat",
     "hvac_model", None),
    (sensitivity, "uncertainty_spec", "sensitivity.uncertainty_spec",
     "sensitivity", None),
    (sensitivity, "build_operator", "sensitivity.build_operator",
     "sensitivity", None),
    (sensitivity, "verify_operator_fd", "sensitivity.verify_operator_fd",
     "sensitivity", None),
    (sensitivity, "signed_shift_pair", "sensitivity.signed_shift_pair",
     "sensitivity", None),
    (sensitivity, "quadratic_model", "sensitivity.quadratic_model",
     "sensitivity", None),
    (sensitivity, "delta_cost", "sensitivity.delta_cost", "sensitivity",
     None),
    (sensitivity, "holder_bound", "sensitivity.holder_bound", "sensitivity",
     None),
    (sensitivity, "sample_bound", "sensitivity.sample_bound", "sensitivity",
     _sample_bound_info),
    (numkit, "fd_gradient", "numkit.fd_gradient", "numkit", None),
    (numkit, "fd_hessian", "numkit.fd_hessian", "numkit", None),
    (numkit, "spectral_norm", "numkit.spectral_norm", "numkit", None),
    (kernels, "objective_batch", "kernels.objective_batch", "kernels",
     _objective_batch_info),
)

LAYERS = ("scenario", "baseline_opt", "scipy", "hvac_model", "sensitivity",
          "numkit", "kernels")


class Span:
    __slots__ = ("name", "layer", "t0", "t1", "parent", "thread", "day",
                 "hour", "info", "error")

    def __init__(self, name, layer, parent, thread, day, hour):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.day = day
        self.hour = hour
        self.info = None
        self.error = None
        self.t0 = self.t1 = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._day_span = None      # the open run_day span, read by workers
        self._day_count = 0
        self._hour_of = {}         # id(ZoneInputs) -> hour_index

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _call(self, name, layer, hook, fn, args, kwargs):
        st = self._stack()
        if name == "scenario.run_day":
            self._day_count += 1
            self._hour_of = {id(h.zones): h.hour_index for h in args[0].hours}
        elif name == "baseline_opt.solve_baseline":
            self._local.hour = self._hour_of.get(id(args[0].zones))
        day_span = self._day_span
        parent = st[-1] if st else day_span
        span = Span(name, layer, parent, threading.get_ident(),
                    self._day_count if day_span or name == "scenario.run_day"
                    else None,
                    getattr(self._local, "hour", None) if day_span else None)
        if name == "scenario.run_day":
            self._day_span = span
        st.append(span)
        span.t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.t1 = time.perf_counter()
            st.pop()
            if span is self._day_span:
                self._day_span = None
            self.spans.append(span)
        if hook is not None:
            span.info = hook(args, kwargs, result)
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary function; restore the originals on exit."""
        saved = []
        try:
            for module, attr, name, layer, hook in BOUNDARIES:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrapper(name, layer, hook, orig))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def _wrapper(self, name, layer, hook, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, layer, hook, fn, args, kwargs)
        return traced


def attribute(spans):
    """Return ({span: attributed self seconds}, {span: inclusive seconds},
    worst accounting error in seconds over all run_day spans)."""
    self_s = defaultdict(float)
    by_day = defaultdict(list)
    roots = []
    for s in spans:
        if s.name == "scenario.run_day":
            roots.append(s)
        elif s.day is not None:
            by_day[s.day].append(s)
        else:
            self_s[s] += s.t1 - s.t0
    worst = 0.0
    for root in roots:
        events = []
        for s in by_day[root.day]:
            events.append((s.t0, 1, s))
            events.append((s.t1, 0, s))
        events.sort(key=lambda e: (e[0], e[1]))
        open_by_thread = defaultdict(list)
        last = root.t0
        for t, is_start, s in events:
            dt = t - last
            if dt > 0:
                active = [st[-1] for st in open_by_thread.values() if st]
                if active:
                    share = dt / len(active)
                    for a in active:
                        self_s[a] += share
                else:
                    self_s[root] += dt
            last = max(last, t)
            if is_start:
                open_by_thread[s.thread].append(s)
            else:
                open_by_thread[s.thread].remove(s)
        self_s[root] += max(0.0, root.t1 - last)
        covered = sum(self_s[s] for s in by_day[root.day]) + self_s[root]
        worst = max(worst, abs(covered - (root.t1 - root.t0)))
    incl = defaultdict(float)
    for s in sorted(spans, key=lambda s: s.t0, reverse=True):
        incl[s] += self_s[s]
        if s.parent is not None:
            incl[s.parent] += incl[s]
    return self_s, incl, worst


def analyze(spans, days, hours_certified):
    """Per-layer metrics, normalised per traced run_day call (`days`).

    Returns the metrics, the worst accounting error of `attribute`, the
    failure counts by (span name, exception name), and every span name
    with its self seconds per day, largest first."""
    self_s, incl, worst = attribute(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    errors = {}
    rows = nbytes = samples = kernel_rows_in_sample = 0
    name_self = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += incl[s]
        name_self[s.name] += self_s[s]
        durations[s.name].append(incl[s])
        layer_self[s.layer] += self_s[s]
        if s.error is not None:
            errors[(s.name, s.error)] = errors.get((s.name, s.error), 0) + 1
        if s.name == "kernels.objective_batch" and s.info is not None:
            rows += s.info["rows"]
            nbytes += s.info["bytes"]
            p = s.parent
            while p is not None and p.name != "sensitivity.sample_bound":
                p = p.parent
            if p is not None:
                kernel_rows_in_sample += s.info["rows"]
        elif s.name == "sensitivity.sample_bound" and s.info is not None:
            samples += s.info["samples"]

    solves = calls["baseline_opt.solve_baseline"]
    solve_err = sum(v for (n, _), v in errors.items()
                    if n == "baseline_opt.solve_baseline")
    starts = calls["baseline_opt.minimize"]

    def per_day(x):
        return x / days

    def ratio(a, b):
        return a / b if b else float("nan")

    m = {
        "scenario.run_day.self_s": per_day(
            sum(self_s[s] for s in spans if s.name == "scenario.run_day")),
        "scenario.run_day.wall_s": per_day(total["scenario.run_day"]),
        "scenario.export_results.s": per_day(total["scenario.export_results"]),
        "baseline_opt.solve_baseline.s": per_day(
            total["baseline_opt.solve_baseline"]),
        "baseline_opt.solve_baseline.calls": per_day(solves),
        "baseline_opt.solve_baseline.p50_ms": 1e3 * statistics.median(
            durations["baseline_opt.solve_baseline"] or [float("nan")]),
        "baseline_opt.minimize.s": per_day(total["baseline_opt.minimize"]),
        "baseline_opt.starts_per_solve": ratio(starts, solves),
        "baseline_opt.useful_start_ratio": ratio(solves - solve_err, starts),
        "baseline_opt.verify_kkt.calls": per_day(calls["baseline_opt.verify_kkt"]),
        "baseline_opt.failures.infeasible": per_day(
            errors.get(("baseline_opt.solve_baseline",
                        "InfeasibleHourError"), 0)),
        "baseline_opt.failures.no_convergence": per_day(
            errors.get(("baseline_opt.solve_baseline",
                        "NoConvergenceError"), 0)),
        "hvac_model.first_order_flat.calls_per_solve": ratio(
            calls["hvac_model.first_order_flat"], solves),
        "hvac_model.first_order_flat.s": per_day(
            total["hvac_model.first_order_flat"]),
        "hvac_model.constraints_flat.calls": per_day(
            calls["hvac_model.constraints_flat"]),
        "hvac_model.derivatives_flat.calls": per_day(
            calls["hvac_model.derivatives_flat"]),
        "hvac_model.derivatives_flat.s": per_day(
            total["hvac_model.derivatives_flat"]),
        "hvac_model.objective_flat.calls": per_day(
            calls["hvac_model.objective_flat"]),
        "sensitivity.build_operator.s": per_day(
            total["sensitivity.build_operator"]),
        "sensitivity.verify_operator_fd.s": per_day(
            total["sensitivity.verify_operator_fd"]),
        "sensitivity.verify_operator_fd.share": ratio(
            total["sensitivity.verify_operator_fd"],
            total["sensitivity.build_operator"]),
        "sensitivity.signed_shift_pair.s": per_day(
            total["sensitivity.signed_shift_pair"]),
        "sensitivity.quadratic_model.s": per_day(
            total["sensitivity.quadratic_model"]),
        "sensitivity.delta_cost.calls_per_hour": ratio(
            calls["sensitivity.delta_cost"], hours_certified),
        "sensitivity.sample_bound.s": per_day(total["sensitivity.sample_bound"]),
        "sensitivity.sample_bound.kernel_row_ratio": ratio(
            kernel_rows_in_sample, samples),
        "numkit.fd_gradient.s": per_day(total["numkit.fd_gradient"]),
        "numkit.fd_hessian.s": per_day(total["numkit.fd_hessian"]),
        "kernels.objective_batch.calls": per_day(
            calls["kernels.objective_batch"]),
        "kernels.objective_batch.rows": per_day(rows),
        "kernels.objective_batch.s": per_day(total["kernels.objective_batch"]),
        "kernels.objective_batch.rows_per_s": ratio(
            rows, total["kernels.objective_batch"]),
        "kernels.objective_batch.computed_bytes": per_day(nbytes),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = per_day(layer_self[layer])
    top = sorted(name_self.items(), key=lambda kv: -kv[1])
    return m, worst, errors, [(name, per_day(v)) for name, v in top]


def thread_count(spans):
    """Distinct threads that ran traced calls inside run_day."""
    return len({s.thread for s in spans
                if s.day is not None and s.name != "scenario.run_day"})

