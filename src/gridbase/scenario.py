"""Day profiles and batched baseline + sensitivity runs.

A day profile is an ordered list of occupied hours, each with outside-air
temperature and per-zone loads/setpoints/ventilation minima. run_day
solves every hour, builds the sensitivity operator, and collects the
signed scenario pair and the analytic/sampled uncertainty bounds into
plot-ready rows.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import hvac_model as hm
from . import sensitivity as sn
from .baseline_opt import SolverConfig, solve_baseline
from .errors import GridbaseError, ProfileParseError

DAY_TYPES = ("hot", "moderate", "cold")
_DAY_CODE = {"hot": 1, "moderate": 2, "cold": 3}
DEFAULT_SAMPLES = 10_000


@dataclass(frozen=True)
class ProfileHour:
    hour_index: int
    t_oa: float
    zones: hm.ZoneInputs


@dataclass(frozen=True)
class DayProfile:
    label: str
    hours: tuple

    def __post_init__(self):
        if len(self.hours) < 1:
            raise ValueError("a day profile needs at least one hour")
        idx = [h.hour_index for h in self.hours]
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("hour_index must be strictly increasing")
        if idx[0] < 0:
            # run_day seeds an hour's sampling with seed ^ hour_index
            raise ValueError(f"hour_index must be >= 0, got {idx[0]}")
        counts = [h.zones.count for h in self.hours]
        if len(set(counts)) > 1:
            # write_profile writes every hour with the first's columns
            raise ValueError(f"hours differ in zone count: {counts}")


@dataclass(frozen=True)
class HourResult:
    hour_index: int
    j0: float
    x0: hm.DecisionVector | None
    lambda_max: float
    active_set_labels: tuple
    k_plus: float
    k_minus: float
    relative_plus: float
    relative_minus: float
    beta_holder: float
    beta_sample: float
    warnings: tuple = ()


# ---------------------------------------------------------------------------
# profile I/O
# ---------------------------------------------------------------------------

def _header_fields(n_zones: int) -> list:
    cols = ["hour", "T_oa_C"]
    for i in range(1, n_zones + 1):
        cols += [f"T_sp_C_{i}", f"Q_zone_{i}", f"m_oa_min_kg_s_{i}"]
    return cols


def load_profile(path, params: hm.HvacParameters | None = None) -> DayProfile:
    """Parse a profile CSV; errors carry the offending line number.

    An optional first metadata line `#label=...,units=<W|J_per_hr>`
    names the day type and the load units (J/hr loads are converted to
    watts on load).
    """
    params = params or hm.HvacParameters()
    label = "custom"
    scale = 1.0
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ProfileParseError("empty profile file", line=1)

    row_start = 1
    if lines[0].startswith("#"):
        for part in lines[0][1:].split(","):
            if "=" not in part:
                raise ProfileParseError(
                    f"malformed metadata entry {part!r}", line=1)
            key, val = (s.strip() for s in part.split("=", 1))
            if key == "label":
                label = val
            elif key == "units":
                if val == "J_per_hr":
                    scale = hm.J_PER_HR
                elif val != "W":
                    raise ProfileParseError(
                        f"unknown units {val!r} (expected W or J_per_hr)",
                        line=1)
            else:
                raise ProfileParseError(
                    f"unknown metadata key {key!r}", line=1)
        row_start = 2

    header = [c.strip() for c in lines[row_start - 1].split(",")]
    if len(header) < 5 or (len(header) - 2) % 3 != 0:
        raise ProfileParseError(
            f"header has {len(header)} columns; expected 2 + 3 per zone",
            line=row_start)
    n = (len(header) - 2) // 3
    if header != _header_fields(n):
        raise ProfileParseError(
            f"unexpected header columns {header}", line=row_start)

    hours = []
    for lineno, raw in enumerate(lines[row_start:], start=row_start + 1):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(header):
            raise ProfileParseError(
                f"expected {len(header)} cells, found {len(cells)}",
                line=lineno)
        try:
            vals = [float(c) for c in cells]
        except ValueError as exc:
            raise ProfileParseError(f"non-numeric cell: {exc}", line=lineno)
        for name, val in zip(header, vals):
            if not math.isfinite(val):
                raise ProfileParseError(f"non-finite {name} cell {val}",
                                        line=lineno)
        hour = int(vals[0])
        if hour != vals[0]:
            raise ProfileParseError("hour must be an integer", line=lineno)
        if hour < 0:
            raise ProfileParseError(f"hour must be >= 0, got {hour}",
                                    line=lineno)
        if hours and hour <= hours[-1].hour_index:
            raise ProfileParseError("hour_index must be strictly increasing",
                                    line=lineno)
        t_sp = np.array(vals[2::3])
        q = np.array(vals[3::3]) * scale
        v = np.array(vals[4::3])
        if np.any(v < 0):
            raise ProfileParseError(
                f"negative ventilation minimum in hour {hour}", line=lineno)
        if v.sum() > params.m_design:
            raise ProfileParseError(
                f"total ventilation minimum exceeds design flow in "
                f"hour {hour}", line=lineno)
        hours.append(ProfileHour(hour, vals[1], hm.ZoneInputs(q, t_sp, v)))
    if not hours:
        raise ProfileParseError("profile contains no data rows",
                                line=row_start + 1)
    return DayProfile(label=label, hours=tuple(hours))


def write_profile(profile: DayProfile, path) -> None:
    """Write a profile CSV in watts that load_profile round-trips exactly.

    Raises ValueError, before the file is opened, for a label that would
    not read back: one with a comma, a line break or surrounding
    whitespace."""
    label = profile.label
    if "," in label or label != label.strip() or len(label.splitlines()) > 1:
        raise ValueError(
            f"profile label {label!r} would not read back: it has a comma, "
            "a line break or surrounding whitespace")
    n = profile.hours[0].zones.count
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#label={label},units=W\n")
        fh.write(",".join(_header_fields(n)) + "\n")
        for h in profile.hours:
            cells = [str(h.hour_index), _fmt(h.t_oa)]
            for i in range(n):
                cells += [_fmt(h.zones.t_sp[i]), _fmt(h.zones.q_zone[i]),
                          _fmt(h.zones.m_oa_min[i])]
            fh.write(",".join(cells) + "\n")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# synthetic day fixtures
# ---------------------------------------------------------------------------

def synth_profile(day_type: str, seed: int, n_zones: int = 5,
                  n_hours: int = 7) -> DayProfile:
    """Deterministic seeded day fixture (setpoints 22 C, 0.05 kg/s
    ventilation per zone; hour indices span the occupied period)."""
    if day_type not in DAY_TYPES:
        raise ValueError(f"day_type must be one of {DAY_TYPES}")
    rng = np.random.default_rng([seed, _DAY_CODE[day_type]])
    hours = []
    for k in range(n_hours):
        # midday-peaked shape in [0, 1]
        shape = math.sin(math.pi * (k + 0.5) / n_hours)
        if day_type == "hot":
            t_oa = 33.0 + 6.0 * shape + rng.uniform(-0.5, 0.5)
            q = -rng.uniform(2500.0, 4500.0, n_zones) * (0.7 + 0.6 * shape)
        elif day_type == "cold":
            t_oa = -5.0 + 11.0 * shape + rng.uniform(-1.0, 1.0)
            q = rng.uniform(2000.0, 4000.0, n_zones) * (1.2 - 0.5 * shape)
        else:
            t_oa = 16.0 + 7.0 * shape + rng.uniform(-0.5, 0.5)
            q = -rng.uniform(800.0, 2600.0, n_zones) * (0.6 + 0.7 * shape)
        zones = hm.ZoneInputs(q, np.full(n_zones, 22.0),
                              np.full(n_zones, 0.05))
        hours.append(ProfileHour(9 + k, float(t_oa), zones))
    return DayProfile(label=day_type, hours=tuple(hours))


# ---------------------------------------------------------------------------
# batched runs
# ---------------------------------------------------------------------------

def run_day(profile: DayProfile, mask, alpha: float, *,
            params: hm.HvacParameters | None = None,
            n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
            mapper=map) -> list:
    """Solve and analyze every hour; output order matches input order.

    `seed` seeds every hour's random solver starts; the per-hour
    sampling seeds are seed XOR hour_index. `mapper(fn, hours)` runs the
    hours and yields fn's results in input order: the builtin `map` in
    turn, an executor's `map` on its threads or processes (fn pickles),
    with the same results. Hours that fail record the error in their
    warnings; if every hour fails, the last error is re-raised with a
    day-level summary. A bad mask, alpha or sample count raises
    ValueError (KeyError for an unknown label) before any hour is solved.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    hour = functools.partial(
        _run_hour, mask=tuple(mask), alpha=alpha,
        cfg=SolverConfig(rng_seed=seed),
        params=params or hm.HvacParameters(), n_samples=n_samples)
    results = list(mapper(hour, profile.hours))
    if all(math.isnan(r.j0) for r in results):
        raise GridbaseError(
            "every hour of the day failed: " +
            "; ".join(w for r in results for w in r.warnings))
    return results


def _run_hour(hour: ProfileHour, mask, alpha, cfg, params,
              n_samples) -> HourResult:
    warnings = []
    try:
        w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                               params=params)
        spec = sn.uncertainty_spec(w, mask, alpha)
        kkt = solve_baseline(w, cfg)
        if not kkt.strict_complementarity_ok:
            warnings.append("degenerate anchor: active constraint with "
                            "zero multiplier")
        op = sn.build_operator(kkt, w, spec)
        pair = sn.signed_shift_pair(op, w, spec)
        qm = sn.quadratic_model(op, w, spec)
        holder = sn.holder_bound(qm, spec, "holder_paper_literal")
        sample = sn.sample_bound(op, w, spec, n_samples,
                                 cfg.rng_seed ^ hour.hour_index)
        labels = hm.layout(hour.zones.count).labels
        return HourResult(
            hour_index=hour.hour_index,
            j0=kkt.j0,
            x0=kkt.x0,
            lambda_max=float(np.max(kkt.lam)),
            active_set_labels=tuple(labels[i] for i in kkt.active_set),
            k_plus=pair["K_plus"],
            k_minus=pair["K_minus"],
            relative_plus=pair["K_plus"] / kkt.j0,
            relative_minus=pair["K_minus"] / kkt.j0,
            beta_holder=holder.beta,
            beta_sample=sample.beta,
            warnings=tuple(warnings),
        )
    except GridbaseError as exc:
        warnings.append(f"{type(exc).__name__}: {exc}")
        nan = float("nan")
        return HourResult(
            hour_index=hour.hour_index, j0=nan, x0=None, lambda_max=nan,
            active_set_labels=(), k_plus=nan, k_minus=nan,
            relative_plus=nan, relative_minus=nan, beta_holder=nan,
            beta_sample=nan, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ("hour", "J0_W", "K_plus_W", "K_minus_W", "rel_plus",
                "rel_minus", "beta_holder_W", "beta_sample_W")


def export_results(results, path, format: str = "csv") -> None:
    """Write HourResults as CSV (fixed column set) or JSON; numbers carry
    17 significant digits so re-parsing is exact. JSON holds every field
    and writes a failed hour's figures (NaN) as null."""
    results = list(results)
    if not results:
        raise ValueError("no results to export")
    if format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in results:
                writer.writerow([
                    r.hour_index, _fmt(r.j0), _fmt(r.k_plus),
                    _fmt(r.k_minus), _fmt(r.relative_plus),
                    _fmt(r.relative_minus), _fmt(r.beta_holder),
                    _fmt(r.beta_sample),
                ])
    elif format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([_json_value(r) for r in results], fh, indent=2,
                      allow_nan=False)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {format!r}")


def _json_value(v):
    """An HourResult or its field for `json.dump`; a non-finite float (a
    failed hour's figure) becomes null."""
    if isinstance(v, (HourResult, hm.DecisionVector)):
        return {k: _json_value(u) for k, u in vars(v).items()}
    if isinstance(v, np.ndarray):
        return list(v)
    return None if isinstance(v, float) and not math.isfinite(v) else v
