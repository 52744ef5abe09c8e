"""Single-duct AHU + VAV-with-reheat system model.

Encodes the equipment performance curves, the air-loop balances, the
inequality-constraint vector h(x, w) and the source-energy objective
J(x, w), together with analytic first and second derivatives in both the
decision variables x and the exogenous vector w.

Decision vector (m = N + 4 entries)::

    x = [T_sa, m_oa, m_sa_1 .. m_sa_N, q_h, q_c]

where q_h >= 0 and q_c >= 0 split the AHU coil duty: q_h - q_c equals the
AHU thermal power, and simultaneous heating+cooling is suboptimal so an
optimizer recovers the max(0, +/-Q_ahu) semantics of the physical coils.

Exogenous vector (p = 1 + 3N + 20 entries)::

    w = [T_oa,
         Q_zone_1..N, T_sp_1..N, m_oa_min_1..N,
         delta_P, eta_tot, rho_air, m_design, c_f_1..4,
         Q_b_rated, eta_thermal, c_b_1..3,
         Q_e_rated, P_pump, c_g_1..3,
         alpha_el, alpha_ng]

The parameter tail is `HvacParameters`' fields in declaration order, one
entry per curve coefficient, except c_p (a physical constant of air), the
flow floor and the zone count, which are deliberately not exposed as
uncertain coordinates. `layout(n)` names every entry of x, w and h, and
the formulas address them by those names. The flat functions take no
zone count: `layout_of` reads N from w's length and checks x against it.

Supply and zone discharge air keep to the window [T_SUPPLY_MIN,
T_SUPPLY_MAX]. `simple_bounds` maps each simple-bound row of h to its x
entry and value. The solver's box `x_box` is not those rows in two places:
m_oa >= 0, not the summed ventilation minima, and m_sa <= m_design, which
no row states.

All quantities are SI: watts, kg/s, degrees Celsius.  Rated values quoted
in J/hr convert at exactly 1 J/hr = 1/3600 W.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import namedtuple
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import DegenerateFlowError, InvalidCurveError

J_PER_HR = 1.0 / 3600.0  # watts per (joule/hour)
T_SUPPLY_MIN, T_SUPPLY_MAX = 12.0, 37.0  # supply/discharge window, degC


# ---------------------------------------------------------------------------
# parameters and input containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HvacParameters:
    """Equipment constants. Defaults are the nominal small-office values."""

    zone_count: int = 5
    c_p: float = 1005.0                      # J/(kg K)
    # fan
    delta_P: float = 1000.0                  # Pa
    eta_tot: float = 0.7
    rho_air: float = 1.225                   # kg/m^3
    m_design: float = 2.98                   # kg/s
    c_f: tuple = (0.3507, 0.3085, -0.5413, 0.8719)
    # boiler
    Q_b_rated: float = 1.09e8 * J_PER_HR     # W
    eta_thermal: float = 0.8
    c_b: tuple = (0.97, 0.0633, -0.0333)
    # chiller
    Q_e_rated: float = 1.47e8 * J_PER_HR     # W
    P_pump: float = 1.8e6 * J_PER_HR         # W
    c_g: tuple = (0.03303, 0.6852, 0.2818)
    # source conversion factors
    alpha_el: float = 3.167
    alpha_ng: float = 1.084
    # numerical guard on the 1/m_sa terms
    flow_floor: float = 1e-3                 # kg/s

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise ValueError(f"{f.name} must be finite")
        if self.zone_count < 1:
            raise ValueError("zone_count must be >= 1")
        for name in ("c_p", "delta_P", "rho_air", "m_design",
                     "Q_b_rated", "Q_e_rated", "P_pump", "flow_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not (0.0 < self.eta_tot <= 1.0):
            raise ValueError("eta_tot must be in (0, 1]")
        if not (0.0 < self.eta_thermal <= 1.0):
            raise ValueError("eta_thermal must be in (0, 1]")
        if len(self.c_f) != 4 or len(self.c_b) != 3 or len(self.c_g) != 3:
            raise ValueError("curve coefficient lengths must be 4/3/3")
        object.__setattr__(self, "c_f", tuple(float(c) for c in self.c_f))
        object.__setattr__(self, "c_b", tuple(float(c) for c in self.c_b))
        object.__setattr__(self, "c_g", tuple(float(c) for c in self.c_g))
        # the Q_b rows hold the part-load ratio r in [0, 1]: the efficiency
        # must be positive at both ends and at a vertex between them
        c1, c2, c3 = self.c_b
        vertex = min(max(-c2 / (2.0 * c3), 0.0), 1.0) if c3 else 0.0
        if min(c1 + r * (c2 + r * c3) for r in (0.0, 1.0, vertex)) <= 0.0:
            raise ValueError("c_b must give a positive boiler efficiency "
                             "for part-load ratios in [0, 1]")


_PARAM_FILE_KEYS = tuple(f.name for f in fields(HvacParameters))


def load_parameters(path) -> HvacParameters:
    """Read a flat JSON parameter file; absent keys keep nominal defaults.
    Raises ValueError naming the key of a value that is not a number (a
    list of numbers for the curves)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a parameter file must hold one JSON object")
    unknown = set(raw) - set(_PARAM_FILE_KEYS)
    if unknown:
        raise ValueError(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in raw.items():
        if key in ("c_f", "c_b", "c_g"):
            if not isinstance(value, list):
                raise ValueError(f"{key} must be a list of numbers")
            kwargs[key] = tuple(_number(key, v) for v in value)
        elif key == "zone_count":
            if not _number(key, value).is_integer():
                raise ValueError(f"zone_count must be whole, got {value!r}")
            kwargs[key] = int(value)
        else:
            kwargs[key] = _number(key, value)
    return HvacParameters(**kwargs)


def _number(key: str, value) -> float:
    """A JSON number as a float; ValueError naming `key` otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def dump_parameters(params: HvacParameters) -> dict:
    d = {k: getattr(params, k) for k in _PARAM_FILE_KEYS}
    for k in ("c_f", "c_b", "c_g"):
        d[k] = list(d[k])
    return d


@dataclass(frozen=True)
class ZoneInputs:
    """Per-zone hourly inputs. Q_zone > 0 means the zone needs heat."""

    q_zone: np.ndarray    # W
    t_sp: np.ndarray      # degC
    m_oa_min: np.ndarray  # kg/s

    def __post_init__(self):
        for name in ("q_zone", "t_sp", "m_oa_min"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not np.isfinite(value).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        n = self.q_zone.size
        if self.t_sp.size != n or self.m_oa_min.size != n:
            raise ValueError("zone input arrays must share one length")
        if np.any(self.m_oa_min < 0):
            raise ValueError("m_oa_min must be non-negative")

    @property
    def count(self) -> int:
        return self.q_zone.size


# w's parameter tail, (attribute, component index or None) per entry:
# the fields of HvacParameters but the three kept out of w, in order
_PARAM_REGISTRY = tuple(
    (f.name, k) for f in fields(HvacParameters)
    if f.name not in ("zone_count", "c_p", "flow_floor")
    for k in (range(len(f.default)) if isinstance(f.default, tuple)
              else [None]))
_PARAM_LABELS = tuple(attr if comp is None else f"{attr}_{comp + 1}"
                      for attr, comp in _PARAM_REGISTRY)
# the tail by label: its values, or their w positions (`Layout.param`)
Tail = namedtuple("Tail", _PARAM_LABELS)


@dataclass(frozen=True)
class ExogenousVector:
    """Labeled flat view of the exogenous inputs and model parameters.

    An over-ventilated hour is infeasible, not invalid, so it is accepted."""

    t_oa: float
    zones: ZoneInputs
    params: HvacParameters

    def __post_init__(self):
        if not np.isfinite(self.t_oa):
            raise ValueError("t_oa must be finite")
        if self.zones.count != self.params.zone_count:
            raise ValueError("zone input length does not match zone_count")

    def labels(self) -> tuple:
        return layout(self.zones.count).w_labels

    def to_vector(self) -> np.ndarray:
        p = self.params
        tail = [getattr(p, attr) if comp is None else getattr(p, attr)[comp]
                for attr, comp in _PARAM_REGISTRY]
        return np.concatenate([
            [self.t_oa], self.zones.q_zone, self.zones.t_sp,
            self.zones.m_oa_min, tail,
        ])

    def with_vector(self, vec) -> "ExogenousVector":
        """Rebuild a structured vector from a flat one (bit-exact)."""
        vec = np.asarray(vec, dtype=float)
        lay = layout(self.zones.count)
        if vec.size != lay.w_dim:
            raise ValueError(f"expected {lay.w_dim} entries, got {vec.size}")
        zones = ZoneInputs(q_zone=vec[lay.q_zone].copy(),
                           t_sp=vec[lay.t_sp].copy(),
                           m_oa_min=vec[lay.m_oa_min].copy())
        kwargs = {}
        for (attr, comp), value in zip(_PARAM_REGISTRY,
                                       vec[lay.tail].tolist()):
            kwargs[attr] = value if comp is None \
                else kwargs.get(attr, ()) + (value,)
        return ExogenousVector(t_oa=float(vec[lay.t_oa]), zones=zones,
                               params=replace(self.params, **kwargs))

    def index(self, label: str) -> int:
        try:
            return layout(self.zones.count).w_index[label]
        except KeyError:
            raise KeyError(f"unknown exogenous label {label!r}") from None


def make_exogenous(t_oa, q_zone, t_sp, m_oa_min,
                   params: HvacParameters | None = None) -> ExogenousVector:
    params = params or HvacParameters()
    return ExogenousVector(
        t_oa=float(t_oa),
        zones=ZoneInputs(q_zone=q_zone, t_sp=t_sp, m_oa_min=m_oa_min),
        params=params,
    )


# ---------------------------------------------------------------------------
# decision vector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecisionVector:
    """Reduced decision variables: the recirculation flow and per-zone
    discharge temperatures are eliminated by the duct balances."""

    t_sa: float            # degC
    m_oa: float            # kg/s
    m_sa: np.ndarray       # kg/s, one per zone
    q_h: float             # W, AHU heating-coil duty
    q_c: float             # W, AHU cooling-coil duty

    def __post_init__(self):
        object.__setattr__(self, "m_sa", np.asarray(self.m_sa, dtype=float))

    def to_vector(self) -> np.ndarray:
        return np.concatenate([[self.t_sa, self.m_oa], self.m_sa,
                               [self.q_h, self.q_c]])

    @staticmethod
    def from_vector(vec) -> "DecisionVector":
        vec = np.asarray(vec, dtype=float)
        return DecisionVector(t_sa=float(vec[0]), m_oa=float(vec[1]),
                              m_sa=vec[2:-2].copy(),
                              q_h=float(vec[-2]), q_c=float(vec[-1]))


# ---------------------------------------------------------------------------
# flat layout
# ---------------------------------------------------------------------------

class Layout:
    """Positions in the flat x, w and h vectors of an n-zone model; use
    the shared instance from `layout(n)`, or from `layout_of(wv)`, which
    reads n from w's length. `x_labels`, `w_labels` and
    `labels` (h's rows) name every entry once, and every position here
    is read from them. h's row blocks are `air` (T_sa_min ..
    m_sa_total_max), the zone blocks, `duty` (q_h_nonneg .. Q_b_max),
    then the balance row and its negation; the rows that the formulas
    write by hand carry their label as a name (`m_ra_nonneg`, ...).
    `param` is the `Tail` of the parameters' w positions, `w_index` maps
    a w label to its position, and `index` maps the name of a zone block
    to its positions as an index array. `lower`, `upper`, `upper_x` and
    `upper_w` place the simple-bound rows (see `simple_bounds`)."""

    def __init__(self, n: int):
        def zones(name):
            return tuple(f"{name}_{i + 1}" for i in range(n))

        def span(pos, labels):  # consecutive entries
            return slice(pos[labels[0]], pos[labels[-1]] + 1)

        m_sa, q_zone, t_sp, m_oa_min = (zones(k) for k in (
            "m_sa", "Q_zone", "T_sp", "m_oa_min"))
        floor, vent, low, high = (zones(k) for k in (
            "m_sa_floor", "ventilation", "T_da_low", "T_da_high"))
        air = ("T_sa_min", "T_sa_max", "m_oa_min_total", "m_oa_max",
               "m_ra_nonneg", "m_sa_total_max")
        duty = ("q_h_nonneg", "q_h_max", "q_c_nonneg", "q_c_max",
                "Q_b_nonneg", "Q_b_max")
        self.n = n
        self.x_labels = ("T_sa", "m_oa", *m_sa, "q_h", "q_c")
        self.w_labels = ("T_oa", *q_zone, *t_sp, *m_oa_min, *_PARAM_LABELS)
        self.labels = (*air, *floor, *vent, *low, *high, *duty,
                       "ahu_balance_pos", "ahu_balance_neg")
        x, w, h = ({lab: i for i, lab in enumerate(labels)} for labels in (
            self.x_labels, self.w_labels, self.labels))
        self.x_dim, self.w_dim, self.h_dim = len(x), len(w), len(h)
        self.t_sa, self.m_oa, self.q_h, self.q_c = (
            x[k] for k in ("T_sa", "m_oa", "q_h", "q_c"))
        self.m_sa = span(x, m_sa)
        self.t_oa, self.w_index = w["T_oa"], w
        self.q_zone, self.t_sp, self.m_oa_min, self.tail = (
            span(w, k) for k in (q_zone, t_sp, m_oa_min, _PARAM_LABELS))
        self.param = Tail._make(w[k] for k in _PARAM_LABELS)
        self.air, self.floor, self.ventilation, self.t_da_low, \
            self.t_da_high, self.duty = (span(h, k) for k in (
                air, floor, vent, low, high, duty))
        (self.m_oa_min_total, self.m_ra_nonneg, self.m_sa_total_max,
         self.Q_b_nonneg, self.Q_b_max, self.balance, self.balance_neg) = (
            h[k] for k in ("m_oa_min_total", "m_ra_nonneg", "m_sa_total_max",
                           "Q_b_nonneg", "Q_b_max", "ahu_balance_pos",
                           "ahu_balance_neg"))
        self.index = {k: np.arange(n) + getattr(self, k).start for k in (
            "m_sa", "q_zone", "t_sp", "m_oa_min", "floor", "ventilation",
            "t_da_low", "t_da_high")}
        self.lower = np.array([h[k] for k in (
            "T_sa_min", "m_oa_min_total", *floor, "q_h_nonneg",
            "q_c_nonneg")])
        self.upper = np.array([h[k] for k in (
            "T_sa_max", "m_oa_max", "q_h_max", "q_c_max")])
        self.upper_x = np.array([self.t_sa, self.m_oa, self.q_h, self.q_c])
        self.upper_w = np.array([self.param.m_design, self.param.Q_b_rated,
                                 self.param.Q_e_rated])


@functools.lru_cache(maxsize=None)
def layout(n_zones: int) -> Layout:
    return Layout(n_zones)


def layout_of(wv, xv=None) -> Layout:
    """The layout of the N that w's length fixes: w (the last axis of
    rows) holds 3N + 21 entries. Raises ValueError for any other length,
    and for an x that is not N + 4 long."""
    p = wv.shape[-1]
    n, rest = divmod(p - 1 - len(_PARAM_LABELS), 3)
    if rest or n < 1:
        raise ValueError(f"w has {p} entries, not 3N + 21 for an N >= 1")
    lay = layout(n)
    if xv is not None and xv.shape[-1] != lay.x_dim:
        raise ValueError(f"x has {xv.shape[-1]} entries and w {p}: "
                         f"w's N = {n} needs {lay.x_dim}")
    return lay


# ---------------------------------------------------------------------------
# equipment curves
# ---------------------------------------------------------------------------

def fan_power(m_sa_total: float, params: HvacParameters) -> float:
    """Supply-fan electrical power at the given total flow (watts)."""
    u = m_sa_total / params.m_design
    c = params.c_f
    f_pl = c[0] + u * (c[1] + u * (c[2] + u * c[3]))
    gain = params.delta_P / (params.eta_tot * params.rho_air)
    return gain * params.m_design * f_pl


def boiler_power(q_b: float, params: HvacParameters) -> float:
    """Gas power drawn by the boiler delivering q_b watts of heat."""
    if q_b == 0.0:
        return 0.0
    r = q_b / params.Q_b_rated
    c = params.c_b
    eta_eff = c[0] + r * (c[1] + r * c[2])
    if eta_eff <= 0.0:
        raise InvalidCurveError(
            f"boiler efficiency curve non-positive at PLR={r:.4g}")
    return q_b / (params.eta_thermal * eta_eff)


def chiller_power(q_e: float, params: HvacParameters) -> float:
    """Chiller electrical power; exactly zero when the unit is off.

    Uses the expanded form f_gen * Q_e = c_g1 * Q_e_rated + c_g2 * Q_e
    + c_g3 * Q_e^2 / Q_e_rated, which removes the 1/PLR singularity; the
    standby term c_g1 * Q_e_rated + P_pump is only paid while running.
    """
    if q_e == 0.0:
        return 0.0
    c = params.c_g
    rated = params.Q_e_rated
    return c[0] * rated + c[1] * q_e + c[2] * q_e * q_e / rated + params.P_pump


# ---------------------------------------------------------------------------
# operating point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OperatingPoint:
    m_sa_total: float
    m_ra: float
    t_ra: float
    t_ma: float
    t_da: np.ndarray
    q_ahu: float
    q_b: float
    q_e: float
    p_fan: float
    p_boiler: float
    p_chiller: float
    j_source: float


def evaluate(x: DecisionVector, w: ExogenousVector) -> OperatingPoint:
    """Propagate a decision vector through the air loop and equipment."""
    par = w.params
    cp = par.c_p
    m_sa = x.m_sa
    if np.any(m_sa < par.flow_floor):
        bad = int(np.argmin(m_sa - par.flow_floor))
        raise DegenerateFlowError(
            f"zone {bad + 1} supply flow {m_sa[bad]:.4g} kg/s below floor "
            f"{par.flow_floor:.4g}")
    m = float(m_sa.sum())
    t_sp = w.zones.t_sp
    q_zone = w.zones.q_zone
    t_ra = float((m_sa * t_sp).sum() / m)
    m_ra = m - x.m_oa
    t_ma = (m_ra * t_ra + x.m_oa * w.t_oa) / m
    t_da = t_sp + q_zone / (cp * m_sa)
    q_ahu = cp * m * (x.t_sa - t_ma)
    q_reheat = cp * m_sa * (t_da - x.t_sa)
    q_b = float(q_reheat.sum() + x.q_h)
    q_e = x.q_c

    p_fan = fan_power(m, par)
    p_boiler = boiler_power(q_b, par)
    p_chiller = chiller_power(q_e, par)
    j = par.alpha_el * (p_fan + p_chiller) + par.alpha_ng * p_boiler
    return OperatingPoint(
        m_sa_total=m, m_ra=m_ra, t_ra=t_ra, t_ma=t_ma, t_da=t_da,
        q_ahu=q_ahu, q_b=q_b, q_e=q_e,
        p_fan=p_fan, p_boiler=p_boiler, p_chiller=p_chiller,
        j_source=j,
    )


# ---------------------------------------------------------------------------
# flat-array core (shared with the solver, the sensitivity engine and the
# batch kernel)
# ---------------------------------------------------------------------------

Values = namedtuple("Values", "m s_t q_b u gain p_fan r eta p_boiler "
                              "p_chiller")


def loads(T, a, mvec, q_zone, t_sp, c_p):
    """Total flow m, S = sum m_i T_sp_i and boiler duty q_b, as `values`."""
    m = mvec.sum(axis=0)
    s_t = (mvec * t_sp).sum(axis=0)
    return m, s_t, q_zone.sum(axis=0) + c_p * s_t - c_p * m * T + a


def values(T, a, b, mvec, q_zone, t_sp, p, c_p) -> Values:
    """Loads and fan, boiler and chiller values of J from T_sa, q_h, q_c,
    the zone arrays and the parameter tail `p` (a `Tail`), elementwise.
    At a point the zone arrays are 1-D and the rest scalar; on S rows
    every entry is a column of S, read through the transpose of the
    (S, m) and (S, p) rows: the zone arrays are (N, S) and each tail
    entry is (S,). Zone sums run along the first axis, so a point has the
    bits of a "C"-layout row. p_chiller keeps its standby term at
    q_c = 0."""
    m, s_t, q_b = loads(T, a, mvec, q_zone, t_sp, c_p)
    u = m / p.m_design
    f_pl = p.c_f_1 + u * (p.c_f_2 + u * (p.c_f_3 + u * p.c_f_4))
    gain = p.delta_P / (p.eta_tot * p.rho_air)
    r = q_b / p.Q_b_rated
    eta = p.c_b_1 + r * (p.c_b_2 + r * p.c_b_3)
    qer = p.Q_e_rated
    return Values(m, s_t, q_b, u, gain, gain * p.m_design * f_pl, r, eta,
                  q_b / (p.eta_thermal * eta),
                  p.c_g_1 * qer + p.c_g_2 * b + p.c_g_3 * b * b / qer
                  + p.P_pump)


def source_power(p_fan, p_chiller, p_boiler, ael, ang):
    """J = alpha_el (P_fan + P_chiller) + alpha_ng P_boiler, elementwise."""
    return ael * (p_fan + p_chiller) + ang * p_boiler


def ahu_duty(T, o, m, s_t, t_oa, c_p):
    """AHU coil duty Q_ahu = c_p (m T_sa - S + m_oa S / m - m_oa T_oa)."""
    return c_p * (m * T - s_t + o * s_t / m - o * t_oa)


def objective_flat(xv: np.ndarray, wv: np.ndarray, c_p: float):
    """Reported objective from flat arrays: J with zero chiller power at
    q_c = 0 (off switch). Elementwise like `first_order_flat`: on S rows,
    (S, m) and (S, p), it returns the S values, and a row of a "C"-layout
    batch has the bits of the call at that row's point."""
    lay = layout_of(wv, xv)
    x, w = xv.T, wv.T
    b, p = x[lay.q_c], Tail._make(w[lay.tail])
    v = values(x[lay.t_sa], x[lay.q_h], b, x[lay.m_sa], w[lay.q_zone],
               w[lay.t_sp], p, c_p)
    return source_power(v.p_fan, np.where(b == 0.0, 0.0, v.p_chiller),
                        v.p_boiler, p.alpha_el, p.alpha_ng)


def simple_bounds(wv, flow_floor):
    """(lo, hi): simple-bound row `lower[i]` of w's layout is lo[i] - x[i]
    for each x entry i, and row `upper[k]` is x[i] - hi[i] for i =
    `upper_x[k]`; hi[i] is T_SUPPLY_MAX for T_sa_max and the w entry
    `upper_w[k - 1]` for the others. hi is inf at the m_sa, which no row
    caps. Elementwise: a point's w gives (m,) arrays, (S, p) rows (m, S)."""
    lay, w = layout_of(wv), wv.T
    lo = np.zeros((lay.x_dim,) + wv.shape[:-1])
    hi = np.full_like(lo, np.inf)
    lo[lay.t_sa], hi[lay.t_sa] = T_SUPPLY_MIN, T_SUPPLY_MAX
    lo[lay.m_oa], lo[lay.m_sa] = w[lay.m_oa_min].sum(0), flow_floor
    hi[lay.upper_x[1:]] = w[lay.upper_w]
    return lo, hi


def x_box(wv, flow_floor):
    """The solver's box of x at a point: `simple_bounds` with m_oa >= 0
    and m_sa <= m_design."""
    lay = layout_of(wv)
    lo, hi = simple_bounds(wv, flow_floor)
    lo[lay.m_oa], hi[lay.m_sa] = 0.0, wv[lay.param.m_design]
    return lo, hi


Value = namedtuple("Value", "j h v")


def value_flat(xv: np.ndarray, wv: np.ndarray, c_p: float,
               lo: np.ndarray, hi: np.ndarray) -> Value:
    """J_smooth, the ordered inequality vector h (h <= 0 feasible, also
    at infeasible points) and the `values` v at (x, w): the record that
    `first_order_flat` builds on, elementwise like it. (lo, hi) are w's
    `simple_bounds`. J_smooth keeps the chiller standby term at q_c = 0,
    where `objective_flat` drops it."""
    lay = layout_of(wv, xv)
    x, w = xv.T, wv.T
    T, o, mvec = x[lay.t_sa], x[lay.m_oa], x[lay.m_sa]
    a, b = x[lay.q_h], x[lay.q_c]
    q_zone, t_sp, p = w[lay.q_zone], w[lay.t_sp], Tail._make(w[lay.tail])
    v = values(T, a, b, mvec, q_zone, t_sp, p, c_p)
    m, s_t, q_b = v.m, v.s_t, v.q_b
    q_ahu = ahu_duty(T, o, m, s_t, w[lay.t_oa], c_p)

    out = np.empty(xv.shape[:-1] + (lay.h_dim,))
    h = out.T
    h[lay.lower] = lo - x
    h[lay.upper] = x[lay.upper_x] - hi[lay.upper_x]
    h[lay.m_ra_nonneg], h[lay.m_sa_total_max] = o - m, m - p.m_design
    h[lay.ventilation] = m * w[lay.m_oa_min] - mvec * o
    h[lay.t_da_low] = c_p * mvec * (T - t_sp) - q_zone
    h[lay.t_da_high] = q_zone - c_p * mvec * (T_SUPPLY_MAX - t_sp)
    h[lay.Q_b_nonneg], h[lay.Q_b_max] = -q_b, q_b - p.Q_b_rated
    bal = a - b - q_ahu
    h[lay.balance] = bal
    h[lay.balance_neg] = -bal
    j = source_power(v.p_fan, v.p_chiller, v.p_boiler, p.alpha_el,
                     p.alpha_ng)
    return Value(j, out, v)


def constraints_flat(xv, wv, c_p, flow_floor) -> np.ndarray:
    """h(x, w) alone: `value_flat`'s h."""
    return value_flat(xv, wv, c_p, *simple_bounds(wv, flow_floor)).h


FirstOrder = namedtuple("FirstOrder", "j grad h jac v gq fan1 etap d1 pc1")


def first_order_flat(val: Value, xv: np.ndarray, wv: np.ndarray,
                     c_p: float) -> FirstOrder:
    """The first order at (x, w), built on `val`, the point's `value_flat`
    record: J_smooth, grad_x J, h, jac_x h, then the `values` v, the Q_b
    gradient gq and the curve slopes that `derivatives_flat` builds on.

    j, h and v are the record's own objects. On S rows, (S, m) and
    (S, p), j, grad, h and jac have a leading axis of S, and row i has
    the bits of the call at that row's point; gq is (m, S), and v and
    the slopes are (S,), scalars at a point.
    """
    lay = layout_of(wv, xv)
    x, w = xv.T, wv.T
    T, o, mvec = x[lay.t_sa], x[lay.m_oa], x[lay.m_sa]
    b = x[lay.q_c]
    t_oa, t_sp, v_min = w[lay.t_oa], w[lay.t_sp], w[lay.m_oa_min]
    p = Tail._make(w[lay.tail])
    mdim = lay.x_dim
    rows = xv.shape[:-1]
    iM = lay.m_sa
    iA, iB = lay.q_h, lay.q_c

    v = val.v
    m, s_t, u, r, eta = v.m, v.s_t, v.u, v.r, v.eta
    f_plp = p.c_f_2 + u * (2.0 * p.c_f_3 + u * 3.0 * p.c_f_4)
    fan1 = v.gain * f_plp             # dP_fan/dm_i, equal for all zones
    etap = p.c_b_2 + 2.0 * p.c_b_3 * r
    d1 = (eta - r * etap) / (p.eta_thermal * eta ** 2)   # dP_b/dQ_b
    pc1 = p.c_g_2 + 2.0 * p.c_g_3 * b / p.Q_e_rated      # dP_chiller/dq_c

    # --- gradients of Q_b and Q_ahu ---
    gq = np.zeros((mdim,) + rows)
    gq[lay.t_sa] = -c_p * m
    gq[iM] = c_p * (t_sp - T)
    gq[iA] = 1.0
    ga = np.zeros((mdim,) + rows)
    ga[lay.t_sa] = c_p * m
    ga[lay.m_oa] = c_p * (s_t / m - t_oa)
    ga[iM] = c_p * (T - t_sp + o * (t_sp * m - s_t) / m ** 2)

    grad = p.alpha_ng * d1 * gq
    grad[iM] += p.alpha_el * fan1
    grad[iB] += p.alpha_el * pc1

    # index arrays: zone flows in x, and the zone row blocks of h
    xm, vent, low, high = (lay.index[k] for k in (
        "m_sa", "ventilation", "t_da_low", "t_da_high"))
    out = np.zeros(rows + (lay.h_dim, mdim))
    out[..., lay.lower, np.arange(mdim)] = -1.0
    out[..., lay.upper, lay.upper_x] = 1.0
    jac = out.T.swapaxes(0, 1)
    jac[lay.m_ra_nonneg, lay.m_oa] = 1.0
    jac[lay.m_ra_nonneg, iM] = -1.0
    jac[lay.m_sa_total_max, iM] = 1.0
    # ventilation (bilinear): h = m v_i - m_i o
    jac[vent[:, None], xm[None, :]] = v_min[:, None]
    jac[vent, xm] -= o
    jac[vent, lay.m_oa] = -mvec
    # T_da bounds: c_p m_i (T - T_sp_i) - Q_zone_i and
    # Q_zone_i - c_p m_i (T_SUPPLY_MAX - T_sp_i)
    jac[low, lay.t_sa] = c_p * mvec
    jac[low, xm] = c_p * (T - t_sp)
    jac[high, xm] = -c_p * (T_SUPPLY_MAX - t_sp)
    jac[lay.Q_b_nonneg] = -gq
    jac[lay.Q_b_max] = gq
    # AHU balance rows: +/- (q_h - q_c - Q_ahu)
    gbal = -ga
    gbal[iA] += 1.0
    gbal[iB] -= 1.0
    jac[lay.balance] = gbal
    jac[lay.balance_neg] = -gbal
    return FirstOrder(val.j, grad.T, val.h, out, v, gq, fan1, etap, d1, pc1)


# ---------------------------------------------------------------------------
# analytic derivatives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelDerivatives:
    """Analytic derivative blocks of J and every constraint row.

    Shapes (m = N + 4 decisions, p = 3N + 21 exogenous, n = 4N + 14 rows):
    grad_x_j (m,), hess_xx_j (m, m), hess_xw_j (m, p),
    jac_x_h (n, m), hess_xx_h (n, m, m), jac_w_h (n, p), hess_xw_h (n, m, p).
    """

    grad_x_j: np.ndarray
    hess_xx_j: np.ndarray
    hess_xw_j: np.ndarray
    jac_x_h: np.ndarray
    hess_xx_h: np.ndarray
    jac_w_h: np.ndarray
    hess_xw_h: np.ndarray


def derivatives_flat(first: FirstOrder, xv: np.ndarray, wv: np.ndarray,
                     c_p: float) -> ModelDerivatives:
    """All derivative blocks at (x, w), built on `first`, the point's
    `first_order_flat` record; the chiller term is the smooth expanded
    form (identical to the reported objective wherever q_c > 0).
    grad_x J and jac_x h are the record's own arrays; this adds the
    second-order blocks and the blocks in w, and writes nothing into
    the record."""
    lay = layout_of(wv, xv)
    v, gq, d1 = first.v, first.gq, first.d1
    fan1, etap, pc1 = first.fan1, first.etap, first.pc1
    m, s_t, u, gain, r, eta = v.m, v.s_t, v.u, v.gain, v.r, v.eta
    o, mvec, b = xv[lay.m_oa], xv[lay.m_sa], xv[lay.q_c]
    t_sp = wv[lay.t_sp]
    p, j = Tail._make(wv[lay.tail]), lay.param    # tail values, positions
    ael, ang, eta_th, qbr, qer = (p.alpha_el, p.alpha_ng, p.eta_thermal,
                                  p.Q_b_rated, p.Q_e_rated)

    mdim = lay.x_dim
    pdim = lay.w_dim
    iT, iO, iM, iB = lay.t_sa, lay.m_oa, lay.m_sa, lay.q_c
    jTOA, jQZ, jTSP = lay.t_oa, lay.q_zone, lay.t_sp

    # --- second derivatives and w-sensitivities of the curves ---
    etapp = 2.0 * p.c_b_3
    dd1_dr = (-r * etapp * eta - 2.0 * etap * (eta - r * etap)) / (eta_th * eta ** 3)
    d2 = dd1_dr / qbr                                    # d2P_b/dQ_b^2
    dd1_dqbr = -r * d2
    dd1_detath = -d1 / eta_th
    rk = np.array([1.0, r, r * r])
    dd1_dcb = (2.0 - np.array([1.0, 2.0, 3.0])) * rk / (eta_th * eta ** 2) \
        - 2.0 * d1 * rk / eta
    f_plpp = 2.0 * p.c_f_3 + 6.0 * p.c_f_4 * u
    fan2 = gain * f_plpp / p.m_design  # d2P_fan/dm_i dm_j
    pc2 = 2.0 * p.c_g_3 / qer

    hess_xx_h = np.zeros((lay.h_dim, mdim, mdim))
    jac_w_h = np.zeros((lay.h_dim, pdim))
    hess_xw_h = np.zeros((lay.h_dim, mdim, pdim))
    q_b_hi, bal_neg = lay.Q_b_max, lay.balance_neg
    # index arrays: zone entries of x and w, and the zone row blocks of h
    xm, wq, wt, wm, vent, low, high = (lay.index[k] for k in (
        "m_sa", "q_zone", "t_sp", "m_oa_min", "ventilation", "t_da_low",
        "t_da_high"))

    # --- Q_b and Q_ahu blocks, written in place as the rows
    # Q_b - Q_b_rated and -(q_h - q_c - Q_ahu) ---
    Hq, gwq, xwq = hess_xx_h[q_b_hi], jac_w_h[q_b_hi], hess_xw_h[q_b_hi]
    Hq[iT, iM] = -c_p
    Hq[iM, iT] = -c_p
    gwq[jQZ] = 1.0
    gwq[jTSP] = c_p * mvec
    xwq[iM, jTSP] = c_p * np.eye(lay.n)
    Ha, gwa, xwa = hess_xx_h[bal_neg], jac_w_h[bal_neg], hess_xw_h[bal_neg]
    Ha[iT, iM] = c_p
    Ha[iM, iT] = c_p
    cross_om = c_p * (t_sp * m - s_t) / m ** 2
    Ha[iO, iM] = cross_om
    Ha[iM, iO] = cross_om
    Ha[iM, iM] = c_p * o * (2.0 * s_t / m ** 3
                            - (t_sp[:, None] + t_sp[None, :]) / m ** 2)
    gwa[jTOA] = -c_p * o
    gwa[jTSP] = -c_p * mvec * (m - o) / m
    xwa[iO, jTOA] = -c_p
    xwa[iO, jTSP] = c_p * mvec / m
    xwa[iM, jTSP] = -c_p * (o / m ** 2) * np.outer(np.ones(lay.n), mvec)
    xwa[xm, wt] += c_p * (o / m - 1.0)

    # --- objective blocks ---
    hess_xx_j = ang * (d2 * np.outer(gq, gq) + d1 * Hq)
    hess_xx_j[iM, iM] += ael * fan2
    hess_xx_j[iB, iB] += ael * pc2

    hess_xw_j = np.zeros((mdim, pdim))
    hess_xw_j[:, jQZ] = (ang * d2) * gq[:, None]
    hess_xw_j[:, jTSP] = (ang * d2 * c_p) * np.outer(gq, mvec)
    hess_xw_j[iM, jTSP] += ang * d1 * c_p * np.eye(lay.n)
    hess_xw_j[iM, j.delta_P] = ael * fan1 / p.delta_P
    hess_xw_j[iM, j.eta_tot] = -ael * fan1 / p.eta_tot
    hess_xw_j[iM, j.rho_air] = -ael * fan1 / p.rho_air
    hess_xw_j[iM, j.m_design] = -ael * gain * f_plpp * u / p.m_design
    hess_xw_j[iM, j.c_f_2] = ael * gain
    hess_xw_j[iM, j.c_f_3] = ael * gain * 2.0 * u
    hess_xw_j[iM, j.c_f_4] = ael * gain * 3.0 * u ** 2
    hess_xw_j[:, j.Q_b_rated] = ang * dd1_dqbr * gq
    hess_xw_j[:, j.eta_thermal] = ang * dd1_detath * gq
    hess_xw_j[:, [j.c_b_1, j.c_b_2, j.c_b_3]] = gq[:, None] * (ang * dd1_dcb)
    hess_xw_j[iB, j.Q_e_rated] = -ael * 2.0 * p.c_g_3 * b / qer ** 2
    hess_xw_j[iB, j.c_g_2] = ael
    hess_xw_j[iB, j.c_g_3] = ael * 2.0 * b / qer
    hess_xw_j[iM, j.alpha_el] = fan1
    hess_xw_j[iB, j.alpha_el] = pc1
    hess_xw_j[:, j.alpha_ng] = d1 * gq

    # --- constraint blocks (jac_x h comes with the first order) ---
    jac_w_h[lay.m_oa_min_total, lay.m_oa_min] = 1.0
    jac_w_h[lay.upper[1:], lay.upper_w] = -1.0
    jac_w_h[lay.m_sa_total_max, j.m_design] = -1.0
    # ventilation (bilinear): h = m v_i - m_i o
    hess_xx_h[vent, iO, xm] = -1.0
    hess_xx_h[vent, xm, iO] = -1.0
    jac_w_h[vent, wm] = m
    hess_xw_h[vent, iM, wm] = 1.0
    # T_da lower bound: c_p m_i (T - T_sp_i) - Q_zone_i
    hess_xx_h[low, iT, xm] = c_p
    hess_xx_h[low, xm, iT] = c_p
    jac_w_h[low, wq] = -1.0
    jac_w_h[low, wt] = -c_p * mvec
    hess_xw_h[low, xm, wt] = -c_p
    # T_da upper bound: Q_zone_i - c_p m_i (T_SUPPLY_MAX - T_sp_i)
    jac_w_h[high, wq] = 1.0
    jac_w_h[high, wt] = c_p * mvec
    hess_xw_h[high, xm, wt] = c_p
    # rows -Q_b and (q_h - q_c - Q_ahu) negate the rows filled above
    for blocks in (hess_xx_h, jac_w_h, hess_xw_h):
        blocks[lay.Q_b_nonneg] = -blocks[q_b_hi]
        blocks[lay.balance] = -blocks[bal_neg]
    jac_w_h[q_b_hi, j.Q_b_rated] -= 1.0

    return ModelDerivatives(
        grad_x_j=first.grad, hess_xx_j=hess_xx_j, hess_xw_j=hess_xw_j,
        jac_x_h=first.jac, hess_xx_h=hess_xx_h, jac_w_h=jac_w_h,
        hess_xw_h=hess_xw_h,
    )
