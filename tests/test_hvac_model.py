import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbase import hvac_model as hm
from gridbase import baseline_opt, numkit
from gridbase import sensitivity as sn
from gridbase.errors import DegenerateFlowError, InvalidCurveError

from conftest import scaled_params


# ---------------------------------------------------------------------------
# equipment-curve identities (coefficients from the nominal parameter set)
# ---------------------------------------------------------------------------

def test_fan_partload_curve_at_design_flow(params):
    assert abs(sum(params.c_f) - 0.9898) < 1e-12


def test_boiler_efficiency_at_rated_load(params):
    assert abs(sum(params.c_b) - 1.0) < 1e-12


def test_chiller_generation_curve_at_rated_load(params):
    assert abs(sum(params.c_g) - 1.00003) < 1e-12


def test_fan_power_at_design_flow(params):
    # independent arithmetic: dP/(eta rho) * m * f_pl(1)
    expected = 1000.0 / (0.7 * 1.225) * 2.98 * 0.9898
    assert abs(hm.fan_power(2.98, params) - expected) < 1e-9 * expected


def test_fan_power_zero_flow_is_static_term(params):
    expected = 1000.0 / (0.7 * 1.225) * 2.98 * 0.3507
    assert abs(hm.fan_power(0.0, params) - expected) < 1e-12 * expected


def test_boiler_efficiency_at_half_load(params):
    q = 0.5 * params.Q_b_rated
    eta = 0.97 + 0.0633 * 0.5 - 0.0333 * 0.25
    expected = q / (0.8 * eta)
    assert abs(hm.boiler_power(q, params) - expected) < 1e-12 * expected


def test_boiler_power_zero_load_is_zero(params):
    assert hm.boiler_power(0.0, params) == 0.0


def test_boiler_rejects_nonpositive_efficiency(params):
    """The curve is positive on part-load ratios in [0, 1], so the
    parameters build, but not at twice the rated load."""
    bad = dataclasses.replace(params, c_b=(0.1, 0.0, -0.05))
    with pytest.raises(InvalidCurveError):
        hm.boiler_power(2.0 * bad.Q_b_rated, bad)


@pytest.mark.parametrize("c_b", [
    (0.97, 0.0633, -2.0), (0.0, 0.5, 0.0), (0.6, -2.0, 1.6), (0.1, -0.5, 0.0),
], ids=["negative-at-rated", "zero-at-no-load", "negative-at-vertex",
        "negative-past-0.2"])
def test_parameters_reject_boiler_curve_not_positive_on_unit_interval(
        params, c_b):
    """The Q_b rows hold the part-load ratio in [0, 1], where the flat
    model divides by the boiler efficiency: a curve that is not positive
    there would bill negative source energy, so it does not build. The
    third curve is positive at both ends, with -0.025 at r = 0.625."""
    with pytest.raises(ValueError, match="c_b"):
        dataclasses.replace(params, c_b=c_b)


def test_chiller_hard_off_at_zero_load(params):
    assert hm.chiller_power(0.0, params) == 0.0


def test_chiller_standby_limit(params):
    # lim q->0+ of the expanded curve is c_g1 * Q_e_rated + P_pump
    expected = 0.03303 * (1.47e8 / 3600.0) + 1.8e6 / 3600.0
    tiny = hm.chiller_power(1e-9, params)
    assert abs(tiny - expected) < 1e-6


def test_chiller_matches_smooth_curve_when_on(params):
    c, rated = params.c_g, params.Q_e_rated
    for q in (1.0, 0.3 * rated, rated):
        smooth = c[0] * rated + c[1] * q + c[2] * q * q / rated + params.P_pump
        assert hm.chiller_power(q, params) == smooth


def test_rated_duties_in_watts(params):
    assert params.Q_b_rated == pytest.approx(1.09e8 / 3600.0, rel=1e-15)
    assert params.Q_e_rated == pytest.approx(1.47e8 / 3600.0, rel=1e-15)
    assert params.P_pump == pytest.approx(500.0, rel=1e-12)


# ---------------------------------------------------------------------------
# parameter file round-trip
# ---------------------------------------------------------------------------

def test_parameters_roundtrip(tmp_path, params):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(hm.dump_parameters(params)))
    loaded = hm.load_parameters(path)
    assert loaded == params


def test_parameters_partial_file_keeps_defaults(tmp_path, params):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"alpha_el": 2.5}))
    loaded = hm.load_parameters(path)
    assert loaded.alpha_el == 2.5
    assert loaded.m_design == params.m_design


def test_parameters_unknown_key_rejected(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"not_a_parameter": 1.0}))
    with pytest.raises(ValueError, match="not_a_parameter"):
        hm.load_parameters(path)


_FINITE_TARGETS = [
    (f.name, None) for f in dataclasses.fields(hm.HvacParameters)
    if isinstance(f.default, float)] + [
    (curve, i) for curve in ("c_f", "c_b", "c_g")
    for i in range(len(getattr(hm.HvacParameters, curve)))]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name, index", _FINITE_TARGETS)
def test_parameters_reject_non_finite(params, name, index, value):
    if index is None:
        bad = value
    else:
        bad = list(getattr(params, name))
        bad[index] = value
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(params, **{name: bad})


@pytest.mark.parametrize("count", [5.7, math.inf, math.nan])
def test_parameters_file_rejects_non_integral_zone_count(tmp_path, count):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"zone_count": count}))
    with pytest.raises(ValueError, match="zone_count"):
        hm.load_parameters(path)


@pytest.mark.parametrize("text, named", [
    ('[1, 2]', "JSON object"), ('{"delta_P": null}', "delta_P"),
    ('{"eta_tot": "0.7"}', "eta_tot"), ('{"alpha_el": true}', "alpha_el"),
    ('{"Q_b_rated": 1' + "0" * 400 + '}', "Q_b_rated"),
    ('{"zone_count": null}', "zone_count"), ('{"c_f": 5}', "c_f"),
    ('{"c_b": [0.97, null, -0.0333]}', "c_b"),
], ids=["list", "null", "string", "bool", "overflow", "null-zone-count",
        "number-curve", "null-coefficient"])
def test_parameters_file_rejects_non_numbers(tmp_path, text, named):
    """A value that is not a JSON number (a list of them for a curve) is a
    ValueError naming its key, not a TypeError or OverflowError."""
    path = tmp_path / "p.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=named):
        hm.load_parameters(path)


def _zones(n=5, m_oa_min=0.05):
    return hm.ZoneInputs(np.zeros(n), np.full(n, 22.0), np.full(n, m_oa_min))


def _hour():
    return hm.ExogenousVector(t_oa=20.0, zones=_zones(),
                              params=hm.HvacParameters())


_POSITIVE = ("c_p", "delta_P", "rho_air", "m_design", "Q_b_rated",
             "Q_e_rated", "P_pump", "flow_floor")


@pytest.mark.parametrize("build, match", [
    (lambda: hm.HvacParameters(zone_count=0), "zone_count must be >= 1"),
    *[(lambda name=name: hm.HvacParameters(**{name: 0.0}),
       f"{name} must be positive") for name in _POSITIVE],
    *[(lambda name=name, v=v: hm.HvacParameters(**{name: v}),
       rf"{name} must be in \(0, 1\]")
      for name in ("eta_tot", "eta_thermal") for v in (0.0, 1.5)],
    *[(lambda curve=curve: hm.HvacParameters(
        **{curve: getattr(hm.HvacParameters, curve)[:-1]}),
       "curve coefficient lengths") for curve in ("c_f", "c_b", "c_g")],
    (lambda: hm.ZoneInputs(np.zeros(5), np.full(4, 22.0), np.zeros(5)),
     "share one length"),
    (lambda: _zones(m_oa_min=-0.01), "m_oa_min must be non-negative"),
    (lambda: hm.ExogenousVector(t_oa=20.0, zones=_zones(4),
                                params=hm.HvacParameters()),
     "does not match zone_count"),
    (lambda: _hour().with_vector(_hour().to_vector()[:-1]),
     "expected 36 entries, got 35"),
], ids=["zone-count", *_POSITIVE, "eta_tot-0", "eta_tot-1.5",
        "eta_thermal-0", "eta_thermal-1.5", "c_f-length", "c_b-length",
        "c_g-length", "zone-lengths", "negative-m_oa_min",
        "zones-vs-zone_count", "with-vector-size"])
def test_inputs_refuse_bad_values(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# ---------------------------------------------------------------------------
# registry vector
# ---------------------------------------------------------------------------

def test_registry_dimension(hot_hour):
    n = hot_hour.zones.count
    vec = hot_hour.to_vector()
    assert vec.size == 1 + 3 * n + 20 == 36
    assert len(hot_hour.labels()) == vec.size


def test_registry_labels_unique(hot_hour):
    labels = hot_hour.labels()
    assert len(set(labels)) == len(labels)


def test_registry_roundtrip_bit_exact(hot_hour):
    vec = hot_hour.to_vector()
    again = hot_hour.with_vector(vec).to_vector()
    assert np.array_equal(vec, again)


def test_registry_index_matches_labels(hot_hour):
    for i, lab in enumerate(hot_hour.labels()):
        assert hot_hour.index(lab) == i
    with pytest.raises(KeyError):
        hot_hour.index("no_such_label")


def test_registry_mutation_roundtrip(hot_hour):
    vec = hot_hour.to_vector()
    vec[hot_hour.index("T_oa")] = -7.5
    vec[hot_hour.index("c_f_3")] = 0.25
    w2 = hot_hour.with_vector(vec)
    assert w2.t_oa == -7.5
    assert w2.params.c_f[2] == 0.25


@pytest.mark.parametrize("label, field", [
    ("T_oa", "t_oa"), ("Q_zone_2", "q_zone"), ("T_sp_2", "t_sp"),
    ("m_oa_min_2", "m_oa_min")])
def test_hour_inputs_reject_non_finite(hot_hour, label, field):
    """A NaN or infinite hour input is a ValueError naming its field when
    the hour is built, by `make_exogenous` or `with_vector`; the solver
    would read it as an infeasible hour or fail in its random starts."""
    lay = hm.layout(hot_hour.zones.count)
    for bad in (math.nan, math.inf, -math.inf):
        vec = hot_hour.to_vector()
        vec[hot_hour.index(label)] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            hot_hour.with_vector(vec)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            hm.make_exogenous(vec[lay.t_oa], vec[lay.q_zone],
                              vec[lay.t_sp], vec[lay.m_oa_min],
                              hot_hour.params)


# ---------------------------------------------------------------------------
# decision vector and constraint layout
# ---------------------------------------------------------------------------

def test_decision_dimensions():
    assert hm.layout(5).h_dim == 34
    assert len(hm.layout(5).labels) == 34


# the parameter tail of w, in `HvacParameters`' field order
_TAIL_LABELS = (
    "delta_P", "eta_tot", "rho_air", "m_design", "c_f_1", "c_f_2", "c_f_3",
    "c_f_4", "Q_b_rated", "eta_thermal", "c_b_1", "c_b_2", "c_b_3",
    "Q_e_rated", "P_pump", "c_g_1", "c_g_2", "c_g_3", "alpha_el", "alpha_ng")
_NAMED_ROWS = ("m_oa_min_total", "m_ra_nonneg", "m_sa_total_max",
               "Q_b_nonneg", "Q_b_max")
# n: lower, upper, upper_x, upper_w, the named rows, the balance pair,
# tail, w_dim, h_dim
_PINNED_POSITIONS = {
    1: ([0, 2, 6, 10, 12], [1, 3, 11, 13], [0, 1, 3, 4], [7, 12, 17],
        (2, 4, 5, 14, 15), (16, 17), slice(4, 24), 24, 18),
    5: ([0, 2, 6, 7, 8, 9, 10, 26, 28], [1, 3, 27, 29], [0, 1, 7, 8],
        [19, 24, 29], (2, 4, 5, 30, 31), (32, 33), slice(16, 36), 36, 34),
    8: ([0, 2, 6, 7, 8, 9, 10, 11, 12, 13, 38, 40], [1, 3, 39, 41],
        [0, 1, 10, 11], [28, 33, 38], (2, 4, 5, 42, 43), (44, 45),
        slice(25, 45), 45, 46),
}


def test_layout_positions():
    """`layout(n)` derives every position from its labels, and the
    positions are today's integers; each named row and each tail entry
    carries its own label; every parameter in w moves exactly the one
    `to_vector` entry that carries its label, and c_p and the flow floor
    move none."""
    for n, pinned in _PINNED_POSITIONS.items():
        lay = hm.layout(n)
        (lower, upper, upper_x, upper_w, named, balance, tail, w_dim,
         h_dim) = pinned
        assert lay.lower.tolist() == lower and lay.upper.tolist() == upper
        assert lay.upper_x.tolist() == upper_x
        assert lay.upper_w.tolist() == upper_w
        assert tuple(getattr(lay, k) for k in _NAMED_ROWS) == named
        assert (lay.balance, lay.balance_neg) == balance
        assert lay.tail == tail and (lay.w_dim, lay.h_dim) == (w_dim, h_dim)
        assert [getattr(lay.param, k) for k in _TAIL_LABELS] == list(
            range(tail.start, tail.stop))

    for n in (1, 2, 3, 5, 8, 13, 40):
        lay = hm.layout(n)
        labels = np.array(lay.labels)
        for name in _NAMED_ROWS:
            assert lay.labels[getattr(lay, name)] == name
        assert lay.labels[lay.balance] == "ahu_balance_pos"
        assert lay.labels[lay.balance_neg] == "ahu_balance_neg"
        assert list(labels[lay.lower]) == (
            ["T_sa_min", "m_oa_min_total"]
            + [f"m_sa_floor_{i + 1}" for i in range(n)]
            + ["q_h_nonneg", "q_c_nonneg"])
        assert list(labels[lay.upper]) == ["T_sa_max", "m_oa_max",
                                           "q_h_max", "q_c_max"]
        # the row order of Scaling.of's per-block scale tuples
        assert lay.labels[lay.air] == (
            "T_sa_min", "T_sa_max", "m_oa_min_total", "m_oa_max",
            "m_ra_nonneg", "m_sa_total_max")
        assert lay.labels[lay.duty] == (
            "q_h_nonneg", "q_h_max", "q_c_nonneg", "q_c_max", "Q_b_nonneg",
            "Q_b_max")
        assert lay.w_labels[lay.tail] == _TAIL_LABELS
        for k in _TAIL_LABELS:
            assert lay.w_labels[getattr(lay.param, k)] == k

        par = scaled_params(n)
        rng = np.random.default_rng(n)
        w = hm.make_exogenous(20.0, rng.uniform(-6000.0, 4000.0, n),
                              rng.uniform(20.0, 26.0, n),
                              rng.uniform(0.02, 0.1, n), par)
        base = w.to_vector()
        for f in dataclasses.fields(hm.HvacParameters):
            if f.name == "zone_count":   # fixed by the zone arrays
                continue
            value = getattr(par, f.name)
            parts = range(len(value)) if isinstance(value, tuple) else [None]
            for k in parts:
                if k is None:
                    new, label = 0.5 * value, f.name
                else:
                    new = value[:k] + (0.5 * value[k],) + value[k + 1:]
                    label = f"{f.name}_{k + 1}"
                moved = np.flatnonzero(dataclasses.replace(w, params=(
                    dataclasses.replace(par, **{f.name: new}))).to_vector()
                    != base)
                if f.name in ("c_p", "flow_floor"):
                    assert moved.size == 0, f.name
                else:
                    assert moved.tolist() == [w.index(label)], label


def test_decision_vector_roundtrip():
    x = hm.DecisionVector(t_sa=15.0, m_oa=0.5,
                          m_sa=np.array([0.2, 0.3, 0.4, 0.2, 0.3]),
                          q_h=100.0, q_c=0.0)
    again = hm.DecisionVector.from_vector(x.to_vector())
    assert np.array_equal(x.to_vector(), again.to_vector())


def _feasible_point(n=5):
    return hm.DecisionVector(
        t_sa=16.0, m_oa=0.6,
        m_sa=np.array([0.45, 0.35, 0.55, 0.3, 0.4]),
        q_h=0.0, q_c=18000.0)


def test_evaluate_air_loop_balances(hot_hour):
    x = _feasible_point()
    pt = hm.evaluate(x, hot_hour)
    m = x.m_sa.sum()
    assert pt.m_sa_total == pytest.approx(m)
    assert pt.m_ra == pytest.approx(m - x.m_oa)
    # mixing box energy balance
    t_ma = (pt.m_ra * pt.t_ra + x.m_oa * hot_hour.t_oa) / m
    assert pt.t_ma == pytest.approx(t_ma, rel=1e-12)
    # return temperature is the flow-weighted setpoint
    t_ra = float(x.m_sa @ hot_hour.zones.t_sp) / m
    assert pt.t_ra == pytest.approx(t_ra, rel=1e-12)


def test_evaluate_objective_composition(hot_hour):
    x = _feasible_point()
    pt = hm.evaluate(x, hot_hour)
    par = hot_hour.params
    expected = par.alpha_el * (pt.p_fan + pt.p_chiller) \
        + par.alpha_ng * pt.p_boiler
    assert pt.j_source == pytest.approx(expected, rel=1e-14)


def test_evaluate_rejects_degenerate_flow(hot_hour):
    x = hm.DecisionVector(t_sa=16.0, m_oa=0.2,
                          m_sa=np.array([1e-6, 0.3, 0.3, 0.3, 0.3]),
                          q_h=0.0, q_c=1000.0)
    with pytest.raises(DegenerateFlowError):
        hm.evaluate(x, hot_hour)


def test_objective_flat_matches_evaluate(hot_hour):
    x = _feasible_point()
    j_flat = hm.objective_flat(x.to_vector(), hot_hour.to_vector(),
                               hot_hour.params.c_p)
    assert j_flat == pytest.approx(hm.evaluate(x, hot_hour).j_source,
                                   rel=1e-14)


def test_objective_smooth_differs_only_by_standby(hot_hour):
    par = hot_hour.params
    x = hm.DecisionVector(t_sa=22.0, m_oa=0.6,
                          m_sa=np.full(5, 0.4), q_h=5000.0, q_c=0.0)
    xv, wv = x.to_vector(), hot_hour.to_vector()
    j_hard = hm.objective_flat(xv, wv, par.c_p)
    j_smooth = hm.value_flat(xv, wv, par.c_p,
                             *hm.simple_bounds(wv, par.flow_floor)).j
    standby = par.alpha_el * (par.c_g[0] * par.Q_e_rated + par.P_pump)
    assert j_smooth - j_hard == pytest.approx(standby, rel=1e-12)


def test_constraint_rows_sign_convention(hot_hour):
    x = _feasible_point()
    par = hot_hour.params
    h = hm.constraints_flat(x.to_vector(), hot_hour.to_vector(), par.c_p,
                            par.flow_floor)
    assert h.size == 34
    # strictly feasible interior rows are negative, balance rows cancel
    assert h[0] == pytest.approx(12.0 - x.t_sa)
    assert h[-1] == -h[-2]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_coupled_rows_match_evaluate(n):
    """The rows of h that couple several entries, from `value_flat`,
    against the air loop of the structured `evaluate`, which computes
    them its own way: m_ra, each T_da, q_b and Q_ahu. Each row is within
    1e-12 of the solver's scale of that row (`Scaling.h`)."""
    par = scaled_params(n)
    c_p, labels = par.c_p, hm.layout(n).labels
    rng = np.random.default_rng(100 + n)
    for _ in range(6):
        w = hm.make_exogenous(
            rng.uniform(-5.0, 38.0), rng.uniform(-6000.0, 4000.0, n),
            rng.uniform(20.0, 26.0, n), rng.uniform(0.02, 0.1, n), par)
        x = hm.DecisionVector(
            t_sa=rng.uniform(12.0, 37.0), m_oa=rng.uniform(0.2, 1.5),
            m_sa=rng.uniform(0.1, 0.6, n), q_h=rng.uniform(0.0, 5000.0),
            q_c=rng.uniform(0.0, 30000.0))
        pt = hm.evaluate(x, w)
        val = hm.value_flat(x.to_vector(), w.to_vector(), c_p,
                            *hm.simple_bounds(w.to_vector(),
                                              par.flow_floor))
        h = dict(zip(labels, val.h))
        scale = dict(zip(labels, baseline_opt.Scaling.of(w).h))
        balance = x.q_h - x.q_c - pt.q_ahu
        want = {"m_ra_nonneg": -pt.m_ra,
                "m_sa_total_max": pt.m_sa_total - par.m_design,
                "Q_b_nonneg": -pt.q_b, "Q_b_max": pt.q_b - par.Q_b_rated,
                "ahu_balance_pos": balance, "ahu_balance_neg": -balance}
        for i in range(n):
            flow = c_p * x.m_sa[i]
            want[f"ventilation_{i + 1}"] = \
                pt.m_sa_total * w.zones.m_oa_min[i] - x.m_sa[i] * x.m_oa
            want[f"T_da_low_{i + 1}"] = flow * (x.t_sa - pt.t_da[i])
            want[f"T_da_high_{i + 1}"] = flow * (pt.t_da[i] - hm.T_SUPPLY_MAX)
        assert len(want) == 6 + 3 * n
        for label, value in want.items():
            assert abs(h[label] - value) <= 1e-12 * scale[label], label


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_simple_bound_rows_are_the_box(n):
    """Each simple-bound row is lo[i] - x[i] or x[i] - hi[i], bit for bit,
    with jac_x h row -e_i or +e_i, at a point and on S rows. The solver's
    box is those values except m_oa >= 0 and m_sa <= m_design."""
    par = scaled_params(n)
    lay = hm.layout(n)
    labels = np.array(lay.labels)
    assert list(labels[lay.lower]) == (
        ["T_sa_min", "m_oa_min_total"]
        + [f"m_sa_floor_{i + 1}" for i in range(n)]
        + ["q_h_nonneg", "q_c_nonneg"])
    assert list(labels[lay.upper]) == ["T_sa_max", "m_oa_max", "q_h_max",
                                       "q_c_max"]
    rng = np.random.default_rng(n)
    S = 6
    W = np.array([hm.make_exogenous(
        rng.uniform(-5.0, 38.0), rng.uniform(-6000.0, 4000.0, n),
        rng.uniform(20.0, 26.0, n), rng.uniform(0.02, 0.1, n),
        par).to_vector() for _ in range(S)])
    X = np.column_stack([
        rng.uniform(12.0, 37.0, S), rng.uniform(0.2, 1.5, S),
        rng.uniform(0.0, 0.6, (S, n)), rng.uniform(0.0, 5000.0, S),
        rng.uniform(0.0, 30000.0, S)])
    X[0, lay.t_sa], X[1, lay.q_h] = 12.0, 0.0   # on a bound
    up_x = lay.upper_x
    lo, hi = hm.simple_bounds(W, par.flow_floor)
    rows = _first_order(X, W, par)
    h_rows, jac_rows = rows.h, rows.jac
    assert np.array_equal(h_rows[:, lay.lower], lo.T - X)
    assert np.array_equal(h_rows[:, lay.upper], X[:, up_x] - hi.T[:, up_x])
    eye = np.eye(lay.x_dim)
    assert np.array_equal(jac_rows[:, lay.lower], np.broadcast_to(
        -eye, (S,) + eye.shape))
    assert np.array_equal(jac_rows[:, lay.upper], np.broadcast_to(
        eye[up_x], (S, up_x.size, lay.x_dim)))
    for xv, wv, lo_row, hi_row in zip(X, W, lo.T, hi.T):
        lo, hi = hm.simple_bounds(wv, par.flow_floor)
        assert np.array_equal(lo, lo_row) and np.array_equal(hi, hi_row)
        assert list(lo) == [12.0, wv[lay.m_oa_min].sum()] \
            + [par.flow_floor] * n + [0.0, 0.0]
        assert list(hi[up_x]) == [37.0, par.m_design, par.Q_b_rated,
                                  par.Q_e_rated]
        assert np.isinf(hi[lay.m_sa]).all()
        h = hm.constraints_flat(xv, wv, par.c_p, par.flow_floor)
        jac = _derivatives(xv, wv, par).jac_x_h
        assert np.array_equal(h[lay.lower], lo - xv)
        assert np.array_equal(h[lay.upper], xv[up_x] - hi[up_x])
        assert np.array_equal(jac[lay.lower], -eye)
        assert np.array_equal(jac[lay.upper], eye[up_x])
        box_lo, box_hi = hm.x_box(wv, par.flow_floor)
        moved_lo = np.flatnonzero(box_lo != lo)
        moved_hi = np.flatnonzero(box_hi != hi)
        assert list(moved_lo) == [lay.m_oa] and box_lo[lay.m_oa] == 0.0
        assert list(moved_hi) == list(lay.index["m_sa"])
        assert (box_hi[lay.m_sa] == par.m_design).all()


# ---------------------------------------------------------------------------
# the zone count comes from the arrays
# ---------------------------------------------------------------------------

def _flat_point(n):
    """The flat (x, w) of an n-zone hour."""
    w = hm.make_exogenous(30.0, np.full(n, -3000.0), np.full(n, 23.0),
                          np.full(n, 0.05), scaled_params(n))
    x = hm.DecisionVector(t_sa=16.0, m_oa=0.6, m_sa=np.full(n, 0.4),
                          q_h=0.0, q_c=18000.0)
    return x.to_vector(), w.to_vector()


_C_P, _FLOOR = hm.HvacParameters().c_p, hm.HvacParameters().flow_floor
# the eight functions that read N from w, each at (x, w); the lengths are
# checked before a record, a bound or a multiplier is read, so those are
# None here
_FLAT = {
    "value_flat": lambda x, w: hm.value_flat(x, w, _C_P, None, None),
    "first_order_flat": lambda x, w: hm.first_order_flat(None, x, w, _C_P),
    "derivatives_flat": lambda x, w: hm.derivatives_flat(None, x, w, _C_P),
    "objective_flat": lambda x, w: hm.objective_flat(x, w, _C_P),
    "constraints_flat": lambda x, w: hm.constraints_flat(x, w, _C_P, _FLOOR),
    "kkt_map": lambda x, w: sn.kkt_map(x, w, None, _C_P, _FLOOR),
    "simple_bounds": lambda x, w: hm.simple_bounds(w, _FLOOR),
    "x_box": lambda x, w: hm.x_box(w, _FLOOR),
}


@pytest.mark.parametrize("name", list(_FLAT))
def test_mismatched_zone_counts_raise(name):
    """Each flat function raises ValueError for a w that is not 3N + 21
    long, and each that takes x for an x and a w of different N, naming
    both lengths."""
    call = _FLAT[name]
    for n in (1, 5, 8):
        xv, wv = _flat_point(n)
        for bad in (wv[:-1], np.append(wv, 0.0), wv[:21]):
            with pytest.raises(ValueError,
                               match=f"^w has {bad.size} entries, not 3N"):
                call(xv, bad)
        if name in ("simple_bounds", "x_box"):
            continue
        for m in {1, 5, 8} - {n}:
            other = _flat_point(m)[1]
            with pytest.raises(ValueError, match=(
                    f"^x has {n + 4} entries and w {3 * m + 21}: ")):
                call(xv, other)


def test_a_five_zone_hour_is_not_read_as_three_zones(hot_hour):
    """Read as 3 zones (x's first 7 and w's first 30 entries), this
    5-zone hour's J is -1,466,484.3 W, where its J is 44,935.6 W. A zone
    count passed beside the arrays could ask for that reading; with N
    read from w, a 3-zone cut of either array against the other raises."""
    xv, wv = _feasible_point().to_vector(), hot_hour.to_vector()
    c_p = hot_hour.params.c_p
    with pytest.raises(ValueError, match="^x has 7 entries and w 36: "):
        hm.objective_flat(xv[:7], wv, c_p)
    with pytest.raises(ValueError, match="^x has 9 entries and w 30: "):
        hm.objective_flat(xv, wv[:30], c_p)
    assert hm.objective_flat(xv[:7], wv[:30], c_p) == pytest.approx(
        -1466484.3, abs=0.05)
    assert hm.objective_flat(xv, wv, c_p) == pytest.approx(44935.6, abs=0.05)


# ---------------------------------------------------------------------------
# analytic derivatives vs finite differences
# ---------------------------------------------------------------------------

def _first_order(xv, wv, par):
    """first_order_flat on the point's own value_flat record."""
    val = hm.value_flat(xv, wv, par.c_p,
                        *hm.simple_bounds(wv, par.flow_floor))
    return hm.first_order_flat(val, xv, wv, par.c_p)


def _derivatives(xv, wv, par):
    """derivatives_flat on the point's own first_order_flat record."""
    return hm.derivatives_flat(_first_order(xv, wv, par), xv, wv, par.c_p)


def _random_interior_points(w, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        x = hm.DecisionVector(
            t_sa=rng.uniform(13.0, 30.0),
            m_oa=rng.uniform(0.3, 1.5),
            m_sa=rng.uniform(0.2, 0.55, 5),
            q_h=rng.uniform(100.0, 5000.0),
            q_c=rng.uniform(100.0, 20000.0))
        pts.append(x.to_vector())
    return pts


def test_first_derivatives_match_fd(hot_hour):
    wv = hot_hour.to_vector()
    c_p = hot_hour.params.c_p
    floor = hot_hour.params.flow_floor
    for xv in _random_interior_points(hot_hour, 5, seed=0):
        d = _derivatives(xv, wv, hot_hour.params)
        g_fd = numkit.fd_gradient(
            lambda z: hm.value_flat(
                z, wv, c_p, *hm.simple_bounds(wv, floor)).j, xv)
        scale = np.abs(d.grad_x_j).max()
        assert np.abs(g_fd - d.grad_x_j).max() < 1e-6 * scale

        h0 = hm.constraints_flat(xv, wv, c_p, floor)
        for k in range(xv.size):
            e = np.zeros(xv.size)
            e[k] = 1e-5 * max(1.0, abs(xv[k]))
            hp = hm.constraints_flat(xv + e, wv, c_p, floor)
            hmn = hm.constraints_flat(xv - e, wv, c_p, floor)
            fd = (hp - hmn) / (2 * e[k])
            err = np.abs(fd - d.jac_x_h[:, k]).max()
            assert err < 1e-5 * max(1.0, np.abs(d.jac_x_h[:, k]).max())


def test_first_order_flat_matches_constraints_and_derivatives():
    # the solver's line search reads J and h from value_flat, and its
    # gradients, verify_kkt and the NNLS multipliers read first_order_flat
    # built on that record: the record must hand on its own j, h and v,
    # constraints_flat must be its h, and derivatives_flat must hand on
    # the first-order record's own grad and jac
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8, 13):
        par = scaled_params(n)
        for k in range(12):
            w = hm.make_exogenous(
                rng.uniform(-5.0, 38.0), rng.uniform(-6000.0, 4000.0, n),
                rng.uniform(20.0, 26.0, n), rng.uniform(0.02, 0.1, n), par)
            xv = np.concatenate([
                [rng.uniform(12.0, 30.0), rng.uniform(0.2, 1.5)],
                rng.uniform(0.1, 0.6, n),
                [rng.uniform(0.0, 5000.0),
                 0.0 if k % 3 == 0 else rng.uniform(100.0, 30000.0)]])
            wv = w.to_vector()
            val = hm.value_flat(xv, wv, par.c_p,
                                *hm.simple_bounds(wv, par.flow_floor))
            first = hm.first_order_flat(val, xv, wv, par.c_p)
            d = hm.derivatives_flat(first, xv, wv, par.c_p)
            assert first.j is val.j and first.h is val.h
            assert first.v is val.v
            assert np.array_equal(first.h, hm.constraints_flat(
                xv, wv, par.c_p, par.flow_floor))
            assert d.grad_x_j is first.grad
            assert d.jac_x_h is first.jac
            if xv[-1] > 0.0:
                assert first.j == hm.objective_flat(xv, wv, par.c_p)


def test_second_derivatives_match_gradient_differences(hot_hour):
    wv = hot_hour.to_vector()
    par = hot_hour.params
    xv = _random_interior_points(hot_hour, 1, seed=3)[0]
    d = _derivatives(xv, wv, par)
    # hess_xx_j columns = FD of grad_x_j
    for k in range(xv.size):
        e = np.zeros(xv.size)
        e[k] = 1e-5 * max(1.0, abs(xv[k]))
        gp = _derivatives(xv + e, wv, par).grad_x_j
        gm = _derivatives(xv - e, wv, par).grad_x_j
        fd = (gp - gm) / (2 * e[k])
        scale = max(1.0, np.abs(d.hess_xx_j[:, k]).max())
        assert np.abs(fd - d.hess_xx_j[:, k]).max() < 1e-5 * scale
    # hess_xw_j columns = FD of grad_x_j in w
    for k in range(wv.size):
        e = np.zeros(wv.size)
        e[k] = 1e-5 * max(1.0, abs(wv[k]))
        gp = _derivatives(xv, wv + e, par).grad_x_j
        gm = _derivatives(xv, wv - e, par).grad_x_j
        fd = (gp - gm) / (2 * e[k])
        scale = max(1.0, np.abs(d.hess_xw_j[:, k]).max())
        assert np.abs(fd - d.hess_xw_j[:, k]).max() < 1e-4 * scale


@pytest.mark.parametrize("n", [1, 3, 8])
def test_constraint_hessians_match_jacobian_differences(n):
    # every row of hess_xx_h and hess_xw_h, zero rows included, against
    # central differences of first_order_flat's jac_x h in x and in w
    par = scaled_params(n)
    labels = np.array(hm.layout(n).labels)
    rng = np.random.default_rng(n)
    for _ in range(3):
        w = hm.make_exogenous(
            rng.uniform(-5.0, 38.0), rng.uniform(-6000.0, 4000.0, n),
            rng.uniform(20.0, 26.0, n), rng.uniform(0.02, 0.1, n), par)
        wv = w.to_vector()
        xv = np.concatenate([
            [rng.uniform(13.0, 30.0), rng.uniform(0.2, 1.5)],
            rng.uniform(0.1, 0.6, n),
            [rng.uniform(100.0, 5000.0), rng.uniform(100.0, 30000.0)]])
        d = _derivatives(xv, wv, par)

        def jac_at(x, v):
            return _first_order(x, v, par).jac

        for z, block, jac in ((xv, d.hess_xx_h, lambda z: jac_at(z, wv)),
                              (wv, d.hess_xw_h, lambda z: jac_at(xv, z))):
            fd = np.empty_like(block)
            for k in range(z.size):
                e = np.zeros(z.size)
                e[k] = 1e-6 * max(1.0, abs(z[k]))
                fd[:, :, k] = (jac(z + e) - jac(z - e)) / (2 * e[k])
            err = np.abs(fd - block).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(block).max(axis=(1, 2)))
            bad = err > 1e-6 * scale
            assert not bad.any(), labels[bad].tolist()


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_constraint_jacobian_w_matches_fd_random_points(seed):
    w = hm.make_exogenous(
        25.0, np.array([-3000.0, 1000.0, -2000.0, 500.0, -1500.0]),
        np.full(5, 22.0), np.full(5, 0.06))
    wv = w.to_vector()
    c_p = w.params.c_p
    floor = w.params.flow_floor
    xv = _random_interior_points(w, 1, seed=seed)[0]
    d = _derivatives(xv, wv, w.params)
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal(wv.size) * np.maximum(1.0, np.abs(wv))
    t = 1e-6
    hp = hm.constraints_flat(xv, wv + t * u, c_p, floor)
    hmn = hm.constraints_flat(xv, wv - t * u, c_p, floor)
    fd = (hp - hmn) / (2 * t)
    ana = d.jac_w_h @ u
    assert np.abs(fd - ana).max() < 1e-5 * max(1.0, np.abs(ana).max())
