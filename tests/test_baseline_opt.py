import dataclasses
import sys
import types
import warnings
from collections import Counter

import numpy as np
import pytest

from gridbase import baseline_opt
from gridbase import hvac_model as hm
from gridbase import scenario as sc
from gridbase import sensitivity as sn
from gridbase.baseline_opt import (SolverConfig, _balance_duties,
                                   _center_start, _random_start,
                                   solve_baseline, verify_kkt)
from gridbase.errors import (GridbaseError, InfeasibleHourError,
                             NoConvergenceError)

from conftest import scaled_params


def _assert_certified(kkt, cfg=SolverConfig()):
    assert kkt.stationarity_residual <= cfg.kkt_tol
    assert kkt.complementarity_residual <= cfg.kkt_tol
    assert kkt.feasibility_violation <= cfg.feas_tol
    assert np.all(kkt.lam >= 0.0)


def test_zero_load_oracle(zero_load_hour, solve_cached, params):
    kkt = solve_cached(zero_load_hour)
    _assert_certified(kkt)
    # with no loads and T_oa at setpoint, the optimum is pure ventilation:
    # all outdoor air at the summed minima, both coils off
    j_expected = params.alpha_el * hm.fan_power(
        float(zero_load_hour.zones.m_oa_min.sum()), params)
    assert kkt.j0 == pytest.approx(j_expected, rel=1e-6)
    pt = hm.evaluate(kkt.x0, zero_load_hour)
    assert abs(pt.q_b) <= 1e-6 * params.Q_b_rated
    assert abs(pt.q_e) <= 1e-6 * params.Q_e_rated


@pytest.mark.parametrize("hour_fixture",
                         ["hot_hour", "moderate_hour", "cold_hour"])
def test_representative_hours_certify(hour_fixture, request, solve_cached):
    w = request.getfixturevalue(hour_fixture)
    kkt = solve_cached(w)
    _assert_certified(kkt)
    assert kkt.j0 > 0
    par = w.params
    assert min(kkt.x0.q_h, kkt.x0.q_c) <= 1e-6 * max(par.Q_b_rated,
                                                     par.Q_e_rated)


def test_hot_hour_regimes(hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    # cooling hour: chiller on, boiler off, supply air at its minimum
    assert kkt.x0.q_c > 1000.0
    assert kkt.x0.q_h == 0.0
    assert kkt.x0.t_sa == pytest.approx(12.0, abs=1e-9)


def test_cold_hour_regimes(cold_hour, solve_cached):
    kkt = solve_cached(cold_hour)
    pt = hm.evaluate(kkt.x0, cold_hour)
    assert pt.q_b > 1000.0       # boiler on
    assert pt.q_e == 0.0         # chiller off


def test_moderate_hour_economizer_interior(moderate_hour, solve_cached):
    kkt = solve_cached(moderate_hour)
    v_sum = float(moderate_hour.zones.m_oa_min.sum())
    m_design = moderate_hour.params.m_design
    assert v_sum + 1e-6 < kkt.x0.m_oa < m_design - 1e-6


def test_local_optimality_against_feasible_probes(hot_hour, solve_cached):
    """No feasible nearby point beats the certified optimum."""
    kkt = solve_cached(hot_hour)
    par = hot_hour.params
    n = 5
    lay = hm.layout(n)
    wv = hot_hour.to_vector()
    xv0 = kkt.x0.to_vector()
    rng = np.random.default_rng(0)
    t_sp = hot_hour.zones.t_sp
    q_z = hot_hour.zones.q_zone
    v_min = hot_hour.zones.m_oa_min
    tried = 0
    for _ in range(500):
        xv = xv0.copy()
        # perturb the air states, then project back onto the feasible set
        t = float(np.clip(xv[lay.t_sa] + rng.uniform(-1.0, 1.0), 12.0, 30.0))
        m_need = -q_z / (par.c_p * (t_sp - t))  # zone cooling floors
        mvec = np.maximum(m_need, par.flow_floor) + rng.uniform(0.0, 0.05, n)
        m = mvec.sum()
        if m > par.m_design:
            continue
        o_lo = max(v_min.sum(), m * float(np.max(v_min / mvec)))
        o = float(np.clip(xv[lay.m_oa] + rng.uniform(-0.2, 0.2), o_lo, m))
        xv[lay.t_sa], xv[lay.m_oa], xv[lay.m_sa] = t, o, mvec
        # rebalance the coil duties for the perturbed air states
        st = float(mvec @ t_sp)
        q_ahu = par.c_p * (m * t - st + o * st / m - o * hot_hour.t_oa)
        xv[lay.q_h] = max(q_ahu, 0.0)
        xv[lay.q_c] = max(-q_ahu, 0.0)
        h = hm.constraints_flat(xv, wv, par.c_p, par.flow_floor)
        if h.max() > 1e-9:
            continue
        tried += 1
        j = hm.objective_flat(xv, wv, par.c_p)
        assert j >= kkt.j0 - 1e-6 * kkt.j0
    assert tried > 50  # the probe generator actually exercised the test


def test_multistart_deterministic(hot_hour):
    cfg = SolverConfig(rng_seed=123)
    a = solve_baseline(hot_hour, cfg)
    b = solve_baseline(hot_hour, cfg)
    assert a.j0 == b.j0
    assert np.array_equal(a.x0.to_vector(), b.x0.to_vector())
    assert np.array_equal(a.lam, b.lam)


def test_multistart_seed_insensitive_objective(hot_hour):
    j = [solve_baseline(hot_hour, SolverConfig(rng_seed=s)).j0
         for s in (0, 7, 99)]
    assert max(j) - min(j) <= 1e-8 * max(j)


def test_warm_start_accepted(hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    again = solve_baseline(hot_hour, SolverConfig(), x_init=kkt.x0)
    assert again.j0 == pytest.approx(kkt.j0, rel=1e-10)


def _count_minimize(monkeypatch, fail=lambda call: False):
    """Wrap SLSQP so calls are counted; `fail(call)` makes that call raise
    ValueError, which solve_baseline treats as a failed start."""
    calls = []
    real = baseline_opt.minimize

    def counted(*args, **kwargs):
        calls.append(args[1])
        if fail(len(calls)):
            raise ValueError("start rejected")
        return real(*args, **kwargs)

    monkeypatch.setattr(baseline_opt, "minimize", counted)
    return calls


def test_nominal_hour_needs_one_start(hot_hour, solve_cached, monkeypatch):
    calls = _count_minimize(monkeypatch)
    kkt = solve_baseline(hot_hour, SolverConfig())
    assert len(calls) == 1
    assert kkt.j0 == solve_cached(hot_hour).j0


def _count_polish(monkeypatch):
    calls = []
    real = baseline_opt._polish

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(baseline_opt, "_polish", counted)
    return calls


@pytest.mark.parametrize("hour_fixture",
                         ["hot_hour", "moderate_hour", "cold_hour"])
def test_one_polish_round_when_canonical_form_is_unchanged(
        hour_fixture, request, monkeypatch):
    """On these hours the first polish keeps the canonicalized SLSQP point
    (it only recovers multipliers), so a second round would repeat it bit
    for bit and does not run. Each hour takes one start."""
    calls = _count_polish(monkeypatch)
    _assert_certified(solve_baseline(request.getfixturevalue(hour_fixture)))
    assert len(calls) == 1


def test_second_polish_round_after_the_point_moves(zero_load_hour,
                                                   solve_cached, monkeypatch):
    """From the zero-load optimum with T_sa raised by 0.5 K, the first
    polish moves the point back, so its canonical form differs from where
    the round started and a second round polishes there."""
    kkt = solve_cached(zero_load_hour)
    xv = kkt.x0.to_vector()
    xv[0] += 0.5
    calls = _count_polish(monkeypatch)
    out = baseline_opt._finalize(xv, kkt.scaling, 0)
    assert len(calls) == 2
    assert not np.array_equal(calls[1][0], calls[0][0])
    _assert_certified(out)
    assert out.j0 == pytest.approx(kkt.j0, rel=1e-9)


def test_certified_anchor_pins_the_gauge():
    """Every certified anchor of the seed-42 days at N in {1, 5} zones has
    `T_sa_min` or `q_h_nonneg` active: canonicalization ends the cost-flat
    (T_sa, q_h) direction on a bound, so the shift's rank test never has
    to forgive it. Infeasible hours are skipped."""
    certified = 0
    for n in (1, 5):
        labels = hm.layout(n).labels
        for day in sc.DAY_TYPES:
            for k in range(7):
                try:
                    kkt = solve_baseline(_zone_hour(day, n, k))
                except InfeasibleHourError:
                    continue
                active = {labels[i] for i in kkt.active_set}
                assert active & {"T_sa_min", "q_h_nonneg"}, (n, day, k)
                certified += 1
    assert certified > 0


def test_failed_start_falls_through(hot_hour, solve_cached, monkeypatch):
    calls = _count_minimize(monkeypatch, fail=lambda call: call == 1)
    kkt = solve_baseline(hot_hour, SolverConfig())
    assert len(calls) == 2
    _assert_certified(kkt)
    assert kkt.j0 == pytest.approx(solve_cached(hot_hour).j0, rel=1e-9)


@pytest.mark.parametrize("warm", [False, True])
def test_multistart_count_caps_starts(hot_hour, solve_cached, monkeypatch,
                                      warm):
    """x_init takes the place of a start; it does not add one."""
    x_init = solve_cached(hot_hour).x0 if warm else None
    calls = _count_minimize(monkeypatch, fail=lambda call: True)
    with pytest.raises(InfeasibleHourError):
        solve_baseline(hot_hour, x_init=x_init)
    assert len(calls) == SolverConfig.multistart_count == 8
    if warm:
        sx = baseline_opt.Scaling.of(hot_hour).x
        assert np.allclose(calls[0] * sx, x_init.to_vector())


def _outcome(w, cfg, x_init=None):
    try:
        return solve_baseline(w, cfg, x_init=x_init).j0
    except GridbaseError as exc:
        return type(exc)


def test_first_certified_start_matches_exhaustive_best():
    """The first start that certifies is as good as the best of all starts.

    The exhaustive best of an hour is the lowest J0 over solves that begin
    at each of the center and seeded random starts. The sweep covers all
    day types and N in {1, 3, 8} zones with the design flow scaled by N/5;
    an hour that fails lazily must fail the same way from every start."""
    cfg = SolverConfig()
    certified = failed = 0
    for n in (1, 3, 8):
        par = scaled_params(n)
        for day in sc.DAY_TYPES:
            # two hours per day keep the 18 x 9 solves near two seconds
            for hour in sc.synth_profile(day, 7, n_zones=n).hours[2::4]:
                w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                                       params=par)
                scaling = baseline_opt.Scaling.of(w)
                rng = np.random.default_rng(cfg.rng_seed)
                starts = [_center_start(scaling)] + [
                    _random_start(rng, scaling)
                    for _ in range(cfg.multistart_count - 1)]
                lazy = _outcome(w, cfg)
                oracle = [_outcome(w, cfg, hm.DecisionVector.from_vector(s))
                          for s in starts]
                j_best = min((o for o in oracle if isinstance(o, float)),
                             default=None)
                if isinstance(lazy, float):
                    certified += 1
                    assert lazy <= j_best * (1.0 + 1e-9), (n, day, hour)
                else:
                    failed += 1
                    assert set(oracle) == {lazy}, (n, day, hour)
    # both branches are exercised: the sweep holds an infeasible hour
    assert certified >= 15 and failed >= 1


def _raises_with_report(w):
    """Solve w with numeric warnings as errors; return the report that the
    NoConvergenceError carries, which must be an uncertified `KktPoint`
    of finite stationarity."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergenceError) as err:
            solve_baseline(w)
    report = err.value.report
    assert isinstance(report, baseline_opt.KktPoint)
    assert not report.certified
    assert np.isfinite(report.stationarity_residual)
    return report


def test_diverged_polish_is_a_failed_start():
    """On this hour the active-set Newton polish of some starts diverges to
    non-finite multipliers, and no start certifies. Each such start still
    ends in a report, so the hour raises NoConvergenceError carrying the
    report of least stationarity, not a LinAlgError from the step solve,
    and no numeric warning escapes."""
    hour = sc.synth_profile("cold", 300051, n_zones=8).hours[1]
    assert hour.hour_index == 10
    w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                           params=scaled_params(8))
    _raises_with_report(w)


# SLSQP's end point of the first (center) start on hour 15 of two nominal
# 5-zone days and on hour 12 of a third, scaled as SLSQP returns it
# (x / Scaling.x), recorded with OpenBLAS on two threads. SLSQP's path
# depends on the BLAS thread count, while `_finalize` from a fixed point
# gives the same bits under any, so a test that needs what the polish does
# at one end point starts from these.
_HOT_S100045_H15_END = [
    "0x1.3333333334947p+0", "0x1.95331e278ca9cp-4", "0x1.749511c8ee6d5p-4",
    "0x1.6615dd1c9bbd0p-4", "0x1.622c3b3ac632ap-4", "0x1.1edfc69878ac6p-4",
    "0x1.3fafe9c624ff3p-4", "0x1.458584ccc16b0p-54", "0x1.9191617581abbp-2"]
_COLD_S29961308_H15_END = [
    "0x1.605242eb3754bp+1", "0x1.579fc90527e38p-4", "0x1.636eba78562aap-4",
    "0x1.636eba78563b0p-4", "0x1.636eba78562a7p-4", "0x1.636eba7856282p-4",
    "0x1.636eba785629ep-4", "0x1.c9e2d1ace5615p-2", "0x1.3de0000000000p-53"]
_HOT_S3800156_H12_END = [
    "0x1.3333333333333p+0", "0x1.b779dd2da702ap-3", "0x1.b17fd28dcf69bp-3",
    "0x1.7bf10f02e63acp-3", "0x1.6f8f7953ae793p-3", "0x1.b17fd28dcf606p-3",
    "0x1.b17fd28dcf667p-3", "0x0.0p+0", "0x1.0000000000000p+0"]


def _hour_15(day, seed):
    """Hour 15 of the nominal 5-zone `day` profile of this seed."""
    hour = sc.synth_profile(day, seed).hours[6]
    assert hour.hour_index == 15
    return hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                              params=hm.HvacParameters())


def _end_point(hexes):
    return np.array([float.fromhex(v) for v in hexes])


def test_nominal_cold_hour_reports_its_failure():
    """Hour 15 of this nominal 5-zone cold day certifies from no start
    either; its error carries a report too. From the first start's stored
    end point the polish diverges, and the report keeps the feasibility
    the start reached. Which start's report the error carries depends on
    SLSQP's path, so the feasibility is checked at the stored point."""
    w = _hour_15("cold", 29961308)
    _raises_with_report(w)
    s = baseline_opt.Scaling.of(w)
    report = baseline_opt._finalize(
        _end_point(_COLD_S29961308_H15_END) * s.x, s, 0)
    assert not report.certified
    assert report.feasibility_violation < 1e-5


def test_polish_runs_newton_at_most_once(monkeypatch):
    """From the first start's stored end point of hour 12 of this nominal
    5-zone hot day, Newton converges with a negative multiplier that NNLS
    on the same rows cannot recover. The polish keeps its rows, so each
    polish runs Newton once, and the certificate refuses the start."""
    hour = sc.synth_profile("hot", 3800156).hours[3]
    assert hour.hour_index == 12
    w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                           params=hm.HvacParameters())
    newtons = []
    real_polish, real_newton = (baseline_opt._polish,
                                baseline_opt._newton_on_active)

    def polish(*args):
        newtons.append(0)
        return real_polish(*args)

    def newton(*args):
        newtons[-1] += 1
        return real_newton(*args)

    monkeypatch.setattr(baseline_opt, "_polish", polish)
    monkeypatch.setattr(baseline_opt, "_newton_on_active", newton)
    s = baseline_opt.Scaling.of(w)
    report = baseline_opt._finalize(
        _end_point(_HOT_S3800156_H12_END) * s.x, s, 0)
    assert newtons and max(newtons) <= 1
    assert not report.certified


@pytest.mark.parametrize("stationarity", [
    [np.nan, np.inf, 2.0, 1.0, 1.0, 3.0, np.nan, 4.0],
    [4.0, np.nan, 3.0, 1.0, 1.0, 2.0, np.inf, np.nan]],
    ids=["non-finite-first", "finite-first"])
def test_non_finite_report_never_displaces_a_finite_one(
        hot_hour, monkeypatch, stationarity):
    """When no start certifies, the error carries the first report of
    least stationarity; a report whose stationarity is nan or inf ranks
    after every finite one, whether it comes before or after them."""
    real = baseline_opt._finalize
    calls = []

    def finalize(xv, s, seed):
        k = len(calls)
        calls.append(k)
        return dataclasses.replace(real(xv, s, seed), seed=k,
                                   stationarity_residual=stationarity[k])

    monkeypatch.setattr(baseline_opt, "_finalize", finalize)
    with pytest.raises(NoConvergenceError) as err:
        solve_baseline(hot_hour)
    assert len(calls) == SolverConfig.multistart_count
    report = err.value.report
    assert (report.seed, report.stationarity_residual) == (3, 1.0)


def test_gas_price_monotonicity(cold_hour, solve_cached):
    """A costlier-gas hour can never have a cheaper optimal baseline."""
    from dataclasses import replace
    j_prev = solve_cached(cold_hour).j0
    for a_ng in (1.3, 1.6, 2.0):
        par = replace(cold_hour.params, alpha_ng=a_ng)
        w = hm.make_exogenous(cold_hour.t_oa, cold_hour.zones.q_zone,
                              cold_hour.zones.t_sp,
                              cold_hour.zones.m_oa_min, par)
        j = solve_baseline(w).j0
        assert j >= j_prev - 1e-9 * j_prev
        j_prev = j


def test_infeasible_ventilation_raises(params):
    w = hm.make_exogenous(20.0, np.zeros(5), np.full(5, 22.0),
                          np.full(5, 0.7), params)  # 3.5 > m_design
    with pytest.raises(InfeasibleHourError):
        solve_baseline(w)


def test_infeasible_zone_load_raises(params):
    q = np.array([9.0e7, 0.0, 0.0, 0.0, 0.0])  # beyond any coil at 37 C
    w = hm.make_exogenous(20.0, q, np.full(5, 22.0), np.full(5, 0.05),
                          params)
    with pytest.raises(InfeasibleHourError):
        solve_baseline(w)


def test_verify_kkt_detects_primal_perturbation(hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    xv = kkt.x0.to_vector().copy()
    xv[3 + 5] += 500.0  # push q_c off the optimum
    res = verify_kkt(hm.DecisionVector.from_vector(xv), kkt.lam, hot_hour)
    assert res.stationarity_residual > SolverConfig().kkt_tol


def test_verify_kkt_detects_dual_perturbation(hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    lam = kkt.lam.copy()
    lam[0] += 100.0
    res = verify_kkt(kkt.x0, lam, hot_hour)
    assert max(res.stationarity_residual,
               res.complementarity_residual) > SolverConfig().kkt_tol


def test_verify_kkt_rejects_wrong_multiplier_count(hot_hour, solve_cached):
    kkt = solve_cached(hot_hour)
    with pytest.raises(ValueError):
        verify_kkt(kkt.x0, kkt.lam[:-1], hot_hour)


def test_solver_config_validation():
    """The seed is the one setting; the tolerances and caps are fixed."""
    fixed = {"kkt_tol": 1e-6, "feas_tol": 1e-8, "act_tol": 1e-6,
             "multistart_count": 8, "max_iterations": 300}
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["rng_seed"]
    for name, value in fixed.items():
        assert getattr(SolverConfig(), name) == value
        with pytest.raises(TypeError):
            SolverConfig(**{name: value})


def _row(lay, label):
    return lay.labels.index(label)


@pytest.mark.parametrize("n", [1, 5])
def test_snap_sets_exact_bound_values(n):
    """Each variable on an active simple-bound row lands on the row's exact
    value: m_oa on the summed ventilation minima, not on the SLSQP box's 0.
    Entries on no active bound row, and rows that bound no single entry,
    leave x untouched."""
    par = scaled_params(n)
    rng = np.random.default_rng(n)
    w = hm.make_exogenous(20.0, rng.uniform(-3000.0, 3000.0, n),
                          rng.uniform(20.0, 26.0, n),
                          rng.uniform(0.02, 0.1, n), par)
    s = baseline_opt.Scaling.of(w)
    lay = s.layout
    xv = np.concatenate([[20.0, 0.7], rng.uniform(0.1, 0.5, n),
                         [1500.0, 2500.0]])
    before = xv.copy()
    snap = baseline_opt._snap_active_bounds

    low = snap(xv, s, [_row(lay, k) for k in (
        "T_sa_min", "m_oa_min_total", "q_h_nonneg", "q_c_nonneg")])
    assert low[lay.t_sa] == 12.0
    assert low[lay.m_oa] == s.wv[lay.m_oa_min].sum() != 0.0
    assert low[lay.q_h] == 0.0 and low[lay.q_c] == 0.0
    assert np.array_equal(low[lay.m_sa], xv[lay.m_sa])

    high = snap(xv, s, [_row(lay, k) for k in (
        "T_sa_max", "m_oa_max", "q_h_max", "q_c_max")])
    assert high[lay.t_sa] == 37.0
    assert high[lay.m_oa] == par.m_design
    assert high[lay.q_h] == par.Q_b_rated
    assert high[lay.q_c] == par.Q_e_rated
    assert np.array_equal(high[lay.m_sa], xv[lay.m_sa])

    other = [k for k, label in enumerate(lay.labels) if label in (
        "m_ra_nonneg", "m_sa_total_max", "Q_b_nonneg", "Q_b_max",
        "ahu_balance_pos", "ahu_balance_neg") or label.startswith(
        ("ventilation_", "T_da_"))]
    assert np.array_equal(snap(xv, s, other), xv)
    assert np.array_equal(xv, before)


def test_snap_covers_the_floor_rows():
    """The snap reads every simple-bound row from the layout's map, so an
    active m_sa_floor_i row puts that zone's flow on the floor exactly."""
    w = hm.make_exogenous(20.0, np.zeros(3), np.full(3, 22.0),
                          np.full(3, 0.05), scaled_params(3))
    s = baseline_opt.Scaling.of(w)
    lay = s.layout
    xv = np.array([20.0, 0.7, 0.3, 0.001 + 1e-12, 0.4, 100.0, 0.0])
    out = baseline_opt._snap_active_bounds(
        xv, s, [_row(lay, "m_sa_floor_2")])
    assert out[lay.index["m_sa"][1]] == w.params.flow_floor
    out[lay.index["m_sa"][1]] = xv[lay.index["m_sa"][1]]
    assert np.array_equal(out, xv)


def test_non_finite_slsqp_point_is_not_feasible(hot_hour, monkeypatch):
    """A NaN compares False with any tolerance, so a start whose SLSQP
    point holds a NaN must count as not feasible: with every start ending
    there the hour is infeasible, not a NoConvergenceError without a
    report."""
    def nan_point(fun, z0, **kwargs):
        x = np.array(z0, dtype=float)
        x[0] = np.nan
        return types.SimpleNamespace(x=x)

    monkeypatch.setattr(baseline_opt, "minimize", nan_point)
    with pytest.raises(InfeasibleHourError):
        solve_baseline(hot_hour)


def _point_trail(monkeypatch):
    """Record, in call order, each one-point call of `value_flat`,
    `first_order_flat` (its point is the second argument) and
    `constraints_flat` as (name, point bytes)."""
    trail = []

    def counted(name, at):
        real = getattr(hm, name)

        def wrapper(*args):
            if np.ndim(args[at]) == 1:
                trail.append((name, np.asarray(args[at]).tobytes()))
            return real(*args)
        monkeypatch.setattr(hm, name, wrapper)

    counted("value_flat", 0)
    counted("first_order_flat", 1)
    counted("constraints_flat", 0)
    return trail


def _zone_hour(day, n, index):
    """Hour `index` of the seed-42 synthetic day with n zones."""
    hour = sc.synth_profile(day, 42, n_zones=n).hours[index]
    return hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                              params=scaled_params(n))


@pytest.mark.parametrize("hour", [
    "hot_hour", "moderate_hour", "cold_hour", ("moderate", 1, 3),
    ("hot", 3, 3), ("cold", 8, 3), ("hot", 8, 3)],
    ids=["hot_hour", "moderate_hour", "cold_hour", "n1", "n3", "n8",
         "infeasible-n8"])
def test_each_point_is_evaluated_once(hour, request, monkeypatch):
    """From the solve through the operator build, each point's values and
    each point's first order are computed once: the hour's `Scaling`
    keeps each point's record and builds the first order on the kept
    values, and no stage computes h apart from it. SLSQP asks for values
    at every trial point and for gradients only at the points it accepts,
    so on the hot N = 8 hour 12, where no start is feasible, strictly
    fewer points reach the first order than reach the values."""
    trail = _point_trail(monkeypatch)
    w = request.getfixturevalue(hour) if isinstance(hour, str) \
        else _zone_hour(*hour)
    infeasible = hour == ("hot", 8, 3)
    if infeasible:
        with pytest.raises(InfeasibleHourError):
            solve_baseline(w)
    else:
        kkt = solve_baseline(w)
        sn.build_operator(kkt, w, sn.uncertainty_spec(w, ("T_oa",), 0.05))
    values, first = set(), set()
    for name, key in trail:
        assert name != "constraints_flat"
        kept = values if name == "value_flat" else first
        assert key not in kept, name
        assert name == "value_flat" or key in values
        kept.add(key)
    assert 0 < len(first) <= len(values)
    if infeasible:
        assert len(first) < len(values)


def test_scaling_keeps_every_point_it_evaluated(hot_hour, monkeypatch):
    """However many points a `Scaling` has evaluated, it still keeps the
    first: asked again for it after 99 others, it returns the kept record,
    and `value_flat` runs once per point. A start's SLSQP path may come
    back to a point after many others."""
    calls = []
    real = hm.value_flat

    def value(xv, *args):
        calls.append(xv.tobytes())
        return real(xv, *args)

    monkeypatch.setattr(hm, "value_flat", value)
    s = baseline_opt.Scaling.of(hot_hour)
    rng = np.random.default_rng(0)
    points = [_random_start(rng, s) for _ in range(100)]
    kept = [s.values(xv) for xv in points]
    assert s.values(points[0]) is kept[0]
    assert s.evaluate(points[0])[0].h is kept[0][0].h
    assert len(calls) == len(set(calls)) == len(points)


def test_simple_bounds_once_per_scaling(hot_hour, monkeypatch):
    """An hour's `Scaling` holds its simple bounds, so from the solve
    through the operator build `simple_bounds` runs once for the
    `Scaling`, once for the solver's box and once for the FD self-check's
    stacked `kkt_map` call, not at each of the many evaluated points."""
    callers, points = Counter(), []
    real_bounds, real_value = hm.simple_bounds, hm.value_flat

    def bounds(*args):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real_bounds(*args)

    def value(xv, *args):
        points.append(xv.tobytes())
        return real_value(xv, *args)

    monkeypatch.setattr(hm, "simple_bounds", bounds)
    monkeypatch.setattr(hm, "value_flat", value)
    kkt = solve_baseline(hot_hour)
    sn.build_operator(kkt, hot_hour,
                      sn.uncertainty_spec(hot_hour, ("T_oa",), 0.05))
    assert callers == {"of": 1, "x_box": 1, "kkt_map": 1}
    assert len(set(points)) > sum(callers.values())


def test_derivatives_build_on_the_kept_record(monkeypatch):
    """From the first start's stored end point of hour 15 of this hot day,
    the polish runs Newton: 3 passes, then NNLS recovers a negative
    multiplier. Each `derivatives_flat` call gets the very record
    `Scaling.evaluate` kept for its point, no point reaches
    `first_order_flat` twice, and the Hessian is built once per Newton
    step and once for the operator, never on the pass that converges."""
    kept, derived, trail, passes = {}, [], [], []
    real_first, real_derivs = hm.first_order_flat, hm.derivatives_flat
    real_evaluate = baseline_opt.Scaling.evaluate
    real_newton = baseline_opt._newton_on_active

    def first_order(val, xv, *args):
        record = real_first(val, xv, *args)
        if np.ndim(xv) == 1:
            assert xv.tobytes() not in kept
            kept[xv.tobytes()] = record
        return record

    def derivatives(first, xv, *args):
        derived.append(first is kept[xv.tobytes()])
        return real_derivs(first, xv, *args)

    def evaluate(s, xv):
        trail.append(xv.tobytes())
        return real_evaluate(s, xv)

    def newton(*args):
        start = len(trail)
        out = real_newton(*args)
        passes.append(len(set(trail[start:])))
        return out

    monkeypatch.setattr(hm, "first_order_flat", first_order)
    monkeypatch.setattr(hm, "derivatives_flat", derivatives)
    monkeypatch.setattr(baseline_opt.Scaling, "evaluate", evaluate)
    monkeypatch.setattr(baseline_opt, "_newton_on_active", newton)
    w = _hour_15("hot", 100045)
    s = baseline_opt.Scaling.of(w)
    kkt = baseline_opt._finalize(_end_point(_HOT_S100045_H15_END) * s.x, s, 0)
    assert kkt.certified and passes == [3]
    assert derived == [True] * 2
    sn.build_operator(kkt, w, sn.uncertainty_spec(w, ("T_oa",), 0.05))
    assert derived == [True] * 3


def test_certificate_not_the_polish_guards_feasibility(monkeypatch):
    """The polish never adds a row, so nothing in it tests the rows it
    leaves inactive. Here every Newton pass of the first start returns ok,
    with zero multipliers, at a point whose inactive `m_ra_nonneg` row is
    violated by 1e-4 (scaled): m_oa exceeds the total supply flow, and the
    coil duties are rebalanced. The violation is past act_tol, so the snap
    keeps it, and it is not along the cost-flat directions, so the
    canonical form keeps it too. The certificate refuses the point, and
    the solve returns a later start's certified point instead, keeping
    that start's points and none of the refused one's. The first start
    ends at its stored SLSQP end point, where the polish runs Newton;
    real SLSQP runs the later starts."""
    reports, starts = [], []
    real_minimize = baseline_opt.minimize
    row = hm.layout(5).m_ra_nonneg
    real_newton, real_residuals = (baseline_opt._newton_on_active,
                                   baseline_opt._residuals)

    def newton(xv, s, rows, lam):
        if reports:
            return real_newton(xv, s, rows, lam)
        lay, xv = s.layout, xv.copy()
        xv[lay.m_oa] = xv[lay.m_sa].sum() + 1e-4 * s.h[row]
        return _balance_duties(xv, s), np.zeros(len(rows)), True

    def residuals(xv, lam, s):
        reports.append((xv.copy(), real_residuals(xv, lam, s)))
        return reports[-1][1]

    def minimize(fun, z0, **kwargs):
        starts.append(z0)
        if len(starts) == 1:
            return types.SimpleNamespace(x=_end_point(_HOT_S100045_H15_END))
        return real_minimize(fun, z0, **kwargs)

    monkeypatch.setattr(baseline_opt, "minimize", minimize)
    monkeypatch.setattr(baseline_opt, "_newton_on_active", newton)
    monkeypatch.setattr(baseline_opt, "_residuals", residuals)
    kkt = solve_baseline(_hour_15("hot", 100045))
    bad_x, bad = reports[0]
    assert bad.feasibility_violation == pytest.approx(1e-4, rel=1e-6)
    assert row not in bad.active_set and not bad.certified
    assert len(reports) > 1
    assert not np.array_equal(kkt.x0.to_vector(), bad_x)
    assert kkt.certified
    assert kkt.feasibility_violation <= SolverConfig.feas_tol
    kept = kkt.scaling._memo
    assert kkt.x0.to_vector().tobytes() in kept
    assert bad_x.tobytes() not in kept


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_scaled_record_keeps_the_row_selected_bits(n):
    """The scaled record at a point has the bits of the row-selected
    scalings the SLSQP callbacks used to compute, the raw record is
    `first_order_flat`'s, their arrays are read-only, and a second call
    returns the same objects."""
    hour = sc.synth_profile("moderate", 11 + n, n_zones=n).hours[3]
    w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                           params=scaled_params(n))
    s = baseline_opt.Scaling.of(w)
    lay, sx, sh, sj = s.layout, s.x, s.h, s.j
    assert (lay.balance, lay.balance_neg) == (lay.h_dim - 2, lay.h_dim - 1)
    eq = lay.balance
    ineq = np.setdiff1d(np.arange(lay.h_dim), [eq, lay.balance_neg])
    rng = np.random.default_rng(n)
    for _ in range(3):
        xv = _random_start(rng, s)
        raw, scaled = s.evaluate(xv)
        assert isinstance(raw, hm.FirstOrder)
        assert isinstance(scaled, baseline_opt.Scaled)
        first = hm.first_order_flat(
            hm.value_flat(xv, s.wv, w.params.c_p,
                          *hm.simple_bounds(s.wv, w.params.flow_floor)),
            xv, s.wv, w.params.c_p)
        for a, b in zip(raw, first):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        pairs = [
            (scaled.j, first.j / sj),
            (scaled.grad, first.grad * sx / sj),
            (-scaled.h[:eq], -(first.h[ineq] / sh[ineq])),
            (-scaled.jac[:eq],
             -(first.jac[ineq] * sx[None, :] / sh[ineq, None])),
            (scaled.h[eq], first.h[eq] / sh[eq]),
            (scaled.jac[eq], first.jac[eq] * sx / sh[eq]),
            (scaled.h, first.h / sh),
        ]
        for a, b in pairs:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        for a in (raw.grad, raw.h, raw.jac, raw.gq) + scaled[1:]:
            with pytest.raises(ValueError):
                a[0] = 0.0
        again = s.evaluate(xv)
        assert all(a is b for a, b in zip(again[0] + again[1], raw + scaled))
