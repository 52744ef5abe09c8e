import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from gridbase import baseline_opt
from gridbase import hvac_model as hm
from gridbase import numkit
from gridbase import scenario as sc
from gridbase import sensitivity as sn
from gridbase.baseline_opt import solve_baseline
from gridbase.errors import EvaluationDomainError, RankDeficientError

from conftest import scaled_params

FAN_MASK = ("c_f_1", "c_f_2", "c_f_3", "c_f_4")
WIDE_MASK = ("T_oa", "Q_zone_1", "Q_zone_2", "Q_zone_3", "Q_zone_4",
             "Q_zone_5") + FAN_MASK + ("alpha_el", "alpha_ng")


def _operator(solve_cached, w, mask=("T_oa",), alpha=0.01):
    anchor = solve_cached(w)
    spec = sn.uncertainty_spec(w, mask, alpha)
    return sn.build_operator(anchor, w, spec), spec


def _buffers(op, dX, order):
    """`_k_batch`'s X and W in the memory layout `order`: X holds the
    shifts dX, W holds w0 in every column."""
    X = np.array(dX, order=order)
    W = np.empty((X.shape[0], op.anchor.scaling.wv.size), order=order)
    W[:] = op.anchor.scaling.wv
    return X, W


def _with_radius(spec, w0, label, radius):
    """spec with an explicit box radius on the masked coordinate `label`
    of w0, which `UncertaintySpec` checks again."""
    delta = spec.masked_delta.copy()
    delta[spec.indices.index(w0.index(label))] = radius
    return dataclasses.replace(spec, masked_delta=delta)


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------

def test_spec_delta_is_alpha_scaled(moderate_hour):
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa", "Q_zone_1"), 0.02)
    assert spec.masked_delta[0] == pytest.approx(0.02 * 18.0)
    assert spec.masked_delta[1] == pytest.approx(0.02 * 2500.0)
    assert spec.masked_delta.shape == (2,)


def test_spec_rejects_bad_inputs(moderate_hour):
    with pytest.raises(ValueError):
        sn.uncertainty_spec(moderate_hour, ("T_oa",), -0.1)
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.1)
    # a radius for a coordinate outside the mask
    with pytest.raises(ValueError, match="one radius per index"):
        dataclasses.replace(spec,
                            masked_delta=np.r_[spec.masked_delta, 5.0])
    with pytest.raises(KeyError):
        sn.uncertainty_spec(moderate_hour, ("no_such_label",), 0.1)


def test_spec_rejects_repeated_labels(moderate_hour):
    """A repeated label would move one coordinate twice in the shift map
    but once in K; it is refused before any operator is built."""
    with pytest.raises(ValueError, match="'T_oa' appears more than once"):
        sn.uncertainty_spec(moderate_hour, ("T_oa", "Q_zone_1", "T_oa"),
                            0.01)
    with pytest.raises(ValueError, match="repeat a coordinate"):
        sn.UncertaintySpec(mask=("T_oa", "T_oa"), alpha=0.01,
                           masked_delta=np.r_[0.18, 0.18], indices=(0, 0))


@pytest.mark.parametrize("alpha, radius", [
    (math.nan, None), (math.inf, None), (0.01, math.inf), (0.01, math.nan)],
    ids=["nan-alpha", "inf-alpha", "inf-delta", "nan-delta"])
def test_spec_rejects_non_finite(moderate_hour, alpha, radius):
    """A NaN or infinite box has no bound; it is refused with the spec."""
    with pytest.raises(ValueError, match="must be finite"):
        spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), alpha)
        _with_radius(spec, moderate_hour, "T_oa", radius)


def test_spec_holds_tuples(params, solve_cached):
    """A spec given a list mask and list indices holds them as tuples, so
    the K stages take it for the operator's own and give its numbers; a
    non-integer index is refused when the spec is built."""
    hour = sc.synth_profile("hot", 42).hours[3]
    assert hour.hour_index == 12
    w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones, params=params)
    spec = sn.uncertainty_spec(w, ["T_oa", "Q_zone_1"], 0.05)
    op = sn.build_operator(solve_cached(w), w, spec)
    listed = dataclasses.replace(spec, mask=list(spec.mask),
                                 indices=list(spec.indices))
    assert (listed.mask, listed.indices) == (spec.mask, spec.indices)
    assert sn.signed_shift_pair(op, w, listed) == \
        sn.signed_shift_pair(op, w, spec)
    qm, qm_listed = (sn.quadratic_model(op, w, s) for s in (spec, listed))
    assert (qm.g.tolist(), qm.H_K.tolist()) == \
        (qm_listed.g.tolist(), qm_listed.H_K.tolist())
    mc, mc_listed = (sn.sample_bound(op, w, s, 300, seed=0)
                     for s in (spec, listed))
    assert (mc.beta, mc.argmax_dw.tolist()) == \
        (mc_listed.beta, mc_listed.argmax_dw.tolist())
    with pytest.raises(TypeError):
        dataclasses.replace(spec, indices=(0.5, spec.indices[1]))


# ---------------------------------------------------------------------------
# the KKT map and its Jacobians
# ---------------------------------------------------------------------------

def test_kkt_map_near_zero_at_anchor(moderate_hour, solve_cached):
    kkt = solve_cached(moderate_hour)
    par = moderate_hour.params
    H = sn.kkt_map(kkt.x0.to_vector(), moderate_hour.to_vector(),
                   kkt.lam, par.c_p, par.flow_floor)
    # complementarity rows vanish relative to the baseline cost
    assert np.abs(H[9:]).max() <= 1e-6 * abs(kkt.j0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_rows_have_the_bits_of_points(n):
    """value_flat, first_order_flat on it and kkt_map on S rows give, row
    by row, the bits of the one-point call: the FD self-check stacks its
    points on this."""
    rng = np.random.default_rng(n)
    par = hm.HvacParameters(zone_count=n)
    lay = hm.layout(n)
    w = hm.make_exogenous(rng.uniform(-5.0, 35.0), rng.uniform(-6e3, 3e3, n),
                          rng.uniform(21.0, 24.0, n),
                          rng.uniform(0.03, 0.1, n), par)
    S = 16
    W = w.to_vector() * (1.0 + 1e-3 * rng.standard_normal((S, lay.w_dim)))
    X = np.empty((S, lay.x_dim))
    X[:, lay.t_sa] = rng.uniform(12.0, 37.0, S)
    X[:, lay.m_oa] = rng.uniform(0.0, 1.0, S)
    X[:, lay.m_sa] = rng.uniform(0.01, 0.6, (S, n))
    X[:, lay.q_h:] = rng.uniform(0.0, 5e4, (S, 2))
    X[::3, lay.q_c] = 0.0          # chiller off on some rows
    lam = np.abs(rng.standard_normal(lay.h_dim))
    args = (par.c_p, par.flow_floor)

    def first_order(x, v):
        val = hm.value_flat(x, v, par.c_p,
                            *hm.simple_bounds(v, par.flow_floor))
        return hm.first_order_flat(val, x, v, par.c_p)

    rows = first_order(X, W)
    H = sn.kkt_map(X, W, lam, *args)
    assert H.shape == (S, lay.x_dim + lay.h_dim)
    for i in range(S):
        point = first_order(X[i], W[i])
        for got, want in zip(rows[:4], point[:4]):
            assert np.array_equal(got[i], want)
        assert np.array_equal(H[i], sn.kkt_map(X[i], W[i], lam, *args))


def _jacobians(anchor, spec):
    """G and the masked columns of grad_w H at the anchor, as
    `build_operator` assembles them."""
    d = anchor.scaling.derivatives(anchor.x0.to_vector())
    return sn._assemble_jacobians(d, anchor.lam, spec.indices)


def test_inactive_rows_of_g_are_zero(moderate_hour, solve_cached):
    kkt = solve_cached(moderate_hour)
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.01)
    G, _ = _jacobians(kkt, spec)
    # complementarity block, one row per constraint
    comp = G[hm.layout(moderate_hour.zones.count).x_dim:]
    for i, lam_i in enumerate(kkt.lam):
        if lam_i == 0.0:
            assert np.all(comp[i] == 0.0)


def test_w_jacobian_has_one_column_per_masked_coordinate(
        moderate_hour, solve_cached):
    kkt = solve_cached(moderate_hour)
    for mask in (("T_oa",), FAN_MASK):
        spec = sn.uncertainty_spec(moderate_hour, mask, 0.01)
        assert _jacobians(kkt, spec)[1].shape == (9 + 34, len(mask))


def test_fd_verification_tight(moderate_hour, hot_hour, cold_hour,
                               solve_cached):
    for w in (moderate_hour, hot_hour, cold_hour):
        anchor = solve_cached(w)
        spec = sn.uncertainty_spec(w, ("T_oa",) + FAN_MASK, 0.01)
        err = sn.verify_operator_fd(anchor, w, spec, n_probes=20, seed=1)
        assert err <= 1e-6


def _fd_check_by_point(anchor, w, spec, n_probes, seed):
    """The FD self-check one kkt_map call per point, as a reference."""
    xv, wv = anchor.x0.to_vector(), w.to_vector()
    lam, par = anchor.lam, w.params
    sx = baseline_opt.Scaling.of(w).x
    first = hm.first_order_flat(
        hm.value_flat(xv, wv, par.c_p,
                      *hm.simple_bounds(wv, par.flow_floor)),
        xv, wv, par.c_p)
    G, W_jac = sn._assemble_jacobians(
        hm.derivatives_flat(first, xv, wv, par.c_p), lam, spec.indices)
    idx = list(spec.indices)

    def H(x, v):
        return sn.kkt_map(x, v, lam, par.c_p, par.flow_floor)

    def err(fd, ana):
        return np.abs(fd - ana).max() / max(1.0, np.abs(ana).max())

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_probes):
        v = rng.standard_normal(xv.size)
        v /= np.abs(v).max()
        dx = 1e-6 * sx * v
        worst = max(worst, err((H(xv + dx, wv) - H(xv - dx, wv)) / 2e-6,
                               G @ (sx * v)))
        if not idx:
            continue
        u = rng.standard_normal(len(idx))
        u /= np.abs(u).max()
        sw = np.maximum(1.0, np.abs(wv[idx]))
        dw = np.zeros(wv.size)
        dw[idx] = 1e-6 * sw * u
        worst = max(worst, err((H(xv, wv + dw) - H(xv, wv - dw)) / 2e-6,
                               W_jac @ (sw * u)))
    return worst


@pytest.mark.parametrize("mask", [("T_oa",) + FAN_MASK, ()],
                         ids=["masked", "empty-mask"])
@pytest.mark.parametrize("n_probes", [0, 4, 20])
def test_fd_check_is_the_per_point_loop(moderate_hour, hot_hour, cold_hour,
                                        solve_cached, mask, n_probes):
    """One kkt_map call on all probe points returns the very float of one
    call per point, so no hour's decision changes; with an empty mask
    only the x-probes run, and no probes check nothing (0.0)."""
    for w in (moderate_hour, hot_hour, cold_hour):
        anchor = solve_cached(w)
        spec = sn.uncertainty_spec(w, mask, 0.01)
        got = sn.verify_operator_fd(anchor, w, spec, n_probes=n_probes,
                                    seed=1)
        assert got == _fd_check_by_point(anchor, w, spec, n_probes, 1)
        assert got <= 1e-6 and (got > 0.0) == (n_probes > 0)


def test_fd_verification_catches_a_wrong_entry(moderate_hour, solve_cached,
                                               monkeypatch):
    """Scaling the largest probed entry of G, or of grad_w H, by 1 + 1e-3
    lifts the self-check above its 1e-6 gate, so build_operator raises."""
    anchor = solve_cached(moderate_hour)
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",) + FAN_MASK, 0.01)
    sn.build_operator(anchor, moderate_hour, spec)
    G0, W0 = _jacobians(anchor, spec)
    sw = np.maximum(1.0, np.abs(moderate_hour.to_vector()[list(spec.indices)]))

    def scaled(M, col_scale):
        M = M.copy()
        M[np.unravel_index(np.argmax(np.abs(M * col_scale)), M.shape)] *= 1 + 1e-3
        return M

    sx = baseline_opt.Scaling.of(moderate_hour).x
    for G, W_jac in ((scaled(G0, sx), W0), (G0, scaled(W0, sw))):
        err = sn.verify_operator_fd(anchor, moderate_hour, spec, n_probes=4,
                                    seed=0, G=G, W_jac=W_jac)
        assert err > 1e-6
        monkeypatch.setattr(sn, "_assemble_jacobians",
                            lambda *args, G=G, W_jac=W_jac: (G, W_jac))
        with pytest.raises(ValueError, match="finite differences"):
            sn.build_operator(anchor, moderate_hour, spec)
    assert sn.verify_operator_fd(anchor, moderate_hour, spec, n_probes=4,
                                 seed=0, G=G0, W_jac=W0) <= 1e-6


@pytest.mark.parametrize("field, value", [
    pytest.param("stationarity_residual", 1.0, id="stationarity"),
    pytest.param("complementarity_residual", 1.0, id="complementarity"),
    pytest.param("feasibility_violation", 1e-6, id="feasibility"),
    pytest.param("dual_violation", 1.0, id="dual"),
])
def test_build_rejects_sloppy_anchor(moderate_hour, solve_cached, field,
                                     value):
    """Each field of the `certified` rule alone rejects the anchor."""
    kkt = solve_cached(moderate_hour)
    bad = dataclasses.replace(kkt, **{field: value})
    assert not bad.certified
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.01)
    with pytest.raises(ValueError, match="not a certified KKT point"):
        sn.build_operator(bad, moderate_hour, spec)


@pytest.mark.parametrize("hour_fixture",
                         ["hot_hour", "moderate_hour", "cold_hour"])
def test_anchor_is_its_verify_kkt_report(hour_fixture, request,
                                         solve_cached):
    """The solver's anchor is `verify_kkt`'s report at (x0, lam) plus the
    point, and its active set holds the rows whose scaled h is within
    act_tol at x0: the rows `build_operator` keeps active."""
    w = request.getfixturevalue(hour_fixture)
    kkt = solve_cached(w)
    base = dataclasses.fields(baseline_opt.KktResiduals)
    own = dataclasses.fields(baseline_opt.KktPoint)[len(base):]
    assert [f.name for f in own] == ["x0", "lam", "seed", "scaling", "prng"]
    res = baseline_opt.verify_kkt(kkt.x0, kkt.lam, w)
    for f in base:
        assert getattr(kkt, f.name) == getattr(res, f.name), f.name
    h = baseline_opt.Scaling.of(w).evaluate(kkt.x0.to_vector())[1].h
    rows = np.where(np.abs(h) <= baseline_opt.SolverConfig.act_tol)[0]
    assert kkt.active_set == tuple(int(i) for i in rows)


def _other_hours(w):
    """Hours the anchor of w was not solved for: a hot hour (34 C outdoor
    air, doubled loads) with w's parameters, and w with c_p or the flow
    floor changed, which the flat vector does not hold."""
    hot = hm.make_exogenous(34.0, w.zones.q_zone * 2.0, w.zones.t_sp,
                            w.zones.m_oa_min, w.params)
    return {"hot": hot,
            "c_p": dataclasses.replace(
                w, params=dataclasses.replace(w.params, c_p=1006.0)),
            "flow_floor": dataclasses.replace(
                w, params=dataclasses.replace(w.params, flow_floor=2e-3))}


_STAGES = {
    "build_operator": lambda op, spec, w: sn.build_operator(
        op.anchor, w, spec),
    "verify_operator_fd": lambda op, spec, w: sn.verify_operator_fd(
        op.anchor, w, spec, n_probes=1),
    "delta_cost": lambda op, spec, w: sn.delta_cost(op, w, np.zeros(1)),
    "signed_shift_pair": lambda op, spec, w: sn.signed_shift_pair(
        op, w, spec),
    "quadratic_model": lambda op, spec, w: sn.quadratic_model(op, w, spec),
    "sample_bound": lambda op, spec, w: sn.sample_bound(op, w, spec, 16, 0),
}


@pytest.mark.parametrize("other", ["hot", "c_p", "flow_floor"])
@pytest.mark.parametrize("stage", list(_STAGES))
def test_stage_refuses_another_hours_w0(stage, other, moderate_hour,
                                        solve_cached):
    """The anchor carries the hour it was solved for; the operator and
    every K stage refuse a w0 of another hour instead of mixing the two."""
    op, spec = _operator(solve_cached, moderate_hour)
    with pytest.raises(ValueError, match="not the hour the anchor"):
        _STAGES[stage](op, spec, _other_hours(moderate_hour)[other])


@pytest.mark.parametrize("mask", [("Q_zone_1",), ("T_oa", "Q_zone_1")])
@pytest.mark.parametrize("stage", ["signed_shift_pair", "quadratic_model",
                                   "sample_bound"])
def test_k_stage_refuses_a_spec_for_other_coordinates(stage, mask,
                                                      moderate_hour,
                                                      solve_cached):
    """A K stage takes its stencil or box from the spec and the shift
    from the operator; a spec that moves other coordinates than the
    operator's is refused with both masks named, instead of returning
    another coordinate's numbers (one mask) or failing in a matmul (two)."""
    op, _ = _operator(solve_cached, moderate_hour)
    spec = sn.uncertainty_spec(moderate_hour, mask, 0.05)
    with pytest.raises(ValueError, match=re.escape(
            f"spec mask {list(mask)} moves other coordinates than the "
            f"operator's mask ['T_oa']")):
        _STAGES[stage](op, spec, moderate_hour)


def test_rebuilt_hour_is_accepted(moderate_hour, solve_cached):
    """An equal hour built anew (new arrays, new parameter object) is the
    anchor's hour: every stage accepts it and returns the same bits."""
    z, par = moderate_hour.zones, moderate_hour.params
    twin = hm.make_exogenous(moderate_hour.t_oa, z.q_zone.copy(),
                             z.t_sp.copy(), z.m_oa_min.copy(),
                             dataclasses.replace(par))
    assert twin.params is not par
    op, spec = _operator(solve_cached, moderate_hour)
    op2 = sn.build_operator(op.anchor, twin, spec)
    assert np.array_equal(op2.shift_matrix, op.shift_matrix)
    for stage, run in _STAGES.items():
        got, want = run(op2, spec, twin), run(op, spec, moderate_hour)
        if stage == "quadratic_model":
            got, want = np.r_[got.g, got.H_K.ravel()], \
                np.r_[want.g, want.H_K.ravel()]
        elif stage == "sample_bound":
            got, want = got.beta, want.beta
        elif stage == "build_operator":
            got, want = got.shift_matrix, want.shift_matrix
        assert np.array_equal(got, want), stage


def _null_space_block(s, xv, null):
    """A stationarity block S = I - P, with P the projector onto the named
    directions of the scaled x: "gauge" (the normalized cost-flat (T_sa,
    q_h) direction) or "m_oa" (the outdoor-air flow axis)."""
    lay = s.layout
    gauge = np.zeros(lay.x_dim)
    gauge[lay.t_sa] = 1.0
    gauge[lay.q_h] = s.params.c_p * xv[lay.m_sa].sum()
    gauge /= s.x
    axes = {"gauge": gauge, "m_oa": np.eye(lay.x_dim)[lay.m_oa]}
    S = np.eye(lay.x_dim)
    if null:
        q, _ = np.linalg.qr(np.column_stack([axes[k] for k in null]))
        S -= q @ q.T
    return S


@pytest.mark.parametrize("null, unique", [
    ((), True), (("gauge",), False), (("m_oa",), False),
    (("gauge", "m_oa"), False)], ids=["none", "gauge", "m_oa", "both"])
def test_shift_is_unique_only_at_full_column_rank(null, unique,
                                                  moderate_hour,
                                                  solve_cached):
    """With no active rows, the shift is unique iff the stationarity block
    is nonsingular: a null direction, the cost-flat gauge included, makes
    it not unique, and `_shift_map` raises instead of returning a shift."""
    s = baseline_opt.Scaling.of(moderate_hour)
    xv = solve_cached(moderate_hour).x0.to_vector()
    m = s.layout.x_dim
    S = _null_space_block(s, xv, null)
    Ds = np.arange(1.0, m + 1.0)[:, None]
    args = (np.zeros((0, m)), np.zeros((0, 1)), S, Ds, np.ones(m))
    if unique:
        assert np.allclose(sn._shift_map(*args), Ds, rtol=1e-12, atol=0.0)
    else:
        with pytest.raises(RankDeficientError):
            sn._shift_map(*args)


def _scaled_blocks(anchor, spec):
    """`build_operator`'s scaled blocks A, B, S, Ds at the anchor and the
    x scale sx: the arguments of `_shift_map`."""
    s = anchor.scaling
    d = s.derivatives(anchor.x0.to_vector())
    G, W_jac = sn._assemble_jacobians(d, anchor.lam, spec.indices)
    sx, sh, sj = s.x, s.h, s.j
    act = np.array(anchor.active_set, dtype=int)
    A = (d.jac_x_h[act] / sh[act, None]) * sx[None, :]
    S = (sx[:, None] * G[:sx.size] * sx[None, :]) / sj
    B = -(d.jac_w_h[np.ix_(act, list(spec.indices))]) / sh[act, None]
    Ds = -(sx[:, None] * W_jac[:sx.size]) / sj
    return A, B, S, Ds, sx


def test_shift_map_refuses_a_stationarity_block_blind_inside_null_a(
        params, solve_cached):
    """A real anchor's active rows, the AHU-balance pair included, leave
    a tangent space null(A) (one direction at hour 10 of the seed-42
    moderate day); a stationarity block projected to lose it leaves
    [A; S] a null direction, so the shift is not unique and `_shift_map`
    raises. The unprojected block gives the operator's shift, bit for
    bit."""
    hour = sc.synth_profile("moderate", 42).hours[1]
    w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones, params=params)
    anchor = solve_cached(w)
    spec = sn.uncertainty_spec(w, ("T_oa",), 0.01)
    A, B, S, Ds, sx = _scaled_blocks(anchor, spec)
    lay = anchor.scaling.layout
    assert {lay.balance, lay.balance_neg} <= set(anchor.active_set)
    op = sn.build_operator(anchor, w, spec)
    assert np.array_equal(sn._shift_map(A, B, S, Ds, sx), op.shift_matrix)

    _, sv, Vt = np.linalg.svd(A)
    rank = int((sv > numkit.RANK_RTOL * sv[0]).sum())
    assert rank == lay.x_dim - 1
    z = Vt[rank]                                  # unit vector of null(A)
    S_blind = S @ (np.eye(lay.x_dim) - np.outer(z, z))
    with pytest.raises(RankDeficientError):
        sn._shift_map(A, B, S_blind, Ds, sx)


def test_rank_deficient_shift_raises(moderate_hour, solve_cached,
                                     monkeypatch):
    """With a rank cutoff at the largest singular value, `_shift_map`
    counts no rank in A or in S Z, and `build_operator` raises."""
    anchor = solve_cached(moderate_hour)
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.01)
    monkeypatch.setattr(numkit, "RANK_RTOL", 1.0)
    with pytest.raises(RankDeficientError):
        sn.build_operator(anchor, moderate_hour, spec)


# ---------------------------------------------------------------------------
# shift map
# ---------------------------------------------------------------------------

def test_predicted_shift_matches_resolve_direction(moderate_hour,
                                                   solve_cached, params):
    """The predicted primal shift points along the true re-solved
    displacement for a small outdoor-temperature bump."""
    op, _ = _operator(solve_cached, moderate_hour)
    dt = 0.1
    dx_pred = op.shift_matrix @ np.array([dt])
    w1 = hm.make_exogenous(moderate_hour.t_oa + dt,
                           moderate_hour.zones.q_zone,
                           moderate_hour.zones.t_sp,
                           moderate_hour.zones.m_oa_min, params)
    dx_true = (solve_baseline(w1).x0.to_vector()
               - op.anchor.x0.to_vector())
    sx = baseline_opt.Scaling.of(moderate_hour).x
    a, b = dx_pred / sx, dx_true / sx
    cos = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos > 0.9
    assert np.linalg.norm(a - b) <= 0.1 * np.linalg.norm(b)


# ---------------------------------------------------------------------------
# the cost-change functional K
# ---------------------------------------------------------------------------

def test_k_is_exactly_zero_at_origin(moderate_hour, hot_hour, cold_hour,
                                     solve_cached):
    for w in (moderate_hour, hot_hour, cold_hour):
        op, _ = _operator(solve_cached, w)
        assert sn.delta_cost(op, w, np.zeros(1)) == 0.0


@pytest.mark.parametrize("mask", [("T_oa",), FAN_MASK])
@pytest.mark.parametrize("hour", ["hot_hour", "moderate_hour", "cold_hour"]
                         + [f"n{n}_{day}" for n in (1, 3, 8)
                            for day in sc.DAY_TYPES])
def test_k_tracks_resolved_optimum(hour, mask, request, solve_cached):
    """K agrees with the re-solved optimal-cost change to within 10%
    at alpha = 0.001 (first-order validity), on the 5-zone fixture hours
    and on one hour per day type at 1, 3 and 8 zones."""
    if hour.endswith("_hour"):
        w = request.getfixturevalue(hour)
    else:
        n, day = hour[1:].split("_")
        w = _scaled_hour(int(n), day, 4)
    anchor = solve_cached(w)
    spec = sn.uncertainty_spec(w, mask, 0.001)
    op = sn.build_operator(anchor, w, spec)
    rng = np.random.default_rng(7)
    wv = w.to_vector()
    idx = list(spec.indices)
    for _ in range(5):
        dw = spec.masked_delta * rng.choice([-1.0, 1.0], len(idx))
        k = sn.delta_cost(op, w, dw)
        wv1 = wv.copy()
        wv1[idx] += dw
        w1 = w.with_vector(wv1)
        dj = solve_baseline(w1).j0 - anchor.j0
        assert abs(k - dj) <= 0.10 * abs(dj) + 1e-9 * abs(anchor.j0)


@pytest.mark.parametrize("day", sc.DAY_TYPES)
@pytest.mark.parametrize("n", [13, 20])
def test_plant_scaled_hour_past_eight_zones(n, day):
    """Past 8 zones, with the plant scaled to the zone count, an hour
    certifies, its operator passes the FD self-check, and K tracks the
    re-solved optimum by acceptance criterion 5's rule: 20 draws in the
    alpha = 0.001 box of T_oa, |K - dJ| <= 0.1 |dJ| + 1e-9 J0."""
    w = _scaled_hour(n, day, plant=True)
    anchor = solve_baseline(w)
    assert anchor.certified
    spec = sn.uncertainty_spec(w, ("T_oa",), 0.001)
    op = sn.build_operator(anchor, w, spec)   # raises if the FD check fails
    wv = w.to_vector()
    idx = list(spec.indices)
    rng = np.random.default_rng([42, n, sc.DAY_TYPES.index(day)])
    for _ in range(20):
        dw = spec.masked_delta * rng.uniform(-1.0, 1.0, len(idx))
        k = sn.delta_cost(op, w, dw)
        wv1 = wv.copy()
        wv1[idx] += dw
        dj = solve_baseline(w.with_vector(wv1)).j0 - anchor.j0
        assert abs(k - dj) <= 0.10 * abs(dj) + 1e-9 * anchor.j0


def test_k_error_shrinks_superlinearly(moderate_hour, solve_cached, params):
    """|K - resolved dJ| decays with order >= 1.5 in the perturbation
    size, as expected of a first-order-exact predictor."""
    anchor = solve_cached(moderate_hour)
    spec = sn.uncertainty_spec(moderate_hour, ("T_oa",), 0.01)
    op = sn.build_operator(anchor, moderate_hour, spec)
    errs = []
    sizes = (0.004, 0.002, 0.001)
    for alpha in sizes:
        dt = alpha * abs(moderate_hour.t_oa)
        k = sn.delta_cost(op, moderate_hour, np.array([dt]))
        w1 = hm.make_exogenous(moderate_hour.t_oa + dt,
                               moderate_hour.zones.q_zone,
                               moderate_hour.zones.t_sp,
                               moderate_hour.zones.m_oa_min, params)
        errs.append(abs(k - (solve_baseline(w1).j0 - anchor.j0)))
    noise = 1e-9 * abs(anchor.j0)
    if max(errs) <= noise:
        return  # prediction exact to solver precision; nothing to rate
    order = math.log(errs[0] / errs[2]) / math.log(sizes[0] / sizes[2])
    assert order >= 1.5


def test_delta_cost_rejects_wrong_size(moderate_hour, solve_cached):
    op, _ = _operator(solve_cached, moderate_hour)
    with pytest.raises(ValueError, match="dw must have 1 masked entries"):
        sn.delta_cost(op, moderate_hour, np.zeros(3))


def test_signed_pair_signs(hot_hour, solve_cached):
    """Warmer outdoor air on a cooling-dominated hour raises cost."""
    op, spec = _operator(solve_cached, hot_hour, alpha=0.01)
    pair = sn.signed_shift_pair(op, hot_hour, spec)
    assert pair["K_plus"] > 0 > pair["K_minus"]


def test_domain_error_when_shift_leaves_model(moderate_hour, solve_cached):
    op, spec = _operator(solve_cached, moderate_hour, mask=("Q_zone_1",))
    # zone-flow response to Q_zone_1
    col = op.shift_matrix[hm.layout(moderate_hour.zones.count).m_sa, 0]
    j = int(np.argmax(np.abs(col)))
    flows = op.anchor.x0.m_sa
    # push zone j's flow well below the floor
    dq = -2.0 * flows[j] / col[j]
    with pytest.raises(EvaluationDomainError):
        sn.delta_cost(op, moderate_hour, np.array([dq]))


def test_k_batch_is_nan_exactly_below_the_floor(moderate_hour, solve_cached):
    """Rows pushed below the flow floor give NaN; every other row gets the
    bits of delta_cost, in either memory layout."""
    op, spec = _operator(solve_cached, moderate_hour, mask=("Q_zone_1",))
    col = op.shift_matrix[hm.layout(moderate_hour.zones.count).m_sa, 0]
    j = int(np.argmax(np.abs(col)))
    dq = -2.0 * op.anchor.x0.m_sa[j] / col[j]
    dW = np.array([[0.0], [0.1 * dq], [dq], [-0.1 * dq], [1.5 * dq], [5.0]])
    below = np.array([False, False, True, False, True, False])
    dX = np.array([op.shift_matrix @ d for d in dW])
    for order in ("C", "F"):
        kvals, ok = sn._k_batch(op, dW, *_buffers(op, dX, order))
        np.testing.assert_array_equal(ok, ~below)
        np.testing.assert_array_equal(np.isnan(kvals), below)
        for d, k in zip(dW[~below], kvals[~below]):
            assert k == sn.delta_cost(op, moderate_hour, d)
    for d in dW[below]:
        with pytest.raises(EvaluationDomainError):
            sn.delta_cost(op, moderate_hour, d)


# ---------------------------------------------------------------------------
# quadratic model
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mask", [("T_oa",), ("T_oa", "Q_zone_1"), WIDE_MASK])
@pytest.mark.parametrize("day_type", sc.DAY_TYPES)
def test_quadratic_model_matches_scalar_stencil(day_type, mask, params,
                                                solve_cached):
    """The batched stencil gives g and H_K bit for bit equal to the
    central differences of delta_cost taken one point at a time, on
    hours of the three synthetic days."""
    for hour in sc.synth_profile(day_type, 42).hours[::3]:
        w = hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                               params=params)
        op, spec = _operator(solve_cached, w, mask=mask, alpha=0.05)
        qm = sn.quadratic_model(op, w, spec)
        steps = numkit.default_fd_steps(w.to_vector()[list(spec.indices)])
        origin = np.zeros(len(mask))

        def K(d):
            return sn.delta_cost(op, w, d)

        assert np.array_equal(qm.g, numkit.fd_gradient(K, origin, steps))
        assert np.array_equal(qm.H_K, numkit.fd_hessian(K, origin, steps))


def test_quadratic_model_domain_error_matches_scalar_path(
        monkeypatch, moderate_hour, solve_cached):
    """A step that keeps the gradient rows inside the flow floor but not
    the 2h rows of the Hessian raises what delta_cost raises."""
    op, spec = _operator(solve_cached, moderate_hour, mask=("Q_zone_1",))
    col = op.shift_matrix[hm.layout(moderate_hour.zones.count).m_sa, 0]
    room = (op.anchor.x0.m_sa - moderate_hour.params.flow_floor) / np.abs(col)
    h = 0.75 * room.min()
    fd_scale = h / abs(moderate_hour.zones.q_zone[0])
    steps = numkit.default_fd_steps(moderate_hour.zones.q_zone[:1],
                                    scale=fd_scale)

    def K(d):
        return sn.delta_cost(op, moderate_hour, d)

    numkit.fd_gradient(K, np.zeros(1), steps)
    with pytest.raises(EvaluationDomainError) as scalar:
        numkit.fd_hessian(K, np.zeros(1), steps)
    monkeypatch.setattr(sn, "_FD_SCALE", fd_scale)
    with pytest.raises(EvaluationDomainError) as batched:
        sn.quadratic_model(op, moderate_hour, spec)
    assert str(batched.value) == str(scalar.value)


def test_quadratic_model_recovers_known_quadratic(monkeypatch, moderate_hour,
                                                  solve_cached):
    """With K replaced by a known quadratic on the stencil rows, the
    model returns its gradient and Hessian."""
    op, spec = _operator(solve_cached, moderate_hour,
                         mask=("T_oa", "Q_zone_1"))
    g_true = np.array([3.0, -1.5])
    H_true = np.array([[2.0, 0.4], [0.4, 5.0]])

    def k_func(d):
        return float(g_true @ d + 0.5 * d @ H_true @ d)

    monkeypatch.setattr(sn, "_k_rows",
                        lambda op_, dW: np.array([k_func(d) for d in dW]))
    qm = sn.quadratic_model(op, moderate_hour, spec)
    np.testing.assert_allclose(qm.g, g_true, rtol=0, atol=1e-8)
    np.testing.assert_allclose(qm.H_K, H_true, rtol=0, atol=1e-6)
    d = np.array([1.0, -1.0])
    assert qm.g @ d + 0.5 * d @ qm.H_K @ d == pytest.approx(k_func(d),
                                                          rel=1e-6)


def test_quadratic_model_step_refinement(monkeypatch, moderate_hour,
                                         solve_cached):
    """Halving the differencing step moves the gradient by < 1e-4
    relative — the estimate is converged, not step-dominated."""
    op, spec = _operator(solve_cached, moderate_hour, alpha=0.01)
    g1 = sn.quadratic_model(op, moderate_hour, spec).g
    monkeypatch.setattr(sn, "_FD_SCALE", sn._FD_SCALE / 2)
    g2 = sn.quadratic_model(op, moderate_hour, spec).g
    assert np.abs(g1 - g2).max() <= 1e-4 * max(1.0, np.abs(g1).max())


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _toy_spec(w0, delta):
    return _with_radius(sn.uncertainty_spec(w0, ("T_oa",), 0.1), w0, "T_oa",
                        delta)


@pytest.mark.parametrize("delta", [np.array([0.5]), [0.5]],
                         ids=["array", "list"])
def test_holder_bound_hand_computed(delta):
    """A spec stores the float array it checked, so a list radius bounds
    as the same radius given as an array."""
    qm = sn.QuadraticModel(g=np.array([2.0]), H_K=np.array([[4.0]]))
    spec = sn.UncertaintySpec(mask=("T_oa",), alpha=0.1,
                              masked_delta=delta, indices=(0,))
    # p = 1, ||g||_1 = 2, sigma = 4, ||Delta||_inf = 0.5
    assert sn.holder_bound(qm, spec, "holder_half").beta == pytest.approx(
        2 * 0.5 + 0.5 * 1 * 4 * 0.25)
    assert sn.holder_bound(
        qm, spec, "holder_paper_literal").beta == pytest.approx(
        2 * 0.5 + 1 * 4 * 0.25)


def test_holder_literal_dominates_half(moderate_hour, solve_cached):
    op, spec = _operator(solve_cached, moderate_hour, mask=FAN_MASK,
                         alpha=0.05)
    qm = sn.quadratic_model(op, moderate_hour, spec)
    half = sn.holder_bound(qm, spec, "holder_half").beta
    lit = sn.holder_bound(qm, spec, "holder_paper_literal").beta
    assert lit >= half >= 0.0


def test_holder_bound_zero_radius(moderate_hour, solve_cached):
    op, _ = _operator(solve_cached, moderate_hour)
    spec = _toy_spec(moderate_hour, 0.0)
    qm = sn.quadratic_model(op, moderate_hour, spec)
    assert sn.holder_bound(qm, spec).beta == 0.0


def test_holder_rejects_unknown_method():
    qm = sn.QuadraticModel(g=np.zeros(1), H_K=np.zeros((1, 1)))
    spec = sn.UncertaintySpec(mask=("T_oa",), alpha=0.1,
                              masked_delta=np.array([0.5]), indices=(0,))
    with pytest.raises(ValueError):
        sn.holder_bound(qm, spec, "supremum")


def test_holder_half_dominates_quadratic_model_samples(
        moderate_hour, hot_hour, cold_hour, solve_cached):
    """The analytic bound majorizes its own quadratic model everywhere
    on the box (it is exact for the model, by construction)."""
    rng = np.random.default_rng(3)
    for w in (moderate_hour, hot_hour, cold_hour):
        op, spec = _operator(solve_cached, w, mask=("T_oa",) + FAN_MASK,
                             alpha=0.05)
        qm = sn.quadratic_model(op, w, spec)
        beta = sn.holder_bound(qm, spec, "holder_half").beta
        d = spec.masked_delta
        samples = rng.uniform(-1.0, 1.0, (2000, d.size)) * d
        vals = np.abs(samples @ qm.g + 0.5 * np.einsum(
            "ij,jk,ik->i", samples, qm.H_K, samples))
        assert vals.max() <= beta * (1 + 1e-12)


def test_sample_bound_finds_vertex_max(monkeypatch, moderate_hour,
                                       solve_cached):
    """With a linear K the worst case sits at a known vertex; the
    sampler must find exactly that vertex and value. K is replaced in
    the sampled blocks and in the argmax re-evaluation."""
    op, spec = _operator(solve_cached, moderate_hour,
                         mask=("T_oa", "Q_zone_1"))
    g = np.array([2.0, -3.0])
    monkeypatch.setattr(sn, "_k_batch", lambda op_, dW, X, W: (
        dW @ g, np.ones(dW.shape[0], dtype=bool)))
    monkeypatch.setattr(sn, "_k_rows", lambda op_, dW: dW @ g)
    res = sn.sample_bound(op, moderate_hour, spec, 500, seed=0)
    d = spec.masked_delta
    assert res.beta == pytest.approx(float(np.abs(g) @ d), rel=1e-12)
    np.testing.assert_allclose(np.abs(res.argmax_dw), d, rtol=1e-12)
    assert res.samples == 500
    assert res.method == "monte_carlo"


@pytest.mark.parametrize("p", [1, 3, 12, 13])
def test_vertex_rows_follow_itertools_order(p, monkeypatch, moderate_hour,
                                            solve_cached):
    """The first 2^min(p, 12) sampled rows are the sign vertices in the
    order of itertools.product((1.0, -1.0), ...); coordinates past the
    twelfth stay at +delta."""
    op, spec = _operator(solve_cached, moderate_hour,
                         mask=(WIDE_MASK + ("T_sp_1",))[:p], alpha=0.05)
    d = spec.masked_delta
    n_sign = min(p, 12)
    expected = np.empty((2 ** n_sign, p))
    expected[:] = d
    for row, signs in enumerate(itertools.product((1.0, -1.0),
                                                  repeat=n_sign)):
        expected[row, :n_sign] = np.asarray(signs) * d[:n_sign]
    rows = []

    def k_batch(op_, dW, X, W):
        rows.append(dW.copy())
        return np.zeros(dW.shape[0]), np.ones(dW.shape[0], dtype=bool)

    monkeypatch.setattr(sn, "_k_batch", k_batch)
    monkeypatch.setattr(sn, "_k_rows", lambda op_, dW: np.zeros(dW.shape[0]))
    sn.sample_bound(op, moderate_hour, spec, 2 ** n_sign, seed=0)
    assert np.array_equal(np.concatenate(rows), expected)


def _unblocked_sample(op, spec, n_samples, seed):
    """Reference for the sampler's rows and K, built the direct way:
    np.where vertices in itertools.product order, rng.uniform draws, one
    vstack and one _k_batch call over every row."""
    d = spec.masked_delta
    n_sign = min(d.size, 12)
    vertices = np.array([
        np.where(np.r_[s, np.ones(d.size - n_sign)] < 0, -d, d)
        for s in itertools.product((1.0, -1.0), repeat=n_sign)])
    n_draws = max(0, n_samples - vertices.shape[0])
    draws = np.random.default_rng(seed).uniform(
        -1.0, 1.0, size=(n_draws, d.size)) * d[None, :]
    dW = np.vstack([vertices, draws])
    kvals, ok = sn._k_batch(op, dW, *_buffers(op, dW @ op.shift_matrix.T,
                                              "F"))
    return dW, kvals, ok


def _scaled_hour(n, day="moderate", k=3, plant=False):
    """Hour k of the seed-42 `day` profile at n zones, with the
    `scaled_params(n, plant)` parameters."""
    hour = sc.synth_profile(day, 42, n_zones=n).hours[k]
    return hm.ExogenousVector(t_oa=hour.t_oa, zones=hour.zones,
                              params=scaled_params(n, plant))


def _blocked_sample(monkeypatch, op, w, spec, n_samples, seed):
    """sample_bound's result (or its domain error) and the rows, K and
    mask of its blocked _k_batch calls, concatenated. The blocks are the
    "F" calls, whose X has adjacent rows; the one-row "C" call for beta at
    the argmax is not one."""
    calls = []
    k_batch = sn._k_batch

    def recording(op_, dW, X, W):
        kvals, ok = k_batch(op_, dW, X, W)
        if X.strides[0] == X.itemsize:
            calls.append((dW.copy(), kvals, ok))
        return kvals, ok

    monkeypatch.setattr(sn, "_k_batch", recording)
    try:
        res = sn.sample_bound(op, w, spec, n_samples, seed)
    except EvaluationDomainError as exc:
        res = exc
    finally:
        monkeypatch.setattr(sn, "_k_batch", k_batch)
    rows, kvals, ok = (np.concatenate(parts) for parts in zip(*calls))
    return res, rows, kvals, ok, len(calls)


def _assert_matches_unblocked(monkeypatch, op, w, spec, n_samples, seed):
    res, rows, kvals, ok, n_calls = _blocked_sample(
        monkeypatch, op, w, spec, n_samples, seed)
    dW, k_ref, ok_ref = _unblocked_sample(op, spec, n_samples, seed)
    assert n_calls == -(-dW.shape[0] // sn._BLOCK_ROWS)
    assert np.array_equal(rows, dW)
    assert np.array_equal(kvals, k_ref, equal_nan=True)
    assert np.array_equal(ok, ok_ref)
    skipped = int(np.count_nonzero(~ok_ref))
    if skipped > 0.1 * dW.shape[0]:
        assert isinstance(res, EvaluationDomainError)
        assert str(res).startswith(f"{skipped}/{dW.shape[0]} samples")
        return skipped
    best = int(np.nanargmax(np.abs(k_ref)))
    assert res.samples == dW.shape[0]
    assert np.array_equal(res.argmax_dw, dW[best])
    assert res.beta == abs(sn.delta_cost(op, w, dW[best]))
    return skipped


SAMPLER_MASKS = (
    ("T_oa",),
    ("T_oa", "Q_zone_1", "T_sp_1") + FAN_MASK
    + ("c_b_1", "c_b_2", "c_b_3", "alpha_el", "alpha_ng"),
    ("c_f_4", "Q_b_rated", "eta_thermal", "c_b_1", "c_b_2", "c_b_3",
     "Q_e_rated", "P_pump", "c_g_1", "c_g_2", "c_g_3", "alpha_el",
     "alpha_ng"),
)


def _hessian_rows(n):
    """`numkit._hessian_layout(n)` built row by row from its docstring."""
    base, I, J, corner = [], [], [], []
    row = 1
    for i in range(n):
        base.append(row)
        row += 2
        for j in range(i + 1, n):
            I.append(i)
            J.append(j)
            corner.append(row)
            row += 4
    return base, I, J, corner


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_k_rows_shift_has_matvec_bits(n, monkeypatch):
    """_k_rows' one stacked matmul gives every row the bytes of the matvec
    shift_matrix @ d, on the quadratic model's stencil and on box draws,
    with 1, 3, 12 and 13 masked coordinates; and the cached Hessian
    stencil layout equals one built row by row and is read-only. The
    masks take the coordinates that move x first: the shift columns of
    the cost-only parameters are zero, and sums of zeros round alike in
    any order."""
    w = _scaled_hour(n)
    anchor = solve_baseline(w)
    zones = [f"{k}_{i}" for i in range(1, n + 1)
             for k in ("Q_zone", "T_sp", "m_oa_min")]
    mask = ("T_oa", *zones) + SAMPLER_MASKS[2]
    shifts = []

    def recording(op_, dW, X, W):
        shifts.append(X.copy())
        return np.zeros(dW.shape[0]), np.ones(dW.shape[0], dtype=bool)

    monkeypatch.setattr(sn, "_k_batch", recording)
    rng = np.random.default_rng(n)
    for p in (1, 3, 12, 13):
        spec = sn.uncertainty_spec(w, mask[:p], 0.05)
        op = sn.build_operator(anchor, w, spec)
        steps = numkit.default_fd_steps(w.to_vector()[list(spec.indices)])
        dW = np.vstack([numkit.fd_stencil(np.zeros(p), steps),
                        rng.uniform(-1.0, 1.0, (50, p)) * spec.masked_delta])
        sn._k_rows(op, dW)
        expected = np.array([op.shift_matrix @ d for d in dW])
        assert shifts.pop().tobytes() == expected.tobytes(), p

        layout = numkit._hessian_layout(p)
        assert numkit._hessian_layout(p) is layout
        for got, built in zip(layout, _hessian_rows(p)):
            assert np.array_equal(got, built)
            assert not got.flags.writeable


@pytest.mark.parametrize("n", [1, 3, 5, 8, 10])
def test_signed_pair_has_the_bits_of_delta_cost(n):
    """signed_shift_pair evaluates both scenarios in one two-row call; each
    K has the bits of delta_cost at that scenario, with one coordinate
    masked and with thirteen."""
    w = _scaled_hour(n)
    anchor = solve_baseline(w)
    wv = w.to_vector()
    for mask in SAMPLER_MASKS[:2]:
        spec = sn.uncertainty_spec(w, mask, 0.05)
        op = sn.build_operator(anchor, w, spec)
        idx = list(spec.indices)
        dw = spec.masked_delta * np.where(wv[idx] < 0, -1.0, 1.0)
        pair = sn.signed_shift_pair(op, w, spec)
        assert np.array_equal(
            [pair["K_plus"], pair["K_minus"]],
            [sn.delta_cost(op, w, dw), sn.delta_cost(op, w, -dw)]), mask


@pytest.mark.parametrize("n", [1, 3, 5, 8, 10])
def test_blocked_sampler_matches_unblocked_rows(n, monkeypatch):
    """The cached signs, in-place draws and blocked kernel calls give the
    rows, K and domain mask of one unblocked pass bit for bit, and the
    same beta, argmax and sample count; on 1 to 13 masked coordinates and
    sample counts on either side of a block."""
    w = _scaled_hour(n)
    anchor = solve_baseline(w)
    for mask in SAMPLER_MASKS:
        spec = sn.uncertainty_spec(w, mask, 0.05)
        op = sn.build_operator(anchor, w, spec)
        for n_samples in (1, 2047, 2048, 2049, 10000):
            _assert_matches_unblocked(monkeypatch, op, w, spec, n_samples,
                                      seed=n_samples)


@pytest.mark.parametrize("n", [5, 10])
def test_blocked_sampler_matches_unblocked_below_the_floor(n, monkeypatch):
    """Boxes whose lower edge crosses the flow floor: the NaN rows, the
    skipped count and K on the other rows match one unblocked pass, both
    when the sampler returns (a few rows, so that some blocks have none,
    or about 5% skipped) and when it raises."""
    w = _scaled_hour(n)
    anchor = solve_baseline(w)
    spec = sn.uncertainty_spec(w, ("Q_zone_1",), 0.01)
    op = sn.build_operator(anchor, w, spec)
    col = op.shift_matrix[hm.layout(n).m_sa, 0]
    room = np.abs((anchor.x0.m_sa - w.params.flow_floor) / col).min()
    skipped = []
    for reach in (1.001, 1.0 / 0.9, 3.0):
        box = _with_radius(spec, w, "Q_zone_1", reach * room)
        skipped.append(_assert_matches_unblocked(
            monkeypatch, dataclasses.replace(op, spec=box), w, box, 10000,
            seed=1))
    assert 0 < skipped[0] < 20 < skipped[1] <= 1000 < skipped[2]


def test_sample_bound_deterministic_in_seed(moderate_hour, solve_cached):
    op, spec = _operator(solve_cached, moderate_hour, alpha=0.02)
    a = sn.sample_bound(op, moderate_hour, spec, 300, seed=11)
    b = sn.sample_bound(op, moderate_hour, spec, 300, seed=11)
    assert a.beta == b.beta
    assert np.array_equal(a.argmax_dw, b.argmax_dw)


def test_sample_bound_dominates_signed_pair(moderate_hour, hot_hour,
                                            cold_hour, solve_cached):
    for w in (moderate_hour, hot_hour, cold_hour):
        op, spec = _operator(solve_cached, w, mask=("T_oa",) + FAN_MASK,
                             alpha=0.05)
        pair = sn.signed_shift_pair(op, w, spec)
        mc = sn.sample_bound(op, w, spec, 4096, seed=0)
        assert mc.beta >= abs(pair["K_plus"]) - 1e-12
        assert mc.beta >= abs(pair["K_minus"]) - 1e-12


def test_sample_bound_errors_when_box_leaves_domain(moderate_hour,
                                                    solve_cached):
    anchor = solve_cached(moderate_hour)
    spec0 = sn.uncertainty_spec(moderate_hour, ("Q_zone_1",), 0.01)
    op = sn.build_operator(anchor, moderate_hour, spec0)
    col = op.shift_matrix[hm.layout(moderate_hour.zones.count).m_sa, 0]
    j = int(np.argmax(np.abs(col)))
    dq = abs(2.0 * op.anchor.x0.m_sa[j] / col[j])
    big = _with_radius(spec0, moderate_hour, "Q_zone_1", dq)
    op_big = dataclasses.replace(op, spec=big)
    with pytest.raises(EvaluationDomainError):
        sn.sample_bound(op_big, moderate_hour, big, 1000, seed=0)


def test_sample_bound_rejects_bad_count(moderate_hour, solve_cached):
    op, spec = _operator(solve_cached, moderate_hour)
    with pytest.raises(ValueError):
        sn.sample_bound(op, moderate_hour, spec, 0, seed=0)


def test_empty_mask_gives_zero_everything(moderate_hour, solve_cached):
    op, spec = _operator(solve_cached, moderate_hour, mask=())
    assert sn.delta_cost(op, moderate_hour, np.zeros(0)) == 0.0
    qm = sn.quadratic_model(op, moderate_hour, spec)
    assert sn.holder_bound(qm, spec).beta == 0.0
    assert sn.sample_bound(op, moderate_hour, spec, 10, seed=0).beta == 0.0
