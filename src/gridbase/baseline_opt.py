"""Hourly baseline problem: assemble, solve, and certify a KKT point.

The globalization phase uses scipy's SLSQP on a diagonally scaled copy of
the problem (temperatures, flows and coil duties live on very different
scales). The returned point is then refined in-repo: the cost-flat
direction shared by (T_sa, q_h) is canonicalized to the minimum-q_h
endpoint, and an active-set Newton polish drives the KKT residuals to
machine precision while recovering multipliers for every constraint row.

The AHU energy balance appears in the constraint vector as two opposite
inequality rows; internally it is one equality with a free multiplier mu,
reported as lambda_pos = max(mu, 0), lambda_neg = max(-mu, 0).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.optimize import nnls as scipy_nnls

from . import hvac_model as hm
from .errors import InfeasibleHourError, NoConvergenceError

PRNG_NAME = "PCG64"


@dataclass(frozen=True)
class SolverConfig:
    kkt_tol: float = 1e-6
    feas_tol: float = 1e-8
    act_tol: float = 1e-6
    multistart_count: int = 8   # maximum number of SLSQP starts
    rng_seed: int = 0
    max_iterations: int = 300

    def __post_init__(self):
        if min(self.kkt_tol, self.feas_tol, self.act_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.multistart_count < 1:
            raise ValueError("multistart_count must be >= 1")


@dataclass(frozen=True)
class KktPoint:
    """Verified nominal optimum with multipliers and scaled residuals."""

    x0: hm.DecisionVector
    lam: np.ndarray
    j0: float
    stationarity_residual: float
    complementarity_residual: float
    feasibility_violation: float
    active_set: tuple
    strict_complementarity_ok: bool
    seed: int
    prng: str = PRNG_NAME


@dataclass(frozen=True)
class KktResiduals:
    stationarity_residual: float
    complementarity_residual: float
    feasibility_violation: float
    dual_violation: float
    active_set: tuple
    strict_complementarity_ok: bool


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

def _x_scale(params: hm.HvacParameters, n: int) -> np.ndarray:
    return np.concatenate([
        [10.0, params.m_design], np.full(n, params.m_design),
        [params.Q_b_rated, params.Q_e_rated],
    ])


def _h_scale(wv: np.ndarray, n: int, params: hm.HvacParameters) -> np.ndarray:
    v_min = wv[1 + 2 * n:1 + 3 * n]
    md = params.m_design
    qbr, qer = params.Q_b_rated, params.Q_e_rated
    s = np.empty(hm.constraint_count(n))
    s[0:2] = 10.0
    s[2:6] = md
    s[6:6 + n] = md
    s[6 + n:6 + 2 * n] = md * np.maximum(v_min, 0.01)
    s[6 + 2 * n:6 + 4 * n] = params.c_p * md * 10.0
    k0 = 6 + 4 * n
    s[k0:k0 + 2] = qbr
    s[k0 + 2:k0 + 4] = qer
    s[k0 + 4:k0 + 6] = qbr
    s[k0 + 6:k0 + 8] = max(qbr, qer)
    return s


def _j_scale(params: hm.HvacParameters) -> float:
    fan = hm.fan_power(params.m_design, params)
    return params.alpha_el * (fan + 0.5 * params.Q_e_rated) \
        + params.alpha_ng * 0.5 * params.Q_b_rated / params.eta_thermal


# ---------------------------------------------------------------------------
# gauge canonicalization
# ---------------------------------------------------------------------------

def _canonicalize(xv: np.ndarray, n: int, c_p: float) -> np.ndarray:
    """Move along the cost-flat (T_sa, q_h) direction to the deterministic
    minimum-q_h endpoint, and strip any common heat/cool mode."""
    xv = xv.copy()
    iA, iB = 2 + n, 3 + n
    common = min(xv[iA], xv[iB])
    if common > 0.0:
        xv[iA] -= common
        xv[iB] -= common
    m = xv[2:2 + n].sum()
    # slide t <= 0 with dT_sa = t, dq_h = c_p * m * t (J and Q_b invariant)
    t = max(12.0 - xv[0], -xv[iA] / (c_p * m))
    if t < 0.0:
        xv[0] += t
        xv[iA] += c_p * m * t
        if abs(xv[iA]) < 1e-9 * max(1.0, abs(c_p * m * t)):
            xv[iA] = max(xv[iA], 0.0)
    return xv


# ---------------------------------------------------------------------------
# active-set Newton polish
# ---------------------------------------------------------------------------

def _polish(xv, wv, n, c_p, flow_floor, sx, sh, sj, act_init, h0,
            feas_keep=1e-11, max_outer=25):
    """Refine (x, lambda) on the active-set KKT system; h0 is the scaled
    constraint vector h(xv) / sh.

    Returns (xv, lam_full, mu, converged). lam_full covers all rows in
    original units; the balance equality multiplier mu is split over the
    two opposite rows by sign.
    """
    ncon = hm.constraint_count(n)
    k0 = 6 + 4 * n
    eq_row = k0 + 6
    act = sorted(set(int(i) for i in act_init) - {eq_row, eq_row + 1})
    lam_act = np.zeros(len(act))
    mu = 0.0

    def _assemble(lam_vec, mu_scaled):
        lam_full = np.zeros(ncon)
        for idx, row in enumerate(act):
            lam_full[row] = max(lam_vec[idx], 0.0) * sj / sh[row]
        mu_orig = mu_scaled * sj / sh[eq_row]
        lam_full[eq_row] = max(mu_orig, 0.0)
        lam_full[eq_row + 1] = max(-mu_orig, 0.0)
        return lam_full, mu_orig

    # a point that is already feasible, sits exactly on its active rows,
    # and admits nonnegative stationarity multipliers needs no Newton
    # refinement — restarting Newton there can diverge when the active
    # rows are linearly dependent (degenerate corners)
    if h0.max() <= feas_keep and (
            not act or np.abs(h0[act]).max() <= 1e-12):
        lam_nn, mu_nn = _nnls_multipliers(
            xv, wv, n, c_p, flow_floor, sx, sh, sj, act, eq_row)
        if lam_nn is not None:
            lam_full, mu_orig = _assemble(lam_nn, mu_nn)
            return xv, lam_full, mu_orig, True

    for _outer in range(max_outer):
        xv, lam_act, mu, ok = _newton_on_active(
            xv, wv, n, c_p, flow_floor, sx, sh, sj, act, lam_act, mu)
        if not ok:
            return xv, None, mu, False
        if lam_act.size and lam_act.min() < -1e-9:
            # at degenerate corners the active rows are dependent and the
            # Newton multipliers are sign-indefinite; try a nonnegative
            # recovery on the same rows before dropping any of them
            lam_nn, mu_nn = _nnls_multipliers(
                xv, wv, n, c_p, flow_floor, sx, sh, sj, act, eq_row)
            if lam_nn is not None:
                lam_act, mu = lam_nn, mu_nn
            else:
                worst = int(np.argmin(lam_act))
                del act[worst]
                lam_act = np.delete(lam_act, worst)
                continue
        h = hm.constraints_flat(xv, wv, n, c_p, flow_floor) / sh
        inactive = np.setdiff1d(np.arange(ncon), act + [eq_row, eq_row + 1])
        if inactive.size and h[inactive].max() > feas_keep:
            worst = int(inactive[np.argmax(h[inactive])])
            act = sorted(act + [worst])
            lam_act = np.zeros(len(act))
            continue
        # converged: assemble full multipliers in original units
        lam_full, mu_orig = _assemble(lam_act, mu)
        return xv, lam_full, mu_orig, True
    return xv, None, mu, False


@np.errstate(over="ignore", invalid="ignore")
def _newton_on_active(xv, wv, n, c_p, flow_floor, sx, sh, sj, act,
                      lam_act, mu, max_iter=40):
    """Newton iteration on the equality-constrained KKT system for a fixed
    active set (plus the always-active balance equality)."""
    k0 = 6 + 4 * n
    eq_row = k0 + 6
    rows = list(act) + [eq_row]
    na = len(act)
    lam = np.concatenate([lam_act, [mu]])
    mdim = n + 4

    for _it in range(max_iter):
        d = hm.derivatives_flat(xv, wv, n, c_p)
        h = hm.constraints_flat(xv, wv, n, c_p, flow_floor)
        lam_orig = np.zeros(hm.constraint_count(n))
        for idx, row in enumerate(rows):
            lam_orig[row] = lam[idx] * sj / sh[row]
        W = d.hess_xx_j.copy()
        for row in rows:
            if lam_orig[row] != 0.0:
                W += lam_orig[row] * d.hess_xx_h[row]
        Wt = (sx[:, None] * W * sx[None, :]) / sj
        A = (d.jac_x_h[rows] * sx[None, :]) / sh[rows, None]
        gj = d.grad_x_j * sx / sj
        resid_stat = gj + A.T @ lam
        resid_h = h[rows] / sh[rows]
        err = max(np.abs(resid_stat).max(), np.abs(resid_h).max())
        if err < 1e-13:
            return xv, lam[:na], lam[na], True

        nv = mdim + len(rows)
        K = np.zeros((nv, nv))
        K[:mdim, :mdim] = Wt
        K[:mdim, mdim:] = A.T
        K[mdim:, :mdim] = A
        rhs = np.concatenate([-gj, -resid_h])
        if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
            return xv, lam[:na], lam[na], False  # dependent rows diverged
        step = None
        for eps in (0.0, 1e-10, 1e-8, 1e-6):
            Kr = K.copy()
            Kr[:mdim, :mdim] += eps * np.eye(mdim)
            try:
                sol = np.linalg.solve(Kr, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.isfinite(sol).all() and np.abs(sol[:mdim]).max() < 1e3:
                step = sol
                break
        if step is None:
            sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
            if not np.isfinite(sol).all():
                return xv, lam[:na], lam[na], False
            step = sol
        dz = step[:mdim]
        lam_new = step[mdim:]
        # damp very long steps; the quadratic phase takes full steps
        norm = np.abs(dz).max()
        alpha = 1.0 if norm < 0.5 else 0.5 / norm
        xv = xv + alpha * dz * sx
        lam = lam + alpha * (lam_new - lam)
    return xv, lam[:na], lam[na], err < 1e-9


def _nnls_multipliers(xv, wv, n, c_p, flow_floor, sx, sh, sj, act, eq_row,
                      tol=1e-11):
    """Nonnegative multipliers for a fixed active set at a fixed point.

    Solves min ||grad J + sum lam_i grad h_i|| (scaled) subject to
    lam >= 0, with the balance-equality multiplier free in sign. Returns
    (lam_act, mu) in scaled units, or (None, 0.0) when no nonnegative
    combination reaches stationarity."""
    _, grad, _, jac = hm.first_order_flat(xv, wv, n, c_p, flow_floor)
    gj = grad * sx / sj
    A = (jac[list(act)] * sx[None, :]) / sh[list(act), None]
    a_eq = (jac[eq_row] * sx) / sh[eq_row]
    M = np.column_stack([A.T, a_eq, -a_eq])
    z, resid = scipy_nnls(M, -gj)
    if resid > tol * max(1.0, np.abs(gj).max()):
        return None, 0.0
    return z[:len(act)], float(z[-2] - z[-1])


def _snap_active_bounds(xv, wv, n, active, sh):
    """Set variables sitting on simple bounds to the exact bound value."""
    xv = xv.copy()
    P = 1 + 3 * n
    m_des = wv[P + 3]
    qbr = wv[P + 8]
    qer = wv[P + 13]
    v_sum = wv[1 + 2 * n:1 + 3 * n].sum()
    k0 = 6 + 4 * n
    simple = {
        0: (0, 12.0), 1: (0, 37.0),
        2: (1, v_sum), 3: (1, m_des),
        k0: (2 + n, 0.0), k0 + 1: (2 + n, qbr),
        k0 + 2: (3 + n, 0.0), k0 + 3: (3 + n, qer),
    }
    for row in active:
        if row in simple:
            i, val = simple[row]
            xv[i] = val
    return xv


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_kkt(x: hm.DecisionVector, lam, w: hm.ExogenousVector,
               cfg: SolverConfig | None = None) -> KktResiduals:
    """Recompute the four KKT residual groups from the analytic model
    gradient and constraint Jacobian, independently of any solver state."""
    cfg = cfg or SolverConfig()
    n = w.zones.count
    par = w.params
    lam = np.asarray(lam, dtype=float)
    if lam.size != hm.constraint_count(n):
        raise ValueError(
            f"expected {hm.constraint_count(n)} multipliers, got {lam.size}")
    xv = x.to_vector()
    if xv.size != n + 4:
        raise ValueError(f"expected {n + 4} decision entries, got {xv.size}")
    wv = w.to_vector()
    _, grad, h, jac = hm.first_order_flat(xv, wv, n, par.c_p, par.flow_floor)
    sx = _x_scale(par, n)
    sh = _h_scale(wv, n, par)
    j0 = hm.objective_flat(xv, wv, n, par.c_p)

    grad_l = grad + lam @ jac
    stat = np.abs(grad_l * sx).max() / max(1.0, np.abs(grad * sx).max())
    comp = np.abs(lam * h).max() / max(1.0, abs(j0))
    feas = max(0.0, (h / sh).max())
    dual = max(0.0, -lam.min()) if lam.size else 0.0
    h_scaled = h / sh
    active = tuple(int(i) for i in np.where(np.abs(h_scaled) <= cfg.act_tol)[0])
    lam_scaled = lam * sh / _j_scale(par)
    strict_ok = all(lam_scaled[i] > 1e-8 for i in active)
    return KktResiduals(
        stationarity_residual=float(stat),
        complementarity_residual=float(comp),
        feasibility_violation=float(feas),
        dual_violation=float(dual),
        active_set=active,
        strict_complementarity_ok=bool(strict_ok),
    )


# ---------------------------------------------------------------------------
# starts
# ---------------------------------------------------------------------------

def _center_start(wv, n, params):
    v_sum = wv[1 + 2 * n:1 + 3 * n].sum()
    md = params.m_design
    t_sa = 24.5
    m_oa = 0.5 * (v_sum + md)
    m_i = np.full(n, md / (n + 1))
    xv = np.concatenate([[t_sa, m_oa], m_i, [0.0, 0.0]])
    return _balance_duties(xv, wv, n, params)


def _balance_duties(xv, wv, n, params):
    """Set (q_h, q_c) = (max(Q_ahu,0), max(-Q_ahu,0)), clipped to ratings."""
    xv = xv.copy()
    c_p = params.c_p
    T, o, mvec = xv[0], xv[1], xv[2:2 + n]
    t_sp = wv[1 + n:1 + 2 * n]
    t_oa = wv[0]
    m = mvec.sum()
    s_t = (mvec * t_sp).sum()
    q_ahu = c_p * (m * T - s_t + o * s_t / m - o * t_oa)
    xv[2 + n] = min(max(q_ahu, 0.0), params.Q_b_rated)
    xv[3 + n] = min(max(-q_ahu, 0.0), params.Q_e_rated)
    return xv


def _random_start(rng, wv, n, params):
    v_sum = wv[1 + 2 * n:1 + 3 * n].sum()
    md = params.m_design
    t_sa = rng.uniform(12.0, 37.0)
    m_oa = rng.uniform(v_sum, md)
    frac = rng.uniform(0.3, 1.0, n)
    total = rng.uniform(max(1.2 * v_sum, 0.3 * md), 0.95 * md)
    m_i = np.maximum(frac / frac.sum() * total, params.flow_floor * 2)
    xv = np.concatenate([[t_sa, m_oa], m_i, [0.0, 0.0]])
    return _balance_duties(xv, wv, n, params)


# ---------------------------------------------------------------------------
# main solve
# ---------------------------------------------------------------------------

def solve_baseline(w: hm.ExogenousVector, cfg: SolverConfig | None = None,
                   x_init: hm.DecisionVector | None = None) -> KktPoint:
    """Solve the hourly baseline problem and return a verified KKT point.

    Starts run in order (x_init if given, the center start, then random
    starts from default_rng(cfg.rng_seed)), at most cfg.multistart_count
    of them; the first that certifies to kkt_tol/feas_tol is returned, so
    rng_seed only matters once the earlier starts fail.

    Deterministic given (w, cfg, x_init). Raises InfeasibleHourError when
    no start reaches a feasible point, NoConvergenceError (carrying the
    best residual report) when tolerances cannot be met.
    """
    cfg = cfg or SolverConfig()
    n = w.zones.count
    par = w.params
    wv = w.to_vector()
    c_p = par.c_p
    floor = par.flow_floor

    v_sum = w.zones.m_oa_min.sum()
    if v_sum > par.m_design:
        raise InfeasibleHourError(
            f"total required ventilation {v_sum:.4g} kg/s exceeds design "
            f"flow {par.m_design:.4g} kg/s")
    q_zone = w.zones.q_zone
    t_sp = w.zones.t_sp
    cap = c_p * par.m_design * (37.0 - t_sp)
    if np.any(q_zone > cap):
        bad = int(np.argmax(q_zone - cap))
        raise InfeasibleHourError(
            f"zone {bad + 1} heating load exceeds the discharge-temperature "
            f"window at design flow")

    sx = _x_scale(par, n)
    sh = _h_scale(wv, n, par)
    sj = _j_scale(par)
    ncon = hm.constraint_count(n)
    k0 = 6 + 4 * n
    eq_row = k0 + 6
    ineq_rows = np.setdiff1d(np.arange(ncon), [eq_row, eq_row + 1])

    cache = {}

    def _eval(z):
        key = z.tobytes()
        hit = cache.get(key)
        if hit is None:
            xv = z * sx
            hit = hm.first_order_flat(xv, wv, n, c_p, floor)
            if len(cache) > 64:
                cache.clear()
            cache[key] = hit
        return hit

    def f_obj(z):
        j, g, _, _ = _eval(z)
        return j / sj

    def f_obj_grad(z):
        _, g, _, _ = _eval(z)
        return g * sx / sj

    def f_ineq(z):
        _, _, h, _ = _eval(z)
        return -(h[ineq_rows] / sh[ineq_rows])

    def f_ineq_jac(z):
        _, _, _, jac = _eval(z)
        return -(jac[ineq_rows] * sx[None, :] / sh[ineq_rows, None])

    def f_eq(z):
        _, _, h, _ = _eval(z)
        return np.array([h[eq_row] / sh[eq_row]])

    def f_eq_jac(z):
        _, _, _, jac = _eval(z)
        return (jac[eq_row] * sx / sh[eq_row])[None, :]

    bounds = [(12.0 / sx[0], 37.0 / sx[0]), (0.0, par.m_design / sx[1])]
    bounds += [(floor / sx[2 + i], par.m_design / sx[2 + i]) for i in range(n)]
    bounds += [(0.0, par.Q_b_rated / sx[2 + n]), (0.0, par.Q_e_rated / sx[3 + n])]

    rng = np.random.default_rng(cfg.rng_seed)
    starts = itertools.chain(
        [] if x_init is None else [x_init.to_vector().astype(float)],
        [_center_start(wv, n, par)],
        (_random_start(rng, wv, n, par) for _ in itertools.count()))
    feasible = False
    best_report = None
    for start in itertools.islice(starts, cfg.multistart_count):
        z0 = np.clip(start / sx, [b[0] for b in bounds], [b[1] for b in bounds])
        try:
            with warnings.catch_warnings():
                # SLSQP routinely steps a hair outside the bounds and clips
                # back; the warning is expected, not actionable
                warnings.filterwarnings(
                    "ignore", message="Values in x were outside bounds",
                    category=RuntimeWarning)
                res = minimize(
                    f_obj, z0, jac=f_obj_grad, method="SLSQP", bounds=bounds,
                    constraints=[
                        {"type": "ineq", "fun": f_ineq, "jac": f_ineq_jac},
                        {"type": "eq", "fun": f_eq, "jac": f_eq_jac},
                    ],
                    options={"maxiter": cfg.max_iterations, "ftol": 1e-12},
                )
        except (ValueError, FloatingPointError):
            continue
        xv = res.x * sx
        h = hm.constraints_flat(xv, wv, n, c_p, floor) / sh
        if max(h[ineq_rows].max(), abs(h[eq_row])) >= 1e-5:
            continue
        feasible = True
        kkt = _finalize(xv, wv, w, n, par, cfg, sx, sh, sj)
        if kkt is None:
            continue
        if (kkt.stationarity_residual <= cfg.kkt_tol
                and kkt.complementarity_residual <= cfg.kkt_tol
                and kkt.feasibility_violation <= cfg.feas_tol):
            return kkt
        if best_report is None or (kkt.stationarity_residual
                                   < best_report.stationarity_residual):
            best_report = kkt
    if not feasible:
        raise InfeasibleHourError(
            "no start reached a feasible point; the hour appears infeasible")
    raise NoConvergenceError(
        "baseline solve did not meet KKT tolerances", report=best_report)


def _finalize(xv, wv, w, n, par, cfg, sx, sh, sj):
    c_p, floor = par.c_p, par.flow_floor
    xv = _canonicalize(xv, n, c_p)
    h_scaled = hm.constraints_flat(xv, wv, n, c_p, floor) / sh
    act = np.where(h_scaled >= -max(cfg.act_tol, 1e-7))[0]
    xv2, lam, mu, ok = _polish(xv, wv, n, c_p, floor, sx, sh, sj, act,
                               h_scaled)
    if not ok or lam is None:
        return None
    # canonicalization can change the active set; always re-polish there
    xv2 = _canonicalize(xv2, n, c_p)
    h_scaled = hm.constraints_flat(xv2, wv, n, c_p, floor) / sh
    act2 = np.where(h_scaled >= -max(cfg.act_tol, 1e-7))[0]
    xv2, lam, mu, ok = _polish(xv2, wv, n, c_p, floor, sx, sh, sj, act2,
                               h_scaled)
    if not ok or lam is None:
        return None
    # verify_kkt's active set at xv2, without its residuals
    active = np.where(np.abs(
        hm.constraints_flat(xv2, wv, n, c_p, floor) / sh) <= cfg.act_tol)[0]
    xv3 = _snap_active_bounds(xv2, wv, n, active, sh)
    x0 = hm.DecisionVector.from_vector(xv3)
    res = verify_kkt(x0, lam, w, cfg)
    j0 = hm.objective_flat(xv3, wv, n, c_p)
    return KktPoint(
        x0=x0, lam=lam, j0=float(j0),
        stationarity_residual=res.stationarity_residual,
        complementarity_residual=res.complementarity_residual,
        feasibility_violation=res.feasibility_violation,
        active_set=res.active_set,
        strict_complementarity_ok=res.strict_complementarity_ok,
        seed=cfg.rng_seed,
    )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def kkt_report(kkt: KktPoint, w: hm.ExogenousVector,
               cfg: SolverConfig | None = None) -> dict:
    """JSON-ready report of a solved hour."""
    from . import __version__
    cfg = cfg or SolverConfig()
    labels = hm.constraint_labels(w.zones.count)
    return {
        "version": __version__,
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
            "kkt_tol": cfg.kkt_tol,
            "feas_tol": cfg.feas_tol,
            "act_tol": cfg.act_tol,
            "multistart_count": cfg.multistart_count,
            "max_iterations": cfg.max_iterations,
        },
        "parameters": hm.dump_parameters(w.params),
    }
