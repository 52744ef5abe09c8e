"""Hourly baseline problem: assemble, solve, and certify a KKT point.

The globalization phase uses scipy's SLSQP on a diagonally scaled copy of
the problem (temperatures, flows and coil duties live on very different
scales). The returned point is then refined in-repo, in at most two
rounds: the cost-flat direction shared by (T_sa, q_h) is canonicalized to
the minimum-q_h endpoint, and the rows active there are fixed. A point
that already sits on them is priced by NNLS (nonnegative multipliers);
any other is moved by one active-set Newton pass, and the next round
starts at its canonical form. The polish never drops or adds a row. What
it leaves, also when Newton fails, ends in a residual report, and the
certificate alone judges it: on an uncertified report the solve tries
the next start.

The AHU energy balance appears in the constraint vector as two opposite
inequality rows; internally it is one equality with a free multiplier mu,
reported as lambda_pos = max(mu, 0), lambda_neg = max(-mu, 0).
"""

from __future__ import annotations

import itertools
import warnings
from collections import namedtuple
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import hvac_model as hm
from .errors import InfeasibleHourError, NoConvergenceError

PRNG_NAME = "PCG64"

_FEAS_KEEP = 1e-11       # largest scaled h the NNLS-only polish accepts
_NEWTON_MAX_ITER = 40    # Newton steps per polish round
_NNLS_TOL = 1e-11        # relative stationarity residual NNLS may leave


# scipy.optimize takes longer to import than the rest of the package, and
# only a solve needs it, so it is imported at the first call: a process
# that synthesizes, checks or exports profiles never loads it. The solver
# calls these module attributes, so a caller can still wrap or replace them.
def minimize(*args, **kwargs):
    """`scipy.optimize.minimize`, imported at the first call."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


def scipy_nnls(*args, **kwargs):
    """`scipy.optimize.nnls`, imported at the first call."""
    from scipy.optimize import nnls
    return nnls(*args, **kwargs)


@dataclass(frozen=True)
class SolverConfig:
    """The seed of the random starts. The tolerances and caps are fixed:
    one certification policy, read as class constants."""

    kkt_tol: ClassVar[float] = 1e-6
    feas_tol: ClassVar[float] = 1e-8
    act_tol: ClassVar[float] = 1e-6
    multistart_count: ClassVar[int] = 8   # maximum number of SLSQP starts
    max_iterations: ClassVar[int] = 300
    rng_seed: int = 0


@dataclass(frozen=True)
class KktResiduals:
    """`verify_kkt`'s report: J and the scaled KKT residuals at a point."""

    j0: float
    stationarity_residual: float
    complementarity_residual: float
    feasibility_violation: float
    dual_violation: float
    active_set: tuple
    strict_complementarity_ok: bool

    @property
    def certified(self) -> bool:
        """The one certification rule: stationarity and complementarity
        within kkt_tol, feasibility within feas_tol, no negative multiplier."""
        return (self.stationarity_residual <= SolverConfig.kkt_tol
                and self.complementarity_residual <= SolverConfig.kkt_tol
                and self.feasibility_violation <= SolverConfig.feas_tol
                and self.dual_violation == 0.0)


@dataclass(frozen=True)
class KktPoint(KktResiduals):
    """An optimum, its multipliers, its `verify_kkt` report and its hour."""

    x0: hm.DecisionVector
    lam: np.ndarray
    seed: int
    scaling: Scaling = field(compare=False, repr=False)
    prng: str = PRNG_NAME


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------

Scaled = namedtuple("Scaled", "j grad h jac")


@dataclass(frozen=True)
class Scaling:
    """One hour's flat w and layout, with the diagonal scales of x, h and J
    that the solver, `verify_kkt` and the sensitivity stages share, and
    the values (lo, hi) of its simple-bound rows (`hm.simple_bounds`).
    `Scaling.of(w)` builds it; a solved hour's `KktPoint` carries it."""

    wv: np.ndarray
    params: hm.HvacParameters
    layout: hm.Layout
    x: np.ndarray
    h: np.ndarray
    j: float
    lo: np.ndarray
    hi: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, compare=False,
                        repr=False)

    @classmethod
    def of(cls, w: hm.ExogenousVector) -> "Scaling":
        par = w.params
        lay = hm.layout(w.zones.count)
        wv = w.to_vector()
        md, qbr, qer = par.m_design, par.Q_b_rated, par.Q_e_rated
        x = np.empty(lay.x_dim)
        x[lay.t_sa], x[lay.m_oa], x[lay.m_sa] = 10.0, md, md
        x[lay.q_h], x[lay.q_c] = qbr, qer
        h = np.empty(lay.h_dim)
        h[lay.air] = (10.0, 10.0, md, md, md, md)
        h[lay.floor] = md
        h[lay.ventilation] = md * np.maximum(wv[lay.m_oa_min], 0.01)
        h[lay.t_da_low] = h[lay.t_da_high] = par.c_p * md * 10.0
        h[lay.duty] = (qbr, qbr, qer, qer, qbr, qbr)
        h[lay.balance] = h[lay.balance_neg] = max(qbr, qer)
        j = par.alpha_el * (hm.fan_power(md, par) + 0.5 * qer) \
            + par.alpha_ng * 0.5 * qbr / par.eta_thermal
        return cls(wv, par, lay, x, h, j,
                   *hm.simple_bounds(wv, par.flow_floor))

    def check(self, w: hm.ExogenousVector) -> "Scaling":
        """Return self if w is this hour (equal parameters and a byte-equal
        flat vector), else raise ValueError."""
        if w.params != self.params \
                or w.to_vector().tobytes() != self.wv.tobytes():
            raise ValueError("w0 is not the hour the anchor was solved for")
        return self

    def values(self, xv):
        """(raw, scaled) at xv: `value_flat`'s record and `Scaled`(J / j,
        None, h / h, None), or `evaluate`'s pair once built. Each point is
        kept, and evaluated and scaled once, until `solve_baseline` begins
        its next start; the arrays are read-only."""
        key = xv.tobytes()
        hit = self._memo.get(key)
        if hit is None:
            raw = hm.value_flat(xv, self.wv, self.params.c_p, self.lo,
                                self.hi)
            scaled = Scaled(raw.j / self.j, None, raw.h / self.h, None)
            raw.h.flags.writeable = scaled.h.flags.writeable = False
            hit = self._memo[key] = (raw, scaled)
        return hit

    def evaluate(self, xv):
        """`first_order_flat` on the kept `values`, and `Scaled`(J / j,
        grad_x J * x / j, h / h, jac_x h * x / h), the problem SLSQP sees;
        the kept entry is upgraded, so nothing is computed twice."""
        val, scaled = hit = self.values(xv)
        if scaled.grad is None:
            raw = hm.first_order_flat(val, xv, self.wv, self.params.c_p)
            scaled = scaled._replace(
                grad=raw.grad * self.x / self.j,
                jac=raw.jac * self.x[None, :] / self.h[:, None])
            for a in (raw.grad, raw.jac, raw.gq, scaled.grad, scaled.jac):
                a.flags.writeable = False
            hit = self._memo[xv.tobytes()] = (raw, scaled)
        return hit

    def derivatives(self, xv):
        """`hm.derivatives_flat` on the raw record `evaluate` keeps at xv,
        so the point's first order is not computed again."""
        return hm.derivatives_flat(self.evaluate(xv)[0], xv, self.wv,
                                   self.params.c_p)

    def multipliers(self, rows, lam):
        """All rows' multipliers in original units, from lam, scaled, over
        rows with the balance equality's free mu last: a negative entry
        clips to 0, and mu splits over the balance pair by sign."""
        act, lay = rows[:-1], self.layout
        full = np.zeros(lay.h_dim)
        # Python's max(v, 0.0) entry by entry: -0.0 and nan pass unchanged
        full[act] = np.where(lam[:-1] < 0.0, 0.0, lam[:-1]) \
            * self.j / self.h[act]
        mu = lam[-1] * self.j / self.h[lay.balance]
        full[[lay.balance, lay.balance_neg]] = max(mu, 0.0), max(-mu, 0.0)
        return full


# ---------------------------------------------------------------------------
# gauge canonicalization
# ---------------------------------------------------------------------------

def _canonicalize(xv: np.ndarray, s: Scaling) -> np.ndarray:
    """Move along the cost-flat (T_sa, q_h) direction to the deterministic
    minimum-q_h endpoint, and strip any common heat/cool mode. The
    endpoint has T_sa or q_h on its lower bound, so every certified
    anchor has `T_sa_min` or `q_h_nonneg` in its `active_set`; that row
    pins the direction, and the shift's rank test never sees it."""
    xv = xv.copy()
    lay, c_p, lo = s.layout, s.params.c_p, s.lo
    iT, iA, iB = lay.t_sa, lay.q_h, lay.q_c
    common = min(xv[iA], xv[iB])
    if common > 0.0:
        xv[iA] -= common
        xv[iB] -= common
    m = xv[lay.m_sa].sum()
    # slide t <= 0 with dT_sa = t, dq_h = c_p * m * t (J and Q_b invariant)
    t = max(lo[iT] - xv[iT], (lo[iA] - xv[iA]) / (c_p * m))
    if t < 0.0:
        xv[iT] += t
        xv[iA] += c_p * m * t
        if abs(xv[iA]) < 1e-9 * max(1.0, abs(c_p * m * t)):
            xv[iA] = max(xv[iA], lo[iA])
    return xv


# ---------------------------------------------------------------------------
# active-set Newton polish
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _newton_on_active(xv, s: Scaling, rows, lam):
    """Newton iteration on the equality-constrained KKT system of the
    fixed `rows`, the balance equality last; lam is scaled, over rows.
    Returns (xv, lam, ok)."""
    mdim = s.layout.x_dim
    sx, sh, sj = s.x, s.h, s.j

    for _it in range(_NEWTON_MAX_ITER):
        scaled = s.evaluate(xv)[1]
        gj, A = scaled.grad, scaled.jac[rows]
        resid_stat = gj + A.T @ lam
        resid_h = scaled.h[rows]
        err = max(np.abs(resid_stat).max(), np.abs(resid_h).max())
        if err < 1e-13:
            return xv, lam, True

        # the Lagrangian Hessian feeds only the step
        d = s.derivatives(xv)
        W = d.hess_xx_j.copy()
        for row, weight in zip(rows, lam * sj / sh[rows]):
            if weight != 0.0:
                W += weight * d.hess_xx_h[row]
        Wt = (sx[:, None] * W * sx[None, :]) / sj
        nv = mdim + len(rows)
        K = np.zeros((nv, nv))
        K[:mdim, :mdim] = Wt
        K[:mdim, mdim:] = A.T
        K[mdim:, :mdim] = A
        rhs = np.concatenate([-gj, -resid_h])
        if not (np.isfinite(K).all() and np.isfinite(rhs).all()):
            return xv, lam, False  # dependent rows diverged
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
                return xv, lam, False
            step = sol
        dz, lam_new = step[:mdim], step[mdim:]
        # damp very long steps; the quadratic phase takes full steps
        norm = np.abs(dz).max()
        alpha = 1.0 if norm < 0.5 else 0.5 / norm
        xv = xv + alpha * dz * sx
        lam = lam + alpha * (lam_new - lam)
    return xv, lam, err < 1e-9


def _nnls_multipliers(xv, s: Scaling, rows):
    """Nonnegative multipliers for the fixed `rows` at a fixed point.

    Solves min ||grad J + sum lam_i grad h_i|| (scaled) subject to
    lam >= 0, with the balance-equality multiplier, last in rows, free in
    sign. Returns lam, scaled, over rows, or None when no nonnegative
    combination reaches stationarity."""
    scaled = s.evaluate(xv)[1]
    a_eq = scaled.jac[rows[-1]]
    M = np.column_stack([scaled.jac[rows[:-1]].T, a_eq, -a_eq])
    z, resid = scipy_nnls(M, -scaled.grad)
    if resid > _NNLS_TOL * max(1.0, np.abs(scaled.grad).max()):
        return None
    return np.append(z[:-2], z[-2] - z[-1])


def _snap_active_bounds(xv, s: Scaling, active):
    """Set variables sitting on active simple-bound rows to the exact bound
    value; an active upper row wins over an active lower row."""
    lay, xv = s.layout, xv.copy()
    on = np.zeros(lay.h_dim, dtype=bool)
    on[active] = True
    low = on[lay.lower]
    xv[low] = s.lo[low]
    up = lay.upper_x[on[lay.upper]]
    xv[up] = s.hi[up]
    return xv


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_kkt(x: hm.DecisionVector, lam,
               w: hm.ExogenousVector) -> KktResiduals:
    """Recompute J and the four KKT residual groups from the analytic model
    gradient and constraint Jacobian, independently of any solver state."""
    return _residuals(x.to_vector(), lam, Scaling.of(w))


def _residuals(xv, lam, s: Scaling) -> KktResiduals:
    lay, sx = s.layout, s.x
    lam = np.asarray(lam, dtype=float)
    if lam.size != lay.h_dim:
        raise ValueError(f"expected {lay.h_dim} multipliers, got {lam.size}")
    raw, scaled = s.evaluate(xv)
    j0 = hm.objective_flat(xv, s.wv, s.params.c_p)

    grad_l = raw.grad + lam @ raw.jac
    stat = np.abs(grad_l * sx).max() / max(1.0, np.abs(raw.grad * sx).max())
    comp = np.abs(lam * raw.h).max() / max(1.0, abs(j0))
    feas = max(0.0, scaled.h.max())
    dual = max(0.0, -lam.min())
    active = tuple(int(i) for i in
                   np.where(np.abs(scaled.h) <= SolverConfig.act_tol)[0])
    lam_scaled = lam * s.h / s.j
    strict_ok = all(lam_scaled[i] > 1e-8 for i in active)
    return KktResiduals(
        j0=float(j0),
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

def _center_start(s: Scaling):
    """T_sa and m_oa at the midpoints of their bounds, even zone flows."""
    lay = s.layout
    xv = np.zeros(lay.x_dim)
    for i in (lay.t_sa, lay.m_oa):
        xv[i] = 0.5 * (s.lo[i] + s.hi[i])
    xv[lay.m_sa] = s.params.m_design / (lay.n + 1)
    return _balance_duties(xv, s)


def _balance_duties(xv, s: Scaling):
    """Set (q_h, q_c) = (max(Q_ahu,0), max(-Q_ahu,0)), clipped to ratings."""
    xv = xv.copy()
    lay, par, wv = s.layout, s.params, s.wv
    T = xv[lay.t_sa]
    m, s_t, _ = hm.loads(T, xv[lay.q_h], xv[lay.m_sa], wv[lay.q_zone],
                         wv[lay.t_sp], par.c_p)
    q_ahu = hm.ahu_duty(T, xv[lay.m_oa], m, s_t, wv[lay.t_oa], par.c_p)
    xv[lay.q_h] = min(max(q_ahu, s.lo[lay.q_h]), s.hi[lay.q_h])
    xv[lay.q_c] = min(max(-q_ahu, s.lo[lay.q_c]), s.hi[lay.q_c])
    return xv


def _random_start(rng, s: Scaling):
    lay, lo, hi = s.layout, s.lo, s.hi
    v_sum, md = lo[lay.m_oa], hi[lay.m_oa]
    xv = np.zeros(lay.x_dim)
    xv[lay.t_sa] = rng.uniform(lo[lay.t_sa], hi[lay.t_sa])
    xv[lay.m_oa] = rng.uniform(v_sum, md)
    frac = rng.uniform(0.3, 1.0, lay.n)
    total = rng.uniform(max(1.2 * v_sum, 0.3 * md), 0.95 * md)
    xv[lay.m_sa] = np.maximum(frac / frac.sum() * total, 2.0 * lo[lay.m_sa])
    return _balance_duties(xv, s)


# ---------------------------------------------------------------------------
# main solve
# ---------------------------------------------------------------------------

def solve_baseline(w: hm.ExogenousVector, cfg: SolverConfig | None = None,
                   x_init: hm.DecisionVector | None = None) -> KktPoint:
    """Solve the hourly baseline problem and return a verified KKT point.

    Starts run in order (x_init if given, the center start, then random
    starts from default_rng(cfg.rng_seed)), at most cfg.multistart_count
    of them; the first whose report is `certified` is returned, so
    rng_seed only matters once the earlier starts fail.

    Deterministic given (w, cfg, x_init). Raises InfeasibleHourError when
    no start reaches a feasible point, NoConvergenceError (carrying the
    report of least stationarity) when tolerances cannot be met.
    """
    cfg = cfg or SolverConfig()
    par = w.params
    s = Scaling.of(w)
    lay, sx = s.layout, s.x

    v_sum, md = s.lo[lay.m_oa], s.hi[lay.m_oa]
    if v_sum > md:
        raise InfeasibleHourError(
            f"total required ventilation {v_sum:.4g} kg/s exceeds design "
            f"flow {md:.4g} kg/s")
    q_zone = w.zones.q_zone
    cap = par.c_p * md * (hm.T_SUPPLY_MAX - w.zones.t_sp)
    if np.any(q_zone > cap):
        bad = int(np.argmax(q_zone - cap))
        raise InfeasibleHourError(
            f"zone {bad + 1} heating load exceeds the discharge-temperature "
            f"window at design flow")

    # SLSQP reads values at every line-search point, gradients at accepted ones
    def values(z):
        return s.values(z * sx)[1]

    def first(z):
        return s.evaluate(z * sx)[1]

    # the balance pair is the last two rows: SLSQP's inequalities are the
    # rows before it, and its equality is the pair's first row
    eq = lay.balance
    constraints = [
        {"type": "ineq", "fun": lambda z: -values(z).h[:eq],
         "jac": lambda z: -first(z).jac[:eq]},
        {"type": "eq", "fun": lambda z: values(z).h[eq:eq + 1],
         "jac": lambda z: first(z).jac[eq:eq + 1]},
    ]

    lo, hi = hm.x_box(s.wv, par.flow_floor)
    lo, hi = lo / sx, hi / sx
    bounds = list(zip(lo, hi))

    rng = np.random.default_rng(cfg.rng_seed)
    starts = itertools.chain(
        [] if x_init is None else [x_init.to_vector().astype(float)],
        [_center_start(s)],
        (_random_start(rng, s) for _ in itertools.count()))
    reports = []
    for start in itertools.islice(starts, cfg.multistart_count):
        s._memo.clear()  # one start's points; the winner's stay for the operator
        z0 = np.clip(start / sx, lo, hi)
        try:
            with warnings.catch_warnings():
                # SLSQP routinely steps a hair outside the bounds and clips
                # back; the warning is expected, not actionable
                warnings.filterwarnings(
                    "ignore", message="Values in x were outside bounds",
                    category=RuntimeWarning)
                res = minimize(
                    lambda z: values(z).j, z0, jac=lambda z: first(z).grad,
                    method="SLSQP", bounds=bounds, constraints=constraints,
                    options={"maxiter": cfg.max_iterations, "ftol": 1e-12},
                )
        except (ValueError, FloatingPointError):
            continue
        xv = res.x * sx
        h = s.values(xv)[1].h
        # written as the feasible case: any comparison with a NaN is False
        if not (np.isfinite(xv).all() and h[:eq].max() < 1e-5
                and abs(h[eq]) < 1e-5):
            continue
        kkt = _finalize(xv, s, cfg.rng_seed)
        if kkt.certified:
            return kkt
        reports.append(kkt)
    if not reports:
        raise InfeasibleHourError(
            "no start reached a feasible point; the hour appears infeasible")
    # least stationarity first, nan and inf last, the earliest of equals
    raise NoConvergenceError(
        "baseline solve did not meet KKT tolerances",
        min(reports, key=lambda r: (not np.isfinite(r.stationarity_residual),
                                    r.stationarity_residual)))


# a failed Newton pass's multipliers may overflow; its report then reads
# inf or nan, which never certifies and ranks last among the start reports
@np.errstate(over="ignore", invalid="ignore")
def _finalize(xv, s: Scaling, seed):
    """A start's endgame from SLSQP's point xv: polish rounds on fixed
    rows (NNLS prices a point on them, else one Newton pass moves it),
    then the snap and the `_residuals` report that judges the result."""
    lay = s.layout
    start = _canonicalize(xv, s)
    # canonicalization can change the active set, so a second round
    # polishes at the canonical form of the first round's result; it is
    # skipped when that form is the point the first round started from,
    # where the round would repeat the first bit for bit
    for second_round in (False, True):
        h = s.values(start)[1].h
        # active rows before the balance pair (canonicalization leaves one,
        # T_sa_min or q_h_nonneg), then the balance equality: mu comes last
        act = np.flatnonzero(h[:lay.balance] >= -SolverConfig.act_tol)
        rows = act.tolist() + [lay.balance]
        # restarting Newton at a point that needs no refinement can diverge
        # when the active rows are linearly dependent (degenerate corners)
        lam = None
        if h.max() <= _FEAS_KEEP and np.abs(h[act]).max() <= 1e-12:
            lam = _nnls_multipliers(start, s, rows)
        if lam is None:
            xv, lam, ok = _newton_on_active(start, s, rows,
                                            np.zeros(len(rows)))
        else:
            xv, ok = start, True
        if second_round or not ok:
            break
        nxt = _canonicalize(xv, s)
        if nxt.tobytes() == start.tobytes():
            break
        start = nxt
    lam = s.multipliers(rows, lam)
    # verify_kkt's active set at xv, without its residuals
    active = np.where(np.abs(s.values(xv)[1].h)
                      <= SolverConfig.act_tol)[0]
    xv = _snap_active_bounds(xv, s, active)
    return KktPoint(**vars(_residuals(xv, lam, s)), scaling=s, lam=lam,
                    x0=hm.DecisionVector.from_vector(xv), seed=seed)
