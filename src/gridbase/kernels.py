"""Batch evaluation of the reported objective in numpy.

Row layouts match `hvac_model`:

    X[s] = [T_sa, m_oa, m_sa_1..N, q_h, q_c]
    W[s] = full exogenous registry vector (1 + 3N + 20 entries)

`hvac_model.objective_flat` is the one-row case of `objective_batch`.
"""

from __future__ import annotations

import numpy as np

BACKEND = "python"


def objective_batch(X, W, n_zones, c_p):
    """Reported objective for each row; chiller power is exactly zero for
    rows with q_c == 0 (off switch)."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    n = n_zones
    T = X[:, 0]
    mvec = X[:, 2:2 + n]
    a = X[:, 2 + n]
    b = X[:, 3 + n]
    q_zone = W[:, 1:1 + n]
    t_sp = W[:, 1 + n:1 + 2 * n]
    P = 1 + 3 * n
    dP, eta_tot, rho, m_des = (W[:, P], W[:, P + 1], W[:, P + 2], W[:, P + 3])
    cf = W[:, P + 4:P + 8]
    qbr, eta_th = W[:, P + 8], W[:, P + 9]
    cb = W[:, P + 10:P + 13]
    qer, p_pump = W[:, P + 13], W[:, P + 14]
    cg = W[:, P + 15:P + 18]
    ael, ang = W[:, P + 18], W[:, P + 19]

    m = mvec.sum(axis=1)
    u = m / m_des
    f_pl = cf[:, 0] + u * (cf[:, 1] + u * (cf[:, 2] + u * cf[:, 3]))
    p_fan = dP / (eta_tot * rho) * m_des * f_pl

    q_b = q_zone.sum(axis=1) + c_p * (mvec * t_sp).sum(axis=1) - c_p * m * T + a
    r = q_b / qbr
    eta_eff = cb[:, 0] + r * (cb[:, 1] + r * cb[:, 2])
    p_boiler = q_b / (eta_th * eta_eff)

    p_chiller = cg[:, 0] * qer + cg[:, 1] * b + cg[:, 2] * b * b / qer + p_pump
    p_chiller = np.where(b == 0.0, 0.0, p_chiller)
    return ael * (p_fan + p_chiller) + ang * p_boiler
