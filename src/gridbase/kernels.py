"""Batch evaluation of the reported objective in numpy: rows of X and W
in the flat layouts of `hvac_model.layout`, through `hvac_model.values`.

`hvac_model.objective_flat` gives the bits of a row of a "C"-layout
batch.
"""

from __future__ import annotations

import numpy as np

from . import hvac_model as hm

BACKEND = "python"


def objective_batch(X, W, n_zones, c_p):
    """Reported objective for each row; chiller power is exactly zero for
    rows with q_c == 0 (off switch)."""
    X = np.asarray(X, dtype=float)
    W = np.asarray(W, dtype=float)
    lay = hm.layout(n_zones)
    x, w = X.T, W.T
    b = x[lay.q_c]
    v = hm.values(x[lay.t_sa], x[lay.q_h], b, x[lay.m_sa], w[lay.q_zone],
                  w[lay.t_sp], w[lay.tail], c_p)
    return hm.source_power(v.p_fan, np.where(b == 0.0, 0.0, v.p_chiller),
                           v.p_boiler, w[lay.param["alpha_el"]],
                           w[lay.param["alpha_ng"]])
