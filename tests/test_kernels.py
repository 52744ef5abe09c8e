import numpy as np
import pytest

from gridbase import hvac_model as hm
from gridbase import kernels

from conftest import scaled_params


def _random_batch(n, size, seed):
    """Decisions and exogenous rows for an n-zone system whose design flow
    scales with n; every seventh row has the chiller off."""
    rng = np.random.default_rng(seed)
    par = scaled_params(n)
    w = hm.make_exogenous(25.0, np.zeros(n), np.full(n, 23.0),
                          np.full(n, 0.05), par)
    X = np.column_stack([
        rng.uniform(12.0, 30.0, size),
        rng.uniform(0.2, 1.5, size),
        *[rng.uniform(0.1, 0.6, size) for _ in range(n)],
        rng.uniform(0.0, 5000.0, size),
        rng.uniform(0.0, 30000.0, size),
    ])
    X[::7, -1] = 0.0
    W = np.tile(w.to_vector(), (size, 1))
    W[:, 0] = rng.uniform(-5.0, 38.0, size)
    W[:, 1:1 + n] = rng.uniform(-6000.0, 4000.0, (size, n))
    W[:, 1 + n:1 + 2 * n] = rng.uniform(20.0, 26.0, (size, n))
    return X, W, w


def test_python_backend_matches_scalar_objective():
    # the structured model is the oracle; the tolerance covers its
    # different operation order and the column sums of an "F" layout
    for n in (1, 3, 5, 8, 13):
        X, W, w = _random_batch(n, 64, seed=n)
        ref = np.array([
            hm.evaluate(hm.DecisionVector.from_vector(x), w.with_vector(wv))
            .j_source for x, wv in zip(X, W)])
        for order in ("C", "F"):
            out = kernels.objective_batch(np.asarray(X, order=order),
                                          np.asarray(W, order=order),
                                          w.params.c_p)
            assert out == pytest.approx(ref, rel=1e-12, abs=0.0), (n, order)


def test_objective_flat_is_a_c_layout_kernel_row():
    # objective_batch is objective_flat on rows; a point and a row of a
    # "C" batch sum in the same order
    for n in (1, 3, 5, 8, 13):
        X, W, w = _random_batch(n, 64, seed=100 + n)
        out = kernels.objective_batch(np.ascontiguousarray(X),
                                      np.ascontiguousarray(W),
                                      w.params.c_p)
        for i in range(X.shape[0]):
            assert hm.objective_flat(X[i], W[i], w.params.c_p) == out[i]
