import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbase import numkit


def test_check_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        numkit.check_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))


def _nan_at(row):
    """Hessian stencil values at n = 3 (19 rows), NaN at `row`."""
    vals = np.ones(19)
    vals[row] = np.nan
    return vals


# At n = 3 the Hessian rows are: 0 the point, then per coordinate i its
# two diagonal rows followed by four rows per pair (i, j > i).
@pytest.mark.parametrize("call, match", [
    (lambda: numkit._fd_point(np.zeros(2), [1e-4, 0.0]),
     "steps must be positive"),
    (lambda: numkit.check_matrix(np.zeros(3)), "ndim=1"),
    (lambda: numkit.check_matrix(np.zeros((2, 3)), square=True),
     r"square matrix, got shape \(2, 3\)"),
    (lambda: numkit._hessian_from(_nan_at(0), np.ones(3)),
     "at the expansion point"),
    (lambda: numkit._hessian_from(_nan_at(12), np.ones(3)),
     "for coordinate 1$"),
    (lambda: numkit._hessian_from(_nan_at(9), np.ones(3)),
     r"for coordinates \(0, 2\)"),
], ids=["zero-step", "ndim", "not-square", "hessian-point",
        "hessian-diagonal-row", "hessian-corner-row"])
def test_refuses_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_spectral_norm_diagonal():
    assert numkit.spectral_norm(np.diag([3.0, -7.0, 2.0])) == 7.0


def test_spectral_norm_rejects_asymmetric():
    with pytest.raises(ValueError):
        numkit.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_default_fd_steps_positive_and_scaled(vals):
    x = np.array(vals)
    h = numkit.default_fd_steps(x)
    assert np.all(h > 0)
    np.testing.assert_allclose(h, 1e-4 * np.maximum(1.0, np.abs(x)))


def test_fd_gradient_exact_on_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 3.0]])
    b = np.array([1.0, -2.0])

    def f(x):
        return 0.5 * x @ A @ x + b @ x

    x0 = np.array([0.3, -0.7])
    g = numkit.fd_gradient(f, x0)
    np.testing.assert_allclose(g, A @ x0 + b, rtol=0, atol=1e-8)


def test_fd_hessian_exact_on_quadratic():
    A = np.array([[2.0, 0.5, -1.0], [0.5, 3.0, 0.2], [-1.0, 0.2, 1.5]])

    def f(x):
        return 0.5 * x @ A @ x

    H = numkit.fd_hessian(f, np.zeros(3))
    np.testing.assert_allclose(H, A, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(H, H.T)


def test_fd_gradient_names_bad_coordinate():
    def f(x):
        return float("nan") if x[1] != 0 else 0.0

    with pytest.raises(ValueError, match="coordinate 1"):
        numkit.fd_gradient(f, np.zeros(3))


def test_fd_hessian_cubic_truncation_small():
    def f(x):
        return x[0] ** 3

    H = numkit.fd_hessian(f, np.array([2.0]))
    assert abs(H[0, 0] - 12.0) < 1e-5 * 12.0
