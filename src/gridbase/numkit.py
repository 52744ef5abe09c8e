"""Dense linear algebra and derivative-verification helpers.

Matrices are plain 2-D float ndarrays (row-major, finite entries). The
central differences evaluate f on the rows of one stencil, either all at
once (`fd_stencil`, `fd_derivatives`) or one by one (`fd_gradient`,
`fd_hessian`), with the same bits.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

# Relative singular-value cutoff below which a system is declared
# rank-deficient (no regularization is attempted past this point).
RANK_RTOL = 1e-10


def check_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate and return `a` as a finite 2-D float array."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def spectral_norm(A) -> float:
    """Largest |eigenvalue| of a symmetric matrix (full eigendecomposition)."""
    A = check_matrix(A, square=True)
    if A.size == 0:
        return 0.0
    scale = np.abs(A).max()
    if scale > 0 and np.abs(A - A.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric; symmetrize before calling")
    return float(np.abs(np.linalg.eigvalsh(A)).max())


def default_fd_steps(x: np.ndarray, scale: float = 1e-4) -> np.ndarray:
    """Per-coordinate central-difference step, h_i = scale * max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    return scale * np.maximum(1.0, np.abs(x))


def _fd_point(x, steps):
    x = np.asarray(x, dtype=float)
    h = default_fd_steps(x) if steps is None else np.asarray(steps, dtype=float)
    if np.any(h <= 0):
        raise ValueError("finite-difference steps must be positive")
    return x, h


@functools.lru_cache(maxsize=None)
def _hessian_layout(n: int):
    """Read-only row order of the Hessian stencil: x first, then for each
    i in turn x + 2h_i e_i and x - 2h_i e_i (rows base[i], base[i] + 1)
    followed, for each j > i, by x + h_i e_i + h_j e_j with the signs ++,
    +-, -+, -- (rows corner[k] to corner[k] + 3 for the pair (I[k], J[k]))."""
    sizes = 2 + 4 * (n - 1 - np.arange(n))
    base = 1 + np.cumsum(sizes) - sizes
    I, J = np.triu_indices(n, 1)
    out = base, I, J, base[I] + 2 + 4 * (J - I - 1)
    for a in out:
        a.flags.writeable = False
    return out


def fd_stencil(x, steps: Sequence[float] | np.ndarray | None = None) -> np.ndarray:
    """Every point, one per row, at which the central differences need f:
    the 2n gradient rows x + h_i e_i, x - h_i e_i for each i, then the
    1 + 2n + 2n(n - 1) Hessian rows in the order of `_hessian_layout`."""
    x, h = _fd_point(x, steps)
    n = h.size
    base, I, J, corner = _hessian_layout(n)
    i = np.arange(n)
    D = np.zeros((4 * n + 1 + 2 * n * (n - 1), n))
    D[2 * i, i], D[2 * i + 1, i] = h, -h
    base, corner = base + 2 * n, corner + 2 * n
    D[base, i], D[base + 1, i] = 2 * h, -2 * h
    D[corner, I] = D[corner + 1, I] = h[I]
    D[corner + 2, I] = D[corner + 3, I] = -h[I]
    D[corner, J] = D[corner + 2, J] = h[J]
    D[corner + 1, J] = D[corner + 3, J] = -h[J]
    return x + D


def _gradient_from(vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    fp, fm = vals[0::2], vals[1::2]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if bad.any():
        raise ValueError("non-finite function value at stencil for "
                         f"coordinate {int(np.argmax(bad))}")
    return (fp - fm) / (2.0 * h)


def _hessian_from(vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    n = h.size
    base, I, J, corner = _hessian_layout(n)
    bad = ~np.isfinite(vals)
    if bad.any():
        r = int(np.argmax(bad))
        i = int(np.searchsorted(base, r, side="right")) - 1
        if r == 0:
            raise ValueError("non-finite function value at the expansion point")
        if r - base[i] < 2:
            raise ValueError(f"non-finite function value at stencil for coordinate {i}")
        j = i + 1 + (r - base[i] - 2) // 4
        raise ValueError(
            f"non-finite function value at stencil for coordinates ({i}, {j})")
    # h_i ** 2 as a scalar power: libm pow, which rounds differently from
    # the h * h of numpy's array ** 2 in about 1 case in 1400
    h2 = np.array([hi ** 2 for hi in h])
    H = np.empty((n, n))
    H[np.arange(n), np.arange(n)] = (
        (vals[base] - 2.0 * vals[0] + vals[base + 1]) / (4.0 * h2))
    v = vals[corner[:, None] + np.arange(4)]
    H[I, J] = H[J, I] = (v[:, 0] - v[:, 1] - v[:, 2] + v[:, 3]) / (4.0 * h[I] * h[J])
    return 0.5 * (H + H.T)


def fd_derivatives(values, steps) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient and symmetrized Hessian from the values
    of f on the rows of `fd_stencil(x, steps)`."""
    values = np.asarray(values, dtype=float)
    h = np.asarray(steps, dtype=float)
    return (_gradient_from(values[:2 * h.size], h),
            _hessian_from(values[2 * h.size:], h))


def fd_gradient(f: Callable[[np.ndarray], float], x,
                steps: Sequence[float] | np.ndarray | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x, h = _fd_point(x, steps)
    rows = fd_stencil(x, h)[:2 * h.size]
    return _gradient_from(np.array([f(r) for r in rows], dtype=float), h)


def fd_hessian(f: Callable[[np.ndarray], float], x,
               steps: Sequence[float] | np.ndarray | None = None) -> np.ndarray:
    """Symmetrized central-difference Hessian of a scalar function."""
    x, h = _fd_point(x, steps)
    rows = fd_stencil(x, h)[2 * h.size:]
    return _hessian_from(np.array([f(r) for r in rows], dtype=float), h)
