"""Post-optimal sensitivity of the hourly baseline.

Around a verified KKT anchor (x0, lambda) the stationarity-and-
complementarity map

    H(x, w; lambda) = [ grad_x J + lambda^T grad_x h ;  lambda_i h_i ]

vanishes. Holding lambda fixed, first-order invariance of H under a
parameter move dw gives the primal shift dx = G+ d with G = grad_x H and
d = -grad_w H dw (G+ is the Moore-Penrose pseudoinverse, applied through
an SVD least-squares solve). The induced cost change

    K(dw) = J(x0 + G+ d, w0 + dw) - J0

is evaluated on the full nonlinear model. Analytic worst-case bounds over
the uncertainty box |dw| <= Delta come from the Hoelder inequality applied
to a finite-difference quadratic model of K; a deterministic Monte-Carlo
sweep (box samples plus sign-pattern vertices) serves as the sampled
counterpart. The operator and the K stages read the hour from the
anchor's `Scaling` and raise ValueError for a w0 of any other hour; the
K stages also refuse a spec whose coordinates are not the operator's.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from . import hvac_model as hm
from . import kernels, numkit
from .baseline_opt import KktPoint, Scaling
from .errors import EvaluationDomainError, RankDeficientError

# relative threshold (vs. chiller rating) below which a chiller that is
# off at the anchor is kept off at the shifted point, avoiding the
# standby-power discontinuity corrupting K for infinitesimal shifts
_CHILLER_SNAP_REL = 1e-6

# central-difference step of the quadratic model, relative to
# max(1, |w0_i|) per masked coordinate
_FD_SCALE = 1e-4

# most rows per shift product and kernel call in sample_bound: a block's
# X, W (590 kB at 5 zones) and kernel temporaries fit in a 2 MB L2 cache,
# where the W of 10000 rows alone is 2.9 MB
_BLOCK_ROWS = 2048

_BELOW_FLOOR = "shifted zone flow fell below the flow floor; reduce alpha"
_NOT_FINITE = "objective is not finite at the shifted point; reduce alpha"


@dataclass(frozen=True)
class UncertaintySpec:
    """Box uncertainty |dw_j| <= masked_delta[j] on the masked coordinates."""

    mask: tuple
    alpha: float
    masked_delta: np.ndarray   # one radius per entry of indices
    indices: tuple             # positions of the masked coordinates in w

    def __post_init__(self):
        # tuples of labels and ints, so specs compare by their coordinates
        object.__setattr__(self, "mask", tuple(self.mask))
        object.__setattr__(self, "indices",
                           tuple(operator.index(i) for i in self.indices))
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        d = np.asarray(self.masked_delta, dtype=float)
        if not (np.isfinite(d).all() and (d >= 0).all()):
            raise ValueError("delta must be finite and nonnegative")
        if d.shape != (len(self.indices),):
            raise ValueError("masked_delta needs one radius per index of "
                             f"{self.indices}, got shape {d.shape}")
        if len(set(self.indices)) < len(self.indices):
            raise ValueError(f"indices {self.indices} repeat a coordinate")
        object.__setattr__(self, "masked_delta", d)


def uncertainty_spec(w0: hm.ExogenousVector, mask,
                     alpha: float) -> UncertaintySpec:
    """Build a spec with delta = alpha * |w0| on the masked coordinates.

    `mask` is a sequence of ExogenousVector labels, each at most once.
    Another box on the same coordinates is `dataclasses.replace(spec,
    masked_delta=...)`, which `UncertaintySpec` checks again.
    """
    mask = tuple(mask)
    for k, lab in enumerate(mask):
        if lab in mask[:k]:
            raise ValueError(f"mask label {lab!r} appears more than once")
    idx = tuple(w0.index(lab) for lab in mask)
    delta = alpha * np.abs(w0.to_vector()[list(idx)])
    return UncertaintySpec(mask=mask, alpha=float(alpha),
                           masked_delta=delta, indices=idx)


@dataclass(frozen=True)
class SensitivityOperator:
    anchor: KktPoint
    spec: UncertaintySpec
    shift_matrix: np.ndarray   # m x p_masked, dx = shift_matrix @ dw


@dataclass(frozen=True)
class QuadraticModel:
    g: np.ndarray
    H_K: np.ndarray


@dataclass(frozen=True)
class BoundResult:
    beta: float
    method: str            # holder_half | holder_paper_literal | monte_carlo
    samples: int = 0
    argmax_dw: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")


# ---------------------------------------------------------------------------
# the map H and its Jacobians
# ---------------------------------------------------------------------------

def kkt_map(xv, wv, lam, c_p, flow_floor) -> np.ndarray:
    """H(x, w; lambda): stationarity rows then complementarity rows, from
    `first_order_flat` on `value_flat`. Its h is the value record's and its
    gradients are coded apart from the second-order blocks, so differences
    of H check each level of G and grad_w H against the level below. On S
    rows, (S, m) and (S, p), H is (S, m + n) with each point's bits."""
    val = hm.value_flat(xv, wv, c_p, *hm.simple_bounds(wv, flow_floor))
    f = hm.first_order_flat(val, xv, wv, c_p)
    return np.concatenate([f.grad + lam @ f.jac, lam * f.h], axis=-1)


def _assemble_jacobians(d: hm.ModelDerivatives, lam, mask_idx):
    """G and the masked columns of grad_w H; their first m = N + 4 rows
    are the Lagrangian Hessians hess_xx L and hess_xw L."""
    hess_l = d.hess_xx_j + np.tensordot(lam, d.hess_xx_h, axes=1)
    G = np.vstack([hess_l, lam[:, None] * d.jac_x_h])
    hess_lw = d.hess_xw_j + np.tensordot(lam, d.hess_xw_h, axes=1)
    W_full = np.vstack([hess_lw, lam[:, None] * d.jac_w_h])
    return G, W_full[:, list(mask_idx)]


def build_operator(anchor: KktPoint, w0: hm.ExogenousVector,
                   spec: UncertaintySpec, *,
                   verify: bool = True) -> SensitivityOperator:
    """Assemble and check G = grad_x H and grad_w H at the anchor.

    Raises ValueError unless the anchor is `certified`; the shift keeps
    the anchor's `active_set` rows active. Raises RankDeficientError when
    those rows and the stationarity block of G leave a null direction
    (see `_shift_map`): the shift map would not be unique and the
    analysis is out of scope.
    """
    s = anchor.scaling.check(w0)
    xv = anchor.x0.to_vector()
    lam = np.asarray(anchor.lam, dtype=float)

    if not anchor.certified:
        raise ValueError("anchor is not a certified KKT point; "
                         "re-solve the baseline before building an operator")

    d = s.derivatives(xv)
    G, W_jac = _assemble_jacobians(d, lam, spec.indices)

    if verify:
        err = verify_operator_fd(anchor, w0, spec, n_probes=4, seed=0,
                                 G=G, W_jac=W_jac)
        if err > 1e-6:
            raise ValueError(
                f"analytic KKT-map Jacobians disagree with finite "
                f"differences (max relative error {err:.3e})")

    # column scaling makes the rank decision unit-free without changing
    # the least-squares minimizer (it only reparametrizes x); A holds the
    # active constraint rows, S the stationarity block
    sx, sh, sj = s.x, s.h, s.j
    act = np.array(anchor.active_set, dtype=int)
    A = (d.jac_x_h[act] / sh[act, None]) * sx[None, :]
    S = (sx[:, None] * G[:sx.size] * sx[None, :]) / sj
    B = -(d.jac_w_h[np.ix_(act, list(spec.indices))]) / sh[act, None]
    Ds = -(sx[:, None] * W_jac[:sx.size]) / sj
    return SensitivityOperator(anchor=anchor, spec=spec,
                               shift_matrix=_shift_map(A, B, S, Ds, sx))


def _shift_map(A, B, S, Ds, sx):
    """Solve the linearized KKT-map system G dx = d for every masked
    coordinate, in the weighted limit that enforces the constraint rows
    exactly.

    The complementarity rows of G say the active constraints stay
    active. Enforcing every active row exactly (the infinite-weight
    limit of the row-scaled least squares) keeps the shifted point on
    the active manifold, which is what makes K(dw) track the re-solved
    optimum to first order: the first-order cost change along any such
    shift is the envelope value sum(lambda_i dh_i/dw) dw regardless of
    the tangent component. Weakly active rows (lambda_i = 0) are
    enforced too — they only influence second order, and including them
    keeps the system determined at degenerate corners where the
    multipliers are not unique. The stationarity block then fixes any
    remaining tangent freedom in the least-squares sense. A and B (S and
    Ds) are the scaled active-row (stationarity) blocks of G and -grad_w H.

    The shift is unique iff [A; S] has full column rank m, that is iff
    rank(A) + rank(S Z) = m for the basis Z of null(A); the SVD of A and
    the lstsq on S Z that solve the system give both ranks, and
    RankDeficientError is raised where they fall short. The heat split's
    cost-flat direction never gets here: canonicalization leaves every
    certified anchor on a bound that pins it (`baseline_opt._canonicalize`).
    """
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    cutoff = numkit.RANK_RTOL * s.max(initial=0.0)
    rank = int((s > cutoff).sum())
    inv_s = np.zeros(s.size)
    inv_s[:rank] = 1.0 / s[:rank]
    Zc = Vt[:rank].T @ (inv_s[:rank, None] * (U.T @ B)[:rank])
    Z = Vt[rank:].T                          # tangent basis of the manifold

    if Z.shape[1]:
        SZ = S @ Z
        Y, _, rank_sz, s_sz = np.linalg.lstsq(SZ, Ds - S @ Zc,
                                              rcond=numkit.RANK_RTOL)
        # lstsq's cutoff is relative to S Z alone, so a one-column S Z
        # would count at any size: A's cutoff holds too
        rank += min(rank_sz, int((s_sz > cutoff).sum()))
        Zc = Zc + Z @ Y
    if rank < sx.size:
        raise RankDeficientError(
            "the linearized KKT map is rank deficient at the anchor; the "
            "primal shift is not unique and sensitivity analysis does not "
            "apply")
    return sx[:, None] * Zc


def verify_operator_fd(anchor: KktPoint, w0: hm.ExogenousVector,
                       spec: UncertaintySpec, n_probes: int = 50,
                       seed: int = 0, G=None, W_jac=None) -> float:
    """Compare G and grad_w H against central differences of H along one
    random direction in x and (with a mask) one in w per probe; returns
    the worst relative error. All points go through one `kkt_map` call."""
    s = anchor.scaling.check(w0)
    par, wv, sx = s.params, s.wv, s.x
    xv = anchor.x0.to_vector()
    lam = np.asarray(anchor.lam, dtype=float)
    if G is None or W_jac is None:
        G, W_jac = _assemble_jacobians(s.derivatives(xv), lam, spec.indices)

    rng = np.random.default_rng(seed)
    idx = list(spec.indices)
    sw = np.maximum(1.0, np.abs(wv[idx]))
    t = 1e-6
    X, W, ana = [], [], []
    for _ in range(n_probes):
        v = rng.standard_normal(xv.size)
        v /= np.abs(v).max()
        dx = t * sx * v
        X += [xv + dx, xv - dx]
        W += [wv, wv]
        ana.append(G @ (sx * v))
        if idx:
            u = rng.standard_normal(len(idx))
            u /= np.abs(u).max()
            dw = np.zeros(wv.size)
            dw[idx] = t * sw * u
            X += [xv, xv]
            W += [wv + dw, wv - dw]
            ana.append(W_jac @ (sw * u))
    H = kkt_map(np.reshape(X, (-1, xv.size)), np.reshape(W, (-1, wv.size)),
                lam, par.c_p, par.flow_floor)
    fd = (H[0::2] - H[1::2]) / (2 * t)
    ana = np.reshape(ana, fd.shape)
    scale = np.maximum(1.0, np.abs(ana).max(axis=1))
    return float((np.abs(fd - ana).max(axis=1) / scale).max(initial=0.0))


# ---------------------------------------------------------------------------
# shift map and cost change
# ---------------------------------------------------------------------------

def _stage_scaling(op: SensitivityOperator, w0: hm.ExogenousVector,
                   spec: UncertaintySpec | None = None) -> Scaling:
    """The anchor's `Scaling`, after checking that w0 is the anchor's hour
    and that `spec`, which gives a K stage its stencil or box, moves the
    coordinates of `op`'s shift. Another box on them is allowed."""
    s = op.anchor.scaling.check(w0)
    if spec is not None and spec.indices != op.spec.indices:
        raise ValueError(
            f"spec mask {list(spec.mask)} moves other coordinates than the "
            f"operator's mask {list(op.spec.mask)}")
    return s


def _k_rows(op: SensitivityOperator, dW: np.ndarray) -> np.ndarray:
    """K on each row of dW with the bits of a one-row evaluation: one
    stacked matmul runs the matvec `shift_matrix @ d` for every row (a
    gemm over all rows is not bound to round each row the same way) and
    one "C" `_k_batch` call evaluates them all. Raises
    EvaluationDomainError for the first row outside the model domain."""
    X = np.matmul(op.shift_matrix, dW[:, :, None])[:, :, 0]
    W = np.empty((dW.shape[0], op.anchor.scaling.wv.size))
    W[:] = op.anchor.scaling.wv
    kvals, ok = _k_batch(op, dW, X, W)
    bad = ~np.isfinite(kvals)
    if bad.any():
        first = int(np.argmax(bad))
        raise EvaluationDomainError(_NOT_FINITE if ok[first] else _BELOW_FLOOR)
    return kvals


def delta_cost(op: SensitivityOperator, w0: hm.ExogenousVector, dw) -> float:
    """K(dw) = J(x0 + G+ d, w0 + dw) - J0, on the full nonlinear model."""
    _stage_scaling(op, w0)
    dw = np.asarray(dw, dtype=float)
    if dw.size != len(op.spec.indices):
        raise ValueError(
            f"dw must have {len(op.spec.indices)} masked entries")
    return float(_k_rows(op, dw[None, :])[0])


def signed_shift_pair(op: SensitivityOperator, w0: hm.ExogenousVector,
                      spec: UncertaintySpec) -> dict:
    """K at the deterministic +/- alpha*|w0| scenario pair."""
    wv = _stage_scaling(op, w0, spec).wv
    idx = list(spec.indices)
    dw = spec.masked_delta * np.where(np.sign(wv[idx]) < 0, -1.0, 1.0)
    k_plus, k_minus = _k_rows(op, np.array([dw, -dw]))
    return {"K_plus": float(k_plus), "K_minus": float(k_minus)}


# ---------------------------------------------------------------------------
# quadratic model and bounds
# ---------------------------------------------------------------------------

def quadratic_model(op: SensitivityOperator, w0: hm.ExogenousVector,
                    spec: UncertaintySpec) -> QuadraticModel:
    """Central-difference gradient and Hessian of K at dw = 0.

    Steps are _FD_SCALE * max(1, |w0_i|) per masked coordinate. One kernel
    call evaluates K on the whole stencil with the bits and the domain
    errors of `delta_cost`.
    """
    idx = list(spec.indices)
    w_masked = _stage_scaling(op, w0, spec).wv[idx]
    steps = numkit.default_fd_steps(w_masked, scale=_FD_SCALE)
    dW = numkit.fd_stencil(np.zeros(len(idx)), steps)
    g, H = numkit.fd_derivatives(_k_rows(op, dW), steps)
    return QuadraticModel(g=g, H_K=H)


def holder_bound(qm: QuadraticModel, spec: UncertaintySpec,
                 method: str = "holder_half") -> BoundResult:
    """Analytic worst-case bound on the quadratic model over the box.

    holder_half:  beta = ||g||_1 ||Delta||_inf + 1/2 p sigma(H_K) ||Delta||_inf^2
    holder_paper_literal drops the 1/2 on the curvature term.
    """
    if method not in ("holder_half", "holder_paper_literal"):
        raise ValueError(f"unknown bound method {method!r}")
    d = spec.masked_delta
    p = d.size
    dinf = float(np.abs(d).max()) if p else 0.0
    sigma = numkit.spectral_norm(qm.H_K) if p else 0.0
    factor = 0.5 if method == "holder_half" else 1.0
    beta = float(np.abs(qm.g).sum() * dinf + factor * p * sigma * dinf ** 2)
    return BoundResult(beta=beta, method=method)


def sample_bound(op: SensitivityOperator, w0: hm.ExogenousVector,
                 spec: UncertaintySpec, n_samples: int,
                 seed: int) -> BoundResult:
    """Sampled worst case of |K| over the box: every sign-pattern vertex
    (capped at 2^12) plus uniform interior draws; deterministic in seed.

    The vertices come first, so an `n_samples` below 2^min(p, 12) still
    evaluates every vertex and `samples` reports that total. K is
    evaluated in equal blocks of at most `_BLOCK_ROWS` (2048) rows, each
    with its own shift product and kernel call, in one "F" X and W that
    every block reuses. A block has one row only when the whole sample
    has: a one-row "F" block sums like `objective_flat` at a point, which
    would change that row's bits.
    """
    _stage_scaling(op, w0, spec)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d = spec.masked_delta
    signs = _vertex_signs(d.size)
    n_vert = signs.shape[0]
    dW = np.empty((max(n_samples, n_vert), d.size))
    np.multiply(signs, d, out=dW[:n_vert])
    # the bits of rng.uniform(-1.0, 1.0, size) * d, drawn in place
    draws = dW[n_vert:]
    np.random.default_rng(seed).random(out=draws)
    draws *= 2.0
    draws -= 1.0
    draws *= d

    total = dW.shape[0]
    kvals = np.empty(total)
    ok = np.empty(total, dtype=bool)
    n_blocks = -(-total // _BLOCK_ROWS)
    size = -(-total // n_blocks)
    X = np.empty((size, op.shift_matrix.shape[0]), order="F")
    W = np.empty((size, op.anchor.scaling.wv.size), order="F")
    W[:] = op.anchor.scaling.wv
    for b in range(n_blocks):
        rows = slice(total * b // n_blocks, total * (b + 1) // n_blocks)
        part = dW[rows]
        k = part.shape[0]
        np.matmul(part, op.shift_matrix.T, out=X[:k])
        kvals[rows], ok[rows] = _k_batch(op, part, X[:k], W[:k])
    skipped = int(np.count_nonzero(~ok))
    if skipped > 0.1 * total:
        raise EvaluationDomainError(
            f"{skipped}/{total} samples left the model domain; reduce alpha")

    best = int(np.nanargmax(np.abs(kvals)))
    argmax_dw = dW[best].copy()
    beta = abs(float(_k_rows(op, argmax_dw[None, :])[0]))
    return BoundResult(beta=beta, method="monte_carlo", samples=total,
                       argmax_dw=argmax_dw, seed=seed)


@functools.lru_cache(maxsize=None)
def _vertex_signs(p: int) -> np.ndarray:
    """Read-only +/-1 sign rows of the sampled vertices for p masked
    coordinates. Row r flips coordinate j < n_sign when bit n_sign-1-j of
    r is set, the order of itertools.product((1.0, -1.0), repeat=n_sign);
    coordinates past n_sign = min(p, 12) stay at +1."""
    n_sign = min(p, 12)
    flips = (np.arange(2 ** n_sign)[:, None]
             >> np.arange(n_sign - 1, -1, -1)) & 1
    signs = np.ones((2 ** n_sign, p))
    signs[:, :n_sign] -= 2.0 * flips
    signs.flags.writeable = False
    return signs


def _k_batch(op: SensitivityOperator, dW: np.ndarray, X: np.ndarray,
             W: np.ndarray):
    """K on each row of dW and the mask of rows inside the model domain
    (K is NaN on the others). The caller's buffers are overwritten: X
    holds each row's primal shift and becomes its point; W holds w0 in
    the unmasked columns, and its masked columns become w0 + dW.

    The memory layout of X and W is the caller's. The numpy kernel reads
    columns, so "F" is fastest; "C" gives each row the bits of
    `objective_flat` at that row's point, which with 8 or more zones
    sums pairwise where the columns of an "F" array are summed one after
    another.
    """
    s = op.anchor.scaling
    lay, par, wv0 = s.layout, s.params, s.wv
    X += op.anchor.x0.to_vector()
    for j, i in enumerate(op.spec.indices):
        np.add(wv0[i], dW[:, j], out=W[:, i])

    for i in (lay.q_h, lay.q_c):
        np.maximum(X[:, i], s.lo[i], out=X[:, i])
    if op.anchor.x0.q_c == 0.0:
        X[X[:, lay.q_c] <= _CHILLER_SNAP_REL * par.Q_e_rated, lay.q_c] = 0.0

    # every row goes through the kernel: dropping rows would copy X and W
    # into "C" layout and change the bits of the rows that stay
    ok = X[:, lay.m_sa].min(axis=1) >= par.flow_floor
    kvals = kernels.objective_batch(X, W, par.c_p) - op.anchor.j0
    kvals[~ok] = np.nan
    return kvals, ok
