"""Patch-set graph machinery.

Builds the sampled patch manifold from images plus compressed encoder codes,
the Gaussian weight matrix W over it, and solves the coupled smoothing system

    (L + mu_bar * W) U = mu_bar * W * V,    L = D - W,

column by column with preconditioned conjugate gradients. W and its row sums
D are the only stored graph: the Laplacian and the system matrix
L + mu_bar * W = D - (1 - mu_bar) * W are applied from them, never assembled.
The Dirichlet energy sum_cols u^T L u (= sum_ij w_ij ||u_i - u_j||^2 / 2),
normalized by the point count, serves as the manifold-dimension diagnostic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .autodiff import ShapeError, concat, reshape, transpose


class SolverError(RuntimeError):
    """Conjugate gradients failed to reach the residual contract."""

    def __init__(self, worst_residual, iterations):
        super().__init__(
            f"conjugate gradients did not converge: worst column residual "
            f"{worst_residual:.3e} after {iterations} iterations")
        self.worst_residual = worst_residual
        self.iterations = iterations


@dataclass(frozen=True)
class KernelConfig:
    """Solver coupling: mu_bar weights the smoothing term against the data term.

    The kernel bandwidth is not configurable: `gaussian_weights` fixes it per
    point set as median(squared pairwise distance) / 4, so the median pair
    keeps weight e^-1 (a near-dense graph and strong smoothing).
    """

    mu_bar: float = 0.6

    def __post_init__(self):
        if not self.mu_bar > 0:
            raise ValueError(f"solver coupling mu_bar must be positive, got {self.mu_bar}")


@dataclass
class GraphOperators:
    """Symmetric weights W and their row sums D over one patch set.

    The Laplacian L = D - W is never stored; `apply` multiplies by it and by
    the other operators of the form D - c * W.
    """

    w: np.ndarray
    degrees: np.ndarray
    t: float

    @property
    def m(self):
        return self.w.shape[0]

    def apply(self, x, c=1.0):
        """(D - c * W) @ x for an (m, k) block; c = 1 applies the Laplacian."""
        return self.degrees[:, None] * x - c * (self.w @ x)


@dataclass
class DualVariable:
    values: np.ndarray


@dataclass
class SolveResult:
    u: np.ndarray
    residual: float
    iterations: int


def _patch_rows(image, s):
    """[N,1,H,W] -> (N*(H/s)*(W/s), s^2), locations row-major per image."""
    n, c, h, w = image.shape
    gh, gw = h // s, w // s
    r = reshape(image, (n, gh, s, gw, s))
    r = transpose(r, (0, 1, 3, 2, 4))
    return reshape(r, (n * gh * gw, s * s))


def _code_rows(code):
    """[N,C,gh,gw] -> (N*gh*gw, C), same location order as _patch_rows."""
    n, c, gh, gw = code.shape
    r = transpose(code, (0, 2, 3, 1))
    return reshape(r, (n * gh * gw, c))


def build_patch_set(images, codes, geom):
    """Assemble the patch set from per-branch image/code tensor pairs.

    images[i] is [N,1,H,W]; codes[i] is the matching [N,s^2,H/s,W/s]
    compressed code. Returns the m x d points Tensor, one row per spatial
    location: the flattened s x s pixel patch, then the s^2 code entries at
    that location. It stays in the autodiff graph, so penalties on it reach
    the network. Entries are stacked in list order (callers put the
    artifact-corrected branches first), images within an entry in batch
    order, spatial locations row-major.
    """
    if len(images) != len(codes):
        raise ShapeError(f"{len(images)} images vs {len(codes)} codes")
    if not images:
        raise ShapeError("empty patch-set input")

    s = geom.s
    row_blocks = []
    for img, code in zip(images, codes):
        n, c, h, w = img.shape
        if c != 1:
            raise ShapeError(f"patch images must have one channel, got {c}")
        if h != geom.image_h or w != geom.image_w:
            raise ShapeError(
                f"image extent {h}x{w} does not match geometry "
                f"{geom.image_h}x{geom.image_w}")
        expect = (n, s * s, h // s, w // s)
        if code.shape != expect:
            raise ShapeError(f"code shape {tuple(code.shape)} does not match {expect}")
        rows = concat([_patch_rows(img, s), _code_rows(code)], axis=1)
        row_blocks.append(rows)

    return row_blocks[0] if len(row_blocks) == 1 else concat(row_blocks, axis=0)


def _auto_bandwidth(sq_dists):
    if sq_dists.size == 0:
        return 1.0
    med = float(np.median(sq_dists))
    if med <= 0.0:
        return 1.0
    return med / 4.0


def gaussian_weights(points):
    """Gaussian kernel weights w_ij = exp(-||p_i - p_j||^2 / (4t)).

    points is an (m, d) array, such as a patch set's values. The bandwidth t
    is median(squared pairwise distance) / 4, or 1 when that median is 0 or
    there is no pair. Only the condensed upper triangle is evaluated, so W
    is symmetric bit for bit; the diagonal is exactly 1. Degrees are row
    sums. W is the only m x m array built.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"points must be an m x d matrix, got shape {pts.shape}")
    m = pts.shape[0]
    if m < 1:
        raise ShapeError("need at least one point")

    sq = pdist(pts, "sqeuclidean")
    t = _auto_bandwidth(sq)
    w = squareform(sq)
    del sq
    np.negative(w, out=w)
    w /= 4.0 * t
    np.exp(w, out=w)
    np.fill_diagonal(w, 1.0)
    return GraphOperators(w=w, degrees=w.sum(axis=1), t=t)


def _pcg_multi(apply_a, b, diag_inv, tol, max_iter):
    """Jacobi-preconditioned CG for A X = B, all columns at once; apply_a(P)
    returns A @ P.

    Returns (X, iterations used)."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b, axis=0)
    active = bnorm > 0.0
    if not active.any():
        return x, 0
    z = diag_inv[:, None] * r
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    it = 0
    while it < max_iter:
        it += 1
        ap = apply_a(p)
        pap = np.einsum("ij,ij->j", p, ap)
        safe = np.where(active & (pap > 0.0), pap, 1.0)
        alpha = np.where(active & (pap > 0.0), rz / safe, 0.0)
        x += p * alpha
        r -= ap * alpha
        rnorm = np.linalg.norm(r, axis=0)
        active = rnorm > tol * bnorm
        if not active.any():
            break
        z = diag_inv[:, None] * r
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        p = z + p * beta
        rz = rz_new
    return x, it


def solve_coordinates(ops, v, cfg, tol=1e-8, max_iter=None):
    """Solve (L + mu_bar W) U = mu_bar W V column-independently.

    The system matrix L + mu_bar W = D - (1 - mu_bar) W is applied, not
    assembled; it is symmetric positive definite for mu_bar > 0. Each
    column must reach relative residual <= tol against its right-hand
    side; otherwise SolverError carries the worst column residual. The
    true residual is re-checked after the recurrence converges, with a
    restart if rounding drift ate the contract.

    v is an (m, k) block. tol and max_iter are fixed for the training step;
    they are arguments so that a failing solve can be forced.
    """
    v = np.asarray(v, dtype=np.float64)
    m = ops.m
    if v.ndim != 2 or v.shape[0] != m:
        raise ShapeError(f"v must be an (m, k) block over {m} points, got shape {v.shape}")
    if max_iter is None:
        max_iter = 10 * m

    c = 1.0 - cfg.mu_bar

    def apply_a(x):
        return ops.apply(x, c)

    b = cfg.mu_bar * (ops.w @ v)
    diag = ops.degrees - c  # w_ii = 1
    if (diag <= 0.0).any():
        raise SolverError(np.inf, 0)
    diag_inv = 1.0 / diag

    bnorm = np.linalg.norm(b, axis=0)
    x = np.zeros_like(b)
    r = b  # true residual of x; each restart solves for the correction
    budget = max_iter
    total_it = 0
    for _ in range(3):
        dx, used = _pcg_multi(apply_a, r, diag_inv, tol * 0.5, budget)
        x += dx
        total_it += used
        budget -= used
        r = b - apply_a(x)
        res = np.linalg.norm(r, axis=0)
        rel = np.where(bnorm > 0.0, res / np.where(bnorm > 0.0, bnorm, 1.0), 0.0)
        worst = float(rel.max()) if rel.size else 0.0
        if worst <= tol:
            return SolveResult(u=x, residual=worst, iterations=total_it)
        if budget <= 0:
            break
    raise SolverError(worst, total_it)


def dirichlet_energy(u, ops):
    """Sum over the columns of an (m, k) block u of u^T L u, divided by m.

    Clamped at zero: for constant columns the exact value is 0 and matrix
    rounding can land a hair below it.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != ops.m:
        raise ShapeError(f"u must be an (m, k) block over {ops.m} points, got shape {u.shape}")
    e = float(np.sum(u * ops.apply(u)))
    return max(e, 0.0) / ops.m


def normalize_dual(d_hat):
    """Joint min-max normalization of all entries of a DualVariable into [0, 1].

    A constant dual (max == min) has no defined normalization; it maps to
    all zeros, which restores the unconstrained penalty.
    """
    vals = d_hat.values.astype(np.float64)
    lo = float(vals.min())
    hi = float(vals.max())
    if hi == lo:
        return DualVariable(values=np.zeros_like(vals))
    return DualVariable(values=(vals - lo) / (hi - lo))
