"""Patch-set graph machinery.

Builds the sampled patch manifold from images plus compressed encoder codes,
the Gaussian weight matrix W over it, and solves the coupled smoothing system

    (L + mu_bar * W) U = mu_bar * W * V,    L = D - W,

for all columns of U at once with conjugate gradients, preconditioned by the
same operator with W replaced by a Nystrom approximation from ceil(sqrt(m))
landmark rows, applied through the Woodbury identity. W and its row sums
D are the only stored graph: the Laplacian and the system matrix
L + mu_bar * W = D - (1 - mu_bar) * W are applied from them, never assembled.
CG runs on U^T: W is symmetric bit for bit, so X^T W is exactly (W X)^T, and
OpenBLAS writes that wide (k, m) product ~25% faster. Transposes are views.
W is built from blockwise GEMM-form distances in one sweep, which packs
them at the front of W's own buffer: the bandwidth median is one partition
of a copy placed right behind them, and the exponentiation unpacks them
into weights in place. That buffer is the only m x m array allocated.
The Dirichlet energy of the points, sum_cols p^T L p
(= sum_{i<j} w_ij ||p_i - p_j||^2), normalized by the point count, serves as
the manifold-dimension diagnostic; it is summed from the same distances as
the weights.
"""

import math
from dataclasses import dataclass

import numpy as np

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

    mu_bar: float = 0.6  # > 0 by the check of TrainConfig, its only builder


@dataclass
class GraphOperators:
    """Symmetric weights W and their row sums D over one patch set.

    The Laplacian L = D - W is never stored; `apply` multiplies by it and by
    the other operators of the form D - c * W. energy is the points'
    Dirichlet energy, which `gaussian_weights` sums with the weights; the
    kernel bandwidth is internal to that function.
    """

    w: np.ndarray
    degrees: np.ndarray
    energy: float

    @property
    def m(self):
        return self.w.shape[0]

    def apply(self, x, c, out=None, scratch=None):
        """x D - c * (x @ W) for a (k, m) block x, one row per signal: that is
        ((D - c * W) x^T)^T, since W is symmetric. c = 1 applies the Laplacian.

        `out` receives the product and `scratch` holds x D; either may be
        omitted. Given, each is a (k, m) float64 block disjoint from x and
        the other.
        """
        wx = np.matmul(x, self.w, out=out)
        wx *= c
        dx = np.multiply(x, self.degrees, out=scratch)
        return np.subtract(dx, wx, out=wx)


@dataclass
class DualVariable:
    values: np.ndarray


@dataclass
class SolveResult:
    u: np.ndarray  # (m, k), an F-ordered view of the solve's (k, m) U^T
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
        if h != geom.image_size or w != geom.image_size:
            raise ShapeError(f"image extent {h}x{w} does not match geometry "
                             f"{geom.image_size}x{geom.image_size}")
        expect = (n, s * s, h // s, w // s)
        if code.shape != expect:
            raise ShapeError(f"code shape {tuple(code.shape)} does not match {expect}")
        rows = concat([_patch_rows(img, s), _code_rows(code)], axis=1)
        row_blocks.append(rows)

    return concat(row_blocks, axis=0)


# Rows per block of gaussian_weights' sweep: each block's scratch is one
# _BLOCK_ROWS x m array next to W.
_BLOCK_ROWS = 64


def _block_sq_dists(pts, norms, i0, i1, out, scratch):
    """Squared distances from rows i0:i1 of pts to rows i0:, written to out.

    GEMM form (|a|^2 + |b|^2) - 2 a.b. Its rounding error is at most about
    d * eps * (|a|^2 + |b|^2), so a value at or below that bound is set to 0:
    duplicate points come out exactly 0 apart, as in the difference form, and
    negative rounding is clamped. scratch is a float array shaped like out.
    """
    np.matmul(pts[i0:i1], pts[i0:].T, out=out)
    np.add(norms[i0:i1, None], norms[None, i0:], out=scratch)
    out *= -2.0
    out += scratch
    scratch *= pts.shape[1] * np.finfo(np.float64).eps
    np.copyto(out, 0.0, where=out <= scratch)


def gaussian_weights(points):
    """Gaussian kernel weights w_ij = exp(-||p_i - p_j||^2 / (4t)).

    points is an (m, d) array, such as a patch set's values; a NaN or
    infinite entry, or a squared norm past a quarter of the float64 maximum
    (so that some distance would overflow), raises ValueError. The bandwidth
    t is median(squared pairwise distance) / 4, or 1 when that is not
    positive or there is no pair; it is internal. Squared distances take
    the GEMM form over blocks of 64 rows (see `_block_sq_dists`), swept once
    over the upper triangle into W's own buffer:

    1. pack: after its block's sweep, each row i moves its pair distances
       w[i, i+1:] to flat offset i * m - i * (i + 1) / 2, so the
       n = m (m - 1) / 2 pair distances end up at the front of the buffer.
       A row only moves toward the front: it never overwrites a row that
       is not yet packed;
    2. median: a copy of them goes right behind them (2n = m^2 - m fits),
       and one partition of the copy picks the middle ranks, as np.median;
    3. unpack: the blocks, and each block's rows, go in reverse, each row
       back to w[i, i+1:]. A row only moves toward the back: it never lands
       on a packed row still to be read, and a block's mirror writes only
       rows that are done. Each block's tile on and below the diagonal is
       set to 0 (so w_ii = exp(0) = 1, adding nothing to the energy), and
       the block is copied to scratch, exponentiated in place and mirrored
       below the diagonal. The copy times the weights sums, block sums
       added in forward order, to the points' Dirichlet energy
       sum_{i<j} w_ij ||p_i - p_j||^2 / m, which `dirichlet_energy` returns.

    So W is symmetric bit for bit, and its diagonal is exactly exp(0) = 1.
    Degrees are row sums. W's buffer is the only m x m array; the rest is
    O(m) plus one block of scratch.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"points must be an m x d matrix, got shape {pts.shape}")
    m = pts.shape[0]
    if m < 1:
        raise ShapeError("need at least one point")

    norms = np.einsum("ij,ij->i", pts, pts)
    # every distance is at most 4 max |p|^2; a NaN or inf entry makes its
    # row's norm fail the comparison too
    bad = np.flatnonzero(~(norms <= np.finfo(np.float64).max / 4.0))
    if bad.size:
        raise ValueError(f"points must be finite, with squared norms at most a quarter "
                         f"of the float64 maximum; rows {bad[:8].tolist()} are not")
    w = np.empty((m, m))
    flat = w.reshape(-1)
    scratch = np.empty(min(_BLOCK_ROWS, m) * m)
    blocks = [(i0, min(i0 + _BLOCK_ROWS, m)) for i0 in range(0, m, _BLOCK_ROWS)]

    def packed(i):  # where row i's pair distances w[i, i+1:] lie once packed
        k = i * m - i * (i + 1) // 2
        return flat[k:k + m - 1 - i]

    for i0, i1 in blocks:
        out = w[i0:i1, i0:]
        _block_sq_dists(pts, norms, i0, i1, out, scratch[:out.size].reshape(out.shape))
        for i in range(i0, i1):
            packed(i)[:] = w[i, i + 1:]

    n, t = m * (m - 1) // 2, 0.0
    if n:
        part = flat[n:2 * n]
        part[:] = flat[:n]
        part.partition(n // 2)
        med = float(part[n // 2])
        if n % 2 == 0:
            med = (float(part[:n // 2].max()) + med) / 2.0
        t = med / 4.0
    t = t if t > 0.0 else 1.0  # no pair, a zero median, or one whose quarter underflows

    # a block's tile on and below the diagonal, which holds no pair i < j
    tri = np.tri(min(_BLOCK_ROWS, m), dtype=bool)
    sums = []
    for i0, i1 in reversed(blocks):
        for i in range(i1 - 1, i0 - 1, -1):
            w[i, i + 1:] = packed(i)
        b = i1 - i0
        out = w[i0:i1, i0:]
        np.copyto(out[:, :b], 0.0, where=tri[:b, :b])
        sq = scratch[:out.size].reshape(out.shape)
        np.copyto(sq, out)
        out /= -4.0 * t
        np.exp(out, out=out)
        sq *= out
        sums.append(float(sq.sum()))
        w[i1:, i0:i1] = out[:, b:].T
        np.copyto(out[:, :b], out[:, :b].T, where=tri[:b, :b])
    energy = 0.0
    for s in reversed(sums):
        energy += s
    return GraphOperators(w=w, degrees=w.sum(axis=1), energy=energy / m)


def _nystrom_preconditioner(ops, c):
    """precondition(R, out, scratch) writing (M^-1 R^T)^T, M = D - c * F F^T.

    F F^T = W[:, S] (W_SS + delta I)^-1 W[S, :] is a Nystrom approximation of
    W from r = ceil(sqrt(m)) landmark rows S, drawn by a fixed generator so
    that the solve is deterministic. The shift delta = r^2 * eps (w_ii = 1,
    so ||W_SS|| <= r) keeps the Cholesky factor of W_SS finite when
    landmarks coincide. D^-1/2 W D^-1/2 has one eigenvalue 1 and a few more
    well above the bulk, which CG preconditioned by D alone spends its
    iterations on; M takes them out (Frangella, Tropp & Udell, SIAM J.
    Matrix Anal. Appl. 2023). Set-up costs O(m * r^2), about m^2 flops, and
    each application O(m * r * k); one W product costs O(m^2 * k).

    Woodbury gives M^-1 R^T = D^-1 R^T + c * H (H^T R^T) with
    H = D^-1 F L_K^-T, where L_K is the Cholesky factor of
    K = I - c * F^T D^-1 F. The eigenvalues of F^T D^-1 F lie in [0, 1] and
    c = 1 - mu_bar < 1, so K is positive definite; at mu_bar = 1, c = 0 and
    M = D is the system matrix. H^T is (r, m), read transposed as a view.
    R, out and scratch (for c * H H^T R^T) are disjoint (k, m) blocks.
    """
    m = ops.m
    r = math.isqrt(m - 1) + 1
    idx = np.sort(np.random.default_rng(0).permutation(m)[:r])
    w_s = ops.w[idx]
    w_ss = w_s[:, idx]
    w_ss[np.diag_indices(r)] += r * r * np.finfo(np.float64).eps
    # an explicit r x r inverse times the r x m block: np.linalg.solve with
    # m right-hand sides took ~10 ms at m = 4096 against ~1.5 ms for this
    ft = np.linalg.inv(np.linalg.cholesky(w_ss)) @ w_s  # F^T, r x m
    dft = ft / ops.degrees  # (D^-1 F)^T
    k = np.eye(r) - c * (dft @ ft.T)
    ht = np.linalg.inv(np.linalg.cholesky(k)) @ dft  # H^T, r x m
    d_inv = 1.0 / ops.degrees

    def precondition(res, out, scratch):
        t = res @ ht.T
        t *= c
        np.matmul(t, ht, out=scratch)
        np.multiply(res, d_inv, out=out)
        out += scratch
        return out

    return precondition


def _pcg_multi(ops, c, b, precondition, tol, max_iter):
    """Preconditioned CG for A X^T = B^T, A = D - c * W, one row per system.

    ops.apply(P, c, out, scratch) writes (A P^T)^T and precondition(R, out,
    scratch) writes (M^-1 R^T)^T into out; either may overwrite scratch.
    Inner products and norms run along rows. The (k, m) blocks X, R, Z, P
    and AP are allocated once and updated in place. Z is dead from the P
    update to the next preconditioning step and AP after the residual
    update, so they also hold the temporaries there.
    Returns (X, iterations used)."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b, axis=1)
    active = bnorm > 0.0
    if not active.any():
        return x, 0
    z = np.empty_like(b)
    ap = np.empty_like(b)
    precondition(r, z, ap)
    p = z.copy()
    rz = np.einsum("ij,ij->i", r, z)
    it = 0
    while it < max_iter:
        it += 1
        ops.apply(p, c, ap, z)
        pap = np.einsum("ij,ij->i", p, ap)
        safe = np.where(active & (pap > 0.0), pap, 1.0)
        alpha = np.where(active & (pap > 0.0), rz / safe, 0.0)[:, None]
        x += np.multiply(p, alpha, out=z)
        ap *= alpha
        r -= ap
        # np.linalg.norm(r, axis=1), with r * r in AP
        rnorm = np.sqrt(np.add.reduce(np.multiply(r, r, out=ap), axis=1))
        active = rnorm > tol * bnorm
        if not active.any():
            break
        precondition(r, z, ap)
        rz_new = np.einsum("ij,ij->i", r, z)
        beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        p *= beta[:, None]
        p += z
        rz = rz_new
    return x, it


def solve_coordinates(ops, v, cfg):
    """Solve (L + mu_bar W) U = mu_bar W V column-independently.

    The system matrix L + mu_bar W = D - (1 - mu_bar) W is applied, not
    assembled; it is symmetric positive definite for mu_bar > 0. CG is
    preconditioned by D - (1 - mu_bar) F F^T, F F^T a Nystrom approximation
    of W (see `_nystrom_preconditioner`), so the system solved stays the
    exact dense one. Each column must reach relative residual <= 1e-8
    against its right-hand side, within 10 m CG iterations over at most
    three passes; otherwise SolverError carries the worst column residual.
    The true residual is re-checked after the recurrence converges, with a
    restart if rounding drift ate the contract. A NaN or infinite weight in
    W or entry in v (both caught before any product with W) raises
    SolverError with a NaN residual after 0 iterations; a non-finite
    residual fails the contract like any other.

    v is an (m, k) block, k >= 1, C- or F-ordered. CG runs on (k, m) blocks
    from b = mu_bar * (v^T W), v^T a view; u is the F-ordered (m, k) view of
    the (k, m) solution.
    """
    v = np.asarray(v, dtype=np.float64)
    m = ops.m
    if v.ndim != 2 or v.shape[0] != m or v.shape[1] == 0:
        raise ShapeError(f"v must be an (m, k >= 1) block over {m} points, got shape {v.shape}")
    c = 1.0 - cfg.mu_bar
    # before v^T W: an inf in v makes OpenBLAS raise an invalid-value flag
    if not (np.isfinite(ops.degrees).all() and np.isfinite(v).all()):
        raise SolverError(np.nan, 0)
    if (ops.degrees - c <= 0.0).any():  # the diagonal of A; w_ii = 1
        raise SolverError(np.inf, 0)
    b = v.T @ ops.w
    b *= cfg.mu_bar
    bnorm = np.linalg.norm(b, axis=1)
    if not np.isfinite(bnorm).all():  # a NaN norm would pass as converged
        raise SolverError(np.nan, 0)
    precondition = _nystrom_preconditioner(ops, c)

    x, total_it = None, 0
    r = b  # true residual of x; each restart solves for the correction
    tol, budget = 1e-8, 10 * m
    for _ in range(3):
        dx, used = _pcg_multi(ops, c, r, precondition, tol * 0.5, budget)
        # the first correction becomes x; a restart adds into a new array,
        # so no correction _pcg_multi returned is changed afterwards
        x = dx if x is None else x + dx
        total_it += used
        budget -= used
        r = b - ops.apply(x, c)
        res = np.linalg.norm(r, axis=1)
        rel = np.where(bnorm > 0.0, res / np.where(bnorm > 0.0, bnorm, 1.0), 0.0)
        worst = float(rel.max())
        if worst <= tol:
            return SolveResult(u=x.T, residual=worst, iterations=total_it)
        if budget <= 0:
            break
    raise SolverError(worst, total_it)


def dirichlet_energy(ops):
    """Dirichlet energy of the points W was built from, divided by m:
    sum_cols p^T L p / m = sum_{i<j} w_ij ||p_i - p_j||^2 / m.

    `gaussian_weights` sums it from the squared distances and weights as it
    exponentiates, so no W product is needed. Every term is >= 0, and so is
    the sum.
    """
    return ops.energy


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
