"""Patch-set graph machinery.

Builds the sampled patch manifold from images plus compressed encoder codes,
the Gaussian weight matrix W over it, and solves the coupled smoothing system

    (L + mu_bar * W) U = mu_bar * W * V,    L = D - W,

for all columns of U at once with conjugate gradients, preconditioned by the
same operator with W replaced by a Nystrom approximation from ceil(sqrt(m))
landmark rows, applied through the Woodbury identity. W and its row sums
D are the only stored graph: the Laplacian and the system matrix
L + mu_bar * W = D - (1 - mu_bar) * W are applied from them, never assembled.
W is symmetric, so `GraphOperators` keeps only two blocks that cover its
upper half, W[:h, :h] and W[:, h:] with h about m / 2 (0.75 m^2 weights),
and every product with W is three GEMMs over them; packed symmetric
storage can stay on BLAS-3 this way (Gustavson et al., ACM TOMS 2010, on
the rectangular full packed format).
CG runs on U^T: W is symmetric bit for bit, so X^T W is exactly (W X)^T, and
OpenBLAS writes that wide (k, m) product ~25% faster. Transposes are views.
W is built from blockwise GEMM-form distances, copied into the two blocks.
The bandwidth median is one partition of the pair distances as float32
keys, then one of the few float64 distances whose keys bracket the middle
ranks; the exponentiation then turns the blocks into weights in place.
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


@dataclass
class GraphOperators:
    """Symmetric weights W and their row sums D over one patch set.

    W is held as two blocks that cover its upper half: w_top = W[:h, :h]
    and w_right = W[:, h:], with h = floor(m / 2) rounded down to whole
    64-row blocks (so m < 128 keeps one block, h = 0). Together they hold
    0.75 m^2 weights; the strict lower-left block W[h:, :h] is the view
    w_right[:h].T. Every read of W goes through `matmul`, `apply` or `rows`.

    The Laplacian L = D - W is never stored; `apply` multiplies by it and by
    the other operators of the form D - c * W. energy is the points'
    Dirichlet energy, which `gaussian_weights` sums with the weights; the
    kernel bandwidth is internal to that function.
    """

    w_top: np.ndarray
    w_right: np.ndarray
    degrees: np.ndarray
    energy: float

    @property
    def m(self):
        return self.w_right.shape[0]

    def matmul(self, x, out=None, scratch=None):
        """x @ W for a (k, m) block x, by three GEMMs over the blocks:
        x @ w_right gives the columns h:, and x[:, :h] @ w_top plus
        x[:, h:] @ w_right[:h].T the columns :h.

        `out` receives the product and `scratch`'s first h columns the
        second term of the columns :h; either may be omitted. Given, each is
        a (k, m) float64 block disjoint from x and the other.
        """
        h = self.w_top.shape[0]
        if out is None:
            out = np.empty((x.shape[0], self.m))
        np.matmul(x, self.w_right, out=out[:, h:])
        if h:
            np.matmul(x[:, :h], self.w_top, out=out[:, :h])
            out[:, :h] += np.matmul(x[:, h:], self.w_right[:h].T,
                                    out=None if scratch is None else scratch[:, :h])
        return out

    def apply(self, x, c, out=None, scratch=None):
        """x D - c * (x @ W) for a (k, m) block x, one row per signal: that is
        ((D - c * W) x^T)^T, since W is symmetric. c = 1 applies the Laplacian.

        `out` receives the product and `scratch` holds `matmul`'s partial
        product, then x D; either may be omitted. Given, each is a (k, m)
        float64 block disjoint from x and the other.
        """
        wx = self.matmul(x, out, scratch)
        wx *= c
        dx = np.multiply(x, self.degrees, out=scratch)
        return np.subtract(dx, wx, out=wx)

    def rows(self, idx):
        """W[idx] for a 1-D integer array of row indices, as a new array."""
        h = self.w_top.shape[0]
        out = np.empty((len(idx), self.m))
        out[:, h:] = self.w_right[idx]
        top = idx < h
        out[top, :h] = self.w_top[idx[top]]
        out[~top, :h] = self.w_right[:h, idx[~top] - h].T
        return out


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


def build_patch_set(images, codes):
    """Assemble the patch set from per-branch image/code tensor pairs.

    images[i] is [N,1,H,W]; codes[i] is the matching [N,s^2,H/s,W/s]
    compressed code, so the patch size s is the image extent over the code
    extent, H // codes[i].shape[2]. The network's encoders guarantee that
    shape; a code whose grid is not the image's gives patch and code rows of
    different counts, which `concat` rejects. Returns the m x d points
    Tensor, one row per spatial location: the flattened s x s pixel patch,
    then the s^2 code entries at that location. It stays in the autodiff
    graph, so penalties on it reach the network. Entries are stacked in list
    order (callers put the artifact-corrected branches first), images within
    an entry in batch order, spatial locations row-major.
    """
    if len(images) != len(codes):
        raise ShapeError(f"{len(images)} images vs {len(codes)} codes")
    if not images:
        raise ShapeError("empty patch-set input")

    row_blocks = []
    for img, code in zip(images, codes):
        n, c, h, w = img.shape
        if c != 1:
            raise ShapeError(f"patch images must have one channel, got {c}")
        s = h // code.shape[2]
        rows = concat([_patch_rows(img, s), _code_rows(code)], axis=1)
        row_blocks.append(rows)

    return concat(row_blocks, axis=0)


# Rows per block of gaussian_weights' passes: each of its two block
# scratches is one _BLOCK_ROWS x m array, and the top block of W spans whole
# blocks, so no block of rows straddles the split.
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
    positive or there is no pair; it is internal. W is returned as the two
    blocks of `GraphOperators`, built in three passes over 64-row blocks:

    1. distances: one `_block_sq_dists` GEMM per block of rows i0:i1 (to
       the columns i0:) goes into a block scratch and is copied into the
       two blocks;
    2. median: the n = m (m - 1) / 2 pair distances i < j are copied, as
       float32 keys, into one array, and one partition picks the middle
       ranks. Rounding to float32 is monotone, so the float64 distances at
       those ranks are among the band whose keys lie in [key_lo, key_hi].
       One pass over the blocks counts the distances whose key is below
       key_lo and gathers the band, which one more partition ranks: the
       median equals np.median's. A band whose float64 values are all equal
       (such as a duplicate majority's zero median) is that value and is
       not gathered;
    3. weights: in forward order, each block's distances are copied to
       scratch, its tile on and below the diagonal set to 0 (so
       w_ii = exp(0) = 1, adding nothing to the energy), and exponentiated
       into a block of full rows. The distances times the weights sum,
       block sums added in forward order, to the points' Dirichlet energy
       sum_{i<j} w_ij ||p_i - p_j||^2 / m, which `dirichlet_energy` returns.
       The tile's lower triangle is mirrored from its upper one, the rows'
       columns :i0 come from the blocks above, each full row is summed to
       its degree, and the rows are written back to the blocks.

    So W is symmetric bit for bit, and its diagonal is exactly exp(0) = 1.
    The blocks (0.75 m^2 doubles) and, during the median, the keys
    (0.25 m^2 doubles' worth) are the only large arrays; the rest is O(m),
    two blocks of scratch and the band.
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
    h = m // 2 // _BLOCK_ROWS * _BLOCK_ROWS
    w_top, w_right = np.empty((h, h)), np.empty((m, m - h))
    rows = min(_BLOCK_ROWS, m)
    blocks = [(i0, min(i0 + _BLOCK_ROWS, m)) for i0 in range(0, m, _BLOCK_ROWS)]
    # a block's tile on and below the diagonal, which holds no pair i < j
    tri = np.tri(rows, dtype=bool)

    def stored(i0, i1, c0, c1):  # W[i0:i1, c0:c1], for c1 <= h (so i1 <= h) or c0 >= h
        return w_top[i0:i1, c0:c1] if c1 <= h else w_right[i0:i1, c0 - h:c1 - h]

    def upper(i0):  # the column spans of W[i0:i1, i0:], each inside one block
        return [(i0, h), (h, m)] if i0 < h else [(i0, m)]

    def pairs(i0, i1):  # the distances w_ij, j > i, of rows i0:i1
        yield stored(i0, i1, i0, i1)[~tri[:i1 - i0, :i1 - i0]]
        for c0, c1 in upper(i0):
            if max(c0, i1) < c1:
                yield stored(i0, i1, max(c0, i1), c1)

    scratch, tmp = np.empty(rows * m), np.empty(rows * m)
    for i0, i1 in blocks:
        sq = scratch[:(i1 - i0) * (m - i0)].reshape(i1 - i0, m - i0)
        _block_sq_dists(pts, norms, i0, i1, sq, tmp[:sq.size].reshape(sq.shape))
        for c0, c1 in upper(i0):
            stored(i0, i1, c0, c1)[...] = sq[:, c0 - i0:c1 - i0]
    del scratch, tmp  # out of the way of the keys

    n, t = m * (m - 1) // 2, 0.0
    if n:
        # the middle ranks are hi and, for even n, hi - 1: one partition at
        # hi and the largest value below it, as np.median takes them (a
        # partition at both ranks misses numpy's fast single-rank path)
        hi = n // 2
        keys, k = np.empty(n, dtype=np.float32), 0
        with np.errstate(over="ignore"):  # a distance past the float32 range keys as inf
            for i0, i1 in blocks:
                for p in pairs(i0, i1):
                    keys[k:k + p.size].reshape(p.shape)[...] = p
                    k += p.size
        keys.partition(hi)
        key_hi = keys[hi]
        key_lo = keys[:hi].max() if n % 2 == 0 else key_hi
        del keys
        below, band, first, seen = 0, [], None, 0
        for i0, i1 in blocks:
            for p in pairs(i0, i1):
                with np.errstate(over="ignore"):
                    key = p.astype(np.float32)
                below += np.count_nonzero(key < key_lo)
                vals = p[(key >= key_lo) & (key <= key_hi)]
                if vals.size:
                    if first is None:
                        first = vals[0]
                    if band or (vals != first).any():
                        if not band:  # the band values so far all equal first
                            band.append(np.full(seen, first))
                        band.append(vals)
                    seen += vals.size
        if band:
            band = np.concatenate(band)
            rank = hi - below
            band.partition(rank)
            x_hi = float(band[rank])
            x_lo = float(band[:rank].max()) if n % 2 == 0 else x_hi
        else:
            x_lo = x_hi = float(first)
        t = (x_hi if n % 2 else (x_lo + x_hi) / 2.0) / 4.0
    t = t if t > 0.0 else 1.0  # no pair, a zero median, or one whose quarter underflows

    degrees, energy = np.empty(m), 0.0
    scratch, full = np.empty(rows * m), np.empty((rows, m))
    for j, (i0, i1) in enumerate(blocks):
        b = i1 - i0
        sq = scratch[:b * (m - i0)].reshape(b, m - i0)
        for c0, c1 in upper(i0):
            sq[:, c0 - i0:c1 - i0] = stored(i0, i1, c0, c1)
        np.copyto(sq[:, :b], 0.0, where=tri[:b, :b])
        f = full[:b]
        wts = f[:, i0:]
        np.divide(sq, -4.0 * t, out=wts)
        np.exp(wts, out=wts)
        sq *= wts
        energy += float(sq.sum())
        np.copyto(wts[:, :b], wts[:, :b].T, where=tri[:b, :b])
        # the columns :i0 from the rows above, one tile at a time: a single
        # transposed copy of them all reads across pages and took ~5x as long
        for r0, r1 in blocks[:j]:
            f[:, r0:r1] = stored(r0, r1, i0, i1).T
        degrees[i0:i1] = f.sum(axis=1)
        if i0 < h:
            w_top[i0:i1] = f[:, :h]
        w_right[i0:i1] = f[:, h:]
    return GraphOperators(w_top=w_top, w_right=w_right, degrees=degrees, energy=energy / m)


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
    w_s = ops.rows(idx)
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


def solve_coordinates(ops, v, mu_bar):
    """Solve (L + mu_bar W) U = mu_bar W V column-independently.

    mu_bar weights the smoothing term against the data term; mu_bar > 0
    holds by `TrainConfig`'s check. The system matrix
    L + mu_bar W = D - (1 - mu_bar) W is applied, not assembled; it is
    symmetric positive definite for mu_bar > 0. CG is
    preconditioned by D - (1 - mu_bar) F F^T, F F^T a Nystrom approximation
    of W (see `_nystrom_preconditioner`), so the system solved stays the
    exact dense one. Each column must reach relative residual <= 1e-8
    against its right-hand side, within 10 m CG iterations over at most
    three passes; otherwise SolverError carries the worst column residual.
    The true residual is re-checked after the recurrence converges, with a
    restart if rounding drift ate the contract. A NaN or infinite weight in
    W (caught from the degrees, before any product with W), a NaN or
    infinite entry in v, or a v whose right-hand side overflows raises
    SolverError with a NaN residual after 0 iterations, and no warning; a
    non-finite residual fails the contract like any other.

    v is an (m, k) block, k >= 1, C- or F-ordered. CG runs on (k, m) blocks
    from b = mu_bar * (v^T W), v^T a view; u is the F-ordered (m, k) view of
    the (k, m) solution. W is read only through `ops`: each product is
    `GraphOperators.matmul`'s three GEMMs over the two blocks, which round
    differently from one dense GEMM (U moves by ~1e-16 relative), and the
    preconditioner's landmark rows come from `GraphOperators.rows`.
    """
    v = np.asarray(v, dtype=np.float64)
    m = ops.m
    if v.ndim != 2 or v.shape[0] != m or v.shape[1] == 0:
        raise ShapeError(f"v must be an (m, k >= 1) block over {m} points, got shape {v.shape}")
    c = 1.0 - mu_bar
    if not np.isfinite(ops.degrees).all():
        raise SolverError(np.nan, 0)
    if (ops.degrees - c <= 0.0).any():  # the diagonal of A; w_ii = 1
        raise SolverError(np.inf, 0)
    # a non-finite or overflowing v leaves bnorm non-finite, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        b = ops.matmul(v.T)
        b *= mu_bar
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
