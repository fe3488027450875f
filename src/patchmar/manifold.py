"""Patch-set graph machinery.

Builds the sampled patch manifold from images plus compressed encoder codes,
one Gaussian graph per block of its rows, and solves the coupled smoothing
system

    (L + mu_bar * W) U = mu_bar * W * V,    L = D - W,

on each block. The patch set comes in block order
(`build_patch_set`): block b * N + r is one (branch b, batch row r), image r
of the branch's corrected image x_hat, then image r of its free image y,
2 (H/s)(W/s) rows, so each block is one contiguous row range and the blocks
are a reshape of the (m, d) patch set to (G, n, d). LDMM (Osher, Shi & Zhu,
SIAM J. Imaging Sci. 2017) builds the patch manifold of one image; a block
holds the two images of one batch row and branch. W is block diagonal, so
each block has its own bandwidth, weights, row sums D and Dirichlet energy.
All blocks have one size, so W is one (G, n, n) stack. It is built block by
block, each block's distances straight into its block of W, and the system
matrices L + mu_bar * W = D - (1 - mu_bar) * W are assembled and LU-solved
block by block, for mu_bar >= `MU_BAR_MIN`: the only stacks they hold are
W and the right-hand sides, which U overwrites. Each column's normwise
backward error must be at most 1e-12, or `SolverError` is raised. The
Dirichlet energy of the points, the block sums of
sum_{i<j} w_ij ||p_i - p_j||^2 divided by the point count m, serves as the
manifold-dimension diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, _node

MU_BAR_MIN = 1e-8  # the solve's floor on mu_bar; see `solve_coordinates`


class SolverError(RuntimeError):
    """The patch-graph solve failed: its factorization, or its backward-error
    contract.

    group is the block whose column missed worst, or None when a block's
    factorization failed and no block is singled out. Block g of a batch of
    N rows is branch g // N, batch row g % N (`build_patch_set`)."""

    def __init__(self, worst_residual, group):
        where = "" if group is None else f" in group {group}"
        super().__init__(f"patch-graph solve failed: worst column backward error "
                         f"{worst_residual:.3e}{where}")
        self.worst_residual = worst_residual
        self.group = group


@dataclass
class PatchGraph:
    """Gaussian weights over the blocks of one patch set.

    w is the (G, n, n) stack of the blocks' weights, degrees their (G, n)
    row sums D, and energy the (G,) Dirichlet energies
    sum_{i<j} w_ij ||p_i - p_j||^2 of the blocks' points. The Laplacian
    L = D - W is never stored.
    """

    w: np.ndarray
    degrees: np.ndarray
    energy: np.ndarray


@dataclass
class DualVariable:
    values: np.ndarray


@dataclass
class SolveResult:
    u: np.ndarray  # (G, n, k), one block per graph block
    residual: float


def build_patch_set(branches):
    """Assemble the patch set, in block order, from (x_hat, z_x, y, z_y)
    branch tuples: the corrected image x_hat [N,1,H,W] with its
    [N,C,H/s,W/s] compressed code z_x (C = s^2 in the network), and the
    free image y with its code z_y.

    The patch size s is the image extent over the code extent,
    H // z_x.shape[2]. The network's encoders guarantee that shape; an
    empty input, images or codes not all of one shape, images of more than
    one channel, and a code whose batch or grid does not tile the image in
    s x s patches raise ShapeError. Returns the m x d points Tensor, one row
    per spatial location: the flattened s x s pixel patch, then the C code
    entries at that location. Block b * N + r, rows (b * N + r) * n to
    (b * N + r + 1) * n with n = 2 (H/s)(W/s), holds image r of
    branches[b]'s x_hat, then image r of its y, locations row-major within
    each, so block g is branch g // N, batch row g % N.

    The patch set is one node of the autodiff graph, so penalties on it
    reach the network. One pair of views, of the patch and the code columns
    in each entry's own layout, serves both ways: the forward writes each
    entry into the preallocated rows through it, and the closure reads each
    branch tensor's gradient out of g through it.
    """
    if not branches:
        raise ShapeError("empty patch-set input")
    entries = [t for branch in branches for t in branch]
    for i, t in enumerate(entries):
        if t.shape != entries[i % 2].shape:
            raise ShapeError(f"patch-set entry {i}: shape {t.shape} vs {entries[i % 2].shape}")
    image, code = entries[0].shape, entries[1].shape
    if len(image) != 4 or len(code) != 4:
        raise ShapeError(f"patch images and codes must be 4-d, got {image} and {code}")
    n, channels, h, w = image
    _, c, gh, gw = code
    if channels != 1:
        raise ShapeError(f"patch images must have one channel, got {channels}")
    s = h // gh if gh else 0
    if code[0] != n or s < 1 or (h, w) != (s * gh, s * gw):
        raise ShapeError(f"code shape {code} does not tile image shape {image} in s x s patches")
    nb = len(branches)

    def views(a):
        # (branch, entry, N, H/s, s, W/s, s) and (branch, entry, N, C, H/s,
        # W/s) views of a's two column ranges; they only split axes and
        # permute them, so writes reach a
        return (a[:, :s * s].reshape(nb, n, 2, gh, gw, s, s).transpose(0, 2, 1, 3, 5, 4, 6),
                a[:, s * s:].reshape(nb, n, 2, gh, gw, c).transpose(0, 2, 1, 5, 3, 4))

    points = np.empty((nb * 2 * n * gh * gw, s * s + c),
                      dtype=np.result_type(*(t.data for t in entries)))
    both = views(points)
    for i, t in enumerate(entries):  # branch i // 4, entry i // 2 % 2
        both[i % 2][i // 4, i // 2 % 2] = t.data.reshape(both[i % 2].shape[2:])

    def bwd(g):
        both = views(g)
        return [np.ascontiguousarray(both[i % 2][i // 4, i // 2 % 2]).reshape(t.shape)
                if t.requires_grad else None for i, t in enumerate(entries)]

    return _node(points, entries, bwd)


def _sq_dists(blocks, norms, upper, out=None):
    """Squared distances within each block of a (G, n, d) stack, as a
    (G, n, n) stack, written into `out` when it is given; norms are the
    points' (G, n) squared norms, and upper is the `np.triu_indices(n, 1)`
    pair of row and column indices.

    GEMM form (|a|^2 + |b|^2) - 2 a.b. Its rounding error is at most about
    d * eps * (|a|^2 + |b|^2), so a value at or below that bound is set to 0:
    duplicate points come out exactly 0 apart, as in the difference form, and
    negative rounding is clamped. The strict upper triangle is mirrored into
    the lower one and the diagonal is 0, so each block is symmetric bit for
    bit.
    """
    sq = np.matmul(blocks, blocks.transpose(0, 2, 1), out=out)
    bound = norms[:, :, None] + norms[:, None, :]
    sq *= -2.0
    sq += bound
    bound *= blocks.shape[2] * np.finfo(np.float64).eps
    np.copyto(sq, 0.0, where=sq <= bound)
    del bound
    rows, cols = upper
    sq[:, cols, rows] = sq[:, rows, cols]
    for block in sq:
        np.fill_diagonal(block, 0.0)
    return sq


def gaussian_weights(blocks):
    """Gaussian kernel weights w_ij = exp(-||p_i - p_j||^2 / (4t)) within
    each block.

    blocks is a (G, n, d) stack of points, such as a patch set's values
    reshaped to its blocks. A NaN or infinite entry, or a squared norm past
    a quarter of the float64 maximum (so that some distance would overflow),
    raises ValueError naming the rows, counted over the flat (G * n, d)
    view. Each block's bandwidth t is the np.median of its n (n - 1) / 2
    strict-upper squared distances (`_sq_dists`) / 4, or 1 when that is not
    positive or the block has no pair. w_ii = exp(0) = 1, so each block is
    symmetric with a unit diagonal. Returns the `PatchGraph` of the blocks'
    weights, degrees and Dirichlet energies.

    W is built block by block: each block's distances are written straight
    into its block of W and exponentiated there, so the rounding bound, the
    median's pairs and the energy's terms are temporaries of one block.
    """
    pts = np.asarray(blocks, dtype=np.float64)
    if pts.ndim != 3:
        raise ShapeError(f"points must be a (G, n, d) stack, got shape {pts.shape}")
    g, n, d = pts.shape
    if g * n < 1:
        raise ShapeError("need at least one point")

    flat = pts.reshape(g * n, d)
    norms = np.einsum("ij,ij->i", flat, flat)
    # every distance is at most 4 max |p|^2; a NaN or inf entry makes its
    # row's norm fail the comparison too
    bad = np.flatnonzero(~(norms <= np.finfo(np.float64).max / 4.0))
    if bad.size:
        raise ValueError(f"points must be finite, with squared norms at most a quarter "
                         f"of the float64 maximum; rows {bad[:8].tolist()} are not")

    norms = norms.reshape(g, n)
    w = np.empty((g, n, n))
    energy = np.empty(g)
    upper = np.triu_indices(n, 1)
    for i in range(g):
        block = _sq_dists(pts[i:i + 1], norms[i:i + 1], upper, out=w[i:i + 1])[0]
        pairs = block[upper]
        t = np.median(pairs) / 4.0 if pairs.size else 0.0
        if not t > 0.0:  # no pair, a zero median, or one whose quarter underflows
            t = 1.0
        np.divide(block, -4.0 * t, out=block)
        np.exp(block, out=block)
        pairs *= block[upper]
        energy[i] = pairs.sum()
    return PatchGraph(w=w, degrees=w.sum(axis=2), energy=energy)


def solve_coordinates(graph, v, mu_bar):
    """Solve (L + mu_bar W) U = mu_bar W V on every block of the graph.

    mu_bar >= `MU_BAR_MIN` weights the smoothing term against the data term;
    `TrainConfig`'s check holds it. v is a (G, n, k) stack, k >= 1, one
    block per graph block, in any memory order (U does not depend on it).
    The right-hand sides b = mu_bar W V of all blocks are formed first and
    checked; then the blocks are solved block by block: each block's system
    matrix A = D - (1 - mu_bar) W, symmetric positive definite for
    mu_bar > 0, is assembled, solved with `np.linalg.solve` and checked, and
    its U is written over its block of b, so every other array is one
    block's. U comes back as a (G, n, k) stack, in b's buffer.

    Each column x of each block must have normwise backward error
    ||b - A x|| / (||A|| ||x|| + ||b||) <= 1e-12 in the max norm (Rigal &
    Gaches; a zero column reads 0), or SolverError carries the worst ratio
    and its block, the first one when blocks tie. That puts U near the
    solution of a nearby system; its distance to the exact U grows with A's
    condition number, ~1 / mu_bar, hence the floor (at 1e-8 U is still good
    to ~1e-9). A factorization that fails raises it with an infinite ratio
    and no block, ahead of any block's backward error. A NaN or infinite
    weight, or a v whose right-hand side is not finite (a NaN or infinite
    entry, or one that overflows the product), raises it with a NaN ratio
    before any solve, and no warning.
    """
    shape = np.shape(v)
    if len(shape) != 3 or shape[:2] != graph.degrees.shape or shape[2] == 0:
        raise ShapeError(f"v must be a (G, n, k >= 1) stack over blocks of shape "
                         f"{graph.degrees.shape}, got shape {shape}")
    # a non-finite weight or v, or a v whose right-hand side overflows,
    # leaves b non-finite, unwarned; a C-ordered v, so that the order v is
    # stored in cannot reach the product's rounding
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.matmul(graph.w, np.ascontiguousarray(v, dtype=np.float64))
        b *= mu_bar
    bad = ~np.isfinite(b).all(axis=(1, 2))
    if bad.any():
        raise SolverError(np.nan, int(np.argmax(bad)))
    diag = np.arange(shape[1])
    worst = np.empty(shape[0])
    for i, rhs in enumerate(b):
        a = graph.w[i] * (mu_bar - 1.0)
        a[diag, diag] += graph.degrees[i]
        try:
            x = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:
            raise SolverError(np.inf, None) from None
        with np.errstate(over="ignore", invalid="ignore"):
            anorm = np.abs(a).sum(axis=1).max()
            r = np.matmul(a, x)
            np.subtract(rhs, r, out=r)
            scale = anorm * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
            scale[scale == 0.0] = 1.0  # b = 0, so x = 0 and r = 0
            worst[i] = (np.abs(r, out=r).max(axis=0) / scale).max()
        rhs[...] = x
    g = int(np.argmax(worst))  # a NaN ratio is the first maximum
    if not worst[g] <= 1e-12:
        raise SolverError(float(worst[g]), g)
    return SolveResult(u=b, residual=float(worst[g]))


def dirichlet_energy(graph):
    """Dirichlet energy of the points the graph was built from, divided by
    m: the sum over blocks of sum_{i<j} w_ij ||p_i - p_j||^2, which
    `gaussian_weights` sums as it exponentiates, over the m points. Every
    term is >= 0, and so is the sum.
    """
    return float(graph.energy.sum()) / graph.degrees.size


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
