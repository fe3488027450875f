"""Patch-set graph machinery.

Builds the sampled patch manifold from images plus compressed encoder codes,
one Gaussian graph per group of its rows, and solves the coupled smoothing
system

    (L + mu_bar * W) U = mu_bar * W * V,    L = D - W,

on every group at once. A group is one (branch, batch row): that row's
corrected-entry patches and its free-entry patches, 2 (H/s)(W/s) points,
gathered by the index of `patch_groups`. LDMM (Osher, Shi & Zhu, SIAM J.
Imaging Sci. 2017) builds the patch manifold of one image; a group holds the
two images of one batch row and branch. W is block diagonal over the
groups, so each block has its own bandwidth, weights, row sums D and
Dirichlet energy. All groups have one size, so the blocks are one
(G, n, n) stack, and the system matrices L + mu_bar * W = D - (1 - mu_bar) * W
of all blocks are solved in one stacked LU solve, for mu_bar >= `MU_BAR_MIN`;
each column's normwise backward error must then be at most 1e-12, or
`SolverError` is raised. The Dirichlet energy of the points, the block sums of
sum_{i<j} w_ij ||p_i - p_j||^2 divided by the point count m, serves as the
manifold-dimension diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, concat, reshape, transpose

MU_BAR_MIN = 1e-8  # the solve's floor on mu_bar; see `solve_coordinates`


class SolverError(RuntimeError):
    """The patch-graph solve failed: its factorization, or its backward-error
    contract.

    group is the block whose column missed worst, or None when the stacked
    factorization failed and no block is singled out."""

    def __init__(self, worst_residual, group):
        where = "" if group is None else f" in group {group}"
        super().__init__(f"patch-graph solve failed: worst column backward error "
                         f"{worst_residual:.3e}{where}")
        self.worst_residual = worst_residual
        self.group = group


@dataclass
class PatchGraph:
    """Gaussian weights over the groups of one patch set.

    groups is the (G, n) row index of `patch_groups`: block g holds the
    points groups[g], in that order. w is the (G, n, n) stack of the blocks'
    weights, degrees their (G, n) row sums D, and energy the (G,) Dirichlet
    energies sum_{i<j} w_ij ||p_i - p_j||^2 of the blocks' points. The
    Laplacian L = D - W is never stored.
    """

    groups: np.ndarray
    w: np.ndarray
    degrees: np.ndarray
    energy: np.ndarray


@dataclass
class DualVariable:
    values: np.ndarray


@dataclass
class SolveResult:
    u: np.ndarray  # (m, k), rows in patch-set order
    residual: float


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


def patch_groups(n_entries, n_images, n_locations):
    """The (G, 2 * n_locations) group index of a patch set: one row of
    patch-set row indices per group, G = n_entries / 2 * n_images.

    The patch set's n_entries entries are the corrected branches, then the
    free ones in the same branch order (`training._patch_entries`), each
    n_images images of n_locations rows (`build_patch_set`). Group
    b * n_images + r holds image r of corrected entry b, then image r of free
    entry b, rows in patch-set order, so every row is in exactly one group.
    """
    half = n_entries // 2
    corrected = (np.arange(half * n_images) * n_locations)[:, None] + np.arange(n_locations)
    return np.concatenate([corrected, corrected + half * n_images * n_locations], axis=1)


def _sq_dists(points, norms, groups):
    """Squared distances within each group of the (m, d) points, as a
    (G, n, n) stack; norms are the points' (m,) squared norms and groups a
    (G, n) row index.

    GEMM form (|a|^2 + |b|^2) - 2 a.b. Its rounding error is at most about
    d * eps * (|a|^2 + |b|^2), so a value at or below that bound is set to 0:
    duplicate points come out exactly 0 apart, as in the difference form, and
    negative rounding is clamped. The strict upper triangle is mirrored into
    the lower one and the diagonal is 0, so each block is symmetric bit for
    bit.
    """
    blocks = points[groups]
    sq = np.matmul(blocks, blocks.transpose(0, 2, 1))
    del blocks
    norms = norms[groups]
    bound = norms[:, :, None] + norms[:, None, :]
    sq *= -2.0
    sq += bound
    bound *= points.shape[1] * np.finfo(np.float64).eps
    np.copyto(sq, 0.0, where=sq <= bound)
    del bound
    n = groups.shape[1]
    lower, upper = np.tril_indices(n, -1)
    sq[:, lower, upper] = sq[:, upper, lower]
    sq[:, np.arange(n), np.arange(n)] = 0.0
    return sq


def gaussian_weights(points, groups):
    """Gaussian kernel weights w_ij = exp(-||p_i - p_j||^2 / (4t)) within
    each group.

    points is an (m, d) array, such as a patch set's values, and groups a
    (G, n) index from `patch_groups`; one that does not hold each of the m
    rows exactly once raises ShapeError. A NaN or infinite entry, or a
    squared norm past a quarter of the float64 maximum (so that some
    distance would overflow), raises ValueError naming the rows. Each block's
    bandwidth t is the np.median of its n (n - 1) / 2 strict-upper squared
    distances (`_sq_dists`) / 4, or 1 when that is not positive or the block
    has no pair. w_ii = exp(0) = 1, so each block is symmetric with a unit
    diagonal. Returns the `PatchGraph` of the blocks' weights, degrees and
    Dirichlet energies.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ShapeError(f"points must be an m x d matrix, got shape {pts.shape}")
    m = pts.shape[0]
    if m < 1:
        raise ShapeError("need at least one point")
    if groups.ndim != 2 or not np.array_equal(np.sort(groups, axis=None), np.arange(m)):
        raise ShapeError(f"groups must hold each of the {m} rows once, "
                         f"got an index of shape {groups.shape}")

    norms = np.einsum("ij,ij->i", pts, pts)
    # every distance is at most 4 max |p|^2; a NaN or inf entry makes its
    # row's norm fail the comparison too
    bad = np.flatnonzero(~(norms <= np.finfo(np.float64).max / 4.0))
    if bad.size:
        raise ValueError(f"points must be finite, with squared norms at most a quarter "
                         f"of the float64 maximum; rows {bad[:8].tolist()} are not")

    sq = _sq_dists(pts, norms, groups)
    upper, lower = np.triu_indices(groups.shape[1], 1)
    pairs = sq[:, upper, lower]
    t = np.median(pairs, axis=1) / 4.0 if pairs.shape[1] else np.zeros(len(groups))
    t[~(t > 0.0)] = 1.0  # no pair, a zero median, or one whose quarter underflows
    w = np.divide(sq, (-4.0 * t)[:, None, None], out=sq)
    np.exp(w, out=w)
    pairs *= w[:, upper, lower]
    return PatchGraph(groups=groups, w=w, degrees=w.sum(axis=2), energy=pairs.sum(axis=1))


def solve_coordinates(graph, v, mu_bar):
    """Solve (L + mu_bar W) U = mu_bar W V on every block of the graph.

    mu_bar >= `MU_BAR_MIN` weights the smoothing term against the data term;
    `TrainConfig`'s check holds it. v is an (m, k) block, k >= 1, rows in
    patch-set order. Each group's rows of v are gathered into a (G, n, k)
    stack, and the blocks' system matrices A = D - (1 - mu_bar) W, symmetric
    positive definite for mu_bar > 0, are assembled and solved in one stacked
    `np.linalg.solve`; U is scattered back to the rows v came from.

    Each column x of each block must have normwise backward error
    ||b - A x|| / (||A|| ||x|| + ||b||) <= 1e-12 in the max norm (Rigal &
    Gaches; a zero column reads 0), or SolverError carries the worst ratio
    and its group. That puts U near the solution of a nearby system; its
    distance to the exact U grows with A's condition number, ~1 / mu_bar,
    hence the floor (at 1e-8 U is still good to ~1e-9). A factorization that
    fails raises it with an infinite ratio. A NaN or infinite weight, or a v
    whose right-hand side is not finite (a NaN or infinite entry, or one
    that overflows the product), raises it with a NaN ratio before the
    solve, and no warning.
    """
    v = np.asarray(v, dtype=np.float64)
    groups = graph.groups
    if v.ndim != 2 or v.shape[0] != groups.size or v.shape[1] == 0:
        raise ShapeError(f"v must be an (m, k >= 1) block over {groups.size} points, "
                         f"got shape {v.shape}")
    # a non-finite weight or v, or a v whose right-hand side overflows,
    # leaves b non-finite, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.matmul(graph.w, v[groups])
        b *= mu_bar
    bad = ~np.isfinite(b).all(axis=(1, 2))
    if bad.any():
        raise SolverError(np.nan, int(np.argmax(bad)))
    diag = np.arange(groups.shape[1])
    a = graph.w * (mu_bar - 1.0)
    a[:, diag, diag] += graph.degrees
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise SolverError(np.inf, None) from None
    with np.errstate(over="ignore", invalid="ignore"):
        anorm = np.abs(a).sum(axis=2).max(axis=1)
        r = np.matmul(a, x)
        np.subtract(b, r, out=r)
        scale = anorm[:, None] * np.abs(x).max(axis=1) + np.abs(b).max(axis=1)
        scale[scale == 0.0] = 1.0  # b = 0, so x = 0 and r = 0
        eta = np.abs(r, out=r).max(axis=1) / scale
    worst = eta.max(axis=1)
    g = int(np.argmax(worst))  # a NaN ratio is the first maximum
    if not worst[g] <= 1e-12:
        raise SolverError(float(worst[g]), g)
    u = np.empty(v.shape)
    u[groups.reshape(-1)] = x.reshape(-1, v.shape[1])
    return SolveResult(u=u, residual=float(worst[g]))


def dirichlet_energy(graph):
    """Dirichlet energy of the points the graph was built from, divided by
    m: the sum over blocks of sum_{i<j} w_ij ||p_i - p_j||^2, which
    `gaussian_weights` sums as it exponentiates, over the m points. Every
    term is >= 0, and so is the sum.
    """
    return float(graph.energy.sum()) / graph.groups.size


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
