import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.spatial.distance import pdist, squareform

from patchmar import autodiff as ad
from patchmar import ctsim, manifold, training
from patchmar.autodiff import Tensor, ShapeError
from patchmar.manifold import (DualVariable, PatchGraph, SolveResult, SolverError,
                               build_patch_set, dirichlet_energy,
                               gaussian_weights, normalize_dual, solve_coordinates)
from test_autodiff import sum_sq


def random_points(rng, m, d):
    return rng.standard_normal((m, d))


def graph_of(points):
    """The graph of an (m, d) set of points as one block."""
    return gaussian_weights(points[None])


def solve(graph, v, mu_bar):
    """solve_coordinates on an (m, k) block v in block order: v's rows
    split into the graph's blocks, and U joined back into (m, k)."""
    res = solve_coordinates(graph, v.reshape(graph.degrees.shape + (-1,)), mu_bar)
    return SolveResult(u=res.u.reshape(v.shape), residual=res.residual)


def dense_w(graph):
    """W as one m x m array, block diagonal over the blocks in block order."""
    return block_diag(*graph.w)


def dense_degrees(graph):
    return graph.degrees.reshape(-1)


def dense_laplacian(graph):
    return np.diag(dense_degrees(graph)) - dense_w(graph)


def energy_of(u, graph):
    """sum over the columns of an (m, k) block u of u^T L u, divided by m:
    the Dirichlet energy of any u in block order, through the assembled
    Laplacian."""
    return float(np.sum(u * (dense_laplacian(graph) @ u))) / graph.degrees.size


def dense_solve(graph, v, mu_bar):
    """U from one np.linalg.solve of the assembled m x m system."""
    w = dense_w(graph)
    return np.linalg.solve(dense_laplacian(graph) + mu_bar * w, mu_bar * w @ v)


def backward_error(graph, v, mu_bar, u):
    """The worst normwise backward error of u's columns in the assembled
    m x m system, ||b - A u|| / (||A|| ||u|| + ||b||) in the max norm."""
    w = dense_w(graph)
    a = dense_laplacian(graph) + mu_bar * w
    b = mu_bar * w @ v
    scale = np.abs(a).sum(axis=1).max() * np.abs(u).max(axis=0) + np.abs(b).max(axis=0)
    return float((np.abs(b - a @ u).max(axis=0) / scale).max())


# -------------------------------------------------------------- patch sets

def test_patch_set_counts_for_default_geometry():
    rng = np.random.default_rng(0)
    img = Tensor(rng.standard_normal((1, 1, 64, 64)).astype(np.float32))
    code = Tensor(rng.standard_normal((1, 64, 8, 8)).astype(np.float32))
    ps = build_patch_set([(img, code, img, code)])
    assert ps.shape == (2 * 64, 128)


def test_patch_set_constant_fields():
    img = Tensor(np.full((1, 1, 16, 16), 0.5, dtype=np.float32))
    code = Tensor(np.full((1, 16, 4, 4), -1.25, dtype=np.float32))
    ps = build_patch_set([(img, code, img, code)])
    expected = np.concatenate([np.full(16, 0.5), np.full(16, -1.25)]).astype(np.float32)
    for row in ps.data:
        assert np.array_equal(row, expected)


def test_patch_set_rows_match_direct_slicing():
    # the corrected entry's 64 rows, then the free entry's
    rng = np.random.default_rng(1)
    img, free = rng.standard_normal((2, 1, 1, 32, 32)).astype(np.float32)
    code, free_code = rng.standard_normal((2, 1, 16, 8, 8)).astype(np.float32)
    ps = build_patch_set([(Tensor(img), Tensor(code), Tensor(free), Tensor(free_code))])
    s, gw = 4, 8
    for e, (x, z) in enumerate(((img, code), (free, free_code))):
        for i in range(8):
            for j in range(gw):
                row = ps.data[e * 64 + i * gw + j]
                patch = x[0, 0, i * s:(i + 1) * s, j * s:(j + 1) * s].ravel()
                assert np.array_equal(row[:16], patch)
                assert np.array_equal(row[16:], z[0, :, i, j])


def test_patch_set_batched_images_keep_input_order():
    rng = np.random.default_rng(2)
    imgs = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
    codes = rng.standard_normal((3, 16, 2, 2)).astype(np.float32)
    ps = build_patch_set([(Tensor(imgs), Tensor(codes), Tensor(-imgs), Tensor(codes))])
    assert ps.shape[0] == 3 * 8
    # the second image's block starts at row 8, its free image's at row 12
    patch = imgs[1, 0, :4, :4].ravel()
    assert np.array_equal(ps.data[8, :16], patch)
    assert np.array_equal(ps.data[12, :16], -patch)


def test_patch_set_geometry_mismatch_rejected():
    # s is the image height over the code height, so a code grid whose width
    # is not the image's, a grid that leaves a remainder, an image of
    # another width, an empty grid and a grid finer than the pixels each
    # fail to tile the image in s x s patches
    for image, grid in [((16, 16), (2, 4)), ((16, 16), (5, 5)), ((16, 17), (2, 2)),
                        ((16, 16), (0, 2)), ((4, 4), (8, 8))]:
        img = Tensor(np.zeros((1, 1) + image, dtype=np.float32))
        bad_code = Tensor(np.zeros((1, 16) + grid, dtype=np.float32))
        with pytest.raises(ShapeError, match=re.escape(f"code shape {bad_code.shape} does not "
                                                       f"tile image shape {img.shape}")):
            build_patch_set([(img, bad_code, img, bad_code)])


def test_patch_set_rejects_unmatched_empty_or_multichannel_input():
    # a free image or a code of another batch size, or branches of other
    # image sizes, do not stack into blocks; nor do 3-d images
    img = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
    code = Tensor(np.zeros((1, 16, 2, 2), dtype=np.float32))
    two_rows = Tensor(np.zeros((2, 1, 16, 16), dtype=np.float32))
    with pytest.raises(ShapeError, match=re.escape("entry 2: shape (1, 1, 16, 16) vs "
                                                   "(2, 1, 16, 16)")):
        build_patch_set([(two_rows, Tensor(np.zeros((2, 16, 2, 2), dtype=np.float32)),
                          img, code)])
    with pytest.raises(ShapeError, match=re.escape("code shape (2, 16, 2, 2) does not tile "
                                                   "image shape (1, 1, 16, 16)")):
        build_patch_set([(img, Tensor(np.zeros((2, 16, 2, 2), dtype=np.float32)),
                          img, Tensor(np.zeros((2, 16, 2, 2), dtype=np.float32)))])
    small = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
    small_code = Tensor(np.zeros((1, 16, 1, 1), dtype=np.float32))
    with pytest.raises(ShapeError, match=re.escape("entry 4: shape (1, 1, 8, 8) vs "
                                                   "(1, 1, 16, 16)")):
        build_patch_set([(img, code, img, code), (small, small_code, small, small_code)])
    with pytest.raises(ShapeError, match="must be 4-d"):
        build_patch_set([(Tensor(img.data[0]), code, Tensor(img.data[0]), code)])
    with pytest.raises(ShapeError, match="empty patch-set input"):
        build_patch_set([])
    two = Tensor(np.zeros((1, 2, 16, 16), dtype=np.float32))
    with pytest.raises(ShapeError, match="one channel, got 2"):
        build_patch_set([(two, code, two, code)])


def test_patch_set_is_differentiable_through_both_parts():
    img = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32), requires_grad=True)
    code = Tensor(np.ones((1, 16, 2, 2), dtype=np.float32), requires_grad=True)
    ps = build_patch_set([(img, code, Tensor(np.ones((1, 1, 8, 8), dtype=np.float32)),
                           Tensor(np.ones((1, 16, 2, 2), dtype=np.float32)))])
    ad.backward(sum_sq(ps))  # gradient 2 * ps = 2 everywhere
    assert np.allclose(img.grad, 2.0)
    assert np.allclose(code.grad, 2.0)


def test_patch_set_backward_is_its_forward_transposed():
    # Every entry element holds its own id, so the forward shows where each
    # one lands: the patch set is a permutation of the elements, and the
    # gradient of sum(G * P) on each element is G at that element's row and
    # column. Two branches at batch 3, a 2 x 3 grid of 4 x 4 patches and 5
    # code channels, and a free code that needs no gradient gets None.
    shapes = [(3, 1, 8, 12), (3, 5, 2, 3)] * 4
    sizes = [math.prod(shape) for shape in shapes]
    offsets = np.cumsum([0] + sizes)
    entries = [Tensor(np.arange(o, o + n, dtype=np.float64).reshape(shape), requires_grad=i != 3)
               for i, (o, n, shape) in enumerate(zip(offsets, sizes, shapes))]
    ps = build_patch_set([tuple(entries[:4]), tuple(entries[4:])])
    ids = ps.data.astype(np.int64).ravel()
    assert np.array_equal(np.sort(ids), np.arange(offsets[-1]))
    weights = np.random.default_rng(12).standard_normal(ps.shape)
    ad.backward(ad._node(np.float64(0.0), (ps,), lambda g: (weights * g,)))
    want = np.empty(offsets[-1])
    want[ids] = weights.ravel()
    for i, t in enumerate(entries):
        if i == 3:
            assert t.grad is None
        else:
            assert np.array_equal(t.grad, want[offsets[i]:offsets[i + 1]].reshape(t.shape))


# ------------------------------------------------------------- block order

def _entry_major(entries):
    """The (m, d) rows of (image, code) entries stacked entry after entry,
    each entry's images in batch order, locations row-major: the order that
    the patch set had before it came in blocks, built here in numpy."""
    rows = []
    for image, code in entries:
        n, _, h, _ = image.shape
        c, gh = code.shape[1:3]
        s = h // gh
        patches = image.reshape(n, gh, s, gh, s).transpose(0, 1, 3, 2, 4)
        rows.append(np.concatenate([patches.reshape(-1, s * s),
                                    code.transpose(0, 2, 3, 1).reshape(-1, c)], axis=1))
    return np.concatenate(rows)


@pytest.mark.parametrize("branches", [1, 2])
@pytest.mark.parametrize("batch", [1, 2, 32])
def test_patch_set_blocks_hold_each_rows_corrected_then_free_image(batch, branches):
    # Image r of branch b is 1000 (2 b + e) + r in its first pixel of every
    # patch, e = 0 for x_hat and 1 for y, and the first code channel holds
    # each location's row-major index plus 100 e, so every patch-set row
    # names its branch, entry, image and location; the other pixels and
    # code channels are random. Block b * N + r is rows n (b N + r) to
    # n (b N + r + 1), n = 2 (H/s)(W/s).
    rng = np.random.default_rng(batch + 10 * branches)
    gh, s = 4, 4
    locations = gh * gh
    tuples, entries = [], {"x_hat": [], "y": []}
    for b in range(branches):
        branch = []
        for e, name in enumerate(("x_hat", "y")):
            image = rng.standard_normal((batch, 1, s * gh, s * gh)).astype(np.float32)
            image[:, 0, ::s, ::s] = (1000.0 * (2 * b + e) + np.arange(batch))[:, None, None]
            code = rng.standard_normal((batch, s * s, gh, gh)).astype(np.float32)
            code[:, 0] = np.arange(locations).reshape(gh, gh) + 100 * e
            entries[name].append((image, code))
            branch += [Tensor(image), Tensor(code)]
        tuples.append(tuple(branch))
    points = build_patch_set(tuples).data
    n = 2 * locations
    assert points.shape == (branches * batch * n, 2 * s * s)
    blocks = points.reshape(branches * batch, n, -1)
    for b in range(branches):
        for r in range(batch):
            owner, location = blocks[b * batch + r, :, 0], blocks[b * batch + r, :, s * s]
            assert np.all(owner[:locations] == 1000 * 2 * b + r)
            assert np.all(owner[locations:] == 1000 * (2 * b + 1) + r)
            assert np.array_equal(location, np.concatenate([np.arange(locations),
                                                            100 + np.arange(locations)]))
    # the entry-major rows (the corrected entries, then the free ones), each
    # block gathered from image r of corrected entry b, then of free entry b
    reference = _entry_major(entries["x_hat"] + entries["y"])
    corrected = (np.arange(branches * batch) * locations)[:, None] + np.arange(locations)
    order = np.concatenate([corrected, corrected + branches * batch * locations], axis=1)
    assert np.array_equal(points, reference[order.reshape(-1)])


# ---------------------------------------------------------------- weights

def test_weights_identical_points():
    graph = graph_of(np.zeros((2, 3)))
    assert np.array_equal(dense_w(graph), np.ones((2, 2)))
    assert np.array_equal(dense_laplacian(graph), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_weights_analytic_kernel_value():
    # two points have one distance, which is the median, so t = sq / 4 and
    # the pair keeps weight e^-1
    p = np.zeros((2, 4))
    p[1, 0] = np.sqrt(2.8)
    graph = graph_of(p)
    assert abs(dense_w(graph)[0, 1] - np.exp(-1.0)) < 1e-12
    assert abs(dense_w(graph)[0, 1] - 0.3679) < 1e-4


def test_weights_random_points_laplacian_properties():
    rng = np.random.default_rng(3)
    pts = random_points(rng, 10, 6)
    graph = graph_of(pts)
    lap = dense_laplacian(graph)
    row_sums = lap.sum(axis=1)
    assert np.all(np.abs(row_sums) < 1e-12 * np.maximum(dense_degrees(graph), 1.0))
    w = dense_w(graph)
    assert np.array_equal(w, w.T)
    assert np.linalg.eigvalsh(lap).min() >= -1e-9
    assert np.allclose(np.diag(w), 1.0)


def test_weights_single_point():
    graph = graph_of(np.ones((1, 5)))
    assert dense_w(graph).tolist() == [[1.0]]
    assert graph.degrees.tolist() == [[1.0]]
    assert dense_laplacian(graph)[0, 0] == 0.0


def _difference_form_weights(pts):
    """Reference (W, degrees, energy) of one block from pdist's
    difference-form distances, t = their np.median / 4, or 1 when that is
    not positive or there is no pair."""
    sq = pdist(pts, "sqeuclidean")
    med = float(np.median(sq)) if sq.size else 0.0
    t = med / 4.0 if med > 0.0 else 1.0
    pair_w = np.exp(sq / (-4.0 * t))
    ref = squareform(pair_w)
    np.fill_diagonal(ref, 1.0)
    return ref, ref.sum(axis=1), float(pair_w @ sq)


def _assert_blocks_match_difference_form(blocks):
    """Each block of the graph of a (G, n, d) stack against the difference
    form of its own points; returns the graph.

    The GEMM-form distances round differently from pdist's difference form
    (by ~1e-15 on W), so the difference form is the reference up to a
    tolerance; symmetry and the unit diagonal stay exact."""
    graph = gaussian_weights(blocks)
    for pts, w, degrees, energy in zip(blocks, graph.w, graph.degrees, graph.energy):
        ref, ref_degrees, ref_energy = _difference_form_weights(pts)
        assert np.array_equal(w, w.T) and np.all(np.diag(w) == 1.0)
        assert np.abs(w - ref).max() <= 1e-13
        assert np.all(np.abs(degrees - ref_degrees) <= 1e-13 * ref_degrees)
        assert abs(energy - ref_energy) <= 1e-12 * ref_energy
    _assert_energy_matches_laplacian(blocks.reshape(-1, blocks.shape[2]), graph)
    return graph


def _assert_energy_matches_laplacian(pts, graph):
    # u^T L u sums the same terms in another order, and its rounding scales
    # with the terms that cancel, sum_i d_i |p_i|^2
    ref = energy_of(pts, graph)
    scale = float(dense_degrees(graph) @ np.einsum("ij,ij->i", pts, pts)) / len(pts)
    assert abs(dirichlet_energy(graph) - ref) <= 1e-12 * max(ref, scale)
    assert dirichlet_energy(graph) >= 0.0


def _points_of_kind(m, kind):
    """m points: for "normal", 128 standard normal coordinates each; for the
    other kinds, one draw of 16 coordinates per m, as drawn for "random"
    and with the duplicates their comments describe for the rest."""
    if kind == "normal":
        return np.random.default_rng(16).standard_normal((m, 128))
    rng = np.random.default_rng(13 + m)
    pts = 2.0 + 3.0 * rng.standard_normal((m, 16))
    if kind == "copies":  # every third row repeats the row before it
        pts[2::3] = pts[1::3][:len(pts[2::3])]
    elif kind == "one point":  # every pair is a duplicate: t = 1, W = 1
        pts[:] = pts[0]
    elif kind == "two clusters":  # rows alternate between two points
        pts[:] = pts[np.arange(m) % min(2, m)]
    elif kind == "one outlier":  # then a duplicate majority: a zero median from m = 5
        pts[2:] = pts[1:2]
    return pts


@pytest.mark.parametrize("m,kind", [(m, kind) for m in (1, 2, 63, 64, 65, 200, 257)
                                    for kind in ("copies", "one point", "one outlier")]
                         + [(1024, "normal")])
def test_weights_match_difference_form(m, kind):
    _assert_blocks_match_difference_form(_points_of_kind(m, kind)[None])


def test_weights_are_symmetric_with_a_unit_diagonal_from_a_skewed_product(monkeypatch):
    # A BLAS may round a.b and b.a apart and leave a.a - |a|^2 past the
    # clamp's bound, though this one gives a bit-symmetric product with an
    # exactly cancelling diagonal. Here the product comes back skewed, its
    # strict lower entries up and its diagonal down by a relative 1e-9:
    # only the mirror of the strict upper triangle and the zeroed diagonal
    # keep each W block bit-symmetric with w_ii = 1.
    inner = np.matmul

    def skewed(a, b, out=None):
        product = inner(a, b, out=out)
        n = product.shape[-1]
        lower, diag = np.tril_indices(n, -1), np.arange(n)
        product[:, lower[0], lower[1]] *= 1.0 + 1e-9
        product[:, diag, diag] *= 1.0 - 1e-9
        return product

    blocks = np.random.default_rng(33).standard_normal((2, 16, 8))
    with monkeypatch.context() as mp:
        mp.setattr(np, "matmul", skewed)
        graph = gaussian_weights(blocks)
    for w in graph.w:
        assert np.array_equal(w, w.T) and np.all(np.diag(w) == 1.0)


def _points_sharing_one_key(m):
    """Points on orthogonal axes, so every GEMM dot product is exactly 0 and
    the squared distance of a pair is n_i + n_j, with squared norms
    n_i ~ 1 + max(i - 63, 0) * 1e-12 and every fourth ~ 4 x that: the
    median lies among ~56% of the pairs, many distinct float64 distances in
    [2, 2 + 4e-10], which all round to one float32 value. A selection that
    ranked the distances in float32 would not tell them apart."""
    scale = 1.0 + 1e-12 * np.maximum(np.arange(m) - 63, 0)
    scale[::4] *= 4.0
    return np.diag(np.sqrt(scale))


_MEDIAN_CASES = ([(m, "normal") for m in (2, 3, 4, 5, 45, 46, 63, 64, 65, 127, 128, 129)]
                 + [(1, "normal"), (5, "one outlier"), (46, "one outlier"),
                    (1024, "one outlier"), (129, "one key"), (200, "one key")])


@pytest.mark.parametrize("m,kind", _MEDIAN_CASES)
def test_bandwidth_is_numpy_median_of_pair_distances_over_four(m, kind):
    # Odd and even pair counts. The distances are the ones gaussian_weights
    # computes (`_sq_dists`), so they round the same. One point has no pair,
    # and one outlier beside m - 1 copies leaves a zero median: t falls back
    # to 1 for both. "one key" crowds many distinct distances around the
    # median. The bandwidth is internal, so it is checked through W,
    # exponentiated as gaussian_weights does.
    if kind == "normal":
        pts = np.random.default_rng(29 + m).standard_normal((m, 8))
    elif kind == "one key":
        pts = _points_sharing_one_key(m)
    else:
        pts = _points_of_kind(m, kind)
    graph = graph_of(pts)
    upper = np.triu_indices(m, 1)
    sq = manifold._sq_dists(pts[None], np.einsum("ij,ij->i", pts, pts)[None], upper)[0]
    pairs = sq[upper]
    if m == 1:
        assert pairs.size == 0 and dense_w(graph).tolist() == [[1.0]]
        return
    if kind == "one key":
        key = np.float32(np.median(pairs))
        assert np.unique(pairs[pairs.astype(np.float32) == key]).size > m
    t = float(np.median(pairs)) / 4.0
    assert (t == 0.0) == (kind == "one outlier")
    ref = pairs.copy()
    ref /= -4.0 * (t if t > 0.0 else 1.0)
    np.exp(ref, out=ref)
    assert np.array_equal(dense_w(graph)[upper], ref)


def _clustered_blocks(rng, g, n, d):
    """A (g, n, d) stack of points in g clusters of different spreads, one
    per block, so the blocks' bandwidths differ."""
    return np.stack([rng.standard_normal(d) + (0.5 + b) * rng.standard_normal((n, d))
                     for b in range(g)])


def test_block_weights_degrees_and_energy_match_dense_reference():
    # Clustered blocks of different spreads, so their bandwidths differ, at
    # the blocks' training shape (two branches at batch 2 of 64 locations).
    # Every weight is within 1e-12 of its reference relative to itself, and
    # through the GEMM-form distances of `_sq_dists`, t is np.median's bit
    # for bit.
    rng = np.random.default_rng(40)
    blocks = _clustered_blocks(rng, 4, 128, 128)
    graph = _assert_blocks_match_difference_form(blocks)
    assert graph.w.shape == (4, 128, 128) and graph.degrees.shape == (4, 128)
    upper = np.triu_indices(128, 1)
    sq = manifold._sq_dists(blocks, np.einsum("gij,gij->gi", blocks, blocks), upper)
    for g, pts in enumerate(blocks):
        ref = _difference_form_weights(pts)[0]
        assert np.all(np.abs(graph.w[g] - ref) <= 1e-12 * ref)
        t = np.median(sq[g][upper]) / 4.0
        assert np.array_equal(graph.w[g][upper], np.exp(sq[g][upper] / (-4.0 * t)))
    assert dirichlet_energy(graph) == float(graph.energy.sum()) / 512


def test_all_equal_block_gets_unit_bandwidth_and_a_finite_u():
    # Every distance in the first block is 0, so its median is 0 and its
    # bandwidth falls back to 1: W is all ones there, not 0 / 0. Its system
    # (n I - (1 - mu_bar) 1 1^T) u = mu_bar 1 1^T v has the column means of v
    # as its solution.
    rng = np.random.default_rng(41)
    blocks = rng.standard_normal((2, 32, 8))
    blocks[0] = blocks[0, 0]
    graph = gaussian_weights(blocks)
    assert np.array_equal(graph.w[0], np.ones((32, 32)))
    assert graph.energy[0] == 0.0 and np.isfinite(graph.w).all()
    v = rng.standard_normal((2, 32, 3))
    res = solve_coordinates(graph, v, 0.6)
    assert res.u.shape == v.shape
    assert np.isfinite(res.u).all() and res.residual <= 1e-12
    assert np.abs(res.u[0] - v[0].mean(axis=0)).max() <= 1e-12


@pytest.mark.parametrize("kind", ["normal", "one point", "one outlier"])
def test_weights_peak_memory_is_w(kind):
    # W is built block by block: each block's distances are written
    # straight into its block of W and exponentiated there, and the
    # rounding bound of their GEMM form, the median's strict-upper pairs and
    # the pair indices are one block's temporaries, an eighth of W each or
    # less here. A batch-wide graph over the same points would hold 8 x W,
    # and its pair list 4 x W.
    m = 1024
    pts = _points_of_kind(m, kind).reshape(8, 128, -1)
    gaussian_weights(pts)  # first-use allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        graph = gaussian_weights(pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    held = graph.w.nbytes
    assert held == 8 * 128 * 128 * 8
    # measured 1.45 W; 2.62 W when the distances, their bound and the pairs
    # were built as (G, n, n) stacks for all blocks at once
    assert peak <= 1.75 * held


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 127, 128, 129, 200, 257])
def test_operator_matches_dense_w(m):
    # Rows dealt into blocks by a shuffled index, two blocks for an even m:
    # each block is the difference-form W of its own points, in the index's
    # order.
    rng = np.random.default_rng(31 + m)
    pts = random_points(rng, m, 6)
    rows = rng.permutation(m).reshape(2 - m % 2, -1)
    graph = _assert_blocks_match_difference_form(pts[rows])
    assert graph.w.shape == (len(rows), m // len(rows), m // len(rows))


def test_energy_is_the_pairwise_sum_over_points():
    # sum_{i<j} w_ij ||p_i - p_j||^2 / m, distances in difference form
    pts = random_points(np.random.default_rng(25), 40, 6)
    graph = graph_of(pts)
    sq = squareform(pdist(pts, "sqeuclidean"))
    oracle = float(np.triu(dense_w(graph) * sq, 1).sum()) / 40
    assert abs(dirichlet_energy(graph) - oracle) <= 1e-12 * oracle
    # two points sq = 2.8 apart: t = 0.7, w = e^-1, energy 2.8 e^-1 / 2
    p = np.zeros((2, 4))
    p[1, 0] = np.sqrt(2.8)
    two = dirichlet_energy(graph_of(p))
    assert abs(two - 1.4 * np.exp(-1.0)) <= 1e-14
    assert dirichlet_energy(graph_of(np.full((5, 3), 2.5))) == 0.0


def test_weights_reject_a_non_matrix_or_no_points():
    # a flat (m, d) patch set is not a stack of blocks
    for shape in ((4,), (4, 3)):
        with pytest.raises(ShapeError, match=re.escape(f"(G, n, d) stack, got shape {shape}")):
            gaussian_weights(np.zeros(shape))
    for shape in ((1, 0, 3), (0, 4, 3)):
        with pytest.raises(ShapeError, match="at least one point"):
            gaussian_weights(np.zeros(shape))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
def test_weights_reject_non_finite_points_naming_the_rows(value):
    # 1e160 is finite, but its squared norm overflows every distance from it
    # rows are counted in block order, over the flat view of the stack
    pts = random_points(np.random.default_rng(26), 70, 5)
    pts[3, 2] = value
    pts[41, 0] = value
    with pytest.raises(ValueError, match=r"rows \[3, 41\]"):
        gaussian_weights(pts.reshape(2, 35, 5))


# ------------------------------------------------------------------ solver

def test_solve_single_point_returns_v():
    graph = graph_of(np.ones((1, 3)))
    v = np.array([[1.0, -2.0, 3.0]])
    res = solve(graph, v, 0.6)
    assert np.allclose(res.u, v, atol=1e-12)


def test_solve_identical_points_constant_v():
    graph = graph_of(np.zeros((4, 2)))
    v = np.full((4, 3), 2.5)
    res = solve(graph, v, 0.6)
    assert np.allclose(res.u, v, atol=1e-8)


def test_solve_raises_on_a_perturbed_solution(monkeypatch):
    # A solution off by a relative 1e-6 has backward error ~4e-7, far past
    # the 1e-12 bound. At mu_bar = 1e-6 the same error reads only ~4e-12,
    # as it is nearly within that system's conditioning, so the test runs
    # where the backward error can tell.
    rng = np.random.default_rng(5)
    graph = gaussian_weights(random_points(rng, 30, 4).reshape(3, 10, 4))
    v = rng.standard_normal((30, 2))
    inner = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: inner(a, b) * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="worst column backward error") as err:
        solve(graph, v, 0.6)
    assert 1e-8 < err.value.worst_residual < 1e-6
    assert err.value.group in (0, 1, 2)


def test_solve_large_mu_bar_pins_u_to_v():
    rng = np.random.default_rng(6)
    pts = random_points(rng, 25, 6)
    v = rng.standard_normal((25, 4))
    res = solve(graph_of(pts), v, 1e6)
    assert np.linalg.norm(res.u - v) / np.linalg.norm(v) <= 1e-3


def test_solve_small_mu_bar_flattens_columns():
    rng = np.random.default_rng(7)
    pts = random_points(rng, 25, 6)
    v = rng.standard_normal((25, 4))
    res = solve(graph_of(pts), v, 1e-6)
    v_range = v.max(axis=0) - v.min(axis=0)
    u_range = res.u.max(axis=0) - res.u.min(axis=0)
    assert np.all(u_range <= 1e-3 * v_range)


def test_solve_reduces_dirichlet_energy():
    rng = np.random.default_rng(8)
    for mu_bar in (0.06, 0.6, 6.0):
        pts = random_points(rng, 20, 5)
        v = rng.standard_normal((20, 3))
        graph = gaussian_weights(pts.reshape(2, 10, 5))
        res = solve(graph, v, mu_bar)
        assert energy_of(res.u, graph) <= energy_of(v, graph) + 1e-12


def test_solve_permutation_equivariance():
    rng = np.random.default_rng(9)
    mu_bar = 0.6
    pts = random_points(rng, 15, 4)
    v = rng.standard_normal((15, 3))
    perm = rng.permutation(15)
    u1 = solve(graph_of(pts), v, mu_bar).u
    u2 = solve(graph_of(pts[perm]), v[perm], mu_bar).u
    assert np.allclose(u2, u1[perm], atol=1e-7)


def test_solve_shape_mismatch_rejected():
    # v must be a (G, n, k >= 1) stack over the graph's blocks, not the flat
    # (m, k) block
    graph = gaussian_weights(np.zeros((2, 3, 2)))
    for v in (np.zeros((6, 2)), np.zeros((2, 4, 2)), np.zeros((3, 2, 2)), np.zeros((2, 3, 0))):
        with pytest.raises(ShapeError, match="stack over blocks of shape"):
            solve_coordinates(graph, v, 0.6)


def test_solve_zero_right_hand_side_returns_zero():
    rng = np.random.default_rng(30)
    graph = graph_of(random_points(rng, 20, 4))
    res = solve(graph, np.zeros((20, 3)), 0.6)
    assert np.array_equal(res.u, np.zeros((20, 3)))
    assert res.residual == 0.0


def _hand_built(w, degrees):
    """A one-block graph from a given W and degrees, as gaussian_weights
    never builds it."""
    return PatchGraph(w=w[None], degrees=degrees[None], energy=np.zeros(1))


@pytest.mark.parametrize("mu_bar", [0.06, 0.6])
def test_solve_rejects_degrees_that_leave_no_positive_diagonal(mu_bar):
    # the diagonal of D - (1 - mu_bar) W is d_i - (1 - mu_bar), as w_ii = 1;
    # gaussian_weights gives d_i >= 1, so only a hand-built graph reaches
    # this. Here W = I, so the system is diagonal, with a zero on it: its
    # factorization fails.
    degrees = np.array([2.0, 1.0 - mu_bar, 0.5 * (1.0 - mu_bar)])
    with pytest.raises(SolverError) as err:
        solve(_hand_built(np.eye(3), degrees), np.ones((3, 2)), mu_bar)
    assert err.value.worst_residual == math.inf and err.value.group is None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_non_finite_right_hand_side(value):
    # a NaN column norm once passed as a zero right-hand side, converged
    rng = np.random.default_rng(27)
    graph = gaussian_weights(random_points(rng, 70, 5).reshape(2, 35, 5))
    v = rng.standard_normal((70, 3))
    v[41, 1] = value
    with pytest.raises(SolverError) as err:
        solve(graph, v, 0.6)
    assert math.isnan(err.value.worst_residual) and err.value.group == 1


@pytest.mark.parametrize("scale", [1e308], ids=["matmul"])
def test_solve_rejects_a_right_hand_side_that_overflows(scale):
    # v is finite, but b = mu_bar W v overflows in the product (two equal
    # points, so b = 0.6 * (1e308 + 1e308)), and the solve raises unwarned
    rng = np.random.default_rng(32)
    graph = graph_of(np.zeros((2, 4)))
    v = rng.standard_normal((2, 2))
    v[:, 0] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            solve(graph, v, 0.6)
    assert math.isnan(err.value.worst_residual) and err.value.group == 0


def test_solve_takes_a_finite_right_hand_side_whose_norm_would_overflow():
    # b's entries reach ~1e160, so the squares of a 2-norm of its columns
    # overflow, but b is finite: the solve meets its contract, unwarned, and
    # agrees with the dense solve column by column in the max norm
    rng = np.random.default_rng(32)
    graph = graph_of(random_points(rng, 300, 4))
    v = rng.standard_normal((300, 2))
    v[0, 0] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(graph, v, 0.6)
    assert res.residual <= 1e-12
    assert backward_error(graph, v, 0.6, res.u) <= 1e-12
    u_ref = dense_solve(graph, v, 0.6)
    assert np.all(np.abs(res.u - u_ref).max(axis=0) <= 1e-12 * np.abs(u_ref).max(axis=0))
    assert np.abs(res.u[:, 0]).max() > 1e150


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_graph_with_a_nan_row(value):
    # the graph a NaN patch entry made before gaussian_weights rejected it:
    # the solve returned U = 0 with residual 0. It raises before the
    # factorization, and an infinite row raises unwarned too.
    rng = np.random.default_rng(28)
    graph = graph_of(random_points(rng, 70, 5))
    w = graph.w[0].copy()
    w[11, :] = w[:, 11] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as err:
            solve(_hand_built(w, w.sum(axis=1)), rng.standard_normal((70, 3)), 0.6)
    assert math.isnan(err.value.worst_residual) and err.value.group == 0


def test_solve_raises_on_a_non_finite_residual(monkeypatch):
    rng = np.random.default_rng(15)
    graph = gaussian_weights(random_points(rng, 20, 5).reshape(2, 10, 5))
    inner = np.linalg.solve
    calls = []

    def poisoned(a, b):
        # the blocks are solved one at a time, in order
        x = inner(a, b)
        calls.append(a)
        if len(calls) == 2:
            x[0, 0] = np.nan  # the second block's first entry
        return x

    monkeypatch.setattr(np.linalg, "solve", poisoned)
    with pytest.raises(SolverError) as err:
        solve(graph, rng.standard_normal((20, 3)), 0.6)
    assert math.isnan(err.value.worst_residual) and err.value.group == 1


def test_solve_is_deterministic():
    rng = np.random.default_rng(22)
    graph = gaussian_weights(random_points(rng, 300, 8).reshape(3, 100, 8))
    v = rng.standard_normal((3, 100, 5))
    first = solve_coordinates(graph, v, 0.6)
    second = solve_coordinates(graph, v, 0.6)
    assert np.array_equal(first.u, second.u)
    assert first.residual == second.residual


# ------------------------------------------------ against a dense solve

# m = 1 is one point; the duplicate-heavy sets (a zero median for "one
# point", two distances for "two clusters") run on both sides of 64 and at
# m = 257; m = 256 runs as four shuffled groups of 64
_EQUIV_CASES = ([(m, "random") for m in (1, 63, 64, 65)]
                + [(m, kind) for m in (63, 64, 65, 257)
                   for kind in ("one point", "two clusters", "copies")]
                + [(256, "shuffled groups")])
# The ids keep the kind names these cases have always run under
_EQUIV_ID = {"one point": "all equal", "copies": "every third"}.get


def _case_blocks(m, kind):
    """The points of an `_EQUIV_CASES` case as a (G, n, 16) stack: the four
    shuffled blocks of that case, or else the case's one block of m points
    between two random blocks of its shape."""
    if kind == "shuffled groups":
        rows = np.random.default_rng(m).permutation(m).reshape(4, -1)
        return _points_of_kind(m, "random")[rows]
    rng = np.random.default_rng(m + 7)
    pts = _points_of_kind(m, kind)
    return np.stack([rng.standard_normal(pts.shape), pts,
                     1.0 + 2.0 * rng.standard_normal(pts.shape)])


@pytest.mark.parametrize("m,kind", _EQUIV_CASES, ids=_EQUIV_ID)
def test_each_block_is_built_and_solved_as_if_alone(m, kind):
    # The blocks of a stack do not reach each other: its W, degrees, energy
    # and U equal, byte for byte, those of each block built and solved
    # alone, and its residual is the worst block's
    blocks = _case_blocks(m, kind)
    v = np.random.default_rng(21).standard_normal(blocks.shape[:2] + (4,))
    graph = gaussian_weights(blocks)
    res = solve_coordinates(graph, v, 0.6)
    residuals = []
    for i in range(len(blocks)):
        alone = gaussian_weights(blocks[i:i + 1])
        solved = solve_coordinates(alone, v[i:i + 1], 0.6)
        for got, want in [(graph.w[i], alone.w[0]), (graph.degrees[i], alone.degrees[0]),
                          (graph.energy[i], alone.energy[0]), (res.u[i], solved.u[0])]:
            assert got.tobytes() == want.tobytes()
        residuals.append(solved.residual)
    assert res.residual == max(residuals)


def _assert_matches_dense_solve(graph, v, mu_bar, res):
    assert res.residual <= 1e-12
    assert backward_error(graph, v, mu_bar, res.u) <= 1e-12
    u_ref = dense_solve(graph, v, mu_bar)
    assert np.linalg.norm(res.u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)


# U against one dense np.linalg.solve of the assembled m x m system. The
# name comes from an earlier solve, "km" its (k, m) layout; ROADMAP item
# 14c renames the ids.
@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 1.0, 6.0])
@pytest.mark.parametrize("m,kind", _EQUIV_CASES, ids=_EQUIV_ID)
def test_km_solve_matches_mk_reference(m, kind, mu_bar):
    # The blocks' bandwidths and weights differ, so a solve that mixed one
    # block's rows, weights or degrees into another's would miss the
    # block-diagonal m x m system. At mu_bar = 6 the weight factor of
    # D - (1 - mu_bar) W is negative.
    graph = gaussian_weights(_case_blocks(m, kind))
    v = np.random.default_rng(20).standard_normal((graph.degrees.size, 4))
    res = solve(graph, v, mu_bar)
    _assert_matches_dense_solve(graph, v, mu_bar, res)
    if mu_bar == 1.0:  # the system matrix is D: U is each row's W-weighted mean of v
        u_mean = (dense_w(graph) @ v) / dense_degrees(graph)[:, None]
        assert np.linalg.norm(res.u - u_mean) <= 1e-12 * np.linalg.norm(u_mean)


@pytest.fixture(scope="module")
def ldm_sup_systems():
    """(graph, v, mu_bar, result) of the solves of two LDM-Sup steps at
    batch 4 on 64 x 64 images (m = 512 in four blocks of 128), the second
    with a non-zero dual; v and U flattened to (m, k) in block order."""
    geom = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
    data = ctsim.synthesize_dataset(4, geom, ctsim.SynthConfig(seed=1, test_pairs=0))
    cfg = training.TrainConfig(mode="LDM-Sup", batch_size=4, seed=0)
    systems = []

    def record(graph, v, mu_bar):
        res = solve_coordinates(graph, v, mu_bar)
        flat = SolveResult(u=res.u.reshape(-1, v.shape[2]), residual=res.residual)
        systems.append((graph, v.reshape(-1, v.shape[2]), mu_bar, flat))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "solve_coordinates", record)
        net = training.build_network(cfg)
        state = training.OptState()
        batch = next(training.epoch_batches(training.make_pools(data, cfg), cfg, 1))
        for _ in range(2):
            training.training_step(net, batch, state, cfg, cfg.mu_bar)
    assert len(systems) == 2
    assert all(graph.w.shape == (4, 128, 128) and v.shape == (512, 128)
               for graph, v, _, _ in systems)
    return systems


def test_km_solve_matches_mk_reference_on_ldm_sup_patch_sets(ldm_sup_systems):
    for graph, v, mu_bar, res in ldm_sup_systems:
        _assert_matches_dense_solve(graph, v, mu_bar, res)


@pytest.mark.parametrize("mu_bar", [manifold.MU_BAR_MIN, 1e-6])
def test_solve_at_small_mu_bar_on_ldm_sup_patch_sets(ldm_sup_systems, mu_bar):
    # At MU_BAR_MIN the residual relative to b, whose norm scales with
    # mu_bar, reads 3.5e-8 (3.5e-10 at 1e-6), while the backward error stays
    # ~1e-15; U is as close to the dense solve as the systems' conditioning,
    # ~1 / mu_bar, allows.
    for graph, v, _, _ in ldm_sup_systems:
        res = solve(graph, v, mu_bar)
        assert res.residual <= 1e-12
        u_ref = dense_solve(graph, v, mu_bar)
        assert np.linalg.norm(res.u - u_ref) <= 1e-6 * np.linalg.norm(u_ref)


@pytest.mark.parametrize("m,k,single", [(256, 128, True), (300, 5, False)])
def test_solve_gives_the_same_u_for_c_and_f_ordered_v(m, k, single):
    # The solve multiplies W by a C-ordered copy of a v stored otherwise
    # (np.matmul rounds an F-ordered stack of several blocks differently),
    # so the order v is stored in cannot reach the arithmetic: U is the same
    # bit for bit, for one block (the b1 training shape, m = 256, k = 128
    # patch entries) and for three.
    rng = np.random.default_rng(29)
    g = 1 if single else 3
    graph = gaussian_weights(random_points(rng, m, 8).reshape(g, m // g, 8))
    v = rng.standard_normal((m, k)).reshape(g, m // g, k)
    res_c = solve_coordinates(graph, v, 0.6)
    res_f = solve_coordinates(graph, np.asfortranarray(v), 0.6)
    assert res_c.u.tobytes() == res_f.u.tobytes()


def _assert_solve_peak_within_bound(order):
    # At n = k = 128 the blocks' system matrices are one m x k block's
    # worth. The right-hand sides b of all blocks, which U overwrites block
    # by block, are the only stack; each block's matrix, solution, residual
    # and np.linalg.solve's copies are an eighth of an m x k block each. An
    # F-ordered v adds its C copy, which lives through the product.
    m, k = 1024, 128
    rng = np.random.default_rng(18)
    graph = gaussian_weights(rng.standard_normal((m, k)).reshape(8, 128, k))
    v = np.asarray(rng.standard_normal((m, k)).reshape(8, 128, k), order=order)
    solve_coordinates(graph, v, 0.6)  # first-use allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve_coordinates(graph, v, 0.6)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # measured 1.51 blocks (2.00 for an F-ordered v); 5.02 when every
    # block's matrices, solution and residual were stacked for one solve
    assert peak <= 2.25 * m * k * 8


def test_solve_peak_memory_bound():
    _assert_solve_peak_within_bound("C")


def test_solve_peak_memory_bound_with_f_ordered_v():
    _assert_solve_peak_within_bound("F")


# -------------------------------------------------------- dirichlet energy

def test_energy_constant_columns_are_zero():
    rng = np.random.default_rng(10)
    graph = graph_of(random_points(rng, 12, 4))
    u = np.tile(rng.standard_normal(3), (12, 1))
    assert energy_of(u, graph) < 1e-10


def test_energy_two_point_hand_value():
    graph = graph_of(np.zeros((2, 2)))
    u = np.array([[0.0], [1.0]])
    assert abs(energy_of(u, graph) * 2 - 1.0) < 1e-12
    assert abs(energy_of(u, graph) - 0.5) < 1e-12


def test_energy_matches_pairwise_sum_oracle():
    rng = np.random.default_rng(11)
    pts = random_points(rng, 14, 5)
    graph = graph_of(pts)
    u = rng.standard_normal((14, 6))
    w = dense_w(graph)
    oracle = 0.0
    for i in range(14):
        for j in range(14):
            oracle += w[i, j] * np.sum((u[i] - u[j]) ** 2)
    oracle /= 2.0
    assert abs(energy_of(u, graph) * 14 - oracle) < 1e-8 * max(oracle, 1.0)


# ------------------------------------------------------------ dual variable

def test_normalize_dual_affine_map():
    d = normalize_dual(DualVariable(np.array([[-1.0, 0.0], [3.0, -1.0]])))
    assert np.allclose(d.values, [[0.0, 0.25], [1.0, 0.0]])


def test_normalize_dual_constant_goes_to_zero():
    d = normalize_dual(DualVariable(np.full((3, 4), 7.0)))
    assert np.array_equal(d.values, np.zeros((3, 4)))


def test_normalize_dual_random_extrema():
    rng = np.random.default_rng(12)
    d = normalize_dual(DualVariable(rng.standard_normal((9, 7))))
    assert d.values.min() == 0.0
    assert d.values.max() == 1.0
    assert np.all(d.values >= 0.0) and np.all(d.values <= 1.0)
