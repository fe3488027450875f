import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from patchmar import autodiff as ad
from patchmar import ctsim, manifold, training
from patchmar.autodiff import Tensor, ShapeError
from patchmar.manifold import (KernelConfig, DualVariable, GraphOperators,
                               SolverError, build_patch_set, dirichlet_energy,
                               gaussian_weights, normalize_dual,
                               solve_coordinates)


def random_points(rng, m, d):
    return rng.standard_normal((m, d))


def dense_laplacian(ops):
    return np.diag(ops.degrees) - ops.w


def energy_of(u, ops):
    """sum over the columns of an (m, k) block u of u^T L u, divided by m:
    the Dirichlet energy of any u, through the Laplacian applied to the
    (k, m) view u^T."""
    return float((u.T * ops.apply(u.T, 1.0)).sum()) / ops.m


# -------------------------------------------------------------- patch sets

def test_patch_set_counts_for_default_geometry():
    rng = np.random.default_rng(0)
    img = Tensor(rng.standard_normal((1, 1, 64, 64)).astype(np.float32))
    code = Tensor(rng.standard_normal((1, 64, 8, 8)).astype(np.float32))
    ps = build_patch_set([img, img], [code, code])
    assert ps.shape == (2 * 64, 128)


def test_patch_set_constant_fields():
    img = Tensor(np.full((1, 1, 16, 16), 0.5, dtype=np.float32))
    code = Tensor(np.full((1, 16, 4, 4), -1.25, dtype=np.float32))
    ps = build_patch_set([img], [code])
    expected = np.concatenate([np.full(16, 0.5), np.full(16, -1.25)]).astype(np.float32)
    for row in ps.data:
        assert np.array_equal(row, expected)


def test_patch_set_rows_match_direct_slicing():
    rng = np.random.default_rng(1)
    img = rng.standard_normal((1, 1, 32, 32)).astype(np.float32)
    code = rng.standard_normal((1, 16, 8, 8)).astype(np.float32)
    ps = build_patch_set([Tensor(img)], [Tensor(code)])
    s, gw = 4, 8
    for i in range(8):
        for j in range(gw):
            row = ps.data[i * gw + j]
            patch = img[0, 0, i * s:(i + 1) * s, j * s:(j + 1) * s].ravel()
            vec = code[0, :, i, j]
            assert np.array_equal(row[:16], patch)
            assert np.array_equal(row[16:], vec)


def test_patch_set_batched_images_keep_input_order():
    rng = np.random.default_rng(2)
    imgs = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
    codes = rng.standard_normal((3, 16, 2, 2)).astype(np.float32)
    ps = build_patch_set([Tensor(imgs)], [Tensor(codes)])
    assert ps.shape[0] == 3 * 4
    # second image's first location starts at row 4
    patch = imgs[1, 0, :4, :4].ravel()
    assert np.array_equal(ps.data[4, :16], patch)


def test_patch_set_geometry_mismatch_rejected():
    # s comes from the heights, so a code grid whose width is not the
    # image's gives patch and code rows of different counts
    img = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
    bad_code = Tensor(np.zeros((1, 16, 2, 4), dtype=np.float32))
    with pytest.raises(ShapeError, match="concat: extent mismatch on axis 0: 8 vs 4"):
        build_patch_set([img], [bad_code])


def test_patch_set_is_differentiable_through_both_parts():
    img = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32), requires_grad=True)
    code = Tensor(np.ones((1, 16, 2, 2), dtype=np.float32), requires_grad=True)
    ps = build_patch_set([img], [code])
    ad.backward(ad.frobenius_sq(ps))  # gradient 2 * ps = 2 everywhere
    assert np.allclose(img.grad, 2.0)
    assert np.allclose(code.grad, 2.0)


# ---------------------------------------------------------------- weights

def test_weights_identical_points():
    ops = gaussian_weights(np.zeros((2, 3)))
    assert np.array_equal(ops.w, np.ones((2, 2)))
    assert np.array_equal(dense_laplacian(ops), np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_weights_analytic_kernel_value():
    # two points have one distance, which is the median, so t = sq / 4 and
    # the pair keeps weight e^-1
    p = np.zeros((2, 4))
    p[1, 0] = np.sqrt(2.8)
    ops = gaussian_weights(p)
    assert abs(ops.w[0, 1] - np.exp(-1.0)) < 1e-12
    assert abs(ops.w[0, 1] - 0.3679) < 1e-4


def test_weights_random_points_laplacian_properties():
    rng = np.random.default_rng(3)
    pts = random_points(rng, 10, 6)
    ops = gaussian_weights(pts)
    lap = dense_laplacian(ops)
    row_sums = lap.sum(axis=1)
    assert np.all(np.abs(row_sums) < 1e-12 * np.maximum(ops.degrees, 1.0))
    assert np.array_equal(ops.w, ops.w.T)
    assert np.linalg.eigvalsh(lap).min() >= -1e-9
    assert np.allclose(np.diag(ops.w), 1.0)


def test_weights_single_point():
    ops = gaussian_weights(np.ones((1, 5)))
    assert ops.w.shape == (1, 1)
    assert ops.w[0, 0] == 1.0
    assert ops.degrees.tolist() == [1.0]
    assert dense_laplacian(ops)[0, 0] == 0.0


def _difference_form_weights(pts):
    """Reference W from pdist's difference-form distances."""
    sq = pdist(pts, "sqeuclidean")
    med = float(np.median(sq)) if sq.size else 0.0
    t = med / 4.0 if med > 0.0 else 1.0
    ref = np.exp(-squareform(sq) / (4.0 * t))
    np.fill_diagonal(ref, 1.0)
    return ref


def _points_with_duplicates(m, kind):
    rng = np.random.default_rng(13 + m)
    pts = 2.0 + 3.0 * rng.standard_normal((m, 16))
    if kind == "copies":  # every third row repeats the row before it
        pts[2::3] = pts[1::3][:len(pts[2::3])]
    elif kind == "one point":  # every pair is a duplicate: t = 1, W = 1
        pts[:] = pts[0]
    else:  # one outlier, then a duplicate majority: a zero median from m = 5
        pts[2:] = pts[1:2]
    return pts


@pytest.mark.parametrize("kind", ["copies", "one point", "one outlier"])
@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 200])
def test_weights_match_difference_form(m, kind):
    # The GEMM-form distances round differently from pdist's difference form
    # (by ~1e-15 on W), so the difference form is the reference up to a
    # tolerance; symmetry and the unit diagonal stay exact. The sizes
    # straddle the 64-row block height.
    pts = _points_with_duplicates(m, kind)
    ops = gaussian_weights(pts)
    ref = _difference_form_weights(pts)
    assert np.array_equal(ops.w, ops.w.T)
    assert np.all(np.diag(ops.w) == 1.0)
    assert np.abs(ops.w - ref).max() <= 1e-13
    ref_degrees = ref.sum(axis=1)
    assert np.all(np.abs(ops.degrees - ref_degrees) <= 1e-13 * ref_degrees)


_MEDIAN_CASES = ([(m, "normal") for m in (2, 3, 4, 5, 45, 46)]
                 + [(1, "normal"), (5, "one outlier"), (46, "one outlier")])


@pytest.mark.parametrize("m,kind", _MEDIAN_CASES)
def test_bandwidth_is_numpy_median_of_pair_distances_over_four(m, kind):
    # 1, 3, 6, 10, 990 and 1035 pairs: odd and even counts, all inside one
    # 64-row block, so _block_sq_dists rounds them as gaussian_weights does.
    # One point has no pair, and one outlier beside m - 1 copies leaves a
    # zero median: t falls back to 1 for both. The bandwidth is internal, so
    # it is checked through W, exponentiated as gaussian_weights does.
    pts = (np.random.default_rng(29 + m).standard_normal((m, 8)) if kind == "normal"
           else _points_with_duplicates(m, kind))
    ops = gaussian_weights(pts)
    norms = np.einsum("ij,ij->i", pts, pts)
    sq = np.empty((m, m))
    manifold._block_sq_dists(pts, norms, 0, m, sq, np.empty((m, m)))
    upper = np.triu_indices(m, 1)
    pairs = sq[upper]
    if m == 1:
        assert pairs.size == 0 and ops.w.tolist() == [[1.0]]
        return
    t = float(np.median(pairs)) / 4.0
    assert (t == 0.0) == (kind == "one outlier")
    ref = pairs.copy()
    ref /= -4.0 * (t if t > 0.0 else 1.0)
    np.exp(ref, out=ref)
    assert np.array_equal(ops.w[upper], ref)


@pytest.mark.parametrize("kind", ["normal", "one point", "one outlier"])
def test_weights_peak_memory_is_w(kind):
    # W's own buffer is the only m x m allocation, on degenerate sets too;
    # holding pdist's condensed distances next to it would put the peak at
    # 1.5 x W.
    m = 1024
    pts = (np.random.default_rng(16).standard_normal((m, 128)) if kind == "normal"
           else _points_with_duplicates(m, kind))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ops = gaussian_weights(pts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ops.w.shape == (m, m) and ops.w.dtype == np.float64
    assert peak <= 1.1 * m * m * 8


# ------------------------------------- one sweep against the two-sweep build

def _two_sweep_auto_bandwidth(sq_dists):
    """The bandwidth rule: median / 4 by one in-place partition."""
    n = sq_dists.size
    if n == 0:
        return 1.0
    h = n // 2
    sq_dists.partition(h)
    med = float(sq_dists[h])
    if n % 2 == 0:
        med = (float(sq_dists[:h].max()) + med) / 2.0
    if med <= 0.0:
        return 1.0
    return med / 4.0


def _two_sweep_weights(points):
    """The replaced gaussian_weights, kept as the reference: one sweep packs
    the strict upper distances into W's buffer for the median, a second
    recomputes them and exponentiates. Returns (W, degrees)."""
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    norms = np.einsum("ij,ij->i", pts, pts)
    w = np.empty((m, m))
    scratch = np.empty(min(64, m) * m)

    def blocks():
        for i0 in range(0, m, 64):
            i1 = min(i0 + 64, m)
            out = w[i0:i1, i0:]
            manifold._block_sq_dists(pts, norms, i0, i1, out,
                                     scratch[:out.size].reshape(out.shape))
            yield i0, i1 - i0, out

    packed = w.reshape(-1)
    n = 0
    for _, b, out in blocks():
        for r in range(b):
            row = out[r, r + 1:]
            packed[n:n + row.size] = row
            n += row.size
    t = _two_sweep_auto_bandwidth(packed[:n])

    for i0, b, out in blocks():
        out /= -4.0 * t
        np.exp(out, out=out)
        w[i0 + b:, i0:i0 + b] = out[:, b:].T
        tile = out[:, :b]
        lower = np.tril_indices(b, -1)
        tile[lower] = tile.T[lower]
    np.fill_diagonal(w, 1.0)
    return w, w.sum(axis=1)


def _assert_matches_two_sweep(pts):
    ops = gaussian_weights(pts)
    w, degrees = _two_sweep_weights(pts)
    assert np.array_equal(ops.w, w)
    assert np.array_equal(ops.degrees, degrees)
    # the energy sums the same distances in another order than u^T L u,
    # whose rounding scales with the terms that cancel, sum_i d_i |p_i|^2
    ref = energy_of(pts, ops)
    scale = float(ops.degrees @ np.einsum("ij,ij->i", pts, pts)) / ops.m
    assert abs(dirichlet_energy(ops) - ref) <= 1e-12 * max(ref, scale)
    assert dirichlet_energy(ops) >= 0.0


@pytest.mark.parametrize("kind", ["copies", "one point", "one outlier"])
@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 200, 257])
def test_weights_match_two_sweep_build(m, kind):
    _assert_matches_two_sweep(_points_with_duplicates(m, kind))


def test_weights_match_two_sweep_build_on_normal_points():
    _assert_matches_two_sweep(np.random.default_rng(16).standard_normal((1024, 128)))


def test_energy_is_the_pairwise_sum_over_points():
    # sum_{i<j} w_ij ||p_i - p_j||^2 / m, distances in difference form
    pts = random_points(np.random.default_rng(25), 40, 6)
    ops = gaussian_weights(pts)
    sq = squareform(pdist(pts, "sqeuclidean"))
    oracle = float(np.triu(ops.w * sq, 1).sum()) / 40
    assert abs(dirichlet_energy(ops) - oracle) <= 1e-12 * oracle
    # two points sq = 2.8 apart: t = 0.7, w = e^-1, energy 2.8 e^-1 / 2
    p = np.zeros((2, 4))
    p[1, 0] = np.sqrt(2.8)
    two = dirichlet_energy(gaussian_weights(p))
    assert abs(two - 1.4 * np.exp(-1.0)) <= 1e-14
    assert dirichlet_energy(gaussian_weights(np.full((5, 3), 2.5))) == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e160])
def test_weights_reject_non_finite_points_naming_the_rows(value):
    # 1e160 is finite, but its squared norm overflows every distance from it
    pts = random_points(np.random.default_rng(26), 70, 5)
    pts[3, 2] = value
    pts[41, 0] = value
    with pytest.raises(ValueError, match=r"rows \[3, 41\]"):
        gaussian_weights(pts)


# ------------------------------------------------------------------ solver

def test_solve_single_point_returns_v():
    ops = gaussian_weights(np.ones((1, 3)))
    v = np.array([[1.0, -2.0, 3.0]])
    res = solve_coordinates(ops, v, KernelConfig())
    assert np.allclose(res.u, v, atol=1e-12)


def test_solve_identical_points_constant_v():
    ops = gaussian_weights(np.zeros((4, 2)))
    v = np.full((4, 3), 2.5)
    res = solve_coordinates(ops, v, KernelConfig(mu_bar=0.6))
    assert np.allclose(res.u, v, atol=1e-8)


def test_solve_matches_dense_direct_oracle():
    rng = np.random.default_rng(4)
    cfg = KernelConfig(mu_bar=0.6)
    for _ in range(10):
        m = int(rng.integers(5, 21))
        pts = random_points(rng, m, 8)
        v = rng.standard_normal((m, 5))
        ops = gaussian_weights(pts)
        res = solve_coordinates(ops, v, cfg)
        a = dense_laplacian(ops) + cfg.mu_bar * ops.w
        u_direct = np.linalg.solve(a, cfg.mu_bar * ops.w @ v)
        denom = max(np.linalg.norm(u_direct), 1e-12)
        assert np.linalg.norm(res.u - u_direct) / denom < 1e-6
        b = cfg.mu_bar * ops.w @ v
        col_res = np.linalg.norm(b - a @ res.u, axis=0)
        col_b = np.linalg.norm(b, axis=0)
        assert np.all(col_res <= 1e-8 * np.maximum(col_b, 1e-300))


def _forced_pcg(monkeypatch, **fixed):
    """Run every CG pass of the solve with the given tol or max_iter."""
    inner = manifold._pcg_multi

    def pcg(ops, c, b, precondition, tol, max_iter):
        args = dict(tol=tol, max_iter=max_iter) | fixed
        return inner(ops, c, b, precondition, **args)

    monkeypatch.setattr(manifold, "_pcg_multi", pcg)


@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 6.0])
def test_applied_operator_matches_dense_reference(mu_bar, monkeypatch):
    # The system matrix D - (1 - mu_bar) W is applied, never stored; at
    # mu_bar = 6 the weight factor 1 - mu_bar is negative. CG runs to
    # 5e-15, far past the contract, so U is compared with the direct solve.
    rng = np.random.default_rng(14)
    cfg = KernelConfig(mu_bar=mu_bar)
    pts = random_points(rng, 30, 6)
    v = rng.standard_normal((30, 4))
    ops = gaussian_weights(pts)
    lap = dense_laplacian(ops)
    a = lap + mu_bar * ops.w
    b = mu_bar * ops.w @ v
    _forced_pcg(monkeypatch, tol=5e-15)
    res = solve_coordinates(ops, v, cfg)
    applied = ops.apply(np.ascontiguousarray(v.T), 1.0 - mu_bar)
    assert np.linalg.norm(applied - (a @ v).T) <= 1e-12 * np.linalg.norm(a @ v)
    u_direct = np.linalg.solve(a, b)
    assert np.linalg.norm(res.u - u_direct) / np.linalg.norm(u_direct) < 1e-10
    for u in (v, res.u):
        e_dense = float(np.sum(u * (lap @ u)))
        assert abs(energy_of(u, ops) * ops.m - e_dense) < 1e-10 * e_dense


def test_solve_nonconvergence_raises_with_residual(monkeypatch):
    rng = np.random.default_rng(5)
    pts = random_points(rng, 30, 4)
    ops = gaussian_weights(pts)
    v = rng.standard_normal((30, 2))
    _forced_pcg(monkeypatch, max_iter=1)
    with pytest.raises(SolverError) as err:
        solve_coordinates(ops, v, KernelConfig(mu_bar=1e-6))
    assert err.value.worst_residual > 1e-8
    assert err.value.iterations == 3  # one per pass


def _restart_setup():
    rng = np.random.default_rng(15)
    cfg = KernelConfig()
    ops = gaussian_weights(random_points(rng, 20, 5))
    v = rng.standard_normal((20, 3))
    a = dense_laplacian(ops) + cfg.mu_bar * ops.w
    return ops, v, cfg, a, cfg.mu_bar * ops.w @ v


def _worst_residual(a, b, u):
    return float((np.linalg.norm(b - a @ u, axis=0) / np.linalg.norm(b, axis=0)).max())


def _drifting_pcg(monkeypatch, every_call):
    """Offset the first CG correction by a relative 1e-6 (and, with
    every_call, each later one by that same vector); returns the
    ((m, k) view of the correction, iterations) of every call."""
    inner = manifold._pcg_multi
    calls, error = [], []

    def pcg(*args):
        dx, used = inner(*args)
        if not calls:
            error.append(1e-6 * dx)
        if every_call or not calls:
            dx = dx + error[0]
        calls.append((dx.T, used))
        return dx, used

    monkeypatch.setattr(manifold, "_pcg_multi", pcg)
    return calls


def test_solve_restarts_when_the_true_residual_misses_tol(monkeypatch):
    ops, v, cfg, a, b = _restart_setup()
    calls = _drifting_pcg(monkeypatch, every_call=False)
    res = solve_coordinates(ops, v, cfg)
    assert len(calls) == 2
    assert _worst_residual(a, b, calls[0][0]) > 1e-8
    assert res.residual <= 1e-8
    assert _worst_residual(a, b, res.u) <= 1e-8
    assert calls[1][1] > 0
    assert res.iterations == calls[0][1] + calls[1][1]


def test_solve_raises_when_every_restart_drifts(monkeypatch):
    ops, v, cfg, a, b = _restart_setup()
    calls = _drifting_pcg(monkeypatch, every_call=True)
    with pytest.raises(SolverError) as err:
        solve_coordinates(ops, v, cfg)
    assert len(calls) == 3
    worst = _worst_residual(a, b, sum(dx for dx, _ in calls))
    assert worst > 1e-8
    assert err.value.worst_residual == pytest.approx(worst, rel=1e-6)
    assert err.value.iterations == sum(used for _, used in calls)


def test_solve_large_mu_bar_pins_u_to_v():
    rng = np.random.default_rng(6)
    pts = random_points(rng, 25, 6)
    v = rng.standard_normal((25, 4))
    ops = gaussian_weights(pts)
    res = solve_coordinates(ops, v, KernelConfig(mu_bar=1e6))
    assert np.linalg.norm(res.u - v) / np.linalg.norm(v) <= 1e-3


def test_solve_small_mu_bar_flattens_columns():
    rng = np.random.default_rng(7)
    pts = random_points(rng, 25, 6)
    v = rng.standard_normal((25, 4))
    ops = gaussian_weights(pts)
    res = solve_coordinates(ops, v, KernelConfig(mu_bar=1e-6))
    v_range = v.max(axis=0) - v.min(axis=0)
    u_range = res.u.max(axis=0) - res.u.min(axis=0)
    assert np.all(u_range <= 1e-3 * v_range)


def test_solve_reduces_dirichlet_energy():
    rng = np.random.default_rng(8)
    for mu_bar in (0.06, 0.6, 6.0):
        pts = random_points(rng, 20, 5)
        v = rng.standard_normal((20, 3))
        ops = gaussian_weights(pts)
        res = solve_coordinates(ops, v, KernelConfig(mu_bar=mu_bar))
        assert energy_of(res.u, ops) <= energy_of(v, ops) + 1e-12


def test_solve_permutation_equivariance():
    rng = np.random.default_rng(9)
    cfg = KernelConfig()
    pts = random_points(rng, 15, 4)
    v = rng.standard_normal((15, 3))
    perm = rng.permutation(15)
    u1 = solve_coordinates(gaussian_weights(pts), v, cfg).u
    u2 = solve_coordinates(gaussian_weights(pts[perm]), v[perm], cfg).u
    assert np.allclose(u2, u1[perm], atol=1e-7)


def test_solve_shape_mismatch_rejected():
    ops = gaussian_weights(np.zeros((3, 2)))
    for v in (np.zeros((4, 2)), np.zeros((3, 0))):
        with pytest.raises(ShapeError):
            solve_coordinates(ops, v, KernelConfig())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_non_finite_right_hand_side(value):
    # a NaN column norm once passed as a zero right-hand side, converged
    rng = np.random.default_rng(27)
    ops = gaussian_weights(random_points(rng, 70, 5))
    v = rng.standard_normal((70, 3))
    v[11, 1] = value
    with pytest.raises(SolverError) as err:
        solve_coordinates(ops, v, KernelConfig())
    assert math.isnan(err.value.worst_residual) and err.value.iterations == 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_solve_rejects_a_graph_with_a_nan_row(value):
    # the graph a NaN patch entry made before gaussian_weights rejected it:
    # the solve returned U = 0 with residual 0. An infinite row must raise
    # before W @ v, whose invalid-value warning would come first.
    rng = np.random.default_rng(28)
    ops = gaussian_weights(random_points(rng, 70, 5))
    w = ops.w.copy()
    w[11, :] = w[:, 11] = value
    bad = GraphOperators(w=w, degrees=w.sum(axis=1), energy=ops.energy)
    with pytest.raises(SolverError) as err:
        solve_coordinates(bad, rng.standard_normal((70, 3)), KernelConfig())
    assert math.isnan(err.value.worst_residual) and err.value.iterations == 0


def test_solve_raises_on_a_non_finite_residual(monkeypatch):
    ops, v, cfg, _, _ = _restart_setup()
    inner = manifold._pcg_multi

    def pcg(*args):
        dx, used = inner(*args)
        dx[0, 0] = np.nan  # the (k, m) correction's first entry, u[0, 0]
        return dx, used

    monkeypatch.setattr(manifold, "_pcg_multi", pcg)
    with pytest.raises(SolverError) as err:
        solve_coordinates(ops, v, cfg)
    assert math.isnan(err.value.worst_residual)


# ------------------------------------- references: (m, k) and Jacobi CG
# The solve as it ran on (m, k) blocks before it moved to the (k, m) layout,
# kept as the reference for that layout change, and the Jacobi-preconditioned
# CG that the Nystrom preconditioner replaced. Both share the (m, k) CG.

def _reference_pcg(apply_a, b, precondition, tol, max_iter):
    """Preconditioned CG for A X = B on (m, k) blocks, all columns at once."""
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b, axis=0)
    active = bnorm > 0.0
    if not active.any():
        return x, 0
    z = np.empty_like(b)
    ap = np.empty_like(b)
    precondition(r, z, ap)
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)
    it = 0
    while it < max_iter:
        it += 1
        apply_a(p, ap, z)
        pap = np.einsum("ij,ij->j", p, ap)
        safe = np.where(active & (pap > 0.0), pap, 1.0)
        alpha = np.where(active & (pap > 0.0), rz / safe, 0.0)
        x += np.multiply(p, alpha, out=z)
        ap *= alpha
        r -= ap
        rnorm = np.sqrt(np.add.reduce(np.multiply(r, r, out=ap), axis=0))
        active = rnorm > tol * bnorm
        if not active.any():
            break
        precondition(r, z, ap)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(rz > 0.0, rz_new / np.where(rz > 0.0, rz, 1.0), 0.0)
        p *= beta
        p += z
        rz = rz_new
    return x, it


def _reference_apply(ops, c):
    """apply_a(X, out, scratch) writing (D - c W) @ X for an (m, k) block."""
    def apply_a(x, out=None, scratch=None):
        wx = np.matmul(ops.w, x, out=out)
        wx *= c
        dx = np.multiply(ops.degrees[:, None], x, out=scratch)
        return np.subtract(dx, wx, out=wx)

    return apply_a


def _reference_nystrom(ops, c):
    """The Woodbury-applied Nystrom preconditioner on (m, k) blocks."""
    m = ops.m
    r = math.isqrt(m - 1) + 1
    idx = np.sort(np.random.default_rng(0).permutation(m)[:r])
    w_s = ops.w[idx]
    w_ss = w_s[:, idx]
    w_ss[np.diag_indices(r)] += r * r * np.finfo(np.float64).eps
    ft = np.linalg.inv(np.linalg.cholesky(w_ss)) @ w_s
    dft = ft / ops.degrees
    ht = np.linalg.inv(np.linalg.cholesky(np.eye(r) - c * (dft @ ft.T))) @ dft
    d_inv = 1.0 / ops.degrees[:, None]

    def precondition(res, out, scratch):
        t = ht @ res
        t *= c
        np.matmul(ht.T, t, out=scratch)
        np.multiply(d_inv, res, out=out)
        out += scratch
        return out

    return precondition


def _reference_solve(ops, v, cfg, tol=1e-8):
    """(U, iterations) of the (m, k) Nystrom solve, restarts included."""
    c = 1.0 - cfg.mu_bar
    apply_a = _reference_apply(ops, c)
    b = cfg.mu_bar * (ops.w @ v)
    bnorm = np.linalg.norm(b, axis=0)
    precondition = _reference_nystrom(ops, c)
    x, r, budget, total_it = None, b, 10 * ops.m, 0
    for _ in range(3):
        dx, used = _reference_pcg(apply_a, r, precondition, tol * 0.5, budget)
        x = dx if x is None else x + dx
        total_it += used
        budget -= used
        r = b - apply_a(x)
        res = np.linalg.norm(r, axis=0)
        rel = np.where(bnorm > 0.0, res / np.where(bnorm > 0.0, bnorm, 1.0), 0.0)
        if rel.max() <= tol or budget <= 0:
            break
    assert rel.max() <= tol
    return x, total_it


def _jacobi_solve(ops, v, cfg, tol=1e-8):
    """(U, iterations) of the replaced solve: one Jacobi CG pass at tol / 2,
    as solve_coordinates ran it before any restart."""
    c = 1.0 - cfg.mu_bar
    diag_inv = 1.0 / (ops.degrees - c)

    def jacobi(r, out, scratch):
        return np.multiply(diag_inv[:, None], r, out=out)

    b = cfg.mu_bar * (ops.w @ v)
    return _reference_pcg(_reference_apply(ops, c), b, jacobi, tol * 0.5, 10 * ops.m)


def _dup_points(m, kind):
    rng = np.random.default_rng(19 + m)
    pts = 2.0 + 3.0 * rng.standard_normal((m, 16))
    if kind == "all equal":
        pts[:] = pts[0]
    elif kind == "two clusters":  # rows alternate between two points
        pts[:] = pts[np.arange(m) % min(2, m)]
    elif kind == "every third":  # every third row repeats the row before it
        pts[2::3] = pts[1::3][:len(pts[2::3])]
    return pts


def _nystrom_low_rank(ops):
    """F F^T by the documented landmark rule, through a dense solve."""
    m = ops.m
    r = int(np.ceil(np.sqrt(m)))
    s = np.sort(np.random.default_rng(0).permutation(m)[:r])
    w_ss = ops.w[np.ix_(s, s)] + r * r * np.finfo(np.float64).eps * np.eye(r)
    return ops.w[:, s] @ np.linalg.solve(w_ss, ops.w[s])


# m = 63, 64, 65 straddle a square, where the landmark count ceil(sqrt(m))
# steps from 8 to 9; the duplicate-heavy sets also run at m = 257, past
# 16^2, with 17 landmarks.
_EQUIV_CASES = ([(m, "random") for m in (1, 63, 64, 65)]
                + [(m, kind) for m in (63, 64, 65, 257)
                   for kind in ("all equal", "two clusters", "every third")])


@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 1.0, 6.0])
@pytest.mark.parametrize("m,kind", _EQUIV_CASES)
def test_nystrom_solve_matches_jacobi_reference(m, kind, mu_bar):
    cfg = KernelConfig(mu_bar=mu_bar)
    ops = gaussian_weights(_dup_points(m, kind))
    v = np.random.default_rng(20).standard_normal((m, 4))
    res = solve_coordinates(ops, v, cfg)
    a = dense_laplacian(ops) + mu_bar * ops.w
    b = mu_bar * ops.w @ v
    assert res.residual <= 1e-8
    assert _worst_residual(a, b, res.u) <= 1e-8
    u_ref, _ = _jacobi_solve(ops, v, cfg)
    assert _worst_residual(a, b, u_ref) <= 1e-8
    assert np.linalg.norm(res.u - u_ref) <= 1e-7 * np.linalg.norm(u_ref)
    if mu_bar == 1.0:  # c = 0: the preconditioner is D, the system matrix
        assert res.iterations == 1


def _assert_matches_mk_reference(ops, v, cfg, res):
    # the (k, m) layout changes only rounding: its row reductions sum in
    # another order than the (m, k) column ones
    u_ref, ref_iterations = _reference_solve(ops, v, cfg)
    assert res.iterations == ref_iterations
    assert np.linalg.norm(res.u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)


@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 1.0, 6.0])
@pytest.mark.parametrize("m,kind", _EQUIV_CASES)
def test_km_solve_matches_mk_reference(m, kind, mu_bar):
    cfg = KernelConfig(mu_bar=mu_bar)
    ops = gaussian_weights(_dup_points(m, kind))
    v = np.random.default_rng(20).standard_normal((m, 4))
    _assert_matches_mk_reference(ops, v, cfg, solve_coordinates(ops, v, cfg))


@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 1.0, 6.0])
@pytest.mark.parametrize("m,kind", [(1, "random"), (65, "random"), (65, "two clusters"),
                                    (257, "every third"), (257, "all equal")])
def test_woodbury_apply_matches_dense_preconditioner(m, kind, mu_bar):
    c = 1.0 - mu_bar
    ops = gaussian_weights(_dup_points(m, kind))
    r = np.random.default_rng(21).standard_normal((m, 3))
    expect = np.linalg.solve(np.diag(ops.degrees) - c * _nystrom_low_rank(ops), r)
    r_t = np.ascontiguousarray(r.T)  # the (k, m) block the solve passes
    out, scratch = np.empty_like(r_t), np.empty_like(r_t)
    got = manifold._nystrom_preconditioner(ops, c)(r_t, out, scratch)
    assert got is out
    assert np.linalg.norm(got.T - expect) <= 1e-12 * np.linalg.norm(expect)


def test_solve_is_deterministic():
    rng = np.random.default_rng(22)
    ops = gaussian_weights(random_points(rng, 300, 8))
    v = rng.standard_normal((300, 5))
    first = solve_coordinates(ops, v, KernelConfig())
    second = solve_coordinates(ops, v, KernelConfig())
    assert np.array_equal(first.u, second.u)
    assert first.iterations == second.iterations


@pytest.fixture(scope="module")
def ldm_sup_systems():
    """(ops, v, cfg, result) of the solves of two LDM-Sup steps at batch 4
    on 64 x 64 images (m = 512), the second with a non-zero dual."""
    geom = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
    data = ctsim.synthesize_dataset(4, geom, ctsim.SynthConfig(seed=1, test_pairs=0))
    cfg = training.TrainConfig(mode="LDM-Sup", batch_size=4, seed=0)
    systems = []

    def solve(ops, v, kcfg):
        res = solve_coordinates(ops, v, kcfg)
        systems.append((ops, v, kcfg, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "solve_coordinates", solve)
        net = training.build_network(cfg)
        sched = training.BatchScheduler(*training.make_pools(data), cfg)
        state = training.OptState()
        batch = next(sched.epoch_batches(1))
        for _ in range(2):
            training.training_step(net, batch, state, cfg, cfg.kernel_config())
    assert len(systems) == 2
    assert all(ops.m == 512 for ops, _, _, _ in systems)
    return systems


def test_km_solve_matches_mk_reference_on_ldm_sup_patch_sets(ldm_sup_systems):
    for ops, v, kcfg, res in ldm_sup_systems:
        _assert_matches_mk_reference(ops, v, kcfg, res)


def test_nystrom_takes_no_more_iterations_than_jacobi_on_ldm_sup_patch_sets(ldm_sup_systems):
    for ops, v, kcfg, res in ldm_sup_systems:
        u_ref, ref_iterations = _jacobi_solve(ops, v, kcfg)
        assert res.iterations <= ref_iterations
        assert np.linalg.norm(res.u - u_ref) <= 1e-7 * np.linalg.norm(u_ref)


@pytest.mark.parametrize("m,k,exact", [(256, 128, True), (300, 5, False)])
def test_solve_gives_the_same_u_for_c_and_f_ordered_v(m, k, exact):
    # v^T is a view: F-ordered for a C-ordered v, which BLAS reads with a
    # transpose flag. At the b1 training shape (m = 256, k = 128 patch
    # entries) U is the same bit for bit. Below about 1e6 multiply-adds
    # OpenBLAS 0.3.31 switches to small-matrix GEMM kernels that sum the
    # transposed operand in another order, so at m = 300, k = 5 only
    # rounding may differ.
    rng = np.random.default_rng(29)
    ops = gaussian_weights(random_points(rng, m, 8))
    v = rng.standard_normal((m, k))
    res_c = solve_coordinates(ops, v, KernelConfig())
    res_f = solve_coordinates(ops, np.asfortranarray(v), KernelConfig())
    assert res_c.iterations == res_f.iterations
    assert res_c.u.flags.f_contiguous and res_f.u.flags.f_contiguous
    if exact:
        assert res_c.u.tobytes() == res_f.u.tobytes()
    assert np.linalg.norm(res_c.u - res_f.u) <= 1e-12 * np.linalg.norm(res_f.u)


def _assert_solve_peak_within_bound(order):
    # b, the solution and the CG's four working blocks are six (k, m)
    # blocks, next to the Nystrom factor's r x m; a zero block for the first
    # correction to be added into, or a copy of v or of the factor's
    # transpose, would make seven
    m, k = 1024, 128
    rng = np.random.default_rng(18)
    ops = gaussian_weights(rng.standard_normal((m, k)))
    v = np.asarray(rng.standard_normal((m, k)), order=order)
    solve_coordinates(ops, v, KernelConfig())  # first-use allocations
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        solve_coordinates(ops, v, KernelConfig())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 6.75 * m * k * 8


def test_solve_peak_memory_bound():
    _assert_solve_peak_within_bound("C")


def test_solve_peak_memory_bound_with_f_ordered_v():
    _assert_solve_peak_within_bound("F")


# -------------------------------------------------------- dirichlet energy

def test_energy_constant_columns_are_zero():
    rng = np.random.default_rng(10)
    ops = gaussian_weights(random_points(rng, 12, 4))
    u = np.tile(rng.standard_normal(3), (12, 1))
    assert energy_of(u, ops) < 1e-10


def test_energy_two_point_hand_value():
    ops = gaussian_weights(np.zeros((2, 2)))
    u = np.array([[0.0], [1.0]])
    assert abs(energy_of(u, ops) * ops.m - 1.0) < 1e-12
    assert abs(energy_of(u, ops) - 0.5) < 1e-12


def test_energy_matches_pairwise_sum_oracle():
    rng = np.random.default_rng(11)
    pts = random_points(rng, 14, 5)
    ops = gaussian_weights(pts)
    u = rng.standard_normal((14, 6))
    oracle = 0.0
    for i in range(14):
        for j in range(14):
            oracle += ops.w[i, j] * np.sum((u[i] - u[j]) ** 2)
    oracle /= 2.0
    assert abs(energy_of(u, ops) * ops.m - oracle) < 1e-8 * max(oracle, 1.0)


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
