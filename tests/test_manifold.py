import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from patchmar import autodiff as ad
from patchmar import manifold
from patchmar.autodiff import Tensor, ShapeError
from patchmar.manifold import (KernelConfig, DualVariable, SolverError,
                               build_patch_set, dirichlet_energy,
                               gaussian_weights, normalize_dual,
                               solve_coordinates)
from patchmar.networks import GeometryConfig


def random_points(rng, m, d):
    return rng.standard_normal((m, d))


def dense_laplacian(ops):
    return np.diag(ops.degrees) - ops.w


# -------------------------------------------------------------- patch sets

def test_patch_set_counts_for_default_geometry():
    geom = GeometryConfig(64, 64, 8)
    rng = np.random.default_rng(0)
    img = Tensor(rng.standard_normal((1, 1, 64, 64)).astype(np.float32))
    code = Tensor(rng.standard_normal((1, 64, 8, 8)).astype(np.float32))
    ps = build_patch_set([img, img], [code, code], geom)
    assert ps.shape == (2 * 64, 128)


def test_patch_set_constant_fields():
    geom = GeometryConfig(16, 16, 4)
    img = Tensor(np.full((1, 1, 16, 16), 0.5, dtype=np.float32))
    code = Tensor(np.full((1, 16, 4, 4), -1.25, dtype=np.float32))
    ps = build_patch_set([img], [code], geom)
    expected = np.concatenate([np.full(16, 0.5), np.full(16, -1.25)]).astype(np.float32)
    for row in ps.data:
        assert np.array_equal(row, expected)


def test_patch_set_rows_match_direct_slicing():
    geom = GeometryConfig(32, 16, 4)
    rng = np.random.default_rng(1)
    img = rng.standard_normal((1, 1, 32, 16)).astype(np.float32)
    code = rng.standard_normal((1, 16, 8, 4)).astype(np.float32)
    ps = build_patch_set([Tensor(img)], [Tensor(code)], geom)
    s, gw = 4, 4
    for i in range(8):
        for j in range(gw):
            row = ps.data[i * gw + j]
            patch = img[0, 0, i * s:(i + 1) * s, j * s:(j + 1) * s].ravel()
            vec = code[0, :, i, j]
            assert np.array_equal(row[:16], patch)
            assert np.array_equal(row[16:], vec)


def test_patch_set_batched_images_keep_input_order():
    geom = GeometryConfig(8, 8, 4)
    rng = np.random.default_rng(2)
    imgs = rng.standard_normal((3, 1, 8, 8)).astype(np.float32)
    codes = rng.standard_normal((3, 16, 2, 2)).astype(np.float32)
    ps = build_patch_set([Tensor(imgs)], [Tensor(codes)], geom)
    assert ps.shape[0] == 3 * 4
    # second image's first location starts at row 4
    patch = imgs[1, 0, :4, :4].ravel()
    assert np.array_equal(ps.data[4, :16], patch)


def test_patch_set_geometry_mismatch_rejected():
    geom = GeometryConfig(16, 16, 4)
    img = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
    bad_code = Tensor(np.zeros((1, 16, 2, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        build_patch_set([img], [bad_code], geom)
    with pytest.raises(ShapeError):
        build_patch_set([Tensor(np.zeros((1, 1, 8, 16), dtype=np.float32))],
                        [Tensor(np.zeros((1, 16, 2, 4), dtype=np.float32))], geom)


def test_patch_set_is_differentiable_through_both_parts():
    geom = GeometryConfig(8, 8, 4)
    img = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32), requires_grad=True)
    code = Tensor(np.ones((1, 16, 2, 2), dtype=np.float32), requires_grad=True)
    ps = build_patch_set([img], [code], geom)
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
    assert abs(ops.t - 0.7) < 1e-12
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


def test_kernel_config_rejects_bad_mu_bar():
    for mu_bar in (0.0, -1.0):
        with pytest.raises(ValueError):
            KernelConfig(mu_bar=mu_bar)


def test_weights_single_point():
    ops = gaussian_weights(np.ones((1, 5)))
    assert ops.w.shape == (1, 1)
    assert ops.w[0, 0] == 1.0
    assert ops.degrees.tolist() == [1.0] and ops.t == 1.0
    assert dense_laplacian(ops)[0, 0] == 0.0


def test_weights_equal_out_of_place_kernel():
    # W is built in place in the squareform buffer; it must equal the plain
    # out-of-place evaluation bit for bit.
    rng = np.random.default_rng(13)
    pts = random_points(rng, 40, 7)
    ops = gaussian_weights(pts)
    sq = pdist(pts, "sqeuclidean")
    ref = np.exp(-squareform(sq) / (4.0 * ops.t))
    np.fill_diagonal(ref, 1.0)
    assert np.array_equal(ops.w, ref)
    assert np.array_equal(ops.degrees, ref.sum(axis=1))


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


@pytest.mark.parametrize("mu_bar", [0.06, 0.6, 6.0])
def test_applied_operator_matches_dense_reference(mu_bar):
    # The system matrix D - (1 - mu_bar) W is applied, never stored; at
    # mu_bar = 6 the weight factor 1 - mu_bar is negative.
    rng = np.random.default_rng(14)
    cfg = KernelConfig(mu_bar=mu_bar)
    pts = random_points(rng, 30, 6)
    v = rng.standard_normal((30, 4))
    ops = gaussian_weights(pts)
    lap = dense_laplacian(ops)
    a = lap + mu_bar * ops.w
    b = mu_bar * ops.w @ v
    res = solve_coordinates(ops, v, cfg, tol=1e-14)
    u_direct = np.linalg.solve(a, b)
    assert np.linalg.norm(res.u - u_direct) / np.linalg.norm(u_direct) < 1e-10
    for u in (v, res.u):
        e_dense = float(np.sum(u * (lap @ u)))
        assert abs(dirichlet_energy(u, ops) * ops.m - e_dense) < 1e-10 * e_dense


def test_solve_nonconvergence_raises_with_residual():
    rng = np.random.default_rng(5)
    pts = random_points(rng, 30, 4)
    ops = gaussian_weights(pts)
    v = rng.standard_normal((30, 2))
    with pytest.raises(SolverError) as err:
        solve_coordinates(ops, v, KernelConfig(mu_bar=1e-6), max_iter=1)
    assert err.value.worst_residual > 1e-8


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
    (correction, iterations) of every call."""
    inner = manifold._pcg_multi
    calls, error = [], []

    def pcg(*args):
        dx, used = inner(*args)
        if not calls:
            error.append(1e-6 * dx)
        if every_call or not calls:
            dx = dx + error[0]
        calls.append((dx, used))
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
        assert dirichlet_energy(res.u, ops) <= dirichlet_energy(v, ops) + 1e-12


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
    with pytest.raises(ShapeError):
        solve_coordinates(ops, np.zeros((4, 2)), KernelConfig())


# -------------------------------------------------------- dirichlet energy

def test_energy_constant_columns_are_zero():
    rng = np.random.default_rng(10)
    ops = gaussian_weights(random_points(rng, 12, 4))
    u = np.tile(rng.standard_normal(3), (12, 1))
    assert dirichlet_energy(u, ops) < 1e-10


def test_energy_two_point_hand_value():
    ops = gaussian_weights(np.zeros((2, 2)))
    u = np.array([[0.0], [1.0]])
    assert abs(dirichlet_energy(u, ops) * ops.m - 1.0) < 1e-12
    assert abs(dirichlet_energy(u, ops) - 0.5) < 1e-12


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
    assert abs(dirichlet_energy(u, ops) * ops.m - oracle) < 1e-8 * max(oracle, 1.0)


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
