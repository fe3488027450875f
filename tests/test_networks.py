import numpy as np
import pytest

from patchmar import autodiff as ad
from patchmar.autodiff import Tensor, ShapeError
from patchmar.networks import (AdnLossWeights, BranchOutputs, DisentangleNet,
                               GeometryConfig, NetworkVariant, load_checkpoint,
                               loss_adn, loss_sup, discriminator_loss,
                               save_checkpoint)


def small_geom():
    return GeometryConfig(32, 32, 4)


def make_net(variant, seed=0, geom=None):
    return DisentangleNet(variant, geom or small_geom(), base_width=4,
                          rng=np.random.default_rng(seed))


def rand_img(rng, geom):
    return Tensor(rng.uniform(-1, 1, (1, 1, geom.image_h, geom.image_w)).astype(np.float32))


# ---------------------------------------------------------------- geometry

def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryConfig(60, 64, 8)
    with pytest.raises(ValueError):
        GeometryConfig(64, 64, 6)
    g = GeometryConfig(64, 64, 8)
    assert g.code_channels == 64
    assert g.patch_dim == 128
    assert g.grid_h == g.grid_w == 8


# ---------------------------------------------------------------- variants

def test_paired_variant_has_only_x_hat():
    net = make_net(NetworkVariant.PAIRED)
    rng = np.random.default_rng(1)
    out = net.forward(rand_img(rng, net.geom))
    assert out.x_hat is not None
    assert out.x_hat.shape == (1, 1, 32, 32)
    for f in ("y_hat", "x_recon", "z_x_t", "z_y_t", "y_art", "y_cycle"):
        assert getattr(out, f) is None


def test_paired_ldm_code_shape_matches_grid():
    geom = GeometryConfig(64, 64, 8)
    net = DisentangleNet(NetworkVariant.PAIRED_LDM, geom, base_width=4,
                         rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    out = net.forward(rand_img(rng, geom), rand_img(rng, geom))
    assert out.z_x_t.shape == (1, 64, 8, 8)
    assert out.z_y_t.shape == (1, 64, 8, 8)
    assert out.x_hat is not None
    assert out.y_hat is None  # no LDM-Sup loss reads a decoded clean image
    assert out.x_recon is None


def test_unpaired_ldm_populates_all_five_fields():
    net = make_net(NetworkVariant.UNPAIRED_LDM)
    rng = np.random.default_rng(4)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    out = net.forward(x, y)
    for f in ("x_hat", "y_hat", "x_recon", "z_x_t", "z_y_t"):
        assert getattr(out, f) is not None, f
    assert out.x_hat.shape == x.shape
    assert out.y_hat.shape == x.shape
    assert out.x_recon.shape == x.shape
    assert out.z_x_t.shape == (1, 16, 8, 8)


def test_unpaired_requires_clean_input():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="requires a clean input"):
        net.forward(rand_img(rng, net.geom))


def test_indivisible_extents_rejected_at_construction():
    with pytest.raises(ValueError):
        GeometryConfig(30, 30, 4)


def test_wrong_input_extent_rejected_at_forward():
    net = make_net(NetworkVariant.PAIRED)
    with pytest.raises(ShapeError):
        net.forward(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)))


def test_forward_is_shape_stable_and_deterministic():
    net = make_net(NetworkVariant.UNPAIRED_LDM)
    rng = np.random.default_rng(6)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    o1 = net.forward(x, y)
    o2 = net.forward(x, y)
    assert np.array_equal(o1.x_hat.data, o2.x_hat.data)
    assert np.array_equal(o1.z_y_t.data, o2.z_y_t.data)


def test_code_location_tracks_perturbed_patch():
    geom = GeometryConfig(64, 64, 8)
    net = DisentangleNet(NetworkVariant.UNPAIRED_LDM, geom, base_width=4,
                         rng=np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.uniform(-0.5, 0.5, (1, 1, 64, 64)).astype(np.float32)
    y = rng.uniform(-0.5, 0.5, (1, 1, 64, 64)).astype(np.float32)
    base = net.forward(Tensor(x), Tensor(y)).z_x_t.data
    i, j = 3, 5
    xp = x.copy()
    xp[0, 0, i * 8:(i + 1) * 8, j * 8:(j + 1) * 8] += 2.0
    pert = net.forward(Tensor(xp), Tensor(y)).z_x_t.data
    delta = np.abs(pert - base).sum(axis=1)[0]
    loc = np.unravel_index(np.argmax(delta), delta.shape)
    assert loc == (i, j)


# ------------------------------------------------------------------ losses

def test_loss_sup_trivial_cases():
    a = Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32))
    assert float(loss_sup(a, a).data) == 0.0
    b = Tensor(np.ones((1, 1, 8, 8), dtype=np.float32))
    assert abs(float(loss_sup(a, b).data) - 1.0) < 1e-7


def test_loss_sup_matches_elementwise_oracle():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
    b = rng.standard_normal((1, 1, 8, 8)).astype(np.float32)
    want = np.mean(np.abs(a.astype(np.float64) - b.astype(np.float64)))
    got = float(loss_sup(Tensor(a), Tensor(b)).data)
    assert abs(got - want) < 1e-6


def _fixed_point_outputs(x, y):
    return BranchOutputs(x_hat=x, y_hat=y, x_recon=x, y_art=y, y_cycle=y)


def _stub_disc(value):
    def d(img):
        return Tensor(np.full((1, 1, 4, 4), value, dtype=np.float32))
    return d


def test_loss_adn_fixed_point_value():
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)).astype(np.float32))
    y = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)).astype(np.float32))
    out = _fixed_point_outputs(x, y)
    total, terms = loss_adn(out, x, y, (_stub_disc(0.5), _stub_disc(0.5)))
    assert abs(float(terms["adv_clean"].data) - 0.25) < 1e-7
    assert abs(float(terms["adv_art"].data) - 0.25) < 1e-7
    for name in ("recon", "cycle", "artifact"):
        assert float(terms[name].data) == 0.0
    assert abs(float(total.data) - 0.5) < 1e-6


def test_loss_adn_weight_masking():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(11)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    out = net.forward(x, y)
    w = AdnLossWeights(adv_clean=0, adv_art=0, recon=1, cycle=0, artifact=0)
    total, _ = loss_adn(out, x, y, (net.d_clean, net.d_art), weights=w)
    want = float(ad.add(ad.l1_loss(out.y_hat, y), ad.l1_loss(out.x_recon, x)).data)
    assert abs(float(total.data) - want) < 1e-7


def test_loss_adn_matches_component_sum_oracle():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(12)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    out = net.forward(x, y)
    w = AdnLossWeights(adv_clean=0.3, adv_art=1.7, recon=2.0, cycle=0.5, artifact=1.1)
    total, terms = loss_adn(out, x, y, (net.d_clean, net.d_art), weights=w)
    manual = (0.3 * float(terms["adv_clean"].data) + 1.7 * float(terms["adv_art"].data)
              + 2.0 * float(terms["recon"].data) + 0.5 * float(terms["cycle"].data)
              + 1.1 * float(terms["artifact"].data))
    assert abs(float(total.data) - manual) < 1e-5 * max(abs(manual), 1.0)


def test_loss_adn_nonnegative_with_nonnegative_weights():
    net = make_net(NetworkVariant.UNPAIRED, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(3):
        x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
        total, _ = loss_adn(net.forward(x, y), x, y, (net.d_clean, net.d_art))
        assert float(total.data) >= 0.0


def test_loss_adn_missing_discriminator_rejected():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(15)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    out = net.forward(x, y)
    with pytest.raises(ValueError, match="discriminator"):
        loss_adn(out, x, y, None)
    with pytest.raises(ValueError, match="discriminator"):
        loss_adn(out, x, y, (net.d_clean, None))


def test_discriminator_loss_runs_and_detaches():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(16)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    out = net.forward(x, y)
    net.gen_params.zero_grad()
    net.disc_params.zero_grad()
    total, parts = discriminator_loss(net, out, x, y)
    ad.backward(total)
    assert set(parts) == {"disc_clean", "disc_art"}
    # generator saw no gradient through the detached fakes
    gmax = max(np.abs(t.grad).max() for _, t in net.gen_params.items())
    assert gmax == 0.0
    dmax = max(np.abs(t.grad).max() for _, t in net.disc_params.items())
    assert dmax > 0.0


# -------------------------------------------------------------- checkpoints

def _param_arrays(net):
    stores = [("gen", net.gen_params), ("disc", net.disc_params)]
    return {f"{tag}.{name}": t.data for tag, store in stores if store is not None
            for name, t in store.items()}


def test_checkpoint_roundtrip_reproduces_outputs(tmp_path):
    net = make_net(NetworkVariant.UNPAIRED_LDM, seed=17)
    rng = np.random.default_rng(18)
    x, y = rand_img(rng, net.geom), rand_img(rng, net.geom)
    before = net.forward(x, y)
    save_checkpoint(net, tmp_path / "ckpt")
    net2 = load_checkpoint(tmp_path / "ckpt")
    assert net2.variant is NetworkVariant.UNPAIRED_LDM
    after = net2.forward(x, y)
    assert np.array_equal(before.x_hat.data, after.x_hat.data)
    assert np.array_equal(before.z_x_t.data, after.z_x_t.data)


@pytest.mark.parametrize("variant", list(NetworkVariant))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_checkpoint_roundtrip_is_bit_exact(tmp_path, variant, dtype):
    net = DisentangleNet(variant, small_geom(), base_width=4,
                         rng=np.random.default_rng(19), dtype=dtype)
    save_checkpoint(net, tmp_path / "ckpt")
    net2 = load_checkpoint(tmp_path / "ckpt")
    assert net2.variant is variant and net2.geom == net.geom
    assert net2.base_width == net.base_width and net2.dtype == dtype
    want, got = _param_arrays(net), _param_arrays(net2)
    assert list(got) == list(want)
    for name, arr in want.items():
        assert got[name].dtype == dtype, name
        assert np.array_equal(got[name], arr), name


def _rewrite_params(directory, edit):
    path = directory / "params.npz"
    with np.load(path) as z:
        arrays = dict(z)
    edit(arrays)
    np.savez(path, **arrays)


def test_checkpoint_missing_or_extra_parameter_rejected(tmp_path):
    net = make_net(NetworkVariant.UNPAIRED, seed=20)
    save_checkpoint(net, tmp_path / "ckpt")
    _rewrite_params(tmp_path / "ckpt", lambda a: a.pop("disc.d_art.c3.bias"))
    with pytest.raises(ValueError, match="disc.d_art.c3.bias"):
        load_checkpoint(tmp_path / "ckpt")

    save_checkpoint(net, tmp_path / "ckpt")
    _rewrite_params(tmp_path / "ckpt",
                    lambda a: a.update({"gen.compress_art.bias": np.zeros(16, np.float32)}))
    with pytest.raises(ValueError, match="gen.compress_art.bias"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_wrong_shape_or_dtype_rejected(tmp_path):
    net = make_net(NetworkVariant.PAIRED, seed=21)
    name = "gen.dec_clean.out.bias"
    for bad in (np.zeros(2, np.float32), np.zeros(1, np.float64)):
        save_checkpoint(net, tmp_path / "ckpt")
        _rewrite_params(tmp_path / "ckpt", lambda a: a.update({name: bad}))
        with pytest.raises(ShapeError, match=name):
            load_checkpoint(tmp_path / "ckpt")
