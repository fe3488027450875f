import json
from types import SimpleNamespace

import numpy as np
import pytest

from patchmar import autodiff as ad
from patchmar.autodiff import Tensor, ShapeError
from patchmar.ctsim import SynthConfig
from patchmar.networks import (BranchOutputs, DisentangleNet, NetworkVariant,
                               load_checkpoint, loss_adn, loss_sup,
                               discriminator_loss, save_checkpoint)


def make_net(variant, seed=0):
    return DisentangleNet(variant, rng=np.random.default_rng(seed))


def rand_img(rng, n=32):
    return Tensor(rng.uniform(-1, 1, (1, 1, n, n)).astype(np.float32))


# ---------------------------------------------------------- parameter names

def _resolve(net, name):
    obj = net
    for part in name.split("."):
        obj = obj[int(part)] if part.isdigit() else getattr(obj, part)
    return obj


@pytest.mark.parametrize("variant", list(NetworkVariant))
def test_parameter_names_are_attribute_paths(variant):
    net = make_net(variant)
    stores = [s for s in (net.gen_params, net.disc_params) if s is not None]
    names = [name for store in stores for name, _ in store.items()]
    assert len(names) == len(set(names))
    for store in stores:
        for name, t in store.items():
            assert _resolve(net, name) is t, name
    disc = [name for name in names if name.startswith(("d_clean.", "d_art."))]
    stored = [name for name, _ in net.disc_params.items()] if net.disc_params else []
    assert stored == disc
    assert bool(disc) == variant.is_unpaired


# ---------------------------------------------------------------- variants

def test_paired_variant_has_only_x_hat():
    net = make_net(NetworkVariant.PAIRED)
    rng = np.random.default_rng(1)
    x, y = rand_img(rng), rand_img(rng)
    assert net.forward_corrected(x).shape == (1, 1, 32, 32)
    with pytest.raises(ValueError, match="no code layers"):
        net.forward_corrected(x, want_code=True)
    with pytest.raises(ValueError, match="no code layers"):
        net.forward(x, y)


def test_paired_ldm_code_shape_matches_grid():
    net = make_net(NetworkVariant.PAIRED_LDM, seed=2)
    rng = np.random.default_rng(3)
    out = net.forward(rand_img(rng, 64), rand_img(rng, 64))
    assert out.z_x_t.shape == (1, 64, 8, 8)
    assert out.z_y_t.shape == (1, 64, 8, 8)
    assert out.x_hat is not None
    for f in ("y_hat", "x_recon", "y_art", "y_cycle"):
        assert getattr(out, f) is None, f  # no LDM-Sup loss reads them


def test_paired_ldm_forward_is_its_coded_branch():
    net = make_net(NetworkVariant.PAIRED_LDM, seed=20)
    rng = np.random.default_rng(21)
    x, y = rand_img(rng), rand_img(rng)
    out = net.forward(x, y)
    x_hat, z_x = net.forward_corrected(x, want_code=True)
    assert np.array_equal(out.x_hat.data, x_hat.data)
    assert np.array_equal(out.z_x_t.data, z_x.data)
    assert np.array_equal(out.z_y_t.data, net.free_code(y).data)


def test_unpaired_ldm_populates_all_five_fields():
    net = make_net(NetworkVariant.UNPAIRED_LDM)
    rng = np.random.default_rng(4)
    x, y = rand_img(rng), rand_img(rng)
    out = net.forward(x, y)
    for f in ("x_hat", "y_hat", "x_recon", "z_x_t", "z_y_t"):
        assert getattr(out, f) is not None, f
    assert out.x_hat.shape == x.shape
    assert out.y_hat.shape == x.shape
    assert out.x_recon.shape == x.shape
    assert out.z_x_t.shape == (1, 64, 4, 4)


def test_indivisible_extents_rejected_at_construction():
    # a dataset is synthesized for the network, so an image size that is not
    # a multiple of the patch size fails in SynthConfig, before synthesis
    for size in (0, 4, 20, 30):
        with pytest.raises(ValueError, match=f"multiple of 8, got {size}"):
            SynthConfig(image_size=size)
    assert SynthConfig(image_size=16).image_size == 16


def test_wrong_input_extent_rejected_at_forward():
    # every extent must be a multiple of the patch size, which the encoders
    # halve down to one code location per patch
    net = make_net(NetworkVariant.PAIRED)
    for shape in ((1, 1, 30, 32), (1, 1, 32, 12), (1, 2, 32, 32), (1, 32, 32)):
        with pytest.raises(ShapeError, match=r"x must be \[N,1,H,W\] with H and W multiples of 8"):
            net.forward_corrected(Tensor(np.zeros(shape, dtype=np.float32)))
    assert net.forward_corrected(Tensor(np.zeros((2, 1, 16, 40), np.float32))).shape == \
        (2, 1, 16, 40)
    net = make_net(NetworkVariant.UNPAIRED)
    with pytest.raises(ShapeError, match="y must be"):
        net.forward(rand_img(np.random.default_rng(5)), rand_img(np.random.default_rng(5), 20))


def test_forward_is_shape_stable_and_deterministic():
    net = make_net(NetworkVariant.UNPAIRED_LDM)
    rng = np.random.default_rng(6)
    x, y = rand_img(rng), rand_img(rng)
    o1 = net.forward(x, y)
    o2 = net.forward(x, y)
    assert np.array_equal(o1.x_hat.data, o2.x_hat.data)
    assert np.array_equal(o1.z_y_t.data, o2.z_y_t.data)


def test_code_location_tracks_perturbed_patch():
    net = make_net(NetworkVariant.UNPAIRED_LDM, seed=7)
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


def _stub_net(value):
    """Stands in for an unpaired network: loss_adn reads only its discriminators."""
    return SimpleNamespace(d_clean=_stub_disc(value), d_art=_stub_disc(value))


def test_loss_adn_fixed_point_value():
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)).astype(np.float32))
    y = Tensor(rng.uniform(-1, 1, (1, 1, 16, 16)).astype(np.float32))
    out = _fixed_point_outputs(x, y)
    total, terms = loss_adn(_stub_net(0.5), out, x, y)
    assert abs(float(terms["adv_clean"].data) - 0.25) < 1e-7
    assert abs(float(terms["adv_art"].data) - 0.25) < 1e-7
    for name in ("recon", "cycle", "artifact"):
        assert float(terms[name].data) == 0.0
    assert abs(float(total.data) - 0.5) < 1e-6


def test_loss_adn_matches_component_sum_oracle():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(12)
    x, y = rand_img(rng), rand_img(rng)
    out = net.forward(x, y)
    total, terms = loss_adn(net, out, x, y)
    assert list(terms) == ["adv_clean", "adv_art", "recon", "cycle", "artifact"]
    manual = sum(float(terms[name].data) for name in terms)
    assert abs(float(total.data) - manual) < 1e-5 * max(abs(manual), 1.0)


def test_loss_adn_nonnegative_with_nonnegative_weights():
    net = make_net(NetworkVariant.UNPAIRED, seed=13)
    rng = np.random.default_rng(14)
    for _ in range(3):
        x, y = rand_img(rng), rand_img(rng)
        total, _ = loss_adn(net, net.forward(x, y), x, y)
        assert float(total.data) >= 0.0


def test_discriminator_loss_runs_and_detaches():
    net = make_net(NetworkVariant.UNPAIRED)
    rng = np.random.default_rng(16)
    x, y = rand_img(rng), rand_img(rng)
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
    return {name: t.data for name, t in net.named_params()}


def test_checkpoint_roundtrip_reproduces_outputs(tmp_path):
    net = make_net(NetworkVariant.UNPAIRED_LDM, seed=17)
    rng = np.random.default_rng(18)
    x, y = rand_img(rng), rand_img(rng)
    before = net.forward(x, y)
    save_checkpoint(net, tmp_path / "ckpt")
    net2 = load_checkpoint(tmp_path / "ckpt")
    assert net2.variant is NetworkVariant.UNPAIRED_LDM
    after = net2.forward(x, y)
    assert np.array_equal(before.x_hat.data, after.x_hat.data)
    assert np.array_equal(before.z_x_t.data, after.z_x_t.data)


@pytest.mark.parametrize("variant", list(NetworkVariant))
@pytest.mark.parametrize("dtype", [ad.DEFAULT_DTYPE])  # the only parameter dtype
def test_checkpoint_roundtrip_is_bit_exact(tmp_path, variant, dtype):
    net = make_net(variant, seed=19)
    save_checkpoint(net, tmp_path / "ckpt")
    with np.load(tmp_path / "ckpt" / "params.npz") as arrays:
        assert arrays.files == [name for name, _ in net.named_params()]
    with open(tmp_path / "ckpt" / "manifest.json") as f:
        assert json.load(f) == {"variant": variant.value}
    net2 = load_checkpoint(tmp_path / "ckpt")
    assert net2.variant is variant
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
    _rewrite_params(tmp_path / "ckpt", lambda a: a.pop("d_art.c3.bias"))
    with pytest.raises(ValueError, match=r"missing \['d_art\.c3\.bias'\]"):
        load_checkpoint(tmp_path / "ckpt")

    save_checkpoint(net, tmp_path / "ckpt")
    _rewrite_params(tmp_path / "ckpt",
                    lambda a: a.update({"compress_art.bias": np.zeros(64, np.float32)}))
    with pytest.raises(ValueError, match=r"extra \['compress_art\.bias'\]"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_wrong_shape_or_dtype_rejected(tmp_path):
    net = make_net(NetworkVariant.PAIRED, seed=21)
    name = "dec_clean.out.bias"
    for bad in (np.zeros(2, np.float32), np.zeros(1, np.float64)):
        save_checkpoint(net, tmp_path / "ckpt")
        _rewrite_params(tmp_path / "ckpt", lambda a: a.update({name: bad}))
        with pytest.raises(ShapeError, match=name):
            load_checkpoint(tmp_path / "ckpt")
