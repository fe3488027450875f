"""Disentanglement network variants and their losses.

Four wirings share the same building blocks:

  Paired       artifact image -> content encoder -> clean decoder (skips),
               all of it `forward_corrected`
  PairedLDM    Paired plus a clean-image branch and 1x1 code-compression
               convolutions feeding the patch set; its `forward` is this
               coded branch, `forward_corrected` with its code plus `free_code`
  Unpaired     full disentanglement graph: content/artifact encoders for
               artifact images, content encoder for clean images, clean and
               artifact decoders, two patch discriminators
  UnpairedLDM  Unpaired plus the code-compression convolutions

Skip connections live only on the artifact-content-encoder -> clean-decoder
path and are additive, so the decoder runs unchanged without them.

Every layer is conv -> bias -> activation, the last two in one
`autodiff.bias_act` over the conv's own output. A layer's activation is
fixed when it is built, as part of the architecture: leaky ReLU on every
encoder, up-path, fuse and hidden discriminator layer, tanh on the decoders'
output conv, none on the code compressions and the discriminator logits.

The unpaired loss is the sum of five terms: least-squares adversarial
terms on the corrected image and the artifact-transferred image,
self-reconstruction, cycle consistency, and artifact consistency. Artifact
consistency uses the residual-transport reading: the artifact removed from x
must equal the artifact added to y, i.e. L1(x - x_hat, y_art - y). An
alternative reading re-encodes the artifact instead; it is not implemented.

A parameter's name is its attribute path from the network, with list
indices as path parts (`enc_clean.downs.0.kernel`, `d_art.c3.bias`). The
names come from one walk over the module tree, so every layer a block holds
is trained and saved. `d_clean.*` and `d_art.*` form the discriminator
store; everything else forms the generator store.

Parameters are float32 (`autodiff.DEFAULT_DTYPE`).

The architecture is fixed by two constants: PATCH_SIZE (the paper's s = 8)
sets log2(s) = 3 halvings per encoder and s^2 = 64 code channels, and
BASE_WIDTH = 8 is the stem's channel count, doubled by each halving. Inputs
are [N,1,H,W] with H and W multiples of s, each code location covering one
s x s patch.

On-disk checkpoint (`save_checkpoint` / `load_checkpoint`): `manifest.json`
holds one key, the `variant` value, since the variant alone fixes the
network; `params.npz` holds one array per parameter, keyed by its attribute
path, in `named_params()` order. Loading rebuilds that variant's network and
rejects an archive with a missing or extra name, or an array whose shape or
dtype differs from the network's.
"""

import enum
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .optim import ParameterStore


# the paper's patch size s and the stem's channel count; see the docstring
PATCH_SIZE = 8
BASE_WIDTH = 8
_N_DOWN = int(math.log2(PATCH_SIZE))


class NetworkVariant(enum.Enum):
    UNPAIRED = "Unpaired"
    UNPAIRED_LDM = "UnpairedLDM"
    PAIRED = "Paired"
    PAIRED_LDM = "PairedLDM"

    @property
    def has_codes(self):
        return self in (NetworkVariant.UNPAIRED_LDM, NetworkVariant.PAIRED_LDM)

    @property
    def is_unpaired(self):
        return self in (NetworkVariant.UNPAIRED, NetworkVariant.UNPAIRED_LDM)


@dataclass
class BranchOutputs:
    """Per-forward outputs. The unpaired variants fill all five images (and
    UnpairedLDM the codes); PairedLDM fills only x_hat, z_x_t and z_y_t.

    y_hat (the clean image's reconstruction), y_art (clean image with the
    transferred artifact) and y_cycle (its re-corrected version) feed the
    unpaired loss terms.
    """

    x_hat: Tensor = None
    y_hat: Tensor = None
    x_recon: Tensor = None
    z_x_t: Tensor = None
    z_y_t: Tensor = None
    y_art: Tensor = None
    y_cycle: Tensor = None


def _he_std(fan_in):
    return math.sqrt(2.0 / ((1.0 + ad.LEAKY_SLOPE ** 2) * fan_in))


class _Module:
    """A layer or block: its parameters are the requires-grad Tensors among
    its attributes, found by walking them."""

    def named_params(self):
        """(attribute path, tensor) for every parameter, recursing into
        sub-modules and lists (`downs.0.kernel`), in assignment order."""
        for name, value in vars(self).items():
            yield from _walk(name, value)


def _walk(path, value):
    if isinstance(value, Tensor):
        if value.requires_grad:
            yield path, value
    elif isinstance(value, _Module):
        for name, item in vars(value).items():
            yield from _walk(f"{path}.{name}", item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(f"{path}.{i}", item)


def _param(values):
    return Tensor(values.astype(ad.DEFAULT_DTYPE), requires_grad=True)


class _Conv(_Module):
    def __init__(self, cin, cout, k, stride, pad, act, rng):
        std = _he_std(cin * k * k)
        self.kernel = _param(rng.normal(0.0, std, (cout, cin, k, k)))
        self.bias = _param(np.zeros(cout))
        self.stride = stride
        self.pad = pad
        self.act = act

    def __call__(self, x):
        return ad.bias_act(ad.conv2d(x, self.kernel, stride=self.stride, padding=self.pad),
                           self.bias, self.act)


class _ConvT(_Module):
    def __init__(self, cin, cout, k, stride, pad, rng):
        std = _he_std(cin * k * k / (stride * stride))
        self.kernel = _param(rng.normal(0.0, std, (cin, cout, k, k)))
        self.bias = _param(np.zeros(cout))
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.bias_act(
            ad.conv_transpose2d(x, self.kernel, stride=self.stride, padding=self.pad),
            self.bias, "leaky_relu")


class _Encoder(_Module):
    """Stem conv + n_down stride-2 convs; returns latent and skip features."""

    def __init__(self, width, n_down, rng):
        self.stem = _Conv(1, width, 3, 1, 1, "leaky_relu", rng)
        self.downs = []
        c = width
        for _ in range(n_down):
            # 4x4 stride-2 halving keeps receptive-field centers on patch centers
            self.downs.append(_Conv(c, 2 * c, 4, 2, 1, "leaky_relu", rng))
            c *= 2
        self.latent_channels = c

    def __call__(self, x):
        f = self.stem(x)
        skips = [f]
        for down in self.downs:
            f = down(f)
            skips.append(f)
        return f, skips[:-1]


class _CleanDecoder(_Module):
    """n_down transposed convs + output conv with tanh; optional additive skips."""

    def __init__(self, width, n_down, rng):
        self.ups = []
        c = width * (2 ** n_down)
        for _ in range(n_down):
            self.ups.append(_ConvT(c, c // 2, 4, 2, 1, rng))
            c //= 2
        self.out = _Conv(c, 1, 3, 1, 1, "tanh", rng)

    def __call__(self, latent, skips=None):
        f = latent
        for i, up in enumerate(self.ups):
            f = up(f)
            if skips is not None:
                f = ad.add(f, skips[-(i + 1)])
        return self.out(f)


class _ArtifactDecoder(_CleanDecoder):
    """Fuses content and artifact latents, then decodes them to an
    artifact-bearing image on the clean decoder's up-path, without skips."""

    def __init__(self, width, n_down, rng):
        c = width * (2 ** n_down)
        self.fuse = _Conv(2 * c, c, 3, 1, 1, "leaky_relu", rng)  # first in parameter and RNG draw order
        super().__init__(width, n_down, rng)

    def __call__(self, content, artifact):
        f = self.fuse(ad.concat([content, artifact], axis=1))
        return super().__call__(f)


class Discriminator(_Module):
    """Three strided convs ending in a patch logit map (LSGAN, no sigmoid)."""

    def __init__(self, width, rng):
        self.c1 = _Conv(1, width, 4, 2, 1, "leaky_relu", rng)
        self.c2 = _Conv(width, 2 * width, 4, 2, 1, "leaky_relu", rng)
        self.c3 = _Conv(2 * width, 1, 3, 1, 1, None, rng)

    def __call__(self, img):
        return self.c3(self.c2(self.c1(img)))


class DisentangleNet(_Module):
    """One network instance: modules per variant plus named parameter stores."""

    def __init__(self, variant, rng):
        self.variant = variant
        width, n_down = BASE_WIDTH, _N_DOWN

        self.enc_art_content = _Encoder(width, n_down, rng)
        self.dec_clean = _CleanDecoder(width, n_down, rng)
        self.enc_clean = None
        self.enc_artifact = None
        self.dec_artifact = None
        self.compress_art = None
        self.compress_clean = None
        self.d_clean = None
        self.d_art = None

        latent_c = self.enc_art_content.latent_channels
        if variant.is_unpaired or variant is NetworkVariant.PAIRED_LDM:
            self.enc_clean = _Encoder(width, n_down, rng)
        if variant.is_unpaired:
            self.enc_artifact = _Encoder(width, n_down, rng)
            self.dec_artifact = _ArtifactDecoder(width, n_down, rng)
            self.d_clean = Discriminator(width, rng)
            self.d_art = Discriminator(width, rng)
        if variant.has_codes:
            code_c = PATCH_SIZE * PATCH_SIZE
            self.compress_art = _Conv(latent_c, code_c, 1, 1, 0, None, rng)
            self.compress_clean = _Conv(latent_c, code_c, 1, 1, 0, None, rng)

        self.gen_params = ParameterStore()
        self.disc_params = ParameterStore() if variant.is_unpaired else None
        for name, t in self.named_params():
            disc = name.startswith(("d_clean.", "d_art."))
            (self.disc_params if disc else self.gen_params).add(name, t)

    def _check_image(self, t, name):
        # the encoders halve H and W log2(PATCH_SIZE) times, and the
        # decoder's up-path and skips must land on the same extents
        if t.data.ndim != 4 or t.shape[1] != 1 or t.shape[2] % PATCH_SIZE \
                or t.shape[3] % PATCH_SIZE:
            raise ShapeError(f"{name} must be [N,1,H,W] with H and W multiples of "
                             f"{PATCH_SIZE}, got {tuple(t.shape)}")

    def forward_corrected(self, x, want_code=False):
        """Artifact-corrected branch only: x -> x_hat (and its code if asked)."""
        if want_code and self.compress_art is None:
            raise ValueError(f"variant {self.variant.value} has no code layers")
        self._check_image(x, "x")
        latent, skips = self.enc_art_content(x)
        x_hat = self.dec_clean(latent, skips)
        if want_code:
            return x_hat, self.compress_art(latent)
        return x_hat

    def free_code(self, y):
        """Compressed code of a clean image through the artifact-free branch."""
        if self.compress_clean is None:
            raise ValueError(f"variant {self.variant.value} has no code layers")
        self._check_image(y, "y")
        latent, _ = self.enc_clean(y)
        return self.compress_clean(latent)

    def forward(self, x, y):
        """PairedLDM: the coded branch (`forward_corrected`, `free_code`).
        Unpaired variants: every output; see BranchOutputs. A Paired network
        has no coded branch: `forward_corrected`'s code-layer check rejects it."""
        v = self.variant
        if not v.is_unpaired:
            x_hat, z_x = self.forward_corrected(x, want_code=True)
            return BranchOutputs(x_hat=x_hat, z_x_t=z_x, z_y_t=self.free_code(y))
        self._check_image(x, "x")
        self._check_image(y, "y")

        out = BranchOutputs()
        latent_x, skips_x = self.enc_art_content(x)
        out.x_hat = self.dec_clean(latent_x, skips_x)
        if v.has_codes:
            out.z_x_t = self.compress_art(latent_x)

        latent_y, _ = self.enc_clean(y)
        if v.has_codes:
            out.z_y_t = self.compress_clean(latent_y)
        out.y_hat = self.dec_clean(latent_y)

        latent_a, _ = self.enc_artifact(x)
        out.x_recon = self.dec_artifact(latent_x, latent_a)
        out.y_art = self.dec_artifact(latent_y, latent_a)
        latent_cycle, skips_cycle = self.enc_art_content(out.y_art)
        out.y_cycle = self.dec_clean(latent_cycle, skips_cycle)
        return out


# ---------------------------------------------------------------------------
# losses

def loss_sup(x_hat, x_gt):
    """Mean absolute difference between prediction and ground truth."""
    return ad.l1_loss(x_hat, x_gt)


def _lsgan_target(logits, value):
    return Tensor(np.full(logits.shape, value, dtype=logits.data.dtype))


def loss_adn(net, outputs, x, y):
    """Generator-side unpaired loss of an unpaired network's `forward`
    outputs, judged by its discriminators; returns (total, per-term dict).

    The total is the plain sum of the terms, in this order: adv_clean =
    LSGAN on x_hat vs 1, adv_art = LSGAN on y_art vs 1, recon =
    L1(y_hat, y) + L1(x_recon, x), cycle = L1(y_cycle, y), artifact =
    L1(x - x_hat, y_art - y) (residual transport).
    """
    logits_clean = net.d_clean(outputs.x_hat)
    logits_art = net.d_art(outputs.y_art)
    terms = {
        "adv_clean": ad.mse_loss(logits_clean, _lsgan_target(logits_clean, 1.0)),
        "adv_art": ad.mse_loss(logits_art, _lsgan_target(logits_art, 1.0)),
        "recon": ad.add(ad.l1_loss(outputs.y_hat, y), ad.l1_loss(outputs.x_recon, x)),
        "cycle": ad.l1_loss(outputs.y_cycle, y),
        "artifact": ad.l1_loss(ad.sub(x, outputs.x_hat), ad.sub(outputs.y_art, y)),
    }
    total = None
    for part in terms.values():
        total = part if total is None else ad.add(total, part)
    return total, terms


def discriminator_loss(net, outputs, x, y):
    """LSGAN discriminator loss on detached fakes; returns (total, dict)."""
    fake_clean = net.d_clean(outputs.x_hat.detach())
    real_clean = net.d_clean(y)
    fake_art = net.d_art(outputs.y_art.detach())
    real_art = net.d_art(x)
    d_clean = ad.add(ad.mse_loss(real_clean, _lsgan_target(real_clean, 1.0)),
                     ad.mse_loss(fake_clean, _lsgan_target(fake_clean, 0.0)))
    d_art = ad.add(ad.mse_loss(real_art, _lsgan_target(real_art, 1.0)),
                   ad.mse_loss(fake_art, _lsgan_target(fake_art, 0.0)))
    return ad.add(d_clean, d_art), {"disc_clean": d_clean, "disc_art": d_art}


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(net, directory):
    """Write `manifest.json` (the variant) and `params.npz`."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"variant": net.variant.value}
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    np.savez(os.path.join(directory, "params.npz"),
             **{name: t.data for name, t in net.named_params()})


def load_checkpoint(directory):
    """Rebuild the network the manifest describes and load every parameter.

    The archive must hold exactly the network's parameters, each with the
    network's shape and dtype.
    """
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    # any generator will do: every weight is overwritten below
    net = DisentangleNet(NetworkVariant(manifest["variant"]), np.random.default_rng(0))
    params = dict(net.named_params())
    with np.load(os.path.join(directory, "params.npz")) as arrays:
        missing = sorted(params.keys() - set(arrays.files))
        extra = sorted(set(arrays.files) - params.keys())
        if missing or extra:
            raise ValueError(f"checkpoint {directory} does not match a "
                             f"{net.variant.value} network: missing {missing}, extra {extra}")
        for name, t in params.items():
            arr = arrays[name]
            if arr.shape != t.data.shape or arr.dtype != t.data.dtype:
                raise ShapeError(f"checkpoint parameter {name} is {arr.dtype}{arr.shape}, "
                                 f"expected {t.data.dtype}{t.data.shape}")
            t.data = arr
    return net
