"""Disentanglement network variants and their losses.

Four wirings share the same building blocks:

  Paired       artifact image -> content encoder -> clean decoder (skips)
  PairedLDM    Paired plus a clean-image branch and 1x1 code-compression
               convolutions feeding the patch set
  Unpaired     full disentanglement graph: content/artifact encoders for
               artifact images, content encoder for clean images, clean and
               artifact decoders, two patch discriminators
  UnpairedLDM  Unpaired plus the code-compression convolutions

Skip connections live only on the artifact-content-encoder -> clean-decoder
path and are additive, so the decoder runs unchanged without them.

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

On-disk checkpoint (`save_checkpoint` / `load_checkpoint`): `manifest.json`
holds the `variant` value, the `geometry` (image_h, image_w, s), `base_width`
and the parameter `dtype`; `params.npz` holds one array per parameter, keyed
`gen.<name>` for the generator store and `disc.<name>` for the
discriminator store, where `<name>` is that attribute path.
"""

import enum
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .optim import ParameterStore


@dataclass(frozen=True)
class GeometryConfig:
    """Image extents and the code down-sampling step s (code has s^2 channels)."""

    image_h: int = 64
    image_w: int = 64
    s: int = 8

    def __post_init__(self):
        if self.s < 2:
            raise ValueError(f"down-sampling step must be >= 2, got {self.s}")
        n = math.log2(self.s)
        if n != int(n):
            raise ValueError(f"down-sampling step must be a power of two, got {self.s}")
        if self.image_h % self.s or self.image_w % self.s:
            raise ValueError(
                f"image extents {self.image_h}x{self.image_w} not divisible by s={self.s}")

    @property
    def code_channels(self):
        return self.s * self.s

    @property
    def n_down(self):
        return int(math.log2(self.s))


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
    """Per-forward outputs; fields a variant does not define stay None.

    y_hat (the clean image's reconstruction), y_art (clean image with the
    transferred artifact) and y_cycle (its re-corrected version) feed the
    unpaired loss terms; only the unpaired variants decode them.
    """

    x_hat: Tensor = None
    y_hat: Tensor = None
    x_recon: Tensor = None
    z_x_t: Tensor = None
    z_y_t: Tensor = None
    y_art: Tensor = None
    y_cycle: Tensor = None


LEAKY_SLOPE = 0.2


def _he_std(fan_in):
    return math.sqrt(2.0 / ((1.0 + LEAKY_SLOPE ** 2) * fan_in))


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


class _Conv(_Module):
    def __init__(self, cin, cout, k, stride, pad, rng, dtype):
        std = _he_std(cin * k * k)
        self.kernel = Tensor(rng.normal(0.0, std, (cout, cin, k, k)).astype(dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.add_channel_bias(
            ad.conv2d(x, self.kernel, stride=self.stride, padding=self.pad), self.bias)


class _ConvT(_Module):
    def __init__(self, cin, cout, k, stride, pad, rng, dtype):
        std = _he_std(cin * k * k / (stride * stride))
        self.kernel = Tensor(rng.normal(0.0, std, (cin, cout, k, k)).astype(dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=dtype), requires_grad=True)
        self.stride = stride
        self.pad = pad

    def __call__(self, x):
        return ad.add_channel_bias(
            ad.conv_transpose2d(x, self.kernel, stride=self.stride, padding=self.pad),
            self.bias)


class _Encoder(_Module):
    """Stem conv + n_down stride-2 convs; returns latent and skip features."""

    def __init__(self, width, n_down, rng, dtype):
        self.stem = _Conv(1, width, 3, 1, 1, rng, dtype)
        self.downs = []
        c = width
        for _ in range(n_down):
            # 4x4 stride-2 halving keeps receptive-field centers on patch centers
            self.downs.append(_Conv(c, 2 * c, 4, 2, 1, rng, dtype))
            c *= 2
        self.latent_channels = c

    def __call__(self, x):
        f = ad.leaky_relu(self.stem(x), LEAKY_SLOPE)
        skips = [f]
        for down in self.downs:
            f = ad.leaky_relu(down(f), LEAKY_SLOPE)
            skips.append(f)
        return f, skips[:-1]


class _CleanDecoder(_Module):
    """n_down transposed convs + output conv with tanh; optional additive skips."""

    def __init__(self, width, n_down, rng, dtype):
        self.ups = []
        c = width * (2 ** n_down)
        for _ in range(n_down):
            self.ups.append(_ConvT(c, c // 2, 4, 2, 1, rng, dtype))
            c //= 2
        self.out = _Conv(c, 1, 3, 1, 1, rng, dtype)

    def __call__(self, latent, skips=None):
        f = latent
        for i, up in enumerate(self.ups):
            f = ad.leaky_relu(up(f), LEAKY_SLOPE)
            if skips is not None:
                f = ad.add(f, skips[-(i + 1)])
        return ad.tanh(self.out(f))


class _ArtifactDecoder(_Module):
    """Fuses content and artifact latents, decodes to an artifact-bearing image."""

    def __init__(self, width, n_down, rng, dtype):
        c = width * (2 ** n_down)
        self.fuse = _Conv(2 * c, c, 3, 1, 1, rng, dtype)
        self.ups = []
        for _ in range(n_down):
            self.ups.append(_ConvT(c, c // 2, 4, 2, 1, rng, dtype))
            c //= 2
        self.out = _Conv(c, 1, 3, 1, 1, rng, dtype)

    def __call__(self, content, artifact):
        f = ad.leaky_relu(self.fuse(ad.concat([content, artifact], axis=1)), LEAKY_SLOPE)
        for up in self.ups:
            f = ad.leaky_relu(up(f), LEAKY_SLOPE)
        return ad.tanh(self.out(f))


class Discriminator(_Module):
    """Three strided convs ending in a patch logit map (LSGAN, no sigmoid)."""

    def __init__(self, width, rng, dtype):
        self.c1 = _Conv(1, width, 4, 2, 1, rng, dtype)
        self.c2 = _Conv(width, 2 * width, 4, 2, 1, rng, dtype)
        self.c3 = _Conv(2 * width, 1, 3, 1, 1, rng, dtype)

    def __call__(self, img):
        f = ad.leaky_relu(self.c1(img), LEAKY_SLOPE)
        f = ad.leaky_relu(self.c2(f), LEAKY_SLOPE)
        return self.c3(f)


class DisentangleNet(_Module):
    """One network instance: modules per variant plus named parameter stores."""

    def __init__(self, variant, geom, base_width=8, rng=None, dtype=np.float32):
        self.variant = variant
        self.geom = geom
        self.base_width = base_width
        self.dtype = dtype
        if rng is None:  # load_checkpoint builds without one, then overwrites every weight
            rng = np.random.default_rng(0)
        n_down = geom.n_down

        self.enc_art_content = _Encoder(base_width, n_down, rng, dtype)
        self.dec_clean = _CleanDecoder(base_width, n_down, rng, dtype)
        self.enc_clean = None
        self.enc_artifact = None
        self.dec_artifact = None
        self.compress_art = None
        self.compress_clean = None
        self.d_clean = None
        self.d_art = None

        latent_c = self.enc_art_content.latent_channels
        if variant.is_unpaired or variant is NetworkVariant.PAIRED_LDM:
            self.enc_clean = _Encoder(base_width, n_down, rng, dtype)
        if variant.is_unpaired:
            self.enc_artifact = _Encoder(base_width, n_down, rng, dtype)
            self.dec_artifact = _ArtifactDecoder(base_width, n_down, rng, dtype)
            self.d_clean = Discriminator(base_width, rng, dtype)
            self.d_art = Discriminator(base_width, rng, dtype)
        if variant.has_codes:
            self.compress_art = _Conv(latent_c, geom.code_channels, 1, 1, 0, rng, dtype)
            self.compress_clean = _Conv(latent_c, geom.code_channels, 1, 1, 0, rng, dtype)

        self.gen_params = ParameterStore()
        self.disc_params = ParameterStore() if variant.is_unpaired else None
        for name, t in self.named_params():
            disc = name.startswith(("d_clean.", "d_art."))
            (self.disc_params if disc else self.gen_params).add(name, t)

    def _check_image(self, t, name):
        if t.data.ndim != 4 or t.shape[1] != 1:
            raise ShapeError(f"{name} must be [N,1,H,W], got {tuple(t.shape)}")
        if t.shape[2] != self.geom.image_h or t.shape[3] != self.geom.image_w:
            raise ShapeError(
                f"{name} extent {t.shape[2]}x{t.shape[3]} does not match geometry "
                f"{self.geom.image_h}x{self.geom.image_w}")

    def forward_corrected(self, x, want_code=False):
        """Artifact-corrected branch only: x -> x_hat (and its code if asked)."""
        self._check_image(x, "x")
        latent, skips = self.enc_art_content(x)
        x_hat = self.dec_clean(latent, skips)
        if want_code:
            if self.compress_art is None:
                raise ValueError(f"variant {self.variant.value} has no code layers")
            return x_hat, self.compress_art(latent)
        return x_hat

    def free_code(self, y):
        """Compressed code of a clean image through the artifact-free branch."""
        if self.compress_clean is None:
            raise ValueError(f"variant {self.variant.value} has no code layers")
        self._check_image(y, "y")
        latent, _ = self.enc_clean(y)
        return self.compress_clean(latent)

    def forward(self, x, y=None):
        """Populate every output the variant defines; see BranchOutputs."""
        self._check_image(x, "x")
        v = self.variant
        if y is None and v is not NetworkVariant.PAIRED:
            raise ValueError(f"variant {v.value} requires a clean input y")
        if y is not None:
            self._check_image(y, "y")

        out = BranchOutputs()
        latent_x, skips_x = self.enc_art_content(x)
        out.x_hat = self.dec_clean(latent_x, skips_x)
        if v is NetworkVariant.PAIRED:
            return out
        if v.has_codes:
            out.z_x_t = self.compress_art(latent_x)

        latent_y, _ = self.enc_clean(y)
        if v.has_codes:
            out.z_y_t = self.compress_clean(latent_y)
        if v is NetworkVariant.PAIRED_LDM:
            return out
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


def loss_adn(outputs, x, y, discriminators):
    """Generator-side unpaired loss; returns (total, per-term dict).

    The total is the plain sum of the terms, in this order: adv_clean =
    LSGAN on x_hat vs 1, adv_art = LSGAN on y_art vs 1, recon =
    L1(y_hat, y) + L1(x_recon, x), cycle = L1(y_cycle, y), artifact =
    L1(x - x_hat, y_art - y) (residual transport).
    """
    if discriminators is None or discriminators[0] is None or discriminators[1] is None:
        raise ValueError("missing discriminator for the unpaired loss")
    d_clean, d_art = discriminators
    for fieldname in ("x_hat", "y_hat", "x_recon", "y_art", "y_cycle"):
        if getattr(outputs, fieldname) is None:
            raise ValueError(f"unpaired loss requires outputs.{fieldname}")

    logits_clean = d_clean(outputs.x_hat)
    logits_art = d_art(outputs.y_art)
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
    if net.d_clean is None:
        raise ValueError("missing discriminator")
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

def _named_params(net):
    """Every parameter tensor, keyed `gen.<name>` or `disc.<name>`."""
    stores = [("gen", net.gen_params), ("disc", net.disc_params)]
    return {f"{tag}.{name}": t for tag, store in stores if store is not None
            for name, t in store.items()}


def save_checkpoint(net, directory):
    """Write `manifest.json` (variant, geometry, width, dtype) and `params.npz`."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"variant": net.variant.value, "geometry": asdict(net.geom),
                "base_width": net.base_width, "dtype": np.dtype(net.dtype).name}
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    np.savez(os.path.join(directory, "params.npz"),
             **{name: t.data for name, t in _named_params(net).items()})


def load_checkpoint(directory):
    """Rebuild the network the manifest describes and load every parameter.

    The archive must hold exactly the network's parameters, each with the
    network's shape and dtype.
    """
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    net = DisentangleNet(NetworkVariant(manifest["variant"]),
                         GeometryConfig(**manifest["geometry"]),
                         base_width=manifest["base_width"],
                         dtype=np.dtype(manifest["dtype"]))
    params = _named_params(net)
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
