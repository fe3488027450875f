"""Desk-scale CT pipeline: parallel-beam projector, filtered backprojection,
metal-trace corruption, the per-view linear-interpolation baseline, procedural
phantom/dataset synthesis, and PSNR/SSIM metrics.

Corruption model: the clean sinogram is modified only inside the metal trace
(the forward projection of the metal mask) with a monotone concave
nonlinearity v -> v + severity * v^2 / (1 + v) plus noise proportional to
severity and the local value. Zero severity therefore reproduces the clean
reconstruction bit for bit, so each synthesized artifact image differs from
its clean partner only through this pipeline.

Projector: each ray is sampled every half pixel and interpolated bilinearly
with zeros outside the image, but only the samples strictly inside the
image's support box (the bounding box of its non-zero pixels, widened by
2 px) are evaluated. Every other sample has four zero neighbours or lies
outside the image, so it is exactly 0.0; it stays 0.0 in a full per-view
buffer whose rows are summed, so the sinogram is bit for bit the one that
evaluating every sample gives.

On-disk dataset (`save_dataset` / `load_dataset`): `manifest.json` holds the
SynthConfig (`cfg`), the ScanGeometry (`geom`), the `artifact_pool` and
`clean_pool` indices and, per split, each pair's `index` and `metal_pixels`
in `train` and `test`. `pairs.npz` holds the float32 image stacks
`train_artifact`, `train_clean`, `test_artifact` and `test_clean`, in
manifest order. `train/` and `test/` hold 8-bit PGM previews only.
"""

import json
import math
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy import ndimage

from .autodiff import ShapeError


@dataclass(frozen=True)
class ScanGeometry:
    n_views: int = 180
    n_detectors: int = 128
    detector_spacing: float = 0.75
    angular_range: float = math.pi

    def __post_init__(self):
        if self.n_views < 1:
            raise ValueError(f"need at least one view, got {self.n_views}")
        if self.n_detectors < 2:
            raise ValueError(f"need at least two detectors, got {self.n_detectors}")
        if self.detector_spacing <= 0:
            raise ValueError("detector spacing must be positive")
        if self.angular_range <= 0:
            raise ValueError("angular range must be positive")

    @property
    def angles(self):
        return np.arange(self.n_views) * (self.angular_range / self.n_views)

    @property
    def detector_offsets(self):
        return (np.arange(self.n_detectors) - (self.n_detectors - 1) / 2.0) \
            * self.detector_spacing


@dataclass
class Sinogram:
    data: np.ndarray
    metal_trace: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.metal_trace is None:
            self.metal_trace = np.zeros(self.data.shape, dtype=bool)
        self.metal_trace = np.asarray(self.metal_trace, dtype=bool)
        if self.metal_trace.shape != self.data.shape:
            raise ShapeError(
                f"metal trace shape {self.metal_trace.shape} != data {self.data.shape}")


@dataclass
class PhantomImage:
    pixels: np.ndarray
    metal_mask: np.ndarray = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        if self.metal_mask is None:
            self.metal_mask = np.zeros(self.pixels.shape, dtype=bool)
        self.metal_mask = np.asarray(self.metal_mask, dtype=bool)
        if self.metal_mask.shape != self.pixels.shape:
            raise ShapeError("metal mask shape does not match pixels")


_RAY_STEP = 0.5  # pixels along each ray
# Widening of the support box; a bilinear sample reads pixels less than 1 px
# away, so any margin above 1 px keeps every possibly non-zero sample inside.
_SUPPORT_PAD = 2


def _index_range(lo, hi, n):
    # indices covering [lo, hi] on a 0..n-1 grid, padded by one against
    # rounding in the sample coordinates
    return max(math.floor(lo) - 1, 0), min(math.ceil(hi) + 2, n)


def _line_integrals(img, geom):
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    if h != w:
        raise ShapeError(f"projector expects a square image, got {h}x{w}")
    c = (h - 1) / 2.0
    half = h / math.sqrt(2.0)
    n_samples = int(math.ceil(2 * half / _RAY_STEP)) + 1
    ts = np.linspace(-half, half, n_samples)
    step = ts[1] - ts[0]
    offs = geom.detector_offsets
    sino = np.zeros((geom.n_views, geom.n_detectors), dtype=np.float64)
    rows = np.flatnonzero(img.any(axis=1))
    if rows.size == 0:
        return sino
    cols = np.flatnonzero(img.any(axis=0))
    y_lo, y_hi = rows[0] - _SUPPORT_PAD, rows[-1] + _SUPPORT_PAD
    x_lo, x_hi = cols[0] - _SUPPORT_PAD, cols[-1] + _SUPPORT_PAD
    corners = [(x - c, y - c) for x in (x_lo, x_hi) for y in (y_lo, y_hi)]
    det_centre = (geom.n_detectors - 1) / 2.0
    buf = np.zeros((geom.n_detectors, n_samples), dtype=np.float64)
    for vi, phi in enumerate(geom.angles):
        ux, uy = math.cos(phi), math.sin(phi)
        vx, vy = -math.sin(phi), math.cos(phi)
        # the box corners, in detector and sample index units, bound the sub-grid
        dets = [(dx * ux + dy * uy) / geom.detector_spacing + det_centre
                for dx, dy in corners]
        samples = [(dx * vx + dy * vy + half) / step for dx, dy in corners]
        d0, d1 = _index_range(min(dets), max(dets), geom.n_detectors)
        s0, s1 = _index_range(min(samples), max(samples), n_samples)
        xs = c + offs[d0:d1, None] * ux + ts[None, s0:s1] * vx
        ys = c + offs[d0:d1, None] * uy + ts[None, s0:s1] * vy
        inside = (xs > x_lo) & (xs < x_hi) & (ys > y_lo) & (ys < y_hi)
        sub = buf[d0:d1, s0:s1]
        sub[inside] = ndimage.map_coordinates(img, [ys[inside], xs[inside]],
                                              order=1, mode="constant", cval=0.0)
        sino[vi, d0:d1] = buf[d0:d1].sum(axis=1)
        sub[...] = 0.0
    return sino * step


def radon_forward(img, geom):
    """Parallel-beam line integrals; linear in the image.

    Accepts a PhantomImage (its metal mask is forward projected into the
    trace) or a plain array (empty trace). The plain array is the bare
    operator, with which its linearity and agreement with a reference
    projector are checked.
    """
    if isinstance(img, PhantomImage):
        data = _line_integrals(img.pixels, geom)
        trace = _line_integrals(img.metal_mask.astype(np.float64), geom) > 0.0
        return Sinogram(data=data, metal_trace=trace)
    return Sinogram(data=_line_integrals(img, geom), metal_trace=None)


def _ramp_kernel(n, spacing):
    # discrete ramp filter kernel (band-limited |nu|), circularly wrapped
    h = np.zeros(n, dtype=np.float64)
    h[0] = 1.0 / (4.0 * spacing * spacing)
    ks = np.arange(1, n // 2 + 1)
    odd = ks[ks % 2 == 1]
    vals = -1.0 / (math.pi * odd * spacing) ** 2
    h[odd] = vals
    h[-odd] = vals
    return h


def fbp(sino, geom, image_size, clamp_negative=True):
    """Ramp-filtered backprojection onto an image_size x image_size grid.

    The reconstruction is linear in the sinogram before the final
    non-negativity clamp; pass clamp_negative=False for the raw values.
    The pipeline always clamps; the switch exists so that the linearity
    can be checked.
    """
    data = sino.data if isinstance(sino, Sinogram) else np.asarray(sino, dtype=np.float64)
    if data.shape != (geom.n_views, geom.n_detectors):
        raise ShapeError(f"sinogram shape {data.shape} does not match geometry "
                         f"({geom.n_views}, {geom.n_detectors})")

    npad = 1
    while npad < 2 * geom.n_detectors:
        npad *= 2
    kern = np.fft.rfft(_ramp_kernel(npad, geom.detector_spacing))
    padded = np.zeros((geom.n_views, npad), dtype=np.float64)
    padded[:, :geom.n_detectors] = data
    filtered = np.fft.irfft(np.fft.rfft(padded, axis=1) * kern[None, :], axis=1)
    filtered = filtered[:, :geom.n_detectors] * geom.detector_spacing

    c = (image_size - 1) / 2.0
    ys, xs = np.mgrid[0:image_size, 0:image_size]
    xs = xs - c
    ys = ys - c
    det_idx = np.arange(geom.n_detectors, dtype=np.float64)
    recon = np.zeros((image_size, image_size), dtype=np.float64)
    half = (geom.n_detectors - 1) / 2.0
    for vi, phi in enumerate(geom.angles):
        s = (xs * math.cos(phi) + ys * math.sin(phi)) / geom.detector_spacing + half
        recon += np.interp(s.ravel(), det_idx, filtered[vi], left=0.0, right=0.0) \
            .reshape(image_size, image_size)
    recon *= geom.angular_range / geom.n_views
    if clamp_negative:
        np.maximum(recon, 0.0, out=recon)
    return recon


def corrupt_metal(sino, severity, rng, noise_scale=0.02):
    """Beam-hardening surrogate inside the metal trace; identity outside.

    Trace values get v + severity * v^2/(1+v) plus zero-mean noise with
    standard deviation severity * noise_scale * v, drawn from rng. With
    noise_scale = 0 nothing is drawn, so rng is left as it was.
    """
    if severity < 0:
        raise ValueError(f"severity must be non-negative, got {severity}")
    data = sino.data.copy()
    tr = sino.metal_trace
    if severity > 0 and tr.any():
        v = data[tr]
        bump = severity * v * v / (1.0 + np.abs(v))
        if noise_scale > 0:
            bump = bump + severity * noise_scale * np.abs(v) * rng.standard_normal(v.size)
        data[tr] = v + bump
    return Sinogram(data=data, metal_trace=tr.copy())


def li_correct(sino):
    """Replace trace detectors per view by linear interpolation from the
    nearest untraced neighbors; views fully inside the trace fall back to
    the average of the nearest correctable neighbor views, with a warning.
    Untraced bins are returned bit for bit unchanged."""
    data = sino.data.copy()
    tr = sino.metal_trace
    n_views, n_det = data.shape
    idx = np.arange(n_det)
    full = []
    for vi in range(n_views):
        row_tr = tr[vi]
        if not row_tr.any():
            continue
        if row_tr.all():
            full.append(vi)
            continue
        data[vi, row_tr] = np.interp(idx[row_tr], idx[~row_tr], data[vi, ~row_tr])
    if full:
        warnings.warn(f"{len(full)} view(s) fully inside the metal trace; "
                      f"using neighbor-view averages", RuntimeWarning)
        ok = np.setdiff1d(np.arange(n_views), np.asarray(full))
        if ok.size == 0:
            raise ValueError("every view lies fully inside the metal trace")
        for vi in full:
            below = ok[ok < vi]
            above = ok[ok > vi]
            picks = [p for p in (below[-1] if below.size else None,
                                 above[0] if above.size else None) if p is not None]
            data[vi] = np.mean([data[p] for p in picks], axis=0)
    return Sinogram(data=data, metal_trace=tr.copy())


# ---------------------------------------------------------------------------
# metrics

def psnr(a, b, peak):
    """10*log10(peak^2 / MSE); +inf when the images are identical."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shape {a.shape} vs {b.shape}")
    if peak <= 0:
        raise ValueError(f"psnr peak must be positive, got {peak}")
    mse = np.mean((a - b) ** 2)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


SSIM_K1, SSIM_K2, SSIM_WINDOW = 0.01, 0.03, 8  # fixed, not per call


def ssim(a, b, data_range):
    """Mean structural similarity over all sliding SSIM_WINDOW-square patches.

    Uniform window, population statistics, C1 = (SSIM_K1*L)^2,
    C2 = (SSIM_K2*L)^2 with L = data_range.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"ssim: shape {a.shape} vs {b.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ShapeError(f"ssim: image smaller than {SSIM_WINDOW}x{SSIM_WINDOW} window")
    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2

    def win_mean(x):
        view = np.lib.stride_tricks.sliding_window_view(x, (SSIM_WINDOW, SSIM_WINDOW))
        return view.mean(axis=(2, 3))

    mu_a = win_mean(a)
    mu_b = win_mean(b)
    var_a = win_mean(a * a) - mu_a * mu_a
    var_b = win_mean(b * b) - mu_b * mu_b
    cov = win_mean(a * b) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# ---------------------------------------------------------------------------
# procedural phantoms

def _ellipse_mask(n, cy, cx, ry, rx, angle):
    ys, xs = np.mgrid[0:n, 0:n]
    ys = ys - cy
    xs = xs - cx
    ca, sa = math.cos(angle), math.sin(angle)
    u = ca * xs + sa * ys
    v = -sa * xs + ca * ys
    return (u / rx) ** 2 + (v / ry) ** 2 <= 1.0


def random_phantom(rng, n):
    """Soft-tissue background ellipse with random internal ellipses and bars."""
    img = np.zeros((n, n), dtype=np.float64)
    cy, cx = n / 2 + rng.uniform(-2, 2), n / 2 + rng.uniform(-2, 2)
    ry, rx = rng.uniform(0.33, 0.42) * n, rng.uniform(0.33, 0.42) * n
    body = _ellipse_mask(n, cy, cx, ry, rx, rng.uniform(0, math.pi))
    img[body] = rng.uniform(0.18, 0.25)
    for _ in range(int(rng.integers(2, 6))):
        ecy = cy + rng.uniform(-0.5, 0.5) * ry
        ecx = cx + rng.uniform(-0.5, 0.5) * rx
        er = rng.uniform(0.05, 0.22) * n
        m = _ellipse_mask(n, ecy, ecx, er, er * rng.uniform(0.5, 1.5),
                          rng.uniform(0, math.pi)) & body
        img[m] += rng.uniform(-0.12, 0.25)
    for _ in range(int(rng.integers(0, 3))):
        bcy = cy + rng.uniform(-0.4, 0.4) * ry
        bcx = cx + rng.uniform(-0.4, 0.4) * rx
        m = _ellipse_mask(n, bcy, bcx, rng.uniform(0.02, 0.05) * n,
                          rng.uniform(0.15, 0.3) * n, rng.uniform(0, math.pi)) & body
        img[m] += rng.uniform(0.05, 0.2)
    np.clip(img, 0.0, 0.7, out=img)
    return img, body


def random_metal_mask(rng, n, body):
    """1 to 3 small high-attenuation blobs inside the body region."""
    mask = np.zeros((n, n), dtype=bool)
    rows, cols = np.nonzero(body)
    k = int(rng.integers(1, 4))
    for _ in range(k):
        pick = int(rng.integers(rows.size))
        r = rng.uniform(1.5, 3.5)
        mask |= _ellipse_mask(n, rows[pick], cols[pick], r,
                              r * rng.uniform(0.7, 1.4), rng.uniform(0, math.pi))
    return mask & body


# ---------------------------------------------------------------------------
# dataset synthesis

@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 64
    severity: float = 0.2
    noise_scale: float = 0.02
    ratio: float = 0.15
    amax: float = 1.0
    seed: int = 0
    test_pairs: int = 8


@dataclass
class SynthPair:
    index: int
    artifact: np.ndarray
    clean: np.ndarray
    metal_pixels: int


@dataclass
class DatasetBundle:
    train: list
    test: list
    artifact_pool: list
    clean_pool: list
    geom: ScanGeometry
    cfg: SynthConfig


def _make_pair(index, rng, geom, cfg):
    n = cfg.image_size
    clean_px, body = random_phantom(rng, n)
    mask = random_metal_mask(rng, n, body)
    sino = radon_forward(PhantomImage(pixels=clean_px, metal_mask=mask), geom)
    corrupted = corrupt_metal(sino, cfg.severity, rng=rng, noise_scale=cfg.noise_scale)
    return SynthPair(index=index,
                     artifact=fbp(corrupted, geom, image_size=n).astype(np.float32),
                     clean=fbp(sino, geom, image_size=n).astype(np.float32),
                     metal_pixels=int(mask.sum()))


def synthesize_dataset(n_pairs, geom, cfg):
    """Paired pool plus disjoint unpaired pools at the configured ratio.

    The unpaired artifact pool takes the artifact images of the first
    round(ratio * n_pairs) training pairs; the clean pool takes the clean
    images of the remaining pairs, so no pair feeds both pools.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    if not 0.0 < cfg.ratio < 1.0:
        raise ValueError(f"ratio must lie strictly between 0 and 1, got {cfg.ratio}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    train = [_make_pair(i, rng, geom, cfg) for i in range(n_pairs)]
    test = [_make_pair(n_pairs + i, rng, geom, cfg) for i in range(cfg.test_pairs)]
    n_art = int(round(cfg.ratio * n_pairs))
    n_art = min(max(n_art, 1), n_pairs - 1) if n_pairs > 1 else n_pairs
    artifact_pool = list(range(0, n_art))
    clean_pool = list(range(n_art, n_pairs))
    return DatasetBundle(train=train, test=test, artifact_pool=artifact_pool,
                         clean_pool=clean_pool, geom=geom, cfg=cfg)


def write_pgm(path, img, lo, hi):
    """8-bit binary PGM of img, mapping [lo, hi] to [0, 255] with clipping."""
    img = np.asarray(img, dtype=np.float64)
    span = hi - lo if hi > lo else 1.0
    quant = np.clip((img - lo) / span * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(quant.tobytes())


def save_dataset(bundle, directory):
    """Write `manifest.json`, `pairs.npz` and per-pair PGM previews."""
    os.makedirs(directory, exist_ok=True)
    manifest = {
        "cfg": asdict(bundle.cfg),
        "geom": asdict(bundle.geom),
        "artifact_pool": bundle.artifact_pool,
        "clean_pool": bundle.clean_pool,
    }
    arrays = {}
    n = bundle.cfg.image_size
    for split, pairs in (("train", bundle.train), ("test", bundle.test)):
        manifest[split] = [{"index": p.index, "metal_pixels": p.metal_pixels}
                           for p in pairs]
        for kind in ("artifact", "clean"):
            arrays[f"{split}_{kind}"] = np.asarray(
                [getattr(p, kind) for p in pairs], dtype=np.float32).reshape(-1, n, n)
        sub = os.path.join(directory, split)
        os.makedirs(sub, exist_ok=True)
        for p in pairs:
            stem = os.path.join(sub, f"pair{p.index:04d}")
            write_pgm(stem + "_artifact.pgm", p.artifact, 0.0, bundle.cfg.amax)
            write_pgm(stem + "_clean.pgm", p.clean, 0.0, bundle.cfg.amax)
    with open(os.path.join(directory, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    np.savez(os.path.join(directory, "pairs.npz"), **arrays)


def load_dataset(directory):
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    with np.load(os.path.join(directory, "pairs.npz")) as arrays:
        splits = {
            split: [SynthPair(index=m["index"], artifact=art, clean=clean,
                              metal_pixels=m["metal_pixels"])
                    for m, art, clean in zip(manifest[split], arrays[f"{split}_artifact"],
                                             arrays[f"{split}_clean"], strict=True)]
            for split in ("train", "test")}
    return DatasetBundle(train=splits["train"], test=splits["test"],
                         artifact_pool=manifest["artifact_pool"],
                         clean_pool=manifest["clean_pool"],
                         geom=ScanGeometry(**manifest["geom"]),
                         cfg=SynthConfig(**manifest["cfg"]))


def normalize_image(img, amax):
    """Attenuation units -> [-1, 1] for the tanh-output networks."""
    return (2.0 * np.clip(np.asarray(img, dtype=np.float64) / amax, 0.0, 1.0) - 1.0) \
        .astype(np.float32)


def denormalize_image(img, amax):
    return ((np.asarray(img, dtype=np.float64) + 1.0) * 0.5 * amax).astype(np.float64)
