"""Desk-scale CT pipeline: parallel-beam projector, filtered backprojection,
metal-trace corruption, the per-view linear-interpolation baseline, procedural
phantoms, in-memory dataset synthesis, and PSNR/SSIM metrics.

Corruption model: the clean sinogram is modified only inside the metal trace
(the forward projection of the metal mask) with a monotone concave
nonlinearity v -> v + severity * v^2 / (1 + v) plus noise proportional to
severity and the local value. Zero severity therefore reproduces the clean
reconstruction bit for bit, so each synthesized artifact image differs from
its clean partner only through this pipeline.

Projector: each ray is sampled every half pixel. A sample at (y, x) is 0.0
unless both coordinates lie in [0, n-1], bounds included; this is the rule of
scipy's `map_coordinates(order=1, mode="constant")`, so a sample within one
pixel outside the edge is 0.0 too, not a blend with zero. Inside, the sample
is bilinear in its four neighbours, read from a copy of the image padded by
one zero row and column (at y or x exactly n-1 that zero has weight 0). The
sinogram stays bit for bit the one `map_coordinates` gives only while the
kernel keeps its arithmetic:
  wy0 = 1 - (y - floor(y)), wy1 = 1 - wy0 (not y - floor(y)); likewise for x;
  (((p00*wy0)*wx0 + (p01*wy0)*wx1) + (p10*wy1)*wx0) + (p11*wy1)*wx1,
  with no precomputed wy*wx products, which round differently.
Only the samples inside the image's support box (the bounding box of its
non-zero pixels, widened by 2 px and clipped to [0, n-1], bounds included)
are evaluated. Every other sample has four zero neighbours or lies outside
[0, n-1], so it is exactly 0.0; it stays 0.0 in a full per-view buffer whose
rows are summed, so each ray is summed over the same samples in the same
order as when every sample is evaluated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError
from .networks import PATCH_SIZE


@dataclass(frozen=True)
class ScanGeometry:
    """Parallel-beam scan: n_views angles evenly spaced over [0, pi), and
    n_detectors bins detector_spacing pixels apart."""

    n_views: int = 180
    n_detectors: int = 128
    detector_spacing: float = 0.75

    def __post_init__(self):
        if self.n_views < 1:
            raise ValueError(f"need at least one view, got {self.n_views}")
        if self.n_detectors < 2:
            raise ValueError(f"need at least two detectors, got {self.n_detectors}")
        if not 0.0 < self.detector_spacing < math.inf:  # NaN fails the range test
            raise ValueError(f"detector spacing must be finite and positive, "
                             f"got {self.detector_spacing}")

    @property
    def angles(self):
        return np.arange(self.n_views) * (math.pi / self.n_views)

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
        self.metal_trace = np.asarray(self.metal_trace, dtype=bool)
        if self.metal_trace.shape != self.data.shape:
            raise ShapeError(
                f"metal trace shape {self.metal_trace.shape} != data {self.data.shape}")


@dataclass
class PhantomImage:
    pixels: np.ndarray
    metal_mask: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float64)
        self.metal_mask = np.asarray(self.metal_mask, dtype=bool)
        if self.metal_mask.shape != self.pixels.shape:
            raise ShapeError("metal mask shape does not match pixels")


_RAY_STEP = 0.5  # pixels along each ray
# Widening of the support box; a bilinear sample reads pixels less than 1 px
# away, so any margin of at least 1 px keeps every possibly non-zero sample
# inside.
_SUPPORT_PAD = 2


def _index_range(lo, hi, n):
    # indices covering [lo, hi] on a 0..n-1 grid, padded by one against
    # rounding in the sample coordinates
    return max(math.floor(lo) - 1, 0), min(math.ceil(hi) + 2, n)


def _support_box(img):
    """Inclusive bounds (y_lo, y_hi, x_lo, x_hi) of the samples the projector
    evaluates: the bounding box of img's non-zero pixels, widened by
    _SUPPORT_PAD and clipped to the sampling domain [0, n-1]. None when img
    is all zero."""
    rows = np.flatnonzero(img.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(img.any(axis=0))
    top = img.shape[0] - 1
    return (max(rows[0] - _SUPPORT_PAD, 0), min(rows[-1] + _SUPPORT_PAD, top),
            max(cols[0] - _SUPPORT_PAD, 0), min(cols[-1] + _SUPPORT_PAD, top))


def _bilinear(padded, ys, xs):
    """Bilinear samples at (ys, xs), all inside [0, n-1]^2, of the n x n image
    whose copy zero-padded by one row and one column is `padded`.

    Weights and operation order are `map_coordinates(order=1)`'s, so the
    values are bit for bit its values (see the module docstring).
    """
    flat = padded.ravel()
    stride = padded.shape[1]
    iy = ys.astype(np.intp)  # floor, since the coordinates are >= 0
    ix = xs.astype(np.intp)
    wy0 = 1.0 - (ys - iy)
    wy1 = 1.0 - wy0
    wx0 = 1.0 - (xs - ix)
    wx1 = 1.0 - wx0
    k = iy * stride + ix
    # (((p00*wy0)*wx0 + (p01*wy0)*wx1) + (p10*wy1)*wx0) + (p11*wy1)*wx1,
    # each term built in place in one scratch array; k is in range, and
    # take(mode="clip") writes into `term` without an intermediate buffer
    out = flat.take(k)
    out *= wy0
    out *= wx0
    term = np.empty_like(out)
    for shift, wy, wx in ((1, wy0, wx1), (stride, wy1, wx0), (stride + 1, wy1, wx1)):
        flat[shift:].take(k, out=term, mode="clip")
        term *= wy
        term *= wx
        out += term
    return out


def _line_integrals(img, geom):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ShapeError(f"projector expects a square 2-D image, got shape {img.shape}")
    n = img.shape[0]
    c = (n - 1) / 2.0
    half = n / math.sqrt(2.0)
    n_samples = int(math.ceil(2 * half / _RAY_STEP)) + 1
    ts = np.linspace(-half, half, n_samples)
    step = ts[1] - ts[0]
    offs = geom.detector_offsets
    sino = np.zeros((geom.n_views, geom.n_detectors), dtype=np.float64)
    box = _support_box(img)
    if box is None:
        return sino
    y_lo, y_hi, x_lo, x_hi = box
    padded = np.pad(img, ((0, 1), (0, 1)))
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
        inside = (xs >= x_lo) & (xs <= x_hi) & (ys >= y_lo) & (ys <= y_hi)
        sub = buf[d0:d1, s0:s1]
        sub[inside] = _bilinear(padded, ys[inside], xs[inside])
        sino[vi, d0:d1] = buf[d0:d1].sum(axis=1)
        sub[...] = 0.0
    return sino * step


def radon_forward(phantom, geom):
    """Parallel-beam line integrals of a PhantomImage, linear in its pixels.
    The rays with a positive integral through its metal mask form the trace."""
    data = _line_integrals(phantom.pixels, geom)
    trace = _line_integrals(phantom.metal_mask.astype(np.float64), geom) > 0.0
    return Sinogram(data=data, metal_trace=trace)


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


def fbp(sino, geom, image_size):
    """Ramp-filtered backprojection of a Sinogram onto an image_size-square
    grid, clamped at zero. It is linear before the clamp, so scaling the
    sinogram by c >= 0 scales the image by c."""
    data = sino.data
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
    recon *= math.pi / geom.n_views
    np.maximum(recon, 0.0, out=recon)
    return recon


def corrupt_metal(sino, severity, rng, noise_scale):
    """Beam-hardening surrogate inside the metal trace; identity outside.

    Trace values get v + severity * v^2/(1+v) plus zero-mean noise with
    standard deviation severity * noise_scale * v, drawn from rng. With
    noise_scale = 0 nothing is drawn, so rng is left as it was.
    """
    # a comparison with NaN is False, so NaN fails each range test
    if not 0.0 <= severity < math.inf:
        raise ValueError(f"severity must be finite and non-negative, got {severity}")
    if not 0.0 <= noise_scale < math.inf:
        raise ValueError(f"noise scale must be finite and non-negative, got {noise_scale}")
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
    """Linear-interpolation (LI) baseline: each view's traced bins are
    interpolated from its untraced bins, which are returned bit for bit.
    Raises ValueError naming the views that lie fully inside the trace."""
    data = sino.data.copy()
    tr = sino.metal_trace
    full = np.flatnonzero(tr.all(axis=1))
    if full.size:
        raise ValueError(f"views {full.tolist()} lie fully inside the metal trace")
    idx = np.arange(data.shape[1])
    for vi in np.flatnonzero(tr.any(axis=1)):
        row_tr = tr[vi]
        data[vi, row_tr] = np.interp(idx[row_tr], idx[~row_tr], data[vi, ~row_tr])
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

# Share of the training pairs whose artifact images form the unpaired
# artifact pool; the clean images of the rest form the clean pool.
UNPAIRED_RATIO = 0.15


@dataclass(frozen=True)
class SynthConfig:
    image_size: int = 64
    severity: float = 0.2
    noise_scale: float = 0.02
    amax: float = 1.0
    seed: int = 0
    test_pairs: int = 8

    def __post_init__(self):
        # the images feed the network, whose encoders halve each extent down
        # to one code location per patch; reject a size they cannot take
        # before minutes of synthesis rather than at the first forward
        if self.image_size < PATCH_SIZE or self.image_size % PATCH_SIZE:
            raise ValueError(f"image size must be a positive multiple of {PATCH_SIZE}, "
                             f"got {self.image_size}")
        # a comparison with NaN is False, so NaN fails each range test
        if not 0.0 <= self.severity < math.inf:
            raise ValueError(f"severity must be finite and non-negative, got {self.severity}")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise scale must be finite and non-negative, "
                             f"got {self.noise_scale}")
        if not 0.0 < self.amax < math.inf:
            raise ValueError(f"amax must be finite and positive, got {self.amax}")
        if self.test_pairs < 0:
            raise ValueError(f"test pair count must be >= 0, got {self.test_pairs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class SynthPair:
    index: int
    artifact: np.ndarray
    clean: np.ndarray


@dataclass
class DatasetBundle:
    train: list
    test: list
    artifact_pool: list
    clean_pool: list
    cfg: SynthConfig


def _make_pair(index, rng, geom, cfg):
    n = cfg.image_size
    clean_px, body = random_phantom(rng, n)
    mask = random_metal_mask(rng, n, body)
    sino = radon_forward(PhantomImage(pixels=clean_px, metal_mask=mask), geom)
    corrupted = corrupt_metal(sino, cfg.severity, rng=rng, noise_scale=cfg.noise_scale)
    return SynthPair(index=index,
                     artifact=fbp(corrupted, geom, image_size=n).astype(np.float32),
                     clean=fbp(sino, geom, image_size=n).astype(np.float32))


def synthesize_dataset(n_pairs, geom, cfg):
    """Paired pool plus disjoint unpaired pools at UNPAIRED_RATIO.

    The unpaired artifact pool takes the artifact images of the first
    round(UNPAIRED_RATIO * n_pairs) training pairs, clamped to
    [1, n_pairs - 1]; the clean pool takes the clean images of the rest, so
    no pair feeds both pools. One pair goes to the artifact pool and leaves
    the clean pool empty.
    """
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    train = [_make_pair(i, rng, geom, cfg) for i in range(n_pairs)]
    test = [_make_pair(n_pairs + i, rng, geom, cfg) for i in range(cfg.test_pairs)]
    n_art = int(round(UNPAIRED_RATIO * n_pairs))
    n_art = min(max(n_art, 1), n_pairs - 1) if n_pairs > 1 else n_pairs
    artifact_pool = list(range(0, n_art))
    clean_pool = list(range(n_art, n_pairs))
    return DatasetBundle(train=train, test=test, artifact_pool=artifact_pool,
                         clean_pool=clean_pool, cfg=cfg)


def normalize_image(img, amax):
    """Attenuation units -> [-1, 1] for the tanh-output networks."""
    return (2.0 * np.clip(np.asarray(img, dtype=np.float64) / amax, 0.0, 1.0) - 1.0) \
        .astype(np.float32)


def denormalize_image(img, amax):
    return ((np.asarray(img, dtype=np.float64) + 1.0) * 0.5 * amax).astype(np.float64)
