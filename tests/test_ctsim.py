import math
import re

import numpy as np
import pytest
from scipy import ndimage

from patchmar import ctsim as ct
from patchmar.autodiff import ShapeError


def geom_small():
    return ct.ScanGeometry(n_views=60, n_detectors=96, detector_spacing=1.0)


def disk_image(n=64, r=20):
    ys, xs = np.mgrid[0:n, 0:n]
    c = (n - 1) / 2
    return (((ys - c) ** 2 + (xs - c) ** 2) <= r * r).astype(np.float64)


def project(img, geom):
    """radon_forward of img as a phantom without metal."""
    img = np.asarray(img, dtype=np.float64)
    return ct.radon_forward(ct.PhantomImage(pixels=img, metal_mask=np.zeros(img.shape, bool)),
                            geom)


def untraced(data):
    """A Sinogram of data with an empty metal trace."""
    data = np.asarray(data, dtype=np.float64)
    return ct.Sinogram(data=data, metal_trace=np.zeros(data.shape, dtype=bool))


# -------------------------------------------------------------------- radon

@pytest.mark.parametrize("kwargs,message", [
    (dict(n_views=0), "at least one view, got 0"),
    (dict(n_detectors=1), "at least two detectors, got 1"),
    (dict(detector_spacing=0.0), "finite and positive, got 0.0"),
    (dict(detector_spacing=-0.5), "finite and positive, got -0.5"),
    (dict(detector_spacing=math.nan), "finite and positive, got nan"),
    (dict(detector_spacing=math.inf), "finite and positive, got inf")])
def test_scan_geometry_rejects_a_bad_setting(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ct.ScanGeometry(**kwargs)


def test_phantom_rejects_a_mask_of_another_shape():
    with pytest.raises(ShapeError, match="metal mask shape"):
        ct.PhantomImage(pixels=np.zeros((16, 16)), metal_mask=np.zeros((16, 8), bool))


def test_radon_zero_image_gives_zero_sinogram():
    sino = project(np.zeros((32, 32)), geom_small())
    assert np.array_equal(sino.data, np.zeros_like(sino.data))
    assert not sino.metal_trace.any()


def test_radon_disk_central_chord_length():
    geom = ct.ScanGeometry(n_views=24, n_detectors=95, detector_spacing=1.0)
    r = 20
    sino = project(disk_image(64, r), geom)
    centre = (geom.n_detectors - 1) // 2
    chord = sino.data[:, centre]
    assert np.all(np.abs(chord - 2 * r) / (2 * r) < 0.02)


def test_radon_is_linear():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (32, 32))
    g = geom_small()
    one = project(img, g).data
    two = project(2.0 * img, g).data
    assert np.array_equal(two, 2.0 * one)


def test_radon_rotation_permutes_views():
    # a 90-degree image rotation shifts views by half the [0, pi) range;
    # wrapped views see the same lines with the detector axis reversed
    geom = ct.ScanGeometry(n_views=40, n_detectors=95, detector_spacing=1.0)
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (48, 48))
    base = project(img, geom).data
    rot = project(np.rot90(img), geom).data
    h = geom.n_views // 2
    want = np.concatenate([base[h:], base[:h, ::-1]], axis=0)
    denom = max(np.abs(base).max(), 1e-12)
    assert np.abs(rot - want).max() / denom < 1e-3


def test_radon_rejects_non_square():
    with pytest.raises(ShapeError):
        project(np.zeros((32, 16)), geom_small())


def reference_line_integrals(img, geom):
    """The projector evaluating every ray sample, one view at a time."""
    img = np.asarray(img, dtype=np.float64)
    h = img.shape[0]
    c = (h - 1) / 2.0
    half = h / math.sqrt(2.0)
    n_samples = int(math.ceil(2 * half / ct._RAY_STEP)) + 1
    ts = np.linspace(-half, half, n_samples)
    offs = geom.detector_offsets
    sino = np.empty((geom.n_views, geom.n_detectors), dtype=np.float64)
    for vi, phi in enumerate(geom.angles):
        ux, uy = math.cos(phi), math.sin(phi)
        vx, vy = -math.sin(phi), math.cos(phi)
        xs = c + offs[:, None] * ux + ts[None, :] * vx
        ys = c + offs[:, None] * uy + ts[None, :] * vy
        vals = ndimage.map_coordinates(img, [ys.ravel(), xs.ravel()],
                                       order=1, mode="constant", cval=0.0)
        sino[vi] = vals.reshape(geom.n_detectors, n_samples).sum(axis=1)
    return sino * (ts[1] - ts[0])


PROJECTOR_GEOMS = {
    "180x128": ct.ScanGeometry(),
    "45x64": ct.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5),
    "7x9": ct.ScanGeometry(n_views=7, n_detectors=9, detector_spacing=3.0),
}


def assert_projector_matches_reference(images, geom):
    for name, img in images.items():
        got = ct._line_integrals(img, geom)
        assert np.array_equal(got, reference_line_integrals(img, geom)), name


@pytest.mark.parametrize("geom", PROJECTOR_GEOMS.values(), ids=PROJECTOR_GEOMS.keys())
def test_projector_matches_reference_on_phantoms_and_masks(geom):
    images = {}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        clean, body = ct.random_phantom(rng, 64)
        images[f"phantom {seed}"] = clean
        images[f"metal {seed}"] = ct.random_metal_mask(rng, 64, body).astype(np.float64)
    assert_projector_matches_reference(images, geom)


@pytest.mark.parametrize("geom", PROJECTOR_GEOMS.values(), ids=PROJECTOR_GEOMS.keys())
def test_projector_matches_reference_at_borders_and_full_support(geom):
    n = 64
    images = {}
    for r in (0, n // 2, n - 1):
        for c in (0, n // 2, n - 1):
            if (r, c) != (n // 2, n // 2):
                mask = np.zeros((n, n))
                mask[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2] = 1.0
                images[f"mask at ({r}, {c})"] = mask
    rng = np.random.default_rng(20)
    images["fully non-zero"] = rng.uniform(0.1, 1.0, (n, n))
    images["negative values"] = np.where(disk_image(n, 12) > 0, -0.7, 0.0)
    images["all zero"] = np.zeros((n, n))
    assert_projector_matches_reference(images, geom)


def edge_and_random_coordinates(n, rng):
    """Sample coordinates (ys, xs): every pair of the edge and interior values
    below, 10^5 random points over [-2, n+1]^2, and 10^4 in [0, 1/3)^2.

    The last set has fractions with bits below 2^-53, where 1 - (1 - f) != f;
    elsewhere the fractions are too coarse to tell the two weights apart.
    """
    tiny = np.nextafter(0.0, 1.0)
    edge = [0.0, -0.0, -tiny, -np.spacing(1.0), n - 1.0,
            np.nextafter(n - 1.0, 0.0), np.nextafter(n - 1.0, n),
            1.0, 17.0, n - 2.0, 0.5, 16.5, n - 1.5]
    ey, ex = (a.ravel() for a in np.meshgrid(edge, edge, indexing="ij"))
    ry, rx = rng.uniform(-2.0, n + 1.0, (2, 100_000))
    fy, fx = rng.random((2, 10_000)) / 3.0
    return np.concatenate([ey, ry, fy]), np.concatenate([ex, rx, fx])


def test_bilinear_kernel_matches_map_coordinates_bit_for_bit():
    # what _line_integrals evaluates: the kernel on the samples inside the
    # support box, which for a fully non-zero image is the domain [0, n-1]^2,
    # and 0.0 on every other sample
    n = 64
    rng = np.random.default_rng(21)
    img = rng.uniform(-1.0, 1.0, (n, n))
    ys, xs = edge_and_random_coordinates(n, rng)
    y_lo, y_hi, x_lo, x_hi = ct._support_box(img)
    inside = (ys >= y_lo) & (ys <= y_hi) & (xs >= x_lo) & (xs <= x_hi)
    got = np.zeros(ys.size)
    got[inside] = ct._bilinear(np.pad(img, ((0, 1), (0, 1))), ys[inside], xs[inside])
    want = ndimage.map_coordinates(img, [ys, xs], order=1, mode="constant", cval=0.0)
    assert got.tobytes() == want.tobytes()
    # map_coordinates gives 0 in the band within one pixel outside the edge,
    # not a blend with zero, and the points reach that band
    band = (np.minimum(ys, xs) > -1.0) & (np.maximum(ys, xs) < n) & ~inside
    assert band.sum() > 1000 and not want[band].any()


@pytest.mark.parametrize("shape", [(2, 16, 16), (16,)])
def test_radon_rejects_a_non_2d_image_naming_its_shape(shape):
    with pytest.raises(ShapeError, match=re.escape(str(shape))):
        project(np.ones(shape), geom_small())


# ---------------------------------------------------------------------- fbp

def test_sinogram_requires_a_trace():
    with pytest.raises(ShapeError):
        ct.Sinogram(data=np.zeros((4, 8)), metal_trace=None)


def test_fbp_rejects_a_sinogram_of_another_geometry():
    g = geom_small()
    with pytest.raises(ShapeError, match=r"does not match geometry \(60, 96\)"):
        ct.fbp(untraced(np.zeros((g.n_views, g.n_detectors - 1))), g, image_size=32)


def test_fbp_zero_sinogram_gives_zero_image():
    g = geom_small()
    rec = ct.fbp(untraced(np.zeros((g.n_views, g.n_detectors))), g, image_size=32)
    assert np.array_equal(rec, np.zeros((32, 32)))


def test_fbp_preclamp_linearity():
    # linear before the clamp at zero, so positively homogeneous after it
    g = geom_small()
    rng = np.random.default_rng(2)
    data = rng.standard_normal((g.n_views, g.n_detectors))
    r1 = ct.fbp(untraced(data), g, image_size=32)
    r3 = ct.fbp(untraced(3.0 * data), g, image_size=32)
    assert r1.min() == 0.0 and r1.max() > 0.0
    assert np.allclose(r3, 3.0 * r1, rtol=1e-12, atol=1e-12)


def test_fbp_roundtrip_disk_psnr():
    geom = ct.ScanGeometry(n_views=180)
    disk = disk_image()
    rec = ct.fbp(project(disk, geom), geom, image_size=64)
    assert ct.psnr(rec, disk, peak=1.0) >= 25.0


# ------------------------------------------------------------------ corrupt

def _metal_setup(rng, severity, geom=None):
    geom = geom or ct.ScanGeometry(n_views=90)
    clean, body = ct.random_phantom(rng, 64)
    mask = ct.random_metal_mask(rng, 64, body)
    phantom = ct.PhantomImage(pixels=np.where(mask, 4.0, clean), metal_mask=mask)
    sino_clean = project(clean, geom)
    trace = ct.radon_forward(phantom, geom).metal_trace
    sino = ct.Sinogram(data=sino_clean.data, metal_trace=trace)
    return geom, clean, sino, ct.corrupt_metal(sino, severity, rng=rng, noise_scale=0.02)


def test_corrupt_severity_zero_is_identity():
    rng = np.random.default_rng(3)
    _, _, sino, corrupted = _metal_setup(rng, 0.0)
    assert np.array_equal(corrupted.data, sino.data)


def test_corrupt_empty_trace_is_identity():
    g = geom_small()
    rng = np.random.default_rng(4)
    sino = untraced(rng.uniform(0, 5, (g.n_views, g.n_detectors)))
    out = ct.corrupt_metal(sino, 1.0, rng=rng, noise_scale=0.02)
    assert np.array_equal(out.data, sino.data)


@pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize("arg", ["severity", "noise_scale"])
def test_corrupt_rejects_a_negative_or_non_finite_amount(arg, value):
    # a NaN severity once returned the sinogram unchanged, an infinite one
    # non-finite data, and a NaN or negative noise scale skipped the noise
    g = geom_small()
    sino = untraced(np.zeros((g.n_views, g.n_detectors)))
    sino.metal_trace[:, 40:50] = True
    amounts = dict(severity=0.2, noise_scale=0.02) | {arg: value}
    name = arg.replace("_", " ")
    with pytest.raises(ValueError, match=f"{name} must be finite and non-negative, got {value}"):
        ct.corrupt_metal(sino, amounts["severity"], np.random.default_rng(0),
                         amounts["noise_scale"])


def test_corrupt_without_noise_draws_nothing():
    g = geom_small()
    rng = np.random.default_rng(8)
    sino = untraced(rng.uniform(0, 5, (g.n_views, g.n_detectors)))
    sino.metal_trace[:, 40:50] = True
    state = rng.bit_generator.state
    out = ct.corrupt_metal(sino, 0.5, rng=rng, noise_scale=0.0)
    assert rng.bit_generator.state == state
    v = sino.data[sino.metal_trace]
    want = sino.data.copy()
    want[sino.metal_trace] = v + 0.5 * v * v / (1.0 + np.abs(v))
    assert np.array_equal(out.data, want)
    ct.corrupt_metal(sino, 0.5, rng=rng, noise_scale=0.02)
    assert rng.bit_generator.state != state  # noise does draw


def test_corrupt_lowers_fbp_psnr():
    rng = np.random.default_rng(5)
    geom, clean, sino, corrupted = _metal_setup(rng, 1.0)
    rec_clean_path = ct.fbp(sino, geom, image_size=64)
    rec_corrupt = ct.fbp(corrupted, geom, image_size=64)
    peak = float(clean.max()) or 1.0
    assert ct.psnr(rec_corrupt, clean, peak) < ct.psnr(rec_clean_path, clean, peak)


def test_corrupt_touches_only_trace():
    rng = np.random.default_rng(6)
    _, _, sino, corrupted = _metal_setup(rng, 1.0)
    outside = ~sino.metal_trace
    assert np.array_equal(corrupted.data[outside], sino.data[outside])


# ----------------------------------------------------------------------- li

def test_li_hand_case():
    data = np.zeros((1, 20))
    data[0, 9] = 1.0
    data[0, 13] = 5.0
    trace = np.zeros((1, 20), dtype=bool)
    trace[0, 10:13] = True
    out = ct.li_correct(ct.Sinogram(data=data, metal_trace=trace))
    assert np.allclose(out.data[0, 10:13], [2.0, 3.0, 4.0])


def test_li_empty_trace_is_identity():
    rng = np.random.default_rng(7)
    data = rng.uniform(0, 5, (6, 30))
    out = ct.li_correct(untraced(data))
    assert np.array_equal(out.data, data)


def test_li_untraced_bins_bit_exact():
    rng = np.random.default_rng(8)
    data = rng.uniform(0, 5, (8, 40))
    trace = rng.uniform(size=(8, 40)) < 0.2
    trace[:, 0] = False  # keep at least one anchor per view
    out = ct.li_correct(ct.Sinogram(data=data, metal_trace=trace))
    assert np.array_equal(out.data[~trace], data[~trace])


def test_li_full_view_raises_naming_it():
    # a view with no untraced bin has nothing to interpolate from
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    trace = np.zeros((3, 4), dtype=bool)
    trace[1] = True
    trace[2, 1] = True
    with pytest.raises(ValueError, match=r"views \[1\] lie fully inside"):
        ct.li_correct(ct.Sinogram(data=data, metal_trace=trace))


@pytest.mark.parametrize("geom", [ct.ScanGeometry(), PROJECTOR_GEOMS["45x64"]],
                         ids=["180x128", "45x64"])
def test_outer_rays_miss_a_64px_image_so_no_view_is_fully_traced(geom):
    # the synthesis and training scans: the outermost rays pass farther from
    # the centre than a 64x64 image's half-diagonal, so li_correct never raises
    n = 64
    phantom = ct.PhantomImage(pixels=np.ones((n, n)), metal_mask=np.ones((n, n), bool))
    sino = ct.radon_forward(phantom, geom)
    assert not sino.metal_trace[:, [0, -1]].any()
    ct.li_correct(sino)


def test_li_improves_fbp_psnr_end_to_end():
    rng = np.random.default_rng(9)
    geom, clean, _, corrupted = _metal_setup(rng, 1.0)
    rec_corrupt = ct.fbp(corrupted, geom, image_size=64)
    rec_li = ct.fbp(ct.li_correct(corrupted), geom, image_size=64)
    peak = float(clean.max()) or 1.0
    assert ct.psnr(rec_li, clean, peak) > ct.psnr(rec_corrupt, clean, peak)


# ------------------------------------------------------------------ metrics

def test_psnr_identical_is_infinite():
    a = np.ones((8, 8))
    assert ct.psnr(a, a, peak=1.0) == math.inf


def test_psnr_constant_offset_analytic():
    a = np.zeros((16, 16))
    b = np.full((16, 16), 0.1)
    assert abs(ct.psnr(a, b, peak=1.0) - 20.0) < 1e-9


def test_psnr_matches_formula_oracle():
    rng = np.random.default_rng(10)
    a = rng.uniform(0, 1, (12, 12))
    b = rng.uniform(0, 1, (12, 12))
    mse = np.mean((a - b) ** 2)
    want = 10 * math.log10(2.5 ** 2 / mse)
    assert abs(ct.psnr(a, b, peak=2.5) - want) < 1e-9


def test_psnr_symmetry_and_errors():
    rng = np.random.default_rng(11)
    a = rng.uniform(size=(8, 8))
    b = rng.uniform(size=(8, 8))
    assert ct.psnr(a, b, 1.0) == ct.psnr(b, a, 1.0)
    with pytest.raises(ShapeError):
        ct.psnr(a, b[:4], 1.0)
    with pytest.raises(ValueError):
        ct.psnr(a, b, 0.0)


def ssim_loop_oracle(a, b, data_range, k1=0.01, k2=0.03, window=8):
    c1 = (k1 * data_range) ** 2
    c2 = (k2 * data_range) ** 2
    h, w = a.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            pa = a[i:i + window, j:j + window]
            pb = b[i:i + window, j:j + window]
            mu_a, mu_b = pa.mean(), pb.mean()
            va = (pa * pa).mean() - mu_a ** 2
            vb = (pb * pb).mean() - mu_b ** 2
            cov = (pa * pb).mean() - mu_a * mu_b
            vals.append(((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                        / ((mu_a ** 2 + mu_b ** 2 + c1) * (va + vb + c2)))
    return float(np.mean(vals))


def test_ssim_rejects_an_image_smaller_than_its_window():
    small = np.zeros((ct.SSIM_WINDOW, ct.SSIM_WINDOW - 1))
    with pytest.raises(ShapeError, match="smaller than 8x8 window"):
        ct.ssim(small, small, data_range=1.0)


def test_ssim_rejects_images_of_different_shapes():
    with pytest.raises(ShapeError, match=r"ssim: shape \(12, 12\) vs \(12, 10\)"):
        ct.ssim(np.zeros((12, 12)), np.zeros((12, 10)), data_range=1.0)


def test_ssim_identical_is_one():
    rng = np.random.default_rng(12)
    a = rng.uniform(size=(16, 16))
    assert abs(ct.ssim(a, a, data_range=1.0) - 1.0) < 1e-12


def test_ssim_negative_for_anticorrelated_zero_mean():
    # alternating-sign stripes give every 8x8 window an exactly zero mean,
    # so the luminance factor is 1 and the anticorrelation drives the sign
    a = np.where(np.arange(24)[:, None] % 2 == 0, 0.5, -0.5) * np.ones((24, 24))
    assert ct.ssim(a, -a, data_range=1.0) <= 0.0


def test_ssim_matches_window_loop_oracle():
    rng = np.random.default_rng(14)
    a = rng.uniform(size=(20, 20))
    b = rng.uniform(size=(20, 20))
    got = ct.ssim(a, b, data_range=1.0)
    want = ssim_loop_oracle(a, b, 1.0)
    assert abs(got - want) < 1e-6


def test_ssim_symmetry():
    rng = np.random.default_rng(15)
    a = rng.uniform(size=(16, 16))
    b = rng.uniform(size=(16, 16))
    assert abs(ct.ssim(a, b, 1.0) - ct.ssim(b, a, 1.0)) < 1e-12


# ------------------------------------------------------------------ dataset

def small_cfg(**kw):
    base = dict(image_size=32, severity=0.2, seed=7, test_pairs=2)
    base.update(kw)
    return ct.SynthConfig(**base)


def small_scan():
    return ct.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=0.75)


def test_synth_pool_counts_and_disjoint_provenance():
    bundle = ct.synthesize_dataset(16, small_scan(), small_cfg())
    assert ct.UNPAIRED_RATIO == 0.15
    assert bundle.artifact_pool == [0, 1]  # round(0.15 * 16)
    assert bundle.clean_pool == list(range(2, 16))
    assert len(bundle.train) == 16 and len(bundle.test) == 2
    # the artifact pool is clamped to [1, n_pairs - 1]; one pair leaves the
    # clean pool empty
    for n, art, clean in ((1, [0], []), (2, [0], [1])):
        bundle = ct.synthesize_dataset(n, small_scan(), small_cfg(test_pairs=0))
        assert (bundle.artifact_pool, bundle.clean_pool) == (art, clean)


def test_synth_same_seed_is_identical():
    b1 = ct.synthesize_dataset(4, small_scan(), small_cfg())
    b2 = ct.synthesize_dataset(4, small_scan(), small_cfg())
    for p1, p2 in zip(b1.train + b1.test, b2.train + b2.test):
        assert np.array_equal(p1.artifact, p2.artifact)
        assert np.array_equal(p1.clean, p2.clean)


def test_synth_zero_severity_reproduces_clean_fbp():
    bundle = ct.synthesize_dataset(3, small_scan(), small_cfg(severity=0.0))
    for p in bundle.train:
        assert np.array_equal(p.artifact, p.clean)


def test_synth_matches_reference_projector(monkeypatch):
    geom = PROJECTOR_GEOMS["45x64"]
    cfg = ct.SynthConfig(seed=3, test_pairs=1)
    bundle = ct.synthesize_dataset(3, geom, cfg)
    monkeypatch.setattr(ct, "_line_integrals", reference_line_integrals)
    want = ct.synthesize_dataset(3, geom, cfg)
    for split in ("train", "test"):
        for p1, p2 in zip(getattr(bundle, split), getattr(want, split), strict=True):
            assert np.array_equal(p1.artifact, p2.artifact)
            assert np.array_equal(p1.clean, p2.clean)


def test_synth_rejects_bad_args():
    with pytest.raises(ValueError, match="at least one pair"):
        ct.synthesize_dataset(0, small_scan(), small_cfg())


@pytest.mark.parametrize("kwargs,message", [
    (dict(severity=-0.1), "severity must be finite and non-negative, got -0.1"),
    (dict(severity=math.nan), "severity must be finite and non-negative, got nan"),
    (dict(severity=math.inf), "severity must be finite and non-negative, got inf"),
    (dict(noise_scale=-0.1), "noise scale must be finite and non-negative, got -0.1"),
    (dict(noise_scale=math.nan), "noise scale must be finite and non-negative, got nan"),
    (dict(noise_scale=math.inf), "noise scale must be finite and non-negative, got inf"),
    (dict(amax=0.0), "amax must be finite and positive, got 0.0"),
    (dict(amax=-1.0), "amax must be finite and positive, got -1.0"),
    (dict(amax=math.nan), "amax must be finite and positive, got nan"),
    (dict(amax=math.inf), "amax must be finite and positive, got inf"),
    (dict(test_pairs=-3), "test pair count must be >= 0, got -3"),
    (dict(seed=-1), "seed must be >= 0, got -1")])
def test_synth_config_rejects_a_bad_setting_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ct.SynthConfig(**kwargs)


def test_synth_config_accepts_the_limits_of_its_ranges():
    cfg = ct.SynthConfig(severity=0.0, noise_scale=0.0, test_pairs=0, seed=0)
    assert (cfg.severity, cfg.noise_scale, cfg.test_pairs, cfg.seed) == (0.0, 0.0, 0, 0)


def test_normalize_denormalize_inverse():
    rng = np.random.default_rng(16)
    img = rng.uniform(0, 1, (16, 16))
    norm = ct.normalize_image(img, 1.0)
    assert norm.min() >= -1.0 and norm.max() <= 1.0
    back = ct.denormalize_image(norm, 1.0)
    assert np.allclose(back, img, atol=1e-6)
