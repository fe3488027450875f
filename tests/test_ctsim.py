import json
import math
import warnings

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


# -------------------------------------------------------------------- radon

def test_radon_zero_image_gives_zero_sinogram():
    for img in (np.zeros((32, 32)), ct.PhantomImage(pixels=np.zeros((32, 32)))):
        sino = ct.radon_forward(img, geom_small())
        assert np.array_equal(sino.data, np.zeros_like(sino.data))
        assert not sino.metal_trace.any()


def test_radon_disk_central_chord_length():
    geom = ct.ScanGeometry(n_views=24, n_detectors=95, detector_spacing=1.0)
    r = 20
    sino = ct.radon_forward(disk_image(64, r), geom)
    centre = (geom.n_detectors - 1) // 2
    chord = sino.data[:, centre]
    assert np.all(np.abs(chord - 2 * r) / (2 * r) < 0.02)


def test_radon_is_linear():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 1, (32, 32))
    g = geom_small()
    one = ct.radon_forward(img, g).data
    two = ct.radon_forward(2.0 * img, g).data
    assert np.array_equal(two, 2.0 * one)


def test_radon_rotation_permutes_views():
    # a 90-degree image rotation shifts views by half the [0, pi) range;
    # wrapped views see the same lines with the detector axis reversed
    geom = ct.ScanGeometry(n_views=40, n_detectors=95, detector_spacing=1.0)
    rng = np.random.default_rng(1)
    img = rng.uniform(0, 1, (48, 48))
    base = ct.radon_forward(img, geom).data
    rot = ct.radon_forward(np.rot90(img), geom).data
    h = geom.n_views // 2
    want = np.concatenate([base[h:], base[:h, ::-1]], axis=0)
    denom = max(np.abs(base).max(), 1e-12)
    assert np.abs(rot - want).max() / denom < 1e-3


def test_radon_rejects_non_square():
    with pytest.raises(ShapeError):
        ct.radon_forward(np.zeros((32, 16)), geom_small())


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
    "7x9": ct.ScanGeometry(n_views=7, n_detectors=9, detector_spacing=3.0,
                           angular_range=2.0),
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


# ---------------------------------------------------------------------- fbp

def test_fbp_zero_sinogram_gives_zero_image():
    g = geom_small()
    sino = ct.Sinogram(data=np.zeros((g.n_views, g.n_detectors)), metal_trace=None)
    rec = ct.fbp(sino, g, image_size=32)
    assert np.array_equal(rec, np.zeros((32, 32)))


def test_fbp_preclamp_linearity():
    g = geom_small()
    rng = np.random.default_rng(2)
    sino = ct.Sinogram(data=rng.standard_normal((g.n_views, g.n_detectors)),
                       metal_trace=None)
    r1 = ct.fbp(sino, g, image_size=32, clamp_negative=False)
    sino3 = ct.Sinogram(data=3.0 * sino.data, metal_trace=None)
    r3 = ct.fbp(sino3, g, image_size=32, clamp_negative=False)
    assert np.allclose(r3, 3.0 * r1, rtol=1e-12, atol=1e-12)


def test_fbp_roundtrip_disk_psnr():
    geom = ct.ScanGeometry(n_views=180)
    disk = disk_image()
    rec = ct.fbp(ct.radon_forward(disk, geom), geom, image_size=64)
    assert ct.psnr(rec, disk, peak=1.0) >= 25.0


# ------------------------------------------------------------------ corrupt

def _metal_setup(rng, severity, geom=None):
    geom = geom or ct.ScanGeometry(n_views=90)
    clean, body = ct.random_phantom(rng, 64)
    mask = ct.random_metal_mask(rng, 64, body)
    phantom = ct.PhantomImage(pixels=np.where(mask, 4.0, clean), metal_mask=mask)
    sino_clean = ct.radon_forward(clean, geom)
    trace = ct.radon_forward(phantom, geom).metal_trace
    sino = ct.Sinogram(data=sino_clean.data, metal_trace=trace)
    return geom, clean, sino, ct.corrupt_metal(sino, severity, rng=rng)


def test_corrupt_severity_zero_is_identity():
    rng = np.random.default_rng(3)
    _, _, sino, corrupted = _metal_setup(rng, 0.0)
    assert np.array_equal(corrupted.data, sino.data)


def test_corrupt_empty_trace_is_identity():
    g = geom_small()
    rng = np.random.default_rng(4)
    sino = ct.Sinogram(data=rng.uniform(0, 5, (g.n_views, g.n_detectors)),
                       metal_trace=None)
    out = ct.corrupt_metal(sino, 1.0, rng=rng)
    assert np.array_equal(out.data, sino.data)


def test_corrupt_rejects_negative_severity():
    g = geom_small()
    sino = ct.Sinogram(data=np.zeros((g.n_views, g.n_detectors)), metal_trace=None)
    with pytest.raises(ValueError):
        ct.corrupt_metal(sino, -0.5, np.random.default_rng(0))


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
    out = ct.li_correct(ct.Sinogram(data=data, metal_trace=None))
    assert np.array_equal(out.data, data)


def test_li_untraced_bins_bit_exact():
    rng = np.random.default_rng(8)
    data = rng.uniform(0, 5, (8, 40))
    trace = rng.uniform(size=(8, 40)) < 0.2
    trace[:, 0] = False  # keep at least one anchor per view
    out = ct.li_correct(ct.Sinogram(data=data, metal_trace=trace))
    assert np.array_equal(out.data[~trace], data[~trace])


def test_li_full_view_falls_back_with_warning():
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    trace = np.zeros((3, 4), dtype=bool)
    trace[1] = True
    with pytest.warns(RuntimeWarning, match="fully inside"):
        out = ct.li_correct(ct.Sinogram(data=data, metal_trace=trace))
    assert np.allclose(out.data[1], (data[0] + data[2]) / 2)


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
    base = dict(image_size=32, severity=0.2, ratio=0.5, seed=7, test_pairs=2)
    base.update(kw)
    return ct.SynthConfig(**base)


def small_scan():
    return ct.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=0.75)


def test_synth_pool_counts_and_disjoint_provenance():
    bundle = ct.synthesize_dataset(16, small_scan(), small_cfg(ratio=0.5))
    assert len(bundle.artifact_pool) == 8
    assert len(bundle.clean_pool) == 8
    assert set(bundle.artifact_pool).isdisjoint(bundle.clean_pool)
    assert len(bundle.train) == 16 and len(bundle.test) == 2


def test_synth_same_seed_is_identical():
    b1 = ct.synthesize_dataset(4, small_scan(), small_cfg())
    b2 = ct.synthesize_dataset(4, small_scan(), small_cfg())
    for p1, p2 in zip(b1.train + b1.test, b2.train + b2.test):
        assert np.array_equal(p1.artifact, p2.artifact)
        assert np.array_equal(p1.clean, p2.clean)
        assert p1.metal_pixels == p2.metal_pixels


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
    with pytest.raises(ValueError):
        ct.synthesize_dataset(0, small_scan(), small_cfg())
    with pytest.raises(ValueError):
        ct.synthesize_dataset(4, small_scan(), small_cfg(ratio=0.0))


def test_dataset_save_load_roundtrip(tmp_path):
    geom = ct.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=0.75,
                           angular_range=0.9 * math.pi)
    bundle = ct.synthesize_dataset(3, geom, small_cfg())
    ct.save_dataset(bundle, tmp_path / "ds")
    back = ct.load_dataset(tmp_path / "ds")
    assert back.cfg == bundle.cfg
    assert back.geom == bundle.geom
    assert back.artifact_pool == bundle.artifact_pool
    assert back.clean_pool == bundle.clean_pool
    for split in ("train", "test"):
        pairs, loaded = getattr(bundle, split), getattr(back, split)
        assert len(loaded) == len(pairs)
        for p1, p2 in zip(pairs, loaded):
            assert (p2.index, p2.metal_pixels) == (p1.index, p1.metal_pixels)
            for kind in ("artifact", "clean"):
                a1, a2 = getattr(p1, kind), getattr(p2, kind)
                assert a2.dtype == np.float32
                assert np.array_equal(a1, a2)


def test_manifest_records_ratio_and_metal_pixels(tmp_path):
    bundle = ct.synthesize_dataset(3, small_scan(), small_cfg(ratio=0.15))
    ct.save_dataset(bundle, tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["cfg"]["ratio"] == 0.15
    assert [m["metal_pixels"] for m in manifest["train"]] == \
        [p.metal_pixels for p in bundle.train]


def test_normalize_denormalize_inverse():
    rng = np.random.default_rng(16)
    img = rng.uniform(0, 1, (16, 16))
    norm = ct.normalize_image(img, 1.0)
    assert norm.min() >= -1.0 and norm.max() <= 1.0
    back = ct.denormalize_image(norm, 1.0)
    assert np.allclose(back, img, atol=1e-6)
