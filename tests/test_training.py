import math
import tracemalloc
import weakref

import numpy as np
import pytest

from patchmar import autodiff, ctsim, training
from patchmar.autodiff import ShapeError, Tensor
from patchmar.manifold import DualVariable, SolverError
from patchmar.networks import PATCH_SIZE, NetworkVariant, discriminator_loss, load_checkpoint
from patchmar.optim import NanGradientError

LDM_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_ldm]
ADN_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_adn]


@pytest.fixture(scope="module")
def bundle():
    geom = ctsim.ScanGeometry(n_views=20, n_detectors=32, detector_spacing=1.5)
    cfg = ctsim.SynthConfig(image_size=16, seed=1, test_pairs=2)
    return ctsim.synthesize_dataset(4, geom, cfg)


def tiny_cfg(mode, **kw):
    base = dict(mode=mode, epochs=2, batch_size=2, seed=5, lr=1e-3)
    base.update(kw)
    return training.TrainConfig(**base)


def first_batch(bundle, cfg):
    sched = training.BatchScheduler(*training.make_pools(bundle), cfg)
    return next(sched.epoch_batches(1))


# --------------------------------------------------------------- variants

def test_variant_builds_only_the_branches_a_mode_trains():
    v = NetworkVariant
    assert {m: training.TrainConfig(mode=m).variant for m in training.MODES} == {
        "Sup": v.PAIRED, "LDM-Sup": v.PAIRED_LDM, "ADN": v.UNPAIRED,
        "LDM-DN": v.UNPAIRED_LDM, "ADN-Sup": v.UNPAIRED, "LDM-DN-Sup": v.UNPAIRED_LDM}


@pytest.mark.parametrize("knob,value", [
    ("lambda_ldm", math.nan), ("lambda_ldm", math.inf), ("lambda_ldm", -0.1),
    ("mu_bar", math.nan), ("mu_bar", math.inf), ("mu_bar", 0.0), ("mu_bar", -1.0),
    ("lr", math.nan), ("lr", math.inf), ("lr", -1.0)])
def test_config_rejects_non_finite_or_out_of_range_knobs(knob, value):
    with pytest.raises(ValueError, match="must be finite"):
        training.TrainConfig(**{knob: value})


@pytest.mark.parametrize("seed", [-1, -2])
def test_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        training.TrainConfig(seed=seed)


# --------------------------------------------------------------- batches

def test_batches_take_each_pool_in_its_permutation_order(bundle):
    cfg = tiny_cfg("ADN-Sup", batch_size=3)
    (art, clean), (x, gt) = training.make_pools(bundle)
    amax = bundle.cfg.amax
    assert np.array_equal(x[:, 0], [ctsim.normalize_image(p.artifact, amax) for p in bundle.train])
    for pool in (art, clean, x, gt):
        assert pool.dtype == np.float32 and pool.shape[1:] == (1, 16, 16)
    # permutations are drawn per epoch in the order artifact, clean, paired
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, 1]))
    perms = [rng.permutation(len(p)) for p in (art, clean, x)]
    sched = training.BatchScheduler((art, clean), (x, gt), cfg)
    for step, b in enumerate(sched.epoch_batches(1)):
        for got, pool, perm in ((b.x_unpaired, art, perms[0]), (b.y_unpaired, clean, perms[1]),
                                (b.x_paired, x, perms[2]), (b.gt_paired, gt, perms[2])):
            want = np.stack([pool[perm[(3 * step + i) % len(perm)]] for i in range(3)])
            assert np.array_equal(got, want)


# ------------------------------------------------------------- tiny runs

@pytest.mark.parametrize("mode", training.MODES)
def test_tiny_run_per_mode_is_finite_and_deterministic(bundle, mode):
    cfg = tiny_cfg(mode)
    res = training.train(bundle, cfg)
    assert len(res.reports) == 2 * training.BatchScheduler(
        *training.make_pools(bundle), cfg).steps_per_epoch
    assert res.net.gen_params.step_count == len(res.reports)
    for rep in res.reports:
        assert all(math.isfinite(v) for v in rep.losses.values()), rep.losses
        assert ("loss_sup" in rep.losses) == cfg.uses_sup
        assert ("adv_clean" in rep.losses) == cfg.uses_adn
        assert ("ldm_penalty" in rep.losses) == cfg.uses_ldm
        if cfg.uses_ldm:
            assert rep.cg_iterations > 0
            assert rep.cg_residual <= 1e-8
            assert math.isfinite(rep.dirichlet_energy) and rep.dirichlet_energy >= 0.0
            assert 0.0 <= rep.dual_min <= rep.dual_max <= 1.0
        else:
            assert rep.cg_iterations is None and rep.dual_min is None
    if cfg.uses_ldm:
        d = res.state.dual.values
        assert np.isfinite(d).all() and d.min() >= 0.0 and d.max() <= 1.0
    else:
        assert res.state.dual is None

    again = training.train(bundle, cfg)  # same seed, same run
    assert again.reports == res.reports
    for (name, t1), (_, t2) in zip(res.net.gen_params.items(), again.net.gen_params.items()):
        assert np.array_equal(t1.data, t2.data), name


@pytest.mark.parametrize("mode", LDM_MODES)
def test_ldm_mode_at_lambda_zero_trains_as_its_base_mode(bundle, mode):
    # the baseline of a lambda sweep: with the penalty off, LDM-X is X bit
    # for bit, and the parameters only the LDM branches use keep their
    # initial values
    base = {"LDM-Sup": "Sup", "LDM-DN": "ADN", "LDM-DN-Sup": "ADN-Sup"}[mode]
    cfg = tiny_cfg(mode, lambda_ldm=0.0)
    ldm = training.train(bundle, cfg)
    plain = training.train(bundle, tiny_cfg(base))
    assert ldm.reports == plain.reports  # losses, and no solve or dual fields
    assert ldm.state.dual is None

    shared = dict(plain.net.gen_params.items())
    init = dict(training.build_network(cfg).gen_params.items())
    ldm_only = init.keys() - shared.keys()
    assert ldm_only and all(n.startswith(("enc_clean.", "compress_")) for n in ldm_only)
    for name, p in ldm.net.gen_params.items():
        want = init[name] if name in ldm_only else shared[name]
        assert np.array_equal(p.data, want.data), name
    if cfg.uses_adn:
        for (name, p), (_, q) in zip(ldm.net.disc_params.items(), plain.net.disc_params.items()):
            assert np.array_equal(p.data, q.data), name


def test_run_directory_holds_metrics_and_checkpoint(bundle, tmp_path):
    res = training.train(bundle, tiny_cfg("LDM-DN-Sup"), out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(training.CSV_COLUMNS)
    assert len(lines) == 1 + len(res.reports)
    col = training.CSV_COLUMNS.index("cg_iterations")
    assert col == training.CSV_COLUMNS.index("cg_residual") + 1
    for line, rep in zip(lines[1:], res.reports):
        field = line.split(",")[col]
        assert field.isdigit() and int(field) > 0
        assert int(field) == rep.cg_iterations
    net = load_checkpoint(res.checkpoint_dir)
    x = Tensor(training.make_pools(bundle)[1][0][:1])
    assert np.array_equal(net.forward_corrected(x).data, res.net.forward_corrected(x).data)


# ---------------------------------------------------------------- penalty

def test_ldm_penalty_value_and_gradient_match_float64_oracle():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((12, 5)).astype(np.float32)
    u = rng.standard_normal((12, 5))
    d = rng.uniform(size=(12, 5))
    lam = 0.6
    points = Tensor(p, requires_grad=True)
    penalty = training.ldm_penalty(u, points, DualVariable(d), lam)
    resid = u + d - p.astype(np.float64)
    assert float(penalty.data) == pytest.approx(lam * np.sum(resid * resid), rel=1e-6)
    autodiff.backward(penalty)
    assert points.grad.dtype == np.float32
    np.testing.assert_allclose(points.grad, -2.0 * lam * resid, rtol=1e-5, atol=1e-6)


def test_ldm_penalty_rejects_mismatched_shapes():
    points = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
    dual = DualVariable(np.zeros((4, 3)))
    with pytest.raises(ShapeError, match="patch set"):
        training.ldm_penalty(np.zeros((4, 2)), points, dual, 0.6)
    with pytest.raises(ShapeError, match="dual"):
        training.ldm_penalty(np.zeros((4, 3)), points, DualVariable(np.zeros((3, 3))), 0.6)


# ------------------------------------------------------- patch-set order

def test_patch_entries_order():
    unpaired = ("x_hat_u", "z_x_u", "y_u", "z_y_u")
    paired = ("x_hat_p", "z_x_p", "y_p", "z_y_p")
    images, codes = training._patch_entries(unpaired, paired)
    assert images == ("x_hat_u", "x_hat_p", "y_u", "y_p")
    assert codes == ("z_x_u", "z_x_p", "z_y_u", "z_y_p")
    assert training._patch_entries(None, paired) == (("x_hat_p", "y_p"), ("z_x_p", "z_y_p"))


@pytest.mark.parametrize("mode", LDM_MODES)
def test_step_and_dual_refresh_build_the_same_patch_set(bundle, mode, monkeypatch):
    # With lr = 0 the update leaves the weights as they were, so the dual
    # refresh must rebuild the step's patch set row for row.
    cfg = tiny_cfg(mode, lr=0.0)
    built = []
    inner = training.build_patch_set

    def record(images, codes):
        ps = inner(images, codes)
        built.append(ps)
        return ps

    monkeypatch.setattr(training, "build_patch_set", record)
    net = training.build_network(cfg)
    training.training_step(net, first_batch(bundle, cfg), training.OptState(), cfg,
                           cfg.kernel_config())
    assert len(built) == 2
    step, refresh = built
    entries = 1 + int(cfg.uses_adn and cfg.uses_sup)
    rows = cfg.batch_size * (bundle.cfg.image_size // PATCH_SIZE) ** 2
    assert step.shape[0] == 2 * entries * rows
    assert np.array_equal(step.data, refresh.data)


@pytest.mark.parametrize("mode", LDM_MODES)
def test_step_frees_w_and_its_patch_set_before_the_dual_refresh(bundle, mode, monkeypatch):
    # The dual refresh's forward passes allocate activations of their own;
    # the step's graph, patch set and W must be gone by then, or the two add
    # up in peak memory.
    cfg = tiny_cfg(mode)
    refs, alive = [], []
    build, weights, fresh = (training.build_patch_set, training.gaussian_weights,
                             training._ldm_entries_fresh)

    def record_build(images, codes):
        points = build(images, codes)
        refs.append(weakref.ref(points.data))
        return points

    def record_weights(points):
        ops = weights(points)
        refs.extend([weakref.ref(points), weakref.ref(ops.w)])
        return ops

    def check(*args):
        alive.extend(r() is not None for r in refs)
        return fresh(*args)

    monkeypatch.setattr(training, "build_patch_set", record_build)
    monkeypatch.setattr(training, "gaussian_weights", record_weights)
    monkeypatch.setattr(training, "_ldm_entries_fresh", check)
    net = training.build_network(cfg)
    training.training_step(net, first_batch(bundle, cfg), training.OptState(), cfg,
                           cfg.kernel_config())
    assert alive == [False, False, False]


def _graph_free(t):
    return not t.requires_grad and t._parents == () and t._backward is None


@pytest.mark.parametrize("mode", LDM_MODES)
def test_dual_refresh_builds_no_graph_and_keeps_values(bundle, mode):
    cfg = tiny_cfg(mode)
    net = training.build_network(cfg)
    batch = first_batch(bundle, cfg)
    images, codes = training._ldm_entries_fresh(net, batch, cfg)
    # the same forward passes with the graph built
    branches = []
    if cfg.uses_adn:
        branches.append((batch.x_unpaired, batch.y_unpaired))
    if cfg.uses_sup:
        branches.append((batch.x_paired, batch.gt_paired))
    graphed = [net.forward_corrected(Tensor(x), want_code=True) for x, _ in branches]
    expect_images = [x_hat for x_hat, _ in graphed] + [Tensor(y) for _, y in branches]
    expect_codes = [z for _, z in graphed] + [net.free_code(Tensor(y)) for _, y in branches]
    assert graphed[0][0]._parents
    assert len(images) == len(expect_images) and len(codes) == len(expect_codes)
    for got, want in zip(images + codes, expect_images + expect_codes):
        assert _graph_free(got)
        assert np.array_equal(got.data, want.data)


def test_evaluate_pairs_forward_builds_no_graph(bundle, monkeypatch):
    net = training.build_network(tiny_cfg("Sup"))
    outs = []
    inner = net.forward_corrected

    def record(x):
        out = inner(x)
        outs.append(out)
        return out

    monkeypatch.setattr(net, "forward_corrected", record)
    training.evaluate_pairs(net, bundle.test, bundle.cfg.amax)
    assert len(outs) == len(bundle.test)
    assert all(_graph_free(out) for out in outs)


# ------------------------------------------------------- discriminator step

@pytest.mark.parametrize("mode", ADN_MODES)
def test_discriminator_step_sees_only_the_discriminator_loss(bundle, mode, monkeypatch):
    # The generator loss also reaches the discriminator weights, through its
    # adversarial terms; none of that may reach the discriminator update.
    # With lr = 0 the step keeps the weights, so the discriminator loss can
    # be recomputed afterwards at the weights the step used.
    cfg = tiny_cfg(mode, lr=0.0)
    net = training.build_network(cfg)
    seen = {}
    inner = training.adam_step

    def spy(store, **kwargs):
        if store is net.disc_params:
            seen.update((name, t.grad.copy()) for name, t in store.items())
        return inner(store, **kwargs)

    monkeypatch.setattr(training, "adam_step", spy)
    batch = first_batch(bundle, cfg)
    training.training_step(net, batch, training.OptState(), cfg, cfg.kernel_config())
    assert seen.keys() == {name for name, _ in net.disc_params.items()}

    x, y = Tensor(batch.x_unpaired), Tensor(batch.y_unpaired)
    net.disc_params.zero_grad()
    d_total, _ = discriminator_loss(net, net.forward(x, y), x, y)
    autodiff.backward(d_total)
    for name, t in net.disc_params.items():
        assert np.array_equal(seen[name], t.grad), name


# ------------------------------------------------------- failed steps

def _snapshot(net, state):
    snap = {"dual": state.dual.values.copy()}
    for tag, store in (("gen", net.gen_params), ("disc", net.disc_params)):
        snap[tag + ".step_count"] = store.step_count
        for name, t in store.items():
            m, v = store.moment_arrays(name)
            snap[f"{tag}.{name}"] = t.data.copy()
            snap[f"{tag}.{name}.m"], snap[f"{tag}.{name}.v"] = m.copy(), v.copy()
    return snap


def _inject(failure, net, monkeypatch):
    """Make the next training step fail; returns the error it must raise."""
    if failure == "solver_error":
        def solve(*args, **kwargs):
            raise SolverError(1.0, 7)

        monkeypatch.setattr(training, "solve_coordinates", solve)
        return SolverError
    if failure in ("nan_patch_set", "inf_patch_set"):  # the step's first patch set fails it
        inner_build = training.build_patch_set
        value = np.nan if failure == "nan_patch_set" else np.inf

        def build(images, codes):
            points = inner_build(images, codes)
            points.data[3, 5] = value
            return points

        monkeypatch.setattr(training, "build_patch_set", build)
        return ValueError
    # every backward call leaves one inf gradient entry in the chosen store
    store = net.gen_params if failure == "gen_inf_grad" else net.disc_params
    inner = autodiff.backward

    def backward(t):
        inner(t)
        list(store.items())[-1][1].grad.flat[0] = np.inf

    monkeypatch.setattr(autodiff, "backward", backward)
    return NanGradientError


@pytest.mark.parametrize("failure", ["gen_inf_grad", "disc_inf_grad", "solver_error",
                                     "nan_patch_set", "inf_patch_set"])
def test_failed_step_leaves_state_untouched(bundle, failure, monkeypatch):
    cfg = tiny_cfg("LDM-DN-Sup")
    unpaired, paired = training.make_pools(bundle)
    good, bad = list(training.BatchScheduler(unpaired, paired, cfg).epoch_batches(1))[:2]
    net = training.build_network(cfg)
    state = training.OptState()
    training.training_step(net, good, state, cfg, cfg.kernel_config())
    before = _snapshot(net, state)
    assert before["gen.step_count"] == before["disc.step_count"] == 1

    with pytest.raises(_inject(failure, net, monkeypatch)):
        training.training_step(net, bad, state, cfg, cfg.kernel_config())
    after = _snapshot(net, state)
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert np.array_equal(after[key], value), key


# ------------------------------------------------------------- evaluation

def test_evaluate_pairs_one_finite_row_per_pair(bundle):
    res = training.train(bundle, tiny_cfg("Sup"))
    rows = training.evaluate_pairs(res.net, bundle.test, bundle.cfg.amax)
    assert len(rows) == len(bundle.test)
    for row, pair in zip(rows, bundle.test):
        assert row["index"] == pair.index
        for key in ("psnr_artifact", "psnr_corrected", "ssim_artifact", "ssim_corrected"):
            assert math.isfinite(row[key]), key


def test_evaluate_pairs_peak_is_the_clean_range(bundle):
    # a constant clean image has no range, so its peak falls back to 1.0
    net = training.build_network(tiny_cfg("Sup"))
    amax = bundle.cfg.amax
    ref = bundle.test[0]
    flat = ctsim.SynthPair(index=99, artifact=ref.artifact,
                           clean=np.full_like(ref.clean, 0.3))
    pairs = list(bundle.test) + [flat]
    peaks = [float(p.clean.max()) - float(p.clean.min()) for p in bundle.test] + [1.0]
    assert all(0.0 < pk != 1.0 for pk in peaks[:-1])
    rows = training.evaluate_pairs(net, pairs, amax)
    for row, pair, peak in zip(rows, pairs, peaks, strict=True):
        x = ctsim.normalize_image(pair.artifact, amax)[None, None]
        rec = ctsim.denormalize_image(net.forward_corrected(Tensor(x)).data[0, 0], amax)
        assert row == {
            "index": pair.index,
            "psnr_artifact": ctsim.psnr(pair.artifact, pair.clean, peak),
            "psnr_corrected": ctsim.psnr(rec, pair.clean, peak),
            "ssim_artifact": ctsim.ssim(pair.artifact, pair.clean, peak),
            "ssim_corrected": ctsim.ssim(rec, pair.clean, peak),
        }


# ------------------------------------------------------------ graph memory
# tracemalloc counts every numpy buffer, so these byte counts repeat exactly
# for a given numpy. Each bound lies between the value measured when each
# layer kept its conv, bias and activation outputs as three arrays and the
# value now, with one array per layer.

MiB = 2 ** 20


@pytest.fixture(scope="module")
def bundle64():
    geom = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
    return ctsim.synthesize_dataset(16, geom, ctsim.SynthConfig(seed=1, test_pairs=0))


def _after_one_step(bundle, mode, batch_size):
    """(cfg, net, state, second batch) of a 64x64, width-8 run whose first
    step has been taken, so Adam's moments and the dual already exist."""
    cfg = training.TrainConfig(mode=mode, batch_size=batch_size, lr=1e-3)
    batches = training.BatchScheduler(*training.make_pools(bundle), cfg).epoch_batches(1)
    net = training.build_network(cfg)
    state = training.OptState()
    training.training_step(net, next(batches), state, cfg, cfg.kernel_config())
    return cfg, net, state, next(batches)


def test_paired_ldm_forward_graph_memory(bundle64):
    # 22.9 MiB with the columns and masks kept, 9.6 MiB with three arrays per
    # layer, 3.8 MiB now
    _, net, _, batch = _after_one_step(bundle64, "LDM-Sup", 4)
    x, gt = Tensor(batch.x_paired), Tensor(batch.gt_paired)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = net.forward(x, gt)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.x_hat.requires_grad
    assert held < 6 * MiB


@pytest.mark.parametrize("mode,batch_size,bound_mib", [
    ("LDM-Sup", 8, 31),     # 37.2 MiB with three arrays per layer, 25.7 MiB now
    ("LDM-DN-Sup", 4, 45),  # 57.1 MiB with three arrays per layer, 33.3 MiB now
], ids=["LDM-Sup-b8", "LDM-DN-Sup-b4"])
def test_training_step_peak_memory(bundle64, mode, batch_size, bound_mib):
    cfg, net, state, batch = _after_one_step(bundle64, mode, batch_size)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = training.training_step(net, batch, state, cfg, cfg.kernel_config())
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.k == 2 and rep.cg_iterations > 0
    assert peak < bound_mib * MiB
