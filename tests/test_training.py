import math
import tracemalloc
import weakref

import numpy as np
import pytest

from patchmar import autodiff, ctsim, training
from patchmar.autodiff import ShapeError, Tensor
from patchmar.manifold import MU_BAR_MIN, DualVariable, SolverError
from patchmar.networks import PATCH_SIZE, NetworkVariant, discriminator_loss, load_checkpoint
from patchmar.optim import NanGradientError

LDM_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_ldm]
ADN_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_adn]
SUP_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_sup]


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
    return next(training.epoch_batches(training.make_pools(bundle, cfg), cfg, 1))


# --------------------------------------------------------------- variants

def test_variant_builds_only_the_branches_a_mode_trains():
    v = NetworkVariant
    assert {m: training.TrainConfig(mode=m).variant for m in training.MODES} == {
        "Sup": v.PAIRED, "LDM-Sup": v.PAIRED_LDM, "ADN": v.UNPAIRED,
        "LDM-DN": v.UNPAIRED_LDM, "ADN-Sup": v.UNPAIRED, "LDM-DN-Sup": v.UNPAIRED_LDM}


@pytest.mark.parametrize("knob,value", [
    ("lambda_ldm", math.nan), ("lambda_ldm", math.inf), ("lambda_ldm", -0.1),
    ("mu_bar", math.nan), ("mu_bar", math.inf), ("mu_bar", 0.0), ("mu_bar", -1.0),
    ("mu_bar", 1e-300), ("mu_bar", 9e-9),
    ("lr", math.nan), ("lr", math.inf), ("lr", -1.0)])
def test_config_rejects_non_finite_or_out_of_range_knobs(knob, value):
    with pytest.raises(ValueError, match="must be finite"):
        training.TrainConfig(**{knob: value})


@pytest.mark.parametrize("seed", [-1, -2])
def test_config_rejects_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
        training.TrainConfig(seed=seed)


@pytest.mark.parametrize("kwargs,message", [
    (dict(mode="LDM"), "unknown mode 'LDM'; expected one of"),
    (dict(batch_size=0), "batch size must be >= 1, got 0"),
    (dict(epochs=-1), "epochs must be >= 0, got -1")])
def test_config_rejects_an_unknown_mode_or_run_shape(kwargs, message):
    with pytest.raises(ValueError, match=message):
        training.TrainConfig(**kwargs)


# --------------------------------------------------------------- batches

def test_batches_take_each_pool_in_its_permutation_order(bundle):
    cfg = tiny_cfg("ADN-Sup", batch_size=3)
    pools = training.make_pools(bundle, cfg)
    art, clean, x, gt = pools.x_unpaired, pools.y_unpaired, pools.x_paired, pools.gt_paired
    amax, train = bundle.cfg.amax, bundle.train
    for pool, images in ((art, [train[i].artifact for i in bundle.artifact_pool]),
                         (clean, [train[i].clean for i in bundle.clean_pool]),
                         (x, [p.artifact for p in train]), (gt, [p.clean for p in train])):
        assert np.array_equal(pool[:, 0], [ctsim.normalize_image(im, amax) for im in images])
        assert pool.dtype == np.float32 and pool.shape[1:] == (1, 16, 16)
    # permutations are drawn per epoch in the order artifact, clean, paired
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, 1]))
    perms = [rng.permutation(len(p)) for p in (art, clean, x)]
    for step, b in enumerate(training.epoch_batches(pools, cfg, 1)):
        for got, pool, perm in ((b.x_unpaired, art, perms[0]), (b.y_unpaired, clean, perms[1]),
                                (b.x_paired, x, perms[2]), (b.gt_paired, gt, perms[2])):
            want = np.stack([pool[perm[(3 * step + i) % len(perm)]] for i in range(3)])
            assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", training.MODES)
def test_make_pools_builds_only_the_pools_a_mode_draws(bundle, mode):
    cfg = tiny_cfg(mode)
    pools = training.make_pools(bundle, cfg)
    drawn = {"x_unpaired": cfg.uses_adn, "y_unpaired": cfg.uses_adn,
             "x_paired": cfg.uses_sup, "gt_paired": cfg.uses_sup}
    assert {name: getattr(pools, name) is not None for name in drawn} == drawn
    for b in training.epoch_batches(pools, cfg, 1):
        assert {name: getattr(b, name) is not None for name in drawn} == drawn


@pytest.fixture(scope="module")
def one_pair_bundle():
    # synthesize_dataset's clamp gives one pair to the artifact pool and
    # leaves the clean pool empty
    geom = ctsim.ScanGeometry(n_views=20, n_detectors=32, detector_spacing=1.5)
    bundle = ctsim.synthesize_dataset(1, geom, ctsim.SynthConfig(image_size=16, seed=1,
                                                                 test_pairs=0))
    assert bundle.artifact_pool == [0] and bundle.clean_pool == []
    return bundle


@pytest.mark.parametrize("mode", training.MODES)
def test_a_mode_drawing_from_an_empty_pool_fails_before_its_first_step(
        one_pair_bundle, mode, monkeypatch, tmp_path):
    # the check runs before the run directory is made, and at zero epochs too
    steps = []
    inner = training.training_step

    def step(*args):
        steps.append(args)
        return inner(*args)

    monkeypatch.setattr(training, "training_step", step)
    for epochs in (1, 0):
        cfg = tiny_cfg(mode, epochs=epochs)
        out_dir = tmp_path / f"epochs{epochs}"
        if cfg.uses_adn:
            with pytest.raises(ValueError, match=f"mode {mode} requires non-empty unpaired pools"):
                training.train(one_pair_bundle, cfg, out_dir=str(out_dir))
            assert steps == [] and not out_dir.exists()
        else:
            res = training.train(one_pair_bundle, cfg, out_dir=str(out_dir))
            assert len(res.reports) == epochs and (out_dir / "metrics.csv").exists()
    assert len(steps) == (0 if cfg.uses_adn else 1)


# ------------------------------------------------------------- tiny runs

@pytest.mark.parametrize("mode", training.MODES)
def test_tiny_run_per_mode_is_finite_and_deterministic(bundle, mode):
    cfg = tiny_cfg(mode)
    res = training.train(bundle, cfg)
    epoch = list(training.epoch_batches(training.make_pools(bundle, cfg), cfg, 1))
    assert len(res.reports) == 2 * len(epoch)
    assert res.net.gen_params.step_count == len(res.reports)
    for rep in res.reports:
        assert all(math.isfinite(v) for v in rep.losses.values()), rep.losses
        # report_row drops a key it does not know, so metrics.csv would lose it
        assert set(rep.losses) <= set(training.CSV_COLUMNS), rep.losses
        assert ("loss_sup" in rep.losses) == cfg.uses_sup
        assert ("adv_clean" in rep.losses) == cfg.uses_adn
        assert ("ldm_penalty" in rep.losses) == cfg.uses_ldm
        if cfg.uses_ldm:
            assert rep.cg_iterations == 0  # the solve is direct
            assert rep.cg_residual <= 1e-12
            assert math.isfinite(rep.dirichlet_energy) and rep.dirichlet_energy >= 0.0
            assert 0.0 <= rep.dual_min <= rep.dual_max <= 1.0
        else:
            assert rep.cg_iterations is None and rep.dual_min is None

    again = training.train(bundle, cfg)  # same seed, same run
    assert again.reports == res.reports
    for (name, t1), (_, t2) in zip(res.net.gen_params.items(), again.net.gen_params.items()):
        assert np.array_equal(t1.data, t2.data), name


@pytest.mark.parametrize("mode", SUP_MODES)
def test_training_improves_on_its_own_start(bundle, mode):
    # ADN and LDM-DN are left out: they have no loss_sup, and their
    # adversarial generator loss need not fall as the discriminators learn
    cfg = tiny_cfg(mode, epochs=10)
    res = training.train(bundle, cfg)
    sup = {e: np.mean([r.losses["loss_sup"] for r in res.reports if r.epoch == e])
           for e in (1, cfg.epochs)}
    assert sup[cfg.epochs] <= 0.5 * sup[1], sup

    def mean_psnr(net):
        rows = training.evaluate_pairs(net, bundle.train, bundle.cfg.amax)
        return np.mean([row["psnr_corrected"] for row in rows])

    assert mean_psnr(res.net) > mean_psnr(training.build_network(cfg))


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
    cfg = tiny_cfg("LDM-DN-Sup")
    res = training.train(bundle, cfg, out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(training.CSV_COLUMNS)
    assert len(lines) == 1 + len(res.reports)
    col = training.CSV_COLUMNS.index("cg_iterations")
    assert col == training.CSV_COLUMNS.index("cg_residual") + 1
    for line, rep in zip(lines[1:], res.reports):
        field = line.split(",")[col]
        assert field == "0" and rep.cg_iterations == 0
    net = load_checkpoint(str(tmp_path / "checkpoint"))
    x = Tensor(training.make_pools(bundle, cfg).x_paired[:1])
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


def _four_op_penalty(u, p, d, lam, g):
    """The penalty's value and P-gradient as the chain Tensor(U + d), sub,
    a float64-summed sum of squares and a scale by lam rounded them, in
    numpy: each op's float32 result, with lam and the gradient factors
    rounded to float32 as each op's Python-float scalar was."""
    const = (u + d).astype(np.float32)
    r = const - p
    value = np.float32(np.square(r.astype(np.float64)).sum()) * np.float32(lam)
    g_sq = g * np.float32(lam)  # the scale's backward
    g_r = r * np.float32(2.0 * float(g_sq))  # the sum of squares' backward
    return value, -g_r  # the sub's backward, on its second operand


@pytest.mark.parametrize("lam", [0.6, 1e-5])
def test_ldm_penalty_rounds_as_the_four_op_chain(lam):
    # bit for bit, alone over eight draws (a sum or product rounded another
    # way differs in about half of them) and once added to a network loss,
    # as the step adds it
    rng = np.random.default_rng(31)
    for _ in range(8):
        p = rng.standard_normal((256, 64)).astype(np.float32)
        u = rng.standard_normal((256, 64))
        d = rng.uniform(size=(256, 64))
        want_value, want_grad = _four_op_penalty(u, p, d, lam, np.float32(1.0))
        points = Tensor(p, requires_grad=True)
        penalty = training.ldm_penalty(u, points, DualVariable(d), lam)
        assert penalty.dtype == np.float32 and penalty.shape == ()
        assert np.array_equal(penalty.data, want_value)
        autodiff.backward(penalty)
        assert points.grad.dtype == np.float32 and np.array_equal(points.grad, want_grad)

    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
    loss = autodiff.mse_loss(x, Tensor(np.zeros((2, 3), dtype=np.float32)))
    points = Tensor(p, requires_grad=True)
    total = autodiff.add(loss, training.ldm_penalty(u, points, DualVariable(d), lam))
    assert np.array_equal(total.data, loss.data + want_value)
    autodiff.backward(total)
    assert np.array_equal(points.grad, want_grad)


def test_ldm_penalty_rejects_mismatched_shapes():
    points = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
    dual = DualVariable(np.zeros((4, 3)))
    with pytest.raises(ShapeError, match="patch set"):
        training.ldm_penalty(np.zeros((4, 2)), points, dual, 0.6)
    with pytest.raises(ShapeError, match="dual"):
        training.ldm_penalty(np.zeros((4, 3)), points, DualVariable(np.zeros((3, 3))), 0.6)


# ------------------------------------------------------- patch-set order

@pytest.mark.parametrize("mode", LDM_MODES)
def test_step_and_dual_refresh_build_the_same_patch_set(bundle, mode, monkeypatch):
    # With lr = 0 the update leaves the weights as they were, so the dual
    # refresh must rebuild the step's patch set row for row.
    cfg = tiny_cfg(mode, lr=0.0)
    built = []
    inner = training.build_patch_set

    def record(branches):
        ps = inner(branches)
        built.append(ps)
        return ps

    monkeypatch.setattr(training, "build_patch_set", record)
    net = training.build_network(cfg)
    training.training_step(net, first_batch(bundle, cfg), training.OptState(), cfg,
                           cfg.mu_bar)
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

    def record_build(branches):
        points = build(branches)
        refs.append(weakref.ref(points.data))
        return points

    def record_weights(blocks):
        graph = weights(blocks)
        refs.extend([weakref.ref(blocks), weakref.ref(graph.w), weakref.ref(graph.degrees)])
        return graph

    def check(*args):
        alive.extend(r() is not None for r in refs)
        return fresh(*args)

    monkeypatch.setattr(training, "build_patch_set", record_build)
    monkeypatch.setattr(training, "gaussian_weights", record_weights)
    monkeypatch.setattr(training, "_ldm_entries_fresh", check)
    net = training.build_network(cfg)
    training.training_step(net, first_batch(bundle, cfg), training.OptState(), cfg,
                           cfg.mu_bar)
    assert alive == [False] * 4


def _graph_free(t):
    return not t.requires_grad and t._parents == () and t._backward is None


@pytest.mark.parametrize("mode", LDM_MODES)
def test_dual_refresh_builds_no_graph_and_keeps_values(bundle, mode):
    cfg = tiny_cfg(mode)
    net = training.build_network(cfg)
    batch = first_batch(bundle, cfg)
    branches = training._ldm_entries_fresh(net, batch, cfg)
    # the same forward passes with the graph built, unpaired then paired
    pools = []
    if cfg.uses_adn:
        pools.append((batch.x_unpaired, batch.y_unpaired))
    if cfg.uses_sup:
        pools.append((batch.x_paired, batch.gt_paired))
    expect = []
    for x, y in pools:
        x_hat, z_x = net.forward_corrected(Tensor(x), want_code=True)
        expect.append((x_hat, z_x, Tensor(y), net.free_code(Tensor(y))))
    assert expect[0][0]._parents
    assert len(branches) == len(expect)
    for got, want in zip(branches, expect):
        assert len(got) == 4
        for a, b in zip(got, want):
            assert _graph_free(a)
            assert np.array_equal(a.data, b.data)


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
    training.training_step(net, batch, training.OptState(), cfg, cfg.mu_bar)
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

        def build(branches):
            points = inner_build(branches)
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
    good, bad = list(training.epoch_batches(training.make_pools(bundle, cfg), cfg, 1))[:2]
    net = training.build_network(cfg)
    state = training.OptState()
    training.training_step(net, good, state, cfg, cfg.mu_bar)
    before = _snapshot(net, state)
    assert before["gen.step_count"] == before["disc.step_count"] == 1

    with pytest.raises(_inject(failure, net, monkeypatch)):
        training.training_step(net, bad, state, cfg, cfg.mu_bar)
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
# for a given numpy. The graph bound lies between the value measured when
# each layer kept its conv, bias and activation outputs as three arrays and
# the value now, with one array per layer; the step bounds lie between the
# value with every graph node kept until backward returned and the patch-graph
# stages built and solved in (G, n, n) stacks, and the value now.

MiB = 2 ** 20


@pytest.fixture(scope="module")
def bundle64():
    geom = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
    return ctsim.synthesize_dataset(16, geom, ctsim.SynthConfig(seed=1, test_pairs=0))


def _after_one_step(bundle, mode, batch_size):
    """(cfg, net, state, second batch) of a 64x64, width-8 run whose first
    step has been taken, so Adam's moments and the dual already exist."""
    cfg = training.TrainConfig(mode=mode, batch_size=batch_size, lr=1e-3)
    batches = training.epoch_batches(training.make_pools(bundle, cfg), cfg, 1)
    net = training.build_network(cfg)
    state = training.OptState()
    training.training_step(net, next(batches), state, cfg, cfg.mu_bar)
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
    # 23.1 / 30.4 MiB with a batch-wide W, 22.1 / 25.2 per group, 18.6 / 25.7
    # in block order with stacked stages, 15.5 / 22.7 now
    ("LDM-Sup", 8, 17),
    ("LDM-DN-Sup", 4, 24),
], ids=["LDM-Sup-b8", "LDM-DN-Sup-b4"])
def test_training_step_peak_memory(bundle64, mode, batch_size, bound_mib):
    cfg, net, state, batch = _after_one_step(bundle64, mode, batch_size)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rep = training.training_step(net, batch, state, cfg, cfg.mu_bar)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rep.k == 2 and rep.cg_residual <= 1e-12
    assert peak < bound_mib * MiB


def test_ldm_sup_step_at_the_mu_bar_floor(bundle64):
    # The smallest mu_bar the config takes still gives a step. Its systems'
    # residuals reach 3.5e-8 relative to b, whose norm scales with mu_bar,
    # while the backward error stays ~1e-15.
    cfg = training.TrainConfig(mode="LDM-Sup", batch_size=8, mu_bar=MU_BAR_MIN)
    net = training.build_network(cfg)
    state = training.OptState()
    rep = training.training_step(net, first_batch(bundle64, cfg), state, cfg, cfg.mu_bar)
    assert rep.k == 1 and rep.cg_residual <= 1e-12
