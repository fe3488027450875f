import math

import numpy as np
import pytest

from patchmar import autodiff, ctsim, training
from patchmar.autodiff import Tensor
from patchmar.manifold import CORRECTED, FREE, SolverError
from patchmar.networks import NetworkVariant, load_checkpoint
from patchmar.optim import NanGradientError

LDM_MODES = [m for m in training.MODES if training.TrainConfig(mode=m).uses_ldm]


@pytest.fixture(scope="module")
def bundle():
    geom = ctsim.ScanGeometry(n_views=20, n_detectors=32, detector_spacing=1.5)
    cfg = ctsim.SynthConfig(image_size=16, ratio=0.5, seed=1, test_pairs=2)
    return ctsim.synthesize_dataset(4, geom, cfg)


def tiny_cfg(mode, **kw):
    base = dict(mode=mode, epochs=2, batch_size=2, s=4, base_width=4, seed=5, lr=1e-3)
    base.update(kw)
    return training.TrainConfig(**base)


def first_batch(bundle, cfg):
    unpaired, paired = training.make_pools(bundle)
    sched = training.BatchScheduler(unpaired if cfg.uses_adn else None,
                                    paired if cfg.uses_sup else None, cfg)
    return next(sched.epoch_batches(1))


# --------------------------------------------------------------- variants

def test_variant_builds_only_the_branches_a_mode_trains():
    v = NetworkVariant
    assert {m: training.TrainConfig(mode=m).variant for m in training.MODES} == {
        "Sup": v.PAIRED, "LDM-Sup": v.PAIRED_LDM, "ADN": v.UNPAIRED,
        "LDM-DN": v.UNPAIRED_LDM, "ADN-Sup": v.UNPAIRED, "LDM-DN-Sup": v.UNPAIRED_LDM}


# ------------------------------------------------------------- tiny runs

@pytest.mark.parametrize("mode", training.MODES)
def test_tiny_run_per_mode_is_finite_and_deterministic(bundle, mode):
    cfg = tiny_cfg(mode)
    res = training.train(bundle, cfg)
    assert len(res.reports) == 2 * training.BatchScheduler(
        *training.make_pools(bundle), cfg).steps_per_epoch
    assert res.state.k == len(res.reports)
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


def test_run_directory_holds_metrics_and_checkpoint(bundle, tmp_path):
    res = training.train(bundle, tiny_cfg("LDM-DN-Sup"), out_dir=str(tmp_path))
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(training.CSV_COLUMNS)
    assert len(lines) == 1 + len(res.reports)
    net = load_checkpoint(res.checkpoint_dir)
    x = Tensor(training.make_pools(bundle)[1][0][0][None, None])
    assert np.array_equal(net.forward_corrected(x).data, res.net.forward_corrected(x).data)


# ------------------------------------------------------- patch-set order

def test_patch_entries_order():
    unpaired = ("x_hat_u", "z_x_u", "y_u", "z_y_u")
    paired = ("x_hat_p", "z_x_p", "y_p", "z_y_p")
    images, codes, prov = training._patch_entries(unpaired, paired)
    assert images == ("x_hat_u", "x_hat_p", "y_u", "y_p")
    assert codes == ("z_x_u", "z_x_p", "z_y_u", "z_y_p")
    assert prov == (CORRECTED, CORRECTED, FREE, FREE)
    assert training._patch_entries(None, paired) == (
        ("x_hat_p", "y_p"), ("z_x_p", "z_y_p"), (CORRECTED, FREE))


@pytest.mark.parametrize("mode", LDM_MODES)
def test_step_and_dual_refresh_build_the_same_patch_set(bundle, mode, monkeypatch):
    # With lr = 0 the update leaves the weights as they were, so the dual
    # refresh must rebuild the step's patch set row for row.
    cfg = tiny_cfg(mode, lr=0.0)
    built = []
    inner = training.build_patch_set

    def record(images, codes, geom, provenance=None):
        ps = inner(images, codes, geom, provenance=provenance)
        built.append(ps)
        return ps

    monkeypatch.setattr(training, "build_patch_set", record)
    net = training.build_network(cfg, bundle.cfg.image_size)
    training.training_step(net, first_batch(bundle, cfg), training.OptState(), cfg)
    assert len(built) == 2
    step, refresh = built
    entries = 1 + int(cfg.uses_adn and cfg.uses_sup)
    rows = cfg.batch_size * (bundle.cfg.image_size // cfg.s) ** 2
    assert list(step.provenance) == [CORRECTED] * (entries * rows) + [FREE] * (entries * rows)
    assert np.array_equal(step.provenance, refresh.provenance)
    assert np.array_equal(step.values(), refresh.values())


# ------------------------------------------------------- failed steps

def _snapshot(net, state):
    snap = {"k": state.k, "dual": state.dual.values.copy()}
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
    # every backward call leaves one inf gradient entry in the chosen store
    store = net.gen_params if failure == "gen_inf_grad" else net.disc_params
    inner = autodiff.backward

    def backward(t):
        inner(t)
        store[store.names()[-1]].grad.flat[0] = np.inf

    monkeypatch.setattr(autodiff, "backward", backward)
    return NanGradientError


@pytest.mark.parametrize("failure", ["gen_inf_grad", "disc_inf_grad", "solver_error"])
def test_failed_step_leaves_state_untouched(bundle, failure, monkeypatch):
    cfg = tiny_cfg("LDM-DN-Sup")
    unpaired, paired = training.make_pools(bundle)
    good, bad = list(training.BatchScheduler(unpaired, paired, cfg).epoch_batches(1))[:2]
    net = training.build_network(cfg, bundle.cfg.image_size)
    state = training.OptState()
    training.training_step(net, good, state, cfg)
    before = _snapshot(net, state)
    assert before["k"] == before["gen.step_count"] == before["disc.step_count"] == 1

    with pytest.raises(_inject(failure, net, monkeypatch)):
        training.training_step(net, bad, state, cfg)
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
