"""The names the benchmark's traced run wraps are still called by training.

`perfbench/spans.py` replaces functions in the patchmar modules by name, and
a traced run fails when a span that `perfbench/spec.py` requires records no
call. This runs both training workloads' modes at a tiny size under the same
wrappers, so a renamed function or a rerouted branch fails here too. The
synth workload's own op, from workloads.py, runs once under them as well;
workloads.py needs scipy at import, which the dev extra installs. Each
training workload's `run_train` also runs once at a shrunk size, so a step
signature that its op wrapper no longer fits fails here.
"""

import importlib.util
from pathlib import Path

import pytest

from patchmar import autodiff, ctsim, manifold, networks, optim, training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
bench_spec = _load("spec")
workloads = _load("workloads")

WRAPPED = (autodiff, ctsim, manifold, networks, optim, training, networks.DisentangleNet)


def _traced(run):
    """Run `run()` under the benchmark's wrappers and return their recorder,
    after asserting that every wrapped name was restored."""
    originals = [dict(vars(owner)) for owner in WRAPPED]
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
        rec.on = True
        run()
    finally:
        restore()
    for owner, before in zip(WRAPPED, originals):
        after = vars(owner)
        assert [k for k in before if after.get(k) is not before[k]] == [], owner
    return rec


@pytest.fixture(scope="module")
def bundle():
    geom = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
    return ctsim.synthesize_dataset(4, geom, ctsim.SynthConfig(seed=2, test_pairs=1))


@pytest.mark.parametrize("workload", ["ldm-dn-sup-b1", "ldm-sup-b32"])
def test_traced_training_records_every_required_span(bundle, workload):
    def run():
        cfg = training.TrainConfig(mode=bench_spec.WORKLOADS[workload]["mode"],
                                   batch_size=2, epochs=1, lr=1e-3)
        result = training.train(bundle, cfg)
        training.evaluate_pairs(result.net, bundle.test, bundle.cfg.amax)

    rec = _traced(run)
    missing = [s for s in bench_spec.EXPECTED_SPANS[workload] if rec.calls(s) == 0]
    assert missing == []


def test_traced_synth_op_records_every_required_span():
    rec = _traced(lambda: workloads.synth_op(workloads._pair_seed(1, 0)))
    missing = [s for s in bench_spec.EXPECTED_SPANS["synth"] if rec.calls(s) == 0]
    assert missing == []


@pytest.mark.parametrize("workload", ["ldm-dn-sup-b1", "ldm-sup-b32"])
def test_run_train_runs_a_shrunk_workload_without_problems(workload):
    # the benchmark's own op wrapper replaces training.training_step and
    # forwards its positional arguments, so a changed step signature fails here
    w = dict(bench_spec.WORKLOADS[workload], batch_size=2, train_pairs=4, test_pairs=1,
             quality_ops=2)
    out = workloads.run_train(w, 1, 0.0, spans.Recorder(), traced=False, setup_only=False)
    assert out.problems == []
    assert out.window.failed == 0
    assert {"artifact_rmse", "corrected_rmse"} <= out.quality.keys()
