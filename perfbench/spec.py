"""What the patchmar benchmark measures: workloads, metrics and the layer map.

This module is the single source of the metric names. Running it rewrites
BENCHMARK.json at the repository root from these tables:

    python3 perfbench/spec.py
"""

import json
import os

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# Workload parameters. An op is one synthesized pair on `synth` and one
# training step on the training workloads. `quality_ops` is the fixed op
# count over which quality and the exact counts are taken, so they repeat
# exactly for a seed however many ops the timed window holds; a run always
# makes at least that many ops.
WORKLOADS = {
    "synth": {
        "why": ("ctsim alone: default 180x128 geometry on 64x64 images plus an LI "
                "pass per pair, nearly all time in the line-integral projector"),
        "kind": "synth",
        "quality_ops": 20,
    },
    "ldm-dn-sup-b1": {
        "why": ("LDM-DN-Sup at batch 1, m=256: conv forward/backward and autodiff "
                "dominate, the patch graph is small; discriminators and dual refresh run"),
        "kind": "train",
        "mode": "LDM-DN-Sup",
        "batch_size": 1,
        "train_pairs": 8,
        "test_pairs": 32,
        "quality_ops": 30,
    },
    "ldm-sup-b32": {
        "why": ("LDM-Sup (PairedLDM) at batch 32, m=4096: the dense m^2 patch graph "
                "(weights, CG solve) dominates time and peak memory"),
        "kind": "train",
        "mode": "LDM-Sup",
        "batch_size": 32,
        "train_pairs": 32,
        "test_pairs": 16,
        "quality_ops": 4,
    },
}

# Which end-to-end metric each layer should move, on which workload.
LAYER_MAP = {
    "ctsim": "ops_per_s and op_ms_* on synth; setup_s on ldm-dn-sup-b1 and ldm-sup-b32",
    "autodiff": "op_ms_p50 on ldm-dn-sup-b1 strongly, on ldm-sup-b32 weakly",
    "networks": "op_ms_p50 on ldm-dn-sup-b1 strongly, on ldm-sup-b32 weakly",
    "manifold": "op_ms_p50 and peak_rss_mib on ldm-sup-b32; barely ldm-dn-sup-b1",
    "optim": "about 2% of a step; predicted to move nothing",
    "training": "the op itself on the training workloads (sum of the layers above)",
}

# name, unit, better, bound. Times are at nominal host speed (see
# workloads.Calibration). The op latency tail is printed in each run's record
# but not gated: across runs on the shared host it spread by 29% on
# ldm-dn-sup-b1, more than any allowed bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.05),
    ("artifact_rmse", "1/px", "lower", 0.25),
    ("corrected_rmse", "1/px", "lower", 0.25),
]

CTSIM_SPANS = ("radon_forward", "fbp", "corrupt_metal", "li_correct", "ssim")
NETWORK_SPANS = ("forward", "forward_corrected", "free_code", "loss_adn",
                 "discriminator_loss")
MANIFOLD_SPANS = ("build_patch_set", "gaussian_weights", "solve_coordinates",
                  "dirichlet_energy")
OPTIM_SPANS = ("adam_step", "check_grads")
TRAINING_SPANS = ("training_step", "dual_refresh", "evaluate_pairs")

# Conv shapes as k{kernel.shape[0]}x{kernel.shape[1]}x{kh}s{stride}i{input extent};
# the batch size is left out so both training workloads share the names.
CONV2D_PAIRED = ("k8x1x3s1i64", "k16x8x4s2i64", "k32x16x4s2i32", "k64x32x4s2i16",
                 "k1x8x3s1i64", "k64x64x1s1i8")
CONV2D_UNPAIRED_ONLY = ("k64x128x3s1i8", "k8x1x4s2i64", "k16x8x4s2i32", "k1x16x3s1i16")
CONV_T = ("k64x32x4s2i8", "k32x16x4s2i16", "k16x8x4s2i32")


def conv_span_names(keys_2d, keys_t):
    return ([f"autodiff.conv2d.{k}" for k in keys_2d]
            + [f"autodiff.conv_transpose2d.{k}" for k in keys_t])


ALL_CONVS = conv_span_names(CONV2D_PAIRED + CONV2D_UNPAIRED_ONLY, CONV_T)
PAIRED_CONVS = conv_span_names(CONV2D_PAIRED, CONV_T)

# Spans reported as ms and calls per op.
TIMED_SPANS = ([f"ctsim.{n}" for n in CTSIM_SPANS]
               + [f"networks.{n}" for n in NETWORK_SPANS]
               + [f"manifold.{n}" for n in MANIFOLD_SPANS]
               + [f"optim.{n}" for n in OPTIM_SPANS]
               + [f"training.{n}" for n in TRAINING_SPANS])

# Spans that must record calls in a traced run of each workload.
_TRAIN_COMMON = ([f"manifold.{n}" for n in MANIFOLD_SPANS]
                 + [f"optim.{n}" for n in OPTIM_SPANS]
                 + [f"training.{n}" for n in TRAINING_SPANS]
                 + ["ctsim.ssim", "autodiff.backward", "networks.forward",
                    "networks.forward_corrected", "networks.free_code"])
EXPECTED_SPANS = {
    "synth": [f"ctsim.{n}" for n in CTSIM_SPANS],
    "ldm-dn-sup-b1": (_TRAIN_COMMON + ["networks.loss_adn", "networks.discriminator_loss"]
                      + [c + ".fwd" for c in ALL_CONVS] + [c + ".bwd" for c in ALL_CONVS]),
    "ldm-sup-b32": (_TRAIN_COMMON + [c + ".fwd" for c in PAIRED_CONVS]
                    + [c + ".bwd" for c in PAIRED_CONVS]),
}


def per_layer():
    """(name, unit, better) of every per-layer metric of a traced run."""
    out = []
    for span in TIMED_SPANS:
        out += [(f"{span}.ms", "ms", "lower"), (f"{span}.calls", "calls", "lower")]
    for conv in ALL_CONVS:
        out += [(f"{conv}.fwd_ms", "ms", "lower"), (f"{conv}.fwd_calls", "calls", "lower"),
                (f"{conv}.bwd_ms", "ms", "lower"), (f"{conv}.bwd_calls", "calls", "lower")]
    out += [
        ("autodiff.backward.ms", "ms", "lower"),
        ("autodiff.backward.self_ms", "ms", "lower"),
        ("autodiff.backward.calls", "calls", "lower"),
        ("autodiff.conv_gflop", "GFLOP", "lower"),
        ("manifold.m", "rows", "lower"),
        ("manifold.cg_iterations", "iterations", "lower"),
        ("manifold.dense_mib", "MiB", "lower"),
        ("trace.op_ms_p50", "ms", "lower"),
        ("trace.untraced_op_ms_p50", "ms", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w["why"]} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as f:
        json.dump(benchmark_json(), f, indent=2)
        f.write("\n")
