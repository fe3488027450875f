"""The command-line driver: `patchmar train RUN_DIR [flags]` synthesizes a
bundle in-process, trains one mode on it and scores its test pairs.

Each flag sets one `TrainConfig` or `SynthConfig` field, or
`synthesize_dataset`'s pair count (`--pairs`, which has no default and so is
required); an omitted flag takes the field's default, read from the
dataclass. A value the dataclass or `synthesize_dataset` rejects, a mode
whose pools come out empty, and a RUN_DIR that exists and is not empty each
exit 2 with their message before RUN_DIR is made, so two runs' files never
mix. RUN_DIR then holds:
- run.json: both configs, the pair count, the scan geometry and the numpy
  version, written before the first step;
- metrics.csv and checkpoint/, written by `train`;
- eval.csv: `evaluate_pairs`' row for each test pair, scored with the
  trained network.
The last stdout line is one JSON object: the step count, and the mean PSNR
and SSIM of the corrected and the uncorrected test images.
"""

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from .ctsim import ScanGeometry, SynthConfig, synthesize_dataset
from .training import TrainConfig, evaluate_pairs, make_pools, train

# every run synthesizes at this scan: 45 views on 64 detectors 1.5 pixels apart
GEOMETRY = ScanGeometry(45, 64, 1.5)
EVAL_COLUMNS = ("index", "psnr_artifact", "psnr_corrected", "ssim_artifact", "ssim_corrected")


def _parsers():
    """The top-level parser and its `train` subparser."""
    parser = argparse.ArgumentParser(prog="patchmar")
    commands = parser.add_subparsers(dest="command", required=True)
    sub = commands.add_parser("train", help="synthesize, train one mode, evaluate",
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sub.add_argument("run_dir", metavar="RUN_DIR", help="a new or empty directory")
    sub.add_argument("--mode", default=TrainConfig.mode, help="TrainConfig.mode")
    sub.add_argument("--epochs", type=int, default=TrainConfig.epochs,
                     help="TrainConfig.epochs")
    sub.add_argument("--batch-size", type=int, default=TrainConfig.batch_size,
                     help="TrainConfig.batch_size")
    sub.add_argument("--lambda", dest="lambda_ldm", type=float, default=TrainConfig.lambda_ldm,
                     help="TrainConfig.lambda_ldm")
    sub.add_argument("--mu-bar", type=float, default=TrainConfig.mu_bar,
                     help="TrainConfig.mu_bar")
    sub.add_argument("--seed", type=int, default=TrainConfig.seed, help="TrainConfig.seed")
    sub.add_argument("--lr", type=float, default=TrainConfig.lr, help="TrainConfig.lr")
    sub.add_argument("--data-seed", type=int, default=SynthConfig.seed, help="SynthConfig.seed")
    sub.add_argument("--test-pairs", type=int, default=SynthConfig.test_pairs,
                     help="SynthConfig.test_pairs")
    sub.add_argument("--pairs", type=int, required=True, default=argparse.SUPPRESS,
                     help="synthesize_dataset's n_pairs, required")
    return parser, sub


def main(argv=None):
    parser, sub = _parsers()
    args = parser.parse_args(argv)
    run_dir = args.run_dir
    try:
        cfg = TrainConfig(mode=args.mode, epochs=args.epochs, batch_size=args.batch_size,
                          lambda_ldm=args.lambda_ldm, mu_bar=args.mu_bar, seed=args.seed,
                          lr=args.lr)
        synth = SynthConfig(seed=args.data_seed, test_pairs=args.test_pairs)
        if os.path.exists(run_dir) and (not os.path.isdir(run_dir) or os.listdir(run_dir)):
            raise ValueError(f"run directory {run_dir} exists and is not an empty directory")
        bundle = synthesize_dataset(args.pairs, GEOMETRY, synth)
        make_pools(bundle, cfg)  # raises on an empty pool the mode draws
    except ValueError as e:
        sub.error(str(e))

    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "run.json"), "w") as f:
        json.dump({"train": dataclasses.asdict(cfg), "synth": dataclasses.asdict(synth),
                   "n_pairs": args.pairs, "geometry": dataclasses.asdict(GEOMETRY),
                   "numpy": np.__version__}, f, indent=1)
    result = train(bundle, cfg, out_dir=run_dir)
    rows = evaluate_pairs(result.net, bundle.test, synth.amax)
    with open(os.path.join(run_dir, "eval.csv"), "w", newline="") as f:
        writer = csv.DictWriter(f, EVAL_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)

    summary = {"steps": len(result.reports)}
    for key in EVAL_COLUMNS[1:]:
        summary[key] = float(np.mean([row[key] for row in rows])) if rows else None
    print(json.dumps(summary))


if __name__ == "__main__":
    main(sys.argv[1:])
