import contextlib
import csv
import dataclasses
import importlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from patchmar import cli, ctsim, training
from patchmar.networks import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent
# 4 training pairs give each unpaired pool an image; 2 steps per run
TINY = ["--epochs", "1", "--batch-size", "2", "--pairs", "4", "--test-pairs", "1",
        "--data-seed", "3"]


def run(run_dir, *flags):
    cli.main(["train", str(run_dir), *TINY, *flags])
    return run_dir


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One tiny run per mode: mode -> (its RUN_DIR, its stdout summary)."""
    out = {}
    for mode in training.MODES:
        run_dir = tmp_path_factory.mktemp("runs") / mode
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            run(run_dir, "--mode", mode)
        out[mode] = (run_dir, json.loads(stdout.getvalue().splitlines()[-1]))
    return out


@pytest.fixture(scope="module")
def bundle():
    """The bundle the TINY flags synthesize."""
    return ctsim.synthesize_dataset(4, cli.GEOMETRY, ctsim.SynthConfig(seed=3, test_pairs=1))


@pytest.mark.parametrize("mode", training.MODES)
def test_a_run_writes_its_manifest_metrics_checkpoint_and_scores(runs, bundle, mode):
    run_dir, summary = runs[mode]
    assert sorted(p.name for p in run_dir.iterdir()) == \
        ["checkpoint", "eval.csv", "metrics.csv", "run.json"]
    manifest = json.loads((run_dir / "run.json").read_text())
    # an omitted flag takes the dataclass default
    cfg = training.TrainConfig(mode=mode, epochs=1, batch_size=2)
    assert manifest == {"train": dataclasses.asdict(cfg),
                        "synth": dataclasses.asdict(bundle.cfg), "n_pairs": 4,
                        "geometry": dataclasses.asdict(cli.GEOMETRY),
                        "numpy": np.__version__}

    metrics = (run_dir / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 1 + summary["steps"] and summary["steps"] == 2

    # the scored network is the saved one
    rows = training.evaluate_pairs(load_checkpoint(str(run_dir / "checkpoint")),
                                   bundle.test, bundle.cfg.amax)
    with open(run_dir / "eval.csv", newline="") as f:
        written = list(csv.DictReader(f))
    assert [int(r["index"]) for r in written] == [r["index"] for r in rows]
    for key in cli.EVAL_COLUMNS[1:]:
        assert [float(r[key]) for r in written] == [r[key] for r in rows]
        assert summary[key] == np.mean([r[key] for r in rows])


def test_two_runs_with_the_same_flags_score_byte_identically(runs, tmp_path):
    first, _ = runs["LDM-DN-Sup"]
    second = run(tmp_path / "again", "--mode", "LDM-DN-Sup")
    for name in ("eval.csv", "metrics.csv", "run.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("flags,message", [
    (["--lambda", "-1"], "lambda must be finite and non-negative"),
    (["--lambda", "nan"], "lambda must be finite and non-negative"),
    (["--pairs", "0"], "need at least one pair"),
    (["--mode", "ADN", "--pairs", "1"], "requires non-empty unpaired pools"),
    (["--mode", "SUP"], "unknown mode"),
], ids=["lambda-negative", "lambda-nan", "pairs-0", "empty-pool", "mode"])
def test_a_bad_value_exits_2_before_the_run_directory_is_made(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as err:
        run(tmp_path / "run", *flags)  # a later flag overrides TINY's
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_non_empty_run_directory_is_refused(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("an earlier run's file\n")
    with pytest.raises(SystemExit) as err:
        run(tmp_path)
    assert err.value.code == 2
    assert "exists and is not an empty directory" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]


def test_an_empty_run_directory_is_used(tmp_path):
    run(tmp_path)
    assert (tmp_path / "eval.csv").exists()


def test_console_script_names_an_importable_callable():
    # read as text: tomllib is not in Python 3.10's standard library
    text = (ROOT / "pyproject.toml").read_text()
    section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    entry = re.fullmatch(r'patchmar = "([\w.]+):(\w+)"', section.strip())
    assert entry, section
    assert callable(getattr(importlib.import_module(entry[1]), entry[2]))
