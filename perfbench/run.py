"""patchmar benchmark: one workload per call, its result as JSON on the last line.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1    # every workload, untraced and traced

Run from the repository root; the program is imported from src/. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a run
with span-recording wrappers installed (see spans.py). Metric names, units
and the workloads are defined in spec.py.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3     # set-ups per untraced run, each in a fresh process
BLAS_THREADS = 1      # one BLAS thread keeps run-to-run spread low on a shared host
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.all and args.workload is None:
        p.error("--workload or --all is required")
    return args


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def blas_info(np):
    """(name and version, thread count) of the BLAS numpy uses."""
    import ctypes
    import glob
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown", None
    name = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    # the build-time directory, then the copy bundled with a wheel
    dirs = [blas.get("lib directory", ""),
            os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")]
    for path in [p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*.so*"))]:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return name, int(getattr(lib, sym)())
    return name, None


def child_setup(args):
    """(set-up seconds, peak MiB through set-up) of the workload in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1]))


def tail(lat_ms):
    """(value, percentile) of the highest percentile with at least 10 samples
    beyond it: the 11th largest sample, at rank (n-11)/(n-1). Below 21 samples
    that sample sits under the median, so the maximum is reported instead."""
    s = sorted(lat_ms)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 11) / (n - 1)
    return s[-1], 100.0


def layer_metrics(spec, rec, out):
    win = out.window
    ops = sum(1 for *_, traced in win.ops if traced)
    per = 1.0 / ops if ops else 0.0
    ms = 1e3 * per * win.mean_factor(True)  # seconds -> ms per op at nominal host speed
    m = {}

    def stat(name, idx):
        return rec.stats.get(name, (0, 0.0, 0.0))[idx]

    for span in spec.TIMED_SPANS:
        m[f"{span}.ms"] = stat(span, 1) * ms
        m[f"{span}.calls"] = stat(span, 0) * per
    for conv in spec.ALL_CONVS:
        for side in ("fwd", "bwd"):
            m[f"{conv}.{side}_ms"] = stat(f"{conv}.{side}", 1) * ms
            m[f"{conv}.{side}_calls"] = stat(f"{conv}.{side}", 0) * per
    m["autodiff.backward.ms"] = stat("autodiff.backward", 1) * ms
    m["autodiff.backward.self_ms"] = stat("autodiff.backward", 2) * ms
    m["autodiff.backward.calls"] = stat("autodiff.backward", 0) * per
    m["autodiff.conv_gflop"] = rec.counts.get("autodiff.conv_flop", 0) / 1e9 * per
    rows = out.counts["manifold.m"]
    m["manifold.m"] = rows
    m["manifold.cg_iterations"] = out.counts["manifold.cg_iterations"]
    m["manifold.dense_mib"] = 3 * rows * rows * 8 / 2 ** 20
    traced_ms, untraced_ms = win.latencies_ms(True), win.latencies_ms(False)
    traced_p50 = statistics.median(traced_ms) if traced_ms else 0.0
    untraced_p50 = statistics.median(untraced_ms) if untraced_ms else 0.0
    m["trace.op_ms_p50"] = traced_p50
    m["trace.untraced_op_ms_p50"] = untraced_p50
    m["trace.overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0) if untraced_p50 else 0.0
    return m


def run_one(args):
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = \
        os.environ["MKL_NUM_THREADS"] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "patchmar")):
        raise SystemExit(f"patchmar sources not found under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import numpy as np
    import scipy
    import spec
    import spans
    import workloads

    if args.workload not in spec.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(spec.WORKLOADS)}")
    w = spec.WORKLOADS[args.workload]
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    traced = bool(args.trace)

    imports_s = time.perf_counter() - T0
    setups = []
    if not traced and not args.setup_only:
        setups = [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
    rec = spans.Recorder()
    restore = spans.install(rec) if traced else None
    t_setup = time.perf_counter()
    try:
        out = workloads.run(w, args.seed, seconds, rec, traced, args.setup_only)
    finally:
        if restore:
            restore()
    setups.append(((imports_s + out.setup_end - t_setup) * out.setup_factor,
                   out.setup_peak_mib))
    if args.setup_only:
        print(json.dumps(setups[-1]))
        return 0

    win = out.window
    nproc = os.cpu_count()
    blas_name, blas_threads = blas_info(np)
    problems = list(out.problems)
    if blas_threads is not None and blas_threads > nproc:
        problems.append(f"BLAS uses {blas_threads} threads on {nproc} CPUs")
    if not out.quality:
        problems.append("no quality measurement")
    lat = win.latencies_ms()
    raw = win.raw_latencies_ms()
    tail_ms, tail_pct = tail(lat) if lat else (0.0, 0.0)
    if traced:
        missing = [s for s in spec.EXPECTED_SPANS[args.workload] if rec.calls(s) == 0]
        if missing:
            problems.append(f"traced spans with zero calls: {missing}")
        metrics = layer_metrics(spec, rec, out)
        units = {n: u for n, u, _ in spec.per_layer()}
    else:
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "ops_per_s": len(lat) / (win.wall * win.mean_factor()),
            "op_ms_p50": statistics.median(lat) if lat else 0.0,
            "peak_rss_mib": statistics.median(m for _, m in setups),
            "artifact_rmse": out.quality.get("artifact_rmse", 0.0),
            "corrected_rmse": out.quality.get("corrected_rmse", 0.0),
        }
        units = {n: u for n, u, _, _ in spec.END_TO_END}

    record = {
        "workload": args.workload, "why": w["why"], "layer_map": spec.LAYER_MAP,
        "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "warmup_ops_excluded": 1, "setup_repeats": len(setups),
        "setup_s_each": [s for s, _ in setups],
        "setup_peak_rss_mib_each": [m for _, m in setups],
        "run_peak_rss_mib": workloads.peak_rss_mib(),
        "samples": len(lat), "wall_s": win.wall,
        "raw_op_ms_p50": statistics.median(raw) if raw else None,
        "raw_ops_per_s": len(raw) / win.wall,
        "calibration_ms": [round(ms, 3) for _, ms in win.cal.samples],
        "lat_ms": [round(x, 3) for x in lat],
        "op_ms_tail": tail_ms, "tail_percentile": tail_pct,
        "failed_frac": win.failed / max(win.attempted, 1),
        "nproc": nproc, "cpu_model": cpu_model(), "python": sys.version.split()[0],
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas_name, "blas_threads": blas_threads,
        "reading": out.reading, "problems": problems,
    }
    for name, value in metrics.items():
        print(f"{args.workload:>14}  {name:<48} {value:>14.6g} {units[name]}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(win.attempted, 1),
        "failed": win.failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def run_all(args):
    sys.path.insert(0, HERE)
    import spec
    status = 0
    for name in spec.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(traced)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            status |= subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
