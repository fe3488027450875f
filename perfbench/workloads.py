"""The benchmark's workloads: one closed loop in one process, one op at a time.

Every call into the program goes through a module attribute of the public
API (`ctsim.radon_forward`, `training.train`, ...), so the traced run's
wrappers see it.
"""

import math
import resource
import statistics
import time

import numpy as np
from scipy import ndimage

from patchmar import ctsim, training

SYNTH_GEOM = ctsim.ScanGeometry()
# Training datasets use a coarser scan (the detector row still covers the
# image diagonal), so that synthesizing ldm-sup-b32's 48 pairs on each of the
# three set-ups stays a small part of a run.
TRAIN_GEOM = ctsim.ScanGeometry(n_views=45, n_detectors=64, detector_spacing=1.5)
# The workload seed draws the dataset. Network init and batch order use this
# fixed training seed: after a few steps the model RMSE is mostly set by the
# init, which moved it by a third between seeds.
TRAIN_SEED = 0


class _Stop(Exception):
    """Raised from the op wrapper to end `training.train` when the window closes."""


def rmse(a, b):
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.mean(d * d)))


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


class Calibration:
    """A fixed kernel timed between ops, to track the speed of the host.

    The host this benchmark was built on shares its cores with other
    machines: for minutes at a time every kernel ran 1.4-1.8x slower, and
    the median op time of a run moved by as much (by 31% on synth and 40%
    on ldm-dn-sup-b1 between ten runs). This kernel (small matmuls, a
    cache-resident exp, an interpreter loop and map_coordinates) slowed in
    step: over 10-s bins its time correlated 0.99 with the ldm-dn-sup-b1 op
    time. Timings are therefore reported at nominal host speed, raw time *
    NOMINAL_MS / kernel time measured near it, which brought those spreads
    to 6% and 7%. No kernel tried tracked the bandwidth-bound ldm-sup-b32 op
    (correlation at most 0.5); its spread is about 15% either way.
    """

    NOMINAL_MS = 13.0  # the kernel's time on that host when idle, rounded
    EVERY_S = 1.0      # at most one kernel run per second of ops
    RADIUS_S = 5.0     # an op is scaled by the median kernel run this close to it

    def __init__(self):
        self.bufs = None
        self.samples = []  # (start time, ms)
        self.spent = 0.0   # seconds spent in the kernel

    def run(self):
        if self.bufs is None:
            # Allocated once, on first use (after the set-up's memory peak is
            # read), so that the kernel's time does not depend on the
            # allocator state the ops leave behind.
            rng = np.random.default_rng(0)
            self.bufs = {"a": rng.random((64, 64)), "ab": np.empty((64, 64)),
                         "v": rng.random(1 << 16), "vb": np.empty(1 << 16),
                         "img": rng.random((64, 64)), "xy": rng.random((2, 20000)) * 63,
                         "xyb": np.empty(20000)}
        b = self.bufs
        t0 = time.perf_counter()
        for _ in range(300):
            np.matmul(b["a"], b["a"], out=b["ab"])
        for _ in range(48):
            np.exp(np.negative(b["v"], out=b["vb"]), out=b["vb"])
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(10):
            ndimage.map_coordinates(b["img"], b["xy"], output=b["xyb"], order=1)
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt * 1e3))
        self.spent += dt

    def due(self):
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= self.EVERY_S

    def factor(self, t0, t1):
        """Scale for a stretch [t0, t1] of wall time: nominal / nearby kernel time."""
        near = [ms for t, ms in self.samples
                if t0 - self.RADIUS_S <= t <= t1 + self.RADIUS_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return self.NOMINAL_MS / statistics.median(near)


class Window:
    """The timed phase: runs until `seconds` of wall time (kernel runs left
    out) have passed and at least `min_ops` ops were attempted. In a traced
    run every other op is traced, so the untraced ops of the same run give
    the tracing overhead."""

    def __init__(self, seconds, min_ops, rec, traced):
        self.seconds = seconds
        self.min_ops = min_ops
        self.rec = rec
        self.traced = traced
        self.cal = Calibration()
        self.ops = []  # (start, end, traced) of every op that returned
        self.attempted = 0
        self.failed = 0
        self.start = None
        self.cal_before = 0.0
        self.wall = None

    def setup_factor(self):
        """Host-speed scale for the set-up just finished, from three kernel runs."""
        for _ in range(3):
            self.cal.run()
        return self.cal.NOMINAL_MS / statistics.median(ms for _, ms in self.cal.samples[-3:])

    def begin(self):
        self.start = time.perf_counter()
        self.cal_before = self.cal.spent

    def elapsed(self):
        return time.perf_counter() - self.start - (self.cal.spent - self.cal_before)

    def done(self):
        if self.attempted >= self.min_ops and self.elapsed() >= self.seconds:
            self.wall = self.elapsed()
            self.cal.run()  # so that the last ops have a kernel run after them
            return True
        return False

    def run_op(self, fn, *args):
        """Time one op; an exception propagates with the op counted as failed."""
        if self.cal.due():
            self.cal.run()
        traced = self.traced and self.attempted % 2 == 0
        self.attempted += 1
        self.rec.on = self.rec.counting = traced
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            raise
        finally:
            self.rec.on = self.rec.counting = False
        self.ops.append((t0, time.perf_counter(), traced))
        return out

    def latencies_ms(self, traced=None):
        """Op latencies at nominal host speed; all ops, or the (un)traced ones."""
        return [(t1 - t0) * 1e3 * self.cal.factor(t0, t1)
                for t0, t1, tr in self.ops if traced is None or tr == traced]

    def raw_latencies_ms(self):
        return [(t1 - t0) * 1e3 for t0, t1, _ in self.ops]

    def mean_factor(self, traced=None):
        """Host-speed scale of all ops, or the (un)traced ones, weighted by duration."""
        ops = [(t0, t1) for t0, t1, tr in self.ops if traced is None or tr == traced]
        total = sum(t1 - t0 for t0, t1 in ops)
        if not total:
            return 1.0
        return sum((t1 - t0) * self.cal.factor(t0, t1) for t0, t1 in ops) / total


class Outcome:
    def __init__(self):
        self.setup_end = None
        self.setup_factor = None    # host-speed scale for the set-up time
        self.setup_peak_mib = None  # peak resident memory through set-up
        self.window = None
        self.quality = {}    # end-to-end quality metrics
        self.reading = {}    # printed for reading only (PSNR, SSIM, ...)
        self.counts = {"manifold.m": 0, "manifold.cg_iterations": 0.0}
        self.problems = []   # failed output checks, by description


# ---------------------------------------------------------------------------
# synth: one op is one synthesized pair plus its LI baseline

def _pair_seed(seed, i):
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def synth_op(pair_seed, geom=SYNTH_GEOM):
    """One pair from synthesize_dataset, and the LI pass for the same pair.

    `_make_pair` keeps no sinogram, so the LI pass rebuilds the pair with
    the public chain random_phantom -> random_metal_mask -> radon_forward ->
    corrupt_metal -> li_correct / fbp, drawing from the same generator as
    synthesize_dataset; its uncorrected image must equal the dataset's.
    """
    cfg = ctsim.SynthConfig(seed=pair_seed, test_pairs=0)
    pair = ctsim.synthesize_dataset(1, geom, cfg).train[0]
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 101]))
    n = cfg.image_size
    clean_px, body = ctsim.random_phantom(rng, n)
    mask = ctsim.random_metal_mask(rng, n, body)
    sino = ctsim.radon_forward(ctsim.PhantomImage(pixels=clean_px, metal_mask=mask), geom)
    corrupted = ctsim.corrupt_metal(sino, cfg.severity, rng=rng, noise_scale=cfg.noise_scale)
    artifact = ctsim.fbp(corrupted, geom, image_size=n)
    li = ctsim.fbp(ctsim.li_correct(corrupted), geom, image_size=n)
    peak = float(np.ptp(pair.clean.astype(np.float64))) or 1.0
    return {
        "pair": pair,
        "chain_matches": bool(np.allclose(artifact, pair.artifact, rtol=0, atol=1e-5)),
        "finite": _finite(pair.artifact, pair.clean, artifact, li),
        "artifact_rmse": rmse(pair.artifact, pair.clean),
        "li_rmse": rmse(li, pair.clean),
        "ssim_artifact": ctsim.ssim(pair.artifact, pair.clean, data_range=peak),
        "ssim_li": ctsim.ssim(li, pair.clean, data_range=peak),
        "psnr_artifact": ctsim.psnr(pair.artifact, pair.clean, peak),
        "psnr_li": ctsim.psnr(li, pair.clean, peak),
    }


def run_synth(w, seed, seconds, rec, traced, setup_only):
    out = Outcome()
    win = out.window = Window(seconds, w["quality_ops"], rec, traced)
    synth_op(_pair_seed(seed, 0))
    out.setup_end = time.perf_counter()
    out.setup_peak_mib = peak_rss_mib()
    out.setup_factor = win.setup_factor()
    if setup_only:
        return out
    kept = []
    win.begin()
    while not win.done():
        i = win.attempted + 1
        try:
            r = win.run_op(synth_op, _pair_seed(seed, i))
        except Exception as e:  # a failed op is counted; the loop goes on
            out.problems.append(f"op {i}: {type(e).__name__}: {e}")
            continue
        bad = [c for c in ("chain_matches", "finite") if not r[c]]
        if bad:
            win.failed += 1
            out.problems.append(f"op {i}: failed check {bad}")
        elif len(kept) < w["quality_ops"]:
            kept.append(r)
    if kept:
        out.quality = {"artifact_rmse": statistics.fmean(r["artifact_rmse"] for r in kept),
                       "corrected_rmse": statistics.fmean(r["li_rmse"] for r in kept)}
        out.reading = {k: statistics.fmean(r[k] for r in kept)
                       for k in ("li_rmse", "psnr_artifact", "psnr_li",
                                 "ssim_artifact", "ssim_li")}
        out.reading["quality_pairs"] = len(kept)
    return out


# ---------------------------------------------------------------------------
# training workloads: one op is one training_step inside training.train

def _step_problems(rep, state, cfg):
    bad = [k for k, v in rep.losses.items() if not math.isfinite(v)]
    out = [f"non-finite loss {k}" for k in bad]
    if cfg.uses_ldm:
        d = state.dual.values
        if not (np.isfinite(d).all() and d.min() >= 0.0 and d.max() <= 1.0):
            out.append("dual outside [0, 1]")
        if rep.cg_residual is None or not math.isfinite(rep.cg_residual):
            out.append("non-finite CG residual")
    return out


def _evaluate(bundle, net, out):
    """Quality on the held-out pairs; the model RMSE is recovered from the PSNR
    evaluate_pairs reports against each clean image's dynamic range."""
    rows = training.evaluate_pairs(net, bundle.test, bundle.cfg.amax)
    model = []
    for p, row in zip(bundle.test, rows):
        peak = float(np.ptp(np.asarray(p.clean, dtype=np.float64))) or 1.0
        if not (math.isfinite(row["psnr_corrected"]) and math.isfinite(row["ssim_corrected"])):
            out.problems.append(f"non-finite model output on test pair {p.index}")
            continue
        model.append(peak * 10.0 ** (-row["psnr_corrected"] / 20.0))
    if model:
        out.quality = {"artifact_rmse": statistics.fmean(rmse(p.artifact, p.clean)
                                                         for p in bundle.test),
                       "corrected_rmse": statistics.fmean(model)}
        out.reading = {"model_rmse": out.quality["corrected_rmse"],
                       "quality_pairs": len(model)}
        for k in ("psnr_artifact", "psnr_corrected", "ssim_artifact", "ssim_corrected"):
            out.reading[k] = statistics.fmean(r[k] for r in rows)


def run_train(w, seed, seconds, rec, traced, setup_only):
    out = Outcome()
    k_quality = w["quality_ops"]
    bundle = ctsim.synthesize_dataset(
        w["train_pairs"], TRAIN_GEOM,
        ctsim.SynthConfig(seed=seed, test_pairs=w["test_pairs"]))
    cfg = training.TrainConfig(mode=w["mode"], batch_size=w["batch_size"], seed=TRAIN_SEED,
                               epochs=10 ** 9)
    win = out.window = Window(seconds, k_quality, rec, traced)
    inner = training.training_step
    last = {}
    snapshot = []  # generator parameters after k_quality ops
    cg_total = 0

    def step(net, batch, state, cfg, kcfg=None):
        nonlocal cg_total
        last["net"] = net
        if win.start is None:  # the warm-up op closes set-up
            rep = inner(net, batch, state, cfg, kcfg)
            out.setup_end = time.perf_counter()
            out.setup_peak_mib = peak_rss_mib()
            out.setup_factor = win.setup_factor()
            out.problems += [f"warm-up: {p}" for p in _step_problems(rep, state, cfg)]
            if setup_only:
                raise _Stop
            win.begin()
            return rep
        if win.done():
            raise _Stop
        rep = win.run_op(inner, net, batch, state, cfg, kcfg)
        bad = _step_problems(rep, state, cfg)
        if bad:
            win.failed += 1
            out.problems += [f"op {win.attempted}: {p}" for p in bad]
        if win.attempted <= k_quality:
            out.counts["manifold.m"] = state.dual.values.shape[0] if cfg.uses_ldm else 0
            cg_total += rep.cg_iterations or 0
            if win.attempted == k_quality:
                out.counts["manifold.cg_iterations"] = cg_total / k_quality
                snapshot.extend((t, t.data.copy()) for _, t in net.gen_params.items())
        return rep

    training.training_step = step
    try:
        training.train(bundle, cfg)
    except _Stop:
        pass
    except Exception as e:  # SolverError, NanGradientError or any other error
        if win.start is None:
            raise
        # train() cannot go on: the rest of the window counts as failed ops
        lat = win.raw_latencies_ms()
        p50 = statistics.median(lat) if lat else None
        left = max(0.0, seconds - win.elapsed())
        rest = max(k_quality - win.attempted, math.ceil(left * 1e3 / p50) if p50 else 0)
        win.attempted += rest
        win.failed += rest
        win.wall = win.elapsed()
        out.problems.append(f"train() raised {type(e).__name__}: {e}; "
                            f"{rest} remaining ops counted as failed")
    finally:
        training.training_step = inner
    if setup_only:
        return out
    # Quality is evaluated after the window, so that its allocations cannot
    # disturb the timed ops or the memory peak they set.
    for t, data in snapshot:
        t.data = data
    rec.on = traced
    try:
        _evaluate(bundle, last["net"], out)
    finally:
        rec.on = False
    return out


def run(w, seed, seconds, rec, traced, setup_only):
    runner = run_synth if w["kind"] == "synth" else run_train
    return runner(w, seed, seconds, rec, traced, setup_only)
