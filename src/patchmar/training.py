"""Training outer loop: per-batch patch-set build, manifold solve, one Adam
update on the penalized objective, then the dual update at the new weights.

The knobs are the mode, lambda (`lambda_ldm`), mu_bar, the learning rate and
the run shape (epochs, batch size, seed). Nothing else is settable: the
architecture is fixed (`networks.PATCH_SIZE` s = 8, `networks.BASE_WIDTH`
= 8), Adam runs at its fixed setting (beta1 = 0.5, beta2 = 0.999,
eps = 1e-8), the kernel bandwidth is chosen per patch set (median squared
distance / 4), and evaluation measures PSNR/SSIM against each clean image's
dynamic range.

Each step with the manifold penalty active runs, in order: forward passes and
network losses; the Gaussian weight matrix W over the patch set P, whose
build also sums P's Dirichlet energy (the step's diagnostic); the solve
(L + mu_bar W) U = mu_bar W (P - d), with L = D - W applied from W and its
row sums D; one Adam update of
J(theta) = network_loss + lambda * ||U - P_theta + d||_F^2 with U and d held
constant (the penalty gradient flows through the patch set only); a fresh
patch-set build at the updated weights; the dual update
d <- minmax_normalize(d + U - P_new). A non-finite patch set, a failed solve
or a non-finite gradient aborts the step with parameters, Adam moments and
step counts, and dual untouched; the generator store's Adam step count is
the step number. Both patch-set builds take their entries from
`_patch_entries`, so their rows come in the same order. The step's graph,
its patch set and W are freed before the dual refresh, whose forward passes
build no graph (as in `evaluate_pairs`).

The objective's normalisation, as the code runs it:
- The penalty is lambda * ||U - P + d||^2 summed over all m * d entries,
  while `loss_sup` and the ADN terms are means over their elements (pixels,
  or logits for the adversarial terms).
- P has m = 2 * (branches drawn) * N * (H/s) * (W/s) rows, a corrected and
  a free entry per branch, and d = 2 * s^2 = 128 columns: the s x s pixel
  patch, then its s^2 code entries.
- Each penalised step runs one solve, one Adam step and one graph-free
  refresh.
- The dual is one m x d array, min-max normalised jointly over all its
  entries into [0, 1]. `BatchScheduler` reshuffles every epoch, so row i
  belongs to another image and branch from one step to the next.
- At lambda = 0 no solve or dual runs, and LDM-X trains as X bit for bit
  (tested).

In adversarial modes the discriminators are updated from the discriminator
loss alone: their gradients are zeroed after the generator backward, whose
adversarial terms reach them too.

Hybrid modes draw one unpaired (x, y) sample and one paired (x, gt) sample
per step and feed both loss paths and both patch-set branches at once.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .ctsim import denormalize_image, normalize_image, psnr, ssim
from .manifold import (DualVariable, KernelConfig, build_patch_set,
                       dirichlet_energy, gaussian_weights, normalize_dual,
                       solve_coordinates)
from .networks import (DisentangleNet, NetworkVariant, discriminator_loss, loss_adn,
                       loss_sup, save_checkpoint)
from .optim import adam_step, check_grads

MODES = ("Sup", "LDM-Sup", "ADN", "LDM-DN", "ADN-Sup", "LDM-DN-Sup")


class PoolError(ValueError):
    """A pool required by the training mode is empty."""


@dataclass
class TrainConfig:
    mode: str = "LDM-DN-Sup"
    epochs: int = 30
    batch_size: int = 1
    lambda_ldm: float = 0.6
    mu_bar: float = 0.6
    seed: int = 0
    lr: float = 1e-4

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'; expected one of {MODES}")
        # a comparison with NaN is False, so NaN fails each range test
        if not 0.0 <= self.lambda_ldm < math.inf:
            raise ValueError(f"lambda must be finite and non-negative, got {self.lambda_ldm}")
        if not 0.0 < self.mu_bar < math.inf:
            raise ValueError(f"mu_bar must be finite and positive, got {self.mu_bar}")
        if not 0.0 <= self.lr < math.inf:
            raise ValueError(f"learning rate must be finite and non-negative, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")

    @property
    def uses_sup(self):
        return self.mode in ("Sup", "LDM-Sup", "ADN-Sup", "LDM-DN-Sup")

    @property
    def uses_adn(self):
        return self.mode in ("ADN", "LDM-DN", "ADN-Sup", "LDM-DN-Sup")

    @property
    def uses_ldm(self):
        return self.mode in ("LDM-Sup", "LDM-DN", "LDM-DN-Sup")

    @property
    def variant(self):
        if self.uses_adn:
            return NetworkVariant.UNPAIRED_LDM if self.uses_ldm else NetworkVariant.UNPAIRED
        return NetworkVariant.PAIRED_LDM if self.uses_ldm else NetworkVariant.PAIRED

    def kernel_config(self):
        return KernelConfig(mu_bar=self.mu_bar)


@dataclass
class Batch:
    x_unpaired: np.ndarray = None
    y_unpaired: np.ndarray = None
    x_paired: np.ndarray = None
    gt_paired: np.ndarray = None


@dataclass
class OptState:
    dual: DualVariable = None


@dataclass
class StepReport:
    k: int = 0
    epoch: int = 0
    losses: dict = field(default_factory=dict)
    dirichlet_energy: float = None
    cg_residual: float = None
    cg_iterations: int = None
    dual_min: float = None
    dual_max: float = None


CSV_COLUMNS = ("step", "epoch", "loss_total", "loss_sup", "adv_clean", "adv_art",
               "recon", "cycle", "artifact", "disc_clean", "disc_art",
               "ldm_penalty", "dirichlet_energy", "cg_residual", "cg_iterations",
               "dual_min", "dual_max")


def report_row(rep):
    vals = {"step": rep.k, "epoch": rep.epoch,
            "dirichlet_energy": rep.dirichlet_energy,
            "cg_residual": rep.cg_residual, "cg_iterations": rep.cg_iterations,
            "dual_min": rep.dual_min, "dual_max": rep.dual_max}
    vals.update(rep.losses)
    out = []
    for col in CSV_COLUMNS:
        v = vals.get(col)
        if v is None:
            out.append("")
        elif isinstance(v, int):
            out.append(str(v))
        else:
            out.append(format(float(v), ".10g"))
    return out


# ---------------------------------------------------------------------------
# batch scheduling

class BatchScheduler:
    """Seeded epoch shuffles over the pools a mode requires.

    An epoch is ceil(max(active pool sizes) / bs) steps; shorter pools cycle
    through their permutation so every step carries one sample from each
    active pool.
    """

    def __init__(self, unpaired_pools, paired_pool, cfg):
        self.cfg = cfg
        self.art_pool = self.clean_pool = self.x_pool = self.gt_pool = None
        if cfg.uses_adn:
            if not unpaired_pools or not len(unpaired_pools[0]) or not len(unpaired_pools[1]):
                raise PoolError(f"mode {cfg.mode} requires non-empty unpaired pools")
            self.art_pool, self.clean_pool = unpaired_pools
        if cfg.uses_sup:
            if not paired_pool or not len(paired_pool[0]):
                raise PoolError(f"mode {cfg.mode} requires a non-empty paired pool")
            self.x_pool, self.gt_pool = paired_pool

    @property
    def steps_per_epoch(self):
        pools = (self.art_pool, self.clean_pool, self.x_pool)
        return math.ceil(max(len(p) for p in pools if p is not None) / self.cfg.batch_size)

    def epoch_batches(self, epoch):
        rng = np.random.default_rng(np.random.SeedSequence([self.cfg.seed, 7, epoch]))
        art = clean = paired = None
        if self.art_pool is not None:
            art = rng.permutation(len(self.art_pool))
            clean = rng.permutation(len(self.clean_pool))
        if self.x_pool is not None:
            paired = rng.permutation(len(self.x_pool))
        bs = self.cfg.batch_size

        for step in range(self.steps_per_epoch):
            idx = np.arange(step * bs, (step + 1) * bs)
            b = Batch()
            if art is not None:
                b.x_unpaired = self.art_pool[art[idx % len(art)]]
                b.y_unpaired = self.clean_pool[clean[idx % len(clean)]]
            if paired is not None:
                pick = paired[idx % len(paired)]
                b.x_paired, b.gt_paired = self.x_pool[pick], self.gt_pool[pick]
            yield b


def make_pools(bundle):
    """Normalized training pools from a synthesized dataset bundle, each a
    float32 [N,1,H,W] stack: (artifact, clean), (x, gt)."""
    amax, size = bundle.cfg.amax, bundle.cfg.image_size

    def stack(images):
        return np.array([normalize_image(im, amax) for im in images],
                        dtype=np.float32).reshape(-1, 1, size, size)

    train = bundle.train
    return ((stack([train[i].artifact for i in bundle.artifact_pool]),
             stack([train[i].clean for i in bundle.clean_pool])),
            (stack([p.artifact for p in train]), stack([p.clean for p in train])))


# ---------------------------------------------------------------------------
# penalty

def ldm_penalty(u, points, dual, lam):
    """lambda * ||U - P + d||_F^2 with U and the DualVariable d constant.

    Gradient reaches the network only through the patch-set tensor `points`.
    lam >= 0 holds by `TrainConfig`'s check.
    """
    u = np.asarray(u)
    if tuple(u.shape) != tuple(points.shape):
        raise ShapeError(f"u shape {u.shape} vs patch set {tuple(points.shape)}")
    dvals = dual.values
    if tuple(dvals.shape) != tuple(u.shape):
        raise ShapeError(f"dual shape {dvals.shape} vs u {u.shape}")
    const = Tensor((u + dvals).astype(points.dtype))
    return ad.scale(ad.frobenius_sq(ad.sub(const, points)), lam)


# ---------------------------------------------------------------------------
# the step

def _patch_entries(unpaired, paired):
    """Patch-set (images, codes) in the one fixed order: corrected-unpaired,
    corrected-paired, free-unpaired, free-paired.

    Each branch is an (x_hat, z_x, y, z_y) tuple, or None when the mode
    does not draw it.
    """
    branches = [b for b in (unpaired, paired) if b is not None]
    corrected = [(x_hat, z_x) for x_hat, z_x, _, _ in branches]
    free = [(y, z_y) for _, _, y, z_y in branches]
    return tuple(zip(*(corrected + free)))


def _coded_branch(net, x, y):
    """One patch-set branch, (x_hat, z_x, y, z_y): x through the corrected
    branch with its code, and the free code of y."""
    x_hat, z_x = net.forward_corrected(x, want_code=True)
    return x_hat, z_x, y, net.free_code(y)


def _ldm_entries_fresh(net, batch, cfg):
    """Patch-set entries recomputed at the current weights, values only:
    the forward passes build no autodiff graph."""
    with ad.no_graph():
        return _patch_entries(
            _coded_branch(net, Tensor(batch.x_unpaired), Tensor(batch.y_unpaired))
            if cfg.uses_adn else None,
            _coded_branch(net, Tensor(batch.x_paired), Tensor(batch.gt_paired))
            if cfg.uses_sup else None)


def _gradients(net, batch, dual, cfg, kcfg, rep):
    """Forward passes, losses, the manifold solve and both backward passes.

    Fills rep's losses and solver fields and returns (dual, U); U is None
    when the penalty is off. The step's graph, its patch set and W are
    locals here, so they are freed when this returns.
    """
    losses = rep.losses

    # forward passes and network losses, in a fixed order (sup then adn);
    # each branch keeps its (x_hat, z_x, y, z_y) for the patch set
    unpaired = paired = None
    total = None

    if cfg.uses_sup:
        x_p = Tensor(batch.x_paired)
        gt_p = Tensor(batch.gt_paired)
        if not cfg.uses_ldm:
            x_hat_p = net.forward_corrected(x_p)
        elif cfg.uses_adn:
            paired = _coded_branch(net, x_p, gt_p)
            x_hat_p = paired[0]
        else:  # the benchmark requires LDM-Sup's coded branch to run as net.forward
            out_p = net.forward(x_p, gt_p)
            x_hat_p = out_p.x_hat
            paired = (x_hat_p, out_p.z_x_t, gt_p, out_p.z_y_t)
        l_sup = loss_sup(x_hat_p, gt_p)
        losses["loss_sup"] = float(l_sup.data)
        total = l_sup

    if cfg.uses_adn:
        x_u = Tensor(batch.x_unpaired)
        y_u = Tensor(batch.y_unpaired)
        out_u = net.forward(x_u, y_u)
        unpaired = (out_u.x_hat, out_u.z_x_t, y_u, out_u.z_y_t)
        l_adn, terms = loss_adn(net, out_u, x_u, y_u)
        for name, t in terms.items():
            losses[name] = float(t.data)
        total = l_adn if total is None else ad.add(total, l_adn)

    # manifold stage (fallible: the solve may raise, leaving state untouched)
    u = None
    if cfg.uses_ldm and cfg.lambda_ldm > 0.0:
        images, codes = _patch_entries(unpaired, paired)
        points = build_patch_set(images, codes)
        p_now = points.data.astype(np.float64)
        graph = gaussian_weights(p_now)
        if dual is None:  # every batch has the same size, so the shape holds
            dual = DualVariable(values=np.zeros_like(p_now))
        solved = solve_coordinates(graph, p_now - dual.values, kcfg)
        rep.dirichlet_energy = dirichlet_energy(graph)
        del graph  # the backward passes do not need W
        u = solved.u
        rep.cg_residual = solved.residual
        rep.cg_iterations = solved.iterations
        penalty = ldm_penalty(u, points, dual, cfg.lambda_ldm)
        losses["ldm_penalty"] = float(penalty.data)
        total = penalty if total is None else ad.add(total, penalty)

    losses["loss_total"] = float(total.data)

    # gradients for generator and (in adversarial modes) discriminators; the
    # generator's adversarial terms also reach the discriminator weights, so
    # their gradients are zeroed only after the generator backward
    net.gen_params.zero_grad()
    ad.backward(total)
    if cfg.uses_adn:
        d_total, d_terms = discriminator_loss(net, out_u, x_u, y_u)
        for name, t in d_terms.items():
            losses[name] = float(t.data)
        net.disc_params.zero_grad()
        ad.backward(d_total)
    return dual, u


def training_step(net, batch, state, cfg, kcfg):
    """One outer iteration; returns a StepReport. Mutations happen only after
    every fallible stage has passed, so each of these failures leaves
    parameters, Adam moments and step counts, and the dual untouched:
    - a patch set with a NaN or infinite entry: ValueError from
      `gaussian_weights`;
    - a solve that misses its residual contract: SolverError;
    - a NaN or infinite gradient: NanGradientError.

    kcfg is cfg.kernel_config(), which `train` builds once per run."""
    rep = StepReport()
    dual, u = _gradients(net, batch, state.dual, cfg, kcfg, rep)

    # validate everything, then mutate (adam_step checks the generator store)
    if cfg.uses_adn:
        check_grads(net.disc_params)
    adam_step(net.gen_params, lr=cfg.lr)
    if cfg.uses_adn:
        adam_step(net.disc_params, lr=cfg.lr)
    rep.k = net.gen_params.step_count

    # dual update against the patch set at the new weights
    if u is not None:
        images, codes = _ldm_entries_fresh(net, batch, cfg)
        p_new = build_patch_set(images, codes).data.astype(np.float64)
        state.dual = normalize_dual(DualVariable(dual.values + u - p_new))
        rep.dual_min = float(state.dual.values.min())
        rep.dual_max = float(state.dual.values.max())
    return rep


# ---------------------------------------------------------------------------
# full runs

@dataclass
class TrainResult:
    net: DisentangleNet
    state: OptState
    reports: list
    metrics_path: str = None
    checkpoint_dir: str = None


def build_network(cfg):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    return DisentangleNet(cfg.variant, rng)


def train(bundle, cfg, out_dir=None):
    """Run cfg.epochs over the bundle. With out_dir, write `metrics.csv`
    (one row per step, CSV_COLUMNS) and the final network to `checkpoint/`.
    Returns the trained network, optimizer state and step reports."""
    unpaired_pools, paired_pool = make_pools(bundle)
    sched = BatchScheduler(unpaired_pools, paired_pool, cfg)
    net = build_network(cfg)
    state = OptState()
    kcfg = cfg.kernel_config()

    csv_file = None
    metrics_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        metrics_path = os.path.join(out_dir, "metrics.csv")
        csv_file = open(metrics_path, "w")
        csv_file.write(",".join(CSV_COLUMNS) + "\n")

    reports = []
    try:
        for epoch in range(1, cfg.epochs + 1):
            for batch in sched.epoch_batches(epoch):
                rep = training_step(net, batch, state, cfg, kcfg)
                rep.epoch = epoch
                reports.append(rep)
                if csv_file is not None:
                    csv_file.write(",".join(report_row(rep)) + "\n")
    finally:
        if csv_file is not None:
            csv_file.close()

    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoint")
        save_checkpoint(net, ckpt_dir)
    return TrainResult(net=net, state=state, reports=reports,
                       metrics_path=metrics_path, checkpoint_dir=ckpt_dir)


def evaluate_pairs(net, pairs, amax):
    """Per-pair PSNR/SSIM of corrected and uncorrected images vs ground truth.

    `net` needs a forward_corrected(Tensor) method. The peak (PSNR) and data
    range (SSIM) of each pair are fixed to its clean image's dynamic range,
    or 1.0 for a constant clean image. The forward passes build no autodiff
    graph."""
    rows = []
    for p in pairs:
        x = normalize_image(p.artifact, amax)[None, None, :, :]
        with ad.no_graph():
            corrected = net.forward_corrected(Tensor(x))
        rec = denormalize_image(corrected.data[0, 0], amax)
        clean = np.asarray(p.clean, dtype=np.float64)
        artifact = np.asarray(p.artifact, dtype=np.float64)
        pk = float(clean.max() - clean.min()) or 1.0
        rows.append({
            "index": p.index,
            "psnr_artifact": psnr(artifact, clean, pk),
            "psnr_corrected": psnr(rec, clean, pk),
            "ssim_artifact": ssim(artifact, clean, data_range=pk),
            "ssim_corrected": ssim(rec, clean, data_range=pk),
        })
    return rows
