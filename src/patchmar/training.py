"""Training outer loop: per-batch patch-set build, manifold solve, one Adam
update on the penalized objective, then the dual update at the new weights.

Each step with the manifold penalty active runs, in order: forward passes and
network losses; the Gaussian weight matrix W over the patch set; the solve
(L + mu_bar W) U = mu_bar W (P - d), with L = D - W applied from W and its
row sums D; one Adam update of
J(theta) = network_loss + lambda * ||U - P_theta + d||_F^2 with U and d held
constant (the penalty gradient flows through the patch set only); a fresh
patch-set build at the updated weights; the dual update
d <- minmax_normalize(d + U - P_new). A failed solve or a non-finite gradient
aborts the step with parameters, Adam moments, dual and step counter
untouched. Both patch-set builds take their entries from `_patch_entries`,
so their rows come in the same order.

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
from .manifold import (CORRECTED, FREE, DualVariable, KernelConfig,
                       build_patch_set, dirichlet_energy, gaussian_weights,
                       normalize_dual, solve_coordinates)
from .networks import (AdnLossWeights, DisentangleNet, GeometryConfig,
                       NetworkVariant, discriminator_loss, loss_adn, loss_sup,
                       save_checkpoint)
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
    kernel_t: float = None  # None selects the per-batch median bandwidth
    kernel_t_scale: float = 1.0
    seed: int = 0
    lr: float = 1e-4
    beta1: float = 0.5
    beta2: float = 0.999
    adam_eps: float = 1e-8
    s: int = 8
    base_width: int = 8
    adn_weights: AdnLossWeights = field(default_factory=AdnLossWeights)
    checkpoint_every: int = 0  # epochs; 0 = final only

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode '{self.mode}'; expected one of {MODES}")
        if self.lambda_ldm < 0:
            raise ValueError(f"lambda must be non-negative, got {self.lambda_ldm}")
        if self.mu_bar <= 0:
            raise ValueError(f"mu_bar must be positive, got {self.mu_bar}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
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
        return KernelConfig(t=self.kernel_t, t_scale=self.kernel_t_scale,
                            mu_bar=self.mu_bar)


@dataclass
class Batch:
    x_unpaired: np.ndarray = None
    y_unpaired: np.ndarray = None
    x_paired: np.ndarray = None
    gt_paired: np.ndarray = None


@dataclass
class OptState:
    k: int = 0
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
               "ldm_penalty", "dirichlet_energy", "cg_residual",
               "dual_min", "dual_max")


def report_row(rep):
    vals = {"step": rep.k, "epoch": rep.epoch,
            "dirichlet_energy": rep.dirichlet_energy,
            "cg_residual": rep.cg_residual,
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
        self.art_pool, self.clean_pool = (None, None)
        self.paired_pool = None
        if cfg.uses_adn:
            if (not unpaired_pools or not unpaired_pools[0] or not unpaired_pools[1]):
                raise PoolError(f"mode {cfg.mode} requires non-empty unpaired pools")
            self.art_pool, self.clean_pool = unpaired_pools
        if cfg.uses_sup:
            if not paired_pool:
                raise PoolError(f"mode {cfg.mode} requires a non-empty paired pool")
            self.paired_pool = paired_pool

    @property
    def steps_per_epoch(self):
        sizes = []
        if self.art_pool is not None:
            sizes += [len(self.art_pool), len(self.clean_pool)]
        if self.paired_pool is not None:
            sizes.append(len(self.paired_pool))
        return math.ceil(max(sizes) / self.cfg.batch_size)

    def epoch_batches(self, epoch):
        rng = np.random.default_rng(np.random.SeedSequence([self.cfg.seed, 7, epoch]))
        perms = {}
        if self.art_pool is not None:
            perms["art"] = rng.permutation(len(self.art_pool))
            perms["clean"] = rng.permutation(len(self.clean_pool))
        if self.paired_pool is not None:
            perms["paired"] = rng.permutation(len(self.paired_pool))
        bs = self.cfg.batch_size

        def take(pool, perm, lo):
            picks = [pool[perm[(lo + i) % len(pool)]] for i in range(bs)]
            return np.stack(picks)[:, None, :, :]

        for step in range(self.steps_per_epoch):
            lo = step * bs
            b = Batch()
            if self.art_pool is not None:
                b.x_unpaired = take(self.art_pool, perms["art"], lo)
                b.y_unpaired = take(self.clean_pool, perms["clean"], lo)
            if self.paired_pool is not None:
                pairs = [self.paired_pool[perms["paired"][(lo + i) % len(self.paired_pool)]]
                         for i in range(bs)]
                b.x_paired = np.stack([p[0] for p in pairs])[:, None, :, :]
                b.gt_paired = np.stack([p[1] for p in pairs])[:, None, :, :]
            yield b


def make_pools(bundle):
    """Normalized training pools from a synthesized dataset bundle."""
    amax = bundle.cfg.amax
    art = [normalize_image(bundle.train[i].artifact, amax) for i in bundle.artifact_pool]
    clean = [normalize_image(bundle.train[i].clean, amax) for i in bundle.clean_pool]
    paired = [(normalize_image(p.artifact, amax), normalize_image(p.clean, amax))
              for p in bundle.train]
    return (art, clean), paired


# ---------------------------------------------------------------------------
# penalty

def ldm_penalty(u, patch_set, dual, lam):
    """lambda * ||U - P + d||_F^2 with U and d constant.

    Gradient reaches the network only through the patch-set tensor. lam = 0
    returns a graph-free zero so the manifold machinery leaves no trace.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    points = patch_set.points
    if lam == 0.0:
        return Tensor(np.zeros((), dtype=points.dtype))
    u = np.asarray(u)
    if tuple(u.shape) != tuple(points.shape):
        raise ShapeError(f"u shape {u.shape} vs patch set {tuple(points.shape)}")
    dvals = dual.values if isinstance(dual, DualVariable) else np.asarray(dual)
    if tuple(dvals.shape) != tuple(u.shape):
        raise ShapeError(f"dual shape {dvals.shape} vs u {u.shape}")
    const = Tensor((u + dvals).astype(points.dtype))
    return ad.scale(ad.frobenius_sq(ad.sub(const, points)), lam)


# ---------------------------------------------------------------------------
# the step

def _patch_entries(unpaired, paired):
    """Patch-set (images, codes, provenance) in the one fixed order:
    corrected-unpaired, corrected-paired, free-unpaired, free-paired.

    Each branch is an (x_hat, z_x, y, z_y) tuple, or None when the mode
    does not draw it.
    """
    branches = [b for b in (unpaired, paired) if b is not None]
    corrected = [(x_hat, z_x, CORRECTED) for x_hat, z_x, _, _ in branches]
    free = [(y, z_y, FREE) for _, _, y, z_y in branches]
    return tuple(zip(*(corrected + free)))


def _ldm_entries_fresh(net, batch, cfg):
    """Patch-set entries recomputed at the current weights (values only)."""
    def branch(x, y):
        x_hat, z_x = net.forward_corrected(Tensor(x), want_code=True)
        y = Tensor(y)
        return x_hat, z_x, y, net.free_code(y)

    return _patch_entries(
        branch(batch.x_unpaired, batch.y_unpaired) if cfg.uses_adn else None,
        branch(batch.x_paired, batch.gt_paired) if cfg.uses_sup else None)


def training_step(net, batch, state, cfg, kcfg=None):
    """One outer iteration; returns a StepReport. Mutations happen only after
    every fallible stage (solve, gradient validation) has passed."""
    kcfg = kcfg or cfg.kernel_config()
    losses = {}
    rep = StepReport(k=state.k + 1)

    # forward passes and network losses, in a fixed order (sup then adn);
    # each branch keeps its (x_hat, z_x, y, z_y) for the patch set
    unpaired = paired = None
    total = None

    if cfg.uses_sup:
        x_p = Tensor(batch.x_paired)
        gt_p = Tensor(batch.gt_paired)
        if cfg.uses_adn:  # hybrid: paired sample through the corrected branch
            if cfg.uses_ldm:
                x_hat_p, z_p = net.forward_corrected(x_p, want_code=True)
                paired = (x_hat_p, z_p, gt_p, net.free_code(gt_p))
            else:
                x_hat_p = net.forward_corrected(x_p)
        else:
            out_p = net.forward(x_p, gt_p if cfg.uses_ldm else None)
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
        l_adn, terms = loss_adn(out_u, x_u, y_u, (net.d_clean, net.d_art),
                                weights=cfg.adn_weights)
        for name, t in terms.items():
            losses[name] = float(t.data)
        total = l_adn if total is None else ad.add(total, l_adn)

    # manifold stage (fallible: the solve may raise, leaving state untouched)
    solved = None
    ldm_active = cfg.uses_ldm and cfg.lambda_ldm > 0.0
    if ldm_active:
        images, codes, prov = _patch_entries(unpaired, paired)
        ps = build_patch_set(images, codes, net.geom, provenance=prov)
        p_now = ps.values()
        graph = gaussian_weights(p_now, kcfg)
        dual = state.dual
        if dual is None or dual.values.shape != p_now.shape:
            dual = DualVariable(values=np.zeros_like(p_now))
        solved = solve_coordinates(graph, p_now - dual.values, kcfg)
        penalty = ldm_penalty(solved.u, ps, dual, cfg.lambda_ldm)
        losses["ldm_penalty"] = float(penalty.data)
        total = penalty if total is None else ad.add(total, penalty)
        rep.dirichlet_energy = dirichlet_energy(p_now, graph)
        rep.cg_residual = solved.residual
        rep.cg_iterations = solved.iterations

    losses["loss_total"] = float(total.data)

    # gradients for generator and (in adversarial modes) discriminators
    net.gen_params.zero_grad()
    if net.disc_params is not None:
        net.disc_params.zero_grad()
    ad.backward(total)
    if cfg.uses_adn:
        d_total, d_terms = discriminator_loss(net, out_u, x_u, y_u)
        for name, t in d_terms.items():
            losses[name] = float(t.data)
        ad.backward(d_total)

    # validate everything, then mutate
    check_grads(net.gen_params)
    if cfg.uses_adn:
        check_grads(net.disc_params)
    adam_step(net.gen_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
              eps=cfg.adam_eps)
    if cfg.uses_adn:
        adam_step(net.disc_params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                  eps=cfg.adam_eps)

    # dual update against the patch set at the new weights
    if ldm_active:
        images, codes, prov = _ldm_entries_fresh(net, batch, cfg)
        p_new = build_patch_set(images, codes, net.geom, provenance=prov).values()
        state.dual = normalize_dual(DualVariable(dual.values + solved.u - p_new))
        rep.dual_min = float(state.dual.values.min())
        rep.dual_max = float(state.dual.values.max())

    state.k += 1
    rep.losses = losses
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


def build_network(cfg, image_size):
    geom = GeometryConfig(image_size, image_size, cfg.s)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    return DisentangleNet(cfg.variant, geom, base_width=cfg.base_width, rng=rng)


def train(bundle, cfg, out_dir=None):
    """Run cfg.epochs over the bundle; optionally write metrics CSV and
    checkpoints under out_dir. Returns the trained network and step reports."""
    unpaired_pools, paired_pool = make_pools(bundle)
    sched = BatchScheduler(unpaired_pools if cfg.uses_adn else None,
                           paired_pool if cfg.uses_sup else None, cfg)
    net = build_network(cfg, bundle.cfg.image_size)
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
            if (out_dir is not None and cfg.checkpoint_every > 0
                    and epoch % cfg.checkpoint_every == 0):
                save_checkpoint(net, os.path.join(out_dir, f"checkpoint_epoch{epoch:04d}"))
    finally:
        if csv_file is not None:
            csv_file.close()

    ckpt_dir = None
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoint")
        save_checkpoint(net, ckpt_dir)
    return TrainResult(net=net, state=state, reports=reports,
                       metrics_path=metrics_path, checkpoint_dir=ckpt_dir)


def evaluate_pairs(net, pairs, amax, peak=None):
    """Per-pair PSNR/SSIM of corrected and uncorrected images vs ground truth.

    `net` needs a forward_corrected(Tensor) method. peak defaults per image
    to the clean image's dynamic range."""
    rows = []
    for p in pairs:
        x = normalize_image(p.artifact, amax)[None, None, :, :]
        corrected = net.forward_corrected(Tensor(x))
        rec = denormalize_image(corrected.data[0, 0], amax)
        clean = np.asarray(p.clean, dtype=np.float64)
        artifact = np.asarray(p.artifact, dtype=np.float64)
        pk = peak if peak is not None else float(clean.max() - clean.min()) or 1.0
        rows.append({
            "index": p.index,
            "psnr_artifact": psnr(artifact, clean, pk),
            "psnr_corrected": psnr(rec, clean, pk),
            "ssim_artifact": ssim(artifact, clean, data_range=pk),
            "ssim_corrected": ssim(rec, clean, data_range=pk),
        })
    return rows
