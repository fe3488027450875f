"""Training outer loop: per-batch patch-set build, manifold solve, one Adam
update on the penalized objective, then the dual update at the new weights.

The knobs are the mode, lambda (`lambda_ldm`), mu_bar, the learning rate and
the run shape (epochs, batch size, seed), the fields of `TrainConfig`; the
`patchmar train` driver (`cli`) has exactly one training flag for each.
Nothing else is settable: the architecture is fixed (`networks.PATCH_SIZE`
s = 8, `networks.BASE_WIDTH` = 8), Adam runs at its fixed setting
(beta1 = 0.5, beta2 = 0.999, eps = 1e-8), the kernel bandwidth is chosen per
group of the patch set (median squared distance / 4), and evaluation
measures PSNR/SSIM against each clean image's dynamic range.

Each step with the manifold penalty active runs, in order: forward passes and
network losses; the Gaussian weights W over the patch set P, one block per
(branch, batch row): `manifold.build_patch_set` lays P out in block order,
block b * N + r holding image r of branch b's corrected entry, then image r
of its free entry, so the blocks are a reshape of P. The weights' build also
sums P's Dirichlet energy, the block sums over m (the step's diagnostic);
then the direct solve (L + mu_bar W) U = mu_bar W (P - d), L = D - W, block
by block, each column to backward error 1e-12; one Adam update of
J(theta) = network_loss + lambda * ||U - P_theta + d||_F^2 with U and d held
constant (the penalty gradient flows through the patch set only); a fresh
patch-set build at the updated weights; the dual update
d <- minmax_normalize(d + U - P_new). A non-finite patch set, a failed solve
or a non-finite gradient aborts the step with parameters, Adam moments and
step counts, and dual untouched; the generator store's Adam step count is
the step number. Both patch-set builds take the branches in one order,
unpaired then paired, so their rows come in the same order. The step's
graph, its patch set and W are freed before the dual refresh, whose forward
passes build no graph (as in `evaluate_pairs`).

The objective's normalisation, as the code runs it:
- The penalty is lambda * ||U - P + d||^2 summed over all m * d entries,
  while `loss_sup` and the ADN terms are means over their elements (pixels,
  or logits for the adversarial terms).
- P has m = 2 * (branches drawn) * N * (H/s) * (W/s) rows, a corrected and
  a free entry per branch, and d = 2 * s^2 = 128 columns: the s x s pixel
  patch, then its s^2 code entries.
- Each penalised step solves G = (branches drawn) * N blocks of
  2 * (H/s) * (W/s) = 128 points, one after another, one Adam step and one
  graph-free refresh. The report's `cg_residual` is the solve's worst
  column backward error, and `cg_iterations` is 0: the solve is direct.
- The dual is one m x d array in block order, min-max normalised jointly
  over all its entries into [0, 1]. `epoch_batches` reshuffles every epoch,
  so row i belongs to another image from one step to the next.
- At lambda = 0 no solve or dual runs, and LDM-X trains as X bit for bit
  (tested).

In adversarial modes the discriminators are updated from the discriminator
loss alone: their gradients are zeroed after the generator backward, whose
adversarial terms reach them too.

Hybrid modes draw one unpaired (x, y) sample and one paired (x, gt) sample
per step and feed both loss paths and both patch-set branches at once.
`make_pools` builds and checks only the pools the mode draws, so an empty
one fails `train` before it runs a step or writes a file, at any epochs.
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, ShapeError
from .ctsim import denormalize_image, normalize_image, psnr, ssim
from .manifold import (MU_BAR_MIN, DualVariable, build_patch_set, dirichlet_energy,
                       gaussian_weights, normalize_dual, solve_coordinates)
from .networks import (DisentangleNet, NetworkVariant, discriminator_loss, loss_adn,
                       loss_sup, save_checkpoint)
from .optim import adam_step, check_grads

MODES = ("Sup", "LDM-Sup", "ADN", "LDM-DN", "ADN-Sup", "LDM-DN-Sup")


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
        if not MU_BAR_MIN <= self.mu_bar < math.inf:
            raise ValueError(f"mu_bar must be finite and at least {MU_BAR_MIN}, got {self.mu_bar}")
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


@dataclass
class Batch:
    """One step's samples, or from `make_pools` the whole pools: each field a
    float32 [N,1,H,W] stack, None for a branch the mode does not draw."""

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

def make_pools(bundle, cfg):
    """The normalized pools the mode draws, as a Batch of whole pools: the
    unpaired artifact and clean pools (ADN terms) and the paired (x, gt)
    pool of every training pair (`loss_sup`). An empty one raises ValueError."""
    amax, train = bundle.cfg.amax, bundle.train

    def stack(images):
        return normalize_image(np.stack(images), amax)[:, None]

    pools = Batch()
    if cfg.uses_adn:
        if not bundle.artifact_pool or not bundle.clean_pool:
            raise ValueError(f"mode {cfg.mode} requires non-empty unpaired pools")
        pools.x_unpaired = stack([train[i].artifact for i in bundle.artifact_pool])
        pools.y_unpaired = stack([train[i].clean for i in bundle.clean_pool])
    if cfg.uses_sup:
        pools.x_paired = stack([p.artifact for p in train])
        pools.gt_paired = stack([p.clean for p in train])
    return pools


def epoch_batches(pools, cfg, epoch):
    """Yield one epoch's batches from `make_pools`' pools.

    Each pool drawn is shuffled by a permutation seeded from
    (seed, 7, epoch), drawn in the order artifact, clean, paired; x and gt
    share the paired one. An epoch is ceil(max(drawn pool sizes) / batch
    size) steps; shorter pools cycle through their permutation so every
    step carries one sample from each drawn pool.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7, epoch]))
    perms = [(names, rng.permutation(len(getattr(pools, names[0]))))
             for names in (("x_unpaired",), ("y_unpaired",), ("x_paired", "gt_paired"))
             if getattr(pools, names[0]) is not None]
    bs = cfg.batch_size
    for step in range(math.ceil(max(len(p) for _, p in perms) / bs)):
        idx = np.arange(step * bs, (step + 1) * bs)
        yield Batch(**{name: getattr(pools, name)[p[idx % len(p)]]
                       for names, p in perms for name in names})


# ---------------------------------------------------------------------------
# penalty

def ldm_penalty(u, points, dual, lam):
    """lambda * ||U - P + d||_F^2 with U and the DualVariable d constant, as
    one graph node whose only parent is the patch-set tensor `points` P: the
    gradient reaches the network only through P. lam >= 0 holds by
    `TrainConfig`'s check.

    All in P's dtype, lam rounded to it: the residual r = (U + d) - P, U + d
    rounded first; the value is the float64 sum of r^2, rounded, times lam;
    the gradient on P is -r * 2 (g * lam).
    """
    u = np.asarray(u)
    if tuple(u.shape) != tuple(points.shape):
        raise ShapeError(f"u shape {u.shape} vs patch set {tuple(points.shape)}")
    dvals = dual.values
    if tuple(dvals.shape) != tuple(u.shape):
        raise ShapeError(f"dual shape {dvals.shape} vs u {u.shape}")
    dtype = points.dtype
    lam = dtype.type(lam)
    resid = (u + dvals).astype(dtype)
    resid -= points.data
    value = dtype.type(np.square(resid, dtype=np.float64).sum()) * lam

    def bwd(g):
        return (resid * -dtype.type(2.0 * float(g * lam)),)

    return ad._node(value, (points,), bwd)


# ---------------------------------------------------------------------------
# the step

def _coded_branch(net, x, y):
    """One patch-set branch, (x_hat, z_x, y, z_y): x through the corrected
    branch with its code, and the free code of y."""
    x_hat, z_x = net.forward_corrected(x, want_code=True)
    return x_hat, z_x, y, net.free_code(y)


def _ldm_entries_fresh(net, batch, cfg):
    """The patch-set branches recomputed at the current weights, unpaired
    then paired, values only: the forward passes build no autodiff graph."""
    pools = ((cfg.uses_adn, batch.x_unpaired, batch.y_unpaired),
             (cfg.uses_sup, batch.x_paired, batch.gt_paired))
    with ad.no_graph():
        return [_coded_branch(net, Tensor(x), Tensor(y)) for drawn, x, y in pools if drawn]


def _gradients(net, batch, dual, cfg, mu_bar, rep):
    """Forward passes, losses, the manifold solve and both backward passes.

    Fills rep's losses and solver fields and returns (dual, U); U is None
    when the penalty is off. W goes before the backward passes, and each
    backward frees its graph, the patch set's node with it, as the gradient
    passes; what the locals here still hold is freed when this returns.
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
        branches = [b for b in (unpaired, paired) if b is not None]
        points = build_patch_set(branches)
        p_now = points.data.astype(np.float64)
        # block b * N + r is branch b, batch row r: one contiguous row range
        n_blocks = len(branches) * branches[0][0].shape[0]
        blocks = p_now.reshape(n_blocks, -1, p_now.shape[1])
        graph = gaussian_weights(blocks)
        if dual is None:  # every batch has the same size, so the shape holds
            dual = DualVariable(values=np.zeros_like(p_now))
        p_now -= dual.values  # P is not read again; blocks is a view of it
        solved = solve_coordinates(graph, blocks, mu_bar)
        rep.dirichlet_energy = dirichlet_energy(graph)
        del graph, p_now, blocks  # the backward passes need none of them
        u = solved.u.reshape(points.shape)
        rep.cg_residual = solved.residual
        rep.cg_iterations = 0  # the solve is direct
        penalty = ldm_penalty(u, points, dual, cfg.lambda_ldm)
        del points  # the penalty's node holds it until backward has passed it
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


def training_step(net, batch, state, cfg, mu_bar):
    """One outer iteration; returns a StepReport. Mutations happen only after
    every fallible stage has passed, so each of these failures leaves
    parameters, Adam moments and step counts, and the dual untouched:
    - a patch set with a NaN or infinite entry, or one whose squared norm
      would overflow a distance: ValueError from `gaussian_weights`, before
      any solve;
    - a solve whose factorization fails or whose worst column misses
      backward error 1e-12: SolverError from `solve_coordinates`, whose
      group g is branch g // N (unpaired first), batch row g % N;
    - a NaN or infinite gradient: NanGradientError.

    mu_bar is cfg.mu_bar. It is passed apart from cfg because the
    benchmark's `step` wrapper forwards a fifth positional argument; the
    benchmark change of ROADMAP item 5 removes it."""
    rep = StepReport()
    dual, u = _gradients(net, batch, state.dual, cfg, mu_bar, rep)

    # validate everything, then mutate (adam_step checks the generator store)
    if cfg.uses_adn:
        check_grads(net.disc_params)
    adam_step(net.gen_params, lr=cfg.lr)
    if cfg.uses_adn:
        adam_step(net.disc_params, lr=cfg.lr)
    rep.k = net.gen_params.step_count

    # dual update against the patch set at the new weights
    if u is not None:
        p_new = build_patch_set(_ldm_entries_fresh(net, batch, cfg)).data.astype(np.float64)
        state.dual = normalize_dual(DualVariable(dual.values + u - p_new))
        rep.dual_min = float(state.dual.values.min())
        rep.dual_max = float(state.dual.values.max())
    return rep


# ---------------------------------------------------------------------------
# full runs

@dataclass
class TrainResult:
    net: DisentangleNet
    reports: list


def build_network(cfg):
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 11]))
    return DisentangleNet(cfg.variant, rng)


def train(bundle, cfg, out_dir=None):
    """Run cfg.epochs over the bundle. With out_dir, write
    `out_dir/metrics.csv` (one row per step, CSV_COLUMNS) and the final
    network to `out_dir/checkpoint/`. `make_pools` checks the drawn pools
    first, so a mode with an empty one raises before out_dir is made.
    Returns the trained network and the step reports."""
    pools = make_pools(bundle, cfg)
    net = build_network(cfg)
    state = OptState()

    def run():
        for epoch in range(1, cfg.epochs + 1):
            for batch in epoch_batches(pools, cfg, epoch):
                rep = training_step(net, batch, state, cfg, cfg.mu_bar)
                rep.epoch = epoch
                yield rep

    if out_dir is None:
        return TrainResult(net=net, reports=list(run()))
    os.makedirs(out_dir, exist_ok=True)
    reports = []
    with open(os.path.join(out_dir, "metrics.csv"), "w") as csv_file:
        csv_file.write(",".join(CSV_COLUMNS) + "\n")
        for rep in run():
            reports.append(rep)
            csv_file.write(",".join(report_row(rep)) + "\n")
    save_checkpoint(net, os.path.join(out_dir, "checkpoint"))
    return TrainResult(net=net, reports=reports)


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
