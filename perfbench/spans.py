"""Span recorder for the traced run, installed from outside the package.

Each wrapper replaces a name the program calls through and records a span
around the call when the recorder is on. `patchmar.training` imports most of
its collaborators by name, so those names are replaced inside
`patchmar.training` as well as in their defining modules. A conv's backward
time is attributed to its kind and shape by wrapping the backward closure of
the node the conv returns. Self time is span time minus the time of the spans
nested inside it.
"""

import functools
import time


class Recorder:
    """Spans and counts kept in memory; `on` gates spans, `counting` gates counts."""

    def __init__(self):
        self.on = False
        self.counting = False
        self.stack = []   # open spans: [name, start, child seconds]
        self.stats = {}   # name -> [calls, total seconds, self seconds]
        self.counts = {}  # name -> amount, tallied only inside ops

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])
        return len(self.stack) - 1

    def exit(self, depth):
        """Close every span opened at or above `depth`, innermost first."""
        now = time.perf_counter()
        while len(self.stack) > depth:
            name, start, child = self.stack.pop()
            dt = now - start
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dt
            st[2] += dt - child
            if self.stack:
                self.stack[-1][2] += dt

    def close(self, name):
        """Close the innermost open span called `name`, if any."""
        for depth in range(len(self.stack) - 1, -1, -1):
            if self.stack[depth][0] == name:
                self.exit(depth)
                return

    def count(self, name, amount):
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + amount

    def calls(self, name):
        return self.stats.get(name, (0,))[0]


def _spanned(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.on:
            return fn(*args, **kwargs)
        depth = rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(depth)
    return wrapper


def _conv_key(x, kernel, stride):
    k0, k1, kh = kernel.shape[:3]
    return f"k{k0}x{k1}x{kh}s{stride}i{x.shape[2]}"


def _spanned_conv(rec, kind, fn, transpose):
    @functools.wraps(fn)
    def wrapper(x, kernel, stride=1, padding=0):
        if not rec.on:
            return fn(x, kernel, stride=stride, padding=padding)
        name = f"autodiff.{kind}.{_conv_key(x, kernel, stride)}"
        depth = rec.enter(name + ".fwd")
        try:
            out = fn(x, kernel, stride=stride, padding=padding)
        finally:
            rec.exit(depth)
        # every conv GEMM is 2 * kernel size * (batch * extent of its smaller side)
        small = x.shape if transpose else out.shape
        flop = 2 * kernel.size * small[0] * small[2] * small[3]
        rec.count("autodiff.conv_flop", flop)
        backward = out._backward
        if backward is not None:
            def traced_backward(g):
                if not rec.on:
                    return backward(g)
                rec.count("autodiff.conv_flop",
                          flop * (int(x.requires_grad) + int(kernel.requires_grad)))
                d = rec.enter(name + ".bwd")
                try:
                    return backward(g)
                finally:
                    rec.exit(d)
            out._backward = traced_backward
        return out
    return wrapper


def _opening(rec, name, fn):
    """Open span `name` when fn is called and leave it open for a later closer."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.on:
            rec.enter(name)
        return fn(*args, **kwargs)
    return wrapper


def _closing(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            if rec.on:
                rec.close(name)
    return wrapper


def install(rec):
    """Replace the traced names; returns a function that restores them all."""
    from patchmar import autodiff, ctsim, manifold, networks, optim, training

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owners, attr, name):
        for owner in owners:
            patch(owner, attr, _spanned(rec, name, getattr(owner, attr)))

    for n in ("radon_forward", "fbp", "corrupt_metal", "li_correct", "ssim"):
        span([ctsim], n, f"ctsim.{n}")
    span([training], "ssim", "ctsim.ssim")

    patch(autodiff, "conv2d", _spanned_conv(rec, "conv2d", autodiff.conv2d, False))
    patch(autodiff, "conv_transpose2d",
          _spanned_conv(rec, "conv_transpose2d", autodiff.conv_transpose2d, True))
    span([autodiff], "backward", "autodiff.backward")

    net_cls = networks.DisentangleNet
    for n in ("forward", "forward_corrected", "free_code"):
        span([net_cls], n, f"networks.{n}")
    for n in ("loss_adn", "discriminator_loss"):
        span([networks, training], n, f"networks.{n}")

    for n in ("build_patch_set", "gaussian_weights", "solve_coordinates",
              "dirichlet_energy"):
        span([manifold, training], n, f"manifold.{n}")
    # adam_step validates through optim.check_grads, so both names are wrapped
    for n in ("adam_step", "check_grads"):
        span([optim, training], n, f"optim.{n}")

    span([training], "training_step", "training.training_step")
    span([training], "evaluate_pairs", "training.evaluate_pairs")
    # The dual refresh has no function of its own: it runs from the fresh
    # forward passes (_ldm_entries_fresh) to the dual normalization.
    patch(training, "_ldm_entries_fresh",
          _opening(rec, "training.dual_refresh", training._ldm_entries_fresh))
    patch(training, "normalize_dual",
          _closing(rec, "training.dual_refresh", training.normalize_dual))

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
    return restore
