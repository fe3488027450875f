"""Reverse-mode automatic differentiation over dense numpy arrays.

Small dynamic-graph engine: each operation returns a new Tensor that
remembers its parents and a closure computing parent gradients, except
inside `no_graph`. Reductions accumulate in float64 regardless of the tensor
dtype.

`backward` consumes the graph it runs through: once a node's closure has
run, the node drops its closure and its links to its parents, so each
activation and closure array is freed as soon as the gradient has passed it
(the saved activations that set a reverse pass's memory; Chen et al.,
arXiv:1604.06174). A graph is differentiated once; a second `backward`
through it raises `GraphConsumedError`.

A closure keeps only the arrays its gradient reads. Where an array can be
rebuilt from what the graph holds anyway, it is rebuilt in backward rather
than kept: `conv2d` keeps its input and rebuilds its column matrix, and
`bias_act` takes its activation's derivative from its own output. An
operation's input must therefore not be mutated between its forward and the
backward through it. The one exception is `bias_act`, which overwrites its
input, a fresh conv output that no closure reads, with its own result.

A conv is a GEMM over column matrices: `_im2col` zero-pads its input and
copies it out as columns, and its adjoint `_col2im` adds columns back and
crops the padding into a given output. Conv backward always forms the kernel
gradient, since every conv kernel is a network parameter. `conv2d` skips the
input gradient of an input that needs none, an image read by a first layer;
the input of a transposed conv is always a layer's output, so its backward
forms both.

Convs run `_CONV_CHUNK` images at a time. Built for a whole batch of 32, a
column matrix, GEMM product or `_col2im` buffer is a fresh 16-36 MiB array
that is faulted in again on every call; a chunk's are an eighth of that.
Each chunk's results are written into the preallocated output or input
gradient, and the kernel gradient is summed image by image in batch order,
the same additions as a sum over the stacked per-image products. No
temporary is larger than one chunk's, and results are bit-identical to
building them for the whole batch.
"""

import contextlib

import numpy as np

DEFAULT_DTYPE = np.float32

# negative-side slope of `bias_act`'s leaky ReLU; it must lie in [0, 1) for
# max(a, slope * a) to be the leaky ReLU and its output mask to equal the input's
LEAKY_SLOPE = 0.2

# images per conv chunk: each chunk builds its own column matrix and GEMM
# product, so no conv temporary grows with the batch
_CONV_CHUNK = 4


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """Dense real array, optionally tracked by the autodiff graph. `data`
    is a float32 or float64 array, kept as `np.asarray` gives it, not cast.

    A leaf (a tensor built with requires_grad=True, not the result of an
    operation) has `grad` allocated as zeros at construction; `backward`
    adds into it and never overwrites it. Operation results keep
    `grad = None`: their gradients flow through `backward` and are dropped.

    A result's `_backward` closure keeps only what its gradient reads, often
    no more than the parents' `data`, which must not be mutated until
    `backward` has run through it; `backward` then sets `_backward` to None
    and `_parents` to (). A `bias_act` result shares its `data` buffer with
    its parent conv output, which it overwrote.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def detach(self):
        """Same values, cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self):
        self.grad.fill(0.0)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}, dtype={self.data.dtype}{flag})"


# False inside `no_graph`
_record = True


@contextlib.contextmanager
def no_graph():
    """Operations run inside build no graph: their results link no parents,
    keep no backward closure (nor the arrays it holds, such as a conv's
    column matrix) and do not require grad, so nothing downstream of them
    joins the graph either. Values are the same as outside."""
    global _record
    saved = _record
    _record = False
    try:
        yield
    finally:
        _record = saved


def _node(data, parents, backward_fn):
    out = Tensor(data)
    if _record and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype {a.data.dtype} vs {b.data.dtype}")


class GraphConsumedError(RuntimeError):
    """`backward` reached an operation result that an earlier `backward`
    already ran through: that graph's closures and links are gone."""


def backward(loss):
    """Accumulate dLoss/dt into `grad` of every reachable requires_grad leaf.

    `loss` must hold a single element. Interior nodes (operation results)
    are not given a `grad`.

    backward consumes the graph: it pops the nodes in reverse topological
    order, and once a node's closure has run it drops that node's
    `_backward` and `_parents`, so each activation and closure array is
    freed as soon as the gradient has passed it and nothing else holds it.
    A second backward through any node of a consumed graph raises
    GraphConsumedError before any gradient is added. Gradients of separately
    built graphs add up in the leaves.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")

    # iterative post-order over grad-requiring subgraph
    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.requires_grad and node._backward is None and node.grad is None:
            # an operation result whose closure an earlier backward dropped
            raise GraphConsumedError(
                f"backward through a consumed graph: {node!r} was already differentiated")
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # per-call gradient flows through a scratch dict, so the leaves' grads
    # only ever receive this call's sums
    flow = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = flow.pop(id(node))
        if node._backward is None:
            if node.requires_grad:
                # in place, 0-d leaves included; "safe" casting raises rather
                # than round a gradient wider than the leaf's dtype
                np.add(node.grad, g, out=node.grad, casting="safe")
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if not parent.requires_grad:  # its closure may return None
                continue
            key = id(parent)
            if key in flow:
                flow[key] = flow[key] + pg
            else:
                flow[key] = pg
        # the closure and the links to the parents go, and with them every
        # array only they held
        node._backward = None
        node._parents = ()


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    _check_same_shape(a, b, "add")

    def bwd(g):
        return g, g

    return _node(a.data + b.data, (a, b), bwd)


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def bwd(g):
        return g, -g

    return _node(a.data - b.data, (a, b), bwd)


def bias_act(x, b, act):
    """Per-channel bias b [C] added to x [N,C,H,W], then the activation `act`
    ("leaky_relu", "tanh" or None), all in x's own buffer.

    x must be a fresh `conv2d` or `conv_transpose2d` result that nothing else
    reads: neither conv's backward reads its output, so overwriting it is
    safe, and the layer holds one output-sized array instead of three.
    Leaky ReLU is max(a, LEAKY_SLOPE * a), equal to `a if a > 0 else
    LEAKY_SLOPE * a` for 0 <= slope < 1. Its output is > 0 exactly where its
    input is (NaN, -0.0 and negatives that underflow to -0.0 all compare
    false), so backward reads each derivative from the output.
    """
    data = x.data
    data += b.data.reshape(1, -1, 1, 1)
    if act == "leaky_relu":
        np.maximum(data, data * data.dtype.type(LEAKY_SLOPE), out=data)
    elif act == "tanh":
        np.tanh(data, out=data)

    def bwd(g):
        if act == "leaky_relu":
            # g times a factor of exactly 1 where the output is > 0 and the
            # slope elsewhere (1 - slope + slope rounds to 1): g * slope and
            # g * 1 as a select would give them, without its unpredictable
            # branch on the mask
            f = (data > 0).astype(g.dtype)
            f *= g.dtype.type(1.0 - LEAKY_SLOPE)
            f += g.dtype.type(LEAKY_SLOPE)
            g = np.multiply(g, f, out=f)
        elif act == "tanh":
            g = g * (1.0 - data * data)
        return g, g.sum(axis=(0, 2, 3), dtype=np.float64).astype(b.data.dtype)

    return _node(data, (x, b), bwd)


# ---------------------------------------------------------------------------
# shape ops

def concat(tensors, axis=0):
    tensors = list(tensors)
    if not tensors:
        raise ShapeError("concat of empty list")
    nd = tensors[0].data.ndim
    for t in tensors[1:]:
        if t.data.ndim != nd:
            raise ShapeError(f"concat: rank {t.data.ndim} vs {nd}")
        for ax in range(nd):
            if ax != axis and t.data.shape[ax] != tensors[0].data.shape[ax]:
                raise ShapeError(
                    f"concat: extent mismatch on axis {ax}: "
                    f"{t.data.shape[ax]} vs {tensors[0].data.shape[ax]}")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def bwd(g):
        slicer = [slice(None)] * nd
        outs = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            outs.append(np.ascontiguousarray(g[tuple(slicer)]))
        return tuple(outs)

    return _node(data, tuple(tensors), bwd)


# ---------------------------------------------------------------------------
# reductions and losses (float64 accumulation)

def l1_loss(a, b):
    """Mean absolute difference."""
    _check_same_shape(a, b, "l1_loss")
    diff = a.data - b.data
    n = diff.size
    val = np.abs(diff).sum(dtype=np.float64) / n
    dtype = a.data.dtype

    def bwd(g):
        ga = (np.sign(diff) * (float(g) / n)).astype(dtype)
        return ga, -ga

    return _node(np.asarray(val, dtype=dtype), (a, b), bwd)


def mse_loss(a, b):
    """Mean squared difference."""
    _check_same_shape(a, b, "mse_loss")
    diff = a.data - b.data
    n = diff.size
    d64 = diff.astype(np.float64)
    val = (d64 * d64).sum() / n
    dtype = a.data.dtype

    def bwd(g):
        ga = (diff * (2.0 * float(g) / n)).astype(dtype)
        return ga, -ga

    return _node(np.asarray(val, dtype=dtype), (a, b), bwd)


# ---------------------------------------------------------------------------
# convolutions

def _im2col(x, kh, kw, stride, padding, hout, wout):
    """Per-image column matrix [N, C*kh*kw, hout*wout] of x, zero-padded here.

    Row (c, i, j) of image n holds tap (i, j) of channel c at every output
    position, so the copy out of the strided view walks each row along the
    input's own rows, and a conv is one batched `kernel @ cols` whose result
    is already [N, F, hout*wout]. `_col2im` of the same geometry is its adjoint.
    """
    n, c, h, w = x.shape
    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
        xp[:, :, padding:padding + h, padding:padding + w] = x
        x = xp
    s0, s1, s2, s3 = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, hout, wout),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return np.ascontiguousarray(view).reshape(n, c * kh * kw, hout * wout)


def _col2im(dcols, out, kh, kw, stride, padding, hout, wout):
    """Adjoint of `_im2col`: add per-image columns [N, C*kh*kw, hout*wout]
    back into the images `out` [N,C,H,W], cropping the padding, and return
    `out`. Whatever `out` held before is overwritten.

    Each row ends in all hout*wout output positions, so tap (i, j) of every
    channel, `d6[:, :, i, j]`, reads whole contiguous rows; each tap is
    added onto a strided window of the padded image. Unpadded, that image
    is `out` itself; padded, it is a scratch array of out's images plus the
    border, and the crop is copied into `out`.
    """
    n, c, h, w = out.shape
    if padding:
        dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    else:
        dxp = out
        dxp.fill(0)
    d6 = dcols.reshape(n, c, kh, kw, hout, wout)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * hout:stride, j:j + stride * wout:stride] += d6[:, :, i, j]
    if padding:
        out[...] = dxp[:, :, padding:padding + h, padding:padding + w]
    return out


def _validate_conv(x, kernel, stride, padding, op):
    if x.data.ndim != 4:
        raise ShapeError(f"{op}: input must be [N,C,H,W], got {x.data.shape}")
    if kernel.data.ndim != 4:
        raise ShapeError(f"{op}: kernel must be 4-d, got {kernel.data.shape}")
    if stride < 1:
        raise ShapeError(f"{op}: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"{op}: padding must be >= 0, got {padding}")
    if x.data.dtype != kernel.data.dtype:
        raise ShapeError(f"{op}: dtype {x.data.dtype} vs kernel {kernel.data.dtype}")


def _chunks(n):
    """Slices of up to `_CONV_CHUNK` images that cover a batch of n in order."""
    return [slice(i, i + _CONV_CHUNK) for i in range(0, n, _CONV_CHUNK)]


def _add_kernel_grad(gk, prods):
    """Kernel gradient gk plus one chunk's per-image products `prods`, added
    image by image in batch order; gk None starts the sum.

    numpy sums over axis 0 one row at a time from 0, so the first chunk's
    sum and the later chunks' in-place adds make the same additions, in the
    same order, as summing the whole batch's products over axis 0.
    """
    if gk is None:
        return prods.sum(axis=0)
    for p in prods:
        gk += p
    return gk


def conv2d(x, kernel, stride=1, padding=0):
    """Cross-correlation of x [N,C,H,W] with kernel [F,C,kh,kw].

    The column matrix is C*kh*kw/F times the output's size, so it is not
    kept: backward rebuilds it from x, which the graph holds anyway, to
    take the kernel gradient from the same bytes. It runs `_CONV_CHUNK`
    images at a time, since at batch 32 a whole-batch column matrix is a
    fresh 16-36 MiB array faulted in on every call. The forward writes each
    chunk's product into the output. Backward sums the kernel gradient image
    by image in batch order, then writes the input gradient chunk by chunk,
    so no temporary is larger than one chunk's.
    """
    _validate_conv(x, kernel, stride, padding, "conv2d")
    n, c, h, w = x.data.shape
    f, ck, kh, kw = kernel.data.shape
    if ck != c:
        raise ShapeError(f"conv2d: input channels {c} != kernel channels {ck}")
    if kh > h + 2 * padding:
        raise ShapeError(f"conv2d: kernel height {kh} exceeds padded input height {h + 2 * padding}")
    if kw > w + 2 * padding:
        raise ShapeError(f"conv2d: kernel width {kw} exceeds padded input width {w + 2 * padding}")
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (w + 2 * padding - kw) // stride + 1

    def columns(s):
        return _im2col(x.data[s], kh, kw, stride, padding, hout, wout)

    kmat = kernel.data.reshape(f, -1)
    out = np.empty((n, f, hout * wout), dtype=x.data.dtype)
    for s in _chunks(n):
        np.matmul(kmat, columns(s), out=out[s])

    def bwd(g):
        g3 = g.reshape(n, f, hout * wout)
        gk = None
        for s in _chunks(n):
            gk = _add_kernel_grad(gk, np.matmul(g3[s], columns(s).transpose(0, 2, 1)))
        gk = gk.reshape(f, c, kh, kw)
        if not x.requires_grad:
            return None, gk
        gx = np.empty((n, c, h, w), dtype=g.dtype)
        if stride == 1 and f < c and kh == kw and padding < kh:
            # at stride 1 the input gradient is g correlated with the flipped,
            # channel-swapped kernel: its columns have f*kh*kw rows, fewer
            # than the c*kh*kw rows that _col2im would scatter
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            gx3 = gx.reshape(n, c, h * w)
            for s in _chunks(n):
                np.matmul(kflip, _im2col(g[s], kh, kw, 1, kh - 1 - padding, h, w),
                          out=gx3[s])
        else:
            for s in _chunks(n):
                _col2im(np.matmul(kmat.T, g3[s]), gx[s], kh, kw, stride, padding,
                        hout, wout)
        return gx, gk

    return _node(out.reshape(n, f, hout, wout), (x, kernel), bwd)


def conv_transpose2d(x, kernel, stride=1, padding=0):
    """Transposed convolution of x [N,Cin,H,W] with kernel [Cin,Cout,kh,kw].

    Exact adjoint of conv2d with the same stride/padding: output spatial
    extent is (H-1)*stride - 2*padding + kh. Like conv2d it runs
    `_CONV_CHUNK` images at a time, so that no whole-batch product or
    `_col2im` buffer is faulted in afresh on every call. The forward
    scatters each chunk's product into the output. Backward builds each
    chunk's columns of g once, for the input gradient and for the kernel
    gradient, which it sums image by image in batch order. No temporary is
    larger than one chunk's.
    """
    _validate_conv(x, kernel, stride, padding, "conv_transpose2d")
    n, cin, h, w = x.data.shape
    ck, cout, kh, kw = kernel.data.shape
    if ck != cin:
        raise ShapeError(f"conv_transpose2d: input channels {cin} != kernel channels {ck}")
    hout = (h - 1) * stride - 2 * padding + kh
    wout = (w - 1) * stride - 2 * padding + kw
    if hout < 1:
        raise ShapeError(f"conv_transpose2d: output height {hout} is not positive")
    if wout < 1:
        raise ShapeError(f"conv_transpose2d: output width {wout} is not positive")

    kmat = kernel.data.reshape(cin, -1)
    x3 = x.data.reshape(n, cin, h * w)
    out = np.empty((n, cout, hout, wout), dtype=x.data.dtype)
    for s in _chunks(n):
        _col2im(np.matmul(kmat.T, x3[s]), out[s], kh, kw, stride, padding, h, w)

    def bwd(g):
        gk = None
        gx = np.empty((n, cin, h * w), dtype=g.dtype)
        for s in _chunks(n):
            cols_g = _im2col(g[s], kh, kw, stride, padding, h, w)
            np.matmul(kmat, cols_g, out=gx[s])
            gk = _add_kernel_grad(gk, np.matmul(x3[s], cols_g.transpose(0, 2, 1)))
        return gx.reshape(n, cin, h, w), gk.reshape(cin, cout, kh, kw)

    return _node(out, (x, kernel), bwd)
