"""Reverse-mode automatic differentiation over dense numpy arrays.

Small dynamic-graph engine: each operation returns a new Tensor that
remembers its parents and a closure computing parent gradients. Reductions
accumulate in float64 regardless of the tensor dtype.
"""

import numpy as np

DEFAULT_DTYPE = np.float32


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class Tensor:
    """Dense real array, optionally tracked by the autodiff graph.

    A leaf (a tensor built with requires_grad=True, not the result of an
    operation) has `grad` allocated as zeros at construction; `backward`
    adds into it and never overwrites it. Operation results keep
    `grad = None`: their gradients flow through `backward` and are dropped.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
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


def _node(data, parents, backward_fn):
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shape {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ShapeError(f"{op}: dtype {a.data.dtype} vs {b.data.dtype}")


def backward(loss):
    """Accumulate dLoss/dt into `grad` of every reachable requires_grad leaf.

    `loss` must hold a single element. Gradients from repeated calls add up.
    Interior nodes (operation results) are not given a `grad`.
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    # per-call gradient flows through a scratch dict so that repeated
    # backward calls accumulate instead of compounding stale values
    flow = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.requires_grad:
                # 0-d sums decay to numpy scalars
                node.grad = np.asarray(node.grad + g)
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in flow:
                flow[key] = flow[key] + pg
            else:
                flow[key] = pg


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


def scale(a, c):
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _node(a.data * c, (a,), bwd)


def leaky_relu(a, slope=0.2):
    mask = a.data > 0
    data = np.where(mask, a.data, a.data * a.data.dtype.type(slope))

    def bwd(g):
        return (np.where(mask, g, g * g.dtype.type(slope)),)

    return _node(data, (a,), bwd)


def tanh(a):
    y = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return _node(y, (a,), bwd)


def add_channel_bias(x, b):
    """x: [N,C,H,W] plus per-channel bias b: [C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"add_channel_bias: input must be 4-d, got {x.data.shape}")
    if b.data.shape != (x.data.shape[1],):
        raise ShapeError(
            f"add_channel_bias: bias shape {b.data.shape} does not match channels {x.data.shape[1]}")
    data = x.data + b.data.reshape(1, -1, 1, 1)

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(b.data.dtype)
        return g, gb

    return _node(data, (x, b), bwd)


# ---------------------------------------------------------------------------
# shape ops

def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    old = a.data.shape

    def bwd(g):
        return (g.reshape(old),)

    return _node(a.data.reshape(shape), (a,), bwd)


def transpose(a, axes):
    axes = tuple(int(ax) for ax in axes)
    inv = np.argsort(axes)

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _node(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


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


def frobenius_sq(a):
    """Sum of squared entries (squared Frobenius norm, no mean)."""
    a64 = a.data.astype(np.float64)
    val = (a64 * a64).sum()
    dtype = a.data.dtype

    def bwd(g):
        return ((a.data * (2.0 * float(g))).astype(dtype),)

    return _node(np.asarray(val, dtype=dtype), (a,), bwd)


# ---------------------------------------------------------------------------
# convolutions

def _im2col(xp, kh, kw, stride, hout, wout):
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, hout, wout),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    cols = np.ascontiguousarray(view.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(n * hout * wout, c * kh * kw)


def _col2im(dcols, xshape, kh, kw, stride, padding, hout, wout):
    n, c, h, w = xshape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    d6 = dcols.reshape(n, hout, wout, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * hout:stride, j:j + stride * wout:stride] += d6[:, :, i, j]
    if padding:
        return dxp[:, :, padding:padding + h, padding:padding + w]
    return dxp


def _pad_nchw(x, padding):
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


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


def conv2d(x, kernel, stride=1, padding=0):
    """Cross-correlation of x [N,C,H,W] with kernel [F,C,kh,kw]."""
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

    cols = _im2col(_pad_nchw(x.data, padding), kh, kw, stride, hout, wout)
    kmat = kernel.data.reshape(f, -1)
    out = (cols @ kmat.T).reshape(n, hout, wout, f).transpose(0, 3, 1, 2)

    def bwd(g):
        gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * hout * wout, f)
        gk = None
        gx = None
        if kernel.requires_grad:
            gk = (gmat.T @ cols).reshape(f, c, kh, kw)
        if x.requires_grad:
            gx = _col2im(gmat @ kmat, (n, c, h, w), kh, kw, stride, padding, hout, wout)
        return gx, gk

    return _node(np.ascontiguousarray(out), (x, kernel), bwd)


def conv_transpose2d(x, kernel, stride=1, padding=0):
    """Transposed convolution of x [N,Cin,H,W] with kernel [Cin,Cout,kh,kw].

    Exact adjoint of conv2d with the same stride/padding: output spatial
    extent is (H-1)*stride - 2*padding + kh.
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
    xmat = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1)).reshape(n * h * w, cin)
    out = _col2im(xmat @ kmat, (n, cout, hout, wout), kh, kw, stride, padding, h, w)

    def bwd(g):
        cols_g = _im2col(_pad_nchw(g, padding), kh, kw, stride, h, w)
        gx = None
        gk = None
        if x.requires_grad:
            gx = (cols_g @ kmat.T).reshape(n, h, w, cin).transpose(0, 3, 1, 2)
            gx = np.ascontiguousarray(gx)
        if kernel.requires_grad:
            gk = (xmat.T @ cols_g).reshape(cin, cout, kh, kw)
        return gx, gk

    return _node(out, (x, kernel), bwd)
