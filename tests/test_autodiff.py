import tracemalloc
import zlib

import numpy as np
import pytest

from patchmar import autodiff as ad, networks
from patchmar.autodiff import Tensor, ShapeError


def conv2d_naive(x, k, stride, padding):
    # independent direct-summation oracle
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, hout, wout), dtype=np.float64)
    for b in range(n):
        for o in range(f):
            for i in range(hout):
                for j in range(wout):
                    acc = 0.0
                    for cc in range(c):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[b, cc, i * stride + a, j * stride + bb] * k[o, cc, a, bb]
                    out[b, o, i, j] = acc
    return out


def conv_transpose2d_naive(x, k, stride, padding):
    n, cin, h, w = x.shape
    _, cout, kh, kw = k.shape
    hout = (h - 1) * stride - 2 * padding + kh
    wout = (w - 1) * stride - 2 * padding + kw
    out = np.zeros((n, cout, hout + 2 * padding, wout + 2 * padding), dtype=np.float64)
    for b in range(n):
        for ci in range(cin):
            for i in range(h):
                for j in range(w):
                    out[b, :, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                        x[b, ci, i, j] * k[ci])
    if padding:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def sum_sq(a):
    """Sum of a's squared entries, a scalar loss for the tests: summed in
    float64 and rounded to a's dtype, with gradient 2 g a."""
    val = np.square(a.data, dtype=np.float64).sum()

    def bwd(g):
        return (a.data * a.dtype.type(2.0 * float(g)),)

    return ad._node(np.asarray(val, dtype=a.dtype), (a,), bwd)


def numeric_grad(fn, params, h=1e-3):
    """Central finite differences of a scalar fn over a list of float64 arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        flat = p.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


# ----------------------------------------------------------------- conv2d

def test_conv2d_scalar_scaling():
    x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
    k = Tensor(np.array([[[[2.0]]]], dtype=np.float32))
    out = ad.conv2d(x, k)
    assert out.shape == (1, 1, 3, 3)
    assert np.allclose(out.data, 2.0)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 1, 5, 7)).astype(np.float32))
    k = Tensor(np.array([[[[1.0]]]], dtype=np.float32))
    out = ad.conv2d(x, k)
    assert np.array_equal(out.data, x.data)


def test_conv2d_matches_naive_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
    k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
        got = ad.conv2d(Tensor(x), Tensor(k), stride=stride, padding=pad).data
        want = conv2d_naive(x.astype(np.float64), k.astype(np.float64), stride, pad)
        assert rel_err(got.astype(np.float64), want) < 1e-5


def test_conv2d_shape_errors_name_dimension():
    x = Tensor(np.zeros((1, 2, 4, 4), dtype=np.float32))
    k = Tensor(np.zeros((1, 3, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="channels"):
        ad.conv2d(x, k)
    kbig = Tensor(np.zeros((1, 2, 7, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="height"):
        ad.conv2d(x, kbig)
    with pytest.raises(ShapeError, match="stride"):
        ad.conv2d(x, Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32)), stride=0)
    kwide = Tensor(np.zeros((1, 2, 3, 7), dtype=np.float32))
    with pytest.raises(ShapeError, match="kernel width 7 exceeds padded input width 6"):
        ad.conv2d(x, kwide, padding=1)
    k3 = Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match=r"input must be \[N,C,H,W\], got \(2, 4, 4\)"):
        ad.conv2d(Tensor(np.zeros((2, 4, 4), dtype=np.float32)), k3)
    with pytest.raises(ShapeError, match=r"kernel must be 4-d, got \(2, 3, 3\)"):
        ad.conv2d(x, Tensor(np.zeros((2, 3, 3), dtype=np.float32)))
    with pytest.raises(ShapeError, match="padding must be >= 0, got -1"):
        ad.conv2d(x, k3, padding=-1)
    with pytest.raises(ShapeError, match="dtype float32 vs kernel float64"):
        ad.conv2d(x, Tensor(np.zeros((1, 2, 3, 3))))


def test_conv_transpose2d_shape_errors_name_dimension():
    x = Tensor(np.zeros((1, 2, 1, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="input channels 2 != kernel channels 3"):
        ad.conv_transpose2d(x, Tensor(np.zeros((3, 1, 4, 4), dtype=np.float32)))
    # (1 - 1) * 2 - 2 * 1 + 2 = 0 rows; (3 - 1) * 2 - 2 * 1 + 2 = 4 columns
    with pytest.raises(ShapeError, match="output height 0 is not positive"):
        ad.conv_transpose2d(x, Tensor(np.zeros((2, 1, 2, 2), dtype=np.float32)),
                            stride=2, padding=1)
    x_t = Tensor(np.zeros((1, 2, 3, 1), dtype=np.float32))
    with pytest.raises(ShapeError, match="output width 0 is not positive"):
        ad.conv_transpose2d(x_t, Tensor(np.zeros((2, 1, 2, 2), dtype=np.float32)),
                            stride=2, padding=1)


def test_conv_transpose2d_matches_naive_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 3, 4, 5)).astype(np.float32)
    k = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
    for stride, pad in [(1, 0), (2, 1), (2, 0)]:
        got = ad.conv_transpose2d(Tensor(x), Tensor(k), stride=stride, padding=pad).data
        want = conv_transpose2d_naive(x.astype(np.float64), k.astype(np.float64), stride, pad)
        assert rel_err(got.astype(np.float64), want) < 1e-5


def test_conv_adjoint_identity():
    # <conv(x,k), y> == <x, conv_transpose(y,k)> with matched stride/padding
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 7, 7))
    k = rng.standard_normal((3, 2, 3, 3))
    y = rng.standard_normal((1, 3, 4, 4))
    cx = ad.conv2d(Tensor(x), Tensor(k), stride=2, padding=1).data
    # same kernel array read as [Cin=3,Cout=2,kh,kw] maps y's 3 channels back to 2
    ty = ad.conv_transpose2d(Tensor(y), Tensor(k), stride=2, padding=1)
    assert np.isclose(np.vdot(cx, y), np.vdot(x, ty.data), rtol=1e-10)


# Reference: the row-per-output-pixel im2col layout [N*hout*wout, C*kh*kw]
# that the per-image layout replaced, kept to pin the rewrite's numbers.

def _ref_im2col(xp, kh, kw, stride, hout, wout):
    n, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, kh, kw, hout, wout),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride), writeable=False)
    cols = np.ascontiguousarray(view.transpose(0, 4, 5, 1, 2, 3))
    return cols.reshape(n * hout * wout, c * kh * kw)


def _ref_col2im(dcols, xshape, kh, kw, stride, padding, hout, wout):
    n, c, h, w = xshape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    d6 = dcols.reshape(n, hout, wout, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * hout:stride, j:j + stride * wout:stride] += d6[:, :, i, j]
    if padding:
        return dxp[:, :, padding:padding + h, padding:padding + w]
    return dxp


def _ref_pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _ref_conv2d(x, k, g, stride, padding):
    """(output, input gradient, kernel gradient) for upstream gradient g."""
    n, c, h, w = x.shape
    f, _, kh, kw = k.shape
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (w + 2 * padding - kw) // stride + 1
    cols = _ref_im2col(_ref_pad(x, padding), kh, kw, stride, hout, wout)
    kmat = k.reshape(f, -1)
    out = (cols @ kmat.T).reshape(n, hout, wout, f).transpose(0, 3, 1, 2)
    gmat = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * hout * wout, f)
    gk = (gmat.T @ cols).reshape(f, c, kh, kw)
    gx = _ref_col2im(gmat @ kmat, (n, c, h, w), kh, kw, stride, padding, hout, wout)
    return out, gx, gk


def _ref_conv_transpose2d(x, k, g, stride, padding):
    n, cin, h, w = x.shape
    _, cout, kh, kw = k.shape
    hout = (h - 1) * stride - 2 * padding + kh
    wout = (w - 1) * stride - 2 * padding + kw
    kmat = k.reshape(cin, -1)
    xmat = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).reshape(n * h * w, cin)
    out = _ref_col2im(xmat @ kmat, (n, cout, hout, wout), kh, kw, stride, padding, h, w)
    cols_g = _ref_im2col(_ref_pad(g, padding), kh, kw, stride, h, w)
    gx = (cols_g @ kmat.T).reshape(n, h, w, cin).transpose(0, 3, 1, 2)
    gk = (xmat.T @ cols_g).reshape(cin, cout, kh, kw)
    return out, gx, gk


# Every conv and transposed-conv shape DisentangleNet builds, named as the
# benchmark names them: k{kernel.shape[0]}x{kernel.shape[1]}x{kh}s{stride}i{input extent}.
# Kernels of extent 1 are unpadded, the rest pad by 1.
NETWORK_CONV_SHAPES = [
    ("conv2d", 8, 1, 3, 1, 64), ("conv2d", 16, 8, 4, 2, 64), ("conv2d", 32, 16, 4, 2, 32),
    ("conv2d", 64, 32, 4, 2, 16), ("conv2d", 1, 8, 3, 1, 64), ("conv2d", 64, 64, 1, 1, 8),
    ("conv2d", 64, 128, 3, 1, 8), ("conv2d", 8, 1, 4, 2, 64), ("conv2d", 16, 8, 4, 2, 32),
    ("conv2d", 1, 16, 3, 1, 16), ("conv_transpose2d", 64, 32, 4, 2, 8),
    ("conv_transpose2d", 32, 16, 4, 2, 16), ("conv_transpose2d", 16, 8, 4, 2, 32),
]
# float32 results are compared by relative Frobenius error
CONV_RTOL = {np.float32: 2e-5, np.float64: 1e-12}


@pytest.mark.parametrize("kind,k0,k1,kh,stride,extent", NETWORK_CONV_SHAPES,
                         ids=[f"{s[0]}.k{s[1]}x{s[2]}x{s[3]}s{s[4]}i{s[5]}"
                              for s in NETWORK_CONV_SHAPES])
def test_column_kernels_are_adjoint(kind, k0, k1, kh, stride, extent):
    # <im2col(x), C> = <x, col2im(C)> at the geometry each layer passes the
    # pair: a conv's input and output extent, or a transposed conv's output
    # and input extent. Either way x has k1 channels.
    padding = (kh - stride) // 2
    if kind == "conv2d":
        h = extent
        hout = (h + 2 * padding - kh) // stride + 1
    else:
        hout = extent
        h = (hout - 1) * stride - 2 * padding + kh
    rng = np.random.default_rng(zlib.crc32(f"{kind}{k0}x{k1}x{kh}s{stride}i{extent}".encode()))
    x = rng.standard_normal((2, k1, h, h))
    cols = rng.standard_normal((2, k1 * kh * kh, hout * hout))
    lhs = np.vdot(ad._im2col(x, kh, kh, stride, padding, hout, hout), cols)
    rhs = np.vdot(x, ad._col2im(cols, np.empty_like(x), kh, kh, stride, padding, hout, hout))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind,k0,k1,kh,stride,extent", NETWORK_CONV_SHAPES,
                         ids=[f"{s[0]}.k{s[1]}x{s[2]}x{s[3]}s{s[4]}i{s[5]}"
                              for s in NETWORK_CONV_SHAPES])
def test_conv_matches_row_layout_reference(kind, k0, k1, kh, stride, extent, n, dtype):
    padding = 0 if kh == 1 else 1
    cin = k1 if kind == "conv2d" else k0
    rng = np.random.default_rng(zlib.crc32(f"{kind}{k0}x{k1}x{kh}s{stride}i{extent}n{n}".encode()))
    x = rng.standard_normal((n, cin, extent, extent)).astype(dtype)
    k = rng.standard_normal((k0, k1, kh, kh)).astype(dtype)
    tx, tk = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    out = getattr(ad, kind)(tx, tk, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    gx, gk = out._backward(g)
    reference = _ref_conv2d if kind == "conv2d" else _ref_conv_transpose2d
    want_out, want_gx, want_gk = reference(x, k, g, stride, padding)

    rtol = CONV_RTOL[dtype]
    for got, want in [(out.data, want_out), (gx, want_gx), (gk, want_gk)]:
        assert got.dtype == dtype
        assert got.shape == want.shape
        assert rel_err(got.astype(np.float64), want.astype(np.float64)) < rtol
    assert out.data.flags.c_contiguous


# References: the whole-batch convs that `_CONV_CHUNK` replaced, each column
# matrix and product built for all images at once, and the conv2d that kept
# its forward column matrix in the backward closure. They pin the chunked
# convs and the rebuilt-columns backward bit for bit.

def _whole_batch_col2im(dcols, xshape, kh, kw, stride, padding, hout, wout):
    n, c, h, w = xshape
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=dcols.dtype)
    d6 = dcols.reshape(n, c, kh, kw, hout, wout)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * hout:stride, j:j + stride * wout:stride] += d6[:, :, i, j]
    if padding:
        return np.ascontiguousarray(dxp[:, :, padding:padding + h, padding:padding + w])
    return dxp


def _kept_columns_conv2d(x, kernel, stride, padding):
    """(output, backward closure) of the keep-the-columns conv2d."""
    n, c, h, w = x.data.shape
    f, _, kh, kw = kernel.data.shape
    hout = (h + 2 * padding - kh) // stride + 1
    wout = (w + 2 * padding - kw) // stride + 1
    cols = ad._im2col(x.data, kh, kw, stride, padding, hout, wout)
    kmat = kernel.data.reshape(f, -1)
    out = np.matmul(kmat, cols).reshape(n, f, hout, wout)

    def bwd(g):
        g3 = g.reshape(n, f, hout * wout)
        gk = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0).reshape(f, c, kh, kw)
        gx = None
        if x.requires_grad and stride == 1 and f < c and kh == kw and padding < kh:
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            gcols = ad._im2col(g, kh, kw, 1, kh - 1 - padding, h, w)
            gx = np.matmul(kflip, gcols).reshape(n, c, h, w)
        elif x.requires_grad:
            gx = _whole_batch_col2im(np.matmul(kmat.T, g3), (n, c, h, w), kh, kw, stride,
                                     padding, hout, wout)
        return gx, gk

    return out, bwd


def _whole_batch_conv_transpose2d(x, kernel, stride, padding):
    """(output, backward closure) of the whole-batch conv_transpose2d."""
    n, cin, h, w = x.data.shape
    _, cout, kh, kw = kernel.data.shape
    hout = (h - 1) * stride - 2 * padding + kh
    wout = (w - 1) * stride - 2 * padding + kw
    kmat = kernel.data.reshape(cin, -1)
    x3 = x.data.reshape(n, cin, h * w)
    out = _whole_batch_col2im(np.matmul(kmat.T, x3), (n, cout, hout, wout), kh, kw, stride,
                              padding, h, w)

    def bwd(g):
        cols_g = ad._im2col(g, kh, kw, stride, padding, h, w)
        gx = np.matmul(kmat, cols_g).reshape(n, cin, h, w)
        gk = np.matmul(x3, cols_g.transpose(0, 2, 1)).sum(axis=0).reshape(cin, cout, kh, kw)
        return gx, gk

    return out, bwd


def _assert_same_bytes(out, want_out, got_grads, want_grads):
    assert out.data.tobytes() == want_out.tobytes()
    for got, want in zip(got_grads, want_grads):
        assert (got is None) == (want is None)
        if want is not None:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


NETWORK_CONV2D_SHAPES = [s[1:] for s in NETWORK_CONV_SHAPES if s[0] == "conv2d"]


# n = 9 runs two full chunks of `_CONV_CHUNK` = 4 images and a remainder of one
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("grads", ["x", "kernel", "both"])
@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize("k0,k1,kh,stride,extent", NETWORK_CONV2D_SHAPES,
                         ids=[f"k{s[0]}x{s[1]}x{s[2]}s{s[3]}i{s[4]}"
                              for s in NETWORK_CONV2D_SHAPES])
def test_conv2d_backward_matches_kept_columns(k0, k1, kh, stride, extent, n, grads, dtype):
    padding = 0 if kh == 1 else 1
    rng = np.random.default_rng(zlib.crc32(f"k{k0}x{k1}x{kh}s{stride}i{extent}n{n}".encode()))
    x = Tensor(rng.standard_normal((n, k1, extent, extent)).astype(dtype),
               requires_grad=grads in ("x", "both"))
    k = Tensor(rng.standard_normal((k0, k1, kh, kh)).astype(dtype),
               requires_grad=grads in ("kernel", "both"))
    out = ad.conv2d(x, k, stride=stride, padding=padding)
    want_out, want_bwd = _kept_columns_conv2d(x, k, stride, padding)
    g = rng.standard_normal(out.shape).astype(dtype)
    _assert_same_bytes(out, want_out, out._backward(g), want_bwd(g))


NETWORK_CONVT_SHAPES = [s[1:] for s in NETWORK_CONV_SHAPES if s[0] == "conv_transpose2d"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 3, 9])
@pytest.mark.parametrize("k0,k1,kh,stride,extent", NETWORK_CONVT_SHAPES,
                         ids=[f"k{s[0]}x{s[1]}x{s[2]}s{s[3]}i{s[4]}"
                              for s in NETWORK_CONVT_SHAPES])
def test_conv_transpose2d_matches_whole_batch(k0, k1, kh, stride, extent, n, dtype):
    rng = np.random.default_rng(zlib.crc32(f"T{k0}x{k1}x{kh}s{stride}i{extent}n{n}".encode()))
    x = Tensor(rng.standard_normal((n, k0, extent, extent)).astype(dtype), requires_grad=True)
    k = Tensor(rng.standard_normal((k0, k1, kh, kh)).astype(dtype), requires_grad=True)
    out = ad.conv_transpose2d(x, k, stride=stride, padding=1)
    want_out, want_bwd = _whole_batch_conv_transpose2d(x, k, stride, 1)
    g = rng.standard_normal(out.shape).astype(dtype)
    _assert_same_bytes(out, want_out, out._backward(g), want_bwd(g))


@pytest.mark.parametrize("x_grad", [False, True], ids=["kernel", "both"])
def test_conv2d_graph_keeps_no_column_matrix(x_grad):
    # k16x8x4s2i64: the column matrix is 8 * 4 * 4 / 16 = 8 times the output
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, 8, 64, 64)).astype(np.float32), requires_grad=x_grad)
    k = Tensor(rng.standard_normal((16, 8, 4, 4)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, k, stride=2, padding=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    output = out.data.nbytes
    assert output <= held <= output + 64 * 1024


def test_conv2d_temporaries_stay_one_chunk():
    # k16x8x4s2i64 at n = 32: a whole-batch column matrix would be 8 times the
    # output, 16 MiB. Chunked, forward plus backward peaks at the output, gx
    # and one chunk's columns (the backward's chunk of column gradients is the
    # same size), plus the chunk's padded image that _col2im scatters into and
    # the ufunc buffers of its strided adds (~0.1 MiB).
    n = 32
    rng = np.random.default_rng(41)
    x = Tensor(rng.standard_normal((n, 8, 64, 64)).astype(np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((16, 8, 4, 4)).astype(np.float32), requires_grad=True)
    g = rng.standard_normal((n, 16, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.conv2d(x, k, stride=2, padding=1)
        gx, gk = out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    chunk_columns = ad._CONV_CHUNK * 8 * 4 * 4 * 32 * 32 * 4
    padded_chunk = ad._CONV_CHUNK * 8 * 66 * 66 * 4
    bound = out.data.nbytes + gx.nbytes + chunk_columns + padded_chunk + 256 * 1024
    assert peak <= bound < n * 8 * 4 * 4 * 32 * 32 * 4


# Reference: the unfused layer chain that `bias_act` replaced, conv output ->
# add_channel_bias -> leaky_relu / tanh, each op a node with its own output.

def _ref_add_channel_bias(x, b):
    data = x.data + b.data.reshape(1, -1, 1, 1)

    def bwd(g):
        gb = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(b.data.dtype)
        return g, gb

    return ad._node(data, (x, b), bwd)


def _ref_leaky_relu(a):
    data = np.where(a.data > 0, a.data, a.data * a.data.dtype.type(ad.LEAKY_SLOPE))

    def bwd(g):
        return (np.where(data > 0, g, g * g.dtype.type(ad.LEAKY_SLOPE)),)

    return ad._node(data, (a,), bwd)


def _ref_tanh(a):
    y = np.tanh(a.data)

    def bwd(g):
        return (g * (1.0 - y * y),)

    return ad._node(y, (a,), bwd)


_REF_ACT = {"leaky_relu": _ref_leaky_relu, "tanh": _ref_tanh, None: lambda a: a}


@pytest.mark.parametrize("act", ["leaky_relu", "tanh", None], ids=["leaky", "tanh", "none"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("kind,k0,k1,kh,stride,extent", NETWORK_CONV_SHAPES,
                         ids=[f"{s[0]}.k{s[1]}x{s[2]}x{s[3]}s{s[4]}i{s[5]}"
                              for s in NETWORK_CONV_SHAPES])
def test_bias_act_matches_unfused_chain(kind, k0, k1, kh, stride, extent, n, dtype, act):
    padding = 0 if kh == 1 else 1
    cin = k1 if kind == "conv2d" else k0
    cout = k0 if kind == "conv2d" else k1
    rng = np.random.default_rng(zlib.crc32(f"{kind}{k0}x{k1}x{kh}s{stride}i{extent}n{n}".encode()))
    x = Tensor(rng.standard_normal((n, cin, extent, extent)).astype(dtype), requires_grad=True)
    k = Tensor(rng.standard_normal((k0, k1, kh, kh)).astype(dtype), requires_grad=True)
    b = Tensor(rng.standard_normal(cout).astype(dtype), requires_grad=True)
    conv = getattr(ad, kind)

    ref_conv = conv(x, k, stride=stride, padding=padding)
    ref_biased = _ref_add_channel_bias(ref_conv, b)
    ref_out = _REF_ACT[act](ref_biased)
    conv_out = conv(x, k, stride=stride, padding=padding)
    out = ad.bias_act(conv_out, b, act)
    assert out.data.tobytes() == ref_out.data.tobytes()
    assert out.data.dtype == dtype and out.data.flags.c_contiguous
    # the result overwrote the conv output, and both nodes stay in the graph
    assert out.data is conv_out.data and out._parents == (conv_out, b)

    g = rng.standard_normal(out.shape).astype(dtype)
    g_biased = g if act is None else ref_out._backward(g)[0]
    want_gc, want_gb = ref_biased._backward(g_biased)
    want_gx, want_gk = ref_conv._backward(want_gc)
    got_gc, got_gb = out._backward(g)
    got_gx, got_gk = conv_out._backward(got_gc)
    for got, want in [(got_gx, want_gx), (got_gk, want_gk), (got_gb, want_gb)]:
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_leaky_relu_output_mask_matches_input_mask(dtype):
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    assert dtype(-tiny) * dtype(ad.LEAKY_SLOPE) == 0.0  # underflows to -0.0
    a = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, 1e30, -1e30, info.max, -info.max,
                  np.inf, -np.inf, np.nan], dtype=dtype)
    g = np.arange(1, a.size + 1, dtype=dtype) * dtype(0.37)
    # a bias of -0.0 leaves every value's bits as they are, -0.0 included
    out = ad.bias_act(Tensor(a.reshape(1, 1, 1, -1).copy(), requires_grad=True),
                      Tensor(np.array([-0.0], dtype=dtype)), "leaky_relu")
    slope = dtype(ad.LEAKY_SLOPE)
    # the input-mask forward and backward of the unfused leaky_relu
    mask = a > 0
    assert out.data.tobytes() == np.where(mask, a, a * slope).tobytes()
    got, _ = out._backward(g.reshape(out.shape))
    assert got.dtype == dtype
    assert got.tobytes() == np.where(mask, g, g * slope).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_leaky_relu_gradient_matches_a_select_on_special_values(dtype):
    # backward multiplies g by a factor of exactly 1 or the slope, where the
    # unfused leaky_relu selected g or g * slope; each special g, on either
    # side of the mask, keeps the select's bytes
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    slope = dtype(ad.LEAKY_SLOPE)
    assert (dtype(1.0 - ad.LEAKY_SLOPE) + slope) == dtype(1.0)
    specials = np.array([0.0, -0.0, tiny, -tiny, 1.0, -1.0, np.inf, -np.inf,
                         info.max, -info.max, np.nan], dtype=dtype)
    g = np.repeat(specials, 2)
    a = np.tile(np.array([1.0, -1.0], dtype=dtype), specials.size)
    out = ad.bias_act(Tensor(a.reshape(1, 1, 1, -1).copy(), requires_grad=True),
                      Tensor(np.zeros(1, dtype=dtype)), "leaky_relu")
    with np.errstate(over="ignore", invalid="ignore"):  # the bias sum of +-inf
        got, _ = out._backward(g.reshape(out.shape))
    assert got.dtype == dtype
    assert got.tobytes() == np.where(a > 0, g, g * slope).tobytes()


@pytest.mark.parametrize("layer,act", [("conv", "leaky_relu"), ("conv", "tanh"),
                                       ("conv", None), ("conv_t", "leaky_relu")],
                         ids=["conv-leaky", "conv-tanh", "conv-none", "convT-leaky"])
def test_layer_graph_holds_one_output_buffer(layer, act):
    # k16x8x4s2i64 and its transpose k16x8x4s2i32: the layer's conv output,
    # biased and activated in place, is the only output-sized array it keeps
    rng = np.random.default_rng(37)
    if layer == "conv":
        mod = networks._Conv(8, 16, 4, 2, act, rng)
        x = Tensor(rng.standard_normal((3, 8, 64, 64)).astype(np.float32))
    else:
        mod = networks._ConvT(16, 8, rng)
        x = Tensor(rng.standard_normal((3, 16, 32, 32)).astype(np.float32))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = mod(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert out.requires_grad and out._backward is not None
    output = out.data.nbytes
    assert output <= held <= output + 64 * 1024


# ----------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    # d/dp sum(p^2) = 2p, which is exactly one at p = 1/2
    p = Tensor(np.full((3, 4), 0.5, dtype=np.float32), requires_grad=True)
    ad.backward(sum_sq(p))
    assert np.array_equal(p.grad, np.ones((3, 4), dtype=np.float32))


def test_backward_l1_subgradient_values():
    rng = np.random.default_rng(4)
    a_data = rng.standard_normal((4, 5)).astype(np.float32)
    b_data = a_data + rng.choice([-1.0, 1.0], size=(4, 5)).astype(np.float32)
    a = Tensor(a_data, requires_grad=True)
    loss = ad.l1_loss(a, Tensor(b_data))
    ad.backward(loss)
    n = a_data.size
    assert set(np.round(np.abs(a.grad) * n, 5).ravel().tolist()) == {1.0}


def test_backward_rejects_non_scalar():
    p = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.add(p, p))
    with pytest.raises(TypeError, match="backward expects a Tensor"):
        ad.backward(np.float32(1.0))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.l1_loss, ad.mse_loss])
def test_binary_ops_reject_operands_of_another_dtype(op):
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    b = Tensor(np.ones((2, 3), dtype=np.float64))
    with pytest.raises(ShapeError, match="dtype float32 vs float64"):
        op(a, b)


def test_concat_rejects_an_empty_list_and_mixed_ranks():
    with pytest.raises(ShapeError, match="concat of empty list"):
        ad.concat([])
    a = Tensor(np.ones((2, 3), dtype=np.float32))
    with pytest.raises(ShapeError, match="concat: rank 1 vs 2"):
        ad.concat([a, Tensor(np.ones(3, dtype=np.float32))])


def test_backward_accumulates_across_calls():
    # the gradients of two separately built graphs add up in the leaf
    p = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    ad.backward(sum_sq(p))
    once = p.grad.copy()
    ad.backward(sum_sq(p))
    assert np.array_equal(p.grad, 2 * once)


def test_second_backward_through_one_graph_raises():
    # backward consumes its graph: a second pass through it, from its loss
    # or from a new graph built on one of its interior nodes, raises the
    # named error before any gradient is added
    p = Tensor(np.arange(1.0, 5.0, dtype=np.float32).reshape(2, 2), requires_grad=True)
    inner = ad.add(p, p)
    loss = sum_sq(inner)
    ad.backward(loss)
    once = p.grad.copy()
    with pytest.raises(ad.GraphConsumedError, match="consumed graph"):
        ad.backward(loss)
    q = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ad.GraphConsumedError, match="consumed graph"):
        ad.backward(sum_sq(ad.add(inner, q)))
    assert np.array_equal(p.grad, once) and not q.grad.any()


def test_backward_drops_each_interior_nodes_links_and_closure():
    rng = np.random.default_rng(44)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
    conv = ad.conv2d(x, k, padding=1)
    act = ad.bias_act(conv, b, "leaky_relu")
    loss = sum_sq(act)
    interior = [conv, act, loss]
    assert all(t._parents and t._backward is not None for t in interior)
    ad.backward(loss)
    for t in interior:
        assert t.requires_grad and t.grad is None
        assert t._parents == () and t._backward is None
    # values stay, and so do the leaves' gradients
    assert act.data is conv.data and loss.data.shape == ()
    assert all(leaf.grad.any() for leaf in (x, k, b))


def test_conv_stack_backward_frees_the_graph_as_it_runs():
    # A 3x3 layer under three 1x1 layers. The 3x3 layer's backward has the
    # largest temporaries, its chunks of 9-rows-per-channel columns; by the
    # time it runs, the three activations above it are freed, so the peak
    # stays more than two activations below the forward graph plus that
    # layer's temporaries. Measured 12.2 activations against a bound of 13.2;
    # with every node kept until backward returns it read 15.2.
    rng = np.random.default_rng(43)
    x = Tensor(rng.standard_normal((4, 8, 32, 32)).astype(np.float32))
    big = networks._Conv(8, 8, 3, 1, "leaky_relu", rng)
    stack = [big] + [networks._Conv(8, 8, 1, 1, "leaky_relu", rng) for _ in range(3)]

    def loss_of(layers):
        h = x
        for layer in layers:
            h = layer(h)
        return sum_sq(h)

    def held_and_peak(layers):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = loss_of(layers)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return held, peak

    held_and_peak(stack)  # first-use allocations
    one_held, one_peak = held_and_peak([big])
    held, peak = held_and_peak(stack)
    act = x.data.nbytes
    assert 4 * act <= held
    assert peak < held + (one_peak - one_held) - 2 * act


@pytest.mark.parametrize("op,factor", [(ad.add, 8.0), (lambda a, b: ad.concat([a, b]), 4.0),
                                       (ad.sub, 0.0)], ids=["add", "concat", "sub"])
def test_backward_visits_a_tensor_read_twice_once(op, factor):
    # the op pushes its one parent twice; the second visit is skipped, and
    # both of the op's gradients still reach the leaf
    a = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
    inner = op(a, a)
    loss = sum_sq(inner)
    runs = []
    for node in (inner, loss):
        def counted(g, bwd=node._backward, node=node):
            runs.append(node)
            return bwd(g)
        node._backward = counted
    ad.backward(loss)
    assert np.array_equal(a.grad, factor * a.data)
    assert runs == [loss, inner]


def test_backward_adds_into_the_grad_array_in_place():
    # a reference to grad taken before backward sees the update, for a 0-d
    # leaf too, and the dtype stays the leaf's
    for data in (np.ones((2, 2), dtype=np.float32), np.float64(3.0)):
        p = Tensor(data, requires_grad=True)
        held = p.grad
        ad.backward(sum_sq(p))
        assert p.grad is held
        assert held.dtype == p.dtype and held.shape == p.shape
        assert np.array_equal(held, 2 * p.data)


def test_backward_gives_a_parent_that_needs_no_gradient_none():
    # conv2d's closure returns None for an input image that needs no
    # gradient; backward skips that parent, leaves its grad None and still
    # gives the kernel its gradient
    rng = np.random.default_rng(9)
    image = Tensor(rng.standard_normal((1, 1, 6, 6)))
    kernel = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
    ad.backward(sum_sq(ad.conv2d(image, kernel, stride=1, padding=1)))
    assert image.grad is None

    def f():
        return float(sum_sq(ad.conv2d(image, Tensor(kernel.data), stride=1, padding=1)).data)

    (g,) = numeric_grad(f, [kernel.data])
    assert rel_err(kernel.grad, g) < 1e-4


def test_backward_keeps_gradients_on_leaves_only():
    # operation results get no grad; the leaves get the full gradient, and a
    # backward through a second graph of the same net adds to it
    rng = np.random.default_rng(8)
    xd = rng.standard_normal((1, 1, 6, 6))
    arrs = [rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1]

    def net(x, k, b):
        conv = ad.conv2d(x, k, stride=1, padding=1)
        act = ad.bias_act(conv, b, "tanh")
        return [conv, act, sum_sq(act)]

    leaves = [Tensor(a, requires_grad=True) for a in [xd] + arrs]
    interior = net(*leaves)
    ad.backward(interior[-1])
    for t in interior:
        assert t.requires_grad and t.grad is None

    def f():
        return float(net(Tensor(xd), *[Tensor(a) for a in arrs])[-1].data)

    for leaf, g in zip(leaves, numeric_grad(f, [xd] + arrs)):
        assert rel_err(leaf.grad, g) < 1e-4
    once = [leaf.grad.copy() for leaf in leaves]
    again = net(*leaves)
    ad.backward(again[-1])
    for leaf, g in zip(leaves, once):
        assert np.array_equal(leaf.grad, 2 * g)
    assert all(t.grad is None for t in interior + again)


def test_zero_grad_resets_exactly():
    p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    ad.backward(sum_sq(p))
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(4, dtype=np.float32))


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    k = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    bias = Tensor(rng.standard_normal(2).astype(np.float32))
    a = ad.bias_act(ad.conv2d(Tensor(x), Tensor(k), padding=1), bias, "tanh").data
    b = ad.bias_act(ad.conv2d(Tensor(x), Tensor(k), padding=1), bias, "tanh").data
    assert np.array_equal(a, b)


# ------------------------------------------------- finite-difference checks

def _two_layer_net(params, x):
    k1, b1, k2, b2 = params
    h1 = ad.bias_act(ad.conv2d(x, k1, stride=1, padding=1), b1, "leaky_relu")
    out = ad.bias_act(ad.conv2d(h1, k2, stride=2, padding=1), b2, "tanh")
    # a target below every output keeps the loss gradient away from zero
    return ad.mse_loss(out, Tensor(np.full(out.shape, -1.0)))


def test_two_layer_net_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    for trial in range(20):
        xd = rng.standard_normal((1, 1, 6, 6))
        arrs = [
            rng.standard_normal((2, 1, 3, 3)) * 0.5,
            rng.standard_normal(2) * 0.1,
            rng.standard_normal((1, 2, 3, 3)) * 0.5,
            rng.standard_normal(1) * 0.1,
        ]
        # keep leaky-relu pre-activations away from the kink so the FD
        # oracle is valid (the derivative does not exist at 0)
        pre = conv2d_naive(xd, arrs[0], 1, 1) + arrs[1].reshape(1, -1, 1, 1)
        if np.abs(pre).min() < 5e-3:
            continue
        params = [Tensor(a, requires_grad=True) for a in arrs]
        x = Tensor(xd)
        loss = _two_layer_net(params, x)
        ad.backward(loss)

        def f():
            return float(_two_layer_net([Tensor(a) for a in arrs], Tensor(xd)).data)

        fd = numeric_grad(f, arrs)
        for p, g in zip(params, fd):
            assert rel_err(p.grad, g) < 1e-4


# bias_act's activation under each of its gradcheck names
BIAS_ACT = {"leaky_relu": "leaky_relu", "tanh": "tanh", "bias": None}


@pytest.mark.parametrize("op_name", [
    "leaky_relu", "tanh", "add", "sub", "l1_loss", "mse_loss",
    "concat", "bias", "conv2d", "conv_transpose2d",
])
def test_per_op_gradcheck(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(5):
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((2, 3, 4, 4))
        bias = rng.standard_normal(3) if op_name in BIAS_ACT else None
        pre = a if bias is None else a + bias.reshape(1, -1, 1, 1)
        if op_name == "leaky_relu" and np.abs(pre).min() < 5e-3:
            a = a + np.sign(pre) * 0.01
        if op_name == "l1_loss":
            # keep |a-b| clear of the absolute-value kink for the FD oracle
            close = np.abs(a - b) < 5e-3
            b = np.where(close, b + np.sign(b - a + 1e-9) * 0.01, b)
        arrs = {"a": a, "b": b}
        if bias is not None:
            arrs["bias"] = bias

        def build(arrs=arrs):
            ta = Tensor(arrs["a"], requires_grad=True)
            tb = Tensor(arrs["b"], requires_grad=True)
            if op_name in BIAS_ACT:
                tbias = Tensor(arrs["bias"], requires_grad=True)
                # bias_act overwrites its input: give it a fresh op result, as a conv does
                fresh = ad.add(ta, Tensor(np.zeros_like(ta.data)))
                out = ad.bias_act(fresh, tbias, BIAS_ACT[op_name])
                used = [ta, tbias]
            elif op_name == "add":
                out, used = ad.add(ta, tb), [ta, tb]
            elif op_name == "sub":
                out, used = ad.sub(ta, tb), [ta, tb]
            elif op_name == "l1_loss":
                out, used = ad.l1_loss(ta, tb), [ta, tb]
            elif op_name == "mse_loss":
                out, used = ad.mse_loss(ta, tb), [ta, tb]
            elif op_name == "concat":
                out, used = ad.concat([ta, tb], axis=1), [ta, tb]
            elif op_name == "conv2d":
                tk = Tensor(arrs["k"], requires_grad=True)
                out, used = ad.conv2d(ta, tk, stride=2, padding=1), [ta, tk]
            elif op_name == "conv_transpose2d":
                tk = Tensor(arrs["kt"], requires_grad=True)
                out, used = ad.conv_transpose2d(ta, tk, stride=2, padding=1), [ta, tk]
            else:
                raise AssertionError(op_name)
            if out.data.size > 1:
                out = sum_sq(out)
            return out, used

        if op_name == "conv2d":
            arrs["k"] = rng.standard_normal((2, 3, 3, 3)) * 0.5
        if op_name == "conv_transpose2d":
            arrs["kt"] = rng.standard_normal((3, 2, 3, 3)) * 0.5

        out, used = build()
        ad.backward(out)
        names = ["a", "b", "bias", "k", "kt"]
        arr_list = [arrs[nm] for nm in names if nm in arrs]

        def f():
            o, _ = build()
            return float(o.data)

        fd = numeric_grad(f, arr_list)
        fd_by_name = dict(zip([nm for nm in names if nm in arrs], fd))
        labels = {"add": ["a", "b"], "sub": ["a", "b"],
                  "l1_loss": ["a", "b"], "mse_loss": ["a", "b"], "concat": ["a", "b"],
                  "leaky_relu": ["a", "bias"], "tanh": ["a", "bias"],
                  "bias": ["a", "bias"], "conv2d": ["a", "k"],
                  "conv_transpose2d": ["a", "kt"]}[op_name]
        for t, nm in zip(used, labels):
            assert rel_err(t.grad, fd_by_name[nm]) < 1e-4, f"{op_name}/{nm}"


def test_detach_blocks_gradient():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    d = a.detach()
    assert not d.requires_grad
    loss = sum_sq(ad.sub(Tensor(np.ones(3, dtype=np.float32), requires_grad=True), d))
    ad.backward(loss)
    assert a.grad is not None and np.allclose(a.grad, 0.0)


def _mixed_graph(x, k, kt, bias, bias_t):
    h = ad.bias_act(ad.conv2d(x, k, stride=1, padding=1), bias, "leaky_relu")
    up = ad.bias_act(ad.conv_transpose2d(h, kt, stride=2, padding=1), bias_t, "tanh")
    both = ad.concat([up, ad.add(up, up)], axis=1)
    losses = ad.add(ad.mse_loss(both, ad.sub(both, both)), ad.l1_loss(both, both))
    return both, ad.add(losses, sum_sq(both))


def test_no_graph_links_nothing_and_keeps_values():
    rng = np.random.default_rng(23)

    def leaf(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    args = (leaf(2, 3, 6, 6), leaf(4, 3, 3, 3), leaf(4, 2, 4, 4), leaf(4), leaf(2))
    graphed = _mixed_graph(*args)
    with ad.no_graph():
        free = _mixed_graph(*args)
    for g, f in zip(graphed, free):
        assert g.requires_grad and g._parents and g._backward is not None
        assert not f.requires_grad and f._parents == () and f._backward is None
        assert np.array_equal(f.data, g.data) and f.dtype == g.dtype
    # recording resumes on exit, also when the block raises
    with pytest.raises(ShapeError):
        with ad.no_graph():
            ad.add(args[3], args[0])
    again = _mixed_graph(*args)[1]
    assert again._parents and again._backward is not None
