import numpy as np
import pytest

from patchmar import autodiff as ad
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


# ----------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    # d/dp sum(p^2) = 2p, which is exactly one at p = 1/2
    p = Tensor(np.full((3, 4), 0.5, dtype=np.float32), requires_grad=True)
    ad.backward(ad.frobenius_sq(p))
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
        ad.backward(ad.scale(p, 2.0))


def test_backward_accumulates_across_calls():
    p = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    loss = ad.frobenius_sq(p)
    ad.backward(loss)
    once = p.grad.copy()
    ad.backward(loss)
    assert np.array_equal(p.grad, 2 * once)


def test_backward_keeps_gradients_on_leaves_only():
    # operation results get no grad; the leaves get the full gradient, and a
    # second backward through the same graph adds to it
    rng = np.random.default_rng(8)
    xd = rng.standard_normal((1, 1, 6, 6))
    arrs = [rng.standard_normal((2, 1, 3, 3)) * 0.5, rng.standard_normal(2) * 0.1]

    def net(x, k, b):
        conv = ad.conv2d(x, k, stride=1, padding=1)
        biased = ad.add_channel_bias(conv, b)
        act = ad.tanh(biased)
        return [conv, biased, act, ad.frobenius_sq(act)]

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
    ad.backward(interior[-1])
    for leaf, g in zip(leaves, once):
        assert np.array_equal(leaf.grad, 2 * g)
    assert all(t.grad is None for t in interior)


def test_zero_grad_resets_exactly():
    p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    ad.backward(ad.frobenius_sq(p))
    p.zero_grad()
    assert np.array_equal(p.grad, np.zeros(4, dtype=np.float32))


def test_forward_determinism():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    k = rng.standard_normal((2, 2, 3, 3)).astype(np.float32)
    a = ad.tanh(ad.conv2d(Tensor(x), Tensor(k), padding=1)).data
    b = ad.tanh(ad.conv2d(Tensor(x), Tensor(k), padding=1)).data
    assert np.array_equal(a, b)


# ------------------------------------------------- finite-difference checks

def _two_layer_net(params, x):
    k1, b1, k2, b2 = params
    h1 = ad.leaky_relu(ad.add_channel_bias(ad.conv2d(x, k1, stride=1, padding=1), b1))
    h2 = ad.add_channel_bias(ad.conv2d(h1, k2, stride=2, padding=1), b2)
    out = ad.tanh(h2)
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


@pytest.mark.parametrize("op_name", [
    "leaky_relu", "tanh", "frobenius_sq", "add", "sub", "l1_loss", "mse_loss",
    "concat", "reshape", "transpose", "bias", "conv2d", "conv_transpose2d",
])
def test_per_op_gradcheck(op_name):
    rng = np.random.default_rng(hash(op_name) % 2 ** 32)
    for _ in range(5):
        a = rng.standard_normal((2, 3, 4, 4))
        b = rng.standard_normal((2, 3, 4, 4))
        if op_name == "leaky_relu" and np.abs(a).min() < 5e-3:
            a = a + np.sign(a) * 0.01
        if op_name == "l1_loss":
            # keep |a-b| clear of the absolute-value kink for the FD oracle
            close = np.abs(a - b) < 5e-3
            b = np.where(close, b + np.sign(b - a + 1e-9) * 0.01, b)
        arrs = {"a": a, "b": b}

        def build(arrs=arrs):
            ta = Tensor(arrs["a"], requires_grad=True)
            tb = Tensor(arrs["b"], requires_grad=True)
            if op_name == "leaky_relu":
                out, used = ad.leaky_relu(ta), [ta]
            elif op_name == "tanh":
                out, used = ad.tanh(ta), [ta]
            elif op_name == "frobenius_sq":
                out, used = ad.frobenius_sq(ta), [ta]
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
            elif op_name == "reshape":
                out, used = ad.reshape(ta, (2, 48)), [ta]
            elif op_name == "transpose":
                out, used = ad.transpose(ta, (1, 0, 3, 2)), [ta]
            elif op_name == "bias":
                tbias = Tensor(arrs["bias"], requires_grad=True)
                out, used = ad.add_channel_bias(ta, tbias), [ta, tbias]
            elif op_name == "conv2d":
                tk = Tensor(arrs["k"], requires_grad=True)
                out, used = ad.conv2d(ta, tk, stride=2, padding=1), [ta, tk]
            elif op_name == "conv_transpose2d":
                tk = Tensor(arrs["kt"], requires_grad=True)
                out, used = ad.conv_transpose2d(ta, tk, stride=2, padding=1), [ta, tk]
            else:
                raise AssertionError(op_name)
            if out.data.size > 1:
                out = ad.frobenius_sq(out)
            return out, used

        if op_name == "bias":
            arrs["bias"] = rng.standard_normal(3)
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
                  "bias": ["a", "bias"], "conv2d": ["a", "k"],
                  "conv_transpose2d": ["a", "kt"]}.get(op_name, ["a"])
        for t, nm in zip(used, labels):
            assert rel_err(t.grad, fd_by_name[nm]) < 1e-4, f"{op_name}/{nm}"


def test_detach_blocks_gradient():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    d = a.detach()
    assert not d.requires_grad
    loss = ad.frobenius_sq(ad.sub(Tensor(np.ones(3, dtype=np.float32), requires_grad=True), d))
    ad.backward(loss)
    assert a.grad is not None and np.allclose(a.grad, 0.0)
