import numpy as np
import pytest

from patchmar import autodiff as ad
from patchmar.autodiff import Tensor
from patchmar.optim import ParameterStore, adam_step, NanGradientError


def adam_oracle(w0, grad_fn, lr, beta1, beta2, eps, steps):
    # independent straight-line implementation of the update rule
    w = float(w0)
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1 ** t)
        vh = v / (1 - beta2 ** t)
        w -= lr * mh / (np.sqrt(vh) + eps)
    return w


def make_store(value):
    store = ParameterStore()
    store.add("w", Tensor(np.asarray(value, dtype=np.float64), requires_grad=True))
    return store


def test_zero_grad_leaves_parameters_unchanged():
    store = make_store([1.0, -2.0, 3.0])
    store.zero_grad()
    before = store["w"].data.copy()
    adam_step(store, lr=0.1)
    assert np.array_equal(store["w"].data, before)


def test_first_step_is_bias_corrected_unit_step():
    store = make_store(0.0)
    store.zero_grad()
    store["w"].grad[...] = 1.0
    adam_step(store, lr=0.1)
    assert abs(float(store["w"].data) - (-0.1)) < 1e-6


def test_hundred_steps_on_quadratic_reaches_minimum():
    lr, b1, b2, eps = 0.1, 0.5, 0.999, 1e-8
    store = make_store(0.0)
    for _ in range(100):
        store.zero_grad()
        w = store["w"]
        loss = ad.mse_loss(w, Tensor(np.asarray(3.0)))
        ad.backward(loss)
        adam_step(store, lr=lr)
    w_final = float(store["w"].data)
    w_oracle = adam_oracle(0.0, lambda w: 2 * (w - 3.0), lr, b1, b2, eps, 100)
    assert abs(w_final - w_oracle) < 1e-9
    assert abs(w_final - 3.0) < 0.1


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_nan_gradient_aborts_and_names_parameter(bad_value):
    store = ParameterStore()
    store.add("ok", Tensor(np.zeros(2), requires_grad=True))
    store.add("bad", Tensor(np.zeros(2), requires_grad=True))
    store.zero_grad()
    store["ok"].grad[...] = 1.0
    store["bad"].grad[0] = bad_value
    before_ok = store["ok"].data.copy()
    before_bad = store["bad"].data.copy()
    with pytest.raises(NanGradientError, match="non-finite gradient in parameter 'bad'"):
        adam_step(store, lr=0.1)
    assert np.array_equal(store["ok"].data, before_ok)
    assert np.array_equal(store["bad"].data, before_bad)
    assert store.step_count == 0
    assert store.moment_arrays("ok") == (None, None)


def test_missing_gradient_rejected():
    store = make_store(1.0)
    store["w"].grad = None
    with pytest.raises(ValueError, match="no gradient"):
        adam_step(store, lr=0.1)


def test_step_count_increases_and_moments_shape_match():
    store = make_store(np.ones((2, 3)))
    for i in range(3):
        store.zero_grad()
        store["w"].grad[...] = 0.5
        adam_step(store, lr=0.01)
        assert store.step_count == i + 1
    m, v = store.moment_arrays("w")
    assert m.shape == (2, 3) and v.shape == (2, 3)


def test_gradients_left_untouched_by_step():
    store = make_store(np.ones(3))
    store.zero_grad()
    store["w"].grad[...] = 2.0
    adam_step(store, lr=0.01)
    assert np.array_equal(store["w"].grad, np.full(3, 2.0))
