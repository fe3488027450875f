"""Named parameter collection and Adam updates.

Adam runs at one fixed setting, BETA1, BETA2 and EPS below; only the
learning rate is set by the caller.
"""

import numpy as np

from .autodiff import Tensor

BETA1 = 0.5
BETA2 = 0.999
EPS = 1e-8


class NanGradientError(RuntimeError):
    """A gradient contains NaN or inf; the whole update step is aborted."""

    def __init__(self, param_name):
        super().__init__(f"non-finite gradient in parameter '{param_name}'")
        self.param_name = param_name


class ParameterStore:
    """Ordered name -> Tensor map with per-parameter Adam moments."""

    def __init__(self):
        self._params = {}
        self._m = {}
        self._v = {}
        self.step_count = 0

    def add(self, name, tensor):
        if name in self._params:
            raise ValueError(f"duplicate parameter name '{name}'")
        if not isinstance(tensor, Tensor) or not tensor.requires_grad:
            raise ValueError(f"parameter '{name}' must be a Tensor with requires_grad=True")
        self._params[name] = tensor
        return tensor

    # read accessors: the update itself needs only items(); these let a
    # store's parameters and moments be inspected by name

    def __getitem__(self, name):
        return self._params[name]

    def names(self):
        return list(self._params.keys())

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    def moment_arrays(self, name):
        return self._m.get(name), self._v.get(name)


def check_grads(store):
    """Raise if any gradient is missing or non-finite. Mutates nothing."""
    for name, p in store.items():
        if p.grad is None:
            raise ValueError(f"parameter '{name}' has no gradient; call zero_grad + backward first")
        if not np.isfinite(p.grad).all():
            raise NanGradientError(name)


def adam_step(store, lr):
    """One bias-corrected Adam update over every parameter in the store.

    Validates all gradients before touching any state, so a NaN or inf
    aborts the step with parameters and moments unchanged. Gradients are
    left intact.
    """
    check_grads(store)
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for name, p in store.items():
        g = p.grad
        m = store._m.get(name)
        if m is None:
            m = store._m[name] = np.zeros_like(p.data)
            store._v[name] = np.zeros_like(p.data)
        v = store._v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
